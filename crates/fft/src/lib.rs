//! From-scratch FFT substrate for the `rrs` workspace.
//!
//! The paper's machinery is built on the 2-D DFT (eqns 11–12):
//!
//! ```text
//! F[vx, vy] = Σ_nx Σ_ny f[nx, ny] · e^{-j2π nx vx / Nx} · e^{-j2π ny vy / Ny}
//! f[nx, ny] = (1 / Nx Ny) Σ Σ F[vx, vy] · e^{+j2π ...}
//! ```
//!
//! This crate implements that transform without external dependencies:
//!
//! * [`plan::FftPlan`] — iterative radix-2 decimation-in-time with cached
//!   twiddles and bit-reversal tables, for power-of-two lengths, one
//!   transform at a time or [`LANES`] at once on split-complex planes;
//! * [`bluestein::Bluestein`] — chirp-z re-expression of arbitrary lengths
//!   as a power-of-two convolution, so *any* grid size works;
//! * [`Fft`] — a length-dispatching front end caching whichever engine a
//!   length needs, one sequence at a time or [`LANES`] at once (Bluestein
//!   included: its chirp and filter multiplies are elementwise, its inner
//!   transforms power-of-two);
//! * [`fft2d`] — row–column 2-D transforms on those lanes, with optional
//!   multi-threading;
//! * [`rfft`] — real-input 2-D transforms on packed Hermitian spectra,
//!   batched across lanes, with a fused whole-tile convolution;
//! * [`spectral`] — `fftshift`, frequency grids (eqn 13) and the index
//!   folding of eqn (16).
//!
//! Normalisation convention (matching the paper): `forward` carries no
//! factor, `inverse` carries `1/N` (and `1/(Nx·Ny)` in 2-D), so
//! `inverse(forward(x)) == x`.
//!
//! The naive `O(N²)` [`dft`] module is retained as the test oracle: every
//! fast path is property-tested against it.

#![warn(missing_docs)]

pub mod bluestein;
pub mod dft;
pub mod fft2d;
pub mod plan;
pub mod rfft;
pub mod spectral;

use rrs_num::Complex64;
use rrs_obs::{stage, Recorder};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

pub use fft2d::Fft2d;
pub use plan::{FftPlan, Lane, LANES};
pub use rfft::{RealFft2d, RealTile, Spectrum, TileWorkspace};

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `e^{-j2πnk/N}` kernel, no normalisation.
    Forward,
    /// `e^{+j2πnk/N}` kernel, `1/N` normalisation.
    Inverse,
}

enum Engine {
    Radix2(plan::FftPlan),
    Bluestein(bluestein::Bluestein),
}

/// A one-dimensional FFT of a fixed length, usable for any `len >= 1`.
///
/// Construction precomputes all tables; [`Fft::process`] then runs with at
/// most one scratch allocation per call on the Bluestein path and none on
/// the radix-2 path.
pub struct Fft {
    len: usize,
    engine: Engine,
}

impl Fft {
    /// Prepares a transform of length `len`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "FFT length must be positive");
        let engine = if len.is_power_of_two() {
            Engine::Radix2(plan::FftPlan::new(len))
        } else {
            Engine::Bluestein(bluestein::Bluestein::new(len))
        };
        Self { len, engine }
    }

    /// The transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: zero-length transforms cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms `buf` in place.
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn process(&self, buf: &mut [Complex64], dir: Direction) {
        assert_eq!(buf.len(), self.len, "buffer length mismatch");
        match &self.engine {
            Engine::Radix2(p) => p.process(buf, dir),
            Engine::Bluestein(b) => b.process(buf, dir),
        }
    }

    /// Where element `i` of a sequence goes in the planes
    /// [`Fft::process_lanes`] reads: its bit-reversed index on radix-2
    /// lengths (the butterflies read bit-reversed input, so the caller's
    /// load does the permutation), `i` itself on Bluestein lengths (the
    /// chirp multiply reads in order).
    #[inline]
    pub(crate) fn lane_slot(&self, i: usize) -> usize {
        match &self.engine {
            Engine::Radix2(p) => p.bit_reversed(i),
            Engine::Bluestein(_) => i,
        }
    }

    /// [`Fft::process`] on [`LANES`] sequences at once, in place on the
    /// split-complex planes `re` and `im` ([`Lane`] rows, `len()` each):
    /// on entry element `i` of lane `c` sits at `[lane_slot(i)][c]`, on
    /// exit element `i` of its transform at `[i][c]`. Radix-2 lengths run
    /// [`FftPlan::butterflies_lanes`]; Bluestein lengths run the chirp
    /// multiplies, the inner transforms and the filter multiply on lanes
    /// in `scratch` (grown at most once). Each lane gets exactly the
    /// operations `process` applies, so its result is bit-identical to
    /// it; unfilled lanes are transformed too and never touch the others.
    ///
    /// Runs an AVX2-compiled copy when the CPU has AVX2 (detected at run
    /// time) and the portable copy otherwise, with the same bits (see
    /// [`rfft`]).
    ///
    /// # Panics
    /// Panics if either plane does not hold exactly `len()` lanes.
    pub(crate) fn process_lanes(
        &self,
        re: &mut [Lane],
        im: &mut [Lane],
        dir: Direction,
        scratch: &mut Vec<Lane>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.lanes_avx2(re, im, dir, scratch) };
        }
        self.lanes_portable(re, im, dir, scratch);
    }

    /// [`Fft::process_lanes`]' body, compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_avx2(
        &self,
        re: &mut [Lane],
        im: &mut [Lane],
        dir: Direction,
        scratch: &mut Vec<Lane>,
    ) {
        self.lanes_portable(re, im, dir, scratch);
    }

    /// [`Fft::process_lanes`]' body, which both copies compile.
    #[inline(always)]
    pub(crate) fn lanes_portable(
        &self,
        re: &mut [Lane],
        im: &mut [Lane],
        dir: Direction,
        scratch: &mut Vec<Lane>,
    ) {
        match &self.engine {
            Engine::Radix2(p) => {
                p.butterflies_lanes(re, im, dir);
                // `FftPlan::process` returns before its `1/n` when n = 1.
                if dir == Direction::Inverse && self.len > 1 {
                    let k = 1.0 / self.len as f64;
                    for (r, i) in re.iter_mut().zip(im.iter_mut()) {
                        for c in 0..LANES {
                            let z = Complex64::new(r[c], i[c]).scale(k);
                            (r[c], i[c]) = (z.re, z.im);
                        }
                    }
                }
            }
            Engine::Bluestein(b) => b.process_lanes(re, im, dir, scratch),
        }
    }
}

/// The process-wide cache of prepared 2-D transforms — complex
/// ([`Fft2d`]) and real-input ([`RealFft2d`]) — one map per kind, each
/// keyed on the shape `(nx, ny)` alone.
///
/// Twiddle, bit-reversal and Bluestein tables depend on the shape only,
/// so every transform in the process (kernel builds, the direct method,
/// overlap-save tiles, the autocorrelation / periodogram estimators)
/// fetches its plan from [`FftPlanCache::global`], and each shape is
/// planned once per process. Plans hold no worker count and are
/// immutable once built, so sharing one `Arc` across threads is free.
/// [`FftPlanCache::plan_real`] ticks [`stage::FFT_PLAN_HIT`] /
/// [`stage::FFT_PLAN_MISS`] so cache effectiveness is visible in reports.
pub struct FftPlanCache {
    plans: Mutex<Plans>,
    /// Poison recoveries not yet flushed into an observed lookup's
    /// recorder (the cache itself has no recorder handle).
    poisoned: AtomicU64,
}

/// The two plan maps behind one lock.
#[derive(Default)]
struct Plans {
    complex: HashMap<(usize, usize), Arc<Fft2d>>,
    real: HashMap<(usize, usize), Arc<RealFft2d>>,
}

impl FftPlanCache {
    /// An empty cache: [`FftPlanCache::global`]'s, or a unit test's own.
    fn new() -> Self {
        Self { plans: Mutex::default(), poisoned: AtomicU64::new(0) }
    }

    /// Locks the cache, recovering from poisoning by rebuilding from
    /// empty: a panic while holding the lock (an unwinding worker, an
    /// injected chaos fault) can at worst have left a half-inserted
    /// entry, and since plans are immutable and rebuildable, clearing
    /// trades a re-plan for never propagating the poison. Each recovery
    /// is counted and flushed to [`stage::FFT_PLAN_POISONED`] by the
    /// next observed lookup.
    fn lock_recovering(&self) -> MutexGuard<'_, Plans> {
        self.plans.lock().unwrap_or_else(|poisoned| {
            // Un-poison first: the rebuild makes the maps coherent again,
            // and without this every later lock would re-clear them.
            self.plans.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = Plans::default();
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            guard
        })
    }

    /// Flushes pending poison-recovery counts into `obs`. A disabled
    /// recorder leaves them pending so a later observed lookup still
    /// reports them.
    fn flush_poisoned(&self, obs: &Recorder) {
        if !obs.is_enabled() {
            return;
        }
        let n = self.poisoned.swap(0, Ordering::Relaxed);
        if n > 0 {
            obs.add_counter(stage::FFT_PLAN_POISONED, n);
        }
    }

    /// Fetches (or builds and caches) the complex `nx × ny` transform;
    /// the caller picks the worker count per [`Fft2d::process`] call.
    pub fn plan(&self, nx: usize, ny: usize) -> Arc<Fft2d> {
        let mut plans = self.lock_recovering();
        plans.complex.entry((nx, ny)).or_insert_with(|| Arc::new(Fft2d::new(nx, ny))).clone()
    }

    /// Fetches (or builds and caches) the real-input `nx × ny` transform,
    /// ticking cache hits and misses into `obs` ([`stage::FFT_PLAN_HIT`] /
    /// [`stage::FFT_PLAN_MISS`]).
    ///
    /// # Panics
    /// Panics unless both sides are powers of two.
    pub fn plan_real(&self, nx: usize, ny: usize, obs: &Recorder) -> Arc<RealFft2d> {
        let mut plans = self.lock_recovering();
        self.flush_poisoned(obs);
        match plans.real.entry((nx, ny)) {
            Entry::Occupied(slot) => {
                obs.add_counter(stage::FFT_PLAN_HIT, 1);
                slot.get().clone()
            }
            Entry::Vacant(slot) => {
                obs.add_counter(stage::FFT_PLAN_MISS, 1);
                slot.insert(Arc::new(RealFft2d::new(nx, ny))).clone()
            }
        }
    }

    /// Number of distinct plans currently cached, both kinds.
    #[cfg(test)]
    fn len(&self) -> usize {
        let plans = self.lock_recovering();
        plans.complex.len() + plans.real.len()
    }

    /// Poison recoveries taken so far and not yet flushed into an
    /// observed lookup, which drains them into
    /// [`stage::FFT_PLAN_POISONED`].
    #[cfg(test)]
    fn pending_poison_recoveries(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// The process-wide cache, the only instance outside this crate's
    /// unit tests. Every library path fetches its plans here, so repeated
    /// transforms of one shape reuse one plan without threading a cache
    /// handle through their signatures.
    pub fn global() -> &'static FftPlanCache {
        static GLOBAL: OnceLock<FftPlanCache> = OnceLock::new();
        GLOBAL.get_or_init(FftPlanCache::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;
    use rrs_num::Complex64;
    use rrs_rng::{RandomSource, Xoshiro256pp};

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_dft_all_lengths() {
        // Covers radix-2 and Bluestein paths, odd, prime and composite N.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 45, 64, 97, 100, 128] {
            let x = random_signal(n, n as u64);
            let mut fast = x.clone();
            Fft::new(n).process(&mut fast, Direction::Forward);
            let slow = dft_reference(&x, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-9 * (n as f64).max(1.0), "n={n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [4usize, 6, 9, 16, 27, 64, 100] {
            let x = random_signal(n, 1000 + n as u64);
            let mut buf = x.clone();
            let fft = Fft::new(n);
            fft.process(&mut buf, Direction::Forward);
            fft.process(&mut buf, Direction::Inverse);
            assert!(max_err(&buf, &x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn parseval_theorem() {
        // Σ|x|² = (1/N) Σ|X|² with the unnormalised-forward convention.
        for n in [8usize, 15, 32, 50] {
            let x = random_signal(n, 7);
            let mut buf = x.clone();
            Fft::new(n).process(&mut buf, Direction::Forward);
            let t: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let f: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((t - f).abs() < 1e-10 * t.max(1.0), "n={n}: {t} vs {f}");
        }
    }

    #[test]
    fn linearity_property() {
        let n = 24;
        let a = random_signal(n, 1);
        let b = random_signal(n, 2);
        let fft = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft.process(&mut fa, Direction::Forward);
        fft.process(&mut fb, Direction::Forward);
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft.process(&mut sum, Direction::Forward);
        let expect: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&sum, &expect) < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 16;
        let mut buf = vec![Complex64::ZERO; n];
        buf[0] = Complex64::ONE;
        Fft::new(n).process(&mut buf, Direction::Forward);
        for z in &buf {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 10; // Bluestein path
        let mut buf = vec![Complex64::ONE; n];
        Fft::new(n).process(&mut buf, Direction::Forward);
        assert!((buf[0].re - n as f64).abs() < 1e-9);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn real_input_is_hermitian() {
        let n = 32;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut spec: Vec<Complex64> =
            (0..n).map(|_| Complex64::from_re(rng.next_f64() - 0.5)).collect();
        Fft::new(n).process(&mut spec, Direction::Forward);
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).abs() < 1e-10, "k={k}");
        }
        assert!(spec[0].im.abs() < 1e-12);
    }

    #[test]
    fn shift_theorem() {
        // x[(n-1) mod N]  ⇔  X[k]·e^{-j2πk/N}
        let n = 20;
        let x = random_signal(n, 33);
        let mut shifted: Vec<Complex64> = vec![Complex64::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = x[i];
        }
        let fft = Fft::new(n);
        let mut fx = x.clone();
        let mut fs = shifted;
        fft.process(&mut fx, Direction::Forward);
        fft.process(&mut fs, Direction::Forward);
        for k in 0..n {
            let phase = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            let expect = fx[k] * phase;
            assert!((fs[k] - expect).abs() < 1e-10, "k={k}");
        }
    }

    /// A test signal with exact zeros of both signs mixed in, so a batched
    /// path that skipped or reordered an operation would show in the sign
    /// bits of zero results as well as in roundoff.
    fn signal(n: usize, lane: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| match (i + lane) % 7 {
                0 => Complex64::new(0.0, -0.0),
                3 => Complex64::new(-0.0, ((i * 5 + lane) as f64 * 0.71).cos()),
                _ => Complex64::new(
                    ((i * 37 + lane * 11) as f64 * 0.618).sin(),
                    ((i * 13 + lane * 3) as f64 * 0.377).cos() - 0.25,
                ),
            })
            .collect()
    }

    type LaneFn = fn(&Fft, &mut [Lane], &mut [Lane], Direction, &mut Vec<Lane>);

    /// Runs up to `LANES` signals through `lanes` the way a caller does:
    /// loaded through [`Fft::lane_slot`], read back in natural order.
    /// Unused lanes hold NaN, which must not leak into the filled ones;
    /// `scratch` carries the previous call's contents in.
    fn batched(
        fft: &Fft,
        signals: &[Vec<Complex64>],
        dir: Direction,
        lanes: LaneFn,
        scratch: &mut Vec<Lane>,
    ) -> Vec<Vec<Complex64>> {
        let n = fft.len();
        let mut re = vec![[f64::NAN; LANES]; n];
        let mut im = vec![[f64::NAN; LANES]; n];
        for (c, x) in signals.iter().enumerate() {
            for (i, z) in x.iter().enumerate() {
                (re[fft.lane_slot(i)][c], im[fft.lane_slot(i)][c]) = (z.re, z.im);
            }
        }
        lanes(fft, &mut re, &mut im, dir, scratch);
        (0..signals.len())
            .map(|c| (0..n).map(|i| Complex64::new(re[i][c], im[i][c])).collect())
            .collect()
    }

    #[test]
    fn lanes_match_the_scalar_transform_bit_for_bit() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        // Every radix-2 length to 1024, then Bluestein lengths: small odd
        // and even ones, the Auto-sized kernel lattices, and the longest
        // `KernelSizing`'s default cap allows (inner length 4096).
        let radix2 = (0..=10).map(|e| 1usize << e);
        let bluestein = [3, 5, 6, 7, 12, 45, 80, 96, 100, 120, 150, 160, 200, 1000, 1025, 2046];
        let copies: [(&str, LaneFn); 2] =
            [("dispatched", Fft::process_lanes), ("portable", Fft::lanes_portable)];
        for n in radix2.chain(bluestein) {
            let fft = Fft::new(n);
            let mut scratch = Vec::new();
            for dir in [Direction::Forward, Direction::Inverse] {
                for filled in [1, 3, LANES] {
                    let signals: Vec<_> = (0..filled).map(|c| signal(n, c)).collect();
                    for (copy, lanes) in copies {
                        let got = batched(&fft, &signals, dir, lanes, &mut scratch);
                        for (c, x) in signals.iter().enumerate() {
                            let mut want = x.clone();
                            fft.process(&mut want, dir);
                            let what = format!("n={n} {dir:?} {copy} lane {c} of {filled}");
                            assert_eq!(bits(&got[c]), bits(&want), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_buffer_length_panics() {
        let fft = Fft::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        fft.process(&mut buf, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_length_panics() {
        Fft::new(0);
    }

    #[test]
    fn one_plan_per_shape() {
        let cache = FftPlanCache::new();
        assert_eq!(cache.len(), 0);
        let a = cache.plan(16, 8);
        let b = cache.plan(16, 8);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one plan");
        let c = cache.plan(8, 16);
        assert!(!Arc::ptr_eq(&a, &c), "the shape is the key");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn real_and_complex_plans_of_one_shape_coexist() {
        let cache = FftPlanCache::new();
        let c = cache.plan(16, 8);
        let r = cache.plan_real(16, 8, &Recorder::disabled());
        assert_eq!(cache.len(), 2, "real and complex plans of one shape coexist");
        let r2 = cache.plan_real(16, 8, &Recorder::disabled());
        assert!(Arc::ptr_eq(&r, &r2), "same real key must share one plan");
        assert_eq!(c.shape(), r.shape());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn observed_plan_requests_tick_hit_and_miss_counters() {
        let cache = FftPlanCache::new();
        let rec = Recorder::enabled();
        cache.plan_real(8, 8, &rec);
        cache.plan_real(8, 4, &rec);
        let report = rec.report();
        assert_eq!(report.counter(stage::FFT_PLAN_MISS), 2, "two cold builds");
        assert_eq!(report.counter(stage::FFT_PLAN_HIT), 0);
        cache.plan_real(8, 8, &rec);
        cache.plan_real(8, 4, &rec);
        cache.plan_real(8, 4, &rec);
        let report = rec.report();
        assert_eq!(report.counter(stage::FFT_PLAN_MISS), 2, "warm requests build nothing");
        assert_eq!(report.counter(stage::FFT_PLAN_HIT), 3);
    }

    #[test]
    fn cached_plan_transforms_identically_to_fresh() {
        let (nx, ny) = (12, 10);
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let x: Vec<Complex64> =
            (0..nx * ny).map(|_| Complex64::new(rng.next_f64(), rng.next_f64())).collect();
        let mut fresh = x.clone();
        Fft2d::new(nx, ny).process(&mut fresh, Direction::Forward, 1);
        let mut cached = x;
        FftPlanCache::global().plan(nx, ny).process(&mut cached, Direction::Forward, 2);
        assert_eq!(fresh, cached, "cached plan must be bit-identical to a fresh one");
    }

    #[test]
    fn length_one_is_identity() {
        let mut buf = vec![Complex64::new(3.0, -4.0)];
        let fft = Fft::new(1);
        fft.process(&mut buf, Direction::Forward);
        assert_eq!(buf[0], Complex64::new(3.0, -4.0));
        fft.process(&mut buf, Direction::Inverse);
        assert_eq!(buf[0], Complex64::new(3.0, -4.0));
    }

    /// Poisons `cache`'s mutex by panicking a thread that holds the lock.
    fn poison(cache: &FftPlanCache) {
        let r = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.plans.lock().unwrap();
                panic!("poisoning the plan cache on purpose");
            })
            .join()
        });
        assert!(r.is_err(), "the poisoning thread must have panicked");
    }

    #[test]
    fn poisoned_plan_cache_recovers_by_rebuilding() {
        let cache = FftPlanCache::new();
        cache.plan_real(8, 4, &Recorder::disabled());
        assert_eq!(cache.len(), 1);
        poison(&cache);
        // The next observed lookup recovers: the half-mutated map is
        // discarded, the recovery is flushed to the recorder, and the
        // lookup re-plans from empty.
        let rec = Recorder::enabled();
        let a = cache.plan_real(8, 4, &rec);
        let report = rec.report();
        assert_eq!(report.counter(stage::FFT_PLAN_POISONED), 1);
        assert_eq!(report.counter(stage::FFT_PLAN_MISS), 1, "cleared cache re-plans");
        assert_eq!(cache.pending_poison_recoveries(), 0, "recovery was flushed");
        assert_eq!(cache.len(), 1);
        // Rebuilt plans transform identically to pre-poison ones.
        let mut rng = Xoshiro256pp::seed_from_u64(27);
        let x: Vec<f64> = (0..8 * 4).map(|_| rng.next_f64() - 0.5).collect();
        let spectrum = |rfft: &RealFft2d| {
            let spec = rfft.forward(RealTile { data: &x, pitch: 8, width: 8, height: 4 });
            let bins = (0..4).flat_map(|ky| (0..5).map(move |kx| (kx, ky)));
            bins.map(|(kx, ky)| spec.bin(kx, ky)).collect::<Vec<_>>()
        };
        assert_eq!(spectrum(&a), spectrum(&RealFft2d::new(8, 4)));
    }

    #[test]
    fn unobserved_poison_recovery_stays_pending_until_flushed() {
        let cache = FftPlanCache::new();
        poison(&cache);
        // An unobserved lookup recovers but has no recorder to flush to.
        cache.plan_real(4, 4, &Recorder::disabled());
        assert_eq!(cache.pending_poison_recoveries(), 1);
        let rec = Recorder::enabled();
        cache.plan_real(4, 4, &rec);
        assert_eq!(rec.report().counter(stage::FFT_PLAN_POISONED), 1);
        assert_eq!(rec.report().counter(stage::FFT_PLAN_HIT), 1, "plan survived from recovery");
        assert_eq!(cache.pending_poison_recoveries(), 0);
    }
}
