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
//!   length needs;
//! * [`fft2d`] — row–column 2-D transforms with optional multi-threading;
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
use rrs_obs::{stage, ObsSink, Recorder};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

pub use fft2d::Fft2d;
pub use plan::{FftPlan, Lane, LANES};
pub use rfft::RealFft2d;

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
}

/// A shared, thread-safe cache of [`Fft`] instances keyed by length.
///
/// 2-D transforms and repeated generator calls reuse plans through this.
#[derive(Default)]
pub struct Planner {
    cache: Mutex<HashMap<usize, Arc<Fft>>>,
}

impl Planner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches (or creates) the FFT of length `len`.
    ///
    /// A poisoned cache lock (a panic while holding it) is recovered by
    /// rebuilding from empty: plans are immutable once built, so the
    /// worst case is re-planning, never a wrong transform.
    pub fn plan(&self, len: usize) -> Arc<Fft> {
        let mut cache = self.cache.lock().unwrap_or_else(|poisoned| {
            self.cache.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        });
        cache.entry(len).or_insert_with(|| Arc::new(Fft::new(len))).clone()
    }
}

/// Discriminates the plan families one [`FftPlanCache`] holds behind a
/// single keying scheme: complex plans per worker count, real-input plans
/// serial (their callers parallelise across tiles instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum PlanKind {
    Complex { workers: usize },
    Real,
}

/// One cached plan; the kind in the key decides which variant a slot
/// holds, so lookups never cross families.
enum CachedPlan {
    Complex(Arc<Fft2d>),
    Real(Arc<RealFft2d>),
}

/// A shared, thread-safe cache of prepared 2-D transforms — complex
/// ([`Fft2d`], per worker count) and real-input ([`RealFft2d`]) — keyed
/// on `(kind, nx, ny)`.
///
/// [`Fft2d::new`] recomputes twiddles and bit-reversal tables on every
/// construction; hot paths that transform the same shape repeatedly
/// (overlap-save convolution tiles, autocorrelation / periodogram
/// estimators, spectrum verification) fetch their plan here instead.
/// Plans are immutable once built, so sharing one `Arc` across threads
/// is free. The `_observed` variants tick [`stage::FFT_PLAN_HIT`] /
/// [`stage::FFT_PLAN_MISS`] so cache effectiveness is visible in
/// reports.
#[derive(Default)]
pub struct FftPlanCache {
    cache: Mutex<HashMap<(PlanKind, usize, usize), CachedPlan>>,
    /// Poison recoveries not yet flushed into an observed lookup's
    /// recorder (the cache itself has no recorder handle).
    poisoned: AtomicU64,
}

impl FftPlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the cache, recovering from poisoning by rebuilding from
    /// empty: a panic while holding the lock (an unwinding worker, an
    /// injected chaos fault) can at worst have left a half-inserted
    /// entry, and since plans are immutable and rebuildable, clearing
    /// trades a re-plan for never propagating the poison. Each recovery
    /// is counted and flushed to [`stage::FFT_PLAN_POISONED`] by the
    /// next observed lookup.
    fn lock_recovering(&self) -> MutexGuard<'_, HashMap<(PlanKind, usize, usize), CachedPlan>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            // Un-poison first: the rebuild makes the map coherent again,
            // and without this every later lock would re-clear it.
            self.cache.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
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

    /// Fetches (or builds and caches) the complex `nx × ny` transform
    /// with the given worker count.
    pub fn plan(&self, nx: usize, ny: usize, workers: usize) -> Arc<Fft2d> {
        self.plan_observed(nx, ny, workers, &Recorder::disabled())
    }

    /// [`FftPlanCache::plan`] with cache hits and misses ticked into
    /// `obs` ([`stage::FFT_PLAN_HIT`] / [`stage::FFT_PLAN_MISS`]).
    pub fn plan_observed(
        &self,
        nx: usize,
        ny: usize,
        workers: usize,
        obs: &Recorder,
    ) -> Arc<Fft2d> {
        let workers = workers.max(1);
        let mut cache = self.lock_recovering();
        self.flush_poisoned(obs);
        match cache.entry((PlanKind::Complex { workers }, nx, ny)) {
            Entry::Occupied(slot) => {
                obs.add_counter(stage::FFT_PLAN_HIT, 1);
                match slot.get() {
                    CachedPlan::Complex(p) => p.clone(),
                    CachedPlan::Real(_) => unreachable!("complex key holds a complex plan"),
                }
            }
            Entry::Vacant(slot) => {
                obs.add_counter(stage::FFT_PLAN_MISS, 1);
                let p = Arc::new(Fft2d::with_workers(nx, ny, workers));
                slot.insert(CachedPlan::Complex(p.clone()));
                p
            }
        }
    }

    /// Fetches (or builds and caches) the real-input `nx × ny` transform.
    ///
    /// # Panics
    /// Panics unless both sides are powers of two.
    pub fn plan_real(&self, nx: usize, ny: usize) -> Arc<RealFft2d> {
        self.plan_real_observed(nx, ny, &Recorder::disabled())
    }

    /// [`FftPlanCache::plan_real`] with cache hits and misses ticked into
    /// `obs` ([`stage::FFT_PLAN_HIT`] / [`stage::FFT_PLAN_MISS`]).
    pub fn plan_real_observed(&self, nx: usize, ny: usize, obs: &Recorder) -> Arc<RealFft2d> {
        let mut cache = self.lock_recovering();
        self.flush_poisoned(obs);
        match cache.entry((PlanKind::Real, nx, ny)) {
            Entry::Occupied(slot) => {
                obs.add_counter(stage::FFT_PLAN_HIT, 1);
                match slot.get() {
                    CachedPlan::Real(p) => p.clone(),
                    CachedPlan::Complex(_) => unreachable!("real key holds a real plan"),
                }
            }
            Entry::Vacant(slot) => {
                obs.add_counter(stage::FFT_PLAN_MISS, 1);
                let p = Arc::new(RealFft2d::new(nx, ny));
                slot.insert(CachedPlan::Real(p.clone()));
                p
            }
        }
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.lock_recovering().len()
    }

    /// Poison recoveries taken so far and not yet flushed into an
    /// observed lookup. Test/diagnostic hook; observed paths drain this
    /// into [`stage::FFT_PLAN_POISONED`].
    pub fn pending_poison_recoveries(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no plans yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The process-wide shared cache. Estimator entry points
    /// (`rrs-stats`, `rrs-spectrum`) use this so repeated calls on the
    /// same grid shape reuse one plan without threading a cache handle
    /// through their signatures.
    pub fn global() -> &'static FftPlanCache {
        static GLOBAL: OnceLock<FftPlanCache> = OnceLock::new();
        GLOBAL.get_or_init(FftPlanCache::new)
    }
}

/// Convenience: out-of-place forward transform of a real sequence.
pub fn forward_real(input: &[f64]) -> Vec<Complex64> {
    let mut buf: Vec<Complex64> = input.iter().map(|&x| Complex64::from_re(x)).collect();
    Fft::new(buf.len().max(1)).process(&mut buf, Direction::Forward);
    buf
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
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
        let spec = forward_real(&x);
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
    fn planner_caches_and_shares() {
        let planner = Planner::new();
        let a = planner.plan(64);
        let b = planner.plan(64);
        assert!(Arc::ptr_eq(&a, &b));
        let c = planner.plan(65);
        assert_eq!(c.len(), 65);
    }

    #[test]
    fn plan_cache_shares_per_shape_and_workers() {
        let cache = FftPlanCache::new();
        assert!(cache.is_empty());
        let a = cache.plan(16, 8, 1);
        let b = cache.plan(16, 8, 1);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one plan");
        let c = cache.plan(16, 8, 2);
        assert!(!Arc::ptr_eq(&a, &c), "worker count is part of the key");
        assert_eq!(cache.len(), 2);
        // Worker count 0 is clamped to 1, landing on the serial plan.
        let d = cache.plan(16, 8, 0);
        assert!(Arc::ptr_eq(&a, &d));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn plan_cache_keys_real_and_complex_separately() {
        let cache = FftPlanCache::new();
        let c = cache.plan(16, 8, 1);
        let r = cache.plan_real(16, 8);
        assert_eq!(cache.len(), 2, "real and complex plans of one shape coexist");
        let r2 = cache.plan_real(16, 8);
        assert!(Arc::ptr_eq(&r, &r2), "same real key must share one plan");
        assert_eq!(c.shape(), r.shape());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn observed_plan_requests_tick_hit_and_miss_counters() {
        let cache = FftPlanCache::new();
        let rec = Recorder::enabled();
        cache.plan_observed(8, 8, 1, &rec);
        cache.plan_real_observed(8, 8, &rec);
        let report = rec.report();
        assert_eq!(report.counter(stage::FFT_PLAN_MISS), 2, "two cold builds");
        assert_eq!(report.counter(stage::FFT_PLAN_HIT), 0);
        cache.plan_observed(8, 8, 1, &rec);
        cache.plan_real_observed(8, 8, &rec);
        cache.plan_real_observed(8, 8, &rec);
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
        Fft2d::with_workers(nx, ny, 1).process(&mut fresh, Direction::Forward);
        let mut cached = x;
        FftPlanCache::global().plan(nx, ny, 1).process(&mut cached, Direction::Forward);
        assert_eq!(fresh, cached, "cached plan must be bit-identical to a fresh one");
    }

    #[test]
    fn forward_real_into_matches_widening() {
        let (nx, ny) = (8, 6);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let x: Vec<f64> = (0..nx * ny).map(|_| rng.next_f64() - 0.5).collect();
        let fft = Fft2d::with_workers(nx, ny, 1);
        let mut wide: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
        fft.process(&mut wide, Direction::Forward);
        let mut buf = vec![Complex64::ONE; 3]; // stale contents must be discarded
        fft.forward_real_into(&x, &mut buf);
        assert_eq!(wide, buf);
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
                let _guard = cache.cache.lock().unwrap();
                panic!("poisoning the plan cache on purpose");
            })
            .join()
        });
        assert!(r.is_err(), "the poisoning thread must have panicked");
    }

    #[test]
    fn poisoned_plan_cache_recovers_by_rebuilding() {
        let cache = FftPlanCache::new();
        cache.plan(8, 4, 1);
        assert_eq!(cache.len(), 1);
        poison(&cache);
        // The next observed lookup recovers: the half-mutated map is
        // discarded, the recovery is flushed to the recorder, and the
        // lookup re-plans from empty.
        let rec = Recorder::enabled();
        let a = cache.plan_observed(8, 4, 1, &rec);
        let report = rec.report();
        assert_eq!(report.counter(stage::FFT_PLAN_POISONED), 1);
        assert_eq!(report.counter(stage::FFT_PLAN_MISS), 1, "cleared cache re-plans");
        assert_eq!(cache.pending_poison_recoveries(), 0, "recovery was flushed");
        assert_eq!(cache.len(), 1);
        // Rebuilt plans transform identically to pre-poison ones.
        let mut rng = Xoshiro256pp::seed_from_u64(27);
        let x: Vec<Complex64> =
            (0..8 * 4).map(|_| Complex64::new(rng.next_f64(), rng.next_f64())).collect();
        let mut got = x.clone();
        a.process(&mut got, Direction::Forward);
        let mut want = x;
        Fft2d::with_workers(8, 4, 1).process(&mut want, Direction::Forward);
        assert_eq!(got, want);
    }

    #[test]
    fn unobserved_poison_recovery_stays_pending_until_flushed() {
        let cache = FftPlanCache::new();
        poison(&cache);
        // An unobserved lookup recovers but has no recorder to flush to.
        cache.plan(4, 4, 1);
        assert_eq!(cache.pending_poison_recoveries(), 1);
        let rec = Recorder::enabled();
        cache.plan_observed(4, 4, 1, &rec);
        assert_eq!(rec.report().counter(stage::FFT_PLAN_POISONED), 1);
        assert_eq!(rec.report().counter(stage::FFT_PLAN_HIT), 1, "plan survived from recovery");
        assert_eq!(cache.pending_poison_recoveries(), 0);
    }
}
