//! Iterative radix-2 decimation-in-time FFT for power-of-two lengths.
//!
//! A plan owns the twiddle table (half the unit circle at the finest
//! granularity, strided for coarser stages) and the bit-reversal
//! permutation. `process` is allocation-free and in-place, so the 2-D
//! row–column driver can hammer it across threads (`&FftPlan` is `Sync`).
//!
//! [`FftPlan::butterflies_lanes`] runs [`LANES`] independent transforms at
//! once on split-complex planes ([`Lane`] rows: element `i` of lane `c` at
//! `[i][c]`, i.e. `[i·LANES + c]`), so the lane loop vectorises on baseline
//! SSE2. Every element gets exactly the operations `process` applies to it
//! — same twiddles, same products, same order — so each lane is
//! bit-identical to a scalar transform.

use crate::Direction;
use rrs_num::Complex64;

/// Independent transforms one batched call runs side by side.
pub const LANES: usize = 8;

/// One element of every lane of a batched transform: `LANES` real (or
/// imaginary) parts.
pub type Lane = [f64; LANES];

/// A precomputed radix-2 FFT of length `n = 2^k`.
pub struct FftPlan {
    n: usize,
    /// `twiddles[k] = e^{-j 2π k / n}` for `k < n/2`.
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation of `0..n`.
    bitrev: Vec<u32>,
    /// The same twiddles stored stage by stage for the batched path: the
    /// stage whose butterflies span `2h` reads `twiddles[k·n/(2h)]` for
    /// `k < h`, kept contiguous at `[h − 1 + k]` and split into real and
    /// imaginary parts.
    stage_re: Vec<f64>,
    stage_im: Vec<f64>,
}

impl FftPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or exceeds `u32` indexing range.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FftPlan requires a power-of-two length, got {n}");
        assert!(n <= u32::MAX as usize, "FFT length too large");
        let half = n / 2;
        let mut twiddles = Vec::with_capacity(half.max(1));
        for k in 0..half {
            twiddles.push(Complex64::cis(-core::f64::consts::TAU * k as f64 / n as f64));
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits.max(1))).collect();
        // For n == 1, bits == 0; the permutation is the identity [0].
        let bitrev = if n == 1 { vec![0] } else { bitrev };
        let mut stage = Vec::with_capacity(half);
        let mut h = 1;
        while h < n {
            stage.extend((0..h).map(|k| twiddles[k * (n / (2 * h))]));
            h *= 2;
        }
        let stage_re = stage.iter().map(|w| w.re).collect();
        let stage_im = stage.iter().map(|w| w.im).collect();
        Self { n, twiddles, bitrev, stage_re, stage_im }
    }

    /// The transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false` (a plan has length ≥ 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place transform of `buf` (`buf.len()` must equal `len()`).
    pub fn process(&self, buf: &mut [Complex64], dir: Direction) {
        assert_eq!(buf.len(), self.n, "buffer length mismatch");
        if self.n == 1 {
            return;
        }
        self.permute(buf);
        self.butterflies(buf, dir);
        if dir == Direction::Inverse {
            let k = 1.0 / self.n as f64;
            for z in buf.iter_mut() {
                *z = z.scale(k);
            }
        }
    }

    /// Where input element `i` belongs before [`FftPlan::butterflies_lanes`]:
    /// its bit-reversed index. Gathering through this folds `process`'s
    /// permutation into the caller's load.
    #[inline]
    pub fn bit_reversed(&self, i: usize) -> usize {
        self.bitrev[i] as usize
    }

    /// The butterflies of [`LANES`] length-`n` transforms at once, in place
    /// on the split-complex planes `re` and `im` (`n` [`Lane`]s each).
    ///
    /// The inputs must already sit in bit-reversed order (element `i` at
    /// [`FftPlan::bit_reversed`]`(i)`), and the outputs come back in
    /// natural order, unnormalised: an inverse caller multiplies each by
    /// `1.0 / n as f64` as it stores it. With those two steps every
    /// element gets exactly the operations of [`FftPlan::process`], so each
    /// lane's result is bit-identical to it. Stages run in pairs, one pass
    /// over the planes per pair.
    ///
    /// # Panics
    /// Panics if either plane does not hold exactly `n` lanes.
    pub fn butterflies_lanes(&self, re: &mut [Lane], im: &mut [Lane], dir: Direction) {
        let n = self.n;
        assert!(re.len() == n && im.len() == n, "lane planes must hold {n} elements");
        let conj = dir == Direction::Inverse;
        // `process` multiplies by `w.conj()` on the inverse: the same
        // negation of the imaginary part, applied as each twiddle loads.
        let tw = |h: usize, k: usize| {
            let wi = self.stage_im[h - 1 + k];
            (self.stage_re[h - 1 + k], if conj { -wi } else { wi })
        };
        let mut h = 1;
        if n.trailing_zeros() % 2 == 1 {
            // An odd stage count: the span-2 stage runs alone first.
            for (r, i) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
                let (r0, r1) = r.split_at_mut(1);
                let (i0, i1) = i.split_at_mut(1);
                butterfly(&mut r0[0], &mut i0[0], &mut r1[0], &mut i1[0], tw(1, 0));
            }
            h = 2;
        }
        while h < n {
            // Stages of span 2h and 4h together: each group of four
            // elements {k, k+h, k+2h, k+3h} is closed under both, so the
            // second stage reads exactly what the first wrote.
            for (r, i) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
                let (r01, r23) = r.split_at_mut(2 * h);
                let (i01, i23) = i.split_at_mut(2 * h);
                let ((r0, r1), (r2, r3)) = (r01.split_at_mut(h), r23.split_at_mut(h));
                let ((i0, i1), (i2, i3)) = (i01.split_at_mut(h), i23.split_at_mut(h));
                for k in 0..h {
                    let w1 = tw(h, k);
                    butterfly(&mut r0[k], &mut i0[k], &mut r1[k], &mut i1[k], w1);
                    butterfly(&mut r2[k], &mut i2[k], &mut r3[k], &mut i3[k], w1);
                    butterfly(&mut r0[k], &mut i0[k], &mut r2[k], &mut i2[k], tw(2 * h, k));
                    butterfly(&mut r1[k], &mut i1[k], &mut r3[k], &mut i3[k], tw(2 * h, k + h));
                }
            }
            h *= 4;
        }
    }

    #[inline]
    fn permute(&self, buf: &mut [Complex64]) {
        for (i, &r) in self.bitrev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                buf.swap(i, r);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex64], dir: Direction) {
        let n = self.n;
        let conj = dir == Direction::Inverse;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in buf.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if conj {
                        w = w.conj();
                    }
                    let t = w * hi[k];
                    let u = lo[k];
                    lo[k] = u + t;
                    hi[k] = u - t;
                }
            }
            len <<= 1;
        }
    }
}

/// One radix-2 butterfly on every lane: `t = w·hi`, `lo ← lo + t`,
/// `hi ← lo − t`, with the products and sums of `Complex64`'s operators.
#[inline(always)]
fn butterfly(
    lo_re: &mut Lane,
    lo_im: &mut Lane,
    hi_re: &mut Lane,
    hi_im: &mut Lane,
    (wr, wi): (f64, f64),
) {
    for c in 0..LANES {
        let tr = wr * hi_re[c] - wi * hi_im[c];
        let ti = wr * hi_im[c] + wi * hi_re[c];
        let (ur, ui) = (lo_re[c], lo_im[c]);
        lo_re[c] = ur + tr;
        lo_im[c] = ui + ti;
        hi_re[c] = ur - tr;
        hi_im[c] = ui - ti;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;

    #[test]
    fn all_power_of_two_lengths_match_reference() {
        for exp in 0..=10 {
            let n = 1usize << exp;
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut fast = x.clone();
            FftPlan::new(n).process(&mut fast, Direction::Forward);
            let slow = dft_reference(&x, Direction::Forward);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).abs() < 1e-9 * (n as f64).max(1.0), "n={n}");
            }
        }
    }

    #[test]
    fn inverse_normalisation() {
        let n = 8;
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::from_re(i as f64)).collect();
        let mut buf = x.clone();
        let plan = FftPlan::new(n);
        plan.process(&mut buf, Direction::Forward);
        plan.process(&mut buf, Direction::Inverse);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12);
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

    /// Runs up to `LANES` signals through the batched path the way a
    /// caller does: gather through the bit reversal, butterflies, and the
    /// inverse's `1/n` on the store. Unused lanes hold NaN, which must not
    /// leak into the filled ones.
    fn batched(plan: &FftPlan, signals: &[Vec<Complex64>], dir: Direction) -> Vec<Vec<Complex64>> {
        let n = plan.len();
        let mut re = vec![[f64::NAN; LANES]; n];
        let mut im = vec![[f64::NAN; LANES]; n];
        for (c, x) in signals.iter().enumerate() {
            for (i, z) in x.iter().enumerate() {
                re[plan.bit_reversed(i)][c] = z.re;
                im[plan.bit_reversed(i)][c] = z.im;
            }
        }
        plan.butterflies_lanes(&mut re, &mut im, dir);
        let inverse = dir == Direction::Inverse;
        (0..signals.len())
            .map(|c| {
                (0..n)
                    .map(|i| {
                        let z = Complex64::new(re[i][c], im[i][c]);
                        if inverse {
                            z.scale(1.0 / n as f64)
                        } else {
                            z
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lanes_match_the_scalar_transform_bit_for_bit() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for exp in 0..=10 {
            let n = 1usize << exp;
            let plan = FftPlan::new(n);
            let fft = crate::Fft::new(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                for filled in [1, 3, LANES] {
                    let signals: Vec<_> = (0..filled).map(|c| signal(n, c)).collect();
                    let got = batched(&plan, &signals, dir);
                    for (c, x) in signals.iter().enumerate() {
                        let mut want = x.clone();
                        fft.process(&mut want, dir);
                        let what = format!("n={n} {dir:?} lane {c} of {filled}");
                        assert_eq!(bits(&got[c]), bits(&want), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane planes")]
    fn short_lane_planes_are_rejected() {
        let mut re = vec![[0.0; LANES]; 4];
        let mut im = vec![[0.0; LANES]; 8];
        FftPlan::new(8).butterflies_lanes(&mut re, &mut im, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        FftPlan::new(12);
    }

    #[test]
    fn plan_is_reusable_and_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<FftPlan>();
        let plan = FftPlan::new(16);
        for seed in 0..4 {
            let mut buf: Vec<Complex64> =
                (0..16).map(|i| Complex64::from_re((i + seed) as f64)).collect();
            let orig = buf.clone();
            plan.process(&mut buf, Direction::Forward);
            plan.process(&mut buf, Direction::Inverse);
            for (a, b) in buf.iter().zip(&orig) {
                assert!((*a - *b).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn cosine_hits_single_bin() {
        // cos(2π·3n/32) concentrates in bins 3 and 29 with weight N/2.
        let n = 32;
        let mut buf: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_re((core::f64::consts::TAU * 3.0 * i as f64 / n as f64).cos()))
            .collect();
        FftPlan::new(n).process(&mut buf, Direction::Forward);
        for (k, z) in buf.iter().enumerate() {
            let expect = if k == 3 || k == n - 3 { n as f64 / 2.0 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9, "k={k} z={z:?}");
        }
    }
}
