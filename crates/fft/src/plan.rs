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

/// Lanes that start on a cache line, so no lane load or store straddles
/// two: a plain zeroed allocation of whole lanes, read from its first
/// 64-byte boundary, which leaves one lane fewer to use. (An over-aligned
/// allocation would do the same, but the allocator serves those from
/// memory it cannot reuse for the next one: a stream of strips grew its
/// resident set with every set-up.)
#[derive(Debug)]
pub(crate) struct LaneBuf {
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl LaneBuf {
    /// `lanes` zeroed lanes allocated, `lanes − 1` of them aligned.
    pub(crate) fn zeroed(lanes: usize) -> Self {
        let buf = vec![0.0; lanes * LANES];
        let start = buf.as_ptr().align_offset(64).min(LANES - 1);
        Self { buf, start, len: lanes.saturating_sub(1) }
    }

    /// `f64`s allocated.
    pub(crate) fn samples(&self) -> usize {
        self.buf.len()
    }

    /// The aligned lanes.
    #[inline(always)]
    pub(crate) fn lanes_mut(&mut self) -> &mut [Lane] {
        let flat = &mut self.buf[self.start..self.start + self.len * LANES];
        // SAFETY: a `Lane` is `LANES` `f64`s with `f64`'s alignment and no
        // padding, `flat` holds exactly `self.len · LANES` of them, every
        // bit pattern is a valid `f64`, and the view borrows the buffer
        // mutably for its whole lifetime.
        unsafe { core::slice::from_raw_parts_mut(flat.as_mut_ptr().cast::<Lane>(), self.len) }
    }
}

/// Splits `scratch` (grown to `2·(n + 1)` lanes at most once) into a real
/// and an imaginary plane of `n` lanes each. The planes start `n + 1`
/// lanes apart, not `n`: for the power-of-two lengths the transforms run
/// on, `n` lanes is a multiple of 4 KiB, which would put the same element
/// of both planes in one L1 cache set.
pub(crate) fn lane_planes(scratch: &mut Vec<Lane>, n: usize) -> (&mut [Lane], &mut [Lane]) {
    if scratch.len() < 2 * (n + 1) {
        scratch.resize(2 * (n + 1), [0.0; LANES]);
    }
    split_planes(scratch, n)
}

/// [`lane_planes`] on a workspace already at least `2·n + 1` lanes long.
#[inline(always)]
pub(crate) fn split_planes<const W: usize>(
    lanes: &mut [[f64; W]],
    n: usize,
) -> (&mut [[f64; W]], &mut [[f64; W]]) {
    let (re, im) = lanes[..2 * n + 1].split_at_mut(n + 1);
    (&mut re[..n], im)
}

/// Views `LANES`-wide lanes as `LANES` times as many one-wide ones, so a
/// workspace sized for full blocks also holds the planes of a transform
/// that runs one sequence alone.
#[inline(always)]
pub(crate) fn one_wide(lanes: &mut [Lane]) -> &mut [[f64; 1]] {
    let len = lanes.len() * LANES;
    // SAFETY: `[f64; 1]` has the size and alignment of `f64`, and a `Lane`
    // is `LANES` `f64`s with no padding, so the `len` one-wide lanes span
    // exactly the memory of `lanes`, every bit pattern of which is a valid
    // `f64`; the view borrows `lanes` mutably for its whole lifetime.
    unsafe { core::slice::from_raw_parts_mut(lanes.as_mut_ptr().cast::<[f64; 1]>(), len) }
}

/// Loads element `i` of `count ≤ LANES` sequences into slot `slot(i)` of
/// the lane planes, position-major: `get(c, i)` of every sequence `c`
/// fills one whole slot before the next element is read, so the planes
/// are written one lane row at a time while the sequences are read in
/// step. A full block (`count == LANES`) runs at the fixed width; lanes
/// past `count` keep what they held.
#[inline(always)]
pub(crate) fn gather_lanes(
    count: usize,
    len: usize,
    slot: impl Fn(usize) -> usize,
    get: impl Fn(usize, usize) -> Complex64,
    re: &mut [Lane],
    im: &mut [Lane],
) {
    if count == LANES {
        for i in 0..len {
            let s = slot(i);
            for c in 0..LANES {
                let z = get(c, i);
                (re[s][c], im[s][c]) = (z.re, z.im);
            }
        }
    } else {
        for i in 0..len {
            let s = slot(i);
            for c in 0..count {
                let z = get(c, i);
                (re[s][c], im[s][c]) = (z.re, z.im);
            }
        }
    }
}

/// Hands element `i` of the first `count ≤ LANES` lanes to
/// `put(c, i, z)`, position-major, [`gather_lanes`] backwards: the planes
/// are read one lane row at a time while the sequences are written in
/// step.
#[inline(always)]
pub(crate) fn store_lanes(
    count: usize,
    len: usize,
    re: &[Lane],
    im: &[Lane],
    mut put: impl FnMut(usize, usize, Complex64),
) {
    if count == LANES {
        for i in 0..len {
            for c in 0..LANES {
                put(c, i, Complex64::new(re[i][c], im[i][c]));
            }
        }
    } else {
        for i in 0..len {
            for c in 0..count {
                put(c, i, Complex64::new(re[i][c], im[i][c]));
            }
        }
    }
}

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

    /// The butterflies of `W` length-`n` transforms at once, in place on
    /// the split-complex planes `re` and `im` (`n` lanes of `W` each):
    /// [`LANES`] for full blocks, one for a sequence transformed alone, so
    /// no lane is transformed empty.
    ///
    /// The inputs must already sit in bit-reversed order (element `i` at
    /// [`FftPlan::bit_reversed`]`(i)`), and the outputs come back in
    /// natural order, unnormalised: an inverse caller multiplies each by
    /// `1.0 / n as f64` as it stores it. With those two steps every
    /// element gets exactly the operations of [`FftPlan::process`], so each
    /// lane's result is bit-identical to it. Stages run in pairs, one pass
    /// over the planes per pair. Always inlined, so a caller compiled for
    /// AVX2 (the lane entry of [`Fft`](crate::Fft) and the
    /// [`RealFft2d`](crate::RealFft2d) tile entry points) runs the lane
    /// loops 4-wide.
    ///
    /// # Panics
    /// Panics if either plane does not hold exactly `n` lanes.
    #[inline(always)]
    pub fn butterflies_lanes<const W: usize>(
        &self,
        re: &mut [[f64; W]],
        im: &mut [[f64; W]],
        dir: Direction,
    ) {
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
fn butterfly<const W: usize>(
    lo_re: &mut [f64; W],
    lo_im: &mut [f64; W],
    hi_re: &mut [f64; W],
    hi_im: &mut [f64; W],
    (wr, wi): (f64, f64),
) {
    for c in 0..W {
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

    #[test]
    fn lane_buffers_start_on_a_cache_line() {
        for lanes in [2, 3, 17, 1025] {
            let mut buf = LaneBuf::zeroed(lanes);
            assert_eq!(buf.samples(), lanes * LANES);
            let view = buf.lanes_mut();
            assert_eq!(view.len(), lanes - 1);
            assert_eq!(view.as_ptr() as usize % 64, 0, "{lanes} lanes");
            assert!(view.iter().all(|l| *l == [0.0; LANES]));
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
