//! Random-access i.i.d. `N(0,1)` lattice noise.
//!
//! The convolution method consumes a field `X[n] ~ N(0,1)` (paper eqn 36).
//! Implementing `X` as a *pure function* of `(seed, ix, iy)` — a
//! counter-based generator — is what makes the method live up to the
//! paper's claims: any window of an unbounded surface can be generated
//! independently, in any order, on any number of threads, and adjacent
//! tiles agree exactly on their shared noise (seamless successive
//! computation, §2.4).
//!
//! # Words
//!
//! The lattice key of `(ix, iy)` is `base + ix·STEP_X + iy·STEP_Y`
//! (wrapping), `base` being the seed passed once through SplitMix64 so
//! that seeds do not alias shifted copies of one another. The key goes
//! through Murmur3's non-linear finaliser `fmix64`, and the result seeds
//! a SplitMix64 generator whose two outputs are the sample's angle and
//! radius words.
//!
//! No lattice step maps one point's generator state onto another's. A
//! step `(dx, dy)` adds the constant `dx·STEP_X + dy·STEP_Y` to the key,
//! but `fmix64` is a bijection whose output difference for a fixed input
//! difference changes with the input, so the step moves the state by a
//! different amount at every point. Two points share a SplitMix64 state
//! only when their states differ by exactly `0` or `±γ` (SplitMix64's
//! increment). `0` would need equal keys, which no two distinct points
//! less than 2³¹ apart in each coordinate have (the shortest nonzero
//! `(dx, dy)` with `dx·STEP_X + dy·STEP_Y ≡ 0 mod 2⁶⁴` is
//! `(−516118572, 3663051820)`). `±γ` happens by chance, for about one
//! pair of points in 2⁶³. The key used before stepped x by γ itself, so
//! the radius word of `(ix, iy)` was the angle word of `(ix + 1, iy)` at
//! every point, which made x-neighbours dependent (E[x²·x′] ≈ 0.28).
//!
//! # Deviate
//!
//! One Box–Muller cosine branch (the paper's eqn 18),
//! `sqrt(−2 ln u2)·cos(2π·u1)`, computed by in-repo branch-free functions
//! so that no sample depends on the host's libm:
//!
//! * `u2 = (2m + 1)/2⁵³` from the radius word's top 52 bits `m`, formed
//!   exactly; `ln` is fdlibm's `e_log.c` (reduction to `[√2/2, √2)` and a
//!   degree-14 polynomial in `s = f/(2+f)`), within 1 ulp.
//! * `u1 = n/2⁵³` from the angle word's top 53 bits `n`. The angle is
//!   kept in turns: the quarter turn nearest `u1` comes from `n`'s top
//!   bits and the remainder, at most an eighth of a turn, is exact. One
//!   multiply by π/2 turns it into radians for fdlibm's `__kernel_cos` and
//!   `__kernel_sin`, and the quadrant picks and signs one of the two.
//!
//! Neither uses `mul_add`, and Rust never fuses a multiply and an add.
//!
//! # Fill
//!
//! Windows are filled a row at a time, [`LANES`] consecutive samples per
//! block. The block body is written once and compiled twice: portably,
//! and for AVX2, picked at run time like `rrs_fft::RealFft2d`'s tiles.
//! Each lane gets exactly the IEEE operations of [`NoiseField::at`] in
//! the same order, and AVX2 arithmetic rounds like scalar SSE2, so
//! `at`, the portable fill and the AVX2 fill give the same bits.

use rrs_error::RrsError;
use rrs_rng::{RandomSource, SplitMix64};

/// Samples per block of the row fill.
const LANES: usize = 8;

/// Key increments of one step along x and along y: the 2-D Weyl
/// constants of Roberts' R2 sequence (both odd), which spread any window
/// of keys evenly over the 64-bit words.
const STEP_X: u64 = 0xD1B5_4A32_D192_ED03;
const STEP_Y: u64 = 0xABC9_8388_FB8F_AC03;

/// Murmur3's 64-bit finaliser: a non-linear bijection with full
/// avalanche.
#[inline(always)]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

/// The sample keyed `key`: its angle and radius words, then the
/// deviate.
#[inline(always)]
fn sample(key: u64) -> f64 {
    let (angle, radius) = words(key);
    deviate(angle, radius)
}

/// The angle and radius words of the sample keyed `key`.
#[inline(always)]
fn words(key: u64) -> (u64, u64) {
    let mut g = SplitMix64::new(fmix64(key));
    (g.next_u64(), g.next_u64())
}

/// The Box–Muller deviate of an angle word and a radius word.
#[inline(always)]
fn deviate(angle: u64, radius_word: u64) -> f64 {
    radius(radius_word) * cos_turns(angle)
}

/// `2⁵²`, and the bits of the `f64` it is. Or-ing an integer below
/// `2⁵²` into these bits and subtracting `2⁵²` converts it exactly,
/// without the `u64 → f64` instruction AVX2 lacks.
const TWO52: f64 = 4_503_599_627_370_496.0;
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;

/// The Box–Muller radius `sqrt(−2 ln u2)` of a radius word, with
/// `u2 = (2m + 1)/2⁵³` in `(0, 1)` and `m` the word's top 52 bits: `1 +
/// m/2⁵²` is the `f64` with mantissa `m`, so both steps below are exact.
#[inline(always)]
fn radius(word: u64) -> f64 {
    let u2 = (f64::from_bits(1f64.to_bits() | (word >> 12)) - 1.0) + f64::EPSILON / 2.0;
    (-2.0 * ln(u2)).sqrt()
}

/// `ln x` for a positive normal `x`, as fdlibm's `e_log.c` computes it
/// without its branches (zero, negative, subnormal, infinite and NaN
/// arguments never reach it), with its constants' exact bits. `x = 2ᵏ·(1+f)` with `√2/2 ≤ 1+f < √2`,
/// then `ln(1+f) = f − f²/2 + s·(f²/2 + R(s²))` with `s = f/(2+f)`.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // Offsetting the high word by 1 − √2/2's makes the exponent field
    // k + 1023 and leaves the mantissa of 1+f once √2/2's is added back.
    let bits = x.to_bits() + ((0x3ff0_0000 - 0x3fe6_a09e) << 32);
    let k = f64::from_bits(TWO52_BITS | (bits >> 52)) - (TWO52 + 1023.0);
    let f = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) + (0x3fe6_a09e << 32)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + (t2 + t1)) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `cos(2π·n/2⁵³)`, `n` being the angle word's top 53 bits. `n/2⁵¹` is
/// the angle in quarter turns: `q` is the nearest whole one, and the
/// remainder `r = n/2⁵¹ − q` in `[−½, ½)` is exact, so the only rounding
/// before the kernels is the one multiply by π/2. Then
/// `cos(q·π/2 + x)` is `cos x`, `−sin x`, `−cos x` or `sin x` for `q mod
/// 4 = 0, 1, 2, 3`, picked and signed with bit masks. The kernels'
/// constants are fdlibm's exact bits.
#[inline(always)]
fn cos_turns(word: u64) -> f64 {
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    /// A quarter turn over 2⁵¹: π/2 scaled by a power of two.
    const QUARTER: f64 = core::f64::consts::FRAC_PI_2 / (1u64 << 51) as f64;
    let half = 1u64 << 50;
    let shifted = (word >> 11) + half;
    let q = shifted >> 51;
    // 2⁵² + (r·2⁵¹ + 2⁵⁰) is exact, and so is taking 2⁵² + 2⁵⁰ away.
    let r = f64::from_bits(TWO52_BITS | (shifted & ((1 << 51) - 1))) - (TWO52 + half as f64);
    let x = r * QUARTER;
    let z = x * x;
    let w = z * z;
    // fdlibm's __kernel_cos(x, 0).
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + z * rc);
    // fdlibm's __kernel_sin(x, 0, 0).
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * rs);
    let odd = 0u64.wrapping_sub(q & 1);
    let negative = ((q ^ (q >> 1)) & 1) << 63;
    f64::from_bits(((sin.to_bits() & odd) | (cos.to_bits() & !odd)) ^ negative)
}

/// An infinite deterministic lattice of standard normal deviates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseField {
    seed: u64,
    /// The seed passed once through SplitMix64: the key of `(0, 0)`.
    base: u64,
}

impl NoiseField {
    /// A noise field identified by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, base: SplitMix64::new(seed).next_u64() }
    }

    /// The field's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The lattice key of `(ix, iy)`, linear in the coordinates (see the
    /// module documentation).
    #[inline]
    fn key(&self, ix: i64, iy: i64) -> u64 {
        self.base
            .wrapping_add((ix as u64).wrapping_mul(STEP_X))
            .wrapping_add((iy as u64).wrapping_mul(STEP_Y))
    }

    /// The `N(0,1)` deviate at lattice point `(ix, iy)` — any point of ℤ².
    /// The definition every window fill reproduces bit for bit.
    #[inline]
    pub fn at(&self, ix: i64, iy: i64) -> f64 {
        sample(self.key(ix, iy))
    }

    /// Fills `out[i]` with `at(x0 + i, y)`, the column wrapping at the ends
    /// of the lattice, on the AVX2 copy of the block body when the CPU has
    /// AVX2 and on the portable copy otherwise.
    fn fill_row(&self, x0: i64, y: i64, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.fill_row_avx2(x0, y, out) };
        }
        self.fill_row_portable(x0, y, out);
    }

    /// [`NoiseField::fill_row`]'s body, compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_row_avx2(&self, x0: i64, y: i64, out: &mut [f64]) {
        self.fill_row_portable(x0, y, out);
    }

    /// [`NoiseField::fill_row`]'s body, which both copies compile: keys
    /// advance by `STEP_X` along the row, and each block of [`LANES`]
    /// samples is one fixed-length loop the compiler vectorises.
    #[inline(always)]
    fn fill_row_portable(&self, x0: i64, y: i64, out: &mut [f64]) {
        let lane_keys: [u64; LANES] = core::array::from_fn(|i| (i as u64).wrapping_mul(STEP_X));
        let mut key = self.key(x0, y);
        let mut blocks = out.chunks_exact_mut(LANES);
        for block in &mut blocks {
            let block: &mut [f64; LANES] = block.try_into().expect("chunks are LANES long");
            for (v, lane) in block.iter_mut().zip(lane_keys) {
                *v = sample(key.wrapping_add(lane));
            }
            key = key.wrapping_add((LANES as u64).wrapping_mul(STEP_X));
        }
        for (v, lane) in blocks.into_remainder().iter_mut().zip(lane_keys) {
            *v = sample(key.wrapping_add(lane));
        }
    }

    /// Fills a row-major `w × h` buffer with the window whose lower corner
    /// (minimum indices) is `(x0, y0)`.
    pub fn window(&self, x0: i64, y0: i64, w: usize, h: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.window_into(x0, y0, w, h, &mut out);
        out
    }

    /// [`NoiseField::window`] into a caller-owned buffer: `out` is cleared
    /// and refilled, reusing its allocation. Tile loops that materialise
    /// hundreds of windows per run keep one scratch vector alive instead
    /// of reallocating per tile.
    ///
    /// # Panics
    /// Panics if `w · h` overflows `usize`. Fallible callers use
    /// [`NoiseField::try_window_into`].
    pub fn window_into(&self, x0: i64, y0: i64, w: usize, h: usize, out: &mut Vec<f64>) {
        self.try_window_into(x0, y0, w, h, out).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`NoiseField::window_into`]: a pathological window whose
    /// sample count `w · h` overflows `usize` is rejected with
    /// [`RrsError::InvalidParam`] instead of silently wrapping the
    /// buffer size (which would fill a tiny buffer with the wrong rows).
    pub fn try_window_into(
        &self,
        x0: i64,
        y0: i64,
        w: usize,
        h: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), RrsError> {
        let samples = w.checked_mul(h).ok_or_else(|| {
            RrsError::invalid_param(
                "window",
                format!("window {w}x{h} overflows the addressable sample count"),
            )
        })?;
        out.clear();
        if samples == 0 {
            return Ok(());
        }
        out.resize(samples, 0.0);
        // Coordinates wrap like the lattice key does, so a window reaching
        // past either end of i64 continues on the other, in debug and
        // release builds alike.
        for (iy, row) in out.chunks_exact_mut(w).enumerate() {
            self.fill_row(x0, y0.wrapping_add(iy as i64), row);
        }
        Ok(())
    }
}

/// A noise-window buffer that records the complete window it holds —
/// seed, origin and size — so a request for a window of the same seed,
/// rows and width that overlaps it in x (every consecutive strip of a
/// stream) copies the shared columns and evaluates only the new ones.
/// Every sample is a pure function of `(seed, ix, iy)`, so the result is
/// bit-identical to a fresh [`NoiseField::try_window_into`].
#[derive(Debug, Default)]
pub(crate) struct NoiseWindow {
    buf: Vec<f64>,
    /// `(seed, x0, y0, w, h)` of the window `buf` holds; `None` until a
    /// fill completes, so an interrupted fill is never reused.
    held: Option<(u64, i64, i64, usize, usize)>,
}

impl NoiseWindow {
    /// Fills the buffer with the `w × h` window of `noise` at `(x0, y0)`
    /// and returns how many of its samples were reused from the window
    /// held before.
    pub(crate) fn try_fill(
        &mut self,
        noise: &NoiseField,
        x0: i64,
        y0: i64,
        w: usize,
        h: usize,
    ) -> Result<usize, RrsError> {
        // The lattice wraps, so the shift is taken modulo 2⁶⁴ as well.
        let shift = self
            .held
            .take()
            .filter(|&(seed, _, hy0, hw, hh)| (seed, hy0, hw, hh) == (noise.seed(), y0, w, h))
            .map(|(_, hx0, ..)| x0.wrapping_sub(hx0))
            .filter(|d| d.unsigned_abs() < w as u64);
        let Some(d) = shift else {
            noise.try_window_into(x0, y0, w, h, &mut self.buf)?;
            self.held = Some((noise.seed(), x0, y0, w, h));
            return Ok(0);
        };
        let kept = w - d.unsigned_abs() as usize;
        let fresh = if d >= 0 { kept..w } else { 0..w - kept };
        let fx0 = x0.wrapping_add(fresh.start as i64);
        for (iy, row) in self.buf.chunks_exact_mut(w).enumerate() {
            // Moved right by d: old column ix + d is new column ix.
            if d >= 0 {
                row.copy_within(d as usize.., 0);
            } else {
                row.copy_within(..kept, w - kept);
            }
            noise.fill_row(fx0, y0.wrapping_add(iy as i64), &mut row[fresh.clone()]);
        }
        self.held = Some((noise.seed(), x0, y0, w, h));
        Ok(kept * h)
    }

    /// The held window, row-major.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_function_of_coordinates() {
        let f = NoiseField::new(123);
        assert_eq!(f.at(5, -7), f.at(5, -7));
        let g = NoiseField::new(123);
        assert_eq!(f.at(1000, 2000), g.at(1000, 2000));
    }

    #[test]
    fn different_seeds_differ() {
        let a = NoiseField::new(1);
        let b = NoiseField::new(2);
        let same = (0..100).filter(|&i| a.at(i, 0) == b.at(i, 0)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn windows_agree_with_pointwise() {
        let f = NoiseField::new(9);
        let w = f.window(-3, 4, 5, 4);
        for iy in 0..4i64 {
            for ix in 0..5i64 {
                assert_eq!(w[(iy * 5 + ix) as usize], f.at(-3 + ix, 4 + iy));
            }
        }
    }

    #[test]
    fn empty_windows_come_back_empty() {
        let f = NoiseField::new(5);
        let mut buf = vec![1.0; 4];
        for (w, h) in [(0, 7), (7, 0), (0, 0)] {
            f.try_window_into(3, -3, w, h, &mut buf).unwrap();
            assert!(buf.is_empty(), "{w}x{h}");
            assert!(f.window(3, -3, w, h).is_empty(), "{w}x{h}");
        }
        let mut win = NoiseWindow::default();
        assert_eq!(win.try_fill(&f, 0, 0, 0, 5).unwrap(), 0);
        assert_eq!(win.try_fill(&f, 1, 0, 0, 5).unwrap(), 0);
        assert!(win.as_slice().is_empty());
    }

    #[test]
    fn window_into_matches_window_and_reuses_allocation() {
        let f = NoiseField::new(9);
        let mut buf = vec![7.0; 3]; // stale contents and wrong size
        f.window_into(-3, 4, 5, 4, &mut buf);
        assert_eq!(buf, f.window(-3, 4, 5, 4));
        let ptr = buf.as_ptr();
        f.window_into(7, -2, 4, 3, &mut buf); // smaller: no regrow
        assert_eq!(buf, f.window(7, -2, 4, 3));
        assert_eq!(buf.as_ptr(), ptr, "refill within capacity must not reallocate");
    }

    #[test]
    fn overflowing_window_is_rejected_not_wrapped() {
        let f = NoiseField::new(1);
        let mut buf = Vec::new();
        // w·h wraps usize; the unchecked multiply used to reserve a tiny
        // buffer and start pushing.
        let err = f.try_window_into(0, 0, usize::MAX, 2, &mut buf).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::InvalidParam);
        assert!(err.to_string().contains("overflows"), "{err}");
        assert!(buf.is_empty(), "nothing may be materialised on rejection");
        // The fallible path matches the panicking one on sane windows.
        f.try_window_into(-3, 4, 5, 4, &mut buf).unwrap();
        assert_eq!(buf, f.window(-3, 4, 5, 4));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_window_panics_on_infallible_path() {
        NoiseField::new(1).window_into(0, 0, usize::MAX, 2, &mut Vec::new());
    }

    #[test]
    fn windows_wrap_at_the_ends_of_the_lattice() {
        let f = NoiseField::new(3);
        let w = f.window(i64::MAX - 1, i64::MIN, 4, 2);
        let want = [
            f.at(i64::MAX - 1, i64::MIN),
            f.at(i64::MAX, i64::MIN),
            f.at(i64::MIN, i64::MIN),
            f.at(i64::MIN + 1, i64::MIN),
        ];
        assert_eq!(w[..4], want);
        assert_eq!(w[4], f.at(i64::MAX - 1, i64::MIN + 1));
    }

    #[test]
    fn held_windows_reuse_shared_columns_bit_for_bit() {
        let f = NoiseField::new(12);
        let (w, h) = (9, 4);
        let mut win = NoiseWindow::default();
        assert_eq!(win.try_fill(&f, 0, -2, w, h).unwrap(), 0);
        // Right, left, in place, across the end of the lattice, and past
        // the overlap: each equals a fresh window and reuses exactly the
        // shared columns.
        let mut x0 = 0i64;
        let moves = [
            (4i64, 5usize),
            (1, 6),
            (1, 9),
            (i64::MIN + 2, 0),
            (i64::MAX - 3, 3),
            ((i64::MAX - 3).wrapping_add(20), 0),
        ];
        for (to, shared) in moves {
            assert_eq!(win.try_fill(&f, to, -2, w, h).unwrap(), shared * h, "{x0} -> {to}");
            assert_eq!(win.as_slice(), f.window(to, -2, w, h), "{x0} -> {to}");
            x0 = to;
        }
    }

    #[test]
    fn held_windows_refill_fresh_columns_across_a_block_boundary() {
        // Moves of 1–2 and 13 columns either way on 21-wide rows: the
        // fresh columns start and end off the 8-sample blocks, and a
        // block's remainder is refilled on its own.
        let f = NoiseField::new(41);
        let (w, h) = (21, 3);
        let mut win = NoiseWindow::default();
        win.try_fill(&f, 50, 9, w, h).unwrap();
        for (to, kept) in [(63i64, 8usize), (50, 8), (37, 8), (38, 20), (40, 19)] {
            assert_eq!(win.try_fill(&f, to, 9, w, h).unwrap(), kept * h, "to {to}");
            for (i, v) in win.as_slice().iter().enumerate() {
                let (ix, iy) = (to + (i % w) as i64, 9 + (i / w) as i64);
                assert_eq!(v.to_bits(), f.at(ix, iy).to_bits(), "to {to}: ({ix}, {iy})");
            }
        }
    }

    #[test]
    fn held_windows_of_another_seed_or_shape_are_never_reused() {
        let (a, b) = (NoiseField::new(1), NoiseField::new(2));
        let mut win = NoiseWindow::default();
        win.try_fill(&a, 0, 0, 6, 3).unwrap();
        let requests = [(&b, 1, 0, 6, 3), (&a, 1, 1, 6, 3), (&a, 1, 1, 7, 3), (&a, 1, 1, 7, 4)];
        for (f, x0, y0, w, h) in requests {
            assert_eq!(win.try_fill(f, x0, y0, w, h).unwrap(), 0);
            assert_eq!(win.as_slice(), f.window(x0, y0, w, h));
        }
        // A rejected fill forgets the held window.
        assert!(win.try_fill(&a, 0, 0, usize::MAX, 2).is_err());
        assert_eq!(win.try_fill(&a, 2, 1, 7, 4).unwrap(), 0);
        assert_eq!(win.as_slice(), a.window(2, 1, 7, 4));
    }

    #[test]
    fn overlapping_windows_are_consistent() {
        // The seamless-tiling property.
        let f = NoiseField::new(77);
        let a = f.window(0, 0, 8, 8);
        let b = f.window(4, 0, 8, 8);
        for iy in 0..8usize {
            for ix in 0..4usize {
                assert_eq!(a[iy * 8 + ix + 4], b[iy * 8 + ix]);
            }
        }
    }

    #[test]
    fn marginals_are_standard_normal() {
        let f = NoiseField::new(31);
        let n = 500_000i64;
        let side = 1000;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut m4 = 0.0;
        for i in 0..n {
            let v = f.at(i % side, i / side);
            mean += v;
            m2 += v * v;
            m4 += v * v * v * v;
        }
        let nf = n as f64;
        mean /= nf;
        m2 /= nf;
        m4 /= nf;
        assert!(mean.abs() < 4.5 / nf.sqrt(), "mean={mean}");
        assert!((m2 - 1.0).abs() < 4.5 * (2.0 / nf).sqrt(), "E X² = {m2}");
        assert!((m4 - 3.0).abs() < 4.5 * (96.0 / nf).sqrt(), "E X⁴ = {m4}");
    }

    #[test]
    fn neighbours_are_uncorrelated() {
        let f = NoiseField::new(8);
        let n = 200_000i64;
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut cd = 0.0;
        for i in 0..n {
            let (x, y) = (i % 500, i / 500);
            let v = f.at(x, y);
            cx += v * f.at(x + 1, y);
            cy += v * f.at(x, y + 1);
            cd += v * f.at(x + 1, y + 1);
        }
        let tol = 4.5 / (n as f64).sqrt();
        for (name, c) in [("x", cx), ("y", cy), ("diag", cd)] {
            let c = c / n as f64;
            assert!(c.abs() < tol, "{name}-neighbour correlation {c}");
        }
    }

    /// The deviate of an angle and a radius word through libm's `ln` and
    /// `cos`, with `u1` and `u2` formed as the fast path forms them.
    fn libm_deviate(angle: u64, radius_word: u64) -> f64 {
        let u1 = (angle >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (2 * (radius_word >> 12) + 1) as f64 / (1u64 << 53) as f64;
        (-2.0 * u2.ln()).sqrt() * (core::f64::consts::TAU * u1).cos()
    }

    /// The largest `|fast − libm|` the two functions' ulp errors allow on
    /// a sample of libm radius `r`, in units of `2⁻⁵²`:
    /// * radius, relative: both `ln`s within 1 ulp (2), halved by the
    ///   square root (1), plus each side's rounded square root (1);
    /// * cosine, absolute: both kernels within 1 ulp of a result at most
    ///   1 (1 + 1), the fast angle's one rounded multiply by a rounded
    ///   π/2 at `|x| ≤ π/4` (π/4), and libm's argument `fl(fl(2π)·u1)`,
    ///   off by up to 2⁻⁵¹ for `fl(2π)` and 2⁻⁵¹ for the product (4);
    /// * the product `radius·cos`, rounded on each side (1).
    fn libm_bound(r: f64) -> f64 {
        let ulps = 2.0 + 2.0 + core::f64::consts::FRAC_PI_4 + 4.0 + 1.0;
        r * ulps * f64::EPSILON
    }

    /// Checks one pair of words against the libm reference and returns
    /// the error as a share of its bound.
    fn within_libm_bound(angle: u64, radius_word: u64) -> f64 {
        let (fast, libm) = (deviate(angle, radius_word), libm_deviate(angle, radius_word));
        let r = libm_deviate(0, radius_word);
        let share = (fast - libm).abs() / libm_bound(r);
        assert!(share <= 1.0, "words ({angle:#x}, {radius_word:#x}): {fast} vs libm {libm}");
        share
    }

    #[test]
    fn fast_samples_stay_within_the_libm_bound() {
        // 2²⁰ lattice samples, and the edge cases: the smallest and
        // largest u2, and angles on and beside every quadrant boundary
        // and every switch of the nearest quarter turn.
        let f = NoiseField::new(2026);
        let mut worst = 0f64;
        for iy in 0..1024 {
            for ix in 0..1024 {
                let (a, b) = words(f.key(ix, iy));
                worst = worst.max(within_libm_bound(a, b));
            }
        }
        let radius_words = [0, 1 << 12, u64::MAX, 1 << 63, 0x5555_5555_5555_5555];
        for eighth in 0..8u64 {
            for n in [eighth << 50, (eighth << 50).wrapping_sub(1), (eighth << 50) + 1] {
                let n = n & ((1 << 53) - 1);
                for &b in &radius_words {
                    worst = worst.max(within_libm_bound(n << 11, b));
                }
            }
        }
        assert!(worst > 0.0, "the fast path should not equal libm everywhere");
        eprintln!("largest |fast − libm| = {worst:.3} of the bound");
    }

    #[test]
    fn smallest_u2_gives_the_largest_radius() {
        let r = radius(0);
        assert!((r - (106.0 * core::f64::consts::LN_2).sqrt()).abs() < 1e-14, "{r}");
        assert!(radius(u64::MAX) > 0.0 && radius(u64::MAX) < 1e-7);
    }

    #[test]
    fn every_quadrant_takes_its_sign_and_branch() {
        // Angles a hair past each eighth of a turn: cos(2π·k/8).
        for k in 0..8u64 {
            let want = (core::f64::consts::TAU * k as f64 / 8.0).cos();
            let got = cos_turns(k << 61);
            assert!((got - want).abs() < 1e-15, "eighth {k}: {got} vs {want}");
        }
    }

    #[test]
    fn portable_and_avx2_fills_match_at_bit_for_bit() {
        // Rows with full blocks and a remainder, across the lattice end.
        let f = NoiseField::new(2024);
        for (x0, y, w) in [(-1300i64, 77i64, 2501usize), (i64::MAX - 5, -1, 13), (3, 0, 7)] {
            let mut portable = vec![0.0; w];
            f.fill_row_portable(x0, y, &mut portable);
            for (i, v) in portable.iter().enumerate() {
                let ix = x0.wrapping_add(i as i64);
                assert_eq!(v.to_bits(), f.at(ix, y).to_bits(), "({ix}, {y})");
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                let mut avx2 = vec![0.0; w];
                // SAFETY: the CPU supports AVX2, checked just above.
                unsafe { f.fill_row_avx2(x0, y, &mut avx2) };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&avx2), bits(&portable), "row ({x0}, {y}) x {w}");
            }
        }
    }

    #[test]
    fn fields_match_the_libm_reference_window_within_1e12() {
        use crate::{ConvBackend, ConvolutionGenerator, GenContext, KernelSizing};
        use rrs_grid::Window;
        use rrs_spectrum::{Exponential, Gaussian, SurfaceParams};
        let f = NoiseField::new(17);
        let win = Window::new(-40, 25, 96, 64);
        let gaussian = Gaussian::new(SurfaceParams::isotropic(1.0, 6.0));
        let exponential = Exponential::new(SurfaceParams::new(0.5, 9.0, 4.0));
        for backend in [ConvBackend::Direct, ConvBackend::Auto] {
            for gen in [
                ConvolutionGenerator::new(&gaussian, KernelSizing::default()),
                ConvolutionGenerator::new(&exponential, KernelSizing::default()),
            ] {
                let gen = gen.with_context(GenContext::new().with_backend(backend));
                let (kw, kh) = gen.kernel().extent();
                let (ox, oy) = gen.kernel().origin();
                let (wx0, wy0) = (win.x0 - (ox + kw as i64 - 1), win.y0 - (oy + kh as i64 - 1));
                let (ww, wh) = (win.nx + kw - 1, win.ny + kh - 1);
                let reference: Vec<f64> = (0..wh as i64)
                    .flat_map(|iy| (0..ww as i64).map(move |ix| (wx0 + ix, wy0 + iy)))
                    .map(|(ix, iy)| {
                        let (a, b) = words(f.key(ix, iy));
                        libm_deviate(a, b)
                    })
                    .collect();
                let want = gen.try_correlate_window(&reference, win.nx, win.ny).unwrap();
                let got = gen.generate(&f, win);
                let scale = want.as_slice().iter().fold(0f64, |m, v| m.max(v.abs()));
                let err = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .fold(0f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(err <= 1e-12 * scale, "{backend:?}: max error {err:e} of {scale}");
            }
        }
    }

    #[test]
    fn negative_coordinates_work() {
        let f = NoiseField::new(14);
        let v = f.at(-1_000_000, -2_000_000);
        assert!(v.is_finite());
        assert_eq!(v, f.at(-1_000_000, -2_000_000));
    }
}
