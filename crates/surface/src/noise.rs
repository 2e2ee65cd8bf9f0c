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
//! Construction: the lattice coordinates are mixed into a 64-bit key with
//! two odd multiplicative constants, the key seeds the SplitMix64
//! finalizer chain, and two output words drive one Box–Muller cosine
//! branch (the paper's eqn 18).
//!
//! Windows are filled row by row in batches of [`BATCH`] samples, each
//! batch's cosines evaluated in order of angle: libm's `cos` branches on
//! its argument's range and quadrant, and on random angles those branches
//! mispredict. Every sample still gets exactly the operations of
//! [`NoiseField::at`], so a window equals pointwise evaluation bit for
//! bit.

use rrs_error::RrsError;
use rrs_num::Complex64;
use rrs_rng::{RandomSource, SplitMix64};

/// Samples per batch of the row fill; its scratch (an angle word and a
/// `u16` index per sample) lives on the stack.
const BATCH: usize = 1024;

/// Angle buckets of the counting sort: the top 6 bits of the angle word.
const BUCKET_BITS: u32 = 6;

/// The Box–Muller inputs of the sample keyed `key`: its SplitMix64 angle
/// word and its radius `sqrt(-2 ln u2)`.
#[inline]
fn angle_word_and_radius(key: u64) -> (u64, f64) {
    let mut g = SplitMix64::new(key);
    let word = g.next_u64();
    let u2 = g.next_f64_open();
    (word, (-2.0 * u2.ln()).sqrt())
}

/// The angle `2π·u1` of an angle word, `u1` being the word's top 53 bits
/// over 2⁵³ exactly as [`RandomSource::next_f64`] forms it.
#[inline]
fn angle(word: u64) -> f64 {
    core::f64::consts::TAU * ((word >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
}

/// The stack scratch of one batch: each sample's angle word, and the
/// samples' indices sorted by angle bucket.
struct Batch {
    words: [u64; BATCH],
    order: [u16; BATCH],
}

impl Batch {
    fn new() -> Self {
        Self { words: [0; BATCH], order: [0; BATCH] }
    }
}

/// An infinite deterministic lattice of standard normal deviates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseField {
    seed: u64,
}

impl NoiseField {
    /// A noise field identified by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The field's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The lattice key of `(ix, iy)`: coordinates and seed mixed into one
    /// word. The two constants are large odd numbers (golden-ratio and a
    /// Murmur3 finalizer prime) so distinct lattice points land on
    /// well-separated keys.
    #[inline]
    fn key(&self, ix: i64, iy: i64) -> u64 {
        self.seed
            .wrapping_add((ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }

    /// The `N(0,1)` deviate at lattice point `(ix, iy)` — any point of ℤ².
    /// The definition every window fill reproduces bit for bit.
    #[inline]
    pub fn at(&self, ix: i64, iy: i64) -> f64 {
        let (word, radius) = angle_word_and_radius(self.key(ix, iy));
        radius * angle(word).cos()
    }

    /// Fills `out[i]` with `at(x0 + i, y)`, the column wrapping at the ends
    /// of the lattice, one batch of [`BATCH`] samples at a time: each
    /// sample's angle word is kept and its radius written to `out`, the
    /// batch is counting-sorted by the word's top bits, and each output is
    /// multiplied by its cosine in that order. `cos` is a pure function,
    /// so the order of the calls changes no result, and `radius · cos` is
    /// the product [`NoiseField::at`] forms.
    fn fill_row(&self, x0: i64, y: i64, out: &mut [f64], batch: &mut Batch) {
        let bucket = |word: u64| (word >> (64 - BUCKET_BITS)) as usize;
        for (b, chunk) in out.chunks_mut(BATCH).enumerate() {
            let bx0 = x0.wrapping_add((b * BATCH) as i64);
            let mut starts = [0u16; 1 << BUCKET_BITS];
            for (i, (slot, word)) in chunk.iter_mut().zip(&mut batch.words).enumerate() {
                let (w, radius) = angle_word_and_radius(self.key(bx0.wrapping_add(i as i64), y));
                (*slot, *word) = (radius, w);
                starts[bucket(w)] += 1;
            }
            let mut sum = 0;
            for start in &mut starts {
                (*start, sum) = (sum, sum + *start);
            }
            let words = &batch.words[..chunk.len()];
            for (i, &w) in words.iter().enumerate() {
                let start = &mut starts[bucket(w)];
                batch.order[*start as usize] = i as u16;
                *start += 1;
            }
            for &i in &batch.order[..chunk.len()] {
                chunk[i as usize] *= angle(words[i as usize]).cos();
            }
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
        let mut batch = Batch::new();
        for (iy, row) in out.chunks_exact_mut(w).enumerate() {
            self.fill_row(x0, y0.wrapping_add(iy as i64), row, &mut batch);
        }
        Ok(())
    }

    /// A complex deviate with independent `N(0, 1/2)` parts (unit second
    /// moment), for spectral-domain consumers.
    pub fn at_complex(&self, ix: i64, iy: i64) -> Complex64 {
        let mut g = SplitMix64::new(self.key(ix, iy) ^ 0xA5A5_5A5A_F0F0_0F0F);
        let u1 = core::f64::consts::TAU * g.next_f64();
        let u2 = g.next_f64_open();
        let r = (-u2.ln()).sqrt(); // sqrt(-2 ln u / 2)
        Complex64::from_polar(r, u1)
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
        let mut batch = Batch::new();
        for (iy, row) in self.buf.chunks_exact_mut(w).enumerate() {
            // Moved right by d: old column ix + d is new column ix.
            if d >= 0 {
                row.copy_within(d as usize.., 0);
            } else {
                row.copy_within(..kept, w - kept);
            }
            noise.fill_row(fx0, y0.wrapping_add(iy as i64), &mut row[fresh.clone()], &mut batch);
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
    fn batched_rows_equal_pointwise_bit_for_bit_in_every_bucket() {
        // Rows of 2500: two full batches and a partial one each, with
        // samples in all 64 angle buckets.
        let f = NoiseField::new(2024);
        let (x0, y0, w, h) = (-1300i64, 77i64, 2500usize, 3usize);
        let win = f.window(x0, y0, w, h);
        let mut buckets = 0u64;
        for (i, v) in win.iter().enumerate() {
            let (ix, iy) = (x0 + (i % w) as i64, y0 + (i / w) as i64);
            assert_eq!(v.to_bits(), f.at(ix, iy).to_bits(), "({ix}, {iy})");
            let (word, _) = angle_word_and_radius(f.key(ix, iy));
            buckets |= 1 << (word >> (64 - BUCKET_BITS));
        }
        assert_eq!(buckets, u64::MAX, "every angle bucket is exercised");
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
    fn held_windows_refill_fresh_columns_across_a_batch_boundary() {
        // 1500-wide rows moved by 1100 columns either way: the 1100 fresh
        // columns of each row span a batch boundary, starting mid-row
        // when moving right and ending mid-row when moving left.
        let f = NoiseField::new(41);
        let (w, h) = (1500, 3);
        let mut win = NoiseWindow::default();
        win.try_fill(&f, 50, 9, w, h).unwrap();
        for to in [1150i64, 50, -1050] {
            assert_eq!(win.try_fill(&f, to, 9, w, h).unwrap(), 400 * h, "to {to}");
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

    #[test]
    fn complex_variant_has_unit_power() {
        let f = NoiseField::new(4);
        let n = 200_000i64;
        let mut p = 0.0;
        let mut re = 0.0;
        for i in 0..n {
            let z = f.at_complex(i % 700, i / 700);
            p += z.norm_sqr();
            re += z.re;
        }
        let nf = n as f64;
        assert!((p / nf - 1.0).abs() < 0.02, "E|z|² = {}", p / nf);
        assert!((re / nf).abs() < 4.5 * (0.5f64 / nf).sqrt());
    }

    #[test]
    fn negative_coordinates_work() {
        let f = NoiseField::new(14);
        let v = f.at(-1_000_000, -2_000_000);
        assert!(v.is_finite());
        assert_eq!(v, f.at(-1_000_000, -2_000_000));
    }
}
