//! The overlap-save tile as `rrs_fft::RealFft2d` ran it before its
//! spectra moved to column-block layout, kept only so `bench_fft` can
//! time the two in paired reps. Its bits equal the library tile's.
//!
//! Per tile: the window segment is copied, zero-padded, into the real
//! rows of a packed row-major spectrum buffer (`ny` rows of `nx/2 + 1`
//! bins); the forward rows gather one row at a time into `LANES` lane
//! planes; each block of `LANES` packed columns is gathered at a run-time
//! width, transformed, multiplied by a packed row-major kernel spectrum
//! (two strided rows per bit-reversed pair), inverse-transformed and
//! stored back with `1/ny` for every row; the caller's rows are inverted
//! in place, every lane transformed whether or not it holds a row.

use rrs_fft::{Direction, FftPlan, Lane, LANES};
use rrs_num::complex::{as_f64s, as_f64s_mut};
use rrs_num::Complex64;
use std::ops::Range;

/// A prepared `nx × ny` reference tile (power-of-two sides).
pub struct ReferenceTile {
    nx: usize,
    ny: usize,
    half: FftPlan,
    cols: FftPlan,
    twiddles: Vec<Complex64>,
}

/// A reference tile's workspace: the packed spectrum that also holds the
/// real tile, and the lane planes.
pub struct ReferenceArena {
    spec: Vec<Complex64>,
    lanes: Vec<Lane>,
}

impl ReferenceTile {
    /// Plans an `nx × ny` tile.
    ///
    /// # Panics
    /// Panics unless both sides are powers of two.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx.is_power_of_two() && ny.is_power_of_two(), "sides must be powers of two");
        let twiddles = (0..=nx / 2)
            .map(|k| Complex64::cis(-core::f64::consts::TAU * k as f64 / nx as f64))
            .collect();
        Self { nx, ny, half: FftPlan::new((nx / 2).max(1)), cols: FftPlan::new(ny), twiddles }
    }

    fn packed_width(&self) -> usize {
        self.nx / 2 + 1
    }

    fn longest(&self) -> usize {
        (self.nx / 2).max(self.ny)
    }

    /// A workspace sized for this tile.
    pub fn arena(&self) -> ReferenceArena {
        ReferenceArena {
            spec: vec![Complex64::ZERO; self.packed_width() * self.ny],
            lanes: vec![[0.0; LANES]; 2 * (self.longest() + 1)],
        }
    }

    /// The packed row-major spectrum of a `kw × kh` kernel (row-major
    /// `weights`) zero-padded at the tile origin.
    pub fn kernel_spectrum(&self, weights: &[f64], kw: usize, kh: usize) -> Vec<Complex64> {
        let pitch = 2 * self.packed_width();
        let mut spec = vec![Complex64::ZERO; self.packed_width() * self.ny];
        let rows = as_f64s_mut(&mut spec);
        for b in 0..kh {
            rows[b * pitch..b * pitch + kw].copy_from_slice(&weights[b * kw..][..kw]);
        }
        let mut lanes = Vec::new();
        self.dispatch(&mut spec, None, 0..0, &mut lanes);
        spec
    }

    /// One overlap-save tile: the segment whose sample `(x, y)` is
    /// `win[y·pitch + x]` for `x < width`, `y < height` (zero past those)
    /// is convolved circularly with `kspec`, and each row in `rows` is
    /// handed to `emit` with its `nx` real outputs.
    #[allow(clippy::too_many_arguments)]
    pub fn convolve(
        &self,
        win: &[f64],
        pitch: usize,
        width: usize,
        height: usize,
        kspec: &[Complex64],
        rows: Range<usize>,
        arena: &mut ReferenceArena,
        emit: &mut dyn FnMut(usize, &[f64]),
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let tpitch = 2 * self.packed_width();
        let cols = width.min(nx);
        let tile = as_f64s_mut(&mut arena.spec);
        for ty in 0..ny {
            let trow = &mut tile[ty * tpitch..ty * tpitch + nx];
            if ty < height {
                trow[..cols].copy_from_slice(&win[ty * pitch..][..cols]);
                trow[cols..].fill(0.0);
            } else {
                trow.fill(0.0);
            }
        }
        self.dispatch(&mut arena.spec, Some(kspec), rows.clone(), &mut arena.lanes);
        let tile = as_f64s(&arena.spec);
        for y in rows {
            emit(y, &tile[y * tpitch..][..nx]);
        }
    }

    /// Runs the AVX2 copy of [`ReferenceTile::body`] when the CPU has
    /// AVX2, as the library did, and the portable copy otherwise.
    fn dispatch(
        &self,
        spec: &mut [Complex64],
        kspec: Option<&[Complex64]>,
        rows: Range<usize>,
        scratch: &mut Vec<Lane>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.body_avx2(spec, kspec, rows, scratch) };
        }
        self.body(spec, kspec, rows, scratch);
    }

    /// [`ReferenceTile::body`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn body_avx2(
        &self,
        spec: &mut [Complex64],
        kspec: Option<&[Complex64]>,
        rows: Range<usize>,
        scratch: &mut Vec<Lane>,
    ) {
        self.body(spec, kspec, rows, scratch);
    }

    /// Forward rows, the column blocks (with the kernel multiply and the
    /// inverse when `kspec` is given), then inverse rows for `rows`.
    #[inline(always)]
    fn body(
        &self,
        spec: &mut [Complex64],
        kspec: Option<&[Complex64]>,
        rows: Range<usize>,
        scratch: &mut Vec<Lane>,
    ) {
        let n = self.longest();
        if scratch.len() < 2 * (n + 1) {
            scratch.resize(2 * (n + 1), [0.0; LANES]);
        }
        let (re, im) = scratch[..2 * (n + 1)].split_at_mut(n + 1);
        let (re, im) = (&mut re[..n], &mut im[..n]);
        self.forward_rows(spec, re, im);
        for c0 in (0..self.packed_width()).step_by(LANES) {
            self.column_block(spec, c0, kspec, re, im);
        }
        if kspec.is_some() {
            let hw = self.packed_width();
            self.inverse_rows(&mut spec[rows.start * hw..rows.end * hw], re, im);
        }
    }

    #[inline(always)]
    fn forward_rows(&self, spec: &mut [Complex64], re: &mut [Lane], im: &mut [Lane]) {
        let (hw, n2) = (self.packed_width(), self.nx / 2);
        if n2 == 0 {
            for z in spec.iter_mut() {
                *z = Complex64::from_re(z.re);
            }
            return;
        }
        let (re, im) = (&mut re[..n2], &mut im[..n2]);
        for block in spec.chunks_mut(LANES * hw) {
            for (c, row) in block.chunks_exact(hw).enumerate() {
                for (i, z) in row[..n2].iter().enumerate() {
                    let r = self.half.bit_reversed(i);
                    re[r][c] = z.re;
                    im[r][c] = z.im;
                }
            }
            self.half.butterflies_lanes(re, im, Direction::Forward);
            let rows = block.len() / hw;
            for (k, &w) in self.twiddles.iter().enumerate() {
                let (j, m) = (k % n2, (n2 - k) % n2);
                let mut x = [Complex64::ZERO; LANES];
                for (c, slot) in x.iter_mut().enumerate() {
                    let zk = Complex64::new(re[j][c], im[j][c]);
                    let zc = Complex64::new(re[m][c], im[m][c]).conj();
                    let ze = (zk + zc).scale(0.5);
                    let zo = (zc - zk).scale(0.5).mul_i();
                    *slot = ze + w * zo;
                }
                for (c, &v) in x[..rows].iter().enumerate() {
                    block[c * hw + k] = v;
                }
            }
        }
    }

    #[inline(always)]
    fn inverse_rows(&self, spec: &mut [Complex64], re: &mut [Lane], im: &mut [Lane]) {
        let (hw, n2) = (self.packed_width(), self.nx / 2);
        if n2 == 0 {
            return;
        }
        let (re, im) = (&mut re[..n2], &mut im[..n2]);
        let scale = 1.0 / n2 as f64;
        for block in spec.chunks_mut(LANES * hw) {
            for (c, row) in block.chunks_exact(hw).enumerate() {
                for k in 0..n2 {
                    let a = row[k];
                    let b = row[n2 - k].conj();
                    let ze = (a + b).scale(0.5);
                    let zo = self.twiddles[k].conj() * (a - b).scale(0.5);
                    let z = ze + zo.mul_i();
                    let r = self.half.bit_reversed(k);
                    re[r][c] = z.re;
                    im[r][c] = z.im;
                }
            }
            self.half.butterflies_lanes(re, im, Direction::Inverse);
            for (c, row) in block.chunks_exact_mut(hw).enumerate() {
                for (k, slot) in row[..n2].iter_mut().enumerate() {
                    *slot = Complex64::new(re[k][c], im[k][c]).scale(scale);
                }
            }
        }
    }

    #[inline(always)]
    fn column_block(
        &self,
        spec: &mut [Complex64],
        c0: usize,
        kspec: Option<&[Complex64]>,
        re: &mut [Lane],
        im: &mut [Lane],
    ) {
        let (hw, ny) = (self.packed_width(), self.ny);
        let width = (hw - c0).min(LANES);
        let (re, im) = (&mut re[..ny], &mut im[..ny]);
        for (iy, row) in spec.chunks_exact(hw).enumerate() {
            let r = self.cols.bit_reversed(iy);
            for (c, z) in row[c0..c0 + width].iter().enumerate() {
                re[r][c] = z.re;
                im[r][c] = z.im;
            }
        }
        self.cols.butterflies_lanes(re, im, Direction::Forward);
        let Some(kspec) = kspec else {
            for (iy, row) in spec.chunks_exact_mut(hw).enumerate() {
                for (c, slot) in row[c0..c0 + width].iter_mut().enumerate() {
                    *slot = Complex64::new(re[iy][c], im[iy][c]);
                }
            }
            return;
        };
        for iy in 0..ny {
            let r = self.cols.bit_reversed(iy);
            if r < iy {
                continue;
            }
            let (ki, kr) = (&kspec[iy * hw + c0..][..width], &kspec[r * hw + c0..][..width]);
            for c in 0..width {
                let zi = Complex64::new(re[iy][c], im[iy][c]) * ki[c];
                let zr = Complex64::new(re[r][c], im[r][c]) * kr[c];
                (re[r][c], im[r][c]) = (zi.re, zi.im);
                (re[iy][c], im[iy][c]) = (zr.re, zr.im);
            }
        }
        self.cols.butterflies_lanes(re, im, Direction::Inverse);
        let scale = 1.0 / ny as f64;
        for (iy, row) in spec.chunks_exact_mut(hw).enumerate() {
            for (c, slot) in row[c0..c0 + width].iter_mut().enumerate() {
                *slot = Complex64::new(re[iy][c], im[iy][c]).scale(scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_fft::{RealFft2d, RealTile};
    use rrs_rng::{RandomSource, Xoshiro256pp};

    #[test]
    fn tiles_equal_the_library_tiles_bit_for_bit() {
        // The workload tile shapes, each with a kernel leaving about half
        // its rows valid (a partial lane block of kept rows), read from a
        // wider window whole and clipped short of both edges.
        let shapes = [(32usize, 32usize), (64, 64), (128, 128), (256, 128), (128, 256), (256, 256), (512, 512)];
        let mut rng = Xoshiro256pp::seed_from_u64(41);
        for (nx, ny) in shapes {
            let (kw, kh) = (nx / 2 - 1, ny / 2 - 2);
            let weights: Vec<f64> = (0..kw * kh).map(|_| rng.next_f64() - 0.5).collect();
            let pitch = nx + 9;
            let win: Vec<f64> = (0..pitch * ny).map(|_| rng.next_f64() - 0.5).collect();
            let (reference, library) = (ReferenceTile::new(nx, ny), RealFft2d::new(nx, ny));
            let kref = reference.kernel_spectrum(&weights, kw, kh);
            let klib = library.forward(RealTile { data: &weights, pitch: kw, width: kw, height: kh });
            let rows = kh - 1..ny;
            for (width, height) in [(nx, ny), (nx - 5, ny - 3)] {
                let mut want = Vec::new();
                let mut arena = reference.arena();
                let mut emit = |_: usize, row: &[f64]| want.extend(row.iter().map(|v| v.to_bits()));
                reference.convolve(&win, pitch, width, height, &kref, rows.clone(), &mut arena, &mut emit);
                let mut got = Vec::new();
                let mut emit = |_: usize, row: &[f64]| got.extend(row.iter().map(|v| v.to_bits()));
                let input = RealTile { data: &win, pitch, width, height };
                library.convolve(input, &klib, rows.clone(), &mut library.workspace(), &mut emit);
                assert!(got == want, "{nx}x{ny} tile reading {width}x{height}");
            }
        }
    }
}
