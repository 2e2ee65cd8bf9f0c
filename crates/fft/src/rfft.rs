//! Real-input 2-D FFT via the half-size complex trick.
//!
//! The overlap-save convolution engine transforms *real* noise tiles
//! against *real* kernels; running those through full complex transforms
//! wastes half the arithmetic and half the spectrum storage. This module
//! exploits the symmetry instead:
//!
//! * **rows (r2c / c2r)** — a real row of even length `n` is viewed as
//!   `n/2` complex samples `z[k] = x[2k] + j·x[2k+1]`, transformed with
//!   one half-length FFT, and untangled with the standard split
//!   identities. Writing `E`/`O` for the `n/2`-point DFTs of the even and
//!   odd subsequences and `W = e^{-j2π/n}`:
//!
//!   ```text
//!   E[k] = (Z[k] + Z*[(n/2−k) mod n/2]) / 2
//!   O[k] = (Z[k] − Z*[(n/2−k) mod n/2]) / 2j
//!   X[k] = E[k] + Wᵏ·O[k]            for k = 0 ..= n/2
//!   ```
//!
//!   The inverse runs the identities backwards (`E`, `O` recovered from
//!   the packed spectrum, `Z = E + j·O`, one half-length inverse FFT).
//! * **columns** — only the `n/2 + 1` stored columns of the packed
//!   (Hermitian) spectrum are transformed; the mirrored half is implied.
//!
//! The packed layout is row-major `ny` rows × `(nx/2 + 1)` columns,
//! holding bins `kx = 0 ..= nx/2` for every `ky`. Pointwise products of
//! two packed spectra stay packed (products of Hermitian spectra are
//! Hermitian), which is exactly what convolution needs.
//!
//! [`RealFft2d::forward_in_place`] / [`RealFft2d::inverse_in_place`] run
//! the same arithmetic without a separate real buffer: each packed row
//! has `2·(nx/2 + 1)` `f64`s of room (`nx + 2`, or 2 when `nx = 1`), so
//! the real row can sit in its first `nx` (exactly the `z[k]` pairs the
//! half-size trick transforms).
//!
//! Normalisation matches [`Fft2d`](crate::Fft2d): the forward transform
//! is the unnormalised DFT restricted to the stored bins, and
//! [`RealFft2d::inverse_into`] is its exact inverse (the `1/(nx·ny)`
//! factor is carried by the half-length inverse FFT and the column pass).

use crate::{Direction, Fft};
use rrs_num::Complex64;
use std::sync::Arc;

/// A prepared real-input 2-D transform of shape `(nx, ny)`, row-major.
///
/// `nx` must be `1` or even (power-of-two tile sides always qualify);
/// `ny` is unrestricted. Transforms are allocation-free given a caller
/// scratch vector, so per-worker arenas can run tiles with zero per-tile
/// allocation.
pub struct RealFft2d {
    nx: usize,
    ny: usize,
    /// The `nx/2`-point engine behind the half-size trick (`None` when
    /// `nx == 1`: a length-1 r2c is the identity).
    half: Option<Arc<Fft>>,
    col_fft: Arc<Fft>,
    /// `Wᵏ = e^{-j2πk/nx}` for `k = 0 ..= nx/2`.
    twiddles: Vec<Complex64>,
    workers: usize,
}

impl RealFft2d {
    /// Builds a serial real-input transform for an `nx × ny` field.
    pub fn new(nx: usize, ny: usize) -> Self {
        Self::with_workers(nx, ny, 1)
    }

    /// Builds a real-input transform with an explicit worker count
    /// (1 = serial). Output is bit-identical for any worker count: the
    /// per-row and per-column arithmetic never depends on the partition.
    ///
    /// # Panics
    /// Panics if either side is zero or `nx` is odd and not 1.
    pub fn with_workers(nx: usize, ny: usize, workers: usize) -> Self {
        assert!(nx > 0 && ny > 0, "RealFft2d dimensions must be positive");
        assert!(nx == 1 || nx % 2 == 0, "real transform width must be 1 or even, got {nx}");
        let half = (nx > 1).then(|| Arc::new(Fft::new(nx / 2)));
        let col_fft = Arc::new(Fft::new(ny));
        let twiddles = (0..=nx / 2)
            .map(|k| Complex64::cis(-core::f64::consts::TAU * k as f64 / nx as f64))
            .collect();
        Self { nx, ny, half, col_fft, twiddles, workers: workers.max(1) }
    }

    /// Shape as `(nx, ny)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Stored spectrum columns: `nx/2 + 1`.
    #[inline]
    pub fn packed_width(&self) -> usize {
        self.nx / 2 + 1
    }

    /// Total packed spectrum samples: `(nx/2 + 1) · ny`.
    #[inline]
    pub fn packed_len(&self) -> usize {
        self.packed_width() * self.ny
    }

    /// Total real samples: `nx · ny`.
    #[inline]
    pub fn real_len(&self) -> usize {
        self.nx * self.ny
    }

    /// Scratch capacity (complex samples) the transform passes need; the
    /// scratch vector handed to [`RealFft2d::forward_into`] /
    /// [`RealFft2d::inverse_into`] is grown to this once and then reused.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        (self.nx / 2).max(self.ny).max(1)
    }

    /// Forward-transforms a real row-major `nx × ny` field into the
    /// packed spectrum `spec` (row-major `ny × (nx/2 + 1)`), the
    /// unnormalised DFT on the stored bins. `scratch` is grown at most
    /// once and reused; steady-state calls allocate nothing.
    ///
    /// # Panics
    /// Panics if `input.len() != nx·ny` or `spec.len() != packed_len()`.
    pub fn forward_into(
        &self,
        input: &[f64],
        spec: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
    ) {
        assert_eq!(input.len(), self.real_len(), "real buffer shape mismatch");
        assert_eq!(spec.len(), self.packed_len(), "spectrum buffer shape mismatch");
        let hw = self.packed_width();
        let row_workers = self.workers.min(self.ny);
        if row_workers <= 1 {
            Self::grow(scratch, self.scratch_len());
            for (row, srow) in input.chunks_exact(self.nx).zip(spec.chunks_exact_mut(hw)) {
                self.r2c_row(row, srow, scratch);
            }
        } else {
            let rows_per_band = self.ny.div_ceil(row_workers);
            rrs_par::scope(|s| {
                for (band_in, band_out) in input
                    .chunks(rows_per_band * self.nx)
                    .zip(spec.chunks_mut(rows_per_band * hw))
                {
                    s.spawn(move || {
                        let mut z = Vec::new();
                        Self::grow(&mut z, self.scratch_len());
                        for (row, srow) in
                            band_in.chunks_exact(self.nx).zip(band_out.chunks_exact_mut(hw))
                        {
                            self.r2c_row(row, srow, &mut z);
                        }
                    });
                }
            });
        }
        self.cols_pass(spec, Direction::Forward, scratch);
    }

    /// Inverts a packed spectrum back to the real field: the exact
    /// inverse of [`RealFft2d::forward_into`], including the `1/(nx·ny)`
    /// normalisation. `spec` is consumed as workspace (the column pass
    /// runs in place).
    ///
    /// # Panics
    /// Panics if `spec.len() != packed_len()` or `out.len() != nx·ny`.
    pub fn inverse_into(
        &self,
        spec: &mut [Complex64],
        out: &mut [f64],
        scratch: &mut Vec<Complex64>,
    ) {
        assert_eq!(spec.len(), self.packed_len(), "spectrum buffer shape mismatch");
        assert_eq!(out.len(), self.real_len(), "real buffer shape mismatch");
        self.cols_pass(spec, Direction::Inverse, scratch);
        let hw = self.packed_width();
        let row_workers = self.workers.min(self.ny);
        if row_workers <= 1 {
            Self::grow(scratch, self.scratch_len());
            for (srow, row) in spec.chunks_exact(hw).zip(out.chunks_exact_mut(self.nx)) {
                self.c2r_row(srow, row, scratch);
            }
        } else {
            let rows_per_band = self.ny.div_ceil(row_workers);
            rrs_par::scope(|s| {
                for (band_in, band_out) in
                    spec.chunks(rows_per_band * hw).zip(out.chunks_mut(rows_per_band * self.nx))
                {
                    s.spawn(move || {
                        let mut z = Vec::new();
                        Self::grow(&mut z, self.scratch_len());
                        for (srow, row) in
                            band_in.chunks_exact(hw).zip(band_out.chunks_exact_mut(self.nx))
                        {
                            self.c2r_row(srow, row, &mut z);
                        }
                    });
                }
            });
        }
    }

    /// [`RealFft2d::forward_into`] without a separate real buffer: on
    /// entry row `r` of `spec`, viewed as `f64`s through
    /// [`rrs_num::complex::as_f64s_mut`], holds the real row in its first
    /// `nx` values (the rest of the row is ignored); on exit `spec` holds
    /// the packed spectrum, bit-identical to `forward_into`'s. Rows run
    /// serially; the column pass honours the worker count.
    ///
    /// # Panics
    /// Panics if `spec.len() != packed_len()`.
    pub fn forward_in_place(&self, spec: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        assert_eq!(spec.len(), self.packed_len(), "spectrum buffer shape mismatch");
        Self::grow(scratch, self.scratch_len());
        for srow in spec.chunks_exact_mut(self.packed_width()) {
            match &self.half {
                // The real samples are already the `z[k] = x[2k] + j·x[2k+1]`
                // pairs the half-size trick transforms.
                Some(_) => {
                    let z = &mut scratch[..self.nx / 2];
                    z.copy_from_slice(&srow[..self.nx / 2]);
                    self.r2c_z(z, srow);
                }
                None => srow[0] = Complex64::from_re(srow[0].re),
            }
        }
        self.cols_pass(spec, Direction::Forward, scratch);
    }

    /// [`RealFft2d::inverse_into`] without a separate real buffer: leaves
    /// row `r`'s real samples in the first `nx` `f64`s of `spec`'s row `r`
    /// (the layout [`RealFft2d::forward_in_place`] reads), bit-identical
    /// to `inverse_into`'s output.
    ///
    /// # Panics
    /// Panics if `spec.len() != packed_len()`.
    pub fn inverse_in_place(&self, spec: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        assert_eq!(spec.len(), self.packed_len(), "spectrum buffer shape mismatch");
        self.cols_pass(spec, Direction::Inverse, scratch);
        Self::grow(scratch, self.scratch_len());
        if self.half.is_some() {
            let n2 = self.nx / 2;
            for srow in spec.chunks_exact_mut(self.packed_width()) {
                let z = &mut scratch[..n2];
                self.c2r_z(srow, z);
                srow[..n2].copy_from_slice(z);
            }
        }
    }

    /// Convenience: forward transform of a real field into a freshly
    /// allocated packed spectrum.
    pub fn forward_real(&self, input: &[f64]) -> Vec<Complex64> {
        let mut spec = vec![Complex64::ZERO; self.packed_len()];
        let mut scratch = Vec::new();
        self.forward_into(input, &mut spec, &mut scratch);
        spec
    }

    #[inline]
    fn grow(scratch: &mut Vec<Complex64>, len: usize) {
        if scratch.len() < len {
            scratch.resize(len, Complex64::ZERO);
        }
    }

    /// One real row → packed spectrum row (`nx/2 + 1` bins), via one
    /// half-length complex FFT plus the untangle pass.
    fn r2c_row(&self, row: &[f64], spec_row: &mut [Complex64], scratch: &mut [Complex64]) {
        if self.half.is_none() {
            spec_row[0] = Complex64::from_re(row[0]);
            return;
        }
        let n2 = self.nx / 2;
        let z = &mut scratch[..n2];
        for (k, slot) in z.iter_mut().enumerate() {
            *slot = Complex64::new(row[2 * k], row[2 * k + 1]);
        }
        self.r2c_z(z, spec_row);
    }

    /// The half-length FFT of the row's pairs `z` and the untangle pass
    /// into the packed row (`nx > 1`).
    fn r2c_z(&self, z: &mut [Complex64], spec_row: &mut [Complex64]) {
        let n2 = self.nx / 2;
        self.half.as_ref().expect("nx > 1 has a half-length plan").process(z, Direction::Forward);
        for (k, slot) in spec_row.iter_mut().enumerate() {
            let zk = z[k % n2]; // Z is n/2-periodic: bin n/2 reads Z[0]
            let zc = z[(n2 - k) % n2].conj();
            let ze = (zk + zc).scale(0.5);
            let zo = (zc - zk).scale(0.5).mul_i(); // (zk − zc) / 2j
            *slot = ze + self.twiddles[k] * zo;
        }
    }

    /// One packed spectrum row → real row, inverting
    /// [`RealFft2d::r2c_row`] exactly (the half-length inverse FFT's
    /// `2/nx` and the untangle's `1/2` compose to the row's full `1/nx`).
    fn c2r_row(&self, spec_row: &[Complex64], row: &mut [f64], scratch: &mut [Complex64]) {
        if self.half.is_none() {
            row[0] = spec_row[0].re;
            return;
        }
        let z = &mut scratch[..self.nx / 2];
        self.c2r_z(spec_row, z);
        for (k, &v) in z.iter().enumerate() {
            row[2 * k] = v.re;
            row[2 * k + 1] = v.im;
        }
    }

    /// The untangle pass backwards and the half-length inverse FFT: `z`
    /// ends holding the real row's pairs (`nx > 1`).
    fn c2r_z(&self, spec_row: &[Complex64], z: &mut [Complex64]) {
        let n2 = self.nx / 2;
        for (k, slot) in z.iter_mut().enumerate() {
            let a = spec_row[k];
            let b = spec_row[n2 - k].conj();
            let ze = (a + b).scale(0.5);
            let zo = self.twiddles[k].conj() * (a - b).scale(0.5);
            *slot = ze + zo.mul_i(); // Z[k] = E[k] + j·O[k]
        }
        self.half.as_ref().expect("nx > 1 has a half-length plan").process(z, Direction::Inverse);
    }

    /// Transforms the stored spectrum columns in place. Parallel workers
    /// own strictly disjoint column ranges (same pattern as
    /// [`Fft2d`](crate::Fft2d)'s column pass).
    fn cols_pass(&self, spec: &mut [Complex64], dir: Direction, scratch: &mut Vec<Complex64>) {
        if self.ny == 1 {
            return; // length-1 column DFT is the identity (1/N = 1)
        }
        let hw = self.packed_width();
        let ny = self.ny;
        let fft = &self.col_fft;
        let workers = self.workers.min(hw);
        if workers <= 1 {
            Self::grow(scratch, self.scratch_len());
            let col = &mut scratch[..ny];
            for cx in 0..hw {
                for (iy, slot) in col.iter_mut().enumerate() {
                    *slot = spec[iy * hw + cx];
                }
                fft.process(col, dir);
                for (iy, &v) in col.iter().enumerate() {
                    spec[iy * hw + cx] = v;
                }
            }
            return;
        }
        let ranges = rrs_par::split_range(hw, workers);
        let ptr = SendPtr(spec.as_mut_ptr());
        rrs_par::scope(|s| {
            for &(c0, c1) in &ranges {
                s.spawn(move || {
                    // Rebind the wrapper so the closure captures the Send
                    // wrapper, not its raw-pointer field.
                    #[allow(clippy::redundant_locals)]
                    let ptr = ptr;
                    let buf_ptr = ptr.0;
                    let mut col = vec![Complex64::ZERO; ny];
                    for cx in c0..c1 {
                        // SAFETY: column cx is touched by exactly one
                        // worker (ranges are disjoint) and the scope
                        // outlives every access.
                        unsafe {
                            for (iy, slot) in col.iter_mut().enumerate() {
                                *slot = *buf_ptr.add(iy * hw + cx);
                            }
                        }
                        fft.process(&mut col, dir);
                        unsafe {
                            for (iy, &v) in col.iter().enumerate() {
                                *buf_ptr.add(iy * hw + cx) = v;
                            }
                        }
                    }
                });
            }
        });
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut Complex64);
// SAFETY: workers access strictly disjoint column sets of the pointee.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fft2d;
    use rrs_rng::{RandomSource, Xoshiro256pp};

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    /// The packed bins of the full complex transform of `x`.
    fn packed_reference(x: &[f64], nx: usize, ny: usize) -> Vec<Complex64> {
        let mut wide: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
        Fft2d::with_workers(nx, ny, 1).process(&mut wide, Direction::Forward);
        let hw = nx / 2 + 1;
        let mut packed = Vec::with_capacity(hw * ny);
        for iy in 0..ny {
            packed.extend_from_slice(&wide[iy * nx..iy * nx + hw]);
        }
        packed
    }

    #[test]
    fn forward_matches_complex_transform() {
        for &(nx, ny) in &[
            (1usize, 1usize),
            (1, 8),
            (2, 2),
            (2, 5),
            (4, 4),
            (8, 3),
            (8, 8),
            (16, 4),
            (32, 32),
            (64, 6),
        ] {
            let x = random_real(nx * ny, (nx * 1000 + ny) as u64);
            let got = RealFft2d::new(nx, ny).forward_real(&x);
            let want = packed_reference(&x, nx, ny);
            let err = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9 * (nx * ny) as f64, "shape ({nx},{ny}): err {err}");
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for &(nx, ny) in &[(2usize, 2usize), (4, 7), (8, 8), (16, 16), (32, 5), (1, 9)] {
            let x = random_real(nx * ny, 77 + nx as u64);
            let rfft = RealFft2d::new(nx, ny);
            let mut spec = vec![Complex64::ZERO; rfft.packed_len()];
            let mut scratch = Vec::new();
            rfft.forward_into(&x, &mut spec, &mut scratch);
            let mut out = vec![0.0; nx * ny];
            rfft.inverse_into(&mut spec, &mut out, &mut scratch);
            let err = x.iter().zip(&out).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-10, "shape ({nx},{ny}): err {err}");
        }
    }

    #[test]
    fn in_place_transforms_match_the_buffered_ones_bit_for_bit() {
        for &(nx, ny) in &[(1usize, 1usize), (1, 6), (2, 2), (8, 5), (16, 16), (32, 3)] {
            let rfft = RealFft2d::new(nx, ny);
            let x = random_real(nx * ny, 31 + nx as u64);
            let mut scratch = Vec::new();
            let mut spec = vec![Complex64::ZERO; rfft.packed_len()];
            rfft.forward_into(&x, &mut spec, &mut scratch);

            // The real rows laid into the spectrum rows, 2·packed_width() f64s
            // apart (nx + 2, or 2 when nx = 1).
            let hw = rfft.packed_width();
            let mut inplace = vec![Complex64::new(f64::NAN, f64::NAN); rfft.packed_len()];
            for (row, dst) in x.chunks_exact(nx).zip(inplace.chunks_exact_mut(hw)) {
                rrs_num::complex::as_f64s_mut(dst)[..nx].copy_from_slice(row);
            }
            rfft.forward_in_place(&mut inplace, &mut scratch);
            let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            assert_eq!(bits(&inplace), bits(&spec), "forward {nx}x{ny}");

            let mut back = vec![0.0; nx * ny];
            rfft.inverse_into(&mut spec, &mut back, &mut scratch);
            rfft.inverse_in_place(&mut inplace, &mut scratch);
            let row_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            for (row, src) in back.chunks_exact(nx).zip(inplace.chunks_exact(hw)) {
                let got = &rrs_num::complex::as_f64s(src)[..nx];
                assert_eq!(row_bits(got), row_bits(row), "inverse {nx}x{ny}");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let (nx, ny) = (32, 24);
        let x = random_real(nx * ny, 5);
        let serial = RealFft2d::with_workers(nx, ny, 1).forward_real(&x);
        let parallel = RealFft2d::with_workers(nx, ny, 4).forward_real(&x);
        assert_eq!(serial, parallel);
        let mut s_out = vec![0.0; nx * ny];
        let mut p_out = vec![0.0; nx * ny];
        let mut scratch = Vec::new();
        RealFft2d::with_workers(nx, ny, 1).inverse_into(
            &mut serial.clone(),
            &mut s_out,
            &mut scratch,
        );
        RealFft2d::with_workers(nx, ny, 4).inverse_into(
            &mut parallel.clone(),
            &mut p_out,
            &mut scratch,
        );
        assert_eq!(s_out, p_out);
    }

    #[test]
    fn packed_product_convolves_circularly() {
        // The property the overlap-save engine rests on: multiplying
        // packed spectra and inverting yields the circular convolution.
        let (nx, ny) = (16, 8);
        let a = random_real(nx * ny, 1);
        let b = random_real(nx * ny, 2);
        let rfft = RealFft2d::new(nx, ny);
        let fa = rfft.forward_real(&a);
        let mut fb = rfft.forward_real(&b);
        for (z, w) in fb.iter_mut().zip(&fa) {
            *z = *z * *w;
        }
        let mut got = vec![0.0; nx * ny];
        rfft.inverse_into(&mut fb, &mut got, &mut Vec::new());
        for oy in 0..ny {
            for ox in 0..nx {
                let mut want = 0.0;
                for jy in 0..ny {
                    for jx in 0..nx {
                        want += a[jy * nx + jx]
                            * b[((oy + ny - jy) % ny) * nx + (ox + nx - jx) % nx];
                    }
                }
                assert!(
                    (got[oy * nx + ox] - want).abs() < 1e-9,
                    "({ox},{oy}): {} vs {want}",
                    got[oy * nx + ox]
                );
            }
        }
    }

    #[test]
    fn scratch_is_reused_not_reallocated() {
        let rfft = RealFft2d::new(16, 16);
        let x = random_real(256, 3);
        let mut spec = vec![Complex64::ZERO; rfft.packed_len()];
        let mut scratch = Vec::new();
        rfft.forward_into(&x, &mut spec, &mut scratch);
        let ptr = scratch.as_ptr();
        let cap = scratch.capacity();
        let mut out = vec![0.0; 256];
        rfft.inverse_into(&mut spec, &mut out, &mut scratch);
        rfft.forward_into(&x, &mut spec, &mut scratch);
        assert_eq!(scratch.as_ptr(), ptr, "steady-state scratch must not reallocate");
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "1 or even")]
    fn odd_width_rejected() {
        RealFft2d::new(3, 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_spectrum_length_panics() {
        let rfft = RealFft2d::new(4, 4);
        let mut spec = vec![Complex64::ZERO; 3];
        rfft.forward_into(&[0.0; 16], &mut spec, &mut Vec::new());
    }
}
