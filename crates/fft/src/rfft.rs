//! Real-input 2-D FFT via the half-size complex trick, batched across
//! [`LANES`] rows or columns at a time.
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
//! Hermitian), which is exactly what convolution needs. The transforms
//! run in place: each packed row has `2·(nx/2 + 1)` `f64`s of room
//! (`nx + 2`, or 2 when `nx = 1`), so the real row sits in its first `nx`
//! (exactly the `z[k]` pairs the half-size trick transforms).
//!
//! Both entry points, [`RealFft2d::forward_in_place`] and
//! [`RealFft2d::convolve_in_place`], run an AVX2-compiled copy of their
//! body when the CPU has AVX2 (detected at run time) and the portable
//! copy otherwise. The two copies are the same code: each lane gets the
//! same IEEE operations in the same order, Rust never fuses a multiply
//! and an add, and 4-wide AVX2 arithmetic rounds exactly like 2-wide
//! SSE2, so both give the same bits ([`tile_path`] names the one in use).
//!
//! Every 1-D transform runs through [`FftPlan::butterflies_lanes`]:
//! [`LANES`] rows (or columns) are gathered into split-complex lane planes
//! through the bit reversal, transformed together, and stored back, the
//! inverse's `1/n` applied on the store. [`RealFft2d::convolve_in_place`]
//! does a whole overlap-save tile in one call — forward rows, then per
//! block of `LANES` columns the forward transform, the kernel multiply and
//! the inverse transform while the block is still in the lane planes, then
//! inverse rows for only the rows the caller keeps. Each element gets
//! exactly the operations of the scalar row and column transforms, so the
//! result is bit-identical to them.
//!
//! Normalisation matches [`Fft2d`](crate::Fft2d): the forward transform
//! is the unnormalised DFT restricted to the stored bins, and the
//! convolution's inverse carries the `1/(nx·ny)` factor (split between the
//! half-length inverse FFT and the column pass).

use crate::plan::{lane_planes, FftPlan, Lane, LANES};
use crate::Direction;
use rrs_num::Complex64;
use std::ops::Range;

/// Which copy of the batched transforms — these tiles and the lane passes
/// of [`Fft2d`](crate::Fft2d) — this CPU runs: `"avx2"` (the same code
/// compiled for AVX2, picked at run time) or `"portable"`. Both give the
/// same bits.
pub fn tile_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// A prepared real-input 2-D transform of shape `(nx, ny)`, row-major,
/// with power-of-two sides.
///
/// Transforms are allocation-free given a caller scratch vector, so
/// per-worker arenas can run tiles with zero per-tile allocation.
pub struct RealFft2d {
    nx: usize,
    ny: usize,
    /// The `nx/2`-point plan behind the half-size trick (length 1, and
    /// unused, when `nx = 1`: the r2c of one sample is itself).
    half: FftPlan,
    cols: FftPlan,
    /// `Wᵏ = e^{-j2πk/nx}` for `k = 0 ..= nx/2`.
    twiddles: Vec<Complex64>,
}

impl RealFft2d {
    /// Builds the transform for an `nx × ny` field.
    ///
    /// # Panics
    /// Panics unless both sides are powers of two.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(
            nx.is_power_of_two() && ny.is_power_of_two(),
            "RealFft2d sides must be powers of two, got {nx}x{ny}"
        );
        let twiddles = (0..=nx / 2)
            .map(|k| Complex64::cis(-core::f64::consts::TAU * k as f64 / nx as f64))
            .collect();
        Self { nx, ny, half: FftPlan::new((nx / 2).max(1)), cols: FftPlan::new(ny), twiddles }
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

    /// Scratch capacity, in [`Lane`]s, the transforms need: one
    /// split-complex lane buffer, a real and an imaginary plane of
    /// `max(nx/2, ny) + 1` lanes (`2·LANES·(max(nx/2, ny) + 1)` `f64`s;
    /// each plane is one lane longer than the longest transform so the
    /// two do not share L1 cache sets). The scratch vector handed to the
    /// transforms is grown to this once and then reused.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        2 * (self.longest() + 1)
    }

    /// The longest 1-D transform a tile runs: `max(nx/2, ny)`.
    #[inline]
    fn longest(&self) -> usize {
        (self.nx / 2).max(self.ny)
    }

    /// Forward-transforms in place: on entry row `r` of `spec`, viewed as
    /// `f64`s through [`rrs_num::complex::as_f64s_mut`], holds the real row
    /// in its first `nx` values (the rest of the row is ignored); on exit
    /// `spec` holds the packed spectrum, the unnormalised DFT on the stored
    /// bins. `scratch` is grown at most once and reused.
    ///
    /// # Panics
    /// Panics if `spec.len() != packed_len()`.
    pub fn forward_in_place(&self, spec: &mut [Complex64], scratch: &mut Vec<Lane>) {
        assert_eq!(spec.len(), self.packed_len(), "spectrum buffer shape mismatch");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.forward_avx2(spec, scratch) };
        }
        self.forward_portable(spec, scratch);
    }

    /// [`RealFft2d::forward_in_place`]'s body, compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_avx2(&self, spec: &mut [Complex64], scratch: &mut Vec<Lane>) {
        self.forward_portable(spec, scratch);
    }

    /// [`RealFft2d::forward_in_place`]'s body, which both copies compile.
    #[inline(always)]
    fn forward_portable(&self, spec: &mut [Complex64], scratch: &mut Vec<Lane>) {
        let (re, im) = lane_planes(scratch, self.longest());
        self.forward_rows(spec, re, im);
        for c0 in (0..self.packed_width()).step_by(LANES) {
            self.column_block(spec, c0, None, re, im);
        }
    }

    /// Circular convolution of one tile, in place: forward-transforms the
    /// real rows laid out as for [`RealFft2d::forward_in_place`],
    /// multiplies by the packed spectrum `kspec`, and inverts — leaving
    /// the real samples of each packed row in `rows` in that row's first
    /// `nx` `f64`s, bit-identical to the scalar forward transform, packed
    /// multiply and inverse transform in sequence. Rows outside `rows` are
    /// left holding spectrum data: overlap-save keeps only its valid rows,
    /// so the others are never inverted.
    ///
    /// # Panics
    /// Panics if `spec` or `kspec` is not `packed_len()` long, or `rows`
    /// reaches past `ny`.
    pub fn convolve_in_place(
        &self,
        spec: &mut [Complex64],
        kspec: &[Complex64],
        rows: Range<usize>,
        scratch: &mut Vec<Lane>,
    ) {
        assert_eq!(spec.len(), self.packed_len(), "spectrum buffer shape mismatch");
        assert_eq!(kspec.len(), self.packed_len(), "kernel spectrum shape mismatch");
        assert!(rows.end <= self.ny, "rows {rows:?} reach past the {} tile rows", self.ny);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.convolve_avx2(spec, kspec, rows, scratch) };
        }
        self.convolve_portable(spec, kspec, rows, scratch);
    }

    /// [`RealFft2d::convolve_in_place`]'s body, compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn convolve_avx2(
        &self,
        spec: &mut [Complex64],
        kspec: &[Complex64],
        rows: Range<usize>,
        scratch: &mut Vec<Lane>,
    ) {
        self.convolve_portable(spec, kspec, rows, scratch);
    }

    /// [`RealFft2d::convolve_in_place`]'s body, which both copies compile.
    #[inline(always)]
    fn convolve_portable(
        &self,
        spec: &mut [Complex64],
        kspec: &[Complex64],
        rows: Range<usize>,
        scratch: &mut Vec<Lane>,
    ) {
        let (re, im) = lane_planes(scratch, self.longest());
        self.forward_rows(spec, re, im);
        for c0 in (0..self.packed_width()).step_by(LANES) {
            self.column_block(spec, c0, Some(kspec), re, im);
        }
        let hw = self.packed_width();
        self.inverse_rows(&mut spec[rows.start * hw..rows.end * hw], re, im);
    }

    /// Real rows → packed spectrum rows, `LANES` rows per half-length
    /// transform, then the untangle pass into each packed row.
    #[inline(always)]
    fn forward_rows(&self, spec: &mut [Complex64], re: &mut [Lane], im: &mut [Lane]) {
        let (hw, n2) = (self.packed_width(), self.nx / 2);
        if n2 == 0 {
            // nx = 1: the r2c of one real sample is that sample.
            for z in spec.iter_mut() {
                *z = Complex64::from_re(z.re);
            }
            return;
        }
        let (re, im) = (&mut re[..n2], &mut im[..n2]);
        for block in spec.chunks_mut(LANES * hw) {
            // The real samples are already the `z[k] = x[2k] + j·x[2k+1]`
            // pairs the half-size trick transforms.
            for (c, row) in block.chunks_exact(hw).enumerate() {
                for (i, z) in row[..n2].iter().enumerate() {
                    let r = self.half.bit_reversed(i);
                    re[r][c] = z.re;
                    im[r][c] = z.im;
                }
            }
            self.half.butterflies_lanes(re, im, Direction::Forward);
            // Every lane's bin k at once, then one store per row.
            let rows = block.len() / hw;
            for (k, &w) in self.twiddles.iter().enumerate() {
                // Z is n/2-periodic: bin n/2 reads Z[0].
                let (j, m) = (k % n2, (n2 - k) % n2);
                let mut x = [Complex64::ZERO; LANES];
                for (c, slot) in x.iter_mut().enumerate() {
                    let zk = Complex64::new(re[j][c], im[j][c]);
                    let zc = Complex64::new(re[m][c], im[m][c]).conj();
                    let ze = (zk + zc).scale(0.5);
                    let zo = (zc - zk).scale(0.5).mul_i(); // (zk − zc) / 2j
                    *slot = ze + w * zo;
                }
                for (c, &v) in x[..rows].iter().enumerate() {
                    block[c * hw + k] = v;
                }
            }
        }
    }

    /// Packed spectrum rows → real rows, inverting
    /// [`RealFft2d::forward_rows`] exactly: the untangle backwards, then
    /// `LANES` half-length inverse transforms at once (their `2/nx` and
    /// the untangle's `1/2` compose to the row's full `1/nx`).
    #[inline(always)]
    fn inverse_rows(&self, spec: &mut [Complex64], re: &mut [Lane], im: &mut [Lane]) {
        let (hw, n2) = (self.packed_width(), self.nx / 2);
        if n2 == 0 {
            return; // nx = 1: the real sample is bin 0's real part, in place.
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
                    let z = ze + zo.mul_i(); // Z[k] = E[k] + j·O[k]
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

    /// The columns `[c0, c0 + LANES)` (clipped to the packed width) in one
    /// lane block: gathered bit-reversed, forward-transformed, and then
    /// either stored (`kspec = None`) or multiplied by the kernel spectrum
    /// into bit-reversed order, inverse-transformed and stored with the
    /// column's `1/ny`.
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
        // The products trade places pairwise, {iy, bitrev(iy)}, into the
        // bit-reversed order the inverse transform reads.
        for iy in 0..ny {
            let r = self.cols.bit_reversed(iy);
            if r < iy {
                continue; // moved with its partner
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
    use crate::{Fft, Fft2d};
    use rrs_num::complex::{as_f64s, as_f64s_mut};
    use rrs_rng::{RandomSource, Xoshiro256pp};

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    /// The real rows of `x` laid into a packed buffer, `2·packed_width()`
    /// `f64`s apart, with NaN in the unused tail of each row.
    fn laid_out(rfft: &RealFft2d, x: &[f64]) -> Vec<Complex64> {
        let (nx, _) = rfft.shape();
        let mut spec = vec![Complex64::new(f64::NAN, f64::NAN); rfft.packed_len()];
        for (row, dst) in x.chunks_exact(nx).zip(spec.chunks_exact_mut(rfft.packed_width())) {
            as_f64s_mut(dst)[..nx].copy_from_slice(row);
        }
        spec
    }

    fn forward(rfft: &RealFft2d, x: &[f64]) -> Vec<Complex64> {
        let mut spec = laid_out(rfft, x);
        rfft.forward_in_place(&mut spec, &mut Vec::new());
        spec
    }

    /// The real rows `rows` of a convolved buffer.
    fn real_rows(rfft: &RealFft2d, spec: &[Complex64], rows: Range<usize>) -> Vec<f64> {
        let (nx, _) = rfft.shape();
        let hw = rfft.packed_width();
        rows.flat_map(|r| as_f64s(&spec[r * hw..(r + 1) * hw])[..nx].to_vec()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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

    /// A scalar copy of the transforms the batched path replaced: one row
    /// or column at a time through [`Fft::process`], in the order
    /// forward rows, forward columns, packed multiply, inverse columns,
    /// inverse rows. The oracle the batched path must match bit for bit.
    mod scalar {
        use super::*;

        pub fn convolve(nx: usize, ny: usize, spec: &mut [Complex64], kspec: &[Complex64]) {
            let hw = nx / 2 + 1;
            let n2 = nx / 2;
            let half = Fft::new(n2.max(1));
            let col = Fft::new(ny);
            let tw: Vec<Complex64> = (0..=n2)
                .map(|k| Complex64::cis(-core::f64::consts::TAU * k as f64 / nx as f64))
                .collect();
            for srow in spec.chunks_exact_mut(hw) {
                if n2 == 0 {
                    srow[0] = Complex64::from_re(srow[0].re);
                    continue;
                }
                let mut z = srow[..n2].to_vec();
                half.process(&mut z, Direction::Forward);
                for (k, slot) in srow.iter_mut().enumerate() {
                    let zk = z[k % n2];
                    let zc = z[(n2 - k) % n2].conj();
                    let ze = (zk + zc).scale(0.5);
                    let zo = (zc - zk).scale(0.5).mul_i();
                    *slot = ze + tw[k] * zo;
                }
            }
            cols(&col, hw, ny, spec, Direction::Forward);
            for (z, k) in spec.iter_mut().zip(kspec) {
                *z *= *k;
            }
            cols(&col, hw, ny, spec, Direction::Inverse);
            if n2 == 0 {
                return;
            }
            for srow in spec.chunks_exact_mut(hw) {
                let mut z: Vec<Complex64> = (0..n2)
                    .map(|k| {
                        let a = srow[k];
                        let b = srow[n2 - k].conj();
                        let ze = (a + b).scale(0.5);
                        let zo = tw[k].conj() * (a - b).scale(0.5);
                        ze + zo.mul_i()
                    })
                    .collect();
                half.process(&mut z, Direction::Inverse);
                srow[..n2].copy_from_slice(&z);
            }
        }

        fn cols(fft: &Fft, hw: usize, ny: usize, spec: &mut [Complex64], dir: Direction) {
            if ny == 1 {
                return;
            }
            for cx in 0..hw {
                let mut col: Vec<Complex64> = (0..ny).map(|iy| spec[iy * hw + cx]).collect();
                fft.process(&mut col, dir);
                for (iy, v) in col.into_iter().enumerate() {
                    spec[iy * hw + cx] = v;
                }
            }
        }
    }

    /// Edge shapes, then the tile shapes the workloads run.
    fn test_shapes() -> impl Iterator<Item = (usize, usize)> {
        let small = [1usize, 2, 4, 64];
        let edges = small.into_iter().flat_map(|nx| [1usize, 2, 8, 64].map(|ny| (nx, ny)));
        edges.chain([(32, 32), (128, 256), (256, 128), (256, 256), (512, 512)])
    }

    /// A random tile of `rfft`'s shape and a random kernel's spectrum.
    fn tile_and_kernel(rfft: &RealFft2d) -> (Vec<f64>, Vec<Complex64>) {
        let (nx, ny) = rfft.shape();
        let seed = (nx * 1000 + ny) as u64;
        (random_real(nx * ny, seed), forward(rfft, &random_real(nx * ny, seed + 1)))
    }

    #[test]
    fn convolve_matches_the_scalar_transforms_bit_for_bit() {
        for (nx, ny) in test_shapes() {
            let rfft = RealFft2d::new(nx, ny);
            let (x, kspec) = tile_and_kernel(&rfft);
            let mut want = laid_out(&rfft, &x);
            scalar::convolve(nx, ny, &mut want, &kspec);
            // Every row, then a middle band the way overlap-save asks.
            for rows in [0..ny, ny / 4..ny - ny / 4] {
                let mut got = laid_out(&rfft, &x);
                rfft.convolve_in_place(&mut got, &kspec, rows.clone(), &mut Vec::new());
                assert_eq!(
                    bits(&real_rows(&rfft, &got, rows.clone())),
                    bits(&real_rows(&rfft, &want, rows.clone())),
                    "{nx}x{ny}, rows {rows:?}"
                );
            }
        }
    }

    #[test]
    fn the_portable_copy_matches_the_dispatched_one_bit_for_bit() {
        // On an AVX2 host the public entry points run the AVX2 copy; the
        // portable body is what every other CPU runs.
        let spectrum_bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (nx, ny) in test_shapes() {
            let rfft = RealFft2d::new(nx, ny);
            let (x, kspec) = tile_and_kernel(&rfft);
            let mut portable = laid_out(&rfft, &x);
            rfft.forward_portable(&mut portable, &mut Vec::new());
            let dispatched = forward(&rfft, &x);
            assert_eq!(spectrum_bits(&portable), spectrum_bits(&dispatched), "{nx}x{ny}");
            let rows = ny / 4..ny - ny / 4;
            let mut portable = laid_out(&rfft, &x);
            rfft.convolve_portable(&mut portable, &kspec, rows.clone(), &mut Vec::new());
            let mut dispatched = laid_out(&rfft, &x);
            rfft.convolve_in_place(&mut dispatched, &kspec, rows.clone(), &mut Vec::new());
            assert_eq!(
                bits(&real_rows(&rfft, &portable, rows.clone())),
                bits(&real_rows(&rfft, &dispatched, rows)),
                "{nx}x{ny}"
            );
        }
    }

    #[test]
    fn forward_matches_complex_transform() {
        for &(nx, ny) in &[
            (1usize, 1usize),
            (1, 8),
            (2, 2),
            (2, 4),
            (4, 4),
            (8, 2),
            (8, 8),
            (16, 4),
            (32, 32),
            (64, 16),
        ] {
            let x = random_real(nx * ny, (nx * 1000 + ny) as u64);
            let got = forward(&RealFft2d::new(nx, ny), &x);
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
        // Convolving with a unit impulse (an all-ones spectrum) inverts
        // the forward transform.
        for &(nx, ny) in &[(2usize, 2usize), (4, 8), (8, 8), (16, 16), (32, 4), (1, 16)] {
            let x = random_real(nx * ny, 77 + nx as u64);
            let rfft = RealFft2d::new(nx, ny);
            let ones = vec![Complex64::ONE; rfft.packed_len()];
            let mut spec = laid_out(&rfft, &x);
            rfft.convolve_in_place(&mut spec, &ones, 0..ny, &mut Vec::new());
            let back = real_rows(&rfft, &spec, 0..ny);
            let err = x.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-10, "shape ({nx},{ny}): err {err}");
        }
    }

    #[test]
    fn packed_product_convolves_circularly() {
        // The property the overlap-save engine rests on: multiplying
        // packed spectra and inverting yields the circular convolution.
        let (nx, ny) = (16, 8);
        let a = random_real(nx * ny, 1);
        let b = random_real(nx * ny, 2);
        let rfft = RealFft2d::new(nx, ny);
        let fa = forward(&rfft, &a);
        let mut spec = laid_out(&rfft, &b);
        rfft.convolve_in_place(&mut spec, &fa, 0..ny, &mut Vec::new());
        let got = real_rows(&rfft, &spec, 0..ny);
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
        let kspec = forward(&rfft, &x);
        let mut scratch = Vec::new();
        let mut spec = laid_out(&rfft, &x);
        rfft.convolve_in_place(&mut spec, &kspec, 0..16, &mut scratch);
        assert_eq!(scratch.len(), rfft.scratch_len());
        let ptr = scratch.as_ptr();
        let cap = scratch.capacity();
        let mut spec = laid_out(&rfft, &x);
        rfft.forward_in_place(&mut spec, &mut scratch);
        rfft.convolve_in_place(&mut laid_out(&rfft, &x), &kspec, 2..5, &mut scratch);
        assert_eq!(scratch.as_ptr(), ptr, "steady-state scratch must not reallocate");
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn odd_width_rejected() {
        RealFft2d::new(3, 4);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_height_rejected() {
        RealFft2d::new(4, 6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_spectrum_length_panics() {
        let rfft = RealFft2d::new(4, 4);
        let mut spec = vec![Complex64::ZERO; 3];
        rfft.forward_in_place(&mut spec, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "reach past")]
    fn rows_past_the_tile_are_rejected() {
        let rfft = RealFft2d::new(4, 4);
        let mut spec = vec![Complex64::ZERO; rfft.packed_len()];
        let kspec = spec.clone();
        rfft.convolve_in_place(&mut spec, &kspec, 2..5, &mut Vec::new());
    }
}
