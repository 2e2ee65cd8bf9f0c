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
//! Pointwise products of two packed spectra stay packed (products of
//! Hermitian spectra are Hermitian), which is exactly what convolution
//! needs. A tile ([`RealFft2d::convolve`]) runs in a [`TileWorkspace`]:
//!
//! * **forward rows** — the real rows are read straight from the
//!   caller's pitched slice ([`RealTile`], zero past its edges),
//!   [`LANES`] at a time and position-major (sample pair `i` of every row
//!   fills one lane row), transformed together, untangled, and stored
//!   into the workspace's packed row-major spectrum, `ny` rows of
//!   `nx/2 + 1` bins;
//! * **column blocks** — per block of [`LANES`] packed columns, gathered
//!   at a fixed width, the forward transform, the kernel multiply (the
//!   products formed in order, then swapped pairwise into the
//!   bit-reversed order the inverse reads), the inverse transform, and a
//!   store of only the rows the caller keeps;
//! * **inverse rows** — those rows untangled backwards a row at a time,
//!   inverted [`LANES`] at a time and stored in place, each handed to the
//!   caller.
//!
//! The kernel spectrum is a [`Spectrum`] in **column-block layout**, the
//! way the column blocks read it: per block of [`LANES`] packed columns,
//! `ny` lanes of real parts and `ny` lanes of imaginary parts, so the
//! multiply reads both operands as whole lanes. [`RealFft2d::forward`]
//! makes it, storing the rows' bins straight into the blocks and
//! transforming each block in place.
//!
//! **No empty column lanes.** The `(nx/2 + 1) mod LANES` packed columns
//! past the last full block (for `nx ≥ 16`, the Nyquist column alone) are
//! transformed one sequence at a time, not as a [`LANES`]-wide block. A
//! partial block of rows still runs [`LANES`] wide: one row alone
//! measured no cheaper than a whole block (3% dearer on a 32² tile).
//!
//! Every element gets exactly the operations of the scalar row and column
//! transforms — same twiddles, same products and sums in the same order,
//! the same `0.5`, `1/ny` and `1/(nx/2)` scalings — and Rust never fuses
//! a multiply and an add, so which element is computed when, and in how
//! wide a block, cannot change what is computed: the result is
//! bit-identical to the scalar transforms.
//!
//! Both entry points run an AVX2-compiled copy of their body when the CPU
//! has AVX2 (detected at run time) and the portable copy otherwise. The
//! two copies are the same code, and 4-wide AVX2 arithmetic rounds
//! exactly like 2-wide SSE2, so both give the same bits ([`tile_path`]
//! names the one in use).
//!
//! Normalisation matches [`Fft2d`](crate::Fft2d): the forward transform
//! is the unnormalised DFT restricted to the stored bins, and the
//! convolution's inverse carries the `1/(nx·ny)` factor (split between the
//! column pass and the half-length inverse FFT).

use crate::plan::{gather_lanes, one_wide, split_planes, FftPlan, Lane, LaneBuf, LANES};
use crate::Direction;
use rrs_num::complex::as_f64s;
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

/// A real tile's samples, read in place from a pitched slice: sample
/// `(x, y)` is `data[y·pitch + x]` for `x < width` and `y < height`, and
/// zero elsewhere in the transform's `nx × ny` lattice.
#[derive(Clone, Copy, Debug)]
pub struct RealTile<'a> {
    /// The samples, rows `pitch` apart.
    pub data: &'a [f64],
    /// Distance between rows, in `f64`s.
    pub pitch: usize,
    /// Samples per row read from `data` (clipped to `nx`).
    pub width: usize,
    /// Rows read from `data` (clipped to `ny`).
    pub height: usize,
}

/// A packed spectrum of an `nx × ny` real field in column-block layout
/// (see the [module docs](self)), made by [`RealFft2d::forward`].
#[derive(Clone, Debug)]
pub struct Spectrum {
    nx: usize,
    ny: usize,
    /// The full blocks of [`LANES`] packed columns, `2·ny` lanes each:
    /// real parts in `[0, ny)`, imaginary parts in `[ny, 2·ny)`.
    blocks: Vec<Lane>,
    /// The columns past the last full block, one sequence wide, laid out
    /// as the blocks are.
    tail: Vec<[f64; 1]>,
}

impl Spectrum {
    /// Full [`LANES`]-wide column blocks.
    #[inline]
    fn full_blocks(&self) -> usize {
        (self.nx / 2 + 1) / LANES
    }

    /// The real and imaginary planes of full block `b`.
    #[inline(always)]
    fn block(&self, b: usize) -> (&[Lane], &[Lane]) {
        self.blocks[2 * b * self.ny..2 * (b + 1) * self.ny].split_at(self.ny)
    }

    #[inline(always)]
    fn block_mut(&mut self, b: usize) -> (&mut [Lane], &mut [Lane]) {
        self.blocks[2 * b * self.ny..2 * (b + 1) * self.ny].split_at_mut(self.ny)
    }

    /// The real and imaginary planes of tail column `t`.
    #[inline(always)]
    fn tail(&self, t: usize) -> (&[[f64; 1]], &[[f64; 1]]) {
        self.tail[2 * t * self.ny..2 * (t + 1) * self.ny].split_at(self.ny)
    }

    #[inline(always)]
    fn tail_mut(&mut self, t: usize) -> (&mut [[f64; 1]], &mut [[f64; 1]]) {
        self.tail[2 * t * self.ny..2 * (t + 1) * self.ny].split_at_mut(self.ny)
    }

    /// Stores `x[c]` as bin `(k, y0 + c)` for each `c`.
    #[inline(always)]
    fn set_column(&mut self, k: usize, y0: usize, x: &[Complex64]) {
        let (b, l) = (k / LANES, k % LANES);
        if b < self.full_blocks() {
            let (re, im) = self.block_mut(b);
            for (c, z) in x.iter().enumerate() {
                (re[y0 + c][l], im[y0 + c][l]) = (z.re, z.im);
            }
        } else {
            let (re, im) = self.tail_mut(k - self.full_blocks() * LANES);
            for (c, z) in x.iter().enumerate() {
                (re[y0 + c][0], im[y0 + c][0]) = (z.re, z.im);
            }
        }
    }

    /// Bin `(kx, ky)`, `kx ≤ nx/2`.
    pub fn bin(&self, kx: usize, ky: usize) -> Complex64 {
        assert!(kx <= self.nx / 2 && ky < self.ny, "bin ({kx}, {ky}) is not stored");
        let (b, l) = (kx / LANES, kx % LANES);
        if b < self.full_blocks() {
            let (re, im) = self.block(b);
            Complex64::new(re[ky][l], im[ky][l])
        } else {
            let (re, im) = self.tail(kx - self.full_blocks() * LANES);
            Complex64::new(re[ky][0], im[ky][0])
        }
    }

    /// `f64`s this spectrum holds: `2·(nx/2 + 1)·ny`, as many as a packed
    /// row-major one.
    pub fn samples(&self) -> usize {
        self.blocks.len() * LANES + self.tail.len()
    }
}

/// One tile's working set, made by [`RealFft2d::workspace`] and reused
/// across tiles: the packed row-major spectrum between the row and column
/// passes (`nx/2 + 1` bins a row, the kept rows' real outputs in place of
/// their first `nx/2`), and a real and an imaginary lane plane of
/// `max(nx/2, ny) + 1` [`Lane`]s, one lane longer than the longest
/// transform so the two do not share L1 cache sets.
#[derive(Debug)]
pub struct TileWorkspace {
    nx: usize,
    ny: usize,
    packed: Vec<Complex64>,
    lanes: LaneBuf,
}

impl TileWorkspace {
    /// `f64`s this workspace holds: `2·(nx/2 + 1)·ny` of packed spectrum
    /// and `2·LANES·(max(nx/2, ny) + 1)` of lane planes.
    pub fn samples(&self) -> usize {
        2 * self.packed.len() + self.lanes.samples()
    }
}

/// A prepared real-input 2-D transform of shape `(nx, ny)`, row-major,
/// with power-of-two sides.
///
/// Transforms are allocation-free given a caller [`TileWorkspace`], so
/// per-worker arenas run tiles with zero per-tile allocation.
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

    /// The longest 1-D transform a tile runs: `max(nx/2, ny)`.
    #[inline]
    fn longest(&self) -> usize {
        (self.nx / 2).max(self.ny)
    }

    /// A workspace for this shape's tiles.
    pub fn workspace(&self) -> TileWorkspace {
        TileWorkspace {
            nx: self.nx,
            ny: self.ny,
            packed: vec![Complex64::ZERO; self.packed_width() * self.ny],
            lanes: LaneBuf::zeroed(2 * (self.longest() + 1)),
        }
    }

    /// The spectrum of the real tile `input`: the unnormalised DFT on the
    /// stored bins (read one with [`Spectrum::bin`]). The kernel spectra
    /// [`RealFft2d::convolve`] multiplies by are made this way. The rows
    /// are stored straight into the spectrum's blocks and each block is
    /// transformed in place, so besides the spectrum this allocates only
    /// lane planes.
    ///
    /// # Panics
    /// Panics if `input` is shorter than its rows.
    pub fn forward(&self, input: RealTile<'_>) -> Spectrum {
        self.check(&input);
        let (hw, ny) = (self.packed_width(), self.ny);
        let mut spec = Spectrum {
            nx: self.nx,
            ny,
            blocks: vec![[0.0; LANES]; hw / LANES * 2 * ny],
            tail: vec![[0.0]; hw % LANES * 2 * ny],
        };
        let mut lanes = vec![[0.0; LANES]; 2 * (self.nx / 2 + 1)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            unsafe { self.forward_avx2(input, &mut spec, &mut lanes) };
            return spec;
        }
        self.forward_portable(input, &mut spec, &mut lanes);
        spec
    }

    /// [`RealFft2d::forward`]'s body, compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_avx2(&self, input: RealTile<'_>, spec: &mut Spectrum, lanes: &mut [Lane]) {
        self.forward_portable(input, spec, lanes);
    }

    /// [`RealFft2d::forward`]'s body, which both copies compile: the rows'
    /// bins stored into the blocks in natural row order, then each block
    /// put into bit-reversed order and transformed in place.
    #[inline(always)]
    fn forward_portable(&self, input: RealTile<'_>, spec: &mut Spectrum, lanes: &mut [Lane]) {
        self.forward_rows(&input, lanes, |k, y0, x| spec.set_column(k, y0, x));
        for b in 0..spec.full_blocks() {
            let (re, im) = spec.block_mut(b);
            self.forward_columns(re, im);
        }
        for t in 0..self.packed_width() % LANES {
            let (re, im) = spec.tail_mut(t);
            self.forward_columns(re, im);
        }
    }

    /// One block of packed columns in natural row order through the
    /// forward column transform, in place.
    #[inline(always)]
    fn forward_columns<const W: usize>(&self, re: &mut [[f64; W]], im: &mut [[f64; W]]) {
        for iy in 0..self.ny {
            let r = self.cols.bit_reversed(iy);
            if iy < r {
                re.swap(iy, r);
                im.swap(iy, r);
            }
        }
        self.cols.butterflies_lanes(re, im, Direction::Forward);
    }

    /// Circular convolution of one tile: forward-transforms `input`,
    /// multiplies by the kernel spectrum `kspec` (made by
    /// [`RealFft2d::forward`]) and inverts, handing each row `y` in `rows`
    /// to `emit(y, samples)` with its `nx` real samples, bit-identical to
    /// the scalar forward transform, packed multiply and inverse transform
    /// in sequence. Rows outside `rows` are never inverted: overlap-save
    /// keeps only its valid rows.
    ///
    /// # Panics
    /// Panics if `kspec` or `work` was made for another shape, `input` is
    /// shorter than its rows, or `rows` reaches past `ny`.
    pub fn convolve(
        &self,
        input: RealTile<'_>,
        kspec: &Spectrum,
        rows: Range<usize>,
        work: &mut TileWorkspace,
        emit: &mut dyn FnMut(usize, &[f64]),
    ) {
        self.check(&input);
        assert_eq!((work.nx, work.ny), (self.nx, self.ny), "workspace shape mismatch");
        assert_eq!((kspec.nx, kspec.ny), (self.nx, self.ny), "kernel spectrum shape mismatch");
        assert!(rows.end <= self.ny, "rows {rows:?} reach past the {} tile rows", self.ny);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.convolve_avx2(input, kspec, rows, work, emit) };
        }
        self.convolve_portable(input, kspec, rows, work, emit);
    }

    fn check(&self, input: &RealTile<'_>) {
        let (w, h) = (input.width.min(self.nx), input.height.min(self.ny));
        assert!(
            w == 0 || h == 0 || (w <= input.pitch && input.data.len() >= (h - 1) * input.pitch + w),
            "input rows reach past their data"
        );
    }

    /// [`RealFft2d::convolve`]'s body, compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn convolve_avx2(
        &self,
        input: RealTile<'_>,
        kspec: &Spectrum,
        rows: Range<usize>,
        work: &mut TileWorkspace,
        emit: &mut dyn FnMut(usize, &[f64]),
    ) {
        self.convolve_portable(input, kspec, rows, work, emit);
    }

    /// [`RealFft2d::convolve`]'s body, which both copies compile.
    #[inline(always)]
    fn convolve_portable(
        &self,
        input: RealTile<'_>,
        kspec: &Spectrum,
        rows: Range<usize>,
        work: &mut TileWorkspace,
        emit: &mut dyn FnMut(usize, &[f64]),
    ) {
        let (packed, lanes) = (&mut work.packed, work.lanes.lanes_mut());
        let hw = self.packed_width();
        self.forward_rows(&input, lanes, |k, y0, x| {
            for (c, &v) in x.iter().enumerate() {
                packed[(y0 + c) * hw + k] = v;
            }
        });
        for b in 0..kspec.full_blocks() {
            let (re, im) = split_planes(lanes, self.ny);
            self.column_block(packed, b * LANES, kspec.block(b), rows.clone(), re, im);
        }
        for t in 0..self.packed_width() % LANES {
            let (re, im) = split_planes(one_wide(lanes), self.ny);
            let c = kspec.full_blocks() * LANES + t;
            self.column_block(packed, c, kspec.tail(t), rows.clone(), re, im);
        }
        self.inverse_rows(rows, work, emit);
    }

    /// Real rows → their packed bins, [`LANES`] rows per half-length
    /// transform (fewer only when `ny` is), then the untangle pass, which
    /// hands bin `k` of rows `y0..` to `put(k, y0, bins)`.
    #[inline(always)]
    fn forward_rows(
        &self,
        input: &RealTile<'_>,
        lanes: &mut [Lane],
        mut put: impl FnMut(usize, usize, &[Complex64]),
    ) {
        let (ny, n2) = (self.ny, self.nx / 2);
        let (w, h) = (input.width.min(self.nx), input.height.min(ny));
        if n2 == 0 {
            // nx = 1: the r2c of one real sample is that sample.
            for y in 0..ny {
                let x = if y < h && w > 0 { input.data[y * input.pitch] } else { 0.0 };
                put(0, y, &[Complex64::from_re(x)]);
            }
            return;
        }
        let (re, im) = split_planes(lanes, n2);
        for y0 in (0..ny).step_by(LANES) {
            self.forward_block(input, y0, (ny - y0).min(LANES), re, im, &mut put);
        }
    }

    /// Rows `y0..y0 + count` (`count ≤ LANES`) of `input` through the
    /// half-length transform and the untangle, each bin handed to `put`.
    #[inline(always)]
    fn forward_block(
        &self,
        input: &RealTile<'_>,
        y0: usize,
        count: usize,
        re: &mut [Lane],
        im: &mut [Lane],
        put: &mut impl FnMut(usize, usize, &[Complex64]),
    ) {
        let n2 = self.nx / 2;
        let w = input.width.min(self.nx);
        let present = input.height.min(self.ny).saturating_sub(y0).min(count);
        if present < LANES {
            re.fill([0.0; LANES]);
            im.fill([0.0; LANES]);
        }
        // The real samples are already the `z[k] = x[2k] + j·x[2k+1]`
        // pairs the half-size trick transforms; zeros past the edges.
        let rows: [&[f64]; LANES] = core::array::from_fn(|c| {
            if c < present {
                &input.data[(y0 + c) * input.pitch..][..w]
            } else {
                &[]
            }
        });
        let slot = |i| self.half.bit_reversed(i);
        let pairs = w / 2;
        let pair = |c: usize, i: usize| Complex64::new(rows[c][2 * i], rows[c][2 * i + 1]);
        gather_lanes(present, pairs, slot, pair, re, im);
        if w % 2 == 1 {
            let last = |c: usize, _| Complex64::from_re(rows[c][w - 1]);
            gather_lanes(present, 1, |_| slot(pairs), last, re, im);
        }
        if present == LANES {
            for i in w.div_ceil(2)..n2 {
                (re[slot(i)], im[slot(i)]) = ([0.0; LANES], [0.0; LANES]);
            }
        }
        self.half.butterflies_lanes(re, im, Direction::Forward);
        // Every lane's bin k at once, then one store per row.
        for (k, &tw) in self.twiddles.iter().enumerate() {
            // Z is n/2-periodic: bin n/2 reads Z[0] (n/2 is a power of two).
            let (j, m) = (k & (n2 - 1), (n2 - k) & (n2 - 1));
            // A plain loop: `core::array::from_fn` here measured 8–13%
            // slower for the whole tile.
            let mut x = [Complex64::ZERO; LANES];
            for (c, slot) in x.iter_mut().enumerate() {
                let zk = Complex64::new(re[j][c], im[j][c]);
                let zc = Complex64::new(re[m][c], im[m][c]).conj();
                let ze = (zk + zc).scale(0.5);
                let zo = (zc - zk).scale(0.5).mul_i(); // (zk − zc) / 2j
                *slot = ze + tw * zo;
            }
            put(k, y0, &x[..count]);
        }
    }

    /// Packed column `c0` and the `W − 1` after it, gathered bit-reversed
    /// for the column transform.
    #[inline(always)]
    fn gather_columns<const W: usize>(
        &self,
        packed: &[Complex64],
        c0: usize,
        re: &mut [[f64; W]],
        im: &mut [[f64; W]],
    ) {
        let hw = self.packed_width();
        for (iy, row) in packed.chunks_exact(hw).enumerate() {
            let (r, z) = (self.cols.bit_reversed(iy), &row[c0..c0 + W]);
            re[r] = core::array::from_fn(|c| z[c].re);
            im[r] = core::array::from_fn(|c| z[c].im);
        }
    }

    /// The `W` packed columns from `c0` in one block of lane planes:
    /// gathered, forward-transformed, multiplied by the kernel's block
    /// into bit-reversed order, inverse-transformed, and stored with the
    /// column's `1/ny` for the rows in `rows` only.
    #[inline(always)]
    fn column_block<const W: usize>(
        &self,
        packed: &mut [Complex64],
        c0: usize,
        (kre, kim): (&[[f64; W]], &[[f64; W]]),
        rows: Range<usize>,
        re: &mut [[f64; W]],
        im: &mut [[f64; W]],
    ) {
        let hw = self.packed_width();
        self.gather_columns(packed, c0, re, im);
        self.cols.butterflies_lanes(re, im, Direction::Forward);
        // The products in order, reading the kernel block as one stream,
        // then the pairwise swaps {iy, bitrev(iy)} into the bit-reversed
        // order the inverse transform reads.
        for iy in 0..self.ny {
            for c in 0..W {
                let z = Complex64::new(re[iy][c], im[iy][c]) * Complex64::new(kre[iy][c], kim[iy][c]);
                (re[iy][c], im[iy][c]) = (z.re, z.im);
            }
        }
        for iy in 0..self.ny {
            let r = self.cols.bit_reversed(iy);
            if iy < r {
                re.swap(iy, r);
                im.swap(iy, r);
            }
        }
        self.cols.butterflies_lanes(re, im, Direction::Inverse);
        let scale = 1.0 / self.ny as f64;
        for iy in rows {
            let dst = &mut packed[iy * hw + c0..][..W];
            for (c, slot) in dst.iter_mut().enumerate() {
                *slot = Complex64::new(re[iy][c], im[iy][c]).scale(scale);
            }
        }
    }

    /// Packed spectrum rows `rows` → real rows in place, each handed to
    /// `emit`: [`LANES`] rows per half-length inverse transform.
    #[inline(always)]
    fn inverse_rows(&self, rows: Range<usize>, work: &mut TileWorkspace, emit: &mut dyn FnMut(usize, &[f64])) {
        let (nx, hw, n2) = (self.nx, self.packed_width(), self.nx / 2);
        let (packed, lanes) = (&mut work.packed, work.lanes.lanes_mut());
        let (re, im) = split_planes(lanes, n2);
        for y0 in rows.clone().step_by(LANES) {
            let block = &mut packed[y0 * hw..(y0 + LANES).min(rows.end) * hw];
            // nx = 1: the real sample is bin 0's real part, in place.
            if n2 > 0 {
                self.inverse_block(re, im, block);
            }
            for (c, row) in block.chunks_exact(hw).enumerate() {
                emit(y0 + c, &as_f64s(row)[..nx]);
            }
        }
    }

    /// The packed rows of `block` (at most [`LANES`]) inverted in place:
    /// the untangle backwards a row at a time into the lane planes, then
    /// [`LANES`] half-length inverse transforms at once (their `2/nx` and
    /// the untangle's `1/2` compose to the row's full `1/nx`), stored a
    /// row at a time. (Here a row at a time measures faster than
    /// position-major: each row's untangle reads it from both ends.)
    #[inline(always)]
    fn inverse_block(&self, re: &mut [Lane], im: &mut [Lane], block: &mut [Complex64]) {
        let (hw, n2) = (self.packed_width(), self.nx / 2);
        for (c, row) in block.chunks_exact(hw).enumerate() {
            for k in 0..n2 {
                let a = row[k];
                let b = row[n2 - k].conj();
                let ze = (a + b).scale(0.5);
                let zo = self.twiddles[k].conj() * (a - b).scale(0.5);
                let z = ze + zo.mul_i(); // Z[k] = E[k] + j·O[k]
                let r = self.half.bit_reversed(k);
                (re[r][c], im[r][c]) = (z.re, z.im);
            }
        }
        self.half.butterflies_lanes(re, im, Direction::Inverse);
        let scale = 1.0 / n2 as f64;
        for (c, row) in block.chunks_exact_mut(hw).enumerate() {
            for (k, slot) in row[..n2].iter_mut().enumerate() {
                *slot = Complex64::new(re[k][c], im[k][c]).scale(scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fft, Fft2d};
    use rrs_rng::{RandomSource, Xoshiro256pp};

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    const EMPTY: RealTile<'static> = RealTile { data: &[], pitch: 0, width: 0, height: 0 };

    /// The whole `nx × ny` field `x` as a tile.
    fn whole<'a>(rfft: &RealFft2d, x: &'a [f64]) -> RealTile<'a> {
        let (nx, ny) = rfft.shape();
        RealTile { data: x, pitch: nx, width: nx, height: ny }
    }

    fn forward(rfft: &RealFft2d, input: RealTile<'_>) -> Spectrum {
        rfft.forward(input)
    }

    /// The rows `rows` of `input` convolved with `kspec`, in order.
    fn convolved(rfft: &RealFft2d, input: RealTile<'_>, kspec: &Spectrum, rows: Range<usize>) -> Vec<f64> {
        let mut got = Vec::new();
        let mut next = rows.start;
        let mut emit = |y: usize, row: &[f64]| {
            assert_eq!(y, next, "rows are emitted in order");
            next += 1;
            got.extend_from_slice(row);
        };
        rfft.convolve(input, kspec, rows.clone(), &mut rfft.workspace(), &mut emit);
        assert_eq!(next, rows.end, "every row is emitted");
        got
    }

    /// `input` zero-padded to the whole `nx × ny` lattice, row-major.
    fn padded(rfft: &RealFft2d, input: RealTile<'_>) -> Vec<f64> {
        let (nx, ny) = rfft.shape();
        let mut x = vec![0.0; nx * ny];
        for y in 0..input.height.min(ny) {
            let w = input.width.min(nx);
            x[y * nx..y * nx + w].copy_from_slice(&input.data[y * input.pitch..][..w]);
        }
        x
    }

    /// `spec`'s bins in packed row-major order, `nx/2 + 1` a row.
    fn packed(rfft: &RealFft2d, spec: &Spectrum) -> Vec<Complex64> {
        let (_, ny) = rfft.shape();
        (0..ny).flat_map(|ky| (0..rfft.packed_width()).map(move |kx| spec.bin(kx, ky))).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn spectrum_bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The packed bins of the full complex transform of `x`.
    fn packed_reference(x: &[f64], nx: usize, ny: usize) -> Vec<Complex64> {
        let mut wide: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
        Fft2d::new(nx, ny).process(&mut wide, Direction::Forward, 1);
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
    /// inverse rows, on a packed row-major buffer whose rows hold the
    /// real rows in their first `nx` `f64`s. The oracle the batched path
    /// must match bit for bit.
    mod scalar {
        use super::*;

        /// The real `nx × ny` field `x` laid into packed rows.
        fn laid_out(nx: usize, ny: usize, x: &[f64]) -> Vec<Complex64> {
            let hw = nx / 2 + 1;
            let mut spec = vec![Complex64::new(f64::NAN, f64::NAN); hw * ny];
            for (row, dst) in x.chunks_exact(nx).zip(spec.chunks_exact_mut(hw)) {
                rrs_num::complex::as_f64s_mut(dst)[..nx].copy_from_slice(row);
            }
            spec
        }

        /// The rows `rows` of `x` convolved with the packed `kspec`.
        pub fn convolve(nx: usize, ny: usize, x: &[f64], kspec: &[Complex64], rows: Range<usize>) -> Vec<f64> {
            let hw = nx / 2 + 1;
            let n2 = nx / 2;
            let mut spec = laid_out(nx, ny, x);
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
            cols(&col, hw, ny, &mut spec, Direction::Forward);
            for (z, k) in spec.iter_mut().zip(kspec) {
                *z *= *k;
            }
            cols(&col, hw, ny, &mut spec, Direction::Inverse);
            let mut out = Vec::new();
            for srow in spec.chunks_exact_mut(hw).skip(rows.start).take(rows.len()) {
                if n2 == 0 {
                    out.push(srow[0].re);
                    continue;
                }
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
                out.extend(z.iter().flat_map(|z| [z.re, z.im]));
            }
            out
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

    /// Edge shapes, then the tile shapes the workloads run: `serve`'s 32²
    /// to 256², `figures`' box tiles and `strip`'s 512².
    fn test_shapes() -> impl Iterator<Item = (usize, usize)> {
        let small = [1usize, 2, 4, 64];
        let edges = small.into_iter().flat_map(|nx| [1usize, 2, 8, 64].map(|ny| (nx, ny)));
        edges.chain([(32, 32), (64, 64), (128, 128), (128, 256), (256, 128), (256, 256), (512, 512)])
    }

    /// The row ranges a tile of height `ny` is asked to invert: every
    /// row, a middle band, and overlap-save's `kh − 1 .. kh − 1 + cy` for
    /// kernel heights whose valid rows end in a partial lane block of
    /// 1, 2, 3 and 5 rows, and a last tile row keeping only 3.
    fn row_ranges(ny: usize) -> Vec<Range<usize>> {
        let mut ranges = vec![0..ny, ny / 4..ny - ny / 4];
        if ny >= 8 {
            for kh in [ny / 2, ny / 2 - 1, ny / 2 - 2, ny / 2 - 4].into_iter().filter(|&kh| kh > 0) {
                ranges.push(kh - 1..ny);
            }
            ranges.push(ny / 2 - 1..ny / 2 + 2);
        }
        ranges
    }

    /// A random tile of `rfft`'s shape and a random kernel's spectrum.
    fn tile_and_kernel(rfft: &RealFft2d) -> (Vec<f64>, Spectrum) {
        let (nx, ny) = rfft.shape();
        let seed = (nx * 1000 + ny) as u64;
        let k = random_real(nx * ny, seed + 1);
        (random_real(nx * ny, seed), forward(rfft, whole(rfft, &k)))
    }

    #[test]
    fn convolve_matches_the_scalar_transforms_bit_for_bit() {
        for (nx, ny) in test_shapes() {
            let rfft = RealFft2d::new(nx, ny);
            let (x, kspec) = tile_and_kernel(&rfft);
            let kpacked = packed(&rfft, &kspec);
            // The whole field, then one read from a wider window and
            // clipped short of both edges (an odd width where it can be).
            let clipped = RealTile { data: &x, pitch: nx, width: nx - nx / 3, height: ny - ny / 3 };
            for input in [whole(&rfft, &x), clipped] {
                let field = padded(&rfft, input);
                for rows in row_ranges(ny) {
                    let want = scalar::convolve(nx, ny, &field, &kpacked, rows.clone());
                    let got = convolved(&rfft, input, &kspec, rows.clone());
                    let what = format!("{nx}x{ny}, {}x{} read, rows {rows:?}", input.width, input.height);
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn the_portable_copy_matches_the_dispatched_one_bit_for_bit() {
        // On an AVX2 host the public entry points run the AVX2 copy; the
        // portable body is what every other CPU runs.
        for (nx, ny) in test_shapes() {
            let rfft = RealFft2d::new(nx, ny);
            let (x, kspec) = tile_and_kernel(&rfft);
            let input = whole(&rfft, &x);
            let mut portable = forward(&rfft, EMPTY);
            let mut lanes = vec![[0.0; LANES]; 2 * (nx / 2 + 1)];
            rfft.forward_portable(input, &mut portable, &mut lanes);
            let dispatched = forward(&rfft, input);
            assert_eq!(
                spectrum_bits(&packed(&rfft, &portable)),
                spectrum_bits(&packed(&rfft, &dispatched)),
                "{nx}x{ny}"
            );
            for rows in row_ranges(ny) {
                let mut got = Vec::new();
                let mut emit = |_: usize, row: &[f64]| got.extend_from_slice(row);
                rfft.convolve_portable(input, &kspec, rows.clone(), &mut rfft.workspace(), &mut emit);
                let want = convolved(&rfft, input, &kspec, rows.clone());
                assert_eq!(bits(&got), bits(&want), "{nx}x{ny}, rows {rows:?}");
            }
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
            let rfft = RealFft2d::new(nx, ny);
            let got = packed(&rfft, &forward(&rfft, whole(&rfft, &x)));
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
            let ones = forward(&rfft, RealTile { data: &[1.0], pitch: 1, width: 1, height: 1 });
            let back = convolved(&rfft, whole(&rfft, &x), &ones, 0..ny);
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
        let fa = forward(&rfft, whole(&rfft, &a));
        let got = convolved(&rfft, whole(&rfft, &b), &fa, 0..ny);
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
    fn workspaces_are_reused_not_reallocated() {
        let rfft = RealFft2d::new(16, 16);
        let x = random_real(256, 3);
        let kspec = forward(&rfft, whole(&rfft, &x));
        assert_eq!(kspec.samples(), 2 * 9 * 16);
        let mut work = rfft.workspace();
        let (samples, packed, lanes) = (work.samples(), work.packed.as_ptr(), work.lanes.lanes_mut().as_ptr());
        assert_eq!(samples, 2 * 9 * 16 + 2 * LANES * 17);
        for rows in [0..16, 2..5, 15..16] {
            rfft.convolve(whole(&rfft, &x), &kspec, rows, &mut work, &mut |_, _| {});
        }
        assert_eq!(work.samples(), samples, "steady-state workspace must not grow");
        assert_eq!((work.packed.as_ptr(), work.lanes.lanes_mut().as_ptr()), (packed, lanes));
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
    #[should_panic(expected = "kernel spectrum shape mismatch")]
    fn a_kernel_spectrum_of_another_shape_panics() {
        let rfft = RealFft2d::new(4, 4);
        let kspec = RealFft2d::new(4, 8).forward(EMPTY);
        rfft.convolve(EMPTY, &kspec, 0..4, &mut rfft.workspace(), &mut |_, _| {});
    }

    #[test]
    #[should_panic(expected = "workspace shape mismatch")]
    fn a_workspace_of_another_shape_panics() {
        let rfft = RealFft2d::new(4, 4);
        let kspec = rfft.forward(EMPTY);
        rfft.convolve(EMPTY, &kspec, 0..4, &mut RealFft2d::new(8, 4).workspace(), &mut |_, _| {});
    }

    #[test]
    #[should_panic(expected = "reach past their data")]
    fn input_rows_past_their_data_panic() {
        let rfft = RealFft2d::new(4, 4);
        rfft.forward(RealTile { data: &[0.0; 15], pitch: 4, width: 4, height: 4 });
    }

    #[test]
    #[should_panic(expected = "reach past")]
    fn rows_past_the_tile_are_rejected() {
        let rfft = RealFft2d::new(4, 4);
        let kspec = rfft.forward(EMPTY);
        rfft.convolve(EMPTY, &kspec, 2..5, &mut rfft.workspace(), &mut |_, _| {});
    }
}
