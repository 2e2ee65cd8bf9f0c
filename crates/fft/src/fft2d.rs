//! Row–column 2-D FFT with optional multithreading.
//!
//! The 2-D DFT separates into 1-D transforms along each axis. Both passes
//! run [`LANES`] rows (or columns) at a time through the 1-D engine's lane
//! entry (`Fft::process_lanes`): each block is gathered position-major
//! into split-complex lane planes (element `i` of every sequence fills one
//! lane row), transformed together and stored back the same way, through
//! the gather and store the real-input tiles use. A pass splits its
//! sequences into bands of whole lane blocks, one per worker; a single
//! band runs on the calling thread. Rows are
//! contiguous, so a band of rows is one slice; a band of columns owns
//! its columns' piece of every row.
//!
//! Every element gets exactly the operations of the scalar row and column
//! transforms — [`Fft::process`] per sequence, then, on the inverse,
//! `·n` to undo its `1/n`, and one `1/(nx·ny)` at the end — so the result
//! is bit-identical to them, in both directions, at every worker count.

use crate::plan::{gather_lanes, store_lanes};
use crate::{Direction, Fft, Lane, LANES};
use rrs_num::Complex64;
use std::sync::Arc;

/// The 1-D lane entry a pass runs: `Fft::process_lanes`, or in tests its
/// portable copy.
type LaneFn = fn(&Fft, &mut [Lane], &mut [Lane], Direction, &mut Vec<Lane>);

/// A prepared 2-D transform of shape `(nx, ny)`, row-major.
pub struct Fft2d {
    nx: usize,
    ny: usize,
    row_fft: Arc<Fft>,
    col_fft: Arc<Fft>,
    workers: usize,
}

impl Fft2d {
    /// Builds a 2-D transform for an `nx × ny` row-major buffer using the
    /// default worker count.
    pub fn new(nx: usize, ny: usize) -> Self {
        Self::with_workers(nx, ny, rrs_par::default_workers())
    }

    /// Builds a 2-D transform with an explicit worker count (1 = serial).
    pub fn with_workers(nx: usize, ny: usize, workers: usize) -> Self {
        assert!(nx > 0 && ny > 0, "Fft2d dimensions must be positive");
        let row_fft = Arc::new(Fft::new(nx));
        let col_fft =
            if ny == nx { row_fft.clone() } else { Arc::new(Fft::new(ny)) };
        Self { nx, ny, row_fft, col_fft, workers: workers.max(1) }
    }

    /// Shape as `(nx, ny)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Transforms a row-major `nx × ny` buffer in place.
    ///
    /// # Panics
    /// Panics if `buf.len() != nx * ny`.
    pub fn process(&self, buf: &mut [Complex64], dir: Direction) {
        self.process_with(buf, dir, Fft::process_lanes);
    }

    fn process_with(&self, buf: &mut [Complex64], dir: Direction, lanes: LaneFn) {
        assert_eq!(buf.len(), self.nx * self.ny, "buffer shape mismatch");
        // Run both passes UN-normalised, then apply the 1/(Nx·Ny) once —
        // the per-axis inverse normalisation would otherwise be applied by
        // each 1-D call and double-count on the shared-plan path.
        self.rows_pass(buf, dir, lanes);
        self.cols_pass(buf, dir, lanes);
        if dir == Direction::Inverse {
            let k = 1.0 / (self.nx * self.ny) as f64;
            for z in buf.iter_mut() {
                *z = z.scale(k);
            }
        }
    }

    /// Sequences per band when `count` of them split over the workers:
    /// whole lane blocks, as evenly as they go.
    fn band(&self, count: usize) -> usize {
        count.div_ceil(LANES).div_ceil(self.workers) * LANES
    }

    fn rows_pass(&self, buf: &mut [Complex64], dir: Direction, lanes: LaneFn) {
        let (nx, fft) = (self.nx, &*self.row_fft);
        let bands = buf.chunks_mut(self.band(self.ny) * nx).collect();
        fan_out(bands, |band: &mut [Complex64]| {
            let mut planes = LanePlanes::new(fft, dir, lanes);
            for block in band.chunks_mut(LANES * nx) {
                let count = block.len() / nx;
                planes.gather(count, |c, i| block[c * nx + i]);
                planes.transform();
                planes.store(count, |c, i, z| block[c * nx + i] = z);
            }
        });
    }

    fn cols_pass(&self, buf: &mut [Complex64], dir: Direction, lanes: LaneFn) {
        let (nx, ny, fft) = (self.nx, self.ny, &*self.col_fft);
        let width = self.band(nx);
        // Each band owns its `width` columns of every row.
        let mut bands: Vec<Vec<&mut [Complex64]>> =
            (0..nx.div_ceil(width)).map(|_| Vec::with_capacity(ny)).collect();
        for row in buf.chunks_exact_mut(nx) {
            for (band, cols) in bands.iter_mut().zip(row.chunks_mut(width)) {
                band.push(cols);
            }
        }
        fan_out(bands, |mut rows: Vec<&mut [Complex64]>| {
            let mut planes = LanePlanes::new(fft, dir, lanes);
            let width = rows[0].len();
            for c0 in (0..width).step_by(LANES) {
                let count = (width - c0).min(LANES);
                planes.gather(count, |c, iy| rows[iy][c0 + c]);
                planes.transform();
                planes.store(count, |c, iy, z| rows[iy][c0 + c] = z);
            }
        });
    }
}

/// Runs `run` on every band through `rrs-par`'s band loop (on the
/// calling thread when there is one band, otherwise each on its own
/// scoped thread), re-raising a band's contained panic here so a pass
/// stays infallible.
fn fan_out<B: Send>(bands: Vec<B>, run: impl Fn(B) + Sync) {
    let done = rrs_par::try_par_bands(bands, &rrs_obs::Recorder::disabled(), |_, band| {
        run(band);
        Ok(())
    });
    if let Err(e) = done {
        panic!("Fft2d pass: {e}");
    }
}

/// One band's lane planes for sequences of `fft.len()` elements, and the
/// scratch the 1-D engine keeps between blocks.
struct LanePlanes<'a> {
    fft: &'a Fft,
    dir: Direction,
    lanes: LaneFn,
    /// The real plane in `[..n]`, the imaginary one in `[n + 1..]`: one
    /// lane apart more than `n`, as `plan::lane_planes` lays them out.
    planes: Vec<Lane>,
    scratch: Vec<Lane>,
}

impl<'a> LanePlanes<'a> {
    fn new(fft: &'a Fft, dir: Direction, lanes: LaneFn) -> Self {
        let planes = vec![[0.0; LANES]; 2 * (fft.len() + 1)];
        Self { fft, dir, lanes, planes, scratch: Vec::new() }
    }

    /// Loads element `i` of `count` sequences, `get(c, i)` for lane `c`,
    /// where the engine reads it.
    #[inline(always)]
    fn gather(&mut self, count: usize, get: impl Fn(usize, usize) -> Complex64) {
        let (n, fft) = (self.fft.len(), self.fft);
        let (re, im) = self.planes.split_at_mut(n + 1);
        gather_lanes(count, n, |i| fft.lane_slot(i), get, &mut re[..n], &mut im[..n]);
    }

    fn transform(&mut self) {
        let n = self.fft.len();
        let (re, im) = self.planes.split_at_mut(n + 1);
        (self.lanes)(self.fft, &mut re[..n], &mut im[..n], self.dir, &mut self.scratch);
    }

    /// Hands element `i` of the first `count` lanes' transforms to
    /// `put(c, i, z)`, un-normalised: the inverse's `1/n` is undone with
    /// `·n`, as the scalar passes did.
    #[inline(always)]
    fn store(&self, count: usize, mut put: impl FnMut(usize, usize, Complex64)) {
        let n = self.fft.len();
        let (re, im) = self.planes.split_at(n + 1);
        let undo = self.dir == Direction::Inverse;
        store_lanes(count, n, &re[..n], &im[..n], |c, i, z| {
            put(c, i, if undo { z.scale(n as f64) } else { z })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft2_reference;
    use rrs_rng::{RandomSource, Xoshiro256pp};

    fn random_field(nx: usize, ny: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..nx * ny)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_various_shapes() {
        for &(nx, ny) in &[(4usize, 4usize), (8, 4), (4, 8), (3, 5), (6, 6), (7, 8), (16, 3)] {
            let x = random_field(nx, ny, (nx * 100 + ny) as u64);
            let mut fast = x.clone();
            Fft2d::with_workers(nx, ny, 1).process(&mut fast, Direction::Forward);
            let slow = dft2_reference(&x, nx, ny, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-8, "shape ({nx},{ny})");
        }
    }

    /// The transform the lane passes replaced: one row, then one column,
    /// at a time through [`Fft::process`], each inverse's `1/n` undone
    /// with `·n`, and one `1/(nx·ny)` at the end.
    fn scalar(x: &[Complex64], nx: usize, ny: usize, dir: Direction) -> Vec<Complex64> {
        let unnormalised = |fft: &Fft, seq: &mut [Complex64]| {
            fft.process(seq, dir);
            if dir == Direction::Inverse {
                let n = seq.len() as f64;
                seq.iter_mut().for_each(|z| *z = z.scale(n));
            }
        };
        let (row, col) = (Fft::new(nx), Fft::new(ny));
        let mut buf = x.to_vec();
        buf.chunks_exact_mut(nx).for_each(|r| unnormalised(&row, r));
        let mut seq = vec![Complex64::ZERO; ny];
        for cx in 0..nx {
            (0..ny).for_each(|iy| seq[iy] = buf[iy * nx + cx]);
            unnormalised(&col, &mut seq);
            (0..ny).for_each(|iy| buf[iy * nx + cx] = seq[iy]);
        }
        if dir == Direction::Inverse {
            let k = 1.0 / (nx * ny) as f64;
            buf.iter_mut().for_each(|z| *z = z.scale(k));
        }
        buf
    }

    #[test]
    fn passes_match_the_scalar_row_column_transform_bit_for_bit() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        // Square, non-square and odd shapes on both engines, with partial
        // lane blocks; a third of the samples real (`+0` imaginary parts,
        // as kernel amplitudes are) and some `-0` parts.
        let shapes = [
            (16usize, 16usize),
            (128, 128),
            (160, 160),
            (32, 24),
            (96, 150),
            (9, 7),
            (17, 33),
            (1, 9),
            (5, 1),
        ];
        for (nx, ny) in shapes {
            let mut x = random_field(nx, ny, (nx * 1000 + ny) as u64);
            for (i, z) in x.iter_mut().enumerate() {
                match i % 6 {
                    0 | 3 => *z = Complex64::from_re(z.re),
                    4 => z.im = -0.0,
                    _ => {}
                }
            }
            let fft2 = |workers| Fft2d::with_workers(nx, ny, workers);
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = bits(&scalar(&x, nx, ny, dir));
                for workers in [1, 2, 3, 4] {
                    let mut got = x.clone();
                    fft2(workers).process(&mut got, dir);
                    let what = format!("{nx}x{ny} {dir:?} at {workers} workers");
                    assert_eq!(bits(&got), want, "{what}, dispatched copy");
                    let mut got = x.clone();
                    fft2(workers).process_with(&mut got, dir, Fft::lanes_portable);
                    assert_eq!(bits(&got), want, "{what}, portable copy");
                }
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        for &(nx, ny) in &[(8usize, 8usize), (5, 12), (16, 16), (9, 7)] {
            let x = random_field(nx, ny, 77);
            let mut buf = x.clone();
            let fft = Fft2d::with_workers(nx, ny, 2);
            fft.process(&mut buf, Direction::Forward);
            fft.process(&mut buf, Direction::Inverse);
            assert!(max_err(&buf, &x) < 1e-10, "shape ({nx},{ny})");
        }
    }

    #[test]
    fn square_shape_shares_plan() {
        let fft = Fft2d::with_workers(16, 16, 1);
        assert!(Arc::ptr_eq(&fft.row_fft, &fft.col_fft));
    }

    #[test]
    fn plane_wave_hits_single_bin() {
        let (nx, ny) = (16, 8);
        let (kx, ky) = (3, 2);
        let mut buf: Vec<Complex64> = (0..nx * ny)
            .map(|i| {
                let (ix, iy) = (i % nx, i / nx);
                Complex64::cis(core::f64::consts::TAU
                    * (kx as f64 * ix as f64 / nx as f64 + ky as f64 * iy as f64 / ny as f64))
            })
            .collect();
        Fft2d::with_workers(nx, ny, 1).process(&mut buf, Direction::Forward);
        for (i, z) in buf.iter().enumerate() {
            let (vx, vy) = (i % nx, i / nx);
            let expect = if vx == kx && vy == ky { (nx * ny) as f64 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-8 && z.im.abs() < 1e-8, "bin ({vx},{vy})");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let fft = Fft2d::with_workers(4, 4, 1);
        let mut buf = vec![Complex64::ZERO; 8];
        fft.process(&mut buf, Direction::Forward);
    }

    #[test]
    fn degenerate_single_column() {
        let x = random_field(1, 9, 3);
        let mut fast = x.clone();
        Fft2d::with_workers(1, 9, 4).process(&mut fast, Direction::Forward);
        let slow = dft2_reference(&x, 1, 9, Direction::Forward);
        assert!(max_err(&fast, &slow) < 1e-9);
    }
}
