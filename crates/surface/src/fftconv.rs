//! Overlap-save FFT convolution — the engine behind
//! [`ConvBackend::FftOverlapSave`](crate::ConvBackend).
//!
//! The direct correlate loop costs `O(nx·ny·kw·kh)`; by the convolution
//! theorem the same surface is `IFFT(FFT(X)·FFT(w̃))` at
//! `O(N log N)`. Materialised windows are unbounded in principle, so the
//! engine processes them in **overlap-save tiles**: each tile loads an
//! `fft_nx × fft_ny` segment of the noise window, transforms it,
//! multiplies by the kernel spectrum, inverse-transforms, and keeps only
//! the `(fft_nx−kw+1) × (fft_ny−kh+1)` outputs whose circular convolution
//! never wrapped.
//!
//! The transforms are the **real-input** pipeline ([`RealFft2d`],
//! half-size complex trick, packed Hermitian spectra, transforms batched
//! [`LANES`] rows or columns at a time), with tiles dispatched across
//! `rrs-par` workers. Each worker owns a private [`TileWorkspace`] (a
//! packed spectrum and the lane planes), so steady-state tile processing
//! allocates nothing and workers never contend. Each tile is one
//! [`RealFft2d::convolve`], which reads the tile's rows straight from the
//! noise window and hands back only the tile's valid output rows. Tiles
//! write strictly disjoint output regions, so the result is
//! bit-identical for every worker count.
//!
//! [`FftEngine`] caches each kernel's spectrum for the last
//! [`SPECTRA_PER_ENGINE`] tile shapes it planned, which suits one kernel
//! serving many windows.
//! [`convolve_tiles_into`] runs the same tile loop on tiles of at most
//! [`BOX_MAX_TILE_SIDE`] a side with a spectrum that lives only for the
//! call, reading a pitched view of a caller-owned noise window and
//! merging each tile's outputs straight into a caller-owned output — the
//! inhomogeneous generator's weighted per-kernel fields, which all read
//! one shared noise window, where a cache would hold one spectrum per
//! kernel for the generator's lifetime and a per-kernel field would be
//! one more output-sized buffer.
//!
//! # Tile correctness
//!
//! With the kernel zero-padded at the tile origin, the circular
//! convolution of a segment starting at window column `ox` satisfies
//! `c[m] = Σ_j w̃[j]·seg[m−j]` exactly for `m ≥ kw−1` (no index wraps:
//! the kernel support is `[0, kw)`), and `seg[m−j] = win[ox+m−j]`, so
//! `c[(ix−ox)+kw−1] = Σ_a w̃[a]·win[ix+kw−1−a] = out[ix]` — the direct
//! loop's sum, evaluated in the frequency domain. Per-axis the same
//! argument holds for rows. Zero-padding past the right/top window edge
//! only reaches `c[m]` with `m ≥ ww−ox`, i.e. output indices `≥ nx`,
//! which the scatter step discards.
//!
//! # Cost model
//!
//! The tile side is chosen by brute-force minimisation of
//! `tiles · fft_area · (log2(fft_area) + 1)` over power-of-two sides —
//! small tiles amortise badly (little valid output per transform), huge
//! tiles waste work past the output edge. The search space is tiny
//! (≤ ~12 candidates per axis), so the exact model is evaluated rather
//! than approximated. Worker dispatch then splits the flattened tile
//! index range evenly; a request whose plan yields a single tile runs
//! serially regardless of the configured worker count.

use crate::context::GenContext;
use crate::kernel::ConvolutionKernel;
use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, RrsError};
use rrs_fft::{FftPlanCache, RealFft2d, RealTile, Spectrum, TileWorkspace, LANES};
use rrs_grid::Grid2;
use rrs_obs::{stage, Recorder, Shard};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tile shapes whose kernel spectrum one [`FftEngine`] keeps: a served
/// kernel plans a shape per window size its clients ask for, so the
/// cache holds the most recently used few (a served key plans two) and
/// re-transforms an evicted shape, which gives the same bits.
pub(crate) const SPECTRA_PER_ENGINE: usize = 4;

/// Largest overlap-save tile side [`convolve_tiles_into`] plans (per
/// axis, unless the kernel itself is wider): its callers hold one
/// kernel's working set at a time, and past 256 a bigger tile buys
/// little speed for a lot of arena memory.
const BOX_MAX_TILE_SIDE: usize = 256;

/// The overlap-save tile shape chosen for one `(output, kernel)` geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileShape {
    /// FFT side along x (power of two, ≥ `kw`).
    pub fft_nx: usize,
    /// FFT side along y (power of two, ≥ `kh`).
    pub fft_ny: usize,
}

impl TileShape {
    /// Valid (non-wrapped) outputs per tile along each axis.
    pub fn valid(&self, kw: usize, kh: usize) -> (usize, usize) {
        (self.fft_nx - kw + 1, self.fft_ny - kh + 1)
    }

    /// Tile grid `(columns, rows)` this shape induces on an `nx × ny`
    /// output under a `kw × kh` kernel.
    pub fn tiles(&self, nx: usize, ny: usize, kw: usize, kh: usize) -> (usize, usize) {
        let (vx, vy) = self.valid(kw, kh);
        (nx.div_ceil(vx), ny.div_ceil(vy))
    }

    /// Packed (Hermitian, half-width-plus-one) spectrum samples per tile.
    fn packed_samples(&self) -> u128 {
        (self.fft_nx / 2 + 1) as u128 * self.fft_ny as u128
    }

    /// Workspace footprint of the engine at a given worker count, in
    /// f64-equivalents: each worker's [`TileWorkspace`] holds a packed
    /// spectrum and the batched transforms' lane planes — a real and an
    /// imaginary plane of [`LANES`] lanes, `2·LANES·(max(fft_nx/2,
    /// fft_ny) + 1)` f64s — and one kernel [`Spectrum`], as many samples
    /// as a packed one, is shared. Deterministic in its arguments, so
    /// admission control and the convolve loop agree on the footprint.
    pub fn scratch_samples_real(&self, workers: usize) -> u128 {
        let packed = 2 * self.packed_samples();
        let lanes = 2 * LANES as u128 * ((self.fft_nx / 2).max(self.fft_ny) + 1) as u128;
        workers.max(1) as u128 * (packed + lanes) + packed
    }
}

/// Per-axis power-of-two candidates: from the smallest that admits at
/// least one valid output to the smallest that covers the whole axis in
/// one tile.
fn axis_candidates(out_n: usize, k: usize) -> Vec<usize> {
    let lo = k.next_power_of_two();
    let hi = (out_n + k - 1).next_power_of_two().max(lo);
    let mut c = Vec::new();
    let mut n = lo;
    while n <= hi {
        c.push(n);
        n *= 2;
    }
    c
}

/// Chooses the overlap-save tile for an `nx × ny` output under a
/// `kw × kh` kernel by exact evaluation of the modelled transform cost
/// over all power-of-two tile shapes. Deterministic in its arguments, so
/// admission control and the convolve loop agree on the footprint.
pub fn plan_tiles(nx: usize, ny: usize, kw: usize, kh: usize) -> TileShape {
    plan_tiles_within(nx, ny, kw, kh, usize::MAX)
}

/// [`plan_tiles`] restricted to tile sides of at most `max_side` — or,
/// along an axis where the kernel itself is wider, the smallest side
/// that still holds it. Bounds the per-worker arena footprint for
/// callers that hold several working sets in turn.
pub fn plan_tiles_within(nx: usize, ny: usize, kw: usize, kh: usize, max_side: usize) -> TileShape {
    let within = |out_n: usize, k: usize| {
        let cap = max_side.max(k.next_power_of_two());
        axis_candidates(out_n, k).into_iter().filter(move |&n| n <= cap)
    };
    let mut best = TileShape { fft_nx: 0, fft_ny: 0 };
    let mut best_cost = f64::INFINITY;
    for fx in within(nx, kw) {
        let tiles_x = nx.div_ceil(fx - kw + 1) as f64;
        for fy in within(ny, kh) {
            let tiles_y = ny.div_ceil(fy - kh + 1) as f64;
            let area = (fx * fy) as f64;
            let cost = tiles_x * tiles_y * area * (area.log2() + 1.0);
            if cost < best_cost {
                best_cost = cost;
                best = TileShape { fft_nx: fx, fft_ny: fy };
            }
        }
    }
    best
}

/// The worker count the real-input engine actually dispatches for a
/// request: clamped to the number of tiles (a single-tile request runs
/// serially whatever the configuration). Deterministic, and used by both
/// admission control and the engine so the two agree.
pub fn effective_workers(shape: TileShape, nx: usize, ny: usize, kw: usize, kh: usize, workers: usize) -> usize {
    let (tx, ty) = shape.tiles(nx, ny, kw, kh);
    workers.max(1).min(tx * ty)
}

/// The geometry one convolution request tiles over, bundled so the tile
/// loop's helpers stay readable.
#[derive(Clone, Copy)]
struct TileGeom {
    nx: usize,
    ny: usize,
    /// Output row pitch and the output column request column 0 lands on.
    stride: usize,
    col0: usize,
    /// The noise window's size and row pitch (`≥ ww`).
    ww: usize,
    wh: usize,
    win_pitch: usize,
    kw: usize,
    kh: usize,
    vx: usize,
    vy: usize,
    tiles_x: usize,
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: workers write strictly disjoint output regions of the pointee
// (each tile's valid-output rectangle belongs to exactly one tile, and
// each tile to exactly one worker).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// The homogeneous generators' overlap-save engine: the kernel spectrum
/// cached for the last [`SPECTRA_PER_ENGINE`] tile shapes, so repeated
/// windows and strip tiles never re-transform the kernel. Plans come
/// from the request's [`GenContext`].
#[derive(Default)]
pub(crate) struct FftEngine {
    spectra: Mutex<Spectra>,
}

/// Kernel spectra keyed by tile shape `(fft_nx, fft_ny)`, least recently
/// used first.
type Spectra = Vec<((usize, usize), Arc<Spectrum>)>;

/// Locks the kernel-spectrum cache, recovering from poisoning by
/// rebuilding from empty: cached spectra are pure functions of the tile
/// shape, so clearing trades a re-transform for never propagating the
/// poison. Each recovery ticks [`stage::FFT_PLAN_POISONED`].
fn lock_spectra<'a>(cache: &'a Mutex<Spectra>, obs: &Recorder) -> MutexGuard<'a, Spectra> {
    cache.lock().unwrap_or_else(|poisoned| {
        // Un-poison first: the rebuild makes the map coherent again, and
        // without this every later lock would re-clear it.
        cache.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.clear();
        obs.add_counter(stage::FFT_PLAN_POISONED, 1);
        guard
    })
}

impl FftEngine {
    /// The kernel spectrum on `rfft`'s tile lattice, transformed once per
    /// tile shape while the shape stays among the last
    /// [`SPECTRA_PER_ENGINE`] used.
    fn kernel_spectrum(
        &self,
        kernel: &ConvolutionKernel,
        rfft: &RealFft2d,
        obs: &Recorder,
    ) -> Arc<Spectrum> {
        let key = rfft.shape();
        {
            let mut spectra = lock_spectra(&self.spectra, obs);
            if let Some(i) = spectra.iter().position(|(shape, _)| *shape == key) {
                let entry = spectra.remove(i);
                let arc = entry.1.clone();
                spectra.push(entry);
                return arc;
            }
        }
        // Transformed outside the lock, so other shapes' requests do not
        // wait on it.
        let arc = Arc::new(kernel_spectrum(kernel, rfft));
        let mut spectra = lock_spectra(&self.spectra, obs);
        spectra.retain(|(shape, _)| *shape != key);
        if spectra.len() == SPECTRA_PER_ENGINE {
            spectra.remove(0);
        }
        spectra.push((key, arc.clone()));
        arc
    }

    /// The tile shapes whose kernel spectrum is cached, least recently
    /// used first.
    #[cfg(test)]
    pub(crate) fn cached_shapes(&self) -> Vec<(usize, usize)> {
        lock_spectra(&self.spectra, &Recorder::disabled()).iter().map(|(shape, _)| *shape).collect()
    }

    /// Convolves the materialised `(nx+kw−1) × (ny+kh−1)` noise window
    /// `win` with `kernel`, producing the `nx × ny` output — the exact
    /// sum the direct loop computes
    /// (`out[ix,iy] = Σ w̃[a,b]·win[ix+kw−1−a, iy+kh−1−b]`) — with tiles
    /// dispatched across the context's workers. The context's budget is
    /// polled once per tile (ticking [`stage::BUDGET_POLLS`]), so
    /// deadlines and cancellation take effect at tile granularity on
    /// every worker; a panicking worker is contained and reported as
    /// [`RrsError::WorkerPanicked`]. Output is bit-identical for every
    /// worker count: tiles own disjoint output regions and per-tile
    /// arithmetic never depends on the partition.
    pub(crate) fn convolve(
        &self,
        ctx: &GenContext,
        kernel: &ConvolutionKernel,
        win: &[f64],
        nx: usize,
        ny: usize,
    ) -> Result<Grid2<f64>, RrsError> {
        let (kw, kh) = kernel.extent();
        let tile_shape = plan_tiles(nx, ny, kw, kh);
        // Parallelism lives at the tile level: one plan is shared by
        // every arena (plans are immutable).
        ctx.chaos.poll(FaultSite::PlanCacheLookup)?;
        let rfft = FftPlanCache::global().plan_real(tile_shape.fft_nx, tile_shape.fft_ny, &ctx.obs);
        let kspec = self.kernel_spectrum(kernel, &rfft, &ctx.obs);
        let mut out = Grid2::zeros(nx, ny);
        let ww = nx + kw - 1;
        let rows = OutputRows { rows: out.as_mut_slice(), stride: nx, col0: 0 };
        run_rfft(ctx, &rfft, &kspec, kernel, win, ww, nx, ny, rows, &store)?;
        Ok(out)
    }
}

/// The kernel weights zero-padded at the origin of `rfft`'s tile lattice
/// and forward-transformed into a column-block spectrum.
fn kernel_spectrum(kernel: &ConvolutionKernel, rfft: &RealFft2d) -> Spectrum {
    let (kw, kh) = kernel.extent();
    rfft.forward(RealTile { data: kernel.weights().as_slice(), pitch: kw, width: kw, height: kh })
}

/// A caller-owned output region: `rows` holds the request's `ny` output
/// rows, `stride` f64s apart, and request column `ix` lands at column
/// `col0 + ix` of each row.
pub struct OutputRows<'a> {
    /// The rows, row-major.
    pub rows: &'a mut [f64],
    /// Distance between consecutive rows, in f64s.
    pub stride: usize,
    /// Column of `rows` that request column 0 maps to.
    pub col0: usize,
}

/// How computed outputs merge into an [`OutputRows`]:
/// `combine(iy, ix, dst, src)` receives request row `iy`, its columns
/// `[ix, ix + src.len())` as `src`, and the matching segment of the
/// output as `dst`. Each output sample is delivered exactly once, so
/// `combine` may read-modify-write `dst` freely.
pub type Combine<'a> = &'a (dyn Fn(usize, usize, &mut [f64], &[f64]) + Sync);

/// The tile shape [`convolve_tiles_into`] plans for an `nx × ny` box
/// under `kernel`.
fn box_tile_shape(kernel: &ConvolutionKernel, nx: usize, ny: usize) -> TileShape {
    let (kw, kh) = kernel.extent();
    plan_tiles_within(nx, ny, kw, kh, BOX_MAX_TILE_SIDE)
}

/// f64s of tile workspace [`convolve_tiles_into`] allocates for an
/// `nx × ny` box at `workers` workers: the arenas of the workers it
/// runs, and the kernel spectrum.
pub(crate) fn box_scratch_samples(
    kernel: &ConvolutionKernel,
    nx: usize,
    ny: usize,
    workers: usize,
) -> u128 {
    let (kw, kh) = kernel.extent();
    let shape = box_tile_shape(kernel, nx, ny);
    shape.scratch_samples_real(effective_workers(shape, nx, ny, kw, kh, workers))
}

/// [`FftEngine::convolve`] on [`box_tile_shape`]'s tiles, with the
/// kernel spectrum transformed for this call alone and dropped on
/// return, merging the outputs into `out` through `combine` instead of
/// returning a fresh grid: nothing but the shared plan outlives the
/// call, and no output-sized buffer is allocated. `win` holds the
/// `(nx+kw−1) × (ny+kh−1)` noise window's rows `pitch` apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn convolve_tiles_into(
    ctx: &GenContext,
    kernel: &ConvolutionKernel,
    win: &[f64],
    pitch: usize,
    nx: usize,
    ny: usize,
    out: OutputRows<'_>,
    combine: Combine<'_>,
) -> Result<(), RrsError> {
    let tile_shape = box_tile_shape(kernel, nx, ny);
    ctx.chaos.poll(FaultSite::PlanCacheLookup)?;
    let rfft = FftPlanCache::global().plan_real(tile_shape.fft_nx, tile_shape.fft_ny, &ctx.obs);
    let kspec = kernel_spectrum(kernel, &rfft);
    run_rfft(ctx, &rfft, &kspec, kernel, win, pitch, nx, ny, out, combine)
}

/// [`Combine`] for a plain convolution: overwrite.
pub(crate) fn store(_iy: usize, _ix: usize, dst: &mut [f64], src: &[f64]) {
    dst.copy_from_slice(src);
}

/// Convolves with an already-planned transform and kernel spectrum,
/// merging into `out` through `combine`: the tile loop shared by
/// [`FftEngine::convolve`] and [`convolve_tiles_into`]. `win` holds the
/// `(nx+kw−1) × (ny+kh−1)` noise window's rows `win_pitch` apart. Each
/// worker allocates its own workspace.
#[allow(clippy::too_many_arguments)]
fn run_rfft(
    ctx: &GenContext,
    rfft: &RealFft2d,
    kspec: &Spectrum,
    kernel: &ConvolutionKernel,
    win: &[f64],
    win_pitch: usize,
    nx: usize,
    ny: usize,
    out: OutputRows<'_>,
    combine: Combine<'_>,
) -> Result<(), RrsError> {
    let (kw, kh) = kernel.extent();
    let (ww, wh) = (nx + kw - 1, ny + kh - 1);
    assert!(
        out.col0 + nx <= out.stride && out.rows.len() == ny * out.stride,
        "output rows must cover the {nx}x{ny} request"
    );
    debug_assert!(ww <= win_pitch && (wh == 0 || win.len() >= (wh - 1) * win_pitch + ww));
    let (fx, fy) = rfft.shape();
    let tile_shape = TileShape { fft_nx: fx, fft_ny: fy };
    let (tiles_x, tiles_y) = tile_shape.tiles(nx, ny, kw, kh);
    let total = tiles_x * tiles_y;
    let workers = effective_workers(tile_shape, nx, ny, kw, kh, ctx.workers);
    let (vx, vy) = tile_shape.valid(kw, kh);
    let (stride, col0) = (out.stride, out.col0);
    let geom = TileGeom { nx, ny, stride, col0, ww, wh, win_pitch, kw, kh, vx, vy, tiles_x };
    let (obs, budget, chaos) = (&ctx.obs, &ctx.budget, &ctx.chaos);
    let polling = budget.needs_polling();

    let out_ptr = SendPtr(out.rows.as_mut_ptr());
    // One band of tiles through its own workspace; its counters are
    // merged whether or not the band finishes.
    let tile_band = |(t0, t1): (usize, usize)| {
        let mut work = rfft.workspace();
        let mut shard = obs.shard();
        let result = run_tile_range(
            t0..t1, geom, win, rfft, kspec, out_ptr, combine, &mut work, &mut shard, budget,
            polling, chaos,
        );
        obs.absorb(shard);
        result
    };
    let span = obs.start(stage::CORRELATE);
    if workers == 1 {
        tile_band((0, total))?;
    } else {
        // A failed band drops the span unfinished: a failed correlate
        // records no timing, like every other error path.
        rrs_par::try_par_bands(rrs_par::split_range(total, workers), obs, |_, b| tile_band(b))?;
        obs.add_counter(stage::CONV_TILES_PARALLEL, total as u64);
    }
    obs.finish(span);
    obs.add_counter(stage::CONV_FFT_TILES, total as u64);
    obs.add_counter(stage::CORRELATE_SAMPLES, (nx * ny) as u64);
    Ok(())
}

/// Processes the flattened tile indices `tiles` through one workspace: one
/// [`RealFft2d::convolve`] per tile (the window's segment, zero past its
/// edges, forward-transformed, multiplied and inverted for the valid rows
/// only), and `combine` of each row's non-wrapped outputs into `out`.
#[allow(clippy::too_many_arguments)]
fn run_tile_range(
    tiles: std::ops::Range<usize>,
    g: TileGeom,
    win: &[f64],
    rfft: &RealFft2d,
    kspec: &Spectrum,
    out: SendPtr,
    combine: Combine<'_>,
    work: &mut TileWorkspace,
    shard: &mut Shard,
    budget: &Budget,
    polling: bool,
    chaos: &ChaosInjector,
) -> Result<(), RrsError> {
    for t in tiles {
        if polling {
            shard.add(stage::BUDGET_POLLS, 1);
            budget.check()?;
        }
        chaos.poll(FaultSite::FftTile)?;
        let ox = (t % g.tiles_x) * g.vx;
        let oy = (t / g.tiles_x) * g.vy;
        // The segment [ox, ox+fx) × [oy, oy+fy) of the window, zero past
        // its edges.
        let input = RealTile {
            data: &win[oy * g.win_pitch + ox..],
            pitch: g.win_pitch,
            width: g.ww - ox,
            height: g.wh - oy,
        };
        let cx = (g.nx - ox).min(g.vx);
        let cy = (g.ny - oy).min(g.vy);
        // Merge each valid row's non-wrapped outputs.
        let mut emit = |ty: usize, row: &[f64]| {
            let iy = oy + ty - (g.kh - 1);
            // SAFETY: rows [oy, oy+cy) × cols [ox, ox+cx) of the output
            // belong to tile t alone, and `run_rfft` checked they lie
            // inside `out`; the enclosing scope keeps the allocation alive
            // for every worker.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out.0.add(iy * g.stride + g.col0 + ox), cx)
            };
            combine(iy, ox, dst, &row[g.kw - 1..][..cx]);
        };
        let rows = g.kh - 1..g.kh - 1 + cy;
        rfft.convolve(input, kspec, rows, work, &mut emit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_plan_admits_valid_output_and_covers_kernel() {
        for &(nx, ny, kw, kh) in &[
            (128usize, 128usize, 65usize, 65usize),
            (32, 32, 17, 17),
            (256, 8, 33, 9),
            (5, 5, 3, 7),
            (1, 1, 1, 1),
        ] {
            let t = plan_tiles(nx, ny, kw, kh);
            assert!(t.fft_nx.is_power_of_two() && t.fft_ny.is_power_of_two());
            assert!(t.fft_nx >= kw && t.fft_ny >= kh, "{t:?} vs kernel {kw}x{kh}");
            let (vx, vy) = t.valid(kw, kh);
            assert!(vx >= 1 && vy >= 1);
            // Never larger than one tile covering the whole problem.
            assert!(t.fft_nx <= (nx + kw - 1).next_power_of_two());
            assert!(t.fft_ny <= (ny + kh - 1).next_power_of_two());
            let (tx, ty) = t.tiles(nx, ny, kw, kh);
            assert!(tx * vx >= nx && ty * vy >= ny, "tiles must cover the output");
        }
    }

    #[test]
    fn bounded_tile_plan_caps_sides_unless_the_kernel_is_wider() {
        // Unbounded, a 193² kernel over a 384² output takes 512² tiles.
        assert_eq!(plan_tiles(384, 384, 193, 193).fft_nx, 512);
        let cases = [(384usize, 384usize, 193usize, 193usize), (300, 40, 17, 300), (5, 5, 3, 3)];
        for &(nx, ny, kw, kh) in &cases {
            let t = plan_tiles_within(nx, ny, kw, kh, 256);
            assert!(t.fft_nx <= 256.max(kw.next_power_of_two()), "{t:?}");
            assert!(t.fft_ny <= 256.max(kh.next_power_of_two()), "{t:?}");
            assert!(t.fft_nx >= kw && t.fft_ny >= kh);
            let (tx, ty) = t.tiles(nx, ny, kw, kh);
            let (vx, vy) = t.valid(kw, kh);
            assert!(tx * vx >= nx && ty * vy >= ny, "tiles must cover the output");
            assert_eq!(plan_tiles_within(nx, ny, kw, kh, usize::MAX), plan_tiles(nx, ny, kw, kh));
        }
    }

    #[test]
    fn tile_plan_is_deterministic() {
        assert_eq!(plan_tiles(128, 128, 65, 65), plan_tiles(128, 128, 65, 65));
    }

    #[test]
    fn effective_workers_clamps_to_tile_count() {
        let shape = plan_tiles(128, 128, 65, 65);
        let (tx, ty) = shape.tiles(128, 128, 65, 65);
        assert_eq!(effective_workers(shape, 128, 128, 65, 65, 1000), tx * ty);
        assert_eq!(effective_workers(shape, 128, 128, 65, 65, 0), 1);
        assert_eq!(effective_workers(shape, 128, 128, 65, 65, 1), 1);
    }

    #[test]
    fn real_scratch_footprint_counts_what_an_arena_allocates() {
        for (fx, fy) in [(1usize, 1usize), (2, 8), (64, 16), (512, 512)] {
            let shape = TileShape { fft_nx: fx, fft_ny: fy };
            let rfft = RealFft2d::new(fx, fy);
            let per_arena = rfft.workspace().samples();
            let kernel = rfft.forward(RealTile { data: &[], pitch: 0, width: 0, height: 0 }).samples();
            let want = (3 * per_arena + kernel) as u128;
            assert_eq!(shape.scratch_samples_real(3), want, "{fx}x{fy}");
        }
    }

    #[test]
    fn real_scratch_footprint_scales_with_workers() {
        let shape = TileShape { fft_nx: 64, fft_ny: 32 };
        let one = shape.scratch_samples_real(1);
        let four = shape.scratch_samples_real(4);
        assert!(four > one);
        // Shared kernel spectrum is counted once, per-worker arena four
        // times.
        let packed = 2 * (64u128 / 2 + 1) * 32;
        assert_eq!(four - packed, 4 * (one - packed));
    }

    #[test]
    fn the_kernel_spectrum_cache_keeps_the_last_few_shapes_and_their_bits() {
        use crate::kernel::KernelSizing;
        use crate::noise::NoiseField;
        use rrs_spectrum::{Gaussian, SurfaceParams};
        let kernel = ConvolutionKernel::build(
            &Gaussian::new(SurfaceParams::isotropic(1.0, 2.0)),
            KernelSizing::default(),
        );
        let (kw, kh) = kernel.extent();
        let ctx = GenContext::new().with_workers(1);
        let noise = NoiseField::new(5);
        // Output sizes whose tile plans are pairwise distinct, run twice
        // in turn: more shapes than the cache keeps.
        let mut sizes: Vec<(usize, usize)> = Vec::new();
        let mut shapes: Vec<TileShape> = Vec::new();
        for n in [8usize, 40, 100, 200, 400] {
            for m in [8usize, 40, 100] {
                let shape = plan_tiles(n, m, kw, kh);
                if !shapes.contains(&shape) {
                    sizes.push((n, m));
                    shapes.push(shape);
                }
            }
        }
        assert!(sizes.len() > SPECTRA_PER_ENGINE, "{shapes:?}");
        let engine = FftEngine::default();
        let convolve = |engine: &FftEngine, (n, m): (usize, usize)| {
            let win = noise.window(0, 0, n + kw - 1, m + kh - 1);
            engine.convolve(&ctx, &kernel, &win, n, m).expect("convolves")
        };
        let bits = |g: &Grid2<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let first: Vec<_> = sizes.iter().map(|&size| bits(&convolve(&engine, size))).collect();
        for (&size, want) in sizes.iter().zip(&first) {
            let got = bits(&convolve(&engine, size));
            assert!(engine.cached_shapes().len() <= SPECTRA_PER_ENGINE);
            assert_eq!(&got, want, "{size:?} after eviction");
            // Against an engine that never evicted.
            assert_eq!(got, bits(&convolve(&FftEngine::default(), size)), "{size:?}");
        }
        let last: Vec<_> = shapes[shapes.len() - SPECTRA_PER_ENGINE..]
            .iter()
            .map(|s| (s.fft_nx, s.fft_ny))
            .collect();
        assert_eq!(engine.cached_shapes(), last, "the most recent shapes, oldest first");
    }
}
