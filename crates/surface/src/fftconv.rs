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
//! `rrs-par` workers. Each worker owns a private [`TileArena`] (packed
//! spectrum holding the real tile, lane workspace), so steady-state tile
//! processing allocates nothing and workers never contend. Each tile is
//! one [`RealFft2d::convolve_in_place`], which inverts only the tile's
//! valid output rows. Tiles write strictly disjoint output regions, so
//! the result is bit-identical for every worker count.
//!
//! [`FftEngine`] caches each kernel's packed spectrum per tile shape,
//! which suits one kernel serving many windows.
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
use rrs_fft::{Lane, RealFft2d, LANES};
use rrs_grid::Grid2;
use rrs_num::complex::{as_f64s, as_f64s_mut};
use rrs_num::Complex64;
use rrs_obs::{stage, ObsSink, Recorder, Shard};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// f64-equivalents: each worker arena holds a packed spectrum (which
    /// also carries the real tile, transformed in place) and the batched
    /// transforms' lane workspace — a real and an imaginary plane of
    /// [`LANES`] lanes, `2·LANES·(max(fft_nx/2, fft_ny) + 1)` f64s
    /// ([`RealFft2d::scratch_len`]) — and one packed kernel spectrum is
    /// shared. Deterministic in its arguments, so admission control and
    /// the convolve loop agree on the footprint.
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
    fx: usize,
    fy: usize,
    /// `f64`s per packed spectrum row: `2·(fx/2 + 1)`, which is `fx + 2`
    /// except for `fx = 1`.
    pitch: usize,
    vx: usize,
    vy: usize,
    tiles_x: usize,
}

/// One worker's private workspace: every buffer the per-tile pipeline
/// touches, sized once at dispatch so the tile loop allocates nothing.
/// The tile's real samples live in the spectrum buffer itself (row `r`
/// in the first `fft_nx` `f64`s of packed row `r`, [`TileGeom::pitch`]
/// `f64`s long), transformed in place; `lanes` is the batched
/// transforms' workspace.
struct TileArena {
    spec: Vec<Complex64>,
    lanes: Vec<Lane>,
}

impl TileArena {
    fn new(rfft: &RealFft2d) -> Self {
        Self {
            spec: vec![Complex64::ZERO; rfft.packed_len()],
            lanes: vec![[0.0; LANES]; rfft.scratch_len()],
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: workers write strictly disjoint output regions of the pointee
// (each tile's valid-output rectangle belongs to exactly one tile, and
// each tile to exactly one worker).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// The homogeneous generators' overlap-save engine: the packed kernel
/// spectrum cached per tile shape, so repeated windows and strip tiles
/// never re-transform the kernel. Plans come from the request's
/// [`GenContext`].
#[derive(Default)]
pub(crate) struct FftEngine {
    spectra: Mutex<Spectra>,
}

/// Packed kernel spectra keyed by tile shape `(fft_nx, fft_ny)`.
type Spectra = HashMap<(usize, usize), Arc<Vec<Complex64>>>;

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
    /// The packed kernel spectrum on `rfft`'s tile lattice, transformed
    /// once per tile shape.
    fn kernel_spectrum(
        &self,
        kernel: &ConvolutionKernel,
        rfft: &RealFft2d,
        obs: &Recorder,
    ) -> Arc<Vec<Complex64>> {
        let key = rfft.shape();
        if let Some(cached) = lock_spectra(&self.spectra, obs).get(&key) {
            return cached.clone();
        }
        let arc = Arc::new(packed_kernel_spectrum(kernel, rfft));
        lock_spectra(&self.spectra, obs).entry(key).or_insert(arc).clone()
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
        let rfft = ctx.plans.plan_real_observed(tile_shape.fft_nx, tile_shape.fft_ny, &ctx.obs);
        let kspec = self.kernel_spectrum(kernel, &rfft, &ctx.obs);
        let mut out = Grid2::zeros(nx, ny);
        let ww = nx + kw - 1;
        let rows = OutputRows { rows: out.as_mut_slice(), stride: nx, col0: 0 };
        run_rfft(ctx, &rfft, &kspec, kernel, win, ww, nx, ny, rows, &store)?;
        Ok(out)
    }
}

/// The kernel weights zero-padded at the origin of `rfft`'s tile lattice
/// and forward-transformed into a packed Hermitian spectrum.
fn packed_kernel_spectrum(kernel: &ConvolutionKernel, rfft: &RealFft2d) -> Vec<Complex64> {
    let (kw, kh) = kernel.extent();
    let pitch = 2 * rfft.packed_width();
    let weights = kernel.weights();
    let mut spec = vec![Complex64::ZERO; rfft.packed_len()];
    let rows = as_f64s_mut(&mut spec);
    for b in 0..kh {
        rows[b * pitch..b * pitch + kw].copy_from_slice(&weights.row(b)[..kw]);
    }
    rfft.forward_in_place(&mut spec, &mut Vec::new());
    spec
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
    let rfft = ctx.plans.plan_real_observed(tile_shape.fft_nx, tile_shape.fft_ny, &ctx.obs);
    let kspec = packed_kernel_spectrum(kernel, &rfft);
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
/// worker allocates its own arena.
#[allow(clippy::too_many_arguments)]
fn run_rfft(
    ctx: &GenContext,
    rfft: &RealFft2d,
    kspec: &[Complex64],
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
    let pitch = 2 * rfft.packed_width();
    let geom =
        TileGeom { nx, ny, stride, col0, ww, wh, win_pitch, kw, kh, fx, fy, pitch, vx, vy, tiles_x };
    let (obs, budget, chaos) = (&ctx.obs, &ctx.budget, &ctx.chaos);
    let polling = budget.needs_polling();

    let out_ptr = SendPtr(out.rows.as_mut_ptr());
    // One band of tiles through its own arena; its counters are merged
    // whether or not the band finishes.
    let tile_band = |tiles: std::ops::Range<usize>| {
        let mut arena = TileArena::new(rfft);
        let mut shard = obs.shard();
        let result = run_tile_range(
            tiles, geom, win, rfft, kspec, out_ptr, combine, &mut arena, &mut shard, budget,
            polling, chaos,
        );
        obs.absorb(shard);
        result
    };
    let span = obs.start(stage::CORRELATE);
    if workers == 1 {
        tile_band(0..total)?;
    } else {
        // A failed band drops the span unfinished: a failed correlate
        // records no timing, like every other error path.
        rrs_par::try_par_ranges(total, workers, obs, tile_band)?;
        obs.add_counter(stage::CONV_TILES_PARALLEL, total as u64);
    }
    obs.finish(span);
    obs.add_counter(stage::CONV_FFT_TILES, total as u64);
    obs.add_counter(stage::CORRELATE_SAMPLES, (nx * ny) as u64);
    Ok(())
}

/// Processes the flattened tile indices `tiles` through one arena:
/// gather (zero-padded), then one [`RealFft2d::convolve_in_place`]
/// (forward transform, packed multiply, inverse of the valid rows only),
/// and `combine` of the non-wrapped outputs into `out`.
#[allow(clippy::too_many_arguments)]
fn run_tile_range(
    tiles: std::ops::Range<usize>,
    g: TileGeom,
    win: &[f64],
    rfft: &RealFft2d,
    kspec: &[Complex64],
    out: SendPtr,
    combine: Combine<'_>,
    arena: &mut TileArena,
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
        // Gather the segment [ox, ox+fx) × [oy, oy+fy) of the window,
        // zero-padded past its edges, into the real rows of the spectrum
        // buffer.
        let cols = (g.ww - ox).min(g.fx);
        let tile = as_f64s_mut(&mut arena.spec);
        for ty in 0..g.fy {
            let trow = &mut tile[ty * g.pitch..ty * g.pitch + g.fx];
            let wy = oy + ty;
            if wy < g.wh {
                trow[..cols].copy_from_slice(&win[wy * g.win_pitch + ox..][..cols]);
                trow[cols..].fill(0.0);
            } else {
                trow.fill(0.0);
            }
        }
        let cx = (g.nx - ox).min(g.vx);
        let cy = (g.ny - oy).min(g.vy);
        rfft.convolve_in_place(&mut arena.spec, kspec, g.kh - 1..g.kh - 1 + cy, &mut arena.lanes);
        // Merge the non-wrapped outputs.
        let tile = as_f64s(&arena.spec);
        for dy in 0..cy {
            let src = &tile[(g.kh - 1 + dy) * g.pitch + (g.kw - 1)..][..cx];
            // SAFETY: rows [oy, oy+cy) × cols [ox, ox+cx) of the output
            // belong to tile t alone, and `run_rfft` checked they lie
            // inside `out`; the enclosing scope keeps the allocation alive
            // for every worker.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out.0.add((oy + dy) * g.stride + g.col0 + ox), cx)
            };
            combine(oy + dy, ox, dst, src);
        }
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
            let arena = TileArena::new(&rfft);
            let per_arena = 2 * arena.spec.len() + LANES * arena.lanes.len();
            let kernel = 2 * rfft.packed_len();
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
}
