//! The convolution method (paper §2.4, eqn 36).
//!
//! `f[n] = Σ_k w̃[k] · X[n − k]` with `w̃` the centred kernel and `X` unit
//! lattice noise from [`NoiseField`], an unbounded deterministic lattice:
//! any output [`Window`] can be generated independently and windows tile
//! seamlessly (the paper's "arbitrarily long or wide RRS by successive
//! computations"). A caller that owns its noise (a periodic grid, say)
//! materialises the window a request reads and correlates it with
//! [`ConvolutionGenerator::try_correlate_window`]. With the full-size
//! kernel and `X = DFT(u)/√(NxNy)` wrapped into that window, the result is
//! the direct DFT method's surface for the same Hermitian array `u`, as
//! the convolution theorem derivation promises (the tests enforce it).
//!
//! Attach an enabled [`Recorder`] through the generator's [`GenContext`]
//! to time window materialisation and the correlation loops
//! (`window/materialise`, `correlate/inner`) and count per-band output
//! samples (`correlate/samples`); the default disabled recorder records
//! nothing and costs nothing, and enabling it never changes a single
//! output bit.

use crate::context::GenContext;
use crate::fftconv::{self, Combine, FftEngine, OutputRows};
use crate::kernel::{ConvolutionKernel, KernelSizing};
use crate::noise::{NoiseField, NoiseWindow};
use rrs_error::{ErrorKind, RrsError};
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, Recorder};
use rrs_spectrum::Spectrum;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Kernel area (`kw·kh`) above which [`ConvBackend::Auto`] dispatches to
/// the FFT overlap-save engine. Measured with `bench_convolution`'s
/// crossover probes (128×128 output, cropped kernels): at 13×13 the
/// direct path's vectorised row accumulation still wins (FFT ~1.4× slower
/// — tile setup dominates), the engines tie around 19×19–25×25, and FFT
/// pulls ahead monotonically beyond (1.6× at 31×31, 4× at 64×64, 12× at
/// 256×256). The boundary is placed at the last probed size where direct
/// wins; `bench_convolution` fails CI if `Auto` ever resolves to a
/// measurably slower engine, so drift shows up as a gate failure rather
/// than a silent slowdown.
pub(crate) const AUTO_CROSSOVER_KERNEL_AREA: usize = 169;

/// Which engine evaluates the convolution sum (paper eqn 36).
///
/// `#[non_exhaustive]`: backends are an open set; match with a wildcard
/// arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvBackend {
    /// The spatial-domain loop: exact reference semantics, bit-identical
    /// across releases, fastest for small kernels. Pin it to reproduce
    /// output from releases before [`ConvBackend::Auto`] became the
    /// default bit for bit.
    Direct,
    /// Frequency-domain overlap-save tiling (`O(N log N)`) through the
    /// **real-input** pipeline: half-size-trick transforms on packed
    /// Hermitian spectra, tiles dispatched across the generator's
    /// workers with per-worker scratch arenas. Equal to `Direct` within
    /// floating-point roundoff (≤ 1e-9 relative — the property suite
    /// enforces it), bit-identical across worker counts, and dramatically
    /// faster than `Direct` for large kernels.
    FftOverlapSave,
    /// The default. Picks per kernel: `FftOverlapSave` when the kernel
    /// area exceeds the measured crossover (`AUTO_CROSSOVER_KERNEL_AREA`
    /// = 13×13), `Direct` below it. Output equals `Direct`'s within 1e-9
    /// relative error, not bit for bit, wherever it picks the FFT engine;
    /// the inhomogeneous generator resolves each of its kernels this way.
    #[default]
    Auto,
}

impl ConvBackend {
    /// The backend this policy actually runs for a `kw × kh` kernel:
    /// `Auto` resolves through the measured crossover, the explicit
    /// choices return themselves.
    pub fn resolve(self, kw: usize, kh: usize) -> ConvBackend {
        match self {
            ConvBackend::Auto => {
                if kw * kh > AUTO_CROSSOVER_KERNEL_AREA {
                    ConvBackend::FftOverlapSave
                } else {
                    ConvBackend::Direct
                }
            }
            other => other,
        }
    }
}

/// Consecutive failures after which the circuit breaker stops offering
/// the fast rung.
const BREAKER_THRESHOLD: u64 = 3;
/// While the breaker is open, every Nth skipped request is let through
/// as a probe so a recovered fast rung closes the breaker again.
const BREAKER_PROBE_EVERY: u64 = 16;

/// A circuit breaker over a fast path with a fallback: the generators'
/// degradation ladder (a fast evaluator — the FFT engine, or the
/// inhomogeneous generator's kernel-major blend — over the bit-exact
/// reference loop it falls back to), and each endpoint of `rrs-serve`'s
/// sharded client.
///
/// [`BackendHealth::run`] reports every fast attempt here; after
/// `BREAKER_THRESHOLD` (3) *consecutive* failures the breaker opens and
/// requests go straight to the reference rung (ticking
/// [`stage::CONV_BREAKER_SKIPS`]) instead of re-running an engine that
/// keeps failing. Every `BREAKER_PROBE_EVERY`th skipped request probes
/// the fast rung; one success closes the breaker and restarts the probe
/// count, so every open spell probes first at its 16th skip. The
/// reference rung always runs, so a request never fails purely because
/// the breaker is open.
///
/// All state is atomic, so the breaker works under `&self` from
/// concurrent requests; it is heuristic routing state only and never
/// influences the *bits* of a successful result (both rungs compute the
/// same sum).
#[derive(Debug, Default)]
pub struct BackendHealth {
    consec_failures: AtomicU64,
    skipped: AtomicU64,
}

impl BackendHealth {
    /// A closed (healthy) breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims an attempt: whether the fast path should be tried,
    /// advancing the probe counter when the breaker is open.
    pub fn should_try(&self) -> bool {
        if !self.is_open() {
            return true;
        }
        let k = self.skipped.fetch_add(1, Ordering::Relaxed);
        (k + 1) % BREAKER_PROBE_EVERY == 0
    }

    /// Records a successful fast run: closes the breaker and restarts
    /// the probe count. A success with no failures recorded only reads,
    /// so concurrent requests on a healthy generator never write the
    /// shared breaker.
    pub fn record_success(&self) {
        if self.consecutive_failures() != 0 {
            self.consec_failures.store(0, Ordering::Relaxed);
            self.skipped.store(0, Ordering::Relaxed);
        }
    }

    /// Records a failed fast run.
    pub fn record_failure(&self) {
        self.consec_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Current consecutive-failure count of the fast rung.
    pub fn consecutive_failures(&self) -> u64 {
        self.consec_failures.load(Ordering::Relaxed)
    }

    /// True when the fast rung has failed often enough that requests
    /// skip it (outside probe requests).
    pub fn is_open(&self) -> bool {
        self.consecutive_failures() >= BREAKER_THRESHOLD
    }

    /// Runs one request down the two-rung ladder: `fast` unless the
    /// breaker holds it open, then — if `fast` failed degradably (a
    /// worker panic or an injected fault) or was skipped — `reference`,
    /// ticking [`stage::CONV_DEGRADED_TO_DIRECT`]. Any other failure
    /// (cancellation, deadline expiry, admission rejection, invalid
    /// input) reflects the *request*, not the engine, and surfaces
    /// unchanged. Each rung runs under its own `catch_unwind`, so a
    /// failed rung can neither leak a panic nor leave torn samples in
    /// the result the reference rung returns.
    pub fn run<T>(
        &self,
        obs: &Recorder,
        fast: impl FnOnce() -> Result<T, RrsError>,
        reference: impl FnOnce() -> Result<T, RrsError>,
    ) -> Result<T, RrsError> {
        if self.should_try() {
            match contained(fast) {
                Ok(out) => {
                    self.record_success();
                    return Ok(out);
                }
                Err(e) => {
                    self.record_failure();
                    if !is_degradable(&e) {
                        return Err(e);
                    }
                }
            }
        } else {
            obs.add_counter(stage::CONV_BREAKER_SKIPS, 1);
        }
        obs.add_counter(stage::CONV_DEGRADED_TO_DIRECT, 1);
        contained(reference)
    }
}

/// Runs one ladder rung under panic containment: a panic anywhere
/// inside it — a real worker bug, a poisoning unwind, an injected chaos
/// fault on a serial path — surfaces as [`RrsError::WorkerPanicked`].
fn contained<T>(rung: impl FnOnce() -> Result<T, RrsError>) -> Result<T, RrsError> {
    catch_unwind(AssertUnwindSafe(rung))
        .unwrap_or_else(|p| Err(RrsError::worker_panicked(0, p.as_ref())))
}

/// Whether a failed fast attempt should fall to the reference rung:
/// worker panics (real or chaos-injected) and injected faults.
fn is_degradable(e: &RrsError) -> bool {
    matches!(e.kind(), ErrorKind::WorkerPanicked | ErrorKind::FaultInjected)
}

/// Homogeneous surface generator by real-space convolution.
///
/// Configured through one [`GenContext`]
/// ([`ConvolutionGenerator::with_context`]): its backend picks the engine
/// for this kernel ([`ConvolutionGenerator::resolved_backend`]); its
/// budget's deadline and cancel token are polled at band granularity
/// while correlating and its byte ceiling is admitted *before* the noise
/// window or output field is allocated; its chaos schedule is polled at
/// every band slice, FFT tile and plan-cache lookup this generator
/// touches. With the defaults (an unlimited budget, a disabled chaos
/// injector and recorder) every poll is a single branch. Output bits
/// depend only on the kernel, the noise and the engine that ran: the
/// worker count, a recorder and an idle budget change none. FFT tile
/// plans come from the process-wide
/// [`FftPlanCache::global`](rrs_fft::FftPlanCache::global).
pub struct ConvolutionGenerator {
    kernel: ConvolutionKernel,
    ctx: GenContext,
    fft: FftEngine,
    health: BackendHealth,
    /// Noise-window scratch reused across requests (the streaming bench
    /// materialises hundreds of same-shape windows per run). It records
    /// the window it holds, so a consecutive strip evaluates only the
    /// columns it does not share with the previous one. Concurrent
    /// requests that lose the `try_lock` race fall back to a fresh
    /// window, so sharing a generator across threads stays safe.
    scratch: Mutex<NoiseWindow>,
}

impl ConvolutionGenerator {
    /// Builds a generator from a spectrum with the given kernel sizing and
    /// default parallelism.
    pub fn new<S: Spectrum + ?Sized>(spectrum: &S, sizing: KernelSizing) -> Self {
        Self::from_kernel(ConvolutionKernel::build(spectrum, sizing))
    }

    /// Wraps a prebuilt (possibly truncated) kernel with the default
    /// [`GenContext`].
    pub fn from_kernel(kernel: ConvolutionKernel) -> Self {
        Self {
            kernel,
            ctx: GenContext::new(),
            fft: FftEngine::default(),
            health: BackendHealth::new(),
            scratch: Mutex::new(NoiseWindow::default()),
        }
    }

    /// Replaces the whole [`GenContext`] at once — the one way to set
    /// workers, backend, recorder, budget and chaos, and the one a
    /// serving front-end uses to apply wire-decoded per-request options.
    /// The generator's cached kernel spectra stay warm: they depend only
    /// on the kernel and the tile shape.
    pub fn with_context(mut self, ctx: GenContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// The generation context (workers, backend, recorder, budget,
    /// chaos).
    pub fn context(&self) -> &GenContext {
        &self.ctx
    }

    /// Selects the convolution engine. [`ConvBackend::Auto`] (the
    /// default) picks per kernel size; [`ConvBackend::Direct`] keeps the
    /// reference spatial loop — bit-identical across releases;
    /// [`ConvBackend::FftOverlapSave`] evaluates the same sum in the
    /// frequency domain (equal within 1e-9 relative). Each request ticks
    /// [`stage::CONV_BACKEND_DIRECT`] or [`stage::CONV_BACKEND_FFT`] for
    /// the engine it actually ran. Changes only the context's backend,
    /// keeping its other options.
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.ctx = self.ctx.with_backend(backend);
        self
    }

    /// The backend this generator actually runs for its kernel:
    /// `Auto` resolved through the measured crossover.
    pub fn resolved_backend(&self) -> ConvBackend {
        let (kw, kh) = self.kernel.extent();
        self.ctx.backend.resolve(kw, kh)
    }

    /// This generator's circuit breaker over the degradation ladder
    /// `FftOverlapSave → Direct`.
    pub fn backend_health(&self) -> &BackendHealth {
        &self.health
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &ConvolutionKernel {
        &self.kernel
    }

    /// Admission control against the attached budget: `required_bytes` is
    /// the f64 footprint this request would materialise. A rejection ticks
    /// [`stage::BUDGET_REJECT`] and nothing has been allocated yet.
    fn admit(&self, what: &'static str, required_samples: u128) -> Result<(), RrsError> {
        self.ctx.budget.admit(what, required_samples * 8).inspect_err(|_| {
            self.ctx.obs.add_counter(stage::BUDGET_REJECT, 1);
        })
    }

    /// f64s a request for an `nx × ny` output allocates besides its
    /// noise window: the output field and, on the FFT engine, its tile
    /// workspace (the per-worker arenas included, using the same
    /// deterministic worker clamp the engine applies). In u128, so the
    /// estimate itself cannot overflow even for windows far beyond
    /// addressable memory.
    fn footprint(&self, nx: usize, ny: usize) -> u128 {
        let (kw, kh) = self.kernel.extent();
        let workspace = if self.resolved_backend() == ConvBackend::FftOverlapSave {
            let shape = fftconv::plan_tiles(nx, ny, kw, kh);
            let workers = fftconv::effective_workers(shape, nx, ny, kw, kh, self.ctx.workers);
            shape.scratch_samples_real(workers)
        } else {
            0
        };
        nx as u128 * ny as u128 + workspace
    }

    /// Fallible [`ConvolutionGenerator::generate`]: reports a worker
    /// panic as [`RrsError::WorkerPanicked`](rrs_error::RrsError) instead
    /// of propagating the unwind. With a [`Budget`](rrs_error::Budget) attached, an
    /// already-tripped cancel token / expired deadline returns before any
    /// allocation, and a byte ceiling rejects an oversized request
    /// ([`RrsError::BudgetExceeded`]) before the noise window or output
    /// field is materialised.
    pub fn try_generate(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        self.ctx.budget.check()?;
        let (kw, kh) = self.kernel.extent();
        let (ox, oy) = self.kernel.origin();
        // f(n) = Σ_j w̃(j)·X(n−j); offsets j span [ox, ox+kw) × [oy, oy+kh),
        // so the noise window spans [x0−(ox+kw−1), x0+nx−1−ox] — wrapping
        // at the ends of i64 like the noise lattice itself.
        let wx0 = win.x0.wrapping_sub(ox + kw as i64 - 1);
        let wy0 = win.y0.wrapping_sub(oy + kh as i64 - 1);
        let ww = win.nx + kw - 1;
        let wh = win.ny + kh - 1;
        let samples = ww as u128 * wh as u128 + self.footprint(win.nx, win.ny);
        self.admit("convolution generation", samples)?;
        let span = self.ctx.obs.start(stage::WINDOW_MATERIALISE);
        // Reuse the generator's scratch window when uncontended; a second
        // concurrent request simply materialises into its own buffer.
        let mut local = NoiseWindow::default();
        let mut guard = self.scratch.try_lock().ok();
        let window = guard.as_deref_mut().unwrap_or(&mut local);
        let reused = window.try_fill(noise, wx0, wy0, ww, wh)?;
        if reused > 0 {
            self.ctx.obs.add_counter(stage::WINDOW_REUSED_SAMPLES, reused as u64);
        }
        self.ctx.obs.finish(span);
        self.dispatch(window.as_slice(), win.nx, win.ny)
    }

    /// Generates the surface samples requested by `win` from the
    /// unbounded surface defined by `noise`. Windows of the same `noise`
    /// tile seamlessly.
    ///
    /// # Panics
    /// Panics if a worker panics. Fallible callers use
    /// [`ConvolutionGenerator::try_generate`].
    pub fn generate(&self, noise: &NoiseField, win: Window) -> Grid2<f64> {
        self.try_generate(noise, win).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Evaluates an already-materialised window on the resolved
    /// backend: `Direct` runs the reference loop, `FftOverlapSave` runs
    /// the FFT engine down this generator's ladder
    /// ([`BackendHealth::run`]) to the reference loop. Each request
    /// ticks [`stage::CONV_BACKEND_DIRECT`] or [`stage::CONV_BACKEND_FFT`]
    /// for every engine it runs.
    fn dispatch(&self, win: &[f64], nx: usize, ny: usize) -> Result<Grid2<f64>, RrsError> {
        let direct = || {
            self.ctx.obs.add_counter(stage::CONV_BACKEND_DIRECT, 1);
            self.correlate(win, nx, ny)
        };
        if self.resolved_backend() != ConvBackend::FftOverlapSave {
            return direct();
        }
        let fft = || {
            self.ctx.obs.add_counter(stage::CONV_BACKEND_FFT, 1);
            self.fft.convolve(&self.ctx, &self.kernel, win, nx, ny)
        };
        self.health.run(&self.ctx.obs, fft, direct)
    }

    /// Correlates a pre-materialised noise window against the kernel
    /// through the configured backend: `win` must be the row-major
    /// `(nx+kw−1) × (ny+kh−1)` window a `nx × ny` request materialises
    /// (see [`ConvolutionGenerator::try_generate`] for its origin).
    /// Public so a caller that owns its noise (a periodic grid, say) can
    /// correlate it, and so benchmarks and equivalence suites can time
    /// and compare the correlate stage apart from window materialisation.
    /// Admitted like [`ConvolutionGenerator::try_generate`], except that
    /// the caller already owns the noise window: a byte ceiling counts
    /// the output and the engine's workspace.
    pub fn try_correlate_window(
        &self,
        win: &[f64],
        nx: usize,
        ny: usize,
    ) -> Result<Grid2<f64>, RrsError> {
        if nx == 0 || ny == 0 {
            return Err(RrsError::invalid_param(
                "window",
                format!("output window must be non-empty, got {nx}x{ny}"),
            ));
        }
        let (kw, kh) = self.kernel.extent();
        let ww = nx + kw - 1;
        let wh = ny + kh - 1;
        if win.len() != ww * wh {
            return Err(RrsError::shape_mismatch(
                "noise window does not match the requested output",
                format!("{ww}x{wh} = {} samples", ww * wh),
                win.len(),
            ));
        }
        self.ctx.budget.check()?;
        self.admit("window correlation", self.footprint(nx, ny))?;
        self.dispatch(win, nx, ny)
    }

    /// The reference loop over a whole `(nx+kw−1) × (ny+kh−1)` window
    /// into a fresh `nx × ny` grid (see [`correlate_rows`]).
    fn correlate(&self, win: &[f64], nx: usize, ny: usize) -> Result<Grid2<f64>, RrsError> {
        let ww = nx + self.kernel.extent().0 - 1;
        let mut out = Grid2::zeros(nx, ny);
        let rows = OutputRows { rows: out.as_mut_slice(), stride: nx, col0: 0 };
        correlate_rows(&self.ctx, &self.kernel, win, ww, nx, rows, &fftconv::store)?;
        Ok(out)
    }
}

/// Evaluates one kernel's field `w̃ ⊛ X` over an `nx × ny` box and
/// merges it into `out` through `combine` — the building block of
/// generators that weight several kernels' fields into one output (the
/// inhomogeneous generator's kernel-major blend).
///
/// `win` is a view of a noise window covering the box grown by the
/// kernel's reach: its `(nx+kw−1) × (ny+kh−1)` samples are read row by
/// row, `pitch` f64s apart (`pitch ≥ nx+kw−1`), so several kernels can
/// read rectangles of one larger window. Box sample `(ix, iy)` is
/// `Σ_{a,b} w̃[a,b]·win[ix+kw−1−a, iy+kh−1−b]`, the sum
/// [`ConvolutionGenerator`] evaluates on a window of its own.
///
/// The engine is the one `ctx`'s backend resolves to for this kernel
/// ([`ConvBackend::resolve`]): real-input overlap-save tiles of at most
/// 256 a side, with the kernel spectrum transformed for this call alone
/// (nothing but the shared plan outlives it), or the direct reference
/// rows. Tiles and row bands run across the context's workers, and the
/// context's budget and chaos schedule are polled as in the homogeneous
/// generator. Each output sample is delivered to `combine` exactly once.
/// [`convolve_into_workspace`] is what the call allocates besides `out`.
///
/// # Panics
/// Panics if `out` does not cover `nx × ny` samples from column
/// `out.col0`.
#[allow(clippy::too_many_arguments)]
pub fn convolve_into(
    ctx: &GenContext,
    kernel: &ConvolutionKernel,
    win: &[f64],
    pitch: usize,
    nx: usize,
    ny: usize,
    out: OutputRows<'_>,
    combine: Combine<'_>,
) -> Result<(), RrsError> {
    assert!(
        out.col0 + nx <= out.stride && out.rows.len() == ny * out.stride,
        "output rows must cover the {nx}x{ny} request"
    );
    let (kw, kh) = kernel.extent();
    if ctx.backend.resolve(kw, kh) == ConvBackend::Direct {
        correlate_rows(ctx, kernel, win, pitch, nx, out, combine)
    } else {
        fftconv::convolve_tiles_into(ctx, kernel, win, pitch, nx, ny, out, combine)
    }
}

/// The workspace [`convolve_into`] allocates for an `nx × ny` box, in
/// f64s: the tile arenas of the workers it runs and the kernel spectrum
/// on the FFT engine ([`TileShape::scratch_samples_real`] of
/// [`plan_tiles_within`]`(nx, ny, kw, kh, 256)` at
/// [`effective_workers`]), none on direct rows. For admission control
/// before the call.
///
/// [`TileShape::scratch_samples_real`]: crate::TileShape::scratch_samples_real
/// [`plan_tiles_within`]: crate::plan_tiles_within
/// [`effective_workers`]: crate::effective_workers
pub fn convolve_into_workspace(
    ctx: &GenContext,
    kernel: &ConvolutionKernel,
    nx: usize,
    ny: usize,
) -> u128 {
    let (kw, kh) = kernel.extent();
    if ctx.backend.resolve(kw, kh) == ConvBackend::Direct {
        return 0;
    }
    fftconv::box_scratch_samples(kernel, nx, ny, ctx.workers)
}

/// The reference loop: `out` row `iy`, columns `col0 + ix`, receives
/// through `combine` the sum `Σ_{a,b} w̃[a,b] · win[ix + kw−1−a,
/// iy + kh−1−b]` — convolution with the kernel flipped, which realises
/// `Σ_j w̃(j)·X(n−j)` on the materialised window, whose rows lie `pitch`
/// f64s apart. Row bands run across the context's workers.
///
/// Loop structure: for each output row, each kernel row contributes a
/// sub-sum `s_row` accumulated *elementwise over output columns* —
/// `s_row[ix] += w̃[a,b]·win[ix + kw−1−a]` with `ix` innermost over
/// contiguous, independent lanes, which the compiler autovectorizes.
/// Per output sample the floating-point operation sequence (kernel row
/// sub-sum in ascending `a` from zero, then `acc += s` in ascending `b`
/// from zero) is exactly the historical scalar loop's, so output stays
/// bit-identical to every seed release.
fn correlate_rows(
    ctx: &GenContext,
    kernel: &ConvolutionKernel,
    win: &[f64],
    pitch: usize,
    nx: usize,
    out: OutputRows<'_>,
    combine: Combine<'_>,
) -> Result<(), RrsError> {
    let (kw, kh) = kernel.extent();
    let weights = kernel.weights();
    let ww = nx + kw - 1;
    let OutputRows { rows, stride, col0 } = out;
    let span = ctx.obs.start(stage::CORRELATE);
    rrs_par::try_par_rows(
        rows,
        stride,
        ctx.workers,
        &ctx.obs,
        &ctx.budget,
        &ctx.chaos,
        |iy0, chunk| {
            let mut s_row = vec![0.0f64; nx];
            let mut acc = vec![0.0f64; nx];
            let band_rows = chunk.len() / stride;
            for (iy, row) in (iy0..).zip(chunk.chunks_mut(stride)) {
                acc.fill(0.0);
                for b in 0..kh {
                    let krow = weights.row(b);
                    let wrow = &win[(iy + kh - 1 - b) * pitch..][..ww];
                    s_row.fill(0.0);
                    for (a, &kv) in krow.iter().enumerate() {
                        // Σ_a w̃[a,b] · win[ix + kw−1−a]: the reversed
                        // window index becomes a forward slice offset.
                        let wseg = &wrow[kw - 1 - a..][..nx];
                        for (s, &w) in s_row.iter_mut().zip(wseg) {
                            *s += kv * w;
                        }
                    }
                    for (slot, &s) in acc.iter_mut().zip(&s_row) {
                        *slot += s;
                    }
                }
                combine(iy, 0, &mut row[col0..col0 + nx], &acc);
            }
            let mut shard = ctx.obs.shard();
            shard.add(stage::CORRELATE_SAMPLES, (band_rows * nx) as u64);
            ctx.obs.absorb(shard);
        },
    )?;
    ctx.obs.finish(span);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDftGenerator;
    use crate::hermitian::hermitian_gaussian_array;
    use rrs_fft::{Direction, Fft2d};
    use rrs_spectrum::{Gaussian, GridSpec, SurfaceParams};
    use rrs_rng::Xoshiro256pp;

    #[test]
    fn window_shape_and_determinism() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(GenContext::new().with_workers(1));
        let noise = NoiseField::new(5);
        let a = gen.generate(&noise, Window::sized(32, 16));
        assert_eq!(a.shape(), (32, 16));
        let b = gen.generate(&noise, Window::sized(32, 16));
        assert_eq!(a, b);
    }

    #[test]
    fn windows_tile_seamlessly() {
        // The paper's "successive computations" claim, exactly.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Direct),
            );
        let noise = NoiseField::new(11);
        let whole = gen.generate(&noise, Window::sized(64, 32));
        let left = gen.generate(&noise, Window::sized(32, 32));
        let right = gen.generate(&noise, Window::new(32, 0, 32, 32));
        for iy in 0..32 {
            for ix in 0..32 {
                assert!((*whole.get(ix, iy) - *left.get(ix, iy)).abs() < 1e-12);
                assert!((*whole.get(ix + 32, iy) - *right.get(ix, iy)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn vertical_tiles_are_seamless_too() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(
                GenContext::new()
                    .with_workers(2)
                    .with_backend(ConvBackend::Direct),
            );
        let noise = NoiseField::new(13);
        let whole = gen.generate(&noise, Window::new(-5, -5, 24, 48));
        let top = gen.generate(&noise, Window::new(-5, -5 + 24, 24, 24));
        for iy in 0..24 {
            for ix in 0..24 {
                assert!((*whole.get(ix, iy + 24) - *top.get(ix, iy)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn auto_windows_tile_within_roundoff() {
        // The default backend runs this kernel on the FFT engine; windows
        // of different sizes plan different tiles, so seams agree within
        // 1e-9 relative rather than to the bit.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(GenContext::new().with_workers(2));
        assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
        let noise = NoiseField::new(11);
        let whole = gen.generate(&noise, Window::new(-5, -5, 64, 48));
        let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (x0, y0) in [(-5i64, -5i64), (27, -5), (-5, 19)] {
            let part = gen.generate(&noise, Window::new(x0, y0, 32, 24));
            let (ox, oy) = ((x0 + 5) as usize, (y0 + 5) as usize);
            for iy in 0..24 {
                for ix in 0..32 {
                    let err = (*whole.get(ix + ox, iy + oy) - *part.get(ix, iy)).abs();
                    assert!(err <= 1e-9 * scale, "({x0},{y0}) at ({ix},{iy}): {err:e}");
                }
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(3);
        let serial = ConvolutionGenerator::from_kernel(k.clone())
            .with_context(GenContext::new().with_workers(1))
            .generate(&noise, Window::sized(48, 48));
        let parallel = ConvolutionGenerator::from_kernel(k)
            .with_context(GenContext::new().with_workers(5))
            .generate(&noise, Window::sized(48, 48));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn surface_statistics_match_target() {
        let h = 1.5;
        let cl = 6.0;
        let s = Gaussian::new(SurfaceParams::isotropic(h, cl));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default());
        let f = gen.generate(&NoiseField::new(21), Window::sized(256, 256));
        let measured = f.std_dev();
        let patches = (256.0 / cl) * (256.0 / cl);
        let tol = 4.5 * h / patches.sqrt();
        assert!((measured - h).abs() < tol, "ĥ = {measured} (target {h} ± {tol})");
    }

    #[test]
    fn matches_direct_dft_method_exactly() {
        // Drive both methods with the same Hermitian array u:
        //   direct:      f = DFT(v·u)
        //   convolution: f = w̃ ⊛ X,  X = DFT(u)/√(NxNy)
        // The convolution theorem says these are the same surface.
        let p = SurfaceParams::isotropic(1.3, 5.0);
        let s = Gaussian::new(p);
        let spec = GridSpec::unit(32, 32);
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let u = hermitian_gaussian_array(spec.nx, spec.ny, &mut rng);

        let f_direct = DirectDftGenerator::with_workers(s, spec, 1).generate_from_bins(&u);

        let mut x = u.clone();
        Fft2d::new(spec.nx, spec.ny).process(&mut x, Direction::Forward, 1);
        let scale = 1.0 / ((spec.nx * spec.ny) as f64).sqrt();
        let kernel = ConvolutionKernel::build(&s, KernelSizing::Explicit(spec));
        // The window an nx × ny request at the origin reads, wrapped from
        // the periodic grid X: window sample (p, q) is X at lattice point
        // (p − (ox+kw−1), q − (oy+kh−1)) mod (nx, ny).
        let (kw, kh) = kernel.extent();
        let (ox, oy) = kernel.origin();
        let wrap = |i: usize, o: i64, k: usize, n: usize| {
            (i as i64 - (o + k as i64 - 1)).rem_euclid(n as i64) as usize
        };
        let win: Vec<f64> = (0..spec.ny + kh - 1)
            .flat_map(|q| (0..spec.nx + kw - 1).map(move |p| (p, q)))
            .map(|(p, q)| {
                let (sx, sy) = (wrap(p, ox, kw, spec.nx), wrap(q, oy, kh, spec.ny));
                x[sy * spec.nx + sx].re * scale
            })
            .collect();
        let f_conv = ConvolutionGenerator::from_kernel(kernel)
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Direct),
            )
            .try_correlate_window(&win, spec.nx, spec.ny)
            .unwrap();

        let max_err = f_direct
            .as_slice()
            .iter()
            .zip(f_conv.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_err < 1e-9, "methods disagree by {max_err}");
    }

    #[test]
    fn truncated_kernel_stays_statistically_faithful() {
        let h = 1.0;
        let s = Gaussian::new(SurfaceParams::isotropic(h, 5.0));
        let full = ConvolutionKernel::build(&s, KernelSizing::default());
        let trunc = full.truncated(1e-3);
        assert!(trunc.extent().0 < full.extent().0);
        let f = ConvolutionGenerator::from_kernel(trunc)
            .generate(&NoiseField::new(8), Window::sized(192, 192));
        assert!((f.std_dev() - h).abs() < 0.15, "ĥ = {}", f.std_dev());
    }

    #[test]
    fn empty_window_rejected() {
        // Window construction is where emptiness is rejected now that the
        // positional wrappers are gone.
        let err = Window::try_new(0, 0, 0, 4).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::InvalidParam);
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 3.0));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default());
        let err = gen.try_correlate_window(&[], 0, 4).unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }

    #[test]
    fn budgeted_idle_run_is_bit_identical() {
        use rrs_error::{Budget, CancelToken};
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(41);
        let win = Window::new(-7, 3, 40, 28);
        let plain = ConvolutionGenerator::from_kernel(k.clone())
            .with_context(GenContext::new().with_workers(3))
            .generate(&noise, win);
        let budget = Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(std::time::Duration::from_secs(3600))
            .with_max_bytes(usize::MAX);
        let budgeted = ConvolutionGenerator::from_kernel(k)
            .with_context(GenContext::new().with_workers(3).with_budget(budget))
            .try_generate(&noise, win)
            .unwrap();
        assert_eq!(plain, budgeted, "armed-but-idle budget must not change a single bit");
    }

    #[test]
    fn pre_cancelled_request_fails_before_allocating() {
        use rrs_error::{Budget, CancelToken};
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let token = CancelToken::new();
        token.cancel();
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(
                GenContext::new()
                    .with_budget(Budget::unlimited().with_cancel_token(token)),
            );
        // A window this large would abort the process if the generator
        // tried to materialise it; returning Cancelled proves the
        // pre-flight check fires first.
        let win = Window::new(0, 0, 1 << 30, 1 << 30);
        let err = gen.try_generate(&NoiseField::new(1), win).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
    }

    #[test]
    fn admission_rejects_oversized_requests_before_allocating() {
        use rrs_error::Budget;
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(
                GenContext::new()
                    .with_recorder(rec.clone())
                    .with_budget(Budget::unlimited().with_max_bytes(1 << 20)),
            );
        // Would abort the allocator if admission did not fire first.
        let win = Window::new(0, 0, 1 << 30, 1 << 30);
        let err = gen.try_generate(&NoiseField::new(1), win).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::BudgetExceeded);
        assert!(err.to_string().contains("convolution generation"), "{err}");
        assert_eq!(rec.report().counter(stage::BUDGET_REJECT), 1);
        // A window that fits the ceiling still generates.
        let small = Window::sized(8, 8);
        assert_eq!(gen.try_generate(&NoiseField::new(1), small).unwrap().shape(), (8, 8));
    }

    #[test]
    fn observed_run_is_bit_identical_and_reports_stages() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let plain = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(GenContext::new().with_workers(2));
        let rec = Recorder::enabled();
        let kernel = ConvolutionKernel::build_observed(&s, KernelSizing::default(), &rec);
        let observed = ConvolutionGenerator::from_kernel(kernel)
            .with_context(GenContext::new().with_workers(2).with_recorder(rec.clone()));
        let noise = NoiseField::new(19);
        let win = Window::new(-4, 6, 40, 24);
        assert_eq!(plain.generate(&noise, win), observed.generate(&noise, win));
        let report = rec.report();
        for name in [
            stage::KERNEL_AMPLITUDE,
            stage::KERNEL_DFT,
            stage::KERNEL_PERMUTE,
            stage::WINDOW_MATERIALISE,
            stage::CORRELATE,
        ] {
            assert!(report.durations.contains_key(name), "missing stage {name}");
        }
        assert_eq!(report.counter(stage::CORRELATE_SAMPLES), 40 * 24);
        assert!(report.counter(stage::PAR_BANDS) >= 2);
    }

    #[test]
    fn injected_fft_faults_degrade_to_direct_bit_identical() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(41);
        let win = Window::sized(24, 24);
        let clean = ConvolutionGenerator::from_kernel(k.clone())
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Direct),
            )
            .generate(&noise, win);
        // The serial tile loop visits FftTile deterministically: an error
        // or a panic (to prove rung-level containment) at visit 0 fails
        // the FFT rung, and the Direct rung — the reference loop — serves
        // the request.
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let chaos =
                ChaosInjector::new(FaultSchedule::new(1).with_fault(FaultSite::FftTile, kind, 0));
            let rec = Recorder::enabled();
            let gen = ConvolutionGenerator::from_kernel(k.clone())
                .with_context(
                    GenContext::new()
                        .with_workers(1)
                        .with_backend(ConvBackend::FftOverlapSave)
                        .with_recorder(rec.clone())
                        .with_chaos(chaos.clone()),
                );
            let got = gen.try_generate(&noise, win).unwrap();
            assert_eq!(got, clean, "{kind:?}: degraded output must be bit-identical to Direct");
            let report = rec.report();
            assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
            assert_eq!(chaos.visits(FaultSite::FftTile), 1, "one poll on the failed rung");
            assert_eq!(chaos.injected(), 1);
            assert_eq!(gen.backend_health().consecutive_failures(), 1);

            // The schedule is exhausted: the same generator now serves the
            // FFT path cleanly and the breaker closes again.
            let again = gen.try_generate(&noise, win).unwrap();
            let scale = clean.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
            for (a, b) in again.as_slice().iter().zip(clean.as_slice()) {
                assert!((a - b).abs() <= 1e-9 * scale);
            }
            assert_eq!(gen.backend_health().consecutive_failures(), 0);
        }
    }

    #[test]
    fn non_degradable_errors_surface_unchanged() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        // A Cancel fault reflects the request, not the engine: no ladder
        // retry, no degradation counter.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let chaos = ChaosInjector::new(
            FaultSchedule::new(3).with_fault(FaultSite::FftTile, FaultKind::Cancel, 0),
        );
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::FftOverlapSave)
                    .with_recorder(rec.clone())
                    .with_chaos(chaos),
            );
        let err = gen.try_generate(&NoiseField::new(5), Window::sized(16, 16)).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
        assert_eq!(rec.report().counter(stage::CONV_DEGRADED_TO_DIRECT), 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_every_16th() {
        let h = BackendHealth::new();
        assert!(h.should_try());
        for _ in 0..BREAKER_THRESHOLD {
            h.record_failure();
        }
        assert!(h.is_open());
        let allowed = (0..2 * BREAKER_PROBE_EVERY).filter(|_| h.should_try()).count();
        assert_eq!(allowed, 2, "exactly one probe per {BREAKER_PROBE_EVERY} skips");
        h.record_success();
        assert!(!h.is_open());
        assert!(h.should_try());
    }

    #[test]
    fn a_success_restarts_the_probe_count() {
        // The sharded client attempts an endpoint without asking when
        // every breaker is open; that success must not leave the next
        // open spell's first probe early.
        let h = BackendHealth::new();
        let open = |h: &BackendHealth| (0..BREAKER_THRESHOLD).for_each(|_| h.record_failure());
        open(&h);
        assert!(!(0..5).any(|_| h.should_try()), "no probe within the first five skips");
        h.record_success();
        open(&h);
        let first_probe = (1..=BREAKER_PROBE_EVERY).find(|_| h.should_try());
        assert_eq!(first_probe, Some(BREAKER_PROBE_EVERY));
    }

    #[test]
    fn open_breakers_skip_straight_to_direct_but_never_fail_a_request() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        let noise = NoiseField::new(47);
        let win = Window::sized(18, 18);
        let clean = ConvolutionGenerator::from_kernel(k.clone())
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Direct),
            )
            .generate(&noise, win);
        let rec = Recorder::enabled();
        let gen = ConvolutionGenerator::from_kernel(k)
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::FftOverlapSave)
                    .with_recorder(rec.clone()),
            );
        for _ in 0..BREAKER_THRESHOLD {
            gen.backend_health().record_failure();
        }
        let got = gen.try_generate(&noise, win).unwrap();
        assert_eq!(got, clean, "Direct always serves when the FFT rung is open");
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_BREAKER_SKIPS), 1);
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 1);
        assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 0);
    }
}
