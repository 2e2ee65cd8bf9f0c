//! The inhomogeneous convolution generator (eqns 37 and 46).
//!
//! A [`WeightMap`] answers "which kernels, with what weights, at this
//! sample"; the generator evaluates, for every output sample `n`,
//!
//! ```text
//! f(n) = Σ_i g_i(n) · (w̃_i ⊛ X)(n)
//! ```
//!
//! which by linearity equals convolving the blended kernel
//! `Σ_i g_i(n)·w̃_i` of eqns (37)/(46) with the noise. Two evaluators
//! compute that sum:
//!
//! * the **kernel-major blend** (every backend but
//!   [`ConvBackend::Direct`]): one weights pass finds each kernel's
//!   bounding box of nonzero weight and tags every sample that is pure
//!   for one kernel; one noise window covers every kernel's box grown by
//!   its reach; then, kernel by kernel in index order,
//!   [`rrs_surface::convolve_into`] evaluates the field `w̃_i ⊛ X` over
//!   that box from a view of the shared window — on the real-input
//!   overlap-save engine, or by the direct loop where
//!   [`ConvBackend::resolve`] picks `Direct` for the kernel's size — and
//!   `g_i(n)·field_i(n)` is added into the output as each tile or row is
//!   computed, so no field is ever stored. `O(K·N log N)` instead of
//!   `O(N·|kernel|)`, equal to the per-sample loop within 1e-9 relative
//!   error;
//! * the **per-sample loop** ([`ConvBackend::Direct`], and the rung a
//!   failed blend degrades to): one homogeneous-kernel dot product per
//!   active kernel per sample, bit-identical to every earlier release.
//!
//! The blend runs down the same two-rung ladder as the homogeneous
//! generator ([`BackendHealth::run`]), so a blend that keeps failing
//! opens this generator's circuit breaker.

use rrs_chaos::ChaosInjector;
use rrs_error::{Budget, RrsError};
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, Recorder};
use rrs_spectrum::SpectrumModel;
use rrs_surface::{
    convolve_into, convolve_into_workspace, BackendHealth, ConvBackend, ConvolutionKernel,
    GenContext, KernelSizing, NoiseField, OutputRows,
};
use std::convert::Infallible;
use std::sync::Mutex;

/// The weights pass's tag for a sample that is not pure for a single
/// kernel below this index: the blend looks its weights up again. Any
/// other tag is the one kernel weighing exactly 1 there.
const BLENDED: u8 = u8::MAX;

/// Assigns per-sample kernel weights; implemented by
/// [`crate::PlateLayout`] and [`crate::PointLayout`].
pub trait WeightMap: Send + Sync {
    /// Number of kernels the map refers to.
    fn kernel_count(&self) -> usize;

    /// The spectra backing each kernel index, in order.
    fn spectra(&self) -> Vec<SpectrumModel>;

    /// Writes the non-zero `(kernel_index, weight)` pairs at `(x, y)` into
    /// `out` (cleared first). Weights are non-negative and sum to 1.
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>);
}

impl WeightMap for Box<dyn WeightMap> {
    fn kernel_count(&self) -> usize {
        (**self).kernel_count()
    }
    fn spectra(&self) -> Vec<SpectrumModel> {
        (**self).spectra()
    }
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        (**self).weights_at(x, y, out)
    }
}

/// What one weights pass over a window learns (besides the per-sample
/// tags): each kernel's bounding box of nonzero weight and the
/// kernel-selection counts the per-sample loop records.
struct WeightScan {
    /// Per kernel, window-local `(x0, x1, y0, y1)`: nonzero weight only
    /// on `[x0, x1) × [y0, y1)` (none while `x0 >= x1`).
    boxes: Vec<(usize, usize, usize, usize)>,
    pure: u64,
    blended: u64,
    evals: u64,
}

impl WeightScan {
    fn new(kernels: usize) -> Self {
        let empty = (usize::MAX, 0, usize::MAX, 0);
        Self { boxes: vec![empty; kernels], pure: 0, blended: 0, evals: 0 }
    }

    /// Folds in another band's rows.
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.boxes.iter_mut().zip(&other.boxes) {
            *a = (a.0.min(b.0), a.1.max(b.1), a.2.min(b.2), a.3.max(b.3));
        }
        self.pure += other.pure;
        self.blended += other.blended;
        self.evals += other.evals;
    }

    /// Kernel `ki`'s pass, if it weighs anywhere.
    fn pass(&self, ki: usize, kernel: &ConvolutionKernel) -> Option<KernelPass> {
        let (x0, x1, y0, y1) = self.boxes[ki];
        let (kw, kh) = kernel.extent();
        let (ox, oy) = kernel.origin();
        // f(n) = Σ_j w̃(j)·X(n−j): the box grown by the kernel's own reach.
        (x0 < x1).then(|| KernelPass {
            ki,
            bx: x0,
            by: y0,
            nx: x1 - x0,
            ny: y1 - y0,
            lx: x0 as i64 - (ox + kw as i64 - 1),
            ly: y0 as i64 - (oy + kh as i64 - 1),
            ww: x1 - x0 + kw - 1,
            wh: y1 - y0 + kh - 1,
        })
    }
}

/// One active kernel's share of a blended window, in window-local
/// offsets: the `nx × ny` box of nonzero weight at `(bx, by)`, and the
/// `ww × wh` noise its field reads at `(lx, ly)` (negative where the
/// kernel reaches past the window's lower edges).
struct KernelPass {
    ki: usize,
    bx: usize,
    by: usize,
    nx: usize,
    ny: usize,
    lx: i64,
    ly: i64,
    ww: usize,
    wh: usize,
}

/// One kernel per spectrum, built once per distinct spectrum: a layout
/// that repeats a spectrum (Figure 4's ring points share three spectra)
/// gets clones of the first build. A build is a pure function of the
/// spectrum, so a clone has the bits a second build would have.
fn build_once<E>(
    spectra: &[SpectrumModel],
    build: impl Fn(&SpectrumModel) -> Result<ConvolutionKernel, E>,
) -> Result<Vec<ConvolutionKernel>, E> {
    let mut kernels: Vec<ConvolutionKernel> = Vec::with_capacity(spectra.len());
    for (i, s) in spectra.iter().enumerate() {
        let kernel = match spectra[..i].iter().position(|t| t == s) {
            Some(j) => kernels[j].clone(),
            None => build(s)?,
        };
        kernels.push(kernel);
    }
    Ok(kernels)
}

/// Inhomogeneous surface generator over any [`WeightMap`].
///
/// Configured through one [`GenContext`]
/// ([`InhomogeneousGenerator::with_context`]). Its backend picks the
/// evaluator. Every policy but [`ConvBackend::Direct`] runs the
/// kernel-major blend (see the module docs) whenever a kernel resolves to
/// the FFT engine: each kernel's field over its own box of nonzero weight,
/// from the real-input overlap-save engine — or from direct dot products
/// for a kernel [`ConvBackend::resolve`] sends to `Direct` — weighted and
/// summed in kernel-index order. That covers pure windows and windows
/// across transition bands alike, equals the per-sample loop within 1e-9
/// relative error, and is bit-identical across worker counts. A blend that
/// fails on a worker panic or an injected fault degrades to the per-sample
/// loop (`conv/degraded_to_direct`), behind this generator's circuit
/// breaker ([`InhomogeneousGenerator::backend_health`]).
/// [`ConvBackend::Direct`] runs the per-sample loop only and is
/// bit-identical to previous releases; pin it to reproduce their output
/// exactly.
///
/// The context's budget polls its deadline and cancel token per FFT tile,
/// per row of the blend's weights pass and per band of every other
/// blending pass, and its byte ceiling is admitted before any sample tags,
/// noise window or output is allocated. An enabled recorder times window
/// materialisation, FFT tiles and the blending passes, and counts the
/// kernel-selection mix (`inhomo/pure_samples`, `inhomo/blended_samples`,
/// `inhomo/kernel_evals`) with the same values on every backend. Neither
/// an idle budget, a recorder nor a disabled chaos injector changes an
/// output bit.
pub struct InhomogeneousGenerator<M> {
    map: M,
    kernels: Vec<ConvolutionKernel>,
    ctx: GenContext,
    health: BackendHealth,
    // The union of every kernel's reach: the per-sample loop's noise
    // window margins.
    reach_left: i64,
    reach_right: i64,
    reach_down: i64,
    reach_up: i64,
}

impl<M: WeightMap> InhomogeneousGenerator<M> {
    /// Builds the generator, constructing one kernel per map entry with
    /// the given sizing policy. Entries with equal spectra share one
    /// build (see [`build_once`]).
    pub fn new(map: M, sizing: KernelSizing) -> Self {
        let Ok(kernels) = build_once(&map.spectra(), |s| {
            Ok::<_, Infallible>(ConvolutionKernel::build(s, sizing))
        });
        Self::from_kernels(map, kernels)
    }

    /// Builds the generator with kernel truncation (`epsilon` relative
    /// root-energy loss) — the ablation knob for transition fidelity vs
    /// speed.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1`. Fallible callers use
    /// [`InhomogeneousGenerator::try_new_truncated`].
    pub fn new_truncated(map: M, sizing: KernelSizing, epsilon: f64) -> Self {
        Self::try_new_truncated(map, sizing, epsilon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`InhomogeneousGenerator::new_truncated`].
    pub fn try_new_truncated(
        map: M,
        sizing: KernelSizing,
        epsilon: f64,
    ) -> Result<Self, RrsError> {
        let kernels = build_once(&map.spectra(), |s| {
            ConvolutionKernel::build(s, sizing).try_truncated(epsilon, &Recorder::disabled())
        })?;
        Self::try_from_kernels(map, kernels)
    }

    /// Wraps explicit kernels (must match `map.kernel_count()`).
    ///
    /// # Panics
    /// Panics on a count mismatch or an empty kernel list. Fallible
    /// callers use [`InhomogeneousGenerator::try_from_kernels`].
    pub fn from_kernels(map: M, kernels: Vec<ConvolutionKernel>) -> Self {
        Self::try_from_kernels(map, kernels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`InhomogeneousGenerator::from_kernels`].
    pub fn try_from_kernels(map: M, kernels: Vec<ConvolutionKernel>) -> Result<Self, RrsError> {
        if kernels.len() != map.kernel_count() {
            return Err(RrsError::shape_mismatch(
                "kernel count must match the weight map",
                map.kernel_count(),
                kernels.len(),
            ));
        }
        if kernels.is_empty() {
            return Err(RrsError::invalid_param("kernels", "need at least one kernel"));
        }
        let mut reach_left = 0i64;
        let mut reach_right = 0i64;
        let mut reach_down = 0i64;
        let mut reach_up = 0i64;
        for k in &kernels {
            let (w, h) = k.extent();
            let (ox, oy) = k.origin();
            reach_left = reach_left.max(ox + w as i64 - 1);
            reach_right = reach_right.max(-ox);
            reach_down = reach_down.max(oy + h as i64 - 1);
            reach_up = reach_up.max(-oy);
        }
        Ok(Self {
            map,
            kernels,
            ctx: GenContext::new(),
            health: BackendHealth::new(),
            reach_left,
            reach_right,
            reach_down,
            reach_up,
        })
    }

    /// Replaces the whole [`GenContext`] at once, like the homogeneous
    /// generators' `with_context`.
    pub fn with_context(mut self, ctx: GenContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// The generation context (workers, backend, recorder, budget,
    /// chaos).
    pub fn context(&self) -> &GenContext {
        &self.ctx
    }

    /// The evaluator this generator runs: [`ConvBackend::Direct`] (the
    /// per-sample loop) when the policy resolves every kernel to `Direct`,
    /// otherwise [`ConvBackend::FftOverlapSave`] (the kernel-major blend).
    pub fn resolved_backend(&self) -> ConvBackend {
        let fft = self.kernels.iter().any(|k| {
            let (kw, kh) = k.extent();
            self.ctx.backend().resolve(kw, kh) != ConvBackend::Direct
        });
        if fft {
            ConvBackend::FftOverlapSave
        } else {
            ConvBackend::Direct
        }
    }

    /// This generator's circuit breaker over the degradation ladder
    /// blend → per-sample loop.
    pub fn backend_health(&self) -> &BackendHealth {
        &self.health
    }

    /// The kernels, in map order.
    pub fn kernels(&self) -> &[ConvolutionKernel] {
        &self.kernels
    }

    /// The weight map.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// Fallible [`InhomogeneousGenerator::generate`]: reports worker
    /// panics as [`RrsError::WorkerPanicked`] instead of propagating the
    /// unwind. With a [`Budget`] attached, a tripped cancel/deadline
    /// returns before any allocation and a byte ceiling rejects oversized
    /// requests with [`RrsError::BudgetExceeded`] before any noise window
    /// or output is materialised.
    pub fn try_generate(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        self.ctx.budget().check()?;
        if self.resolved_backend() == ConvBackend::Direct {
            return self.generate_per_sample(noise, win);
        }
        // The weights pass is O(nx·ny) map lookups writing one tag byte
        // per sample: admit the output and the tags first, so an
        // oversized request fails the byte ceiling before any of that
        // work runs.
        let samples = win.nx as u128 * win.ny as u128;
        self.admit(8 * samples + samples)?;
        // A blend that fails on a worker panic or an injected fault
        // degrades to the per-sample loop, the bit-exact reference
        // evaluator, which shares no FFT machinery.
        self.health.run(
            self.ctx.recorder(),
            || self.generate_blended(noise, win),
            || self.generate_per_sample(noise, win),
        )
    }

    /// Generates the surface samples requested by `win` from the
    /// unbounded inhomogeneous surface driven by `noise`. Windows tile
    /// seamlessly.
    ///
    /// # Panics
    /// Panics if a worker panics. Fallible callers use
    /// [`InhomogeneousGenerator::try_generate`].
    pub fn generate(&self, noise: &NoiseField, win: Window) -> Grid2<f64> {
        self.try_generate(noise, win).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Admission control: `bytes` against the byte ceiling. A rejection
    /// ticks [`stage::BUDGET_REJECT`].
    fn admit(&self, bytes: u128) -> Result<(), RrsError> {
        self.ctx.budget().admit("inhomogeneous generation", bytes).inspect_err(|_| {
            self.ctx.recorder().add_counter(stage::BUDGET_REJECT, 1);
        })
    }

    /// The per-sample loop: for every output sample, one dot product per
    /// active kernel against a noise window covering every kernel's
    /// reach.
    fn generate_per_sample(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        self.ctx.recorder().add_counter(stage::CONV_BACKEND_DIRECT, 1);
        let Window { x0, y0, nx, ny } = win;
        let ww = nx + (self.reach_left + self.reach_right) as usize;
        let wh = ny + (self.reach_down + self.reach_up) as usize;
        // Noise window plus output field, estimated in u128 before either
        // is allocated.
        self.admit(8 * (ww as u128 * wh as u128 + nx as u128 * ny as u128))?;
        // The lattice wraps at the ends of i64 (as the noise key does),
        // so the window's origin does too; everything else is
        // window-local.
        let span = self.ctx.recorder().start(stage::WINDOW_MATERIALISE);
        let noise_win = noise.window(
            x0.wrapping_sub(self.reach_left),
            y0.wrapping_sub(self.reach_down),
            ww,
            wh,
        );
        self.ctx.recorder().finish(span);

        let mut out = Grid2::zeros(nx, ny);
        let out_slice = out.as_mut_slice();
        let span = self.ctx.recorder().start(stage::CORRELATE);
        rrs_par::try_par_rows(
            out_slice,
            nx,
            self.ctx.workers(),
            self.ctx.recorder(),
            self.ctx.budget(),
            self.ctx.chaos(),
            |iy0, chunk| {
                let mut weights: Vec<(usize, f64)> = Vec::with_capacity(self.kernels.len());
                let mut pure = 0u64;
                let mut blended = 0u64;
                let mut evals = 0u64;
                for (row_off, row) in chunk.chunks_mut(nx).enumerate() {
                    let iy = iy0 + row_off;
                    let gy = y0.wrapping_add(iy as i64) as f64;
                    let ly = iy as i64 + self.reach_down;
                    for (ix, slot) in row.iter_mut().enumerate() {
                        let gx = x0.wrapping_add(ix as i64) as f64;
                        self.map.weights_at(gx, gy, &mut weights);
                        let lx = ix as i64 + self.reach_left;
                        let mut acc = 0.0;
                        for &(ki, g) in &weights {
                            acc += g * self.kernel_dot(ki, &noise_win, ww, lx, ly);
                        }
                        *slot = acc;
                        if weights.len() > 1 {
                            blended += 1;
                        } else {
                            pure += 1;
                        }
                        evals += weights.len() as u64;
                    }
                }
                let mut shard = self.ctx.recorder().shard();
                shard.add(stage::INHOMO_PURE_SAMPLES, pure);
                shard.add(stage::INHOMO_BLENDED_SAMPLES, blended);
                shard.add(stage::INHOMO_KERNEL_EVALS, evals);
                self.ctx.recorder().absorb(shard);
            },
        )?;
        self.ctx.recorder().finish(span);
        Ok(out)
    }

    /// The kernel-major blend: weights pass, admission, one noise window,
    /// then one field per active kernel, each weighted into the output
    /// and dropped before the next is built.
    fn generate_blended(&self, noise: &NoiseField, win: Window) -> Result<Grid2<f64>, RrsError> {
        let mut tags = vec![BLENDED; win.nx * win.ny];
        let scan = self.scan_weights(win, &mut tags)?;
        // A band that tripped the budget stopped early: report it before
        // anything else is admitted or allocated.
        self.ctx.budget().check()?;
        let passes: Vec<KernelPass> =
            self.kernels.iter().enumerate().filter_map(|(ki, k)| scan.pass(ki, k)).collect();
        // One noise window for every kernel: the union of their noise
        // rectangles, window-local. It lies inside the per-sample loop's
        // window (this one grown by the largest reach on each side).
        let ux0 = passes.iter().map(|p| p.lx).min().unwrap_or(0);
        let uy0 = passes.iter().map(|p| p.ly).min().unwrap_or(0);
        let ux1 = passes.iter().map(|p| p.lx + p.ww as i64).max().unwrap_or(0);
        let uy1 = passes.iter().map(|p| p.ly + p.wh as i64).max().unwrap_or(0);
        let (uw, uh) = ((ux1 - ux0) as usize, (uy1 - uy0) as usize);
        // Output and tags, plus the noise window and the largest tile
        // workspace one kernel holds at a time.
        let arenas = passes
            .iter()
            .map(|p| convolve_into_workspace(&self.ctx, &self.kernels[p.ki], p.nx, p.ny))
            .max()
            .unwrap_or(0);
        let samples = win.nx as u128 * win.ny as u128;
        self.admit(8 * (samples + uw as u128 * uh as u128 + arenas) + samples)?;
        self.ctx.recorder().add_counter(stage::CONV_BACKEND_FFT, 1);

        let span = self.ctx.recorder().start(stage::WINDOW_MATERIALISE);
        let noise_win =
            noise.window(win.x0.wrapping_add(ux0), win.y0.wrapping_add(uy0), uw, uh);
        self.ctx.recorder().finish(span);
        let mut out = Grid2::zeros(win.nx, win.ny);
        for p in &passes {
            let ki = p.ki;
            let view = &noise_win[(p.ly - uy0) as usize * uw + (p.lx - ux0) as usize..];
            let rows = &mut out.as_mut_slice()[p.by * win.nx..(p.by + p.ny) * win.nx];
            let out_rows = OutputRows { rows, stride: win.nx, col0: p.bx };
            // Field values are weighted into the output row segment by row
            // segment as they are computed: no field is stored.
            let weigh = |iy: usize, ix: usize, dst: &mut [f64], src: &[f64]| {
                let (row, col) = (p.by + iy, p.bx + ix);
                let tags = &tags[row * win.nx + col..][..dst.len()];
                let gy = win.y0.wrapping_add(row as i64) as f64;
                let mut weights = Vec::new();
                for (dx, ((slot, &v), &tag)) in dst.iter_mut().zip(src).zip(tags).enumerate() {
                    match tag {
                        BLENDED => {
                            let gx = win.x0.wrapping_add((col + dx) as i64) as f64;
                            self.map.weights_at(gx, gy, &mut weights);
                            if let Some(&(_, g)) = weights.iter().find(|&&(k, _)| k == ki) {
                                *slot += g * v;
                            }
                        }
                        // This kernel's weight is exactly 1 here: 1·v is v.
                        t if usize::from(t) == ki => *slot += v,
                        // Another kernel's alone: this one weighs 0.
                        _ => {}
                    }
                }
            };
            convolve_into(&self.ctx, &self.kernels[ki], view, uw, p.nx, p.ny, out_rows, &weigh)?;
        }
        let obs = self.ctx.recorder();
        obs.add_counter(stage::INHOMO_PURE_SAMPLES, scan.pure);
        obs.add_counter(stage::INHOMO_BLENDED_SAMPLES, scan.blended);
        obs.add_counter(stage::INHOMO_KERNEL_EVALS, scan.evals);
        Ok(out)
    }

    /// One weights pass over `win`, row bands spread across the workers:
    /// each kernel's box and the selection counts, and in `tags` (one per
    /// sample, row-major) the index of the kernel weighing exactly 1 at
    /// that sample when it is the only one and its index is below
    /// [`BLENDED`], else [`BLENDED`]. Each band polls the budget once per
    /// row and stops at the first trip, leaving the caller's next check
    /// to report it.
    fn scan_weights(&self, win: Window, tags: &mut [u8]) -> Result<WeightScan, RrsError> {
        let k = self.kernels.len();
        let budget = self.ctx.budget();
        let polling = budget.needs_polling();
        let total = Mutex::new(WeightScan::new(k));
        // The row length must be positive; a zero-width window has no
        // tags, so any positive length gives it no rows. The pass does
        // its own per-row polling and counting, so the bands run with
        // every hook disarmed.
        rrs_par::try_par_rows(
            tags,
            win.nx.max(1),
            self.ctx.workers(),
            &Recorder::disabled(),
            &Budget::unlimited(),
            &ChaosInjector::disabled(),
            |r0, band| {
                let mut scan = WeightScan::new(k);
                let mut weights: Vec<(usize, f64)> = Vec::with_capacity(k);
                let mut polls = 0u64;
                for (iy, row) in (r0..).zip(band.chunks_mut(win.nx)) {
                    if polling {
                        polls += 1;
                        if budget.check().is_err() {
                            break;
                        }
                    }
                    let gy = win.y0.wrapping_add(iy as i64) as f64;
                    for (ix, tag) in row.iter_mut().enumerate() {
                        self.map.weights_at(win.x0.wrapping_add(ix as i64) as f64, gy, &mut weights);
                        for &(ki, _) in &weights {
                            let b = &mut scan.boxes[ki];
                            *b = (b.0.min(ix), b.1.max(ix + 1), b.2.min(iy), iy + 1);
                        }
                        *tag = match weights[..] {
                            [(ki, g)] if g == 1.0 && ki < usize::from(BLENDED) => ki as u8,
                            _ => BLENDED,
                        };
                        if weights.len() > 1 {
                            scan.blended += 1;
                        } else {
                            scan.pure += 1;
                        }
                        scan.evals += weights.len() as u64;
                    }
                }
                if polling {
                    self.ctx.recorder().add_counter(stage::BUDGET_POLLS, polls);
                }
                total.lock().expect("merging a band's scan never panics").merge(&scan);
            },
        )?;
        Ok(total.into_inner().expect("merging a band's scan never panics"))
    }

    /// Evaluates `(w̃_ki ⊛ X)(n)` for the sample at coordinates `(lx, ly)`
    /// local to the noise window `win`, whose rows are `pitch` apart.
    #[inline]
    fn kernel_dot(&self, ki: usize, win: &[f64], pitch: usize, lx: i64, ly: i64) -> f64 {
        let kernel = &self.kernels[ki];
        let (kw, kh) = kernel.extent();
        let (ox, oy) = kernel.origin();
        let weights = kernel.weights();
        let mut acc = 0.0;
        for b in 0..kh {
            let jy = oy + b as i64;
            let wy = (ly - jy) as usize;
            let krow = weights.row(b);
            // X(n−j) with jx = ox + a: window x index = lx − ox − a.
            let base = (lx - ox) as usize;
            let wrow = &win[wy * pitch + base + 1 - kw..=wy * pitch + base];
            let mut s = 0.0;
            for (a, &kv) in krow.iter().enumerate() {
                s += kv * wrow[kw - 1 - a];
            }
            acc += s;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plate::{quadrant_layout, Plate, PlateLayout};
    use crate::point::{PointLayout, RepresentativePoint};
    use crate::region::Region;
    use rrs_spectrum::{SpectrumModel, SurfaceParams};

    fn sm(h: f64, cl: f64) -> SpectrumModel {
        SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
    }

    fn sizing() -> KernelSizing {
        KernelSizing::Auto { factor: 8.0, min: 16, max: 128 }
    }

    #[test]
    fn equal_spectra_share_one_build_with_its_bits() {
        let spectra = [sm(1.0, 4.0), sm(1.5, 6.0), sm(1.0, 4.0), sm(1.5, 6.0), sm(2.0, 4.0)];
        let builds = std::cell::Cell::new(0);
        let kernels = build_once(&spectra, |s| {
            builds.set(builds.get() + 1);
            ConvolutionKernel::build(s, sizing()).try_truncated(0.01, &Recorder::disabled())
        })
        .expect("valid epsilon");
        assert_eq!(builds.get(), 3, "one build per distinct spectrum");
        for (s, k) in spectra.iter().zip(&kernels) {
            let fresh = ConvolutionKernel::build(s, sizing()).truncated(0.01);
            assert_eq!(*k, fresh, "a shared kernel equals its own build");
        }
    }

    #[test]
    fn homogeneous_map_reduces_to_homogeneous_generator() {
        // A single-plate layout must reproduce the homogeneous convolution
        // generator exactly (same kernel, same noise).
        let spectrum = sm(1.2, 5.0);
        let layout = PlateLayout::new(vec![], Some(spectrum), 1.0);
        let kernel = ConvolutionKernel::build(&spectrum, sizing());
        let inh = InhomogeneousGenerator::from_kernels(layout, vec![kernel.clone()])
            .with_context(GenContext::new().with_workers(1));
        let hom = rrs_surface::ConvolutionGenerator::from_kernel(kernel)
            .with_context(GenContext::new().with_workers(1));
        let noise = NoiseField::new(7);
        let a = inh.generate(&noise, Window::new(-3, 4, 40, 24));
        let b = hom.generate(&noise, Window::new(-3, 4, 40, 24));
        let err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "max err {err}");
    }

    #[test]
    fn quadrants_have_their_target_statistics() {
        // A miniature Figure 1: four quadrants with different (h, cl).
        let n = 192usize;
        let layout = quadrant_layout(
            n as f64,
            n as f64,
            [sm(1.0, 4.0), sm(1.5, 6.0), sm(2.0, 8.0), sm(1.5, 6.0)],
            8.0,
        );
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(3), Window::sized(n, n));
        // Estimate h deep inside each quadrant (margin avoids transitions).
        let m = 24usize;
        let h_q1 = f.window(n / 2 + m, n / 2 + m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        let h_q2 = f.window(m, n / 2 + m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        let h_q3 = f.window(m, m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        let h_q4 = f.window(n / 2 + m, m, n / 2 - 2 * m, n / 2 - 2 * m).std_dev();
        for (got, want) in [(h_q1, 1.0), (h_q2, 1.5), (h_q3, 2.0), (h_q4, 1.5)] {
            // Few independent patches per quadrant ⇒ generous tolerance.
            assert!((got - want).abs() < 0.45 * want, "ĥ = {got}, target {want}");
        }
        // Ordering must hold strictly: q3 roughest, q1 smoothest.
        assert!(h_q3 > h_q2 && h_q2 > h_q1);
        assert!(h_q3 > h_q4 && h_q4 > h_q1);
    }

    #[test]
    fn windows_tile_seamlessly() {
        let layout = quadrant_layout(
            64.0,
            64.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let gen = InhomogeneousGenerator::new(layout, sizing())
            .with_context(
                GenContext::new()
                    .with_workers(2)
                    .with_backend(ConvBackend::Direct),
            );
        let noise = NoiseField::new(9);
        let whole = gen.generate(&noise, Window::sized(64, 64));
        let part = gen.generate(&noise, Window::new(16, 24, 32, 20));
        for iy in 0..20 {
            for ix in 0..32 {
                assert_eq!(*part.get(ix, iy), *whole.get(ix + 16, iy + 24));
            }
        }
    }

    #[test]
    fn auto_windows_tile_seamlessly_within_roundoff() {
        // The blend plans boxes and tiles per window, so two windows sum
        // the same fields in different tiles: equal within 1e-9, not to
        // the bit.
        let layout = quadrant_layout(
            64.0,
            64.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let gen = InhomogeneousGenerator::new(layout, sizing())
            .with_context(GenContext::new().with_workers(2));
        assert_eq!(gen.context().backend(), ConvBackend::Auto);
        assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
        let noise = NoiseField::new(9);
        let whole = gen.generate(&noise, Window::sized(64, 64));
        let part = gen.generate(&noise, Window::new(16, 24, 32, 20));
        let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for iy in 0..20 {
            for ix in 0..32 {
                let err = (*part.get(ix, iy) - *whole.get(ix + 16, iy + 24)).abs();
                assert!(err <= 1e-9 * scale, "({ix}, {iy}): {err:e}");
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let layout = quadrant_layout(
            48.0,
            48.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let k: Vec<_> = layout
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing()))
            .collect();
        let a = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
            .with_context(GenContext::new().with_workers(1))
            .generate(&NoiseField::new(5), Window::sized(48, 48));
        let b = InhomogeneousGenerator::from_kernels(layout, k)
            .with_context(GenContext::new().with_workers(6))
            .generate(&NoiseField::new(5), Window::sized(48, 48));
        assert_eq!(a, b);
    }

    #[test]
    fn circular_pond_is_smoother_than_field() {
        // Miniature Figure 3: exponential pond in a gaussian field.
        let pond = Plate {
            region: Region::Circle { cx: 64.0, cy: 64.0, r: 32.0 },
            spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.2, 6.0)),
        };
        let layout = PlateLayout::new(vec![pond], Some(sm(1.0, 6.0)), 10.0);
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(11), Window::sized(128, 128));
        let inside = f.window(52, 52, 24, 24).std_dev();
        let outside = f.window(0, 0, 24, 24).std_dev();
        assert!(inside < 0.5, "pond ĥ = {inside}");
        assert!(outside > 0.55, "field ĥ = {outside}");
    }

    #[test]
    fn point_oriented_cells_have_target_statistics() {
        let pts = vec![
            RepresentativePoint { x: 0.0, y: 0.0, spectrum: sm(0.5, 4.0) },
            RepresentativePoint { x: 96.0, y: 0.0, spectrum: sm(2.0, 8.0) },
        ];
        let layout = PointLayout::new(pts, 12.0);
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(17), Window::new(-48, -48, 192, 96));
        // Cell of point 0: x in [-48, 36) roughly; stay well clear of the
        // bisector at x = 48 (window-local 96).
        let left = f.window(8, 8, 64, 80).std_dev();
        let right = f.window(120, 8, 64, 80).std_dev();
        assert!((left - 0.5).abs() < 0.3, "left ĥ = {left}");
        assert!((right - 2.0).abs() < 0.8, "right ĥ = {right}");
        assert!(right > 2.0 * left);
    }

    #[test]
    fn transition_interpolates_monotonically() {
        // Across a two-plate boundary, a windowed std profile should rise
        // from ~h1 to ~h2 without overshooting wildly.
        let left = Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 64.0 },
            spectrum: sm(0.5, 4.0),
        };
        let layout = PlateLayout::new(vec![left], Some(sm(2.0, 4.0)), 16.0);
        let gen = InhomogeneousGenerator::new(layout, sizing());
        let f = gen.generate(&NoiseField::new(23), Window::sized(128, 256));
        // Column-band std profile along x.
        let band = 8usize;
        let mut profile = Vec::new();
        for bx in (0..128).step_by(band) {
            profile.push(f.window(bx, 0, band, 256).std_dev());
        }
        let first = profile.first().copied().unwrap();
        let last = profile.last().copied().unwrap();
        assert!(first < 0.8, "left side ĥ = {first}");
        assert!(last > 1.5, "right side ĥ = {last}");
        // Rough monotonicity: each step may wiggle by sampling noise but
        // the cumulative trend must be increasing.
        let mid = profile[profile.len() / 2];
        assert!(mid > first && mid < last * 1.2, "profile {profile:?}");
    }

    #[test]
    #[should_panic(expected = "kernel count must match")]
    fn kernel_count_mismatch_rejected() {
        let layout = PlateLayout::new(vec![], Some(sm(1.0, 4.0)), 1.0);
        let _ = InhomogeneousGenerator::from_kernels(layout, vec![]);
    }

    #[test]
    fn budgeted_idle_run_is_bit_identical_and_rejections_are_precise() {
        use rrs_error::{Budget, CancelToken, ErrorKind};
        let layout = quadrant_layout(
            48.0,
            48.0,
            [sm(1.0, 4.0), sm(1.5, 5.0), sm(2.0, 6.0), sm(1.5, 5.0)],
            6.0,
        );
        let k: Vec<_> = layout
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing()))
            .collect();
        let plain = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
            .with_context(GenContext::new().with_workers(3))
            .generate(&NoiseField::new(5), Window::sized(48, 48));
        let budget = Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(std::time::Duration::from_secs(3600))
            .with_max_bytes(usize::MAX);
        let gen = InhomogeneousGenerator::from_kernels(layout, k)
            .with_context(GenContext::new().with_workers(3).with_budget(budget));
        assert_eq!(
            gen.try_generate(&NoiseField::new(5), Window::sized(48, 48)).unwrap(),
            plain,
            "armed-but-idle budget must not change a single bit"
        );

        // Pre-cancelled: fails before the huge window is ever allocated.
        let token = CancelToken::new();
        token.cancel();
        let ctx = gen.context().clone().with_budget(Budget::unlimited().with_cancel_token(token));
        let gen = gen.with_context(ctx);
        let huge = Window::sized(1 << 28, 1 << 28);
        let err = gen.try_generate(&NoiseField::new(5), huge).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cancelled);

        // Admission: oversized request is rejected with the precise error.
        let ctx = gen.context().clone().with_budget(Budget::unlimited().with_max_bytes(1 << 20));
        let gen = gen.with_context(ctx);
        let err = gen.try_generate(&NoiseField::new(5), huge).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
        assert!(err.to_string().contains("inhomogeneous generation"), "{err}");
    }

    /// Largest |a − b| relative to `a`'s largest magnitude.
    fn max_rel_err(a: &Grid2<f64>, b: &Grid2<f64>) -> f64 {
        assert_eq!(a.shape(), b.shape());
        let scale = a.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
            / scale
    }

    #[test]
    fn fft_backend_blends_pure_and_straddling_windows_alike() {
        // Pond in a field: windows deep inside either region are pure,
        // the shoreline window blends both kernels; every one runs the
        // kernel-major blend and matches the per-sample loop within 1e-9.
        let pond = Plate {
            region: Region::Circle { cx: 64.0, cy: 64.0, r: 32.0 },
            spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.2, 6.0)),
        };
        let make = |backend, rec: &Recorder| {
            let layout = PlateLayout::new(vec![pond], Some(sm(1.0, 6.0)), 10.0);
            InhomogeneousGenerator::new(layout, sizing()).with_context(
                GenContext::new()
                    .with_workers(2)
                    .with_backend(backend)
                    .with_recorder(rec.clone()),
            )
        };
        let direct_rec = Recorder::enabled();
        let direct = make(ConvBackend::Direct, &direct_rec);
        let rec = Recorder::enabled();
        let fft = make(ConvBackend::FftOverlapSave, &rec);
        assert_eq!(fft.context().backend(), ConvBackend::FftOverlapSave);
        assert_eq!(direct.resolved_backend(), ConvBackend::Direct);
        let noise = NoiseField::new(29);
        let windows = [
            Window::new(-40, -40, 32, 32), // field corner: background only
            Window::new(56, 56, 16, 16),   // pond centre: the pond kernel only
            Window::new(20, 20, 48, 48),   // across the shoreline
        ];
        for win in windows {
            let err = max_rel_err(&direct.generate(&noise, win), &fft.generate(&noise, win));
            assert!(err <= 1e-9, "{win:?}: max relative error {err:e}");
        }
        let (d, f) = (direct_rec.report(), rec.report());
        assert_eq!(f.counter(stage::CONV_BACKEND_FFT), 3);
        assert_eq!(f.counter(stage::CONV_BACKEND_DIRECT), 0);
        assert!(f.counter(stage::CONV_FFT_TILES) >= 4, "both kernels ran FFT tiles");
        assert_eq!(d.counter(stage::CONV_BACKEND_DIRECT), 3);
        for name in [
            stage::INHOMO_PURE_SAMPLES,
            stage::INHOMO_BLENDED_SAMPLES,
            stage::INHOMO_KERNEL_EVALS,
        ] {
            assert_eq!(f.counter(name), d.counter(name), "{name}: both evaluators count alike");
        }
        assert!(f.counter(stage::INHOMO_BLENDED_SAMPLES) > 0);

        // Auto resolves each kernel by area: both are far past the
        // crossover, so it runs exactly the FftOverlapSave blend.
        let auto = make(ConvBackend::Auto, &Recorder::disabled());
        assert_eq!(auto.context().backend(), ConvBackend::Auto);
        for win in windows {
            assert_eq!(auto.generate(&noise, win), fft.generate(&noise, win), "{win:?}");
        }
    }

    #[test]
    fn auto_blends_small_kernels_by_direct_dot_products() {
        // Kernels under the Auto crossover contribute direct dot products
        // to the blend instead of FFT tiles; mixed with a large kernel the
        // blend still matches the per-sample loop.
        let left = Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 24.0 },
            spectrum: sm(0.5, 3.0),
        };
        let layout = PlateLayout::new(vec![left], Some(sm(1.5, 6.0)), 8.0);
        let small = ConvolutionKernel::build(&sm(0.5, 3.0), sizing()).crop(4, 4);
        let large = ConvolutionKernel::build(&sm(1.5, 6.0), sizing());
        assert!(large.extent().0 * large.extent().1 > 13 * 13);
        let make = |backend, rec: &Recorder| {
            InhomogeneousGenerator::from_kernels(layout.clone(), vec![small.clone(), large.clone()])
                .with_context(
                    GenContext::new()
                        .with_workers(2)
                        .with_backend(backend)
                        .with_recorder(rec.clone()),
                )
        };
        let rec = Recorder::enabled();
        let auto = make(ConvBackend::Auto, &rec);
        let noise = NoiseField::new(3);
        let win = Window::new(-10, 5, 64, 40);
        let direct = make(ConvBackend::Direct, &Recorder::disabled()).generate(&noise, win);
        let err = max_rel_err(&direct, &auto.generate(&noise, win));
        assert!(err <= 1e-9, "max relative error {err:e}");
        assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 1);

        // Every kernel under the crossover: Auto is the per-sample loop.
        let tiny_kernels = vec![small.clone(), small.clone()];
        let tiny = InhomogeneousGenerator::from_kernels(layout.clone(), tiny_kernels);
        assert_eq!(tiny.resolved_backend(), ConvBackend::Direct);
        let direct = InhomogeneousGenerator::from_kernels(layout, vec![small.clone(), small])
            .with_context(GenContext::new().with_backend(ConvBackend::Direct));
        assert_eq!(tiny.generate(&noise, win), direct.generate(&noise, win));
    }

    #[test]
    fn injected_fft_faults_degrade_the_blend_to_the_direct_loop() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        // A window across a transition band: an error or a panic at the
        // first FFT tile fails the blend, and the generator falls back to
        // the per-sample loop, whose output is the bit-exact reference
        // the Direct backend produces.
        let left = Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 12.0 },
            spectrum: sm(0.7, 4.0),
        };
        let make = |ctx: GenContext| {
            let layout = PlateLayout::new(vec![left], Some(sm(1.1, 5.0)), 6.0);
            InhomogeneousGenerator::new(layout, sizing()).with_context(ctx.with_workers(1))
        };
        let noise = NoiseField::new(37);
        let win = Window::new(-8, 4, 40, 20);
        let direct =
            make(GenContext::new().with_backend(ConvBackend::Direct)).generate(&noise, win);
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(5).with_fault(FaultSite::FftTile, kind, 0),
            );
            let rec = Recorder::enabled();
            let gen = make(
                GenContext::new()
                    .with_backend(ConvBackend::FftOverlapSave)
                    .with_recorder(rec.clone())
                    .with_chaos(chaos.clone()),
            );
            let got = gen.try_generate(&noise, win).unwrap();
            assert_eq!(got, direct, "{kind:?}: degraded output must match the direct loop");
            let report = rec.report();
            assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1);
            assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
            assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 1);
            assert_eq!(chaos.visits(FaultSite::FftTile), 1, "one rung, one tile visit");
            assert_eq!(chaos.injected(), 1);
        }
    }

    #[test]
    fn recorder_counts_kernel_selection_without_changing_output() {
        // Two half-plane plates with a transition band: most samples are
        // pure, the band is blended, and every sample costs ≥ 1 eval.
        let left = Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 24.0 },
            spectrum: sm(0.5, 3.0),
        };
        let layout = PlateLayout::new(vec![left], Some(sm(1.5, 3.0)), 8.0);
        let sizing = KernelSizing::Explicit(rrs_spectrum::GridSpec::unit(16, 16));
        let k: Vec<_> = layout
            .spectra()
            .iter()
            .map(|s| ConvolutionKernel::build(s, sizing))
            .collect();
        let plain = InhomogeneousGenerator::from_kernels(layout.clone(), k.clone())
            .with_context(GenContext::new().with_workers(2));
        let rec = Recorder::enabled();
        let observed = InhomogeneousGenerator::from_kernels(layout, k)
            .with_context(GenContext::new().with_workers(2).with_recorder(rec.clone()));
        let noise = NoiseField::new(31);
        let win = Window::sized(48, 32);
        assert_eq!(plain.generate(&noise, win), observed.generate(&noise, win));
        let report = rec.report();
        let pure = report.counter(stage::INHOMO_PURE_SAMPLES);
        let blended = report.counter(stage::INHOMO_BLENDED_SAMPLES);
        let evals = report.counter(stage::INHOMO_KERNEL_EVALS);
        assert_eq!(pure + blended, 48 * 32);
        assert!(blended > 0, "the transition band must blend");
        assert!(pure > blended, "the bulk must stay pure");
        assert_eq!(evals, pure + 2 * blended);
        assert!(report.durations.contains_key(stage::WINDOW_MATERIALISE));
        assert!(report.durations.contains_key(stage::CORRELATE));
    }
}
