//! Streaming strip generation — "arbitrarily long RRS by successive
//! computations" (paper §2.4).
//!
//! A [`StripGenerator`] fixes the transverse extent `ny` and produces
//! consecutive (or arbitrary) spans of an unbounded-in-`x` surface. Because
//! the backing [`NoiseField`] is a pure function of coordinates, strips are
//! seamless by construction and can be produced out of order or in
//! parallel across processes.

use crate::conv::ConvolutionGenerator;
use crate::kernel::KernelSizing;
use crate::noise::NoiseField;
use rrs_error::RrsError;
use rrs_fft::FftPlanCache;
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, ObsSink, Recorder};
use rrs_spectrum::Spectrum;
use std::sync::Arc;

/// Generates an unbounded-in-`x` surface strip by strip.
pub struct StripGenerator {
    gen: ConvolutionGenerator,
    noise: NoiseField,
    ny: usize,
    cursor: i64,
}

impl StripGenerator {
    /// Fallible [`StripGenerator::new`]: the transverse extent must be
    /// positive.
    pub fn try_new<S: Spectrum + ?Sized>(
        spectrum: &S,
        sizing: KernelSizing,
        ny: usize,
        seed: u64,
    ) -> Result<Self, RrsError> {
        Self::try_from_generator(ConvolutionGenerator::new(spectrum, sizing), ny, seed)
    }

    /// Builds a strip generator of transverse extent `ny` from a spectrum.
    ///
    /// # Panics
    /// Panics if `ny == 0`. Fallible callers use
    /// [`StripGenerator::try_new`].
    pub fn new<S: Spectrum + ?Sized>(spectrum: &S, sizing: KernelSizing, ny: usize, seed: u64) -> Self {
        Self::try_new(spectrum, sizing, ny, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`StripGenerator::from_generator`].
    pub fn try_from_generator(
        gen: ConvolutionGenerator,
        ny: usize,
        seed: u64,
    ) -> Result<Self, RrsError> {
        if ny == 0 {
            return Err(RrsError::invalid_param(
                "ny",
                "strip height must be positive, got 0",
            ));
        }
        Ok(Self { gen, noise: NoiseField::new(seed), ny, cursor: 0 })
    }

    /// Wraps an existing convolution generator.
    ///
    /// # Panics
    /// Panics if `ny == 0`. Fallible callers use
    /// [`StripGenerator::try_from_generator`].
    pub fn from_generator(gen: ConvolutionGenerator, ny: usize, seed: u64) -> Self {
        Self::try_from_generator(gen, ny, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Replaces the inner generator's whole [`GenContext`] at once —
    /// the entry point every `with_*` builder below delegates through.
    /// See [`ConvolutionGenerator::with_context`].
    pub fn with_context(mut self, ctx: crate::GenContext) -> Self {
        self.gen = self.gen.with_context(ctx);
        self
    }

    /// The inner generator's generation context.
    pub fn context(&self) -> &crate::GenContext {
        self.gen.context()
    }

    /// Attaches a recorder to the inner convolution generator: strips
    /// count under `strip/tiles` and generation stages are timed. Output
    /// is unchanged.
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.gen = self.gen.with_recorder(obs);
        self
    }

    /// Selects the convolution engine for every strip — see
    /// [`ConvBackend`](crate::ConvBackend). Strips from the FFT engines
    /// ([`ConvBackend::FftOverlapSave`](crate::ConvBackend)'s parallel
    /// real-input tiles included) tile as seamlessly as direct ones (the
    /// backend changes arithmetic order, not the window geometry), within
    /// floating-point roundoff.
    pub fn with_backend(mut self, backend: crate::ConvBackend) -> Self {
        self.gen = self.gen.with_backend(backend);
        self
    }

    /// The backend policy of the inner generator.
    pub fn backend(&self) -> crate::ConvBackend {
        self.gen.backend()
    }

    /// Shares an [`FftPlanCache`] with the inner generator, so several
    /// streams (or a stream and a plain generator) transforming the same
    /// overlap-save tile shapes reuse one set of twiddle tables and
    /// real-input plans instead of rebuilding them per stream.
    pub fn with_plan_cache(mut self, plans: Arc<FftPlanCache>) -> Self {
        self.gen = self.gen.with_plan_cache(plans);
        self
    }

    /// The FFT plan cache backing the inner generator's overlap-save
    /// engines.
    pub fn plan_cache(&self) -> &Arc<FftPlanCache> {
        self.gen.plan_cache()
    }

    /// Attaches a resource [`Budget`](rrs_error::Budget) to the inner
    /// convolution generator. Every strip request —
    /// [`StripGenerator::try_strip_at`] as well as the sequential
    /// [`StripGenerator::try_next_strip`] loop — re-runs the budget's
    /// pre-flight check and admission control before allocating, and polls
    /// the deadline/cancel token at band granularity while correlating, so
    /// a tripped budget stops the stream within one tile. The cursor only
    /// advances on success, so a cancelled stream resumes exactly where it
    /// stopped.
    pub fn with_budget(mut self, budget: rrs_error::Budget) -> Self {
        self.gen = self.gen.with_budget(budget);
        self
    }

    /// The budget attached to the inner generator.
    pub fn budget(&self) -> &rrs_error::Budget {
        self.gen.budget()
    }

    /// Arms a deterministic fault schedule on the inner generator and on
    /// this stream's own strip boundary: each strip request polls
    /// [`FaultSite::StripTile`](rrs_chaos::FaultSite) (panic-contained)
    /// before generating, and the inner generator's band/tile/plan sites
    /// poll the same shared schedule. The cursor advances only on
    /// success, so an injected fault leaves the stream resumable exactly
    /// like a real one.
    pub fn with_chaos(mut self, chaos: rrs_chaos::ChaosInjector) -> Self {
        self.gen = self.gen.with_chaos(chaos);
        self
    }

    /// The chaos injector attached to the inner generator.
    pub fn chaos(&self) -> &rrs_chaos::ChaosInjector {
        self.gen.chaos()
    }

    /// The recorder attached to the inner generator.
    pub fn recorder(&self) -> &Recorder {
        self.gen.recorder()
    }

    /// Transverse extent.
    pub fn height(&self) -> usize {
        self.ny
    }

    /// Position of the next sequential strip.
    pub fn cursor(&self) -> i64 {
        self.cursor
    }

    /// Seed of the backing noise lattice. Together with
    /// [`StripGenerator::cursor`] and [`StripGenerator::height`] this is
    /// the complete resumable state of a sequential stream: a new
    /// generator built from the same spectrum/kernel with this seed,
    /// `seek`ed to the saved cursor, continues the identical surface.
    pub fn seed(&self) -> u64 {
        self.noise.seed()
    }

    /// Fallible [`StripGenerator::strip_at`]. Routed through the attached
    /// budget: an oversized strip fails with
    /// [`RrsError::BudgetExceeded`] before anything is allocated instead
    /// of aborting inside the allocator.
    pub fn try_strip_at(&self, x0: i64, width: usize) -> Result<Grid2<f64>, RrsError> {
        let win = Window::try_new(x0, 0, width, self.ny)?;
        // The strip boundary is a registered fault site; the poll
        // contains its own injected panic, so a scheduled fault here
        // surfaces as a typed error with the cursor unadvanced.
        self.gen.chaos().poll_contained(rrs_chaos::FaultSite::StripTile)?;
        let out = self.gen.try_generate(&self.noise, win)?;
        self.gen.recorder().add_counter(stage::STRIP_TILES, 1);
        Ok(out)
    }

    /// The strip `[x0, x0+width) × [0, ny)` — random access, stateless.
    pub fn strip_at(&self, x0: i64, width: usize) -> Grid2<f64> {
        self.try_strip_at(x0, width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`StripGenerator::next_strip`]. The cursor advances only
    /// on success, so a failed call can simply be retried.
    pub fn try_next_strip(&mut self, width: usize) -> Result<Grid2<f64>, RrsError> {
        let s = self.try_strip_at(self.cursor, width)?;
        self.cursor += width as i64;
        Ok(s)
    }

    /// The next sequential strip of `width` samples; advances the cursor.
    pub fn next_strip(&mut self, width: usize) -> Grid2<f64> {
        self.try_next_strip(width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resets the cursor to `x`.
    pub fn seek(&mut self, x: i64) {
        self.cursor = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::{Gaussian, SurfaceParams};

    fn make(seed: u64) -> StripGenerator {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        StripGenerator::new(&s, KernelSizing::default(), 24, seed)
    }

    #[test]
    fn sequential_strips_tile_the_long_surface() {
        let mut sg = make(42).with_backend(crate::ConvBackend::Direct);
        let a = sg.next_strip(16);
        let b = sg.next_strip(16);
        assert_eq!(sg.cursor(), 32);
        let whole = sg.strip_at(0, 32);
        for iy in 0..24 {
            for ix in 0..16 {
                assert_eq!(*whole.get(ix, iy), *a.get(ix, iy));
                assert_eq!(*whole.get(ix + 16, iy), *b.get(ix, iy));
            }
        }
    }

    #[test]
    fn sequential_auto_strips_tile_within_roundoff() {
        let mut sg = make(42);
        assert_eq!(sg.backend(), crate::ConvBackend::Auto);
        let a = sg.next_strip(16);
        let b = sg.next_strip(16);
        let whole = sg.strip_at(0, 32);
        let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for iy in 0..24 {
            for ix in 0..16 {
                assert!((*whole.get(ix, iy) - *a.get(ix, iy)).abs() <= 1e-9 * scale);
                assert!((*whole.get(ix + 16, iy) - *b.get(ix, iy)).abs() <= 1e-9 * scale);
            }
        }
    }

    #[test]
    fn random_access_matches_sequential() {
        let mut sg = make(7);
        sg.seek(100);
        let seq = sg.next_strip(8);
        let rand = sg.strip_at(100, 8);
        assert_eq!(seq, rand);
    }

    #[test]
    fn long_surface_is_stationary() {
        // Strip means/stds must not drift with x — no seams, no trends.
        let sg = make(3);
        let mut stds = Vec::new();
        for i in 0..8 {
            let s = sg.strip_at(i * 512, 128);
            stds.push(s.std_dev());
        }
        let mean_std = stds.iter().sum::<f64>() / stds.len() as f64;
        for (i, &s) in stds.iter().enumerate() {
            assert!((s - mean_std).abs() < 0.35, "strip {i}: std {s} vs mean {mean_std}");
        }
        assert!((mean_std - 1.0).abs() < 0.2, "overall std {mean_std}");
    }

    #[test]
    fn negative_x_works() {
        let sg = make(5);
        let s = sg.strip_at(-1000, 16);
        assert_eq!(s.shape(), (16, 24));
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_height_rejected() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        StripGenerator::new(&s, KernelSizing::default(), 0, 1);
    }

    #[test]
    fn oversized_strip_is_rejected_not_aborted() {
        use rrs_error::Budget;
        let sg = make(9).with_budget(Budget::unlimited().with_max_bytes(1 << 20));
        // Wide enough that the alloc would abort; admission must fire first.
        let err = sg.try_strip_at(0, 1 << 30).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::BudgetExceeded);
        // A strip within the ceiling still works and matches an unbudgeted run.
        assert_eq!(sg.try_strip_at(40, 8).unwrap(), make(9).strip_at(40, 8));
    }

    #[test]
    fn cancelled_stream_leaves_cursor_unadvanced() {
        use rrs_error::{Budget, CancelToken};
        let token = CancelToken::new();
        let mut sg = make(11).with_budget(Budget::unlimited().with_cancel_token(token.clone()));
        sg.next_strip(8);
        assert_eq!(sg.cursor(), 8);
        token.cancel();
        let err = sg.try_next_strip(8).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
        assert_eq!(sg.cursor(), 8, "failed strip must not advance the cursor");
        // The resumable state still continues the identical surface.
        let resumed = make(11).strip_at(8, 8);
        let mut fresh = make(11).with_budget(Budget::unlimited().with_cancel_token(CancelToken::new()));
        fresh.seek(8);
        assert_eq!(fresh.try_next_strip(8).unwrap(), resumed);
    }

    #[test]
    fn recorder_counts_tiles_without_changing_output() {
        let rec = Recorder::enabled();
        let mut plain = make(42);
        let mut observed = make(42).with_recorder(rec.clone());
        for _ in 0..3 {
            assert_eq!(plain.next_strip(8), observed.next_strip(8));
        }
        let report = rec.report();
        assert_eq!(report.counter(stage::STRIP_TILES), 3);
        assert!(report.durations.contains_key(stage::WINDOW_MATERIALISE));
    }

    #[test]
    fn chaos_fault_at_a_strip_boundary_is_typed_and_resumable() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        // The second strip boundary faults; strips 0 and 2 are clean.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(21).with_fault(FaultSite::StripTile, FaultKind::Error, 1),
        );
        let mut sg = make(42).with_chaos(chaos);
        let mut clean = make(42);
        assert_eq!(sg.next_strip(8), clean.next_strip(8));
        let err = sg.try_next_strip(8).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::FaultInjected);
        assert_eq!(sg.cursor(), 8, "a faulted strip must not advance the cursor");
        // The stream resumes the identical surface after the fault.
        assert_eq!(sg.try_next_strip(8).unwrap(), clean.next_strip(8));
    }

    #[test]
    fn with_context_matches_the_sugar_builders() {
        let rec = Recorder::enabled();
        let ctx = crate::GenContext::new().with_workers(1).with_recorder(rec.clone());
        let mut via_ctx = make(42).with_context(ctx);
        let mut sugar = make(42).with_recorder(Recorder::enabled());
        assert_eq!(via_ctx.next_strip(8), sugar.next_strip(8));
        assert!(via_ctx.context().recorder().is_enabled());
        assert_eq!(rec.report().counter(stage::STRIP_TILES), 1);
    }

    #[test]
    fn chaos_panic_at_a_strip_boundary_is_contained() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        let chaos = ChaosInjector::new(
            FaultSchedule::new(23).with_fault(FaultSite::StripTile, FaultKind::Panic, 0),
        );
        let sg = make(7).with_chaos(chaos);
        let err = sg.try_strip_at(0, 8).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::WorkerPanicked);
        assert_eq!(sg.try_strip_at(0, 8).unwrap(), make(7).strip_at(0, 8));
    }
}
