//! Streaming strip generation — "arbitrarily long RRS by successive
//! computations" (paper §2.4).
//!
//! A [`StripGenerator`] fixes the transverse extent `ny` and produces
//! consecutive (or arbitrary) spans of an unbounded-in-`x` surface. Because
//! the backing [`NoiseField`] is a pure function of coordinates, strips are
//! seamless by construction and can be produced out of order or in
//! parallel across processes.

use crate::context::GenContext;
use crate::conv::ConvolutionGenerator;
use crate::kernel::KernelSizing;
use crate::noise::NoiseField;
use rrs_error::RrsError;
use rrs_grid::{Grid2, Window};
use rrs_obs::stage;
use rrs_spectrum::Spectrum;

/// Generates an unbounded-in-`x` surface strip by strip.
///
/// The inner [`ConvolutionGenerator`]'s [`GenContext`] configures every
/// strip ([`StripGenerator::with_context`]). Strips from the FFT engine
/// tile as seamlessly as direct ones, within floating-point roundoff: the
/// backend changes the arithmetic order, not the window geometry. Every
/// strip request — [`StripGenerator::try_strip_at`] as well as the
/// sequential [`StripGenerator::try_next_strip`] loop — re-runs the
/// budget's pre-flight check and admission control before allocating, so
/// a tripped budget stops the stream within one tile. The strip boundary
/// is a fault site of its own: each request polls
/// [`FaultSite::StripTile`](rrs_chaos::FaultSite) (panic-contained) before
/// generating. An enabled recorder counts strips under `strip/tiles`.
///
/// The cursor advances only on success, so a stream stopped by a
/// cancelled or expired budget, an injected fault or any other error
/// resumes exactly where it stopped.
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

    /// Replaces the inner generator's whole [`GenContext`] at once. See
    /// [`ConvolutionGenerator::with_context`].
    pub fn with_context(mut self, ctx: GenContext) -> Self {
        self.gen = self.gen.with_context(ctx);
        self
    }

    /// The inner generator's generation context.
    pub fn context(&self) -> &GenContext {
        self.gen.context()
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
    /// of aborting inside the allocator. A strip must fit on the `i64`
    /// lattice: one reaching past its end (`x0 + width > i64::MAX`) is
    /// rejected with [`RrsError::InvalidParam`]. Only the noise the kernel
    /// reads beyond a lattice end wraps around it, like the noise key does.
    pub fn try_strip_at(&self, x0: i64, width: usize) -> Result<Grid2<f64>, RrsError> {
        let win = Window::try_new(x0, 0, width, self.ny)?;
        let ctx = self.gen.context();
        // The strip boundary is a registered fault site; the poll
        // contains its own injected panic, so a scheduled fault here
        // surfaces as a typed error with the cursor unadvanced.
        ctx.chaos().poll_contained(rrs_chaos::FaultSite::StripTile)?;
        let out = self.gen.try_generate(&self.noise, win)?;
        ctx.recorder().add_counter(stage::STRIP_TILES, 1);
        Ok(out)
    }

    /// The strip `[x0, x0+width) × [0, ny)` — random access: the output is
    /// a pure function of `(seed, x0, width)`, whatever was requested
    /// before. The inner generator keeps the noise window of its last
    /// request, so a strip overlapping the previous one (every sequential
    /// strip) evaluates only the noise columns it does not share with it.
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
    use rrs_obs::Recorder;
    use rrs_spectrum::{Gaussian, SurfaceParams};

    fn make(seed: u64) -> StripGenerator {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        StripGenerator::new(&s, KernelSizing::default(), 24, seed)
    }

    #[test]
    fn sequential_strips_tile_the_long_surface() {
        let direct = GenContext::new().with_backend(crate::ConvBackend::Direct);
        let mut sg = make(42).with_context(direct);
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
        assert_eq!(sg.context().backend(), crate::ConvBackend::Auto);
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
        let budget = Budget::unlimited().with_max_bytes(1 << 20);
        let sg = make(9).with_context(GenContext::new().with_budget(budget));
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
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        let mut sg = make(11).with_context(GenContext::new().with_budget(budget));
        sg.next_strip(8);
        assert_eq!(sg.cursor(), 8);
        token.cancel();
        let err = sg.try_next_strip(8).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
        assert_eq!(sg.cursor(), 8, "failed strip must not advance the cursor");
        // The resumable state still continues the identical surface.
        let resumed = make(11).strip_at(8, 8);
        let budget = Budget::unlimited().with_cancel_token(CancelToken::new());
        let mut fresh = make(11).with_context(GenContext::new().with_budget(budget));
        fresh.seek(8);
        assert_eq!(fresh.try_next_strip(8).unwrap(), resumed);
    }

    #[test]
    fn recorder_counts_tiles_without_changing_output() {
        let rec = Recorder::enabled();
        let mut plain = make(42);
        let mut observed = make(42).with_context(GenContext::new().with_recorder(rec.clone()));
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
        let mut sg = make(42).with_context(GenContext::new().with_chaos(chaos));
        let mut clean = make(42);
        assert_eq!(sg.next_strip(8), clean.next_strip(8));
        let err = sg.try_next_strip(8).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::FaultInjected);
        assert_eq!(sg.cursor(), 8, "a faulted strip must not advance the cursor");
        // The stream resumes the identical surface after the fault.
        assert_eq!(sg.try_next_strip(8).unwrap(), clean.next_strip(8));
    }

    #[test]
    fn chaos_panic_at_a_strip_boundary_is_contained() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
        let chaos = ChaosInjector::new(
            FaultSchedule::new(23).with_fault(FaultSite::StripTile, FaultKind::Panic, 0),
        );
        let sg = make(7).with_context(GenContext::new().with_chaos(chaos));
        let err = sg.try_strip_at(0, 8).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::WorkerPanicked);
        assert_eq!(sg.try_strip_at(0, 8).unwrap(), make(7).strip_at(0, 8));
    }
}
