//! Shared generation context — the one bundle of cross-cutting options
//! every generator accepts, and the only way to set them.
//!
//! A [`GenContext`] carries five knobs: workers, backend, recorder,
//! budget and chaos injector. All three generators —
//! [`ConvolutionGenerator`](crate::ConvolutionGenerator),
//! [`StripGenerator`](crate::StripGenerator) and the inhomogeneous
//! generator — take one through `with_context` and show it through
//! `context()`, so option threading cannot diverge per generator. Build
//! the whole context first and apply it once: `with_context` replaces
//! every option, a shared recorder included. Because the
//! context is plain data (every field cheap to clone, shared state behind
//! `Arc`s), it doubles as the decoded form of a serving request's
//! per-request options: the server and the library configure generation
//! through exactly the same struct.

use crate::conv::ConvBackend;
use rrs_chaos::ChaosInjector;
use rrs_error::Budget;
use rrs_obs::Recorder;

/// Cross-cutting generation options, shared by all generators.
///
/// Defaults: [`rrs_par::default_workers`] workers, [`ConvBackend::Auto`],
/// a disabled [`Recorder`], an unlimited [`Budget`] and a disabled
/// [`ChaosInjector`]. `Auto` sends
/// large kernels to the FFT engine, so default output equals earlier
/// releases' within 1e-9 relative error rather than bit for bit; a
/// context with [`ConvBackend::Direct`] is bit-identical to them.
///
/// Clones share the stateful members (recorder, chaos schedule, cancel
/// token) by reference, so a context cloned into many generators still
/// aggregates observations in one place. FFT plans are not an option:
/// every generator fetches them from the process-wide
/// [`FftPlanCache::global`](rrs_fft::FftPlanCache::global).
#[derive(Clone)]
pub struct GenContext {
    pub(crate) workers: usize,
    pub(crate) backend: ConvBackend,
    pub(crate) obs: Recorder,
    pub(crate) budget: Budget,
    pub(crate) chaos: ChaosInjector,
}

impl Default for GenContext {
    fn default() -> Self {
        Self::new()
    }
}

impl GenContext {
    /// The default context (see the type-level docs for the values).
    pub fn new() -> Self {
        Self {
            workers: rrs_par::default_workers(),
            backend: ConvBackend::default(),
            obs: Recorder::disabled(),
            budget: Budget::unlimited(),
            chaos: ChaosInjector::disabled(),
        }
    }

    /// Sets the worker count (1 = serial; clamped to ≥ 1). Output is
    /// identical for any worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Selects the convolution engine — see [`ConvBackend`].
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a recorder for stage timings and counters. Observation
    /// never alters output.
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a resource [`Budget`]: deadline/cancel polled
    /// cooperatively at band/tile granularity, byte ceiling enforced by
    /// admission control before allocation.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms a deterministic fault schedule — see [`ChaosInjector`].
    pub fn with_chaos(mut self, chaos: ChaosInjector) -> Self {
        self.chaos = chaos;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured backend policy (not resolved).
    pub fn backend(&self) -> ConvBackend {
        self.backend
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// The attached budget ([`Budget::unlimited`] by default).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The armed chaos injector (disabled by default).
    pub fn chaos(&self) -> &ChaosInjector {
        &self.chaos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pick_auto_and_leave_every_hook_off() {
        let ctx = GenContext::new();
        assert_eq!(ctx.workers(), rrs_par::default_workers());
        assert_eq!(ctx.backend(), ConvBackend::Auto);
        assert_eq!(ConvBackend::default(), ConvBackend::Auto);
        assert!(!ctx.recorder().is_enabled());
        assert!(ctx.budget().is_unlimited());
        assert!(!ctx.chaos().is_enabled());
    }

    #[test]
    fn builders_set_and_clones_share() {
        let rec = Recorder::enabled();
        let ctx = GenContext::new()
            .with_workers(0)
            .with_backend(ConvBackend::Direct)
            .with_recorder(rec.clone());
        assert_eq!(ctx.workers(), 1, "workers clamp to >= 1");
        assert_eq!(ctx.backend(), ConvBackend::Direct);
        ctx.clone().recorder().add_counter("test/clone", 1);
        assert_eq!(rec.report().counter("test/clone"), 1, "clones share the recorder");
    }
}
