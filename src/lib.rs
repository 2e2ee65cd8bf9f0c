//! # rrs — Rough Surface Generation with Inhomogeneous Parameters
//!
//! A Rust reproduction of **Uchida, Honda & Yoon, "An Algorithm for Rough
//! Surface Generation with Inhomogeneous Parameters"** (ICPP 2009 /
//! J. Algorithms & Computational Technology 5(2)), built entirely from
//! scratch — FFT, RNG, statistics and the generator itself.
//!
//! ## Quick start
//!
//! ```
//! use rrs::spectrum::{Gaussian, SurfaceParams};
//! use rrs::surface::{ConvolutionGenerator, KernelSizing, NoiseField};
//!
//! // A Gaussian-spectrum surface with height std-dev 1.0 and
//! // correlation length 8 samples.
//! let spectrum = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
//! let generator = ConvolutionGenerator::new(&spectrum, KernelSizing::default());
//! let surface = generator.generate(&NoiseField::new(42), rrs::grid::Window::sized(128, 128));
//! assert_eq!(surface.shape(), (128, 128));
//! // The sample standard deviation approaches the target h = 1.0.
//! assert!((surface.std_dev() - 1.0).abs() < 0.3);
//! ```
//!
//! ## What's where
//!
//! | module | contents |
//! |---|---|
//! | [`spectrum`] | Gaussian / Power-Law / Exponential spectra, discrete weighting arrays (paper §2.1–2.2) |
//! | [`surface`] | direct DFT method, convolution method, streaming strips (paper §2.3–2.4) |
//! | [`inhomo`] | plate-oriented and point-oriented inhomogeneous generation (paper §3 — the contribution) |
//! | [`stats`] | moments, autocorrelation, correlation-length fits, normality tests |
//! | [`fft`], [`rng`], [`num`], [`grid`], [`par`] | substrates built for this reproduction |
//! | [`io`] | CSV / gnuplot / PGM / snapshot export, stream checkpoints |
//! | [`serve`] | TCP serving front-end: binary wire codec, multi-tenant scheduler, request coalescing |
//! | [`obs`] | stage-level spans, counters and duration histograms behind [`obs::Recorder`] |
//! | [`propagation`] | link budgets over generated profiles (the motivating application) |
//! | [`error`] | the unified [`error::RrsError`] taxonomy returned by every `try_*` API |
//!
//! ## Error handling
//!
//! Every fallible constructor and entry point has a `try_*` twin returning
//! [`Result`]`<_, `[`error::RrsError`]`>`; the short-named methods are thin
//! wrappers that panic with the same message for quick scripts and tests.
//! Library and service callers should prefer the `try_*` forms.
//!
//! ## Configuration
//!
//! Every generator is configured through one [`surface::GenContext`],
//! applied with `with_context`: the worker count, the convolution
//! backend, and the recorder, budget and chaos injector below. Build the
//! whole context first and apply it once, since `with_context` replaces
//! every option. FFT plans come from [`fft::FftPlanCache::global`], keyed
//! by shape. Operations outside a generator (kernel truncation, plan
//! lookups, file writes, retries) take the recorder, and where it applies
//! the budget and injector, as arguments.
//!
//! ## Observability
//!
//! A context's [`obs::Recorder`] times generation stages (kernel build,
//! window materialisation, correlation, checkpoint write/fsync) into
//! named histograms and counters, exportable as JSON. The default
//! disabled recorder costs nothing and enabling one never changes a
//! single output bit.
//!
//! ## Runtime budgets
//!
//! A context's resource [`error::Budget`] bounds every request: a
//! wall-clock deadline and/or a shared [`error::CancelToken`] are polled
//! cooperatively at band granularity (a tripped request returns
//! [`error::RrsError::Cancelled`] /
//! [`error::RrsError::DeadlineExceeded`] within one band or strip tile,
//! never partial output), and a byte ceiling is enforced by admission
//! control *before* allocation, so an oversized request fails with a
//! precise [`error::RrsError::BudgetExceeded`] instead of aborting the
//! process. Checkpoint and snapshot files are written crash-atomically
//! (tmp + fsync + rename), and checkpoint writes can be
//! wrapped in a deterministic [`io::RetryPolicy`]
//! ([`io::write_checkpoint_file_resilient`]) that retries transient I/O
//! faults with exponential backoff. With the default
//! [`error::Budget::unlimited`] every code path is bit-identical to — and
//! as fast as — the unbudgeted generator.
//!
//! ## Fault model and graceful degradation
//!
//! A context's [`chaos::ChaosInjector`] arms a seeded, replayable
//! [`chaos::FaultSchedule`] that injects panics, typed errors,
//! cancellations or deadline expiry at numbered
//! [`chaos::FaultSite`]s across the whole pipeline (parallel band slices,
//! FFT tiles, plan-cache lookups, strip boundaries, retry backoffs,
//! checkpoint writes). Injected faults always surface as typed
//! [`error::RrsError`]s — never an escaped panic — and FFT backend
//! failures degrade down the ladder `FftOverlapSave → Direct` (for the
//! inhomogeneous generator, kernel-major blend → per-sample loop) behind
//! a per-generator circuit breaker ([`surface::BackendHealth`]), with
//! the reference rung reproducing the reference output bit-for-bit. The default disabled
//! injector costs one pointer test per site and changes nothing.

pub use rrs_chaos as chaos;
pub use rrs_error as error;
pub use rrs_fft as fft;
pub use rrs_grid as grid;
pub use rrs_inhomo as inhomo;
pub use rrs_io as io;
pub use rrs_num as num;
pub use rrs_obs as obs;
pub use rrs_par as par;
pub use rrs_propagation as propagation;
pub use rrs_rng as rng;
pub use rrs_serve as serve;
pub use rrs_spectrum as spectrum;
pub use rrs_stats as stats;
pub use rrs_surface as surface;

/// The most commonly used items in one import.
pub mod prelude {
    pub use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule, FaultSite};
    pub use rrs_error::{Budget, CancelToken, ErrorKind, RrsError};
    pub use rrs_grid::{Grid2, Window};
    pub use rrs_io::{
        try_read_snapshot, try_write_snapshot, write_checkpoint_file,
        write_checkpoint_file_resilient, RetryPolicy, StreamCheckpoint,
    };
    pub use rrs_obs::Recorder;
    pub use rrs_inhomo::{
        InhomogeneousGenerator, Plate, PlateLayout, PointLayout, Region, RepresentativePoint,
    };
    pub use rrs_spectrum::{
        Exponential, Gaussian, GridSpec, Mixture, PowerLaw, Rotated, Spectrum, SpectrumModel,
        SurfaceParams,
    };
    pub use rrs_stats::{validate_region, RegionReport};
    pub use rrs_serve::{
        Client, ClientConfig, GenerateRequest, ServeConfig, ServeError, ShardedClient,
        ShardedConfig, TenantQuota,
    };
    pub use rrs_surface::{
        BackendHealth, ConvBackend, ConvolutionGenerator, ConvolutionKernel, DirectDftGenerator,
        GenContext, KernelSizing, NoiseField, StripGenerator,
    };
}
