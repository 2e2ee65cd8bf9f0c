//! Statistical validation of generated surfaces.
//!
//! The paper demonstrates its generator with pictures; this crate supplies
//! the quantitative checks the pictures imply:
//!
//! * [`moments`] — streaming mean/variance/skewness/kurtosis (Welford);
//! * [`autocorr`] — empirical autocorrelation, both direct (chosen lags,
//!   open boundaries) and FFT-based (all lags, periodic);
//! * [`fit`] — correlation-length estimation from the measured
//!   autocorrelation's `1/e` crossing;
//! * [`periodogram`](mod@periodogram) — spectral density estimation
//!   from realisations (the inverse check: the generator writes the
//!   spectrum it was asked for);
//! * [`histogram`] — binned height distributions;
//! * [`normality`] — Kolmogorov–Smirnov, χ² and Jarque–Bera tests that the
//!   heights are Gaussian (they must be: the generator is linear in
//!   Gaussian noise);
//! * [`validate`] — region-wise comparison of a generated surface against
//!   its target statistics, the backbone of EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod autocorr;
pub mod fit;
pub mod histogram;
pub mod moments;
pub mod normality;
pub mod periodogram;
pub mod slopes;
pub mod validate;

pub use autocorr::{autocorrelation_fft, autocorrelation_lags, autocorrelation_lags_with_mean};
pub use fit::estimate_correlation_length;
pub use histogram::Histogram;
pub use moments::Moments;
pub use periodogram::{periodogram, periodogram_ensemble, radial_profile};
pub use slopes::{rms_slope_x, rms_slope_y, structure_function_x, structure_function_y};
pub use validate::{validate_region, validate_region_ensemble, RegionReport};
