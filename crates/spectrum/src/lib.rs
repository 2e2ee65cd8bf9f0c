//! Spectral density models for random rough surfaces (paper §2.1–2.2).
//!
//! A 2-D random rough surface is characterised by its spectral density
//! function `W(K)` normalised so that `∫ W(K) dK = h²` (eqn 1), with `h`
//! the height standard deviation, and by the autocorrelation
//! `ρ(r) = ∫ W(K) e^{jK·r} dK` (eqn 4), so `ρ(0) = h²`.
//!
//! Three closed-form families are implemented, each anisotropic through
//! separate correlation lengths `clx`, `cly`:
//!
//! | family | `W(K)` ∝ | `ρ(r)` |
//! |---|---|---|
//! | [`Gaussian`] | `exp(-(Kx·clx/2)² - (Ky·cly/2)²)` | `h² exp(-u²)` |
//! | [`PowerLaw`] | `(1 + (Kx·clx)² + (Ky·cly)²)^{-N}` | `h² 2^{2-N}/Γ(N-1) · u^{N-1} K_{N-1}(u)` |
//! | [`Exponential`] | `(1 + (Kx·clx)² + (Ky·cly)²)^{-3/2}` | `h² exp(-u)` |
//!
//! with `u = sqrt((x/clx)² + (y/cly)²)` the scaled radius. (The Exponential
//! spectrum is the `N = 3/2` Power-Law; both are kept because the paper
//! treats them as distinct families.)
//!
//! The [`discrete`] module turns a continuous spectrum into the discrete
//! weighting array `w` of eqn (15) and its square root `v` (eqn 17), and
//! implements the paper's accuracy check `DFT(w) ≈ ρ(r)` (§2.2).

#![warn(missing_docs)]

pub mod discrete;
pub mod mixture;
pub mod model;
pub mod params;
pub mod rotated;

pub use discrete::{amplitude_array, verify_weight_dft, weight_array, GridSpec};
pub use model::{Exponential, Gaussian, PowerLaw, Spectrum, SpectrumModel};
pub use mixture::Mixture;
pub use params::SurfaceParams;
pub use rotated::Rotated;
pub use rrs_error::RrsError;
