//! Homogeneous random rough surface generation (paper §2.3–2.4).
//!
//! Two generation methods, exactly as the paper structures them:
//!
//! * **Direct DFT method** ([`direct`]): sample the amplitude array
//!   `v = √w`, multiply by a Hermitian-symmetric complex Gaussian array `u`
//!   (eqns 19–28), and DFT the product — `f = DFT(v·u)` (eqn 30). One
//!   shot, periodic, fixed-size.
//! * **Convolution method** ([`conv`], [`kernel`]): precompute the real
//!   even kernel `w̃ = DFT(v)/√(Nx·Ny)` re-centred per eqns (34–35), then
//!   synthesise `f[n] = Σ_k w̃[k]·X[n−k]` (eqn 36) against an i.i.d.
//!   `N(0,1)` lattice [`NoiseField`]. Because `X` is a *pure function* of
//!   `(seed, ix, iy)`, any window of an unbounded surface can be generated
//!   independently and seamlessly ([`stream`]), kernels can be truncated
//!   for speed, and — the point of the paper — the kernel may vary from
//!   sample to sample (see `rrs-inhomo`).
//!
//! The two methods are linked by the convolution theorem; the test suite
//! verifies they produce *identical* surfaces when driven by the same
//! Hermitian array, and statistically equivalent ensembles otherwise.

#![warn(missing_docs)]

pub mod context;
pub mod conv;
pub mod direct;
mod fftconv;
pub mod line;
pub mod hermitian;
pub mod kernel;
pub mod noise;
pub mod stream;

pub use context::GenContext;
pub use conv::{
    convolve_into, convolve_into_workspace, BackendHealth, ConvBackend, ConvolutionGenerator,
};
pub use fftconv::{
    effective_workers, plan_tiles, plan_tiles_within, Combine, OutputRows, TileShape,
};
pub use direct::DirectDftGenerator;
pub use kernel::{ConvolutionKernel, KernelSizing};
pub use line::LineGenerator;
pub use noise::NoiseField;
pub use rrs_error::RrsError;
pub use stream::StripGenerator;
