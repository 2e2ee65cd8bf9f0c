//! Inhomogeneous random rough surface generation — the paper's
//! contribution (§3).
//!
//! The convolution method synthesises each output sample as a kernel dot
//! product against lattice noise; nothing forces the kernel to be the same
//! at every sample. This crate varies it:
//!
//! * **plate-oriented method** (§3.1, eqns 37–39): the domain is covered by
//!   geometric regions ([`Region`]: rectangles, circles, half-planes), each
//!   carrying a spectrum. Region membership ramps linearly across a
//!   transition strip of width `T`, and the per-sample kernel is the
//!   membership-weighted combination of the region kernels.
//! * **point-oriented method** (§3.2, eqns 40–46): `M` representative
//!   points each carry a spectrum. A sample blends the kernel of its
//!   nearest point with those of every point whose perpendicular-bisector
//!   distance `τ` (eqn 42) is within the transition half-width `T`,
//!   weights falling linearly in `τ` — a Voronoi diagram with soft edges.
//!
//! Both methods implement [`WeightMap`] — "which kernels, with which
//! weights, at this sample" — and share one [`InhomogeneousGenerator`].
//! Because kernel blending is linear and convolution is linear, blending
//! kernels then convolving (eqn 46 literally) equals convolving each
//! kernel and blending fields with the same weights. The generator
//! exploits this kernel by kernel by default — each kernel's field on the
//! FFT engine over just the box where it weighs — and sample by sample on
//! the `Direct` backend, paying only for the kernels active at each
//! sample (one in pure regions).

#![warn(missing_docs)]

pub mod generator;
pub mod plate;
pub mod point;
pub mod region;

pub use generator::{InhomogeneousGenerator, WeightMap};
pub use plate::{Plate, PlateLayout};
pub use point::{PointLayout, RepresentativePoint};
pub use region::Region;
pub use rrs_error::RrsError;
