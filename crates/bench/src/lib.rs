//! Reproduction harness for the paper's evaluation (Figures 1–4 and the
//! quantitative claims C1–C4 of DESIGN.md).
//!
//! [`figures`] builds each figure's generator and the list of homogeneous
//! sub-regions to validate, parameterised by a linear `scale` so the same
//! definitions serve the full-size `reproduce` binary, the `bench_*`
//! timing binaries, and the fast integration tests.
//!
//! [`harness`] is the in-repo timing substrate those binaries share:
//! warmup + repeated timed runs, paired A/B gates, median/min/stddev
//! summaries, and machine-readable `BENCH_*.json` output.
//!
//! [`ScalarFft2d`] is the scalar 2-D transform the FFT gates time the
//! batched transforms against; [`reference_weights`] holds the weight maps
//! the figures gate times the current ones against; [`ReferenceTile`] is
//! the overlap-save tile `bench_fft` times the library's against.

pub mod figures;
pub mod harness;
pub mod reference_tile;
pub mod reference_weights;
pub mod scalar_fft;

pub use figures::{Figure, FigureLayout, FigureRegion};
pub use harness::{BenchRecord, Harness};
pub use reference_tile::ReferenceTile;
pub use scalar_fft::ScalarFft2d;
