//! Numerical substrate for the `rrs` workspace.
//!
//! This crate provides the small set of numerical building blocks the rough
//! surface generator needs, implemented from scratch so the workspace has no
//! external numerical dependencies:
//!
//! * [`Complex64`] — double-precision complex arithmetic used by the FFT and
//!   spectral machinery.
//! * [`special`] — the special functions appearing in the closed-form
//!   autocorrelation functions of the paper's spectra (Γ, ln Γ, the modified
//!   Bessel functions `I_ν`/`K_ν`, and the error function).
//! * [`kahan`] — compensated summation for long statistical accumulations.
//! * [`interp`] — linear / bilinear interpolation used by the transition
//!   blending of the inhomogeneous generator.
//! * [`roots`] — bracketing root finders used when fitting correlation
//!   lengths to measured autocorrelation curves.
//! * [`fnv1a`] and [`word_checksum`] — the byte checksum of golden hashes
//!   and checkpoints, and the four-lane word checksum of snapshots and
//!   wire frames ([`WordChecksum`] feeds it in parts).
//!
//! Everything is `no_std`-friendly in spirit (no allocation in the hot
//! paths) but the crate links `std` for `f64` math intrinsics.

#![warn(missing_docs)]

mod checksum;
pub mod complex;
pub mod interp;
pub mod kahan;
pub mod roots;
pub mod special;

pub use checksum::{fnv1a, fnv1a_extend, word_checksum, word_checksum_extend, WordChecksum};
pub use complex::Complex64;
pub use kahan::KahanSum;

/// Machine-epsilon-scaled tolerance helpers used across the workspace tests.
pub mod approx {
    /// Returns `true` if `a` and `b` agree to within `rel` relative error,
    /// falling back to an absolute comparison near zero.
    #[inline]
    pub fn close(a: f64, b: f64, rel: f64) -> bool {
        let scale = a.abs().max(b.abs());
        if scale < 1e-300 {
            return true;
        }
        (a - b).abs() <= rel * scale.max(1.0e-12)
    }

    /// Asserts [`close`] with a diagnostic message.
    #[track_caller]
    pub fn assert_close(a: f64, b: f64, rel: f64) {
        assert!(
            close(a, b, rel),
            "values differ: {a} vs {b} (rel tol {rel}, rel err {})",
            (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
        );
    }
}
