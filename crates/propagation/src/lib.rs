//! Radio propagation over rough terrain profiles.
//!
//! The paper motivates inhomogeneous surface generation with wireless
//! sensor networks: nodes scattered over deserts, fields and water whose
//! links run *along* the rough ground. This crate is the downstream
//! consumer that closes that loop — it takes 1-D profiles cut from
//! generated surfaces (`rrs_grid::extract_profile`) and evaluates link
//! budgets over them:
//!
//! * [`freespace`] — free-space and plane-earth reference losses;
//! * [`diffraction`] — single knife-edge loss (ITU-R P.526 approximation)
//!   and the Epstein–Peterson / Deygout multiple-edge constructions over a
//!   terrain profile;
//! * [`hata`] — the Hata empirical model (the paper's ref \[7\]), kept as
//!   the urban-area contrast the introduction argues is inapplicable to
//!   sensor fields;
//! * [`link`] — distance sweeps of total loss along a profile.
//!
//! This is an *application substrate*, not a paper result: the paper
//! itself stops at surface generation.

#![warn(missing_docs)]

pub mod diffraction;
pub mod freespace;
pub mod hata;
pub mod link;

pub use diffraction::{deygout_loss_db, epstein_peterson_loss_db, knife_edge_loss_db};
pub use freespace::{free_space_loss_db, plane_earth_loss_db};
pub use hata::{hata_loss_db, HataEnvironment};
pub use link::{link_budget_sweep, LinkSample};

/// Speed of light in vacuum (m/s).
pub const C0: f64 = 299_792_458.0;

/// Wavelength (m) at frequency `f_hz`.
#[inline]
pub fn wavelength(f_hz: f64) -> f64 {
    assert!(f_hz > 0.0, "frequency must be positive");
    C0 / f_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_anchors() {
        assert!((wavelength(300e6) - 0.999_308_193_3).abs() < 1e-6);
        assert!((wavelength(2.4e9) - 0.1249).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        wavelength(0.0);
    }
}
