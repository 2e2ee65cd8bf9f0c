//! The spectrum families of §2.1 and their closed-form autocorrelations.

use crate::SurfaceParams;
use rrs_num::special::{bessel_k, gamma};

/// A 2-D surface spectrum with the paper's normalisation
/// `∫ W(K) dK = h²` and its exact Fourier-pair autocorrelation.
pub trait Spectrum: Send + Sync {
    /// The statistical parameters `(h, clx, cly)` the model was built with.
    fn params(&self) -> SurfaceParams;

    /// Spectral density `W(Kx, Ky)` (eqns 5, 7, 9).
    fn density(&self, kx: f64, ky: f64) -> f64;

    /// Autocorrelation `ρ(x, y)` (eqns 6, 8, 10). `ρ(0,0) = h²`.
    fn autocorrelation(&self, x: f64, y: f64) -> f64;

    /// Normalised autocorrelation `ρ(x, y)/h²`; `1` at the origin.
    fn correlation(&self, x: f64, y: f64) -> f64 {
        let v = self.params().variance();
        if v == 0.0 {
            return if x == 0.0 && y == 0.0 { 1.0 } else { 0.0 };
        }
        self.autocorrelation(x, y) / v
    }
}

/// Gaussian spectrum (eqn 5):
/// `W(K) = clx·cly·h²/(4π) · exp(-(Kx·clx/2)² − (Ky·cly/2)²)`,
/// with autocorrelation `ρ(r) = h² exp(−(x/clx)² − (y/cly)²)` (eqn 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gaussian {
    /// Surface parameters.
    pub params: SurfaceParams,
}

impl Gaussian {
    /// Builds the model.
    pub fn new(params: SurfaceParams) -> Self {
        Self { params }
    }
}

impl Spectrum for Gaussian {
    fn params(&self) -> SurfaceParams {
        self.params
    }

    fn density(&self, kx: f64, ky: f64) -> f64 {
        let p = self.params;
        let ax = 0.5 * kx * p.clx;
        let ay = 0.5 * ky * p.cly;
        p.clx * p.cly * p.variance() / (4.0 * core::f64::consts::PI)
            * (-(ax * ax) - ay * ay).exp()
    }

    fn autocorrelation(&self, x: f64, y: f64) -> f64 {
        let p = self.params;
        let u = p.scaled_radius(x, y);
        p.variance() * (-u * u).exp()
    }
}

/// N-th order Power-Law spectrum (eqn 7):
/// `W(K) = clx·cly·h²·(N−1)/π · (1 + (Kx·clx)² + (Ky·cly)²)^{−N}`, `N > 1`,
/// with autocorrelation
/// `ρ(r) = h² · 2^{2−N}/Γ(N−1) · u^{N−1} · K_{N−1}(u)` (eqn 8), `u` the
/// scaled radius and `K_ν` the modified Bessel function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLaw {
    /// Surface parameters.
    pub params: SurfaceParams,
    /// The spectral order `N > 1`.
    pub n: f64,
}

impl PowerLaw {
    /// Validated constructor: requires `n > 1` (the spectrum is not
    /// integrable otherwise).
    pub fn try_new(params: SurfaceParams, n: f64) -> Result<Self, rrs_error::RrsError> {
        if !(n.is_finite() && n > 1.0) {
            return Err(rrs_error::RrsError::invalid_param(
                "n",
                format!("Power-Law order must satisfy N > 1, got {n}"),
            ));
        }
        Ok(Self { params, n })
    }

    /// Builds the model.
    ///
    /// # Panics
    /// Panics unless `n > 1` (the spectrum is not integrable otherwise).
    /// Fallible callers use [`PowerLaw::try_new`].
    pub fn new(params: SurfaceParams, n: f64) -> Self {
        Self::try_new(params, n).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Spectrum for PowerLaw {
    fn params(&self) -> SurfaceParams {
        self.params
    }

    fn density(&self, kx: f64, ky: f64) -> f64 {
        let p = self.params;
        let ax = kx * p.clx;
        let ay = ky * p.cly;
        let base = 1.0 + ax * ax + ay * ay;
        p.clx * p.cly * p.variance() * (self.n - 1.0) / core::f64::consts::PI
            * base.powf(-self.n)
    }

    fn autocorrelation(&self, x: f64, y: f64) -> f64 {
        let p = self.params;
        let u = p.scaled_radius(x, y);
        let nu = self.n - 1.0;
        if u == 0.0 {
            return p.variance();
        }
        // ρ = h² · 2^{1-ν}/Γ(ν) · u^ν · K_ν(u), ν = N − 1. Evaluate the
        // u^ν·K_ν product in log space to stay stable for large u.
        let k = bessel_k(nu, u);
        if k == 0.0 {
            return 0.0;
        }
        p.variance() * (2.0f64.powf(1.0 - nu) / gamma(nu)) * u.powf(nu) * k
    }
}

/// Exponential spectrum (eqn 9):
/// `W(K) = clx·cly·h²/(2π) · (1 + (Kx·clx)² + (Ky·cly)²)^{−3/2}`,
/// with autocorrelation `ρ(r) = h² exp(−u)` (eqn 10).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    /// Surface parameters.
    pub params: SurfaceParams,
}

impl Exponential {
    /// Builds the model.
    pub fn new(params: SurfaceParams) -> Self {
        Self { params }
    }
}

impl Spectrum for Exponential {
    fn params(&self) -> SurfaceParams {
        self.params
    }

    fn density(&self, kx: f64, ky: f64) -> f64 {
        let p = self.params;
        let ax = kx * p.clx;
        let ay = ky * p.cly;
        let base = 1.0 + ax * ax + ay * ay;
        p.clx * p.cly * p.variance() / (2.0 * core::f64::consts::PI) * base.powf(-1.5)
    }

    fn autocorrelation(&self, x: f64, y: f64) -> f64 {
        let p = self.params;
        p.variance() * (-p.scaled_radius(x, y)).exp()
    }
}

/// A closed enumeration of the three families, for configuration,
/// serialisation, and `dyn`-free storage in kernel banks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpectrumModel {
    /// Gaussian family.
    Gaussian(Gaussian),
    /// Power-Law family of order `n`.
    PowerLaw(PowerLaw),
    /// Exponential family.
    Exponential(Exponential),
}

impl SpectrumModel {
    /// Gaussian model shorthand.
    pub fn gaussian(params: SurfaceParams) -> Self {
        Self::Gaussian(Gaussian::new(params))
    }

    /// Power-Law model shorthand.
    pub fn power_law(params: SurfaceParams, n: f64) -> Self {
        Self::PowerLaw(PowerLaw::new(params, n))
    }

    /// Exponential model shorthand.
    pub fn exponential(params: SurfaceParams) -> Self {
        Self::Exponential(Exponential::new(params))
    }
}

impl Spectrum for SpectrumModel {
    fn params(&self) -> SurfaceParams {
        match self {
            Self::Gaussian(m) => m.params(),
            Self::PowerLaw(m) => m.params(),
            Self::Exponential(m) => m.params(),
        }
    }

    fn density(&self, kx: f64, ky: f64) -> f64 {
        match self {
            Self::Gaussian(m) => m.density(kx, ky),
            Self::PowerLaw(m) => m.density(kx, ky),
            Self::Exponential(m) => m.density(kx, ky),
        }
    }

    fn autocorrelation(&self, x: f64, y: f64) -> f64 {
        match self {
            Self::Gaussian(m) => m.autocorrelation(x, y),
            Self::PowerLaw(m) => m.autocorrelation(x, y),
            Self::Exponential(m) => m.autocorrelation(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integrate_density<S: Spectrum>(s: &S, kmax: f64, n: usize) -> f64 {
        // Midpoint rule over [-kmax, kmax]²; spectra are smooth and even.
        let dk = 2.0 * kmax / n as f64;
        let mut total = 0.0;
        for iy in 0..n {
            let ky = -kmax + (iy as f64 + 0.5) * dk;
            for ix in 0..n {
                let kx = -kmax + (ix as f64 + 0.5) * dk;
                total += s.density(kx, ky);
            }
        }
        total * dk * dk
    }

    fn integrate_autocorr_fourier<S: Spectrum>(s: &S, x: f64, y: f64, kmax: f64, n: usize) -> f64 {
        // ρ(r) = ∫ W(K) cos(K·r) dK (the sine part vanishes by evenness).
        let dk = 2.0 * kmax / n as f64;
        let mut total = 0.0;
        for iy in 0..n {
            let ky = -kmax + (iy as f64 + 0.5) * dk;
            for ix in 0..n {
                let kx = -kmax + (ix as f64 + 0.5) * dk;
                total += s.density(kx, ky) * (kx * x + ky * y).cos();
            }
        }
        total * dk * dk
    }

    #[test]
    fn gaussian_density_integrates_to_variance() {
        let s = Gaussian::new(SurfaceParams::new(1.5, 3.0, 5.0));
        let integral = integrate_density(&s, 6.0, 400);
        assert!((integral - 2.25).abs() < 1e-6, "∫W = {integral}");
    }

    #[test]
    fn exponential_density_integrates_to_variance() {
        let s = Exponential::new(SurfaceParams::new(2.0, 4.0, 4.0));
        // Heavy K^-3 tail: the radial mass outside the window is
        // h²/sqrt(1 + κmax²) with κmax = kmax·cl, so subtract it.
        let kmax = 40.0;
        let tail = 4.0 / (1.0 + (kmax * 4.0f64).powi(2)).sqrt();
        let integral = integrate_density(&s, kmax, 3000);
        assert!((integral - (4.0 - tail)).abs() < 0.02, "∫W = {integral}, tail = {tail}");
    }

    #[test]
    fn power_law_density_integrates_to_variance() {
        for n in [2.0, 3.0, 4.0] {
            let s = PowerLaw::new(SurfaceParams::new(1.0, 2.0, 2.0), n);
            let integral = integrate_density(&s, 60.0, 3000);
            assert!((integral - 1.0).abs() < 0.02, "N={n}: ∫W = {integral}");
        }
    }

    #[test]
    fn autocorrelation_at_origin_is_variance() {
        let p = SurfaceParams::new(1.5, 40.0, 60.0);
        assert!((Gaussian::new(p).autocorrelation(0.0, 0.0) - 2.25).abs() < 1e-12);
        assert!((Exponential::new(p).autocorrelation(0.0, 0.0) - 2.25).abs() < 1e-12);
        assert!((PowerLaw::new(p, 2.0).autocorrelation(0.0, 0.0) - 2.25).abs() < 1e-12);
        assert!((PowerLaw::new(p, 3.5).autocorrelation(0.0, 0.0) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn power_law_autocorrelation_continuous_at_origin() {
        // ρ(u→0) must approach ρ(0) smoothly — checks the Bessel limit.
        for n in [2.0, 3.0, 2.5] {
            let s = PowerLaw::new(SurfaceParams::isotropic(1.0, 10.0), n);
            let near = s.autocorrelation(1e-4, 0.0);
            assert!((near - 1.0).abs() < 1e-3, "N={n}: ρ(ε)={near}");
        }
    }

    #[test]
    fn gaussian_autocorrelation_matches_fourier_transform() {
        let s = Gaussian::new(SurfaceParams::new(1.0, 3.0, 3.0));
        for &(x, y) in &[(0.0, 0.0), (1.0, 0.0), (2.0, 2.0), (0.0, 4.0)] {
            let direct = s.autocorrelation(x, y);
            let fourier = integrate_autocorr_fourier(&s, x, y, 6.0, 500);
            assert!((direct - fourier).abs() < 1e-5, "({x},{y}): {direct} vs {fourier}");
        }
    }

    #[test]
    fn exponential_autocorrelation_matches_fourier_transform() {
        let s = Exponential::new(SurfaceParams::new(1.0, 5.0, 5.0));
        for &(x, y) in &[(0.0, 2.0), (3.0, 0.0), (4.0, 4.0)] {
            let direct = s.autocorrelation(x, y);
            let fourier = integrate_autocorr_fourier(&s, x, y, 30.0, 2500);
            assert!((direct - fourier).abs() < 5e-3, "({x},{y}): {direct} vs {fourier}");
        }
    }

    #[test]
    fn power_law_autocorrelation_matches_fourier_transform() {
        // This is the strongest check of the K_ν-based closed form.
        let s = PowerLaw::new(SurfaceParams::new(1.0, 4.0, 4.0), 2.0);
        for &(x, y) in &[(1.0, 0.0), (2.0, 2.0), (0.0, 6.0)] {
            let direct = s.autocorrelation(x, y);
            let fourier = integrate_autocorr_fourier(&s, x, y, 30.0, 2500);
            assert!((direct - fourier).abs() < 5e-3, "({x},{y}): {direct} vs {fourier}");
        }
    }

    #[test]
    fn anisotropy_shows_in_both_density_and_autocorrelation() {
        let s = Gaussian::new(SurfaceParams::new(1.0, 10.0, 2.0));
        // Longer correlation along x ⇒ slower decay of ρ along x.
        assert!(s.autocorrelation(5.0, 0.0) > s.autocorrelation(0.0, 5.0));
        // ...and a narrower spectrum along Kx.
        assert!(s.density(0.5, 0.0) < s.density(0.0, 0.5));
    }

    #[test]
    fn exponential_equals_power_law_three_halves() {
        let p = SurfaceParams::isotropic(1.3, 7.0);
        let e = Exponential::new(p);
        let pl = PowerLaw::new(p, 1.5);
        for &(kx, ky) in &[(0.0, 0.0), (0.1, 0.2), (1.0, 0.5)] {
            assert!((e.density(kx, ky) - pl.density(kx, ky)).abs() < 1e-12);
        }
        for &(x, y) in &[(1.0, 0.0), (3.0, 4.0)] {
            let d = (e.autocorrelation(x, y) - pl.autocorrelation(x, y)).abs();
            assert!(d < 1e-9, "lag ({x},{y}) differs by {d}");
        }
    }

    #[test]
    fn model_enum_delegates() {
        let p = SurfaceParams::isotropic(1.0, 5.0);
        let m = SpectrumModel::gaussian(p);
        let g = Gaussian::new(p);
        assert_eq!(m.density(0.3, 0.4), g.density(0.3, 0.4));
        assert_eq!(m.autocorrelation(1.0, 2.0), g.autocorrelation(1.0, 2.0));
        assert_eq!(m.params(), p);
    }

    #[test]
    fn correlation_is_normalised() {
        let s = Exponential::new(SurfaceParams::isotropic(2.5, 8.0));
        assert!((s.correlation(0.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((s.correlation(8.0, 0.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "N > 1")]
    fn power_law_order_one_rejected() {
        PowerLaw::new(SurfaceParams::isotropic(1.0, 1.0), 1.0);
    }

    #[test]
    fn spectra_are_even_functions() {
        let p = SurfaceParams::new(1.0, 3.0, 7.0);
        let models: Vec<SpectrumModel> = vec![
            SpectrumModel::gaussian(p),
            SpectrumModel::power_law(p, 2.0),
            SpectrumModel::exponential(p),
        ];
        for m in &models {
            for &(kx, ky) in &[(0.2, 0.7), (1.0, -0.4)] {
                assert_eq!(m.density(kx, ky), m.density(-kx, -ky));
                assert_eq!(m.density(kx, ky), m.density(-kx, ky));
            }
        }
    }
}
