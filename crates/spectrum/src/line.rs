//! One-dimensional rough *profile* spectra.
//!
//! The paper's companion studies (its refs \[8\]–\[12\]) analyse wave
//! propagation along 1-D height profiles. This module provides the 1-D
//! analogue of the 2-D machinery with the same conventions:
//!
//! ```text
//! ∫ W(k) dk = h²,   ρ(x) = ∫ W(k) e^{jkx} dk,   ρ(0) = h²
//! ```
//!
//! | family | `W(k)` | `ρ(x)` |
//! |---|---|---|
//! | [`Gaussian1d`] | `h²·cl/(2√π) · exp(−(k·cl/2)²)` | `h² exp(−(x/cl)²)` |
//! | [`Exponential1d`] | `h²·cl/π / (1 + (k·cl)²)` | `h² exp(−|x|/cl)` |
//!
//! and the discrete weighting/amplitude arrays of the paper's eqns
//! (15)/(17) reduced to one axis.

use rrs_fft::spectral::{angular_frequency, fold_index};

/// Statistical parameters of a 1-D profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LineParams {
    /// Height standard deviation.
    pub h: f64,
    /// Correlation length.
    pub cl: f64,
}

impl LineParams {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics unless `h ≥ 0` and `cl > 0`, both finite.
    pub fn new(h: f64, cl: f64) -> Self {
        assert!(h.is_finite() && h >= 0.0, "h must be finite and non-negative, got {h}");
        assert!(cl.is_finite() && cl > 0.0, "cl must be finite and positive, got {cl}");
        Self { h, cl }
    }

    /// Height variance `h²`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.h * self.h
    }
}

/// A 1-D profile spectrum with `∫W dk = h²`.
pub trait Spectrum1d: Send + Sync {
    /// The parameters the model was built with.
    fn params(&self) -> LineParams;
    /// Spectral density `W(k)`.
    fn density(&self, k: f64) -> f64;
    /// Autocorrelation `ρ(x)`; `ρ(0) = h²`.
    fn autocorrelation(&self, x: f64) -> f64;
}

/// Gaussian 1-D spectrum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gaussian1d {
    /// Profile parameters.
    pub params: LineParams,
}

impl Gaussian1d {
    /// Builds the model.
    pub fn new(params: LineParams) -> Self {
        Self { params }
    }
}

impl Spectrum1d for Gaussian1d {
    fn params(&self) -> LineParams {
        self.params
    }

    fn density(&self, k: f64) -> f64 {
        let p = self.params;
        let a = 0.5 * k * p.cl;
        p.variance() * p.cl / (2.0 * core::f64::consts::PI.sqrt()) * (-a * a).exp()
    }

    fn autocorrelation(&self, x: f64) -> f64 {
        let p = self.params;
        let u = x / p.cl;
        p.variance() * (-u * u).exp()
    }
}

/// Exponential 1-D spectrum (Lorentzian density).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential1d {
    /// Profile parameters.
    pub params: LineParams,
}

impl Exponential1d {
    /// Builds the model.
    pub fn new(params: LineParams) -> Self {
        Self { params }
    }
}

impl Spectrum1d for Exponential1d {
    fn params(&self) -> LineParams {
        self.params
    }

    fn density(&self, k: f64) -> f64 {
        let p = self.params;
        let a = k * p.cl;
        p.variance() * p.cl / core::f64::consts::PI / (1.0 + a * a)
    }

    fn autocorrelation(&self, x: f64) -> f64 {
        let p = self.params;
        p.variance() * (-(x / p.cl).abs()).exp()
    }
}

/// The 1-D weighting array `w[m] = (2π/L)·W(k_m')` in DFT bin order (the
/// one-axis reduction of eqn 15). `n` must be even, `dx > 0`.
pub fn weight_array_1d<S: Spectrum1d + ?Sized>(spectrum: &S, n: usize, dx: f64) -> Vec<f64> {
    assert!(n >= 2 && n % 2 == 0, "n must be even and >= 2, got {n}");
    assert!(dx > 0.0 && dx.is_finite(), "dx must be positive");
    let l = n as f64 * dx;
    let cell = core::f64::consts::TAU / l;
    let half = n / 2;
    (0..n)
        .map(|m| {
            let k = angular_frequency(fold_index(m, half), l);
            cell * spectrum.density(k)
        })
        .collect()
}

/// The 1-D amplitude array `v = √w` (eqn 17, one axis).
pub fn amplitude_array_1d<S: Spectrum1d + ?Sized>(spectrum: &S, n: usize, dx: f64) -> Vec<f64> {
    weight_array_1d(spectrum, n, dx).into_iter().map(f64::sqrt).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn densities_integrate_to_variance() {
        let integrate = |f: &dyn Fn(f64) -> f64, kmax: f64, n: usize| -> f64 {
            let dk = 2.0 * kmax / n as f64;
            (0..n).map(|i| f(-kmax + (i as f64 + 0.5) * dk)).sum::<f64>() * dk
        };
        let g = Gaussian1d::new(LineParams::new(1.5, 8.0));
        let ig = integrate(&|k| g.density(k), 4.0, 4000);
        assert!((ig - 2.25).abs() < 1e-8, "gaussian ∫W = {ig}");
        let e = Exponential1d::new(LineParams::new(2.0, 5.0));
        let ie = integrate(&|k| e.density(k), 400.0, 400_000);
        assert!((ie - 4.0).abs() < 0.02, "exponential ∫W = {ie}");
    }

    #[test]
    fn autocorrelations_match_fourier_transform() {
        let check = |s: &dyn Spectrum1d, x: f64, kmax: f64, n: usize, tol: f64| {
            let dk = 2.0 * kmax / n as f64;
            let fourier: f64 = (0..n)
                .map(|i| {
                    let k = -kmax + (i as f64 + 0.5) * dk;
                    s.density(k) * (k * x).cos()
                })
                .sum::<f64>()
                * dk;
            let direct = s.autocorrelation(x);
            assert!((fourier - direct).abs() < tol, "x={x}: {fourier} vs {direct}");
        };
        let g = Gaussian1d::new(LineParams::new(1.0, 6.0));
        for x in [0.0, 2.0, 6.0, 12.0] {
            check(&g, x, 4.0, 4000, 1e-8);
        }
        let e = Exponential1d::new(LineParams::new(1.0, 6.0));
        for x in [0.0, 3.0, 6.0, 18.0] {
            check(&e, x, 300.0, 300_000, 1e-2);
        }
    }

    #[test]
    fn weights_sum_to_variance() {
        let g = Gaussian1d::new(LineParams::new(1.3, 10.0));
        let w = weight_array_1d(&g, 256, 1.0);
        let total: f64 = w.iter().sum();
        assert!((total - 1.69).abs() < 1e-9, "Σw = {total}");
        assert!(w.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn weights_are_symmetric() {
        let e = Exponential1d::new(LineParams::new(1.0, 7.0));
        let w = weight_array_1d(&e, 64, 1.0);
        for m in 1..64 {
            assert!((w[m] - w[64 - m]).abs() < 1e-15, "bin {m}");
        }
    }

    #[test]
    fn amplitude_squares_back() {
        let g = Gaussian1d::new(LineParams::new(0.8, 4.0));
        let w = weight_array_1d(&g, 32, 1.0);
        let v = amplitude_array_1d(&g, 32, 1.0);
        for (a, b) in v.iter().zip(&w) {
            assert!((a * a - b).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "cl must be finite and positive")]
    fn bad_params_rejected() {
        LineParams::new(1.0, 0.0);
    }
}
