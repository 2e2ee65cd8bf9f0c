//! Discrete spectral weighting arrays (paper §2.2).
//!
//! Sampling the spectral density on the DFT frequency lattice
//! `K_m = 2πm'/L` (eqn 13, folded by eqn 16) and scaling by the spectral
//! cell area gives the weighting array (eqn 15)
//!
//! ```text
//! w[mx, my] = (4π² / (Lx·Ly)) · W(K_mx', K_my')
//! ```
//!
//! whose entries sum to `h²` (the discrete form of `∫W dK = h²`) and whose
//! DFT reproduces the autocorrelation, `DFT(w) ≈ ρ(r)` — the accuracy
//! check the paper recommends, implemented here as [`verify_weight_dft`].
//! The amplitude array `v = √w` (eqn 17) feeds both generation methods.

use crate::model::Spectrum;
use rrs_error::RrsError;
use rrs_fft::spectral::angular_frequency;
use rrs_fft::{Direction, FftPlanCache};
use rrs_grid::Grid2;
use rrs_num::Complex64;

/// The sampling lattice of a discrete surface or kernel: `nx × ny` samples
/// at spacings `dx`, `dy`, so domain lengths are `Lx = nx·dx`, `Ly = ny·dy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridSpec {
    /// Samples along `x`; must be even (the lattice is `2Mx` bins).
    pub nx: usize,
    /// Samples along `y`; must be even.
    pub ny: usize,
    /// Sample spacing along `x`.
    pub dx: f64,
    /// Sample spacing along `y`.
    pub dy: f64,
}

impl GridSpec {
    /// Validated lattice with explicit spacings: both dimensions must be
    /// even and ≥ 2, both spacings positive and finite.
    pub fn try_new(nx: usize, ny: usize, dx: f64, dy: f64) -> Result<Self, RrsError> {
        if !(nx >= 2 && nx % 2 == 0) {
            return Err(RrsError::invalid_param(
                "nx",
                format!("nx must be even and >= 2, got {nx}"),
            ));
        }
        if !(ny >= 2 && ny % 2 == 0) {
            return Err(RrsError::invalid_param(
                "ny",
                format!("ny must be even and >= 2, got {ny}"),
            ));
        }
        if !(dx > 0.0 && dx.is_finite()) {
            return Err(RrsError::invalid_param("dx", format!("dx must be positive, got {dx}")));
        }
        if !(dy > 0.0 && dy.is_finite()) {
            return Err(RrsError::invalid_param("dy", format!("dy must be positive, got {dy}")));
        }
        Ok(Self { nx, ny, dx, dy })
    }

    /// Validated unit-spacing lattice.
    pub fn try_unit(nx: usize, ny: usize) -> Result<Self, RrsError> {
        Self::try_new(nx, ny, 1.0, 1.0)
    }

    /// A lattice with explicit spacings.
    ///
    /// # Panics
    /// Panics unless both dimensions are even and ≥ 2 and spacings are
    /// positive. Fallible callers use [`GridSpec::try_new`].
    pub fn new(nx: usize, ny: usize, dx: f64, dy: f64) -> Self {
        Self::try_new(nx, ny, dx, dy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unit-spacing lattice — the paper's convention.
    pub fn unit(nx: usize, ny: usize) -> Self {
        Self::new(nx, ny, 1.0, 1.0)
    }

    /// Domain length along `x` (`Lx = nx·dx`).
    #[inline]
    pub fn lx(&self) -> f64 {
        self.nx as f64 * self.dx
    }

    /// Domain length along `y`.
    #[inline]
    pub fn ly(&self) -> f64 {
        self.ny as f64 * self.dy
    }

    /// Half-sizes `(Mx, My)` of the frequency lattice.
    #[inline]
    pub fn half(&self) -> (usize, usize) {
        (self.nx / 2, self.ny / 2)
    }

    /// Signed physical frequency of DFT bin `m` on an axis with `n` bins
    /// and domain length `l` (bins above `n/2` are negative frequencies).
    /// The spectra here are even, so callers may also use the folded
    /// magnitude; this helper exists for general diagnostics.
    pub fn signed_frequency(m: usize, n: usize, l: f64) -> f64 {
        debug_assert!(m < n);
        if m <= n / 2 {
            angular_frequency(m, l)
        } else {
            -angular_frequency(n - m, l)
        }
    }
}

/// Builds the weighting array `w` of eqn (15) in DFT bin order.
///
/// `w[mx, my] = 4π²/(Lx·Ly) · W(K_fold(mx), K_fold(my))`; all entries are
/// non-negative and `Σw ≈ h²` (up to spectral truncation at the Nyquist
/// frequency).
pub fn weight_array<S: Spectrum + ?Sized>(spectrum: &S, spec: GridSpec) -> Grid2<f64> {
    let cell = 4.0 * core::f64::consts::PI * core::f64::consts::PI / (spec.lx() * spec.ly());
    Grid2::from_fn(spec.nx, spec.ny, |ix, iy| {
        // Signed frequencies: W is even under K → −K (always true for a
        // real field) but NOT necessarily under kx → −kx alone (rotated
        // anisotropy breaks quadrant symmetry), so folding to magnitudes
        // would be wrong here.
        let kx = GridSpec::signed_frequency(ix, spec.nx, spec.lx());
        let ky = GridSpec::signed_frequency(iy, spec.ny, spec.ly());
        let w = cell * spectrum.density(kx, ky);
        debug_assert!(w >= 0.0, "negative spectral density at bin ({ix},{iy})");
        w
    })
}

/// The amplitude array `v = √w` of eqn (17).
pub fn amplitude_array<S: Spectrum + ?Sized>(spectrum: &S, spec: GridSpec) -> Grid2<f64> {
    let mut v = weight_array(spectrum, spec);
    for z in v.as_mut_slice() {
        *z = z.sqrt();
    }
    v
}

/// The paper's §2.2 accuracy check: transforms `w` and compares against the
/// closed-form autocorrelation at every lag.
///
/// Returns the maximum absolute error normalised by `h²`. For an adequately
/// sampled spectrum this is small (≲ 1e-3); it grows when the correlation
/// length approaches the sample spacing (aliasing) or the domain length
/// (truncation), which is exactly what the check is for.
pub fn verify_weight_dft<S: Spectrum + ?Sized>(spectrum: &S, spec: GridSpec) -> f64 {
    let w = weight_array(spectrum, spec);
    let mut buf: Vec<Complex64> =
        w.as_slice().iter().map(|&x| Complex64::from_re(x)).collect();
    // Verification sweeps re-check the same lattice for many spectra;
    // the process-wide plan cache amortises the transform setup.
    FftPlanCache::global().plan(spec.nx, spec.ny).process(&mut buf, Direction::Forward, 1);
    let h2 = spectrum.params().variance().max(f64::MIN_POSITIVE);
    // Signed lags: bin n carries the displacement n (n ≤ N/2) or n − N.
    let signed_lag = |m: usize, n: usize| -> f64 {
        if m <= n / 2 { m as f64 } else { m as f64 - n as f64 }
    };
    let mut max_err: f64 = 0.0;
    for iy in 0..spec.ny {
        let ry = signed_lag(iy, spec.ny) * spec.dy;
        for ix in 0..spec.nx {
            let rx = signed_lag(ix, spec.nx) * spec.dx;
            let got = buf[iy * spec.nx + ix];
            let expect = spectrum.autocorrelation(rx, ry);
            let err = (got.re - expect).abs().max(got.im.abs());
            max_err = max_err.max(err / h2);
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Exponential, Gaussian, PowerLaw};
    use crate::SurfaceParams;

    #[test]
    fn weights_sum_to_variance() {
        let p = SurfaceParams::isotropic(1.5, 8.0);
        let spec = GridSpec::unit(128, 128);
        let w = weight_array(&Gaussian::new(p), spec);
        let total: f64 = rrs_num::kahan::sum(w.as_slice());
        assert!((total - p.variance()).abs() < 1e-6 * p.variance(), "Σw = {total}");
    }

    #[test]
    fn weights_sum_heavy_tail_within_truncation() {
        // The Exponential spectrum decays like K^-3: Nyquist truncation
        // leaves a visible but bounded deficit.
        let p = SurfaceParams::isotropic(1.0, 10.0);
        let spec = GridSpec::unit(256, 256);
        let w = weight_array(&Exponential::new(p), spec);
        let total: f64 = rrs_num::kahan::sum(w.as_slice());
        assert!(total > 0.95 && total <= 1.001, "Σw = {total}");
    }

    #[test]
    fn weight_array_is_symmetric_under_folding() {
        let p = SurfaceParams::new(1.0, 6.0, 9.0);
        let spec = GridSpec::unit(32, 16);
        let w = weight_array(&PowerLaw::new(p, 2.0), spec);
        // Bin m and bin N−m carry the same |K| and thus the same weight.
        for iy in 1..spec.ny {
            for ix in 1..spec.nx {
                let a = *w.get(ix, iy);
                let b = *w.get(spec.nx - ix, spec.ny - iy);
                assert!((a - b).abs() < 1e-15, "bins ({ix},{iy})");
            }
        }
    }

    #[test]
    fn amplitude_is_sqrt_of_weight() {
        let p = SurfaceParams::isotropic(2.0, 5.0);
        let spec = GridSpec::unit(16, 16);
        let s = Gaussian::new(p);
        let w = weight_array(&s, spec);
        let v = amplitude_array(&s, spec);
        for (a, b) in v.as_slice().iter().zip(w.as_slice()) {
            assert!((a * a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn dft_of_weights_reproduces_gaussian_autocorrelation() {
        // The paper's own §2.2 accuracy check.
        let p = SurfaceParams::isotropic(1.0, 10.0);
        let err = verify_weight_dft(&Gaussian::new(p), GridSpec::unit(128, 128));
        assert!(err < 1e-6, "max relative error {err}");
    }

    #[test]
    fn dft_of_weights_reproduces_exponential_autocorrelation() {
        let p = SurfaceParams::isotropic(1.0, 10.0);
        let err = verify_weight_dft(&Exponential::new(p), GridSpec::unit(256, 256));
        // Heavy spectral tail: a percent-level plateau from truncation.
        assert!(err < 0.05, "max relative error {err}");
    }

    #[test]
    fn dft_of_weights_reproduces_power_law_autocorrelation() {
        let p = SurfaceParams::isotropic(1.0, 10.0);
        for n in [2.0, 3.0] {
            let err = verify_weight_dft(&PowerLaw::new(p, n), GridSpec::unit(256, 256));
            assert!(err < 0.05, "N={n}: max relative error {err}");
        }
    }

    #[test]
    fn check_degrades_when_undersampled() {
        // cl comparable to dx ⇒ aliasing ⇒ the check must flag it.
        let good = verify_weight_dft(
            &Gaussian::new(SurfaceParams::isotropic(1.0, 10.0)),
            GridSpec::unit(64, 64),
        );
        let bad = verify_weight_dft(
            &Gaussian::new(SurfaceParams::isotropic(1.0, 1.0)),
            GridSpec::unit(64, 64),
        );
        assert!(bad > good * 10.0, "good={good}, bad={bad}");
    }

    #[test]
    fn anisotropic_weights_follow_axes() {
        let p = SurfaceParams::new(1.0, 16.0, 4.0);
        let spec = GridSpec::unit(64, 64);
        let w = weight_array(&Gaussian::new(p), spec);
        // Larger clx narrows the spectrum along Kx: weight at (4, 0) bins
        // must be below weight at (0, 4).
        assert!(*w.get(4, 0) < *w.get(0, 4));
    }

    #[test]
    fn signed_frequency_layout() {
        let l = 8.0;
        assert_eq!(GridSpec::signed_frequency(0, 8, l), 0.0);
        assert!(GridSpec::signed_frequency(1, 8, l) > 0.0);
        assert!(GridSpec::signed_frequency(7, 8, l) < 0.0);
        assert!(
            (GridSpec::signed_frequency(1, 8, l) + GridSpec::signed_frequency(7, 8, l)).abs()
                < 1e-15
        );
    }

    #[test]
    fn grid_spec_lengths() {
        let s = GridSpec::new(64, 32, 0.5, 2.0);
        assert_eq!(s.lx(), 32.0);
        assert_eq!(s.ly(), 64.0);
        assert_eq!(s.half(), (32, 16));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_dimension_rejected() {
        GridSpec::unit(15, 16);
    }
}
