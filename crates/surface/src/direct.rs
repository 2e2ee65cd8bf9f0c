//! The direct DFT method (paper §2.4, eqn 30) — the classical baseline.
//!
//! `f = DFT(v·u)`: the amplitude array `v = √w` shapes a Hermitian complex
//! Gaussian array `u`, and one 2-D FFT produces the surface. With the
//! workspace's DFT conventions the result is exactly real, and
//! `Var f = Σw ≈ h²` without further normalisation.

use crate::hermitian::hermitian_gaussian_array;
use rrs_error::RrsError;
use rrs_fft::{Direction, FftPlanCache};
use rrs_grid::Grid2;
use rrs_num::Complex64;
use rrs_rng::{RandomSource, Xoshiro256pp};
use rrs_spectrum::{amplitude_array, GridSpec, Spectrum};

/// One-shot periodic surface generator by the direct DFT method.
pub struct DirectDftGenerator<S> {
    spectrum: S,
    spec: GridSpec,
    workers: usize,
}

impl<S: Spectrum> DirectDftGenerator<S> {
    /// Prepares a generator on the lattice `spec` with default parallelism.
    pub fn new(spectrum: S, spec: GridSpec) -> Self {
        Self::with_workers(spectrum, spec, rrs_par::default_workers())
    }

    /// Prepares a generator with an explicit worker count.
    pub fn with_workers(spectrum: S, spec: GridSpec, workers: usize) -> Self {
        Self { spectrum, spec, workers: workers.max(1) }
    }

    /// Generates one realisation from `seed`.
    pub fn generate(&self, seed: u64) -> Grid2<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        self.generate_with(&mut rng)
    }

    /// Generates one realisation from a caller-provided uniform source.
    pub fn generate_with<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Grid2<f64> {
        let u = hermitian_gaussian_array(self.spec.nx, self.spec.ny, rng);
        self.generate_from_bins(&u)
    }

    /// Generates the surface determined by an explicit Hermitian bin array
    /// `u`. Exposed so the test suite can drive the direct and convolution
    /// methods with the *same* randomness and compare outputs exactly.
    ///
    /// # Panics
    /// Panics if `u.len() != nx * ny`. Fallible callers use
    /// [`DirectDftGenerator::try_generate_from_bins`].
    pub fn generate_from_bins(&self, u: &[Complex64]) -> Grid2<f64> {
        self.try_generate_from_bins(u).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DirectDftGenerator::generate_from_bins`]: the bin array
    /// must have exactly `nx · ny` entries.
    pub fn try_generate_from_bins(&self, u: &[Complex64]) -> Result<Grid2<f64>, RrsError> {
        let (nx, ny) = (self.spec.nx, self.spec.ny);
        if u.len() != nx * ny {
            return Err(RrsError::shape_mismatch(
                "bin array shape mismatch",
                nx * ny,
                u.len(),
            ));
        }
        let v = amplitude_array(&self.spectrum, self.spec);
        let mut z: Vec<Complex64> =
            v.as_slice().iter().zip(u).map(|(&a, &b)| b.scale(a)).collect();
        FftPlanCache::global().plan(nx, ny).process(&mut z, Direction::Forward, self.workers);
        // The transform of a Hermitian array is real up to rounding.
        debug_assert!(
            z.iter().map(|c| c.im.abs()).fold(0.0, f64::max) < 1e-8,
            "direct DFT output is not real"
        );
        Ok(Grid2::from_vec(nx, ny, z.into_iter().map(|c| c.re).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::{Exponential, Gaussian, PowerLaw, SurfaceParams};

    #[test]
    fn output_shape_matches_spec() {
        let gen = DirectDftGenerator::with_workers(
            Gaussian::new(SurfaceParams::isotropic(1.0, 8.0)),
            GridSpec::unit(64, 32),
            1,
        );
        let f = gen.generate(1);
        assert_eq!(f.shape(), (64, 32));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let gen = DirectDftGenerator::with_workers(
            Gaussian::new(SurfaceParams::isotropic(1.0, 8.0)),
            GridSpec::unit(32, 32),
            1,
        );
        assert_eq!(gen.generate(42), gen.generate(42));
        assert_ne!(gen.generate(42), gen.generate(43));
    }

    #[test]
    fn height_std_matches_target_gaussian() {
        // Single realisation on a domain >> cl: spatial std ≈ h within the
        // ensemble fluctuation of order h/sqrt(#independent patches).
        let h = 1.5;
        let cl = 8.0;
        let n = 256;
        let gen = DirectDftGenerator::with_workers(
            Gaussian::new(SurfaceParams::isotropic(h, cl)),
            GridSpec::unit(n, n),
            1,
        );
        let f = gen.generate(7);
        let measured = f.std_dev();
        let patches = (n as f64 / cl) * (n as f64 / cl);
        let tol = 4.5 * h / patches.sqrt();
        assert!((measured - h).abs() < tol, "ĥ = {measured}, target {h} ± {tol}");
        assert!(f.mean().abs() < tol, "mean = {}", f.mean());
    }

    #[test]
    fn height_std_matches_target_all_spectra() {
        let h = 1.0;
        let cl = 6.0;
        let spec = GridSpec::unit(256, 256);
        let p = SurfaceParams::isotropic(h, cl);
        let measured = [
            DirectDftGenerator::with_workers(Gaussian::new(p), spec, 1).generate(3).std_dev(),
            DirectDftGenerator::with_workers(Exponential::new(p), spec, 1).generate(3).std_dev(),
            DirectDftGenerator::with_workers(PowerLaw::new(p, 2.0), spec, 1).generate(3).std_dev(),
        ];
        for (i, &m) in measured.iter().enumerate() {
            assert!((m - h).abs() < 0.25, "spectrum {i}: ĥ = {m}");
        }
    }

    #[test]
    fn ensemble_variance_converges_to_h_squared() {
        let h = 2.0;
        let gen = DirectDftGenerator::with_workers(
            Gaussian::new(SurfaceParams::isotropic(h, 10.0)),
            GridSpec::unit(64, 64),
            1,
        );
        let reps = 60;
        let mut acc = 0.0;
        for seed in 0..reps {
            let f = gen.generate(seed);
            acc += f.as_slice().iter().map(|&v| v * v).sum::<f64>() / f.len() as f64;
        }
        let var = acc / reps as f64;
        assert!((var - h * h).abs() < 0.3, "ensemble Var = {var}, target {}", h * h);
    }

    #[test]
    fn parallel_output_is_identical_to_serial() {
        let p = SurfaceParams::isotropic(1.0, 8.0);
        let spec = GridSpec::unit(64, 64);
        let serial = DirectDftGenerator::with_workers(Gaussian::new(p), spec, 1).generate(9);
        let parallel = DirectDftGenerator::with_workers(Gaussian::new(p), spec, 4).generate(9);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn anisotropic_surface_decorrelates_faster_on_short_axis() {
        // Sample-estimate lag-k autocorrelation along each axis.
        let p = SurfaceParams::new(1.0, 24.0, 4.0);
        let n = 256;
        let f = DirectDftGenerator::with_workers(Gaussian::new(p), GridSpec::unit(n, n), 1)
            .generate(11);
        let lag = 6usize;
        let mut ax = 0.0;
        let mut ay = 0.0;
        let mut count = 0.0;
        for iy in 0..n - lag {
            for ix in 0..n - lag {
                let c = *f.get(ix, iy);
                ax += c * *f.get(ix + lag, iy);
                ay += c * *f.get(ix, iy + lag);
                count += 1.0;
            }
        }
        ax /= count;
        ay /= count;
        assert!(ax > ay + 0.1, "autocorr x-lag {ax} should exceed y-lag {ay}");
    }
}
