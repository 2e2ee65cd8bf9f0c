//! Periodogram spectral estimation.
//!
//! The inverse check to everything else in the workspace: estimate the
//! spectral density `Ŵ(K)` *from* a generated surface and compare to the
//! model the generator was asked for. With the workspace conventions
//! (paper eqn 2),
//!
//! ```text
//! Ŵ(K_m) = (dx·dy)² · |DFT(f)|² / (4π² · Lx · Ly)
//! ```
//!
//! whose bin sum times the spectral cell `ΔKx·ΔKy` equals the sample
//! variance (discrete Parseval). A single periodogram is exponentially
//! distributed around `W` (100% relative noise); [`periodogram_ensemble`]
//! averages realisations, and [`radial_profile`] bins by `|K|` for
//! isotropic comparisons.

use rrs_fft::{Direction, FftPlanCache};
use rrs_grid::Grid2;
use rrs_num::Complex64;
use rrs_spectrum::GridSpec;

/// The raw periodogram of one surface realisation, in DFT bin order.
/// The surface mean is removed first (the `K = 0` bin would otherwise
/// hold the squared mean, which is not part of `W`).
pub fn periodogram(f: &Grid2<f64>, spec: GridSpec) -> Grid2<f64> {
    let (nx, ny) = f.shape();
    assert_eq!((nx, ny), (spec.nx, spec.ny), "surface does not match the lattice spec");
    let mean = f.mean();
    let mut buf: Vec<Complex64> =
        f.as_slice().iter().map(|&v| Complex64::from_re(v - mean)).collect();
    // Ensemble averaging transforms the same lattice once per seed; the
    // process-wide plan cache keeps the twiddle/bit-reversal tables alive
    // across realisations.
    FftPlanCache::global().plan(nx, ny).process(&mut buf, Direction::Forward, 1);
    let norm = (spec.dx * spec.dy).powi(2)
        / (4.0 * core::f64::consts::PI * core::f64::consts::PI * spec.lx() * spec.ly());
    Grid2::from_vec(nx, ny, buf.into_iter().map(|z| z.norm_sqr() * norm).collect())
}

/// Averages the periodograms of several realisations produced by
/// `make_surface(seed)`; the estimator's relative noise shrinks as
/// `1/√reps`.
pub fn periodogram_ensemble<F>(
    make_surface: F,
    spec: GridSpec,
    seeds: core::ops::Range<u64>,
) -> Grid2<f64>
where
    F: Fn(u64) -> Grid2<f64>,
{
    assert!(seeds.start < seeds.end, "ensemble needs at least one seed");
    let count = (seeds.end - seeds.start) as f64;
    let mut acc = Grid2::zeros(spec.nx, spec.ny);
    for seed in seeds {
        acc.add_assign(&periodogram(&make_surface(seed), spec));
    }
    acc.scale(1.0 / count);
    acc
}

/// Radially averages a periodogram into `bins` annuli of `|K|`; returns
/// `(k_center, mean Ŵ)` pairs for bins that received any samples.
pub fn radial_profile(pgram: &Grid2<f64>, spec: GridSpec, bins: usize) -> Vec<(f64, f64)> {
    assert!(bins >= 1, "need at least one bin");
    let k_nyquist_x = core::f64::consts::PI / spec.dx;
    let k_nyquist_y = core::f64::consts::PI / spec.dy;
    let k_max = k_nyquist_x.min(k_nyquist_y);
    let mut sums = vec![0.0f64; bins];
    let mut counts = vec![0usize; bins];
    for iy in 0..spec.ny {
        let ky = GridSpec::signed_frequency(iy, spec.ny, spec.ly());
        for ix in 0..spec.nx {
            let kx = GridSpec::signed_frequency(ix, spec.nx, spec.lx());
            let k = kx.hypot(ky);
            if k >= k_max {
                continue;
            }
            let b = ((k / k_max) * bins as f64) as usize;
            sums[b.min(bins - 1)] += *pgram.get(ix, iy);
            counts[b.min(bins - 1)] += 1;
        }
    }
    (0..bins)
        .filter(|&b| counts[b] > 0)
        .map(|b| {
            let k_center = (b as f64 + 0.5) / bins as f64 * k_max;
            (k_center, sums[b] / counts[b] as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::{Exponential, Gaussian, Spectrum, SurfaceParams};
    use rrs_surface::DirectDftGenerator;

    fn spec(n: usize) -> GridSpec {
        GridSpec::unit(n, n)
    }

    #[test]
    fn periodogram_satisfies_parseval() {
        // Σ Ŵ · ΔK² = sample variance, exactly.
        let p = SurfaceParams::isotropic(1.3, 6.0);
        let f = DirectDftGenerator::new(Gaussian::new(p), spec(64)).generate(3);
        let pg = periodogram(&f, spec(64));
        let cell = (core::f64::consts::TAU / 64.0).powi(2);
        let total: f64 = pg.as_slice().iter().sum::<f64>() * cell;
        assert!(
            (total - f.variance()).abs() < 1e-9 * f.variance(),
            "Parseval: {total} vs {}",
            f.variance()
        );
    }

    #[test]
    fn ensemble_periodogram_recovers_the_model_density() {
        // The headline property: averaging many periodograms converges to
        // W(K) — the generator writes the spectrum it was asked for.
        let params = SurfaceParams::isotropic(1.0, 6.0);
        let s = Gaussian::new(params);
        let n = 128;
        let gen = DirectDftGenerator::with_workers(s, spec(n), 1);
        let pg = periodogram_ensemble(|seed| gen.generate(seed), spec(n), 0..24);
        // Compare at a spread of bins (skip K=0, whose mean was removed).
        for &(ix, iy) in &[(2usize, 0usize), (4, 3), (0, 6), (8, 8), (12, 0)] {
            let kx = GridSpec::signed_frequency(ix, n, n as f64);
            let ky = GridSpec::signed_frequency(iy, n, n as f64);
            let model = s.density(kx, ky);
            let got = *pg.get(ix, iy);
            // 24 realisations ⇒ ~20% noise per bin.
            assert!(
                (got - model).abs() < 0.5 * model.max(1e-4),
                "bin ({ix},{iy}): Ŵ = {got}, W = {model}"
            );
        }
    }

    #[test]
    fn radial_profile_tracks_isotropic_decay() {
        let params = SurfaceParams::isotropic(1.0, 8.0);
        let s = Exponential::new(params);
        let n = 128;
        let gen = DirectDftGenerator::with_workers(s, spec(n), 1);
        let pg = periodogram_ensemble(|seed| gen.generate(100 + seed), spec(n), 0..16);
        let profile = radial_profile(&pg, spec(n), 16);
        assert!(profile.len() >= 12);
        // Monotone-ish decay: first annulus well above the last.
        let first = profile[0].1;
        let last = profile[profile.len() - 1].1;
        assert!(first > 10.0 * last, "profile must decay: {first} vs {last}");
        // And the values match the model at the bin centres (radially
        // averaged, so compare against the model's own annulus average).
        for &(k, w) in profile.iter().take(6).skip(1) {
            let model = s.density(k, 0.0);
            assert!(
                (w - model).abs() < 0.5 * model.max(1e-4),
                "k={k}: Ŵ = {w}, W = {model}"
            );
        }
    }

    #[test]
    fn white_noise_has_flat_spectrum() {
        use rrs_surface::NoiseField;
        let n = 128usize;
        let noise = NoiseField::new(5);
        let make = |seed: u64| {
            let nf = NoiseField::new(seed);
            Grid2::from_fn(n, n, |x, y| nf.at(x as i64, y as i64))
        };
        let _ = noise;
        let pg = periodogram_ensemble(make, spec(n), 0..12);
        // W_white = σ²/(4π²)·dx·dy = 1/(4π²) per unit cell.
        let expect = 1.0 / (4.0 * core::f64::consts::PI * core::f64::consts::PI);
        let profile = radial_profile(&pg, spec(n), 8);
        for &(k, w) in &profile {
            assert!((w - expect).abs() < 0.2 * expect, "k={k}: Ŵ = {w} vs flat {expect}");
        }
    }

    #[test]
    fn mean_removal_zeroes_the_dc_bin_for_constants() {
        let f = Grid2::filled(32, 32, 5.0);
        let pg = periodogram(&f, spec(32));
        assert!(pg.as_slice().iter().all(|&v| v.abs() < 1e-18));
    }

    #[test]
    #[should_panic(expected = "does not match the lattice")]
    fn shape_mismatch_rejected() {
        periodogram(&Grid2::zeros(16, 16), spec(32));
    }
}
