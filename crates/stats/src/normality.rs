//! Normality tests for surface heights.
//!
//! The generators are linear maps of Gaussian noise, so heights must be
//! exactly Gaussian; these tests catch implementation bugs (wrong
//! normalisation, broken Hermitian symmetry, biased noise) that second
//! moments alone would miss.

use crate::moments::Moments;
use rrs_num::special::{gamma_q, normal_cdf};

/// Result of a hypothesis test.
#[derive(Clone, Copy, Debug)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// Asymptotic p-value under the null hypothesis.
    pub p_value: f64,
}

impl TestResult {
    /// `true` if the null is *not* rejected at significance `alpha`.
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// One-sample Kolmogorov–Smirnov test against `N(mean, sigma²)`.
///
/// The p-value uses the asymptotic Kolmogorov distribution
/// `Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}` with the Stephens small-sample
/// correction.
///
/// # Panics
/// Panics if `samples` is empty or `sigma <= 0`.
pub fn ks_test_normal(samples: &[f64], mean: f64, sigma: f64) -> TestResult {
    assert!(!samples.is_empty(), "KS test needs samples");
    assert!(sigma > 0.0, "sigma must be positive");
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let cdf = normal_cdf((x - mean) / sigma);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((cdf - lo).abs()).max((hi - cdf).abs());
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    TestResult { statistic: d, p_value: kolmogorov_q(lambda) }
}

/// The Kolmogorov survival function `Q(λ)`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 0.2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = sign * (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += term;
        if term.abs() < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// χ² goodness-of-fit against `N(mean, sigma²)` with `bins` equiprobable
/// cells (so every cell has expectation `n/bins`).
///
/// # Panics
/// Panics if fewer than `5 × bins` samples are supplied (the usual
/// minimum-expected-count rule) or `bins < 3`.
pub fn chi_square_test_normal(samples: &[f64], mean: f64, sigma: f64, bins: usize) -> TestResult {
    assert!(bins >= 3, "need at least 3 bins");
    assert!(
        samples.len() >= 5 * bins,
        "need at least 5 samples per bin ({} < {})",
        samples.len(),
        5 * bins
    );
    assert!(sigma > 0.0, "sigma must be positive");
    let n = samples.len() as f64;
    let expected = n / bins as f64;
    let mut counts = vec![0u64; bins];
    for &x in samples {
        let u = normal_cdf((x - mean) / sigma);
        let i = ((u * bins as f64) as usize).min(bins - 1);
        counts[i] += 1;
    }
    let stat: f64 =
        counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
    // dof = bins − 1 (parameters are supplied, not fitted).
    let dof = (bins - 1) as f64;
    TestResult { statistic: stat, p_value: gamma_q(dof / 2.0, stat / 2.0) }
}

/// Jarque–Bera test: joint skewness/kurtosis departure from normality.
/// `JB = n/6·(S² + (K−3)²/4) ~ χ²(2)` asymptotically.
pub fn jarque_bera_test(samples: &[f64]) -> TestResult {
    assert!(samples.len() >= 8, "JB needs a reasonable sample size");
    let m = Moments::from_slice(samples);
    let n = m.count() as f64;
    let s = m.skewness();
    let k = m.kurtosis();
    let stat = n / 6.0 * (s * s + 0.25 * (k - 3.0) * (k - 3.0));
    TestResult { statistic: stat, p_value: gamma_q(1.0, stat / 2.0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_rng::{BoxMuller, RandomSource, Xoshiro256pp};

    fn gaussian_samples(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut g = BoxMuller::new();
        (0..n).map(|_| g.sample(&mut rng)).collect()
    }

    #[test]
    fn gaussian_data_passes_all_tests() {
        let xs = gaussian_samples(20_000, 1);
        assert!(ks_test_normal(&xs, 0.0, 1.0).passes(0.01));
        assert!(chi_square_test_normal(&xs, 0.0, 1.0, 20).passes(0.01));
        assert!(jarque_bera_test(&xs).passes(0.01));
    }

    #[test]
    fn uniform_data_fails_ks_and_jb() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        // Matched mean 0 and std 1/sqrt(3).
        let sigma = (1.0f64 / 3.0).sqrt();
        assert!(!ks_test_normal(&xs, 0.0, sigma).passes(0.01));
        assert!(!jarque_bera_test(&xs).passes(0.01));
        assert!(!chi_square_test_normal(&xs, 0.0, sigma, 20).passes(0.01));
    }

    #[test]
    fn wrong_scale_is_detected() {
        let xs = gaussian_samples(20_000, 3);
        assert!(!ks_test_normal(&xs, 0.0, 2.0).passes(0.01), "σ twice too large");
        assert!(!ks_test_normal(&xs, 1.0, 1.0).passes(0.01), "mean off by 1");
    }

    #[test]
    fn shifted_data_passes_with_matching_parameters() {
        let xs: Vec<f64> = gaussian_samples(20_000, 4).iter().map(|&x| 5.0 + 2.0 * x).collect();
        assert!(ks_test_normal(&xs, 5.0, 2.0).passes(0.01));
        assert!(chi_square_test_normal(&xs, 5.0, 2.0, 15).passes(0.01));
    }

    #[test]
    fn kolmogorov_q_anchors() {
        // Q(λ) ≈ 1 for tiny λ, → 0 for large λ; critical value Q(1.36)≈0.05.
        assert!((kolmogorov_q(0.1) - 1.0).abs() < 1e-12);
        assert!(kolmogorov_q(3.0) < 1e-6);
        let q = kolmogorov_q(1.36);
        assert!((q - 0.05).abs() < 0.003, "Q(1.36) = {q}");
    }

    #[test]
    fn p_values_are_probabilities() {
        let xs = gaussian_samples(5_000, 5);
        for t in [
            ks_test_normal(&xs, 0.0, 1.0),
            chi_square_test_normal(&xs, 0.0, 1.0, 10),
            jarque_bera_test(&xs),
        ] {
            assert!((0.0..=1.0).contains(&t.p_value), "p = {}", t.p_value);
            assert!(t.statistic >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_ks_rejected() {
        ks_test_normal(&[], 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "5 samples per bin")]
    fn tiny_chi_square_rejected() {
        chi_square_test_normal(&[0.0; 10], 0.0, 1.0, 10);
    }
}
