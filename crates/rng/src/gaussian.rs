//! Gaussian (normal) deviate generation.
//!
//! [`BoxMuller`] is a faithful implementation of the paper's eqn (18):
//!
//! ```text
//! u1 = rand(2π),  u2 = rand(1),  X = sqrt(-2 ln u2) · cos(u1)
//! ```
//!
//! including the companion `sin` deviate the transform produces for free.

use crate::RandomSource;
use core::f64::consts::TAU;

/// The Box–Muller transform of the paper's eqn (18), caching the second
/// deviate of each pair.
#[derive(Clone, Debug, Default)]
pub struct BoxMuller {
    cached: Option<f64>,
}

impl BoxMuller {
    /// Creates a transform with an empty pair cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a full independent pair `(X, Y)` — the two Gaussian sets
    /// `{X}` and `{Y}` of the paper's eqn (19) are built this way.
    pub fn sample_pair<R: RandomSource + ?Sized>(&mut self, rng: &mut R) -> (f64, f64) {
        let u1 = TAU * rng.next_f64(); // rand(2π)
        let u2 = rng.next_f64_open(); // rand(1), never 0 so the log is finite
        let r = (-2.0 * u2.ln()).sqrt();
        let (s, c) = u1.sin_cos();
        (r * c, r * s)
    }

    /// Draws one `N(0, 1)` sample: the first deviate of a fresh pair, or
    /// the cached second one.
    pub fn sample<R: RandomSource + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        let (x, y) = self.sample_pair(rng);
        self.cached = Some(y);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256pp;

    fn moments(samples: &[f64]) -> (f64, f64, f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n;
        let skew = samples.iter().map(|&x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = samples.iter().map(|&x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        (mean, var, skew, kurt)
    }

    fn check_standard_normal(samples: &[f64]) {
        let n = samples.len() as f64;
        let (mean, var, skew, kurt) = moments(samples);
        // Standard errors: mean ~ 1/sqrt(n), var ~ sqrt(2/n),
        // skew ~ sqrt(6/n), kurt ~ sqrt(24/n).
        assert!(mean.abs() < 4.5 / n.sqrt(), "mean={mean}");
        assert!((var - 1.0).abs() < 4.5 * (2.0 / n).sqrt(), "var={var}");
        assert!(skew.abs() < 4.5 * (6.0 / n).sqrt(), "skew={skew}");
        assert!((kurt - 3.0).abs() < 4.5 * (24.0 / n).sqrt(), "kurt={kurt}");
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut g = BoxMuller::new();
        let samples: Vec<f64> = (0..400_000).map(|_| g.sample(&mut rng)).collect();
        check_standard_normal(&samples);
    }

    #[test]
    fn pair_components_are_uncorrelated() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut g = BoxMuller::new();
        let n = 200_000;
        let mut sxy = 0.0;
        for _ in 0..n {
            let (x, y) = g.sample_pair(&mut rng);
            sxy += x * y;
        }
        let corr = sxy / n as f64;
        assert!(corr.abs() < 4.5 / (n as f64).sqrt(), "corr={corr}");
    }

    #[test]
    fn cache_makes_pairs_stream_correctly() {
        // Two sequential sample() calls must reproduce one sample_pair().
        let mut rng1 = Xoshiro256pp::seed_from_u64(4);
        let mut rng2 = Xoshiro256pp::seed_from_u64(4);
        let mut a = BoxMuller::new();
        let mut b = BoxMuller::new();
        let (x, y) = a.sample_pair(&mut rng1);
        let x2 = b.sample(&mut rng2);
        let y2 = b.sample(&mut rng2);
        assert_eq!(x, x2);
        assert_eq!(y, y2);
    }

    #[test]
    fn ks_test_against_normal_cdf() {
        // One-sample Kolmogorov–Smirnov at a generous threshold: with
        // n = 50_000 the 1% critical value of sqrt(n)·D is about 1.63.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut g = BoxMuller::new();
        let n = 50_000;
        let mut samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d: f64 = 0.0;
        for (i, &x) in samples.iter().enumerate() {
            let cdf = 0.5 * (1.0 + erf_approx(x / std::f64::consts::SQRT_2));
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((cdf - lo).abs()).max((cdf - hi).abs());
        }
        let stat = (n as f64).sqrt() * d;
        assert!(stat < 1.95, "KS statistic too large: {stat}");
    }

    // Local erf good to ~1e-7 — plenty for a KS bound check (keeps this
    // crate independent of rrs-num).
    fn erf_approx(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.3275911 * x.abs());
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        let v = 1.0 - poly * (-x * x).exp();
        if x >= 0.0 { v } else { -v }
    }
}
