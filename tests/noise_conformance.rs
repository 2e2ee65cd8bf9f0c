//! Conformance of the noise lattice and of the fields built on it against
//! the model, with bounds from the sample size.
//!
//! Engine-against-engine checks cannot see a defect in the lattice,
//! because every engine reads the same lattice. These checks compare with
//! what i.i.d. `N(0,1)` noise and a Gaussian field must give. They never
//! rescale by a sample standard deviation: the moments are divided by the
//! model's variance (1 for the noise, the kernel energy `Σ w̃²` for a
//! field), so a wrong scale shows as well as a wrong shape.

use rrs::prelude::*;
use rrs::stats::normality::{chi_square_test_normal, jarque_bera_test, ks_test_normal};

/// Standard errors a check may be off by before it fails. Each check is a
/// mean of many terms, so its error is close to normal; at 5 standard
/// errors a correct lattice fails one check in about 1.7 million.
const Z: f64 = 5.0;

/// `P(|Z| < 0.5)` for a standard normal `Z`: `erf(0.5/√2)`.
const P_SMALL: f64 = 0.382_924_922_548_026;

/// The lag statistics of neighbours `x` and `x′ = X[n + lag]` over a
/// window, each with its bound.
struct LagStats {
    /// `corr(x², x′²)`, from `E[(x² − 1)(x′² − 1)]/2`: 0 for independent
    /// deviates, with standard error `1/√n`.
    corr_sq: f64,
    /// `E[x²·x′]`: 0, with standard error `√(3/n)`.
    skew_cross: f64,
    /// `P(|x′| < 0.5 given |x| > 2.5)`: `P_SMALL` for independent
    /// deviates, with the binomial standard error of the tail count.
    p_small_after_tail: f64,
    pairs: f64,
    tails: f64,
}

fn lag_stats(win: &[f64], w: usize, h: usize, (dx, dy): (i64, i64)) -> LagStats {
    let (mut sq, mut cross, mut tails, mut small, mut pairs) = (0.0, 0.0, 0.0, 0.0, 0.0);
    // Every point whose neighbour at the lag lies inside the window.
    let xs = dx.min(0).unsigned_abs() as usize..w - dx.max(0) as usize;
    let ys = dy.min(0).unsigned_abs() as usize..h - dy.max(0) as usize;
    for y in ys {
        let row = &win[y * w..];
        let next = &win[(y as i64 + dy) as usize * w..];
        for x in xs.clone() {
            let (a, b) = (row[x], next[(x as i64 + dx) as usize]);
            sq += (a * a - 1.0) * (b * b - 1.0);
            cross += a * a * b;
            pairs += 1.0;
            if a.abs() > 2.5 {
                tails += 1.0;
                small += f64::from(u8::from(b.abs() < 0.5));
            }
        }
    }
    LagStats {
        corr_sq: sq / pairs / 2.0,
        skew_cross: cross / pairs,
        p_small_after_tail: small / tails,
        pairs,
        tails,
    }
}

const LAGS: [(i64, i64); 6] = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, 0)];

#[test]
fn neighbours_are_independent_at_every_lag() {
    // 2000 × 2000 samples: about 4·10⁶ pairs and 5·10⁴ tails per lag.
    let (w, h) = (2000, 2000);
    let win = NoiseField::new(2026).window(-1000, 350, w, h);
    let mut failures = Vec::new();
    for lag in LAGS {
        let s = lag_stats(&win, w, h, lag);
        let checks = [
            ("corr(x², x′²)", s.corr_sq, 0.0, 1.0 / s.pairs.sqrt()),
            ("E[x²·x′]", s.skew_cross, 0.0, (3.0 / s.pairs).sqrt()),
            (
                "P(|x′| < 0.5 given |x| > 2.5)",
                s.p_small_after_tail,
                P_SMALL,
                (P_SMALL * (1.0 - P_SMALL) / s.tails).sqrt(),
            ),
        ];
        for (name, got, want, se) in checks {
            if (got - want).abs() > Z * se {
                failures.push(format!("lag {lag:?}: {name} = {got:.4}, want {want:.4} ± {:.4}", Z * se));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn ten_million_samples_pass_ks_chi_square_and_jarque_bera() {
    let (w, h) = (4000, 2500);
    let samples = NoiseField::new(7).window(-123_456, 98_765, w, h);
    assert!(samples.len() >= 10_000_000);
    let ks = ks_test_normal(&samples, 0.0, 1.0);
    let chi2 = chi_square_test_normal(&samples, 0.0, 1.0, 200);
    let jb = jarque_bera_test(&samples);
    for (name, r) in [("KS", ks), ("chi-square", chi2), ("Jarque-Bera", jb)] {
        assert!(r.passes(1e-4), "{name}: statistic {} p = {}", r.statistic, r.p_value);
    }
}

/// Mean and standard error of a small ensemble.
fn mean_and_se(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[test]
fn gaussian_fields_have_zero_skewness_and_excess_kurtosis() {
    // 12 windows of 600² per correlation length, each on its own seed.
    // Skewness is E[f³]/σ³ and excess kurtosis E[f⁴]/σ⁴ − 3 with σ² the
    // kernel energy, the field's exact variance. The ensemble's spread
    // gives the standard error; with 11 degrees of freedom a bound of 5
    // of them fails a correct field about once in 2500 checks.
    let mut failures = Vec::new();
    for cl in [2.0, 4.0, 8.0] {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, cl));
        let gen = ConvolutionGenerator::new(&s, KernelSizing::default());
        let var = gen.kernel().energy();
        let (mut skew, mut kurt) = (Vec::new(), Vec::new());
        for seed in 0..12u64 {
            let f = gen.generate(&NoiseField::new(1000 + seed), Window::new(-300, 40, 600, 600));
            let n = f.as_slice().len() as f64;
            let m3 = f.as_slice().iter().map(|v| v * v * v).sum::<f64>() / n;
            let m4 = f.as_slice().iter().map(|v| (v * v) * (v * v)).sum::<f64>() / n;
            skew.push(m3 / var.powf(1.5));
            kurt.push(m4 / (var * var) - 3.0);
        }
        for (name, v) in [("skewness", skew), ("excess kurtosis", kurt)] {
            let (mean, se) = mean_and_se(&v);
            if mean.abs() > Z * se {
                failures.push(format!("cl {cl}: {name} {mean:+.4} ± {se:.4}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
