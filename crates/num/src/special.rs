//! Special functions required by the closed-form surface statistics.
//!
//! The paper's three spectrum families need:
//!
//! * `Γ(N)` for normalising the N-th order Power-Law spectrum (eqn 7);
//! * the modified Bessel function of the second kind `K_ν` for the
//!   Power-Law autocorrelation (eqn 8), which is the 2-D Fourier transform
//!   of `(1 + |κ|²)^{-N}`;
//! * the error function / regularized incomplete gamma for the statistical
//!   goodness-of-fit tests used when validating generated surfaces.
//!
//! The Bessel implementation follows the classical Temme-series +
//! continued-fraction scheme (Numerical Recipes' `bessik`): it computes
//! `I_μ, K_μ` for the fractional part `|μ| ≤ 1/2` of the order and recurs
//! upward, which is stable for `K` because upward recurrence is dominant.

use core::f64::consts::PI;

const EPS: f64 = 1e-16;
const FPMIN: f64 = 1e-300;
const MAXIT: usize = 10_000;

/// Natural log of the gamma function, `ln Γ(x)` for `x > 0`.
///
/// Lanczos approximation with `g = 7`, 9 coefficients — accurate to about
/// 15 significant digits over the positive axis.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7, n = 9).
    const COF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the series in its accurate range.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COF[0];
    let t = x + 7.5;
    for (i, &c) in COF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Result of a simultaneous modified-Bessel evaluation.
#[derive(Clone, Copy, Debug)]
pub struct BesselIK {
    /// `I_ν(x)` — modified Bessel function of the first kind.
    pub i: f64,
    /// `K_ν(x)` — modified Bessel function of the second kind.
    pub k: f64,
    /// `I'_ν(x)`.
    pub ip: f64,
    /// `K'_ν(x)`.
    pub kp: f64,
}

/// Chebyshev evaluation on `[-1, 1]` (Clenshaw recurrence).
fn chebev(c: &[f64], x: f64) -> f64 {
    let mut d = 0.0;
    let mut dd = 0.0;
    let x2 = 2.0 * x;
    for &cj in c.iter().skip(1).rev() {
        let sv = d;
        d = x2 * d - dd + cj;
        dd = sv;
    }
    x * d - dd + 0.5 * c[0]
}

/// Temme's auxiliary gamma combinations for `|x| ≤ 1/2`:
///
/// `gam1 = [1/Γ(1-x) - 1/Γ(1+x)] / (2x)`, `gam2 = [1/Γ(1-x) + 1/Γ(1+x)] / 2`,
/// `gampl = 1/Γ(1+x)`, `gammi = 1/Γ(1-x)`.
fn beschb(x: f64) -> (f64, f64, f64, f64) {
    const C1: [f64; 7] = [
        -1.142022680371168,
        6.5165112670737e-3,
        3.087090173086e-4,
        -3.4706269649e-6,
        6.9437664e-9,
        3.67795e-11,
        -1.356e-13,
    ];
    const C2: [f64; 8] = [
        1.843740587300905,
        -7.68528408447867e-2,
        1.2719271366546e-3,
        -4.9717367042e-6,
        -3.31261198e-8,
        2.423096e-10,
        -1.702e-13,
        -1.49e-15,
    ];
    let xx = 8.0 * x * x - 1.0;
    let gam1 = chebev(&C1, xx);
    let gam2 = chebev(&C2, xx);
    let gampl = gam2 - x * gam1;
    let gammi = gam2 + x * gam1;
    (gam1, gam2, gampl, gammi)
}

/// Computes `I_ν(x)`, `K_ν(x)` and their derivatives for `x > 0`, `ν ≥ 0`.
///
/// # Panics
/// Panics if `x ≤ 0` or `ν < 0`.
pub fn bessel_ik(nu: f64, x: f64) -> BesselIK {
    assert!(x > 0.0 && nu >= 0.0, "bessel_ik requires x > 0, nu >= 0");
    let nl = (nu + 0.5) as i64; // number of upward recurrences
    let xmu = nu - nl as f64; // fractional order, |xmu| <= 1/2
    let xmu2 = xmu * xmu;
    let xi = 1.0 / x;
    let xi2 = 2.0 * xi;

    // CF1 for I'_nu / I_nu.
    let mut h = (nu * xi).max(FPMIN);
    let mut b = xi2 * nu;
    let mut d = 0.0;
    let mut c = h;
    let mut converged = false;
    for _ in 0..MAXIT {
        b += xi2;
        d = 1.0 / (b + d);
        c = b + 1.0 / c;
        let del = c * d;
        h *= del;
        if (del - 1.0).abs() < EPS {
            converged = true;
            break;
        }
    }
    assert!(converged, "bessel_ik: CF1 failed to converge for nu={nu}, x={x}");

    // Downward recurrence of an unnormalised I from order nu to xmu.
    let mut ril = FPMIN;
    let mut ripl = h * ril;
    let ril1 = ril;
    let rip1 = ripl;
    let mut fact = nu * xi;
    for _ in 0..nl {
        let ritemp = fact * ril + ripl;
        fact -= xi;
        ripl = fact * ritemp + ril;
        ril = ritemp;
    }
    let f = ripl / ril;

    // K_xmu and K_{xmu+1}.
    let (rkmu, rk1) = if x < 2.0 {
        // Temme's series.
        let x2 = 0.5 * x;
        let pimu = PI * xmu;
        let fact = if pimu.abs() < EPS { 1.0 } else { pimu / pimu.sin() };
        let d = -x2.ln();
        let e = xmu * d;
        let fact2 = if e.abs() < EPS { 1.0 } else { e.sinh() / e };
        let (gam1, gam2, gampl, gammi) = beschb(xmu);
        let mut ff = fact * (gam1 * e.cosh() + gam2 * fact2 * d);
        let mut sum = ff;
        let e = e.exp();
        let mut p = 0.5 * e / gampl;
        let mut q = 0.5 / (e * gammi);
        let mut cc = 1.0;
        let dd = x2 * x2;
        let mut sum1 = p;
        let mut ok = false;
        for i in 1..=MAXIT {
            let fi = i as f64;
            ff = (fi * ff + p + q) / (fi * fi - xmu2);
            cc *= dd / fi;
            p /= fi - xmu;
            q /= fi + xmu;
            let del = cc * ff;
            sum += del;
            let del1 = cc * (p - fi * ff);
            sum1 += del1;
            if del.abs() < sum.abs() * EPS {
                ok = true;
                break;
            }
        }
        assert!(ok, "bessel_ik: Temme series failed for nu={nu}, x={x}");
        (sum, sum1 * xi2)
    } else {
        // CF2 (Steed's algorithm) for x >= 2.
        let mut b = 2.0 * (1.0 + x);
        let mut d = 1.0 / b;
        let mut delh = d;
        let mut h2 = d;
        let mut q1 = 0.0;
        let mut q2 = 1.0;
        let a1 = 0.25 - xmu2;
        let mut q = a1;
        let mut cc = a1;
        let mut a = -a1;
        let mut s = 1.0 + q * delh;
        let mut ok = false;
        for i in 2..=MAXIT {
            a -= 2.0 * (i as f64 - 1.0);
            cc = -a * cc / i as f64;
            let qnew = (q1 - b * q2) / a;
            q1 = q2;
            q2 = qnew;
            q += cc * qnew;
            b += 2.0;
            d = 1.0 / (b + a * d);
            delh *= b * d - 1.0;
            h2 += delh;
            let dels = q * delh;
            s += dels;
            if (dels / s).abs() < EPS {
                ok = true;
                break;
            }
        }
        assert!(ok, "bessel_ik: CF2 failed for nu={nu}, x={x}");
        let h2 = a1 * h2;
        let rkmu = (PI / (2.0 * x)).sqrt() * (-x).exp() / s;
        let rk1 = rkmu * (xmu + x + 0.5 - h2) * xi;
        (rkmu, rk1)
    };

    let rkmup = xmu * xi * rkmu - rk1;
    let rimu = xi / (f * rkmu - rkmup);
    let i_out = rimu * ril1 / ril;
    let ip_out = rimu * rip1 / ril;

    // Upward recurrence for K to the requested order.
    let mut rkmu = rkmu;
    let mut rk1 = rk1;
    for l in 1..=nl {
        let rktemp = (xmu + l as f64) * xi2 * rk1 + rkmu;
        rkmu = rk1;
        rk1 = rktemp;
    }
    BesselIK { i: i_out, k: rkmu, ip: ip_out, kp: nu * xi * rkmu - rk1 }
}

/// `K_ν(x)` for `ν ≥ 0`, `x > 0`. Returns `+∞` at `x = 0` and `0` once the
/// exponential tail underflows (`x ≳ 705`).
pub fn bessel_k(nu: f64, x: f64) -> f64 {
    assert!(nu >= 0.0, "bessel_k requires nu >= 0");
    if x == 0.0 {
        return f64::INFINITY;
    }
    if x > 705.0 {
        return 0.0; // e^{-x} underflows; K decays below the f64 floor.
    }
    bessel_ik(nu, x).k
}

/// `I_ν(x)` for `ν ≥ 0`, `x ≥ 0`.
pub fn bessel_i(nu: f64, x: f64) -> f64 {
    assert!(nu >= 0.0, "bessel_i requires nu >= 0");
    if x == 0.0 {
        return if nu == 0.0 { 1.0 } else { 0.0 };
    }
    bessel_ik(nu, x).i
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Series for `x < a + 1`, continued fraction otherwise. Used by the χ²
/// goodness-of-fit test and, through [`erf`], the KS/normality checks.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p requires a > 0, x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q requires a > 0, x >= 0");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAXIT {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            return sum * (-x + a * x.ln() - ln_gamma(a)).exp();
        }
    }
    panic!("gamma_p series failed to converge for a={a}, x={x}");
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz's algorithm for the continued fraction representation of Q.
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAXIT {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        }
    }
    panic!("gamma_q continued fraction failed for a={a}, x={x}");
}

/// The error function `erf(x)`, accurate to near machine precision via the
/// regularized incomplete gamma `P(1/2, x²)`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let v = gamma_p(0.5, x * x);
    if x > 0.0 { v } else { -v }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, without the
/// cancellation loss of computing `1 - erf(x)` for large `x`.
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / core::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;

    #[test]
    fn gamma_integers_are_factorials() {
        let mut fact = 1.0;
        for n in 1..12 {
            assert_close(gamma(n as f64), fact, 1e-12);
            fact *= n as f64;
        }
    }

    #[test]
    fn gamma_half() {
        assert_close(gamma(0.5), PI.sqrt(), 1e-13);
        assert_close(gamma(1.5), 0.5 * PI.sqrt(), 1e-13);
        assert_close(gamma(2.5), 0.75 * PI.sqrt(), 1e-13);
    }

    #[test]
    fn ln_gamma_reflection_small_x() {
        // Γ(0.1) = 9.513507698668732
        assert_close(gamma(0.1), 9.513507698668732, 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence_property() {
        // ln Γ(x+1) = ln Γ(x) + ln x for many x.
        for i in 1..200 {
            let x = 0.07 * i as f64 + 0.01;
            assert_close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-11);
        }
    }

    #[test]
    fn bessel_k_half_order_closed_form() {
        // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0] {
            let expect = (PI / (2.0 * x)).sqrt() * (-x).exp();
            assert_close(bessel_k(0.5, x), expect, 1e-12);
        }
        // K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x).
        for &x in &[0.2, 1.0, 3.0, 8.0] {
            let expect = (PI / (2.0 * x)).sqrt() * (-x).exp() * (1.0 + 1.0 / x);
            assert_close(bessel_k(1.5, x), expect, 1e-12);
        }
    }

    #[test]
    fn bessel_k_reference_values() {
        // Reference values from Abramowitz & Stegun / mpmath.
        assert_close(bessel_k(0.0, 1.0), 0.42102443824070834, 1e-12);
        assert_close(bessel_k(1.0, 1.0), 0.6019072301972346, 1e-12);
        assert_close(bessel_k(2.0, 1.0), 1.6248388986351774, 1e-12);
        assert_close(bessel_k(0.0, 0.1), 2.427_069_024_702_017, 1e-12);
        assert_close(bessel_k(1.0, 0.1), 9.853844780870606, 1e-12);
        assert_close(bessel_k(2.0, 5.0), 0.005308943712733345, 1e-9);
        assert_close(bessel_k(3.0, 2.0), 0.647_385_390_948_234_1, 1e-11);
    }

    #[test]
    fn bessel_i_reference_values() {
        assert_close(bessel_i(0.0, 1.0), 1.2660658777520082, 1e-12);
        assert_close(bessel_i(1.0, 1.0), 0.5651591039924851, 1e-12);
        assert_close(bessel_i(2.0, 3.0), 2.245212440929951, 1e-11);
    }

    #[test]
    fn bessel_k_recurrence_property() {
        // K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x)
        for &nu in &[1.0, 1.3, 2.0, 2.7] {
            for &x in &[0.3, 1.0, 2.5, 7.0] {
                let lhs = bessel_k(nu + 1.0, x);
                let rhs = bessel_k(nu - 1.0, x) + (2.0 * nu / x) * bessel_k(nu, x);
                assert_close(lhs, rhs, 1e-10);
            }
        }
    }

    #[test]
    fn bessel_wronskian_property() {
        // I_v(x) K'_v(x) - I'_v(x) K_v(x) = -1/x.
        for &nu in &[0.0, 0.5, 1.0, 2.25] {
            for &x in &[0.5, 1.0, 4.0, 9.0] {
                let r = bessel_ik(nu, x);
                assert_close(r.i * r.kp - r.ip * r.k, -1.0 / x, 1e-10);
            }
        }
    }

    #[test]
    fn bessel_k_limits() {
        assert!(bessel_k(1.0, 0.0).is_infinite());
        assert_eq!(bessel_k(0.5, 800.0), 0.0);
    }

    #[test]
    fn small_order_limit_u_pow_k() {
        // lim_{u->0} u^{nu} K_nu(u) = 2^{nu-1} Γ(nu) for nu > 0 — the limit
        // that makes the Power-Law autocorrelation reach h² at the origin.
        for &nu in &[1.0, 2.0, 1.5] {
            let u = 1e-6_f64;
            let lim = u.powf(nu) * bessel_k(nu, u);
            let expect = 2.0_f64.powf(nu - 1.0) * gamma(nu);
            assert_close(lim, expect, 1e-4);
        }
    }

    #[test]
    fn erf_reference_values() {
        assert_close(erf(0.5), 0.5204998778130465, 1e-13);
        assert_close(erf(1.0), 0.8427007929497149, 1e-13);
        assert_close(erf(2.0), 0.9953222650189527, 1e-13);
        assert_close(erf(-1.0), -0.8427007929497149, 1e-13);
        assert_eq!(erf(0.0), 0.0);
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-3.0, -1.0, -0.2, 0.0, 0.4, 1.7, 3.5] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-13);
        }
    }

    #[test]
    fn erfc_large_argument_no_cancellation() {
        // erfc(5) = 1.5374597944280349e-12; computing 1-erf(5) in f64 loses
        // all digits, the dedicated path must not.
        assert_close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-10);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &a in &[0.5, 1.0, 2.5, 10.0] {
            for &x in &[0.1, 1.0, 3.0, 12.0] {
                assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-13);
            }
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13);
        }
    }

    #[test]
    fn normal_cdf_symmetry_and_anchors() {
        assert_close(normal_cdf(0.0), 0.5, 1e-15);
        assert_close(normal_cdf(1.0), 0.8413447460685429, 1e-12);
        for &x in &[0.3, 1.2, 2.4] {
            assert_close(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-13);
        }
    }
}
