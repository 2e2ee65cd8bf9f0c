//! Interpolation helpers.
//!
//! The plate-oriented inhomogeneous method (paper §3.1, eqns 38–39) blends
//! kernels with *linear* transition functions across a strip; the
//! point-oriented method (§3.2, eqn 44) uses a linear ramp of the bisector
//! distance. Both reduce to the primitives here.

/// Linear interpolation `a + t·(b - a)`, exact at the endpoints.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a * (1.0 - t) + b * t
}

/// Clamps `x` to `[lo, hi]`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    x.max(lo).min(hi)
}

/// Maps `x ∈ [x0, x1]` linearly onto `[0, 1]`, clamping outside.
///
/// This is exactly the paper's transition function shape (eqn 38): `0` on
/// one side of the strip, `1` on the other, linear within.
#[inline]
pub fn unit_ramp(x: f64, x0: f64, x1: f64) -> f64 {
    debug_assert!(x1 > x0, "unit_ramp requires x1 > x0");
    clamp((x - x0) / (x1 - x0), 0.0, 1.0)
}

/// Bilinear interpolation of a quad with corner values
/// `(f00, f10, f01, f11)` at local coordinates `(tx, ty) ∈ [0,1]²`.
#[inline]
pub fn bilerp(f00: f64, f10: f64, f01: f64, f11: f64, tx: f64, ty: f64) -> f64 {
    lerp(lerp(f00, f10, tx), lerp(f01, f11, tx), ty)
}

/// Piecewise-linear interpolation through sorted `(x, y)` samples.
///
/// Extrapolates by clamping to the boundary values. Used to evaluate
/// measured autocorrelation curves at the `1/e` crossing when estimating
/// correlation lengths.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "interp1: length mismatch");
    assert!(!xs.is_empty(), "interp1: empty input");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    // Binary search for the bracketing interval.
    let idx = xs.partition_point(|&v| v <= x);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    if x1 == x0 {
        return y0;
    }
    lerp(y0, y1, (x - x0) / (x1 - x0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;

    #[test]
    fn lerp_endpoints_exact() {
        assert_eq!(lerp(3.0, 7.0, 0.0), 3.0);
        assert_eq!(lerp(3.0, 7.0, 1.0), 7.0);
        assert_eq!(lerp(3.0, 7.0, 0.5), 5.0);
    }

    #[test]
    fn unit_ramp_clamps_and_is_linear() {
        assert_eq!(unit_ramp(-5.0, 0.0, 10.0), 0.0);
        assert_eq!(unit_ramp(15.0, 0.0, 10.0), 1.0);
        assert_close(unit_ramp(2.5, 0.0, 10.0), 0.25, 1e-15);
    }

    #[test]
    fn bilerp_corners() {
        assert_eq!(bilerp(1.0, 2.0, 3.0, 4.0, 0.0, 0.0), 1.0);
        assert_eq!(bilerp(1.0, 2.0, 3.0, 4.0, 1.0, 0.0), 2.0);
        assert_eq!(bilerp(1.0, 2.0, 3.0, 4.0, 0.0, 1.0), 3.0);
        assert_eq!(bilerp(1.0, 2.0, 3.0, 4.0, 1.0, 1.0), 4.0);
        assert_eq!(bilerp(1.0, 2.0, 3.0, 4.0, 0.5, 0.5), 2.5);
    }

    #[test]
    fn interp1_interpolates_and_extrapolates_flat() {
        let xs = [0.0, 1.0, 2.0, 4.0];
        let ys = [0.0, 10.0, 20.0, 0.0];
        assert_eq!(interp1(&xs, &ys, -1.0), 0.0);
        assert_eq!(interp1(&xs, &ys, 5.0), 0.0);
        assert_close(interp1(&xs, &ys, 0.5), 5.0, 1e-15);
        assert_close(interp1(&xs, &ys, 3.0), 10.0, 1e-15);
        assert_eq!(interp1(&xs, &ys, 1.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn interp1_mismatch_panics() {
        interp1(&[0.0, 1.0], &[0.0], 0.5);
    }
}
