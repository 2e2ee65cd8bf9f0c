//! Double-precision complex numbers.
//!
//! A deliberately small, `Copy`, `#[repr(C)]` complex type. The FFT crate
//! stores `&[Complex64]` buffers contiguously; keeping the layout trivially
//! two `f64`s lets the compiler vectorise butterflies.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` in double precision.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Views complex samples as their interleaved `(re, im)` parts: sample
/// `k` is `f64`s `2k` and `2k + 1`.
pub fn as_f64s(z: &[Complex64]) -> &[f64] {
    // SAFETY: `Complex64` is `#[repr(C)]` with exactly two `f64` fields,
    // so it has `f64`'s alignment and no padding, and `z` spans
    // `2·z.len()` initialised `f64`s.
    unsafe { core::slice::from_raw_parts(z.as_ptr().cast::<f64>(), 2 * z.len()) }
}

/// Mutable [`as_f64s`]: every bit pattern is a valid `f64`, so writes
/// through the view cannot break a `Complex64`.
pub fn as_f64s_mut(z: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: as in `as_f64s`; the view borrows `z` mutably for its whole
    // lifetime, so no other access aliases it.
    unsafe { core::slice::from_raw_parts_mut(z.as_mut_ptr().cast::<f64>(), 2 * z.len()) }
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(r * c, r * s)
    }

    /// `e^{jθ}` — a unit phasor. This is the twiddle-factor constructor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(c, s)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`, computed with `hypot` for overflow safety.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by the imaginary unit (a 90° rotation) without a full
    /// complex multiply.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Self::new(-self.im, self.re)
    }

    /// Scales both parts by a real factor.
    #[inline(always)]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Complex square root on the principal branch.
    pub fn sqrt(self) -> Self {
        if self.im == 0.0 {
            if self.re >= 0.0 {
                return Self::new(self.re.sqrt(), 0.0);
            }
            return Self::new(0.0, (-self.re).sqrt().copysign(self.im.max(0.0) + 1.0));
        }
        let r = self.abs();
        let re = ((r + self.re) * 0.5).sqrt();
        let im = ((r - self.re) * 0.5).sqrt().copysign(self.im);
        Self::new(re, im)
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        // Smith's algorithm avoids premature overflow/underflow.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Self::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Self::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        Self::from_re(re)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO, Complex64::new(0.0, 0.0));
        assert_eq!(Complex64::ONE.re, 1.0);
        assert_eq!(Complex64::I.im, 1.0);
        let z: Complex64 = 3.5.into();
        assert_eq!(z, Complex64::from_re(3.5));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.75);
        assert_close(z.abs(), 2.0, 1e-14);
        assert_close(z.arg(), 0.75, 1e-14);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..32 {
            let z = Complex64::cis(k as f64 * 0.3);
            assert_close(z.abs(), 1.0, 1e-14);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 3.0);
        assert_eq!(a + b - b, a);
        let prod = a * b;
        let back = prod / b;
        assert_close(back.re, a.re, 1e-12);
        assert_close(back.im, a.im, 1e-12);
        assert_eq!(-a + a, Complex64::ZERO);
    }

    #[test]
    fn conj_properties() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a.conj().conj(), a);
        let m = a * a.conj();
        assert_close(m.re, a.norm_sqr(), 1e-14);
        assert!(m.im.abs() < 1e-14);
    }

    #[test]
    fn mul_i_rotates() {
        let a = Complex64::new(2.0, 1.0);
        assert_eq!(a.mul_i(), a * Complex64::I);
    }

    #[test]
    fn division_smith_extremes() {
        // Large-magnitude divisor would overflow a naive implementation.
        let a = Complex64::new(1e300, 1e300);
        let q = a / a;
        assert_close(q.re, 1.0, 1e-12);
        assert!(q.im.abs() < 1e-12);
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let t = 1.234;
        let e = Complex64::new(0.0, t).exp();
        let c = Complex64::cis(t);
        assert_close(e.re, c.re, 1e-14);
        assert_close(e.im, c.im, 1e-14);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-4.0, 0.0), (3.0, 4.0), (-3.0, -4.0), (0.0, 2.0)] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            let sq = s * s;
            assert_close(sq.re, re, 1e-12);
            assert_close(sq.im, im, 1e-12);
            assert!(s.re >= 0.0, "principal branch: {s:?}");
        }
    }

    #[test]
    fn sum_iterator() {
        let zs = [Complex64::new(1.0, 1.0), Complex64::new(2.0, -3.0)];
        let s: Complex64 = zs.iter().copied().sum();
        assert_eq!(s, Complex64::new(3.0, -2.0));
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::ONE.is_nan());
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
    }
}
