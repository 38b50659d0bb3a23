//! Complex scalar arithmetic.
//!
//! [`Cx`] is a minimal `f64` complex number tailored to MIMO baseband
//! processing: it implements the full operator set, conjugation, magnitude
//! helpers and a handful of constructors. It is `Copy`, 16 bytes, and has no
//! invariants, so it can be freely stored in flat buffers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// ```
/// use flexcore_numeric::Cx;
/// let a = Cx::new(1.0, 2.0);
/// let b = Cx::new(3.0, -1.0);
/// assert_eq!(a * b, Cx::new(5.0, 5.0));
/// assert_eq!(a.norm_sqr(), 5.0);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Cx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cx {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub(crate) const ONE: Cx = Cx { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cx { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Cx { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub(crate) fn conj(self) -> Self {
        Cx::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root of [`Cx::abs`]).
    ///
    /// This is the partial-Euclidean-distance kernel of the sphere decoder,
    /// so it is kept branch-free and inlinable.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns an all-NaN value when `z == 0`, mirroring `f64` division.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Cx::new(self.re / d, -self.im / d)
    }

    /// `self * other.conj()`, the correlation kernel `⟨a, b⟩ = a·b*`.
    #[inline]
    pub(crate) fn mul_conj(self, other: Cx) -> Self {
        Cx::new(
            self.re * other.re + self.im * other.im,
            self.im * other.re - self.re * other.im,
        )
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Cx::new(self.re * k, self.im * k)
    }

    /// Squared Euclidean distance `|a - b|²`.
    #[inline]
    pub fn dist_sqr(self, other: Cx) -> f64 {
        (self - other).norm_sqr()
    }
}

impl Add for Cx {
    type Output = Cx;
    #[inline]
    fn add(self, rhs: Cx) -> Cx {
        Cx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Cx {
    type Output = Cx;
    #[inline]
    fn sub(self, rhs: Cx) -> Cx {
        Cx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cx {
    type Output = Cx;
    #[inline]
    fn mul(self, rhs: Cx) -> Cx {
        Cx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Cx {
    type Output = Cx;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ by definition
    fn div(self, rhs: Cx) -> Cx {
        self * rhs.inv()
    }
}

impl Neg for Cx {
    type Output = Cx;
    #[inline]
    fn neg(self) -> Cx {
        Cx::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn mul(self, rhs: f64) -> Cx {
        self.scale(rhs)
    }
}

impl Mul<Cx> for f64 {
    type Output = Cx;
    #[inline]
    fn mul(self, rhs: Cx) -> Cx {
        rhs.scale(self)
    }
}

impl Div<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn div(self, rhs: f64) -> Cx {
        Cx::new(self.re / rhs, self.im / rhs)
    }
}

impl Add<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn add(self, rhs: f64) -> Cx {
        Cx::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn sub(self, rhs: f64) -> Cx {
        Cx::new(self.re - rhs, self.im)
    }
}

impl AddAssign for Cx {
    #[inline]
    fn add_assign(&mut self, rhs: Cx) {
        *self = *self + rhs;
    }
}

impl SubAssign for Cx {
    #[inline]
    fn sub_assign(&mut self, rhs: Cx) {
        *self = *self - rhs;
    }
}

impl MulAssign for Cx {
    #[inline]
    fn mul_assign(&mut self, rhs: Cx) {
        *self = *self * rhs;
    }
}

impl DivAssign for Cx {
    #[inline]
    fn div_assign(&mut self, rhs: Cx) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Cx {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Cx {
    fn sum<I: Iterator<Item = Cx>>(iter: I) -> Cx {
        iter.fold(Cx::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Cx {
    #[inline]
    fn from(re: f64) -> Cx {
        Cx::real(re)
    }
}

impl fmt::Debug for Cx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+.6}{:+.6}i)", self.re, self.im)
    }
}

impl fmt::Display for Cx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: Cx, b: Cx) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Cx::ZERO + Cx::ONE, Cx::ONE);
        assert_eq!(Cx::real(3.0), Cx::new(3.0, 0.0));
        assert_eq!(Cx::from(2.5), Cx::new(2.5, 0.0));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Cx::new(2.0, 3.0);
        let b = Cx::new(-1.0, 4.0);
        // (2+3i)(-1+4i) = -2 + 8i - 3i + 12i² = -14 + 5i
        assert_eq!(a * b, Cx::new(-14.0, 5.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Cx::new(0.7, -1.3);
        let b = Cx::new(-2.1, 0.4);
        assert!(close((a * b) / b, a));
        assert!(close(a * a.inv(), Cx::ONE));
    }

    #[test]
    fn conj_and_mul_conj() {
        let a = Cx::new(1.0, 2.0);
        let b = Cx::new(3.0, -5.0);
        assert!(close(a.mul_conj(b), a * b.conj()));
        assert_eq!(a.conj().conj(), a);
        // z·z* is |z|² on the real axis.
        assert!(close(a.mul_conj(a), Cx::real(a.norm_sqr())));
    }

    #[test]
    fn conj_is_a_multiplicative_involution() {
        // The conjugation half of the workspace's complex-field-axioms
        // property, over 256 seeded pairs.
        let mut rng = StdRng::seed_from_u64(0xF1E1D);
        let mut cx = || Cx::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
        for _ in 0..256 {
            let (a, b) = (cx(), cx());
            assert_eq!(a.conj().conj(), a);
            let mc = (a * b).conj() - a.conj() * b.conj();
            assert!(mc.abs() < 1e-12 + 1e-12 * a.abs() * b.abs());
        }
    }

    #[test]
    fn dist_sqr_is_symmetric_and_nonnegative() {
        let a = Cx::new(1.0, -2.0);
        let b = Cx::new(-0.5, 0.25);
        assert_eq!(a.dist_sqr(b), b.dist_sqr(a));
        assert!(a.dist_sqr(b) > 0.0);
        assert_eq!(a.dist_sqr(a), 0.0);
    }

    #[test]
    fn sum_accumulates() {
        let v = vec![Cx::new(1.0, 1.0); 8];
        let s: Cx = v.into_iter().sum();
        assert_eq!(s, Cx::new(8.0, 8.0));
    }

    #[test]
    fn real_scalar_ops() {
        let a = Cx::new(1.0, -1.0);
        assert_eq!(a * 2.0, Cx::new(2.0, -2.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Cx::new(0.5, -0.5));
        assert_eq!(a + 1.0, Cx::new(2.0, -1.0));
        assert_eq!(a - 1.0, Cx::new(0.0, -1.0));
    }
}
