//! The floating-point element abstraction behind [`Tensor`](crate::Tensor).
//!
//! Every tensor, graph node, and optimizer moment buffer is generic over a
//! [`Scalar`] so the same operator kernels compile to a production `f32`
//! path and an `f64` reference path. The default type parameter keeps the
//! hot path (`Tensor` = `Tensor<f32>`) unchanged at call sites while the
//! `f64` instantiation exists purely to *measure* the f32 accuracy budget —
//! there is deliberately no implicit widening anywhere in the compute
//! kernels.
//!
//! Randomized initialization is intentionally **not** generic: random draws
//! are always made in `f32` and then converted (see
//! [`Tensor::rand_uniform`](crate::Tensor::rand_uniform)), so an `f32` and
//! an `f64` network built from the same seed start from bitwise-identical
//! (up to widening) weights and any later divergence is attributable to
//! arithmetic alone.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar the tensor stack can compute in (`f32` or `f64`).
pub trait Scalar:
    Copy
    + PartialOrd
    + PartialEq
    + Default
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Exact-as-possible conversion from `f32` (lossless for both impls).
    fn from_f32(v: f32) -> Self;
    /// Conversion to `f32` (rounds for `f64`).
    fn to_f32(self) -> f32;
    /// Conversion from `f64` (rounds for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Exact-as-possible conversion to `f64` (lossless for both impls).
    fn to_f64(self) -> f64;
    /// Conversion from an element count.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }

    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// IEEE maximum.
    fn max(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min(self, other: Self) -> Self;
    /// Negative infinity (max-pool identity).
    fn neg_infinity() -> Self;
    /// Whether the value is finite.
    fn is_finite(self) -> bool;
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline]
            fn from_f32(v: f32) -> Self {
                v as $t
            }
            #[inline]
            fn to_f32(self) -> f32 {
                self as f32
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline]
            fn neg_infinity() -> Self {
                <$t>::NEG_INFINITY
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: Scalar>() {
        assert_eq!(S::from_f32(1.5).to_f32(), 1.5);
        assert_eq!(S::from_f64(-2.25).to_f64(), -2.25);
        assert_eq!(S::from_usize(7).to_f64(), 7.0);
        assert_eq!((S::from_f32(4.0)).sqrt().to_f32(), 2.0);
        assert!(S::neg_infinity() < S::ZERO);
        assert!(!S::neg_infinity().is_finite());
        assert_eq!(S::ZERO.max(S::ONE), S::ONE);
        assert_eq!(S::ZERO.min(-S::ONE), -S::ONE);
    }

    #[test]
    fn both_impls_roundtrip() {
        roundtrip::<f32>();
        roundtrip::<f64>();
    }

    #[test]
    fn f32_widening_is_lossless() {
        // Every f32 is exactly representable in f64 — the property the
        // shared-initialization scheme relies on.
        for v in [1.0e-30f32, 0.1, std::f32::consts::PI, 1.0e30] {
            assert_eq!(f64::from_f32(v) as f32, v);
        }
    }
}
