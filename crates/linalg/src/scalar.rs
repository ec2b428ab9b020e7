//! The [`Scalar`] abstraction over `f32` and `f64`.
//!
//! BLAS ships single- and double-precision variants of every routine
//! (`sgemm`/`dgemm`, `sdot`/`ddot`); this trait lets every kernel in the crate
//! be written once and monomorphized for both widths. The paper's reference
//! implementations use double precision throughout, so the higher-level solver
//! crates fix `f64`, but the kernels are tested at both widths.

use crate::gemm::GemmElem;
use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point element type usable by every kernel in this crate.
///
/// Implemented for `f32` and `f64` only. The trait is deliberately small:
/// just the constants and intrinsics the kernels need, so that adding a new
/// width (e.g. a software `f16`) stays tractable.
pub trait Scalar:
    Copy
    + Clone
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
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
    + Send
    + Sync
    + 'static
    + GemmElem<Panel = Self, Acc = Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this width.
    const EPSILON: Self;
    /// Size of one element in bytes (used for cache-occupancy math).
    const BYTES: usize;

    /// Lossy conversion from `f64` (used for constants and test tolerances).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from a `usize` count.
    fn from_usize(v: usize) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused multiply-add `self * a + b`.
    ///
    /// Maps to the hardware FMA when the target supports it; the GEMM
    /// micro-kernel leans on this for both throughput and accuracy.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` when neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// IEEE maximum (propagating the larger value, NaN-ignoring like `f64::max`).
    fn max_val(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min_val(self, other: Self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Inverse cosine, clamped to the valid domain before evaluation.
    ///
    /// Dot products of unit vectors can land a few ulps outside `[-1, 1]`;
    /// clamping keeps the angle math in the MAXIMUS bound well defined.
    fn acos_clamped(self) -> Self;
    /// IEEE 754 `totalOrder` comparison (`f64::total_cmp`): total and
    /// NaN-safe, so sorting comparators never panic mid-sort.
    fn total_cmp(&self, other: &Self) -> core::cmp::Ordering;
}

macro_rules! impl_scalar {
    ($t:ty, $bytes:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const BYTES: usize = $bytes;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn max_val(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min_val(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn acos_clamped(self) -> Self {
                self.clamp(-1.0, 1.0).acos()
            }
            #[inline(always)]
            fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
                <$t>::total_cmp(self, other)
            }
        }
    };
}

impl_scalar!(f32, 4);
impl_scalar!(f64, 8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_ieee() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
    }

    #[test]
    fn acos_clamped_tolerates_out_of_domain() {
        // 1 + 2eps is the classic "cosine of identical unit vectors" failure.
        let just_over = 1.0_f64 + 4.0 * f64::EPSILON;
        assert_eq!(just_over.acos_clamped(), 0.0);
        let just_under = -1.0_f64 - 4.0 * f64::EPSILON;
        assert!((just_under.acos_clamped() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn mul_add_matches_separate_ops_closely() {
        let a = 1.25_f64;
        let b = 3.5_f64;
        let c = -0.75_f64;
        assert!((a.mul_add(b, c) - (a * b + c)).abs() < 1e-12);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_usize(7), 7.0);
        assert_eq!(f32::from_usize(7), 7.0);
    }

    #[test]
    fn finite_detection() {
        assert!(1.0_f64.is_finite());
        assert!(!f64::NAN.is_finite());
        assert!(!f64::INFINITY.is_finite());
        assert!(!f32::NEG_INFINITY.is_finite());
    }
}
