use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable by every `matlib` container and
/// algorithm.
///
/// Implemented for `f32` and `f64`. The trait is sealed by construction (it
/// requires conversions only the crate provides sensibly); downstream code
/// should treat the set of implementors as closed.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + Default
    + PartialOrd
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
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this type.
    const EPSILON: Self;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Element-wise maximum.
    fn max(self, other: Self) -> Self;
    /// Element-wise minimum.
    fn min(self, other: Self) -> Self;
    /// Fused multiply-add `self * a + b`, computed with a single,
    /// correctly rounded result (IEEE 754 `fusedMultiplyAdd`), never
    /// as a separately rounded multiply and add.
    ///
    /// Every accelerated kernel ([`gemv_accel`](Scalar::gemv_accel),
    /// [`gemv_accel_const`](Scalar::gemv_accel_const)) is bit-identical
    /// to the generic loops only because both sides compute this one
    /// uniquely defined value.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lossless widening to `f64` for diagnostics and residual reporting.
    fn to_f64(self) -> f64;
    /// Lossy conversion from `f64`, used by constructors and calibration.
    fn from_f64(v: f64) -> Self;
    /// Whether the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
    /// Hands one row-major gemv (`y = A·x`, `y.len()` rows of
    /// `x.len()` columns) to a platform-accelerated kernel, returning
    /// `false` — with `y` untouched — when none is available for this
    /// scalar type on the running CPU.
    ///
    /// Implementations must be **bit-identical** to the generic
    /// `mul_add` loop in [`gemv_into`](crate::gemv_into): one fused
    /// multiply-add per element, strictly sequential accumulation
    /// within each row, trailing `+ 0` canonicalization. Hardware FMA
    /// satisfies this by construction (fused rounding is exact and
    /// unique); anything weaker (split multiply-add, reassociated
    /// sums, double-rounded emulation) must not be wired in here.
    #[inline]
    fn gemv_accel(_a: &[Self], _x: &[Self], _y: &mut [Self]) -> bool {
        false
    }
    /// [`gemv_accel`](Scalar::gemv_accel) for a compile-time shape of
    /// `R` rows by `C` columns, reached through
    /// [`gemv_into_const`](crate::gemv_into_const) once the operands
    /// are checked to have that shape. Same bit-identity contract.
    #[inline]
    fn gemv_accel_const<const R: usize, const C: usize>(
        _a: &[Self],
        _x: &[Self],
        _y: &mut [Self],
    ) -> bool {
        false
    }
}

macro_rules! impl_scalar {
    ($t:ty, $gemv_accel:ident, $gemv_accel_const:ident) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn gemv_accel(a: &[Self], x: &[Self], y: &mut [Self]) -> bool {
                matlib_accel::$gemv_accel(a, x, y)
            }
            #[inline]
            fn gemv_accel_const<const R: usize, const C: usize>(
                a: &[Self],
                x: &[Self],
                y: &mut [Self],
            ) -> bool {
                matlib_accel::$gemv_accel_const::<R, C>(a, x, y)
            }
        }
    };
}

impl_scalar!(f32, gemv_f32, gemv_const_f32);
impl_scalar!(f64, gemv_f64, gemv_const_f64);
