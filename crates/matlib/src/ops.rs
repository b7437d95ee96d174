//! Free-function BLAS-like kernels.
//!
//! These mirror the C `matlib` interface the paper built for its
//! cross-backend comparison: each backend's functional model bottoms out in
//! these routines, while its *timing* model accounts for the backend's own
//! execution of the equivalent instruction stream.

use crate::{Error, Matrix, Result, Scalar, Vector};

/// Output-finiteness guard: `O(len(out))`, negligible next to the `O(n·k)`
/// work of the kernels it protects, so it stays on in release builds. A
/// non-finite output means a non-finite input or overflow somewhere
/// upstream — exactly the silent-data-corruption signature the fault
/// layer needs surfaced as an error.
#[inline]
pub(crate) fn guard_finite<'a, T: Scalar>(
    op: &'static str,
    out: impl IntoIterator<Item = &'a T>,
) -> Result<()> {
    for v in out {
        if !v.is_finite() {
            return Err(Error::NonFinite { op });
        }
    }
    Ok(())
}

/// General matrix-matrix product `A * B`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use matlib::{gemm, Matrix};
///
/// # fn main() -> Result<(), matlib::Error> {
/// let a = Matrix::<f64>::identity(2);
/// let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(gemm(&a, &b)?, b);
/// # Ok(())
/// # }
/// ```
pub fn gemm<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_accumulate(T::ONE, a, b, T::ZERO, &mut out)?;
    Ok(out)
}

/// General matrix-matrix product with accumulation:
/// `C = alpha * A * B + beta * C`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the inner dimensions of `A` and
/// `B` disagree or `C` does not have shape `(a.rows(), b.cols())`, and
/// [`Error::NonFinite`] if the output contains NaN/Inf.
pub fn gemm_accumulate<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(Error::DimensionMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(Error::DimensionMismatch {
            op: "gemm(out)",
            lhs: (a.rows(), b.cols()),
            rhs: c.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = a[(i, p)].mul_add(b[(p, j)], acc);
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
    for i in 0..m {
        for j in 0..n {
            if !c[(i, j)].is_finite() {
                return Err(Error::NonFinite { op: "gemm" });
            }
        }
    }
    Ok(())
}

/// General matrix-vector product `A * x`.
///
/// Delegates to the in-place [`gemv_into`]; kept as the allocating
/// convenience wrapper.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `a.cols() != x.len()`.
pub fn gemv<T: Scalar>(a: &Matrix<T>, x: &Vector<T>) -> Result<Vector<T>> {
    let mut out = Vector::zeros(a.rows());
    gemv_into(a, x.as_slice(), out.as_mut_slice())?;
    Ok(out)
}

#[inline]
fn check_len<T>(op: &'static str, a: &[T], b: &[T]) -> Result<()> {
    if a.len() != b.len() {
        return Err(Error::DimensionMismatch {
            op,
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(())
}

/// Shape checks shared by [`gemv_into`] and [`gemv_into_const`].
fn check_gemv<T: Scalar>(a: &Matrix<T>, x: &[T], y: &[T]) -> Result<()> {
    if a.cols() != x.len() {
        return Err(Error::DimensionMismatch {
            op: "gemv",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    if y.len() != a.rows() {
        return Err(Error::DimensionMismatch {
            op: "gemv(out)",
            lhs: (a.rows(), 1),
            rhs: (y.len(), 1),
        });
    }
    Ok(())
}

/// The portable gemv loop every accelerated kernel reproduces: one
/// `mul_add` per element, sequential accumulation from zero within a
/// row, and a trailing `+ 0` that canonicalizes −0.
fn gemv_rows<T: Scalar>(a: &Matrix<T>, x: &[T], y: &mut [T]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (&aip, &xp) in a.row(i).iter().zip(x.iter()) {
            acc = aip.mul_add(xp, acc);
        }
        *yi = acc + T::ZERO;
    }
}

/// In-place GEMV: `y = A · x` into the caller-provided slice, with zero
/// hidden allocation.
///
/// Performs exactly the operation sequence of [`gemv`] (row-wise
/// `mul_add` accumulation from zero), so results are bit-identical to
/// the allocating wrapper, which delegates here.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `a.cols() != x.len()` or
/// `y.len() != a.rows()`, and [`Error::NonFinite`] if the output
/// contains NaN/Inf.
pub fn gemv_into<T: Scalar>(a: &Matrix<T>, x: &[T], y: &mut [T]) -> Result<()> {
    check_gemv(a, x, y)?;
    // Hardware-FMA fast path (bit-identical by the `gemv_accel`
    // contract); the generic loop is the portable fallback.
    if !T::gemv_accel(a.as_slice(), x, y) {
        gemv_rows(a, x, y);
    }
    guard_finite("gemv", y.iter())
}

/// [`gemv_into`] for a matrix of compile-time shape `R×C`: the same
/// checks, operation sequence and result bits, through the
/// const-shape kernel of [`Scalar::gemv_accel_const`], whose loops
/// have constant trip counts.
///
/// # Errors
///
/// As [`gemv_into`]; additionally [`Error::DimensionMismatch`] (op
/// `"gemv(const)"`) if `a` is not `R×C`.
pub fn gemv_into_const<T: Scalar, const R: usize, const C: usize>(
    a: &Matrix<T>,
    x: &[T],
    y: &mut [T],
) -> Result<()> {
    check_gemv(a, x, y)?;
    if a.shape() != (R, C) {
        return Err(Error::DimensionMismatch {
            op: "gemv(const)",
            lhs: a.shape(),
            rhs: (R, C),
        });
    }
    if !T::gemv_accel_const::<R, C>(a.as_slice(), x, y) {
        gemv_rows(a, x, y);
    }
    guard_finite("gemv", y.iter())
}

/// In-place AXPY: `y = alpha·x + y` (fused per element, matching
/// [`Vector::axpy`], which delegates here).
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn axpy_into<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) -> Result<()> {
    check_len("axpy", y, x)?;
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi.mul_add(alpha, *yi);
    }
    Ok(())
}

/// Element-wise sum into a caller-provided slice: `out = a + b`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn add_into<T: Scalar>(a: &[T], b: &[T], out: &mut [T]) -> Result<()> {
    check_len("vadd", a, b)?;
    check_len("vadd(out)", a, out)?;
    for (o, (&ai, &bi)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = ai + bi;
    }
    Ok(())
}

/// Element-wise difference into a caller-provided slice: `out = a − b`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn sub_into<T: Scalar>(a: &[T], b: &[T], out: &mut [T]) -> Result<()> {
    check_len("vsub", a, b)?;
    check_len("vsub(out)", a, out)?;
    for (o, (&ai, &bi)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = ai - bi;
    }
    Ok(())
}

/// In-place accumulate: `y = y + x` (each element evaluated as
/// `y[i] + x[i]`, the order of `Vector::add(self, other)`).
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn add_assign<T: Scalar>(y: &mut [T], x: &[T]) -> Result<()> {
    check_len("vadd", y, x)?;
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
    Ok(())
}

/// In-place subtract: `y = y − x` (each element evaluated as
/// `y[i] − x[i]`, the order of `Vector::sub(self, other)`).
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn sub_assign<T: Scalar>(y: &mut [T], x: &[T]) -> Result<()> {
    check_len("vsub", y, x)?;
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi -= xi;
    }
    Ok(())
}

/// Scaled copy into a caller-provided slice: `out = x · s`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn scale_into<T: Scalar>(x: &[T], s: T, out: &mut [T]) -> Result<()> {
    check_len("vscale(out)", x, out)?;
    for (o, &xi) in out.iter_mut().zip(x) {
        *o = xi * s;
    }
    Ok(())
}

/// In-place scale: `y = y · s` (each element evaluated as `y[i] * s`,
/// the order of [`Vector::scale`]).
pub fn scale_in_place<T: Scalar>(y: &mut [T], s: T) {
    for yi in y.iter_mut() {
        *yi *= s;
    }
}

/// Negated copy into a caller-provided slice: `out = −x`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn neg_into<T: Scalar>(x: &[T], out: &mut [T]) -> Result<()> {
    check_len("vneg(out)", x, out)?;
    for (o, &xi) in out.iter_mut().zip(x) {
        *o = -xi;
    }
    Ok(())
}

/// Clamped copy into a caller-provided slice:
/// `out[i] = min(hi, max(lo, x[i]))` — the TinyMPC slack projection.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn clamp_into<T: Scalar>(x: &[T], lo: T, hi: T, out: &mut [T]) -> Result<()> {
    check_len("vclip(out)", x, out)?;
    for (o, &xi) in out.iter_mut().zip(x) {
        *o = xi.max(lo).min(hi);
    }
    Ok(())
}

/// In-place clamp: `y[i] = min(hi, max(lo, y[i]))`, the operation order
/// of [`Vector::clip`].
pub fn clamp_in_place<T: Scalar>(y: &mut [T], lo: T, hi: T) {
    for yi in y.iter_mut() {
        *yi = (*yi).max(lo).min(hi);
    }
}

/// `max(|a − b|)` over two slices — the residual reduction of TinyMPC,
/// folding from `+0` exactly like [`Vector::max_abs_diff`].
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the lengths differ.
pub fn max_abs_diff_slices<T: Scalar>(a: &[T], b: &[T]) -> Result<T> {
    check_len("max_abs_diff", a, b)?;
    Ok(a.iter()
        .zip(b)
        .fold(T::ZERO, |m, (&x, &y)| m.max((x - y).abs())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix<f64> {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn gemm_small_known() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c, mat(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gemm_rectangular() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(3, 4, |r, c| (r + c) as f64);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 4));
        // c[0][0] = 0*0 + 1*1 + 2*2 = 5
        assert_eq!(c[(0, 0)], 5.0);
    }

    #[test]
    fn gemm_dim_mismatch() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(gemm(&a, &b).is_err());
    }

    #[test]
    fn gemm_accumulate_alpha_beta() {
        let a = Matrix::<f64>::identity(2);
        let b = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = mat(&[&[10.0, 10.0], &[10.0, 10.0]]);
        gemm_accumulate(2.0, &a, &b, 0.5, &mut c).unwrap();
        assert_eq!(c, mat(&[&[7.0, 9.0], &[11.0, 13.0]]));
    }

    #[test]
    fn gemv_known() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(gemv(&a, &x).unwrap().as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn gemv_into_const_matches_gemv_into_bit_for_bit() {
        let a = Matrix::from_fn(3, 2, |r, c| (r as f32 - 1.3) * (c as f32 + 0.7) / 3.0);
        let x = [0.1f32, -2.5];
        let mut dynamic = [0.0f32; 3];
        let mut fixed = [0.0f32; 3];
        gemv_into(&a, &x, &mut dynamic).unwrap();
        gemv_into_const::<f32, 3, 2>(&a, &x, &mut fixed).unwrap();
        assert_eq!(dynamic.map(f32::to_bits), fixed.map(f32::to_bits));
    }

    #[test]
    fn gemv_into_const_keeps_the_dynamic_checks() {
        let a = Matrix::<f64>::zeros(2, 2);
        // Same errors, in the same order, as gemv_into.
        for (x, y) in [(3usize, 2usize), (2, 3)] {
            let (xs, mut ys) = (vec![0.0; x], vec![0.0; y]);
            let want = gemv_into(&a, &xs, &mut ys).unwrap_err();
            assert_eq!(
                gemv_into_const::<f64, 2, 2>(&a, &xs, &mut ys).unwrap_err(),
                want
            );
        }
        let nan = mat(&[&[f64::NAN, 0.0], &[0.0, 1.0]]);
        let mut y = [0.0; 2];
        assert!(matches!(
            gemv_into_const::<f64, 2, 2>(&nan, &[1.0, 1.0], &mut y),
            Err(Error::NonFinite { op: "gemv" })
        ));
        // A consistent operand set of another shape is rejected.
        assert!(matches!(
            gemv_into_const::<f64, 3, 3>(&a, &[0.0; 2], &mut y),
            Err(Error::DimensionMismatch {
                op: "gemv(const)",
                ..
            })
        ));
    }

    #[test]
    fn gemv_nan_input_surfaces_nonfinite() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = Vector::from_slice(&[f64::NAN, 1.0]);
        assert!(matches!(gemv(&a, &x), Err(Error::NonFinite { op: "gemv" })));
    }

    #[test]
    fn gemm_nan_input_surfaces_nonfinite() {
        let a = mat(&[&[f64::NAN, 0.0], &[0.0, 1.0]]);
        let b = Matrix::identity(2);
        assert!(matches!(gemm(&a, &b), Err(Error::NonFinite { op: "gemm" })));
    }

    #[test]
    fn gemm_infinity_surfaces_nonfinite() {
        let a = mat(&[&[f64::MAX, f64::MAX], &[0.0, 1.0]]);
        let b = mat(&[&[f64::MAX, 0.0], &[f64::MAX, 1.0]]);
        assert!(matches!(gemm(&a, &b), Err(Error::NonFinite { op: "gemm" })));
    }

    #[test]
    fn gemm_identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| ((r * 7 + c * 3) % 5) as f64 - 2.0);
        let i = Matrix::identity(4);
        assert_eq!(gemm(&a, &i).unwrap(), a);
        assert_eq!(gemm(&i, &a).unwrap(), a);
    }
}
