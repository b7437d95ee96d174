//! # matlib — dense linear algebra for embedded optimal control
//!
//! A pure-Rust reimplementation of the paper's `matlib`: a lightweight,
//! Eigen-like interface to the dense linear-algebra operators that dominate
//! classical robotic control workloads — general matrix-matrix products
//! (GEMM), matrix-vector products (GEMV), element-wise strip-mining
//! operations (saturation/clipping, absolute value), global reductions
//! (infinity norms), and the domain-specific routines optimal control needs
//! on top (Cholesky factorization, linear solves, the discrete algebraic
//! Riccati equation).
//!
//! Operand sizes in this domain are tiny by ML standards — state and input
//! dimensions on the order of 10 (a quadrotor is 12×4) — so the library is
//! deliberately simple: row-major owned storage, no hidden allocation in hot
//! paths, and `Result`-based dimension checking at the API boundary.
//!
//! ## Quickstart
//!
//! ```
//! use matlib::{Matrix, Vector};
//!
//! # fn main() -> Result<(), matlib::Error> {
//! let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let x = Vector::from_slice(&[1.0, 1.0]);
//! let y = a.matvec(&x)?;
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//! # Ok(())
//! # }
//! ```
//!
//! The crate is generic over [`Scalar`] (implemented for `f32` and `f64`):
//! the SoC simulators in this workspace compute in `f32` like the modelled
//! hardware, while reference solvers validate in `f64`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
mod ops;
mod qr;
mod riccati;
pub mod rng;
mod scalar;
mod solve;
mod vector;

pub use error::Error;
pub use matrix::Matrix;
pub use ops::{
    add_assign, add_into, axpy_into, clamp_in_place, clamp_into, gemm, gemm_accumulate, gemv,
    gemv_into, gemv_into_const, max_abs_diff_slices, neg_into, scale_in_place, scale_into,
    sub_assign, sub_into,
};
pub use qr::Qr;
pub use riccati::{closed_loop_step, dare, dare_residual, lqr_gains, DareOptions, DareSolution};
pub use scalar::Scalar;
pub use solve::{Cholesky, Lu};
pub use vector::Vector;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
