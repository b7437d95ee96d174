//! Property tests for the `matlib` dense-kernel layer, driven by the
//! in-repo SplitMix64 PRNG (no proptest dependency): plain `#[test]`
//! loops over 100 random seeds, each drawing random dimensions and
//! entries.
//!
//! Properties checked:
//! * QR: `Q·R ≈ A` and `Qᵀ·Q = I` for random tall matrices.
//! * Cholesky/LU `solve`: the residual `‖A·x − b‖∞` is bounded relative
//!   to the problem's scale.
//! * Riccati (`dare`): the cost-to-go `P` is symmetric, every produced
//!   matrix is finite, and the algebraic residual is small.

use soc_dse_repro::matlib::rng::SplitMix64;
use soc_dse_repro::matlib::{dare, dare_residual, Cholesky, DareOptions, Lu, Matrix, Qr, Vector};

const SEEDS: u64 = 100;

/// Random entries in `[-1, 1)`.
fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.unit_f64() * 2.0 - 1.0)
}

fn random_vector(rng: &mut SplitMix64, n: usize) -> Vector<f64> {
    Vector::from_fn(n, |_| rng.unit_f64() * 2.0 - 1.0)
}

/// Max absolute entry of a matrix (∞-norm of the flattened entries).
fn max_abs(m: &Matrix<f64>) -> f64 {
    let (rows, cols) = m.shape();
    let mut best = 0.0f64;
    for r in 0..rows {
        for c in 0..cols {
            best = best.max(m[(r, c)].abs());
        }
    }
    best
}

#[test]
fn qr_reconstructs_and_q_is_orthonormal() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_usize(1, 6);
        let m = n + rng.range_usize(0, 4);
        // Diagonal boost keeps every column independent so the
        // factorization cannot legitimately reject the input.
        let mut a = random_matrix(&mut rng, m, n);
        for d in 0..n {
            a[(d, d)] += 4.0;
        }

        let qr = Qr::new(&a).unwrap_or_else(|e| panic!("seed {seed}: qr failed: {e:?}"));
        let (q, r) = (qr.q(), qr.r());

        let back = q.matmul(&r).unwrap();
        let err = max_abs(&back.sub(&a).unwrap());
        assert!(err < 1e-10, "seed {seed}: ‖QR − A‖∞ = {err}");

        let qtq = q.transpose().matmul(&q).unwrap();
        let ortho_err = max_abs(&qtq.sub(&Matrix::identity(n)).unwrap());
        assert!(ortho_err < 1e-10, "seed {seed}: ‖QᵀQ − I‖∞ = {ortho_err}");
    }
}

#[test]
fn cholesky_solve_residual_is_bounded() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0x5eed_0000 + seed);
        let n = rng.range_usize(1, 8);
        // A = MᵀM + n·I is symmetric positive definite by construction.
        let m = random_matrix(&mut rng, n, n);
        let a = m
            .transpose()
            .matmul(&m)
            .unwrap()
            .add(&Matrix::identity(n).scale(n as f64))
            .unwrap();
        let b = random_vector(&mut rng, n);

        let x = Cholesky::new(&a)
            .unwrap_or_else(|e| panic!("seed {seed}: spd rejected: {e:?}"))
            .solve(&b)
            .unwrap();

        let residual = a.matvec(&x).unwrap().sub(&b).unwrap().max_abs();
        let scale = max_abs(&a) * x.max_abs() + b.max_abs();
        assert!(
            residual <= 1e-12 * scale.max(1.0),
            "seed {seed}: residual {residual} vs scale {scale}"
        );
        assert!(x.max_abs().is_finite(), "seed {seed}: non-finite solution");
    }
}

#[test]
fn lu_solve_residual_is_bounded() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0x1u64 << 32 | seed);
        let n = rng.range_usize(1, 8);
        // Strict diagonal dominance keeps the matrix comfortably
        // invertible for every draw.
        let mut a = random_matrix(&mut rng, n, n);
        for d in 0..n {
            a[(d, d)] += n as f64 + 1.0;
        }
        let b = random_vector(&mut rng, n);

        let x = Lu::new(&a)
            .unwrap_or_else(|e| panic!("seed {seed}: lu failed: {e:?}"))
            .solve(&b)
            .unwrap();

        let residual = a.matvec(&x).unwrap().sub(&b).unwrap().max_abs();
        let scale = max_abs(&a) * x.max_abs() + b.max_abs();
        assert!(
            residual <= 1e-12 * scale.max(1.0),
            "seed {seed}: residual {residual} vs scale {scale}"
        );
    }
}

#[test]
fn riccati_cache_is_symmetric_finite_and_converged() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0xcafe_0000 + seed);
        let nx = rng.range_usize(2, 6);
        let nu = rng.range_usize(1, nx.min(3));
        // Diagonally-dominant contraction (Gershgorin: |0.9| + Σ|off| < 1)
        // so the pair is stabilizable for every seed.
        let off = 0.08 / nx as f64;
        let a = Matrix::from_fn(nx, nx, |r, c| {
            if r == c {
                0.9
            } else {
                off * (rng.unit_f64() * 2.0 - 1.0)
            }
        });
        let b = random_matrix(&mut rng, nx, nu);
        let q = Matrix::identity(nx);
        let r = Matrix::identity(nu).scale(0.1);

        let sol = dare(&a, &b, &q, &r, DareOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: dare failed: {e:?}"));

        // Finiteness of every cached matrix.
        for (name, m) in [("p", &sol.p), ("k", &sol.k), ("quu_inv", &sol.quu_inv)] {
            assert!(
                max_abs(m).is_finite(),
                "seed {seed}: non-finite entries in {name}"
            );
        }

        // Symmetry of the cost-to-go.
        let asym = max_abs(&sol.p.sub(&sol.p.transpose()).unwrap());
        assert!(
            asym < 1e-9 * max_abs(&sol.p).max(1.0),
            "seed {seed}: ‖P − Pᵀ‖∞ = {asym}"
        );

        // P must actually satisfy the DARE.
        let res = dare_residual(&a, &b, &q, &r, &sol.p).unwrap();
        assert!(res < 1e-6, "seed {seed}: dare residual {res}");
    }
}
