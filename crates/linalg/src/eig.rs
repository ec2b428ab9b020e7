//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! FEXIPRO's "S" stage needs the SVD of the item matrix; for latent-factor
//! models `f ≤ a few hundred`, the right singular vectors are the
//! eigenvectors of the `f × f` Gram matrix `IᵀI`, which cyclic Jacobi
//! diagonalizes robustly in `O(f³)` per sweep with excellent accuracy on
//! symmetric positive semi-definite inputs.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition, sorted by descending eigenvalue.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns: `vectors.get(i, j)` is component `i`
    /// of the eigenvector paired with `values[j]`.
    pub vectors: Matrix<f64>,
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 50;

/// Diagonalizes a symmetric matrix with the cyclic Jacobi method.
///
/// The input must be square and (numerically) symmetric; the strictly lower
/// triangle is ignored. Returns eigenpairs sorted by descending eigenvalue.
///
/// # Errors
/// * [`LinalgError::DimensionMismatch`] for non-square input.
/// * [`LinalgError::NonFinite`] if the input contains NaN/∞.
/// * [`LinalgError::NoConvergence`] if the off-diagonal mass fails to vanish
///   within the sweep budget (does not happen for PSD Gram matrices).
pub fn jacobi_eigen(a: &Matrix<f64>) -> Result<SymEigen, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "jacobi_eigen",
            expected: n,
            actual: a.cols(),
        });
    }
    if n == 0 {
        return Err(LinalgError::Empty {
            context: "jacobi_eigen",
        });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite {
            context: "jacobi_eigen",
        });
    }

    let mut m = a.clone();
    // Symmetrize: use the mean of the two triangles so tiny asymmetries from
    // accumulated rounding do not bias the rotations.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = (m.get(i, j) + m.get(j, i)) / 2.0;
            m.set(i, j, avg);
            m.set(j, i, avg);
        }
    }
    let mut v = Matrix::<f64>::zeros(n, n);
    for i in 0..n {
        v.set(i, i, 1.0);
    }

    let frob = m.frobenius_norm();
    let tol = frob * f64::EPSILON * n as f64;

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&m);
        if off <= tol || off == 0.0 {
            return Ok(sorted_eigen(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                rotate(&mut m, &mut v, p, q);
            }
        }
    }
    // One final check: the last sweep may have converged.
    if off_diagonal_norm(&m) <= tol {
        return Ok(sorted_eigen(m, v));
    }
    Err(LinalgError::NoConvergence {
        context: "jacobi_eigen",
        iterations: MAX_SWEEPS,
    })
}

/// Frobenius norm of the strictly upper triangle (the symmetric off-diagonal
/// mass driven to zero by the sweeps).
fn off_diagonal_norm(m: &Matrix<f64>) -> f64 {
    let n = m.rows();
    let mut acc = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            let x = m.get(i, j);
            acc = x.mul_add(x, acc);
        }
    }
    acc.sqrt()
}

/// One Jacobi rotation zeroing `m[p][q]`, applied two-sided to `m` and
/// accumulated into the eigenvector matrix `v`.
fn rotate(m: &mut Matrix<f64>, v: &mut Matrix<f64>, p: usize, q: usize) {
    let apq = m.get(p, q);
    if apq == 0.0 {
        return;
    }
    let app = m.get(p, p);
    let aqq = m.get(q, q);
    // Classic stable computation of tan(theta) for the annihilating rotation.
    let theta = (aqq - app) / (2.0 * apq);
    let t = {
        let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
        sign / (theta.abs() + theta.mul_add(theta, 1.0).sqrt())
    };
    let c = 1.0 / t.mul_add(t, 1.0).sqrt();
    let s = t * c;

    let n = m.rows();
    for i in 0..n {
        let mip = m.get(i, p);
        let miq = m.get(i, q);
        m.set(i, p, c * mip - s * miq);
        m.set(i, q, s * mip + c * miq);
    }
    for j in 0..n {
        let mpj = m.get(p, j);
        let mqj = m.get(q, j);
        m.set(p, j, c * mpj - s * mqj);
        m.set(q, j, s * mpj + c * mqj);
    }
    for i in 0..n {
        let vip = v.get(i, p);
        let viq = v.get(i, q);
        v.set(i, p, c * vip - s * viq);
        v.set(i, q, s * vip + c * viq);
    }
    // Enforce exact zero at the annihilated position to stop rounding drift.
    m.set(p, q, 0.0);
    m.set(q, p, 0.0);
}

/// Extracts the diagonal, sorts eigenpairs by descending eigenvalue, and
/// permutes the eigenvector columns to match.
fn sorted_eigen(m: Matrix<f64>, v: Matrix<f64>) -> SymEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&a, &b| diag[b].total_cmp(&diag[a]));

    let values: Vec<f64> = order.iter().map(|&j| diag[j]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v.get(i, order[j]));
    SymEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_nn;

    fn reconstruct(e: &SymEigen) -> Matrix<f64> {
        // A = V diag(λ) Vᵀ
        let n = e.values.len();
        let mut scaled = e.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled.set(i, j, e.vectors.get(i, j) * e.values[j]);
            }
        }
        matmul_nn(&scaled, &e.vectors.transpose())
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        let e = jacobi_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = jacobi_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = (e.vectors.get(0, 0), e.vectors.get(1, 0));
        assert!((v0.0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0.0 - v0.1).abs() < 1e-10);
    }

    #[test]
    fn random_symmetric_reconstructs() {
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 5, 12, 33] {
            let mut a = Matrix::<f64>::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let v = next();
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
            }
            let e = jacobi_eigen(&a).unwrap();
            let rec = reconstruct(&e);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (rec.get(i, j) - a.get(i, j)).abs() < 1e-9,
                        "n={n} ({i},{j})"
                    );
                }
            }
            // Sorted descending.
            for w in e.values.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.25, 0.5, 0.25, 2.0]).unwrap();
        let e = jacobi_eigen(&a).unwrap();
        let vtv = matmul_nn(&e.vectors.transpose(), &e.vectors);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.get(i, j) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let rect = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            jacobi_eigen(&rect),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let empty = Matrix::<f64>::zeros(0, 0);
        assert!(matches!(
            jacobi_eigen(&empty),
            Err(LinalgError::Empty { .. })
        ));
        let mut nan = Matrix::<f64>::zeros(2, 2);
        nan.set(0, 1, f64::NAN);
        assert!(matches!(
            jacobi_eigen(&nan),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn psd_gram_matrix_eigenvalues_nonnegative() {
        // Gram of a random 10×4: eigenvalues must be ≥ 0 (within rounding).
        let b = Matrix::<f64>::from_fn(10, 4, |r, c| ((r * 7 + c * 3) % 11) as f64 / 11.0 - 0.4);
        let g = matmul_nn(&b.transpose(), &b);
        let e = jacobi_eigen(&g).unwrap();
        for &l in &e.values {
            assert!(l > -1e-10);
        }
    }
}
