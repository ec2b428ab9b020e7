//! The item-matrix SVD transform used by FEXIPRO's "S" stage.
//!
//! For a tall item matrix `P (n × f)` with thin SVD `P = U Σ Vᵀ`, the
//! orthogonal change of basis `x ↦ Vᵀx` preserves every inner product
//! (`(Vᵀu)·(Vᵀp) = uᵀV Vᵀp = u·p`) while re-ordering coordinates by captured
//! energy (descending singular value). After the transform, the first few
//! coordinates carry most of each inner product, so partial products plus a
//! Cauchy–Schwarz bound on the suffix prune aggressively.
//!
//! We obtain `V` from the `f × f` Gram matrix `PᵀP = V Σ² Vᵀ` with the
//! [`crate::eig`] Jacobi solver — numerically ample for `f ≤ ~200` and `n` in
//! the millions, and it never materializes an `n × n` object.

use crate::eig::jacobi_eigen;
use crate::error::LinalgError;
use crate::gemm::{gemm_nt_into, matmul_nn};
use crate::matrix::Matrix;

/// An orthogonal basis ordered by descending singular value, with helpers to
/// push vectors/matrices through the transform.
#[derive(Debug, Clone)]
pub struct SvdBasis {
    /// Right singular vectors as columns (`f × f`, orthogonal).
    pub v: Matrix<f64>,
    /// Singular values, descending.
    pub singular_values: Vec<f64>,
}

impl SvdBasis {
    /// Computes the basis from a tall data matrix (one vector per row).
    ///
    /// # Errors
    /// Propagates validation/convergence failures from the eigensolver.
    pub fn from_rows(data: &Matrix<f64>) -> Result<Self, LinalgError> {
        data.validate("SvdBasis::from_rows")?;
        let gram = gram(data);
        let eig = jacobi_eigen(&gram)?;
        let singular_values = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        Ok(SvdBasis {
            v: eig.vectors,
            singular_values,
        })
    }

    /// Dimensionality `f` of the basis.
    pub fn dim(&self) -> usize {
        self.v.rows()
    }

    /// Applies `x ↦ Vᵀx` to every row of `m` (returns `M·V`, since rows are
    /// vectors).
    pub fn transform(&self, m: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(
            m.cols(),
            self.dim(),
            "SvdBasis::transform: dimension mismatch"
        );
        matmul_nn(m, &self.v)
    }

    /// Fraction of total energy captured by the first `h` coordinates.
    ///
    /// FEXIPRO picks its checkpoint `h` so this reaches a target (e.g. 0.9).
    pub fn energy_fraction(&self, h: usize) -> f64 {
        let total: f64 = self.singular_values.iter().map(|&s| s * s).sum();
        if total == 0.0 {
            return 1.0;
        }
        let head: f64 = self.singular_values.iter().take(h).map(|&s| s * s).sum();
        head / total
    }

    /// Smallest prefix length whose energy fraction reaches `target`
    /// (clamped to `[1, f]`).
    pub fn checkpoint_for_energy(&self, target: f64) -> usize {
        let f = self.dim();
        for h in 1..=f {
            if self.energy_fraction(h) >= target {
                return h;
            }
        }
        f.max(1)
    }
}

/// Rows of `M` multiplied per GEMM call in [`gram`]: long enough that the
/// packed kernel runs at its blocked rate, short enough that the transposed
/// copy stays a few megabytes at any feasible `f`.
const GRAM_ROW_CHUNK: usize = 4096;

/// The Gram matrix `MᵀM` (`f × f`) of a tall row-major matrix, through the
/// packed GEMM: each chunk of rows is transposed into an `f × chunk` block
/// `B` and contributes `B·Bᵀ`, so the extra memory is `O(f · chunk + f²)`
/// whatever the row count.
pub fn gram(m: &Matrix<f64>) -> Matrix<f64> {
    let f = m.cols();
    let mut g = Matrix::zeros(f, f);
    let mut partial = vec![0.0; f * f];
    for start in (0..m.rows()).step_by(GRAM_ROW_CHUNK) {
        let end = (start + GRAM_ROW_CHUNK).min(m.rows());
        let chunk = Matrix::from_vec(end - start, f, m.row_block(start, end).as_slice().to_vec())
            .expect("a row block of a matrix is a matrix")
            .transpose();
        gemm_nt_into((&chunk).into(), (&chunk).into(), &mut partial);
        for (slot, &p) in g.as_mut_slice().iter_mut().zip(&partial) {
            *slot += p;
        }
    }
    // Both triangles accumulate the same products in the same order, but the
    // eigensolver's contract is exact symmetry: make it hold by construction.
    for i in 0..f {
        for j in (i + 1)..f {
            let v = g.get(i, j);
            g.set(j, i, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dot;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn gram_matches_naive() {
        // The second shape spans several row chunks with a ragged last one.
        for (rows, cols) in [(13usize, 5usize), (2 * GRAM_ROW_CHUNK + 37, 7)] {
            let m = random_matrix(rows, cols, 3);
            let g = gram(&m);
            let naive = matmul_nn(&m.transpose(), &m);
            for i in 0..cols {
                for j in 0..cols {
                    let (got, want) = (g.get(i, j), naive.get(i, j));
                    assert!((got - want).abs() < 1e-10 * (1.0 + want.abs()), "({i},{j})");
                    assert_eq!(got.to_bits(), g.get(j, i).to_bits(), "symmetry ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn transform_preserves_inner_products() {
        let items = random_matrix(40, 8, 17);
        let users = random_matrix(6, 8, 23);
        let basis = SvdBasis::from_rows(&items).unwrap();
        let ti = basis.transform(&items);
        let tu = basis.transform(&users);
        for u in 0..6 {
            for i in 0..40 {
                let orig = dot(users.row(u), items.row(i));
                let trans = dot(tu.row(u), ti.row(i));
                assert!((orig - trans).abs() < 1e-9, "({u},{i}): {orig} vs {trans}");
            }
        }
    }

    #[test]
    fn singular_values_descend_and_match_energy() {
        let items = random_matrix(60, 6, 5);
        let basis = SvdBasis::from_rows(&items).unwrap();
        for w in basis.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        // Total energy equals the squared Frobenius norm.
        let total: f64 = basis.singular_values.iter().map(|s| s * s).sum();
        let frob = items.frobenius_norm();
        assert!((total - frob * frob).abs() < 1e-7);
        assert!((basis.energy_fraction(6) - 1.0).abs() < 1e-12);
        assert!(basis.energy_fraction(1) <= 1.0);
    }

    #[test]
    fn transformed_coordinates_concentrate_energy() {
        // Build an item matrix with strong first-direction correlation; after
        // the transform the first coordinate should dominate.
        let mut items = random_matrix(100, 8, 9);
        for r in 0..100 {
            let bias = 5.0 * ((r % 10) as f64 / 10.0 + 0.5);
            items.row_mut(r)[0] += bias;
        }
        let basis = SvdBasis::from_rows(&items).unwrap();
        assert!(basis.energy_fraction(1) > 0.5);
        assert!(basis.checkpoint_for_energy(0.5) == 1);
    }

    #[test]
    fn checkpoint_for_energy_clamps() {
        let items = random_matrix(20, 4, 2);
        let basis = SvdBasis::from_rows(&items).unwrap();
        assert_eq!(basis.checkpoint_for_energy(1.0 + 1.0), 4); // unreachable target
        assert!(basis.checkpoint_for_energy(0.0) >= 1);
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        let empty = Matrix::<f64>::zeros(0, 4);
        assert!(SvdBasis::from_rows(&empty).is_err());
        let mut bad = random_matrix(3, 3, 1);
        bad.set(1, 1, f64::INFINITY);
        assert!(SvdBasis::from_rows(&bad).is_err());
    }

    #[test]
    fn basis_is_orthogonal() {
        let items = random_matrix(30, 7, 77);
        let basis = SvdBasis::from_rows(&items).unwrap();
        let vtv = matmul_nn(&basis.v.transpose(), &basis.v);
        for i in 0..7 {
            for j in 0..7 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.get(i, j) - expect).abs() < 1e-9);
            }
        }
    }
}
