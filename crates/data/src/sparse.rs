//! Sparse vector types and sparse–hybrid synthetic catalogs.
//!
//! Real recommender catalogs are often sparse (bag-of-words item features,
//! learned sparse embeddings à la SINDI) or dense–sparse hybrids (a short
//! dense head plus a long sparse tail). This module provides the data side
//! of that workload family:
//!
//! * [`SparseVec`] — one validated sparse vector in canonical form: indices
//!   strictly ascending, values finite and nonzero. The canonical form makes
//!   encode/decode and sparsify/densify round-trips exact identities.
//! * [`SparsityStats`] — sampled nnz/density statistics, the inputs OPTIMUS
//!   uses to cost dense vs sparse vs hybrid execution per plan candidate.
//! * [`synth_sparse_model`] — deterministic sparse/hybrid catalog generator
//!   mirroring [`crate::synth`]: every knob that decides whether the
//!   inverted index or a dense scan wins (density, hybrid head width,
//!   shape) is explicit.
//!
//! Sparsity here is a *distributional* property: models stay dense-stored
//! [`MfModel`]s so every existing solver works unchanged, and sparse-aware
//! consumers (the inverted index) recover the postings from the dense rows.

use crate::model::MfModel;
use crate::synth::gaussian;
use mips_linalg::{norm2, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors raised when constructing a [`SparseVec`] from untrusted input.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// `indices` and `values` lengths differ.
    LengthMismatch {
        /// Number of indices supplied.
        indices: usize,
        /// Number of values supplied.
        values: usize,
    },
    /// An index repeats (or the list is not strictly ascending).
    DuplicateOrUnsorted {
        /// Position in the index list where order broke.
        position: usize,
    },
    /// An index is `>= dim`.
    IndexOutOfRange {
        /// The offending index.
        index: u32,
        /// The vector dimensionality.
        dim: usize,
    },
    /// A stored value is NaN or infinite.
    NonFiniteValue {
        /// The index whose value is non-finite.
        index: u32,
    },
    /// A stored value is exactly zero (canonical form stores only nonzeros,
    /// so round-trips through dense are identities).
    ExplicitZero {
        /// The index whose value is zero.
        index: u32,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::LengthMismatch { indices, values } => {
                write!(f, "{indices} indices but {values} values")
            }
            SparseError::DuplicateOrUnsorted { position } => {
                write!(
                    f,
                    "indices must be strictly ascending (position {position})"
                )
            }
            SparseError::IndexOutOfRange { index, dim } => {
                write!(f, "index {index} out of range for dimension {dim}")
            }
            SparseError::NonFiniteValue { index } => {
                write!(f, "non-finite value at index {index}")
            }
            SparseError::ExplicitZero { index } => {
                write!(
                    f,
                    "explicit zero at index {index} (canonical form stores nonzeros only)"
                )
            }
        }
    }
}

impl std::error::Error for SparseError {}

/// One sparse vector in canonical form: strictly ascending indices, finite
/// nonzero values. The canonical form is unique per dense vector, so
/// [`SparseVec::from_dense`] ∘ [`SparseVec::densify`] and its converse are
/// exact identities (bit-for-bit — no arithmetic happens either way).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Builds a validated sparse vector.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Result<SparseVec, SparseError> {
        if indices.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        for (pos, window) in indices.windows(2).enumerate() {
            if window[0] >= window[1] {
                return Err(SparseError::DuplicateOrUnsorted { position: pos + 1 });
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= dim {
                return Err(SparseError::IndexOutOfRange { index: last, dim });
            }
        }
        for (&index, &value) in indices.iter().zip(&values) {
            if !value.is_finite() {
                return Err(SparseError::NonFiniteValue { index });
            }
            if value == 0.0 {
                return Err(SparseError::ExplicitZero { index });
            }
        }
        Ok(SparseVec {
            dim,
            indices,
            values,
        })
    }

    /// The empty sparse vector of the given dimensionality.
    pub fn empty(dim: usize) -> SparseVec {
        SparseVec {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The canonical sparse form of a dense vector (drops exact zeros,
    /// keeps everything else verbatim).
    ///
    /// # Panics
    /// Panics on non-finite entries or a vector longer than `u32` can
    /// index; model factor rows satisfy both by construction.
    pub fn from_dense(dense: &[f64]) -> SparseVec {
        assert!(
            dense.len() <= u32::MAX as usize,
            "SparseVec: dimension {} exceeds u32 index space",
            dense.len()
        );
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (j, &v) in dense.iter().enumerate() {
            assert!(v.is_finite(), "SparseVec::from_dense: non-finite at {j}");
            if v != 0.0 {
                indices.push(j as u32);
                values.push(v);
            }
        }
        SparseVec {
            dim: dense.len(),
            indices,
            values,
        }
    }

    /// The dense vector this sparse form encodes (exact inverse of
    /// [`SparseVec::from_dense`]; note `-0.0` densifies to `-0.0`).
    pub fn densify(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.dim];
        for (&j, &v) in self.indices.iter().zip(&self.values) {
            dense[j as usize] = v;
        }
        dense
    }

    /// Dimensionality of the (dense) space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The stored indices, strictly ascending.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Exact L2 norm of the encoded vector.
    pub fn norm(&self) -> f64 {
        norm2(&self.values)
    }
}

/// Sampled nnz/density statistics of a dense factor matrix — what OPTIMUS
/// feeds its sparse-vs-dense cost comparison. Sampling walks up to
/// `max_rows` evenly spaced rows, the same spirit as the planner's user
/// sampling: an O(sample) scan instead of O(matrix) per plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityStats {
    /// Rows actually scanned.
    pub rows_sampled: usize,
    /// Nonzeros seen in the sampled rows.
    pub sampled_nnz: usize,
    /// Estimated fraction of nonzero entries, in `[0, 1]`.
    pub density: f64,
    /// Estimated mean nonzeros per row.
    pub avg_nnz_per_row: f64,
    /// Largest nonzero count among sampled rows.
    pub max_nnz_per_row: usize,
}

impl SparsityStats {
    /// Samples up to `max_rows` evenly spaced rows of `matrix`.
    ///
    /// # Panics
    /// Panics when `max_rows` is zero.
    pub fn sample(matrix: &Matrix<f64>, max_rows: usize) -> SparsityStats {
        assert!(max_rows > 0, "SparsityStats: max_rows must be > 0");
        let rows = matrix.rows();
        let take = rows.min(max_rows);
        let mut sampled_nnz = 0usize;
        let mut max_nnz = 0usize;
        for s in 0..take {
            // Evenly spaced deterministic row picks across the matrix.
            let r = s * rows / take;
            let nnz = matrix.row(r).iter().filter(|v| **v != 0.0).count();
            sampled_nnz += nnz;
            max_nnz = max_nnz.max(nnz);
        }
        let avg = if take == 0 {
            0.0
        } else {
            sampled_nnz as f64 / take as f64
        };
        let density = if matrix.cols() == 0 {
            0.0
        } else {
            avg / matrix.cols() as f64
        };
        SparsityStats {
            rows_sampled: take,
            sampled_nnz,
            density,
            avg_nnz_per_row: avg,
            max_nnz_per_row: max_nnz,
        }
    }
}

/// Knobs of the sparse/hybrid synthetic catalog generator.
#[derive(Debug, Clone)]
pub struct SparseSynthConfig {
    /// Number of user vectors.
    pub num_users: usize,
    /// Number of item vectors.
    pub num_items: usize,
    /// Latent dimensionality `f`.
    pub num_factors: usize,
    /// Probability that a tail coordinate is nonzero, in `(0, 1]`.
    /// `1 - density` is the catalog's sparsity (a `0.01` density is the
    /// "99%-sparse" workload).
    pub density: f64,
    /// Leading coordinates that are always dense — the hybrid head. `0`
    /// gives a purely sparse catalog; a nonzero head makes the workload a
    /// dense–sparse hybrid (Bruch et al.'s bridging setting).
    pub dense_head: usize,
    /// RNG seed (catalogs are fully deterministic).
    pub seed: u64,
}

impl Default for SparseSynthConfig {
    fn default() -> SparseSynthConfig {
        SparseSynthConfig {
            num_users: 800,
            num_items: 2000,
            num_factors: 256,
            density: 0.01,
            dense_head: 0,
            seed: 0x5AB5E,
        }
    }
}

/// Generates a sparse or hybrid dense–sparse model: every user and item
/// vector has a dense head of `dense_head` coordinates and a Bernoulli
/// (`density`) sparse tail, values standard normal. Rows that would come
/// out all-zero get one deterministic nonzero so norms stay positive (every
/// norm-sorted backend stays well-posed).
///
/// # Panics
/// Panics if a dimension is zero, `density` is outside `(0, 1]`, or
/// `dense_head > num_factors`.
pub fn synth_sparse_model(config: &SparseSynthConfig) -> MfModel {
    assert!(
        config.num_users > 0,
        "synth_sparse_model: num_users must be > 0"
    );
    assert!(
        config.num_items > 0,
        "synth_sparse_model: num_items must be > 0"
    );
    assert!(
        config.num_factors > 0,
        "synth_sparse_model: num_factors must be > 0"
    );
    assert!(
        config.density > 0.0 && config.density <= 1.0,
        "synth_sparse_model: density must be in (0, 1]"
    );
    assert!(
        config.dense_head <= config.num_factors,
        "synth_sparse_model: dense_head exceeds num_factors"
    );

    let mut rng = StdRng::seed_from_u64(config.seed);
    let f = config.num_factors;
    let mut fill = |rows: usize| -> Matrix<f64> {
        let mut m = Matrix::<f64>::zeros(rows, f);
        for r in 0..rows {
            let row = m.row_mut(r);
            let mut nnz = 0usize;
            for (j, v) in row.iter_mut().enumerate() {
                let keep = j < config.dense_head || rng.gen::<f64>() < config.density;
                if keep {
                    // Re-draw the (measure-zero) exact-zero sample so stored
                    // entries are true nonzeros and CSR round-trips stay
                    // canonical.
                    let mut value = gaussian(&mut rng);
                    while value == 0.0 {
                        value = gaussian(&mut rng);
                    }
                    *v = value;
                    nnz += 1;
                }
            }
            if nnz == 0 {
                // Deterministic rescue nonzero: row index spreads the picks.
                row[r % f] = 1.0 + (r % 7) as f64 * 0.25;
            }
        }
        m
    };

    let users = fill(config.num_users);
    let items = fill(config.num_items);
    MfModel::new(
        format!(
            "sparse-synth(u={},i={},f={},density={},head={})",
            config.num_users,
            config.num_items,
            config.num_factors,
            config.density,
            config.dense_head
        ),
        users,
        items,
    )
    .expect("generator produces finite, non-empty matrices")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vec_round_trips_exactly() {
        let dense = vec![0.0, 1.5, 0.0, -2.25, 0.0, 1e-300];
        let sparse = SparseVec::from_dense(&dense);
        assert_eq!(sparse.dim(), 6);
        assert_eq!(sparse.nnz(), 3);
        assert_eq!(sparse.indices(), &[1, 3, 5]);
        assert_eq!(sparse.densify(), dense);
        // Canonical: re-sparsifying the densified form is identical.
        assert_eq!(SparseVec::from_dense(&sparse.densify()), sparse);
    }

    #[test]
    fn sparse_vec_rejects_malformed_input() {
        assert_eq!(
            SparseVec::new(4, vec![0, 2], vec![1.0]).unwrap_err(),
            SparseError::LengthMismatch {
                indices: 2,
                values: 1
            }
        );
        assert_eq!(
            SparseVec::new(4, vec![2, 2], vec![1.0, 1.0]).unwrap_err(),
            SparseError::DuplicateOrUnsorted { position: 1 }
        );
        assert_eq!(
            SparseVec::new(4, vec![2, 1], vec![1.0, 1.0]).unwrap_err(),
            SparseError::DuplicateOrUnsorted { position: 1 }
        );
        assert_eq!(
            SparseVec::new(4, vec![0, 4], vec![1.0, 1.0]).unwrap_err(),
            SparseError::IndexOutOfRange { index: 4, dim: 4 }
        );
        assert_eq!(
            SparseVec::new(4, vec![0, 1], vec![1.0, f64::NAN]).unwrap_err(),
            SparseError::NonFiniteValue { index: 1 }
        );
        assert_eq!(
            SparseVec::new(4, vec![0, 1], vec![1.0, 0.0]).unwrap_err(),
            SparseError::ExplicitZero { index: 1 }
        );
    }

    #[test]
    fn empty_vector_is_valid_and_densifies_to_zeros() {
        let empty = SparseVec::empty(5);
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.densify(), vec![0.0; 5]);
        assert_eq!(SparseVec::new(5, vec![], vec![]).unwrap(), empty);
        assert_eq!(empty.norm(), 0.0);
    }

    #[test]
    fn stats_sample_evenly_and_estimate_density() {
        let mut m = Matrix::<f64>::zeros(100, 10);
        for r in 0..100 {
            m.row_mut(r)[0] = 1.0; // exactly one nonzero per row
        }
        let full = SparsityStats::sample(&m, 1000);
        assert_eq!(full.rows_sampled, 100);
        assert_eq!(full.sampled_nnz, 100);
        assert!((full.density - 0.1).abs() < 1e-12);
        assert_eq!(full.max_nnz_per_row, 1);
        let sampled = SparsityStats::sample(&m, 16);
        assert_eq!(sampled.rows_sampled, 16);
        assert!((sampled.density - 0.1).abs() < 1e-12);
        assert!((sampled.avg_nnz_per_row - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synth_sparse_is_deterministic_and_hits_the_density() {
        let cfg = SparseSynthConfig {
            num_users: 60,
            num_items: 300,
            num_factors: 128,
            density: 0.02,
            ..SparseSynthConfig::default()
        };
        let a = synth_sparse_model(&cfg);
        let b = synth_sparse_model(&cfg);
        assert_eq!(a.users().as_slice(), b.users().as_slice());
        assert_eq!(a.items().as_slice(), b.items().as_slice());
        let stats = SparsityStats::sample(a.items(), 300);
        assert!(
            (stats.density - 0.02).abs() < 0.01,
            "items density {} far from configured 0.02",
            stats.density
        );
        // Every row has at least one nonzero (norm-sorted backends need it).
        for row in a.items().iter_rows().chain(a.users().iter_rows()) {
            assert!(row.iter().any(|v| *v != 0.0));
        }
    }

    #[test]
    fn hybrid_head_is_fully_dense() {
        let cfg = SparseSynthConfig {
            num_users: 20,
            num_items: 50,
            num_factors: 64,
            density: 0.01,
            dense_head: 8,
            ..SparseSynthConfig::default()
        };
        let m = synth_sparse_model(&cfg);
        for row in m.items().iter_rows() {
            assert!(row[..8].iter().all(|v| *v != 0.0), "head must be dense");
        }
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_zero_density() {
        let _ = synth_sparse_model(&SparseSynthConfig {
            density: 0.0,
            ..SparseSynthConfig::default()
        });
    }
}
