//! Property tests for the sparse data substrate.
//!
//! The canonical-form contract is *exact*: sparsify ∘ densify and its
//! converse are bit-for-bit identities (no arithmetic happens either way),
//! and every malformed posting list is rejected with a typed
//! [`SparseError`] — never a panic, never a silently repaired vector.

use mips_data::sparse::{
    synth_sparse_model, SparseError, SparseSynthConfig, SparseVec, SparsityStats,
};
use mips_linalg::Matrix;
use proptest::prelude::*;

/// Deterministic dense vector in `[-2, 2]` with exact `+0.0` holes: each
/// coordinate survives with probability `density`. Surviving values are
/// redrawn away from the (measure-zero) exact zero so the nonzero count is
/// exactly what [`SparseVec::from_dense`] must preserve.
fn random_dense(len: usize, density: f64, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..len)
        .map(|_| {
            if next() < density {
                let v = next() * 4.0 - 2.0;
                if v == 0.0 {
                    1.0
                } else {
                    v
                }
            } else {
                0.0
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `from_dense` ∘ `densify` is the identity on dense vectors, to the
    /// bit, at every density including all-zero and fully dense.
    #[test]
    fn sparsify_then_densify_is_identity(len in 0usize..120,
                                         density in 0.0f64..=1.0,
                                         seed in 0u64..5_000) {
        let dense = random_dense(len, density, seed);
        let sparse = SparseVec::from_dense(&dense);
        prop_assert_eq!(sparse.dim(), len);
        prop_assert_eq!(sparse.nnz(), dense.iter().filter(|v| **v != 0.0).count());
        prop_assert!(sparse.indices().windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(bits(&sparse.densify()), bits(&dense));
    }

    /// `densify` ∘ `from_dense` is the identity on canonical sparse
    /// vectors: postings built by hand survive the round trip verbatim.
    #[test]
    fn densify_then_sparsify_is_identity(dim in 1usize..200,
                                         stride in 1usize..9,
                                         seed in 0u64..5_000) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        // Strictly ascending strided indices; values finite and nonzero.
        let indices: Vec<u32> = (0..dim).step_by(stride).map(|j| j as u32).collect();
        let values: Vec<f64> = indices
            .iter()
            .map(|_| {
                let v = next();
                if v == 0.0 { 0.5 } else { v }
            })
            .collect();
        let sparse = SparseVec::new(dim, indices.clone(), values.clone()).unwrap();
        let round = SparseVec::from_dense(&sparse.densify());
        prop_assert_eq!(round.dim(), dim);
        prop_assert_eq!(round.indices(), &indices[..]);
        prop_assert_eq!(bits(round.values()), bits(&values));
    }

    /// Sampling every row makes the stats exact, not estimates.
    #[test]
    fn full_sample_stats_are_exact(rows in 1usize..16,
                                   cols in 1usize..24,
                                   density in 0.0f64..=1.0,
                                   seed in 0u64..2_000) {
        let source = Matrix::from_fn(rows, cols, |r, c| {
            random_dense(1, density, seed ^ ((r as u64) << 20) ^ c as u64)[0]
        });
        let stats = SparsityStats::sample(&source, rows);
        let per_row: Vec<usize> = (0..rows)
            .map(|r| source.row(r).iter().filter(|v| **v != 0.0).count())
            .collect();
        let nnz: usize = per_row.iter().sum();
        prop_assert_eq!(stats.rows_sampled, rows);
        prop_assert_eq!(stats.sampled_nnz, nnz);
        prop_assert!((stats.density - nnz as f64 / (rows * cols) as f64).abs() < 1e-12);
        prop_assert_eq!(stats.max_nnz_per_row, *per_row.iter().max().unwrap());
    }

    /// The sparse synthetic generator never emits an all-zero row (the
    /// deterministic rescue nonzero), so every catalog it produces is a
    /// valid MIPS workload at any density.
    #[test]
    fn synth_sparse_rows_are_never_empty(users in 1usize..30,
                                         items in 1usize..30,
                                         f in 1usize..24,
                                         density in 0.001f64..0.2,
                                         seed in 0u64..500) {
        let model = synth_sparse_model(&SparseSynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            density,
            dense_head: 0,
            seed,
        });
        for side in [model.users(), model.items()] {
            for r in 0..side.rows() {
                prop_assert!(side.row(r).iter().any(|v| *v != 0.0), "all-zero row {r}");
            }
        }
    }

    /// Every malformed posting list maps to its specific [`SparseError`]
    /// variant, for arbitrary dimensionalities and positions.
    #[test]
    fn malformed_postings_are_rejected(dim in 1usize..500, at in 0u32..400) {
        let j = at.min(dim as u32 - 1);
        prop_assert_eq!(
            SparseVec::new(dim, vec![j], vec![]),
            Err(SparseError::LengthMismatch { indices: 1, values: 0 })
        );
        prop_assert_eq!(
            SparseVec::new(dim, vec![j, j], vec![1.0, 2.0]),
            Err(SparseError::DuplicateOrUnsorted { position: 1 })
        );
        if j > 0 {
            prop_assert_eq!(
                SparseVec::new(dim, vec![j, j - 1], vec![1.0, 2.0]),
                Err(SparseError::DuplicateOrUnsorted { position: 1 })
            );
        }
        prop_assert_eq!(
            SparseVec::new(dim, vec![dim as u32], vec![1.0]),
            Err(SparseError::IndexOutOfRange { index: dim as u32, dim })
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            prop_assert_eq!(
                SparseVec::new(dim, vec![j], vec![bad]),
                Err(SparseError::NonFiniteValue { index: j })
            );
        }
        for zero in [0.0, -0.0] {
            prop_assert_eq!(
                SparseVec::new(dim, vec![j], vec![zero]),
                Err(SparseError::ExplicitZero { index: j })
            );
        }
    }
}

/// Empty postings are first-class: `empty`, `new` with no postings, and
/// `from_dense` of an all-zero vector agree, and densify to exact `+0.0`.
#[test]
fn empty_postings_round_trip() {
    for dim in [0usize, 1, 7, 300] {
        let empty = SparseVec::empty(dim);
        assert_eq!(empty, SparseVec::new(dim, vec![], vec![]).unwrap());
        assert_eq!(empty, SparseVec::from_dense(&vec![0.0; dim]));
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.norm(), 0.0);
        let dense = empty.densify();
        assert_eq!(dense.len(), dim);
        assert!(dense.iter().all(|v| v.to_bits() == 0));
    }
}
