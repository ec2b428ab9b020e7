//! Bit-identity legs of the sparse inverted-index backend that the core
//! test kit's driver (`exactness.rs`) does not take: catalogs across the
//! density spectrum — from fully dense to 99%-sparse, hybrid heads
//! included — and sparse ad-hoc queries with exact-zero holes. The index's
//! storage form follows the data — a column denser than
//! [`DENSE_COLUMN_CUTOFF`](mips_sparse::DENSE_COLUMN_CUTOFF) is a dense
//! panel, the rest are postings lists — so three fixed catalogs pin each
//! form: all postings, all panels, and a hybrid of both. On each, the
//! answers are the oracle's ids and score bits at every `k` edge, for
//! stored users and for the [`MipsSolver::query_vector`] point-lookup path.

mod common;

use common::{bits, k_edges, oracle, Lcg};
use mips_core::solver::MipsSolver;
use mips_core::{LempSolver, SparseSolver};
use mips_data::sparse::{synth_sparse_model, SparseSynthConfig, SparseVec};
use mips_data::MfModel;
use mips_linalg::Matrix;
use mips_topk::exact_topk;
use proptest::prelude::*;
use std::sync::Arc;

/// `sparse.query_vector(query, k)` and the oracle's answer, as comparable
/// bits.
fn point_bits(
    sparse: &SparseSolver,
    model: &MfModel,
    query: &[f64],
    k: usize,
) -> [Vec<(Vec<u32>, Vec<u64>)>; 2] {
    let got = MipsSolver::query_vector(sparse, query, k).expect("sparse backend has point lookups");
    [bits(&[got]), bits(&[exact_topk(query, model.items(), k)])]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse catalogs across the density spectrum: the inverted index
    /// serves the oracle's answer for every user and every `k` edge.
    #[test]
    fn sparse_solver_serves_the_oracle_answer_on_sparse_catalogs(users in 1usize..14,
                                                                 items in 1usize..40,
                                                                 f in 1usize..24,
                                                                 density in 0.01f64..=1.0,
                                                                 dense_head in 0usize..4,
                                                                 seed in 0u64..2_000) {
        let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            density,
            dense_head: dense_head.min(f),
            seed,
        }));
        let sparse = SparseSolver::build(Arc::clone(&model));
        for k in k_edges(items) {
            prop_assert_eq!(
                bits(&sparse.query_all(k)),
                bits(&oracle(&model, k)),
                "divergence at k={}", k
            );
        }
    }

    /// Ad-hoc `query_vector` lookups — both sparse payloads densified at
    /// the API boundary and fresh dense embeddings — match the oracle to
    /// the bit.
    #[test]
    fn query_vector_matches_the_oracle(items in 1usize..40,
                                       f in 1usize..24,
                                       density in 0.01f64..=1.0,
                                       query_density in 0.05f64..=1.0,
                                       seed in 0u64..2_000) {
        let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
            num_users: 2,
            num_items: items,
            num_factors: f,
            density,
            dense_head: 0,
            seed,
        }));
        // A deterministic ad-hoc query with exact-zero holes, exercising
        // the sparse wire shape via the same canonical form clients use.
        let mut rng = Lcg::new(seed);
        let query: Vec<f64> = (0..f)
            .map(|_| {
                if rng.next() < query_density {
                    let v = rng.next() * 4.0 - 2.0;
                    if v == 0.0 { 0.5 } else { v }
                } else {
                    0.0
                }
            })
            .collect();
        let densified = SparseVec::from_dense(&query).densify();
        prop_assert_eq!(
            densified.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            query.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let sparse = SparseSolver::build(Arc::clone(&model));
        for k in k_edges(items) {
            let [got, want] = point_bits(&sparse, &model, &query, k);
            prop_assert_eq!(got, want, "query_vector divergence at k={}", k);
        }
    }
}

/// The trait-level default: backends without a point-lookup path report
/// `None` and the engine falls back to the oracle scan — LEMP is one.
#[test]
fn backends_without_point_lookup_return_none() {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: 3,
        num_items: 10,
        num_factors: 8,
        density: 0.5,
        dense_head: 0,
        seed: 7,
    }));
    let lemp = LempSolver::build(Arc::clone(&model), &Default::default());
    assert!(MipsSolver::query_vector(&lemp, &[1.0; 8], 3).is_none());
}

/// An all-zero ad-hoc query has no postings to walk; the sparse path must
/// still produce the oracle's answer (all scores exactly `+0.0`, ids
/// ascending), not an empty list.
#[test]
fn zero_query_vector_is_exact() {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: 2,
        num_items: 12,
        num_factors: 6,
        density: 0.3,
        dense_head: 0,
        seed: 11,
    }));
    let query = vec![0.0; 6];
    let sparse = SparseSolver::build(Arc::clone(&model));
    for k in [1, 5, 12, 15] {
        let [got, want] = point_bits(&sparse, &model, &query, k);
        assert_eq!(got, want, "k={k}");
    }
}

/// The whole identity bar on one catalog whose storage form is known:
/// `query_all` and `query_vector` against the oracle, for every user row
/// and one off-model query, at every `k` edge.
fn assert_exact_with_dense_cols(model: &Arc<MfModel>, dense_cols: usize) {
    let sparse = SparseSolver::build(Arc::clone(model));
    assert_eq!(sparse.index().num_dense_cols(), dense_cols);
    let f = model.num_factors();
    let off_model: Vec<f64> = (0..f)
        .map(|j| {
            if j % 3 == 0 {
                1.5 - j as f64 * 0.25
            } else {
                0.0
            }
        })
        .collect();
    for k in k_edges(model.num_items()) {
        assert_eq!(bits(&sparse.query_all(k)), bits(&oracle(model, k)), "k={k}");
        let users = (0..model.num_users()).map(|u| model.users().row(u));
        for query in users.chain([off_model.as_slice()]) {
            let [got, want] = point_bits(&sparse, model, query, k);
            assert_eq!(got, want, "query_vector k={k}");
        }
    }
}

/// Every column at most 0.2 dense: the whole catalog is postings lists.
/// Item `i` is nonzero on columns `i mod 10` and `(7i + 3) mod 10` (never
/// the same), so each column holds 8 of 40 items; each user touches one
/// column, i.e. 8 items, so the other 32 enter through the untouched-item
/// `+0.0` path at every `k` past 8.
#[test]
fn an_all_postings_catalog_is_exact() {
    let (n, f) = (40, 10);
    let value = |i: usize| (i % 9) as f64 * 0.5 - 1.75; // never zero
    let items = Matrix::from_fn(n, f, |i, j| {
        if j == i % f || j == (7 * i + 3) % f {
            value(i + j)
        } else {
            0.0
        }
    });
    let users = Matrix::from_fn(6, f, |u, j| if j == (3 * u) % f { value(u) } else { 0.0 });
    let model = Arc::new(MfModel::new("striped", users, items).unwrap());
    assert_exact_with_dense_cols(&model, 0);
}

/// Density 1.0: every column is a dense panel.
#[test]
fn an_all_panels_catalog_is_exact() {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: 6,
        num_items: 30,
        num_factors: 7,
        density: 1.0,
        dense_head: 0,
        seed: 21,
    }));
    assert_exact_with_dense_cols(&model, 7);
}

/// A dense head over a 5 %-dense tail: panels for the head's columns,
/// postings for the tail's.
#[test]
fn a_hybrid_catalog_is_exact() {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: 6,
        num_items: 60,
        num_factors: 16,
        density: 0.05,
        dense_head: 3,
        seed: 33,
    }));
    assert_exact_with_dense_cols(&model, 3);
}
