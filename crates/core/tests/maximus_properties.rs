//! Property tests specific to the MAXIMUS index.

use mips_core::bmm::BmmSolver;
use mips_core::maximus::{MaximusConfig, MaximusIndex};
use mips_core::solver::MipsSolver;
use mips_data::MfModel;
use mips_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

fn random_model(n_users: usize, n_items: usize, f: usize, seed: u64) -> Arc<MfModel> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    };
    let users = Matrix::from_fn(n_users, f, |_, _| next());
    let items = Matrix::from_fn(n_items, f, |_, _| next());
    Arc::new(MfModel::new("prop", users, items).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Item blocking must never change results — only work distribution.
    #[test]
    fn blocking_factor_is_result_invariant(n_users in 2usize..15,
                                           n_items in 2usize..60,
                                           f in 1usize..8,
                                           block in 1usize..70,
                                           k in 1usize..6,
                                           seed in 0u64..300) {
        let model = random_model(n_users, n_items, f, seed);
        let reference = MaximusIndex::build(Arc::clone(&model), &MaximusConfig {
            num_clusters: 3,
            block_size: 1,
            item_blocking: false,
            ..MaximusConfig::default()
        }).query_all(k);
        let blocked = MaximusIndex::build(Arc::clone(&model), &MaximusConfig {
            num_clusters: 3,
            block_size: block,
            item_blocking: true,
            ..MaximusConfig::default()
        }).query_all(k);
        // Item sets must match exactly; scores may differ by accumulation
        // order (GEMM for the blocked prefix vs a dot product in the walk).
        for (r, b) in reference.iter().zip(&blocked) {
            prop_assert!(r.approx_eq(b, 1e-9), "{:?} vs {:?}", r, b);
        }
    }

    /// The per-cluster bound lists must be sorted descending — the property
    /// early termination relies on.
    #[test]
    fn cluster_lists_descend(n_users in 2usize..12,
                             n_items in 2usize..50,
                             f in 1usize..6,
                             clusters in 1usize..6,
                             seed in 0u64..300) {
        let model = random_model(n_users, n_items, f, seed);
        let index = MaximusIndex::build(Arc::clone(&model), &MaximusConfig {
            num_clusters: clusters,
            ..MaximusConfig::default()
        });
        // Indirect check: a walk that starts pruning can never re-admit —
        // equivalently, results equal brute force (exactness) AND the
        // reported θ_b values are within [0, π].
        for theta in index.cluster_thetas() {
            prop_assert!((0.0..=std::f64::consts::PI + 1e-6).contains(&theta));
        }
        let want = BmmSolver::build(Arc::clone(&model)).query_all(3);
        prop_assert_eq!(index.query_all(3), want);
    }

    /// §III-E: serving an arbitrary *new* vector through the dynamic-user
    /// path is exact.
    #[test]
    fn new_vector_queries_are_exact(n_items in 2usize..50,
                                    f in 1usize..6,
                                    k in 1usize..6,
                                    seed in 0u64..300) {
        let model = random_model(6, n_items, f, seed);
        let index = MaximusIndex::build(Arc::clone(&model), &MaximusConfig {
            num_clusters: 2,
            block_size: 4,
            ..MaximusConfig::default()
        });
        let mut state = seed | 7;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0
        };
        let novel: Vec<f64> = (0..f).map(|_| next()).collect();
        let got = index.query_new_vector(&novel, k);
        // Brute-force reference on the novel vector.
        let probe = Arc::new(MfModel::new(
            "probe",
            Matrix::from_vec(1, f, novel).unwrap(),
            model.items().clone(),
        ).unwrap());
        let want = BmmSolver::build(probe).query_all(k);
        prop_assert_eq!(got.items, want[0].items.clone());
    }

    /// The k-means clustering yields an exact index.
    #[test]
    fn kmeans_clustered_index_is_exact(n_users in 2usize..12,
                                       n_items in 2usize..40,
                                       f in 1usize..6,
                                       seed in 0u64..200) {
        let model = random_model(n_users, n_items, f, seed);
        let want = BmmSolver::build(Arc::clone(&model)).query_all(4);
        let index = MaximusIndex::build(Arc::clone(&model), &MaximusConfig {
            num_clusters: 3,
            ..MaximusConfig::default()
        });
        prop_assert_eq!(index.query_all(4), want);
    }
}
