//! Property tests: every registered backend must be semantically exact on
//! random models, including tie-heavy ones.

use mips_core::engine::{
    BmmFactory, FexiproFactory, LempFactory, MaximusFactory, SolverFactory, SparseFactory,
};
use mips_core::maximus::MaximusConfig;
use mips_core::verify::check_all_topk;
use mips_data::MfModel;
use mips_lemp::LempConfig;
use mips_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

fn all_backends() -> Vec<Arc<dyn SolverFactory>> {
    vec![
        Arc::new(BmmFactory),
        Arc::new(MaximusFactory::new(MaximusConfig {
            num_clusters: 3,
            kmeans_iters: 2,
            block_size: 8,
            item_blocking: true,
            seed: 5,
        })),
        Arc::new(MaximusFactory::new(MaximusConfig {
            num_clusters: 2,
            kmeans_iters: 2,
            block_size: 4,
            item_blocking: false,
            seed: 6,
        })),
        Arc::new(LempFactory::new(LempConfig {
            bucket_size: 8,
            tune_sample: 2,
            ..LempConfig::default()
        })),
        Arc::new(FexiproFactory::si()),
        Arc::new(FexiproFactory::sir()),
        Arc::new(SparseFactory),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_solver_is_semantically_exact(n_users in 1usize..12,
                                          n_items in 1usize..60,
                                          f in 1usize..10,
                                          k in 0usize..9,
                                          seed in 0u64..400) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        };
        let users = Matrix::from_fn(n_users, f, |_, _| next());
        let items = Matrix::from_fn(n_items, f, |_, _| next());
        let model = Arc::new(MfModel::new("prop", users, items).unwrap());
        for factory in all_backends() {
            let solver = factory.build(&model).unwrap();
            let results = solver.query_all(k);
            if let Err(msg) = check_all_topk(&model, k, &results, 1e-9) {
                prop_assert!(false, "{} failed: {}", solver.name(), msg);
            }
        }
    }

    #[test]
    fn every_solver_is_exact_under_ties(n_items in 2usize..40,
                                        f in 1usize..5,
                                        k in 1usize..8,
                                        seed in 0u64..200) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 60) % 3) as f64 - 1.0
        };
        let users = Matrix::from_fn(4, f, |_, _| next());
        let items = Matrix::from_fn(n_items, f, |_, _| next());
        let model = Arc::new(MfModel::new("ties", users, items).unwrap());
        // With quantized data, exact item-level agreement must hold because
        // every solver breaks ties toward the smaller id.
        let reference = BmmFactory.build(&model).unwrap().query_all(k);
        for factory in all_backends() {
            let solver = factory.build(&model).unwrap();
            let results = solver.query_all(k);
            for u in 0..4 {
                prop_assert_eq!(&results[u].items, &reference[u].items,
                                "{} disagrees for user {}", solver.name(), u);
            }
        }
    }
}
