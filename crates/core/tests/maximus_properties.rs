//! Properties specific to the MAXIMUS index that the core test kit's driver
//! (`exactness.rs`) does not reach: the §III-E dynamic-user path, which
//! serves vectors outside the clustered set.

mod common;

use common::{model, Corpus, Lcg};
use mips_core::maximus::{MaximusConfig, MaximusIndex};
use mips_topk::exact_topk;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §III-E: serving an arbitrary *new* vector through the dynamic-user
    /// path returns the oracle's answer, and the θ_b it bounds with stay
    /// within `[0, π]`.
    #[test]
    fn new_vector_queries_get_the_oracle_answer(n_items in 2usize..50,
                                                f in 1usize..6,
                                                k in 1usize..6,
                                                clusters in 1usize..4,
                                                seed in 0u64..300) {
        let model = model(Corpus::Random, 6, n_items, f, seed);
        let index = MaximusIndex::build(Arc::clone(&model), &MaximusConfig {
            num_clusters: clusters,
            block_size: 4,
            ..MaximusConfig::default()
        });
        for theta in index.cluster_thetas() {
            prop_assert!((0.0..=std::f64::consts::PI + 1e-6).contains(&theta));
        }
        let mut rng = Lcg::new(seed | 7);
        let novel: Vec<f64> = (0..f).map(|_| rng.next() * 6.0 - 3.0).collect();
        prop_assert_eq!(
            index.query_new_vector(&novel, k),
            exact_topk(&novel, model.items(), k)
        );
    }
}
