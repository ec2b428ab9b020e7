//! Properties specific to the MAXIMUS index that the core test kit's driver
//! (`exactness.rs`) does not reach: the §III-E dynamic-user path, which
//! serves vectors outside the clustered set — and LEMP's point query, the
//! other direct call that takes such a vector.

mod common;

use common::{model, Corpus, Lcg};
use mips_core::maximus::{MaximusConfig, MaximusIndex};
use mips_lemp::{LempConfig, LempIndex};
use mips_linalg::kernels::norm2;
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

/// A model row × 1e-300 has a norm that underflows to 0 while its dots stay
/// normal, so a norm bound would prune real top-k items: both direct calls
/// score every item for it, and both return the oracle's answer.
#[test]
fn tiny_new_vectors_get_the_oracle_answer() {
    let model = model(Corpus::Skewed, 30, 200, 6, 5);
    let maximus = MaximusIndex::build(
        Arc::clone(&model),
        &MaximusConfig {
            num_clusters: 3,
            block_size: 4,
            ..MaximusConfig::default()
        },
    );
    let lemp = LempIndex::build(&model, &LempConfig::default());
    for u in 0..model.num_users() {
        let tiny: Vec<f64> = model.users().row(u).iter().map(|v| v * 1e-300).collect();
        assert_eq!(norm2(&tiny), 0.0, "the norm underflows");
        for k in [1, 10] {
            let want = exact_topk(&tiny, model.items(), k);
            assert_eq!(
                maximus.query_new_vector(&tiny, k),
                want,
                "maximus u={u} k={k}"
            );
            assert_eq!(
                lemp.query(&tiny, k, model.items()),
                want,
                "lemp u={u} k={k}"
            );
        }
    }
}

/// Over a model with tiny rows the stored bounds carry the tiny items'
/// underflowed norms, so the dynamic-user walk would prune items whose
/// tiny scores still reach the heap: a normal new vector is scored against
/// every item too.
#[test]
fn new_vectors_over_a_model_with_tiny_rows_get_the_oracle_answer() {
    let model = model(Corpus::Subnormal, 30, 60, 6, 0);
    assert!(model.has_tiny_rows());
    let index = MaximusIndex::build(
        Arc::clone(&model),
        &MaximusConfig {
            num_clusters: 1,
            block_size: 4,
            ..MaximusConfig::default()
        },
    );
    for u in 0..model.num_users() {
        let user = model.users().row(u);
        for k in [1, 20, 50] {
            assert_eq!(
                index.query_new_vector(user, k),
                exact_topk(user, model.items(), k),
                "u={u} k={k}"
            );
        }
    }
}
