//! The exactness contract, refereed by the core test kit's driver: on every
//! corpus of the family, every backend in every numeric path returns the
//! oracle's ids and score bits on every route — the solver, named and
//! planned engine dispatch, the sharded server and the wire
//! ([`common::drive`]) — under whichever kernel set the process runs (CI
//! runs this suite under the dispatched and the forced-scalar kernels).
//! The property tests draw many shapes through the solver route; the
//! engine, server and wire routes run at one fixed seed per corpus.

mod common;

use common::{adversarial, drive, drive_one, k_edges, model, oracle, split, Corpus, Route};
use mips_core::engine::{LempFactory, MaximusFactory, SolverFactory};
use mips_core::maximus::MaximusConfig;
use mips_data::MfModel;
use mips_lemp::LempConfig;
use mips_linalg::kernels::norm2;
use mips_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

/// Drives one seeded model of `corpus` at its `k` edges on `routes`.
fn drive_corpus(
    corpus: Corpus,
    (users, items, f, seed): (usize, usize, usize, u64),
    routes: &[Route],
) -> Result<(), String> {
    drive(
        &model(corpus, users, items, f, seed),
        &k_edges(items),
        routes,
    )
}

/// Drives one drawn structure configuration on a seeded random model at
/// `k`: the structure parameters change how the work is split, never the
/// answer.
fn drive_structure(
    label: &str,
    factory: impl SolverFactory + 'static,
    (users, items, f, seed): (usize, usize, usize, u64),
    k: usize,
) -> Result<(), String> {
    let model = model(Corpus::Random, users, items, f, seed);
    let factory: Arc<dyn SolverFactory> = Arc::new(factory);
    drive_one(
        label,
        &factory,
        &model,
        &[k],
        &[oracle(&model, k)],
        &[Route::Solver],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_models_get_the_oracle_answer(users in 1usize..12,
                                           items in 1usize..60,
                                           f in 1usize..10,
                                           seed in 0u64..400) {
        let verdict = drive_corpus(Corpus::Random, (users, items, f, seed), &[Route::Solver]);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    #[test]
    fn tied_models_get_the_oracle_answer(users in 1usize..8,
                                         items in 2usize..40,
                                         f in 1usize..6,
                                         seed in 0u64..400) {
        let verdict = drive_corpus(Corpus::Tied, (users, items, f, seed), &[Route::Solver]);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    #[test]
    fn quantized_models_get_the_oracle_answer(users in 1usize..8,
                                              items in 2usize..40,
                                              f in 1usize..8,
                                              seed in 0u64..400) {
        let verdict = drive_corpus(Corpus::Eighths, (users, items, f, seed), &[Route::Solver]);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    #[test]
    fn skewed_norm_models_get_the_oracle_answer(users in 1usize..10,
                                                items in 8usize..80,
                                                f in 1usize..10,
                                                seed in 0u64..400) {
        let verdict = drive_corpus(Corpus::Skewed, (users, items, f, seed), &[Route::Solver]);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LEMP with any bucket size, down to one item per bucket, on catalogs
    /// that span many buckets.
    #[test]
    fn lemp_bucket_size_is_result_invariant(users in 1usize..8,
                                            items in 1usize..120,
                                            f in 1usize..12,
                                            k in 1usize..8,
                                            bucket_size in 1usize..40,
                                            seed in 0u64..500) {
        let lemp = LempFactory::new(LempConfig {
            bucket_size,
            tune_sample: 4,
            ..LempConfig::default()
        });
        let label = format!("lemp, buckets of {bucket_size}");
        let verdict = drive_structure(&label, lemp, (users, items, f, seed), k);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// MAXIMUS with any §III-D block size, from a one-item prefix to one
    /// that covers the whole list.
    #[test]
    fn maximus_block_size_is_result_invariant(users in 2usize..15,
                                              items in 2usize..60,
                                              f in 1usize..8,
                                              k in 1usize..8,
                                              block_size in 1usize..70,
                                              seed in 0u64..300) {
        let maximus = MaximusFactory::new(MaximusConfig {
            num_clusters: 3,
            block_size,
            ..MaximusConfig::default()
        });
        let label = format!("maximus, B = {block_size}");
        let verdict = drive_structure(&label, maximus, (users, items, f, seed), k);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Every route, on one seeded model of each corpus shape: the engine, the
/// sharded server and the wire add dispatch, threads, shards and framing,
/// never a different answer.
#[test]
fn every_route_gets_the_oracle_answer_on_every_corpus() {
    for corpus in Corpus::ALL {
        drive_corpus(corpus, (9, 40, 6, 17), &Route::ALL)
            .unwrap_or_else(|e| panic!("{corpus:?}: {e}"));
    }
}

/// Factor counts on both sides of the f64 depth block (`KC` = 256): the
/// packed GEMM splits the depth there, and every score must still be the
/// one chain the shortlist's rescore reproduces — a chain restarted per
/// depth block differs in the last bit on almost every element.
#[test]
fn wide_models_get_the_oracle_answer() {
    for f in [1, 50, 257, 600] {
        drive_corpus(Corpus::Random, (6, 40, f, f as u64), &[Route::Solver])
            .unwrap_or_else(|e| panic!("f = {f}: {e}"));
    }
}

/// The adversarial corpus, at ks from inside the near-tie block to the
/// whole catalog: every screen tier repeats its f64 build bit for bit and
/// every answer is the oracle's, ids and score bits. Every route at f = 8;
/// the wider rows through the solver route, where the factor count
/// matters.
#[test]
fn adversarial_corpora_get_the_oracle_answer() {
    for (f, routes) in [(8, &Route::ALL[..]), (50, &[Route::Solver][..])] {
        let model = adversarial(40, f);
        let ks = [0, 1, 3, 35, 90, 100, 200, 203];
        drive(&model, &ks, routes).unwrap_or_else(|e| panic!("f = {f}: {e}"));
    }
}

/// Models whose top two items `dot` and the chain order differently: a
/// scan that decided the k-th place in `dot`'s rounding would return the
/// other item at k = 1. Every backend, every route, several seeds.
#[test]
fn split_near_ties_get_the_oracle_answer() {
    for f in [8, 50] {
        for seed in [5, 6, 7] {
            let model = split(f, seed);
            drive(&model, &k_edges(8), &Route::ALL)
                .unwrap_or_else(|e| panic!("f = {f}, {}: {e}", model.name()));
        }
    }
}

/// A zero user against items whose computed norm overflows to `+∞` while
/// every score stays finite: `0·∞` makes the walks' envelope NaN, which
/// bounds nothing, so those items must be kept for the rescore, not lost.
#[test]
fn zero_users_against_overflowing_item_norms_get_the_oracle_answer() {
    let mut rng = common::Lcg::new(11);
    let mut next = move |scale: f64| (rng.next() * 2.0 - 1.0) * scale;
    let users = Matrix::from_fn(6, 4, |r, _| if r % 3 == 0 { 0.0 } else { next(1e-100) });
    let items = Matrix::from_fn(24, 4, |r, _| next(if r % 2 == 0 { 1e155 } else { 1.0 }));
    let model = Arc::new(MfModel::new("overflowing norms", users, items).unwrap());
    assert_eq!(norm2(model.items().row(0)), f64::INFINITY);
    assert!(!model.has_tiny_rows());
    drive(&model, &k_edges(24), &[Route::Solver]).unwrap_or_else(|e| panic!("{e}"));
}
