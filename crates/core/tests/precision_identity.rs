//! Property: a forced screen tier ([`Precision::of_tier`] of every
//! [`ScreenTier`]) is an execution-strategy change, never a results change.
//! Each backend's solvers — f64 and every tier — are refereed against the
//! oracle by the core test kit's driver (`exactness.rs`); this suite holds
//! the routes the driver does not take: named and planned dispatch through
//! the engine, `Auto` competition, per-shard serving, model swaps, the
//! serve metrics' per-tier lanes, and the degenerate-quantization
//! fallback. Every answer is compared with the oracle's ids and score bits,
//! so which backend the planner crowns does not matter.
//!
//! The int8 screen is *kernel-invariant* — integer dots are exact in i32,
//! so the screen scores and candidate sets are identical across AVX2,
//! NEON, and scalar (pinned at the `mips-topk` layer); running this suite
//! under `MIPS_KERNEL=scalar` in CI therefore checks the same contract
//! over the portable kernels.

mod common;

use common::{bits, model, oracle, Corpus};
use mips_core::engine::{BackendRegistry, Engine, EngineBuilder, QueryRequest};
use mips_core::precision::Precision;
use mips_core::serve::{ServerBuilder, TierLaneMetrics};
use mips_data::MfModel;
use mips_linalg::Matrix;
use mips_topk::ScreenTier;
use proptest::prelude::*;
use std::sync::Arc;

fn engine_at(model: &Arc<MfModel>, precision: Precision) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(model))
            .with_default_backends()
            .precision(precision)
            .build()
            .unwrap(),
    )
}

/// The mode that forces `tier` on every backend that has it.
fn forced(tier: ScreenTier) -> Precision {
    Precision::of_tier(Some(tier))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Planned dispatch under `Auto`: whichever candidate OPTIMUS picks —
    /// any backend, f64-direct or a screen variant of any tier — the served
    /// bits are the oracle's.
    #[test]
    fn auto_planning_serves_the_oracle_answer_whatever_wins(
        n_users in 2usize..12,
        n_items in 2usize..40,
        f in 1usize..7,
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        let model = model(Corpus::Random, n_users, n_items, f, seed);
        let k = k.min(n_items);
        let got = engine_at(&model, Precision::Auto).execute(&QueryRequest::top_k(k)).unwrap();
        prop_assert_eq!(
            bits(&got.results), bits(&oracle(&model, k)),
            "auto winner {} diverged from the oracle", &got.backend
        );
    }

    /// Sharded serving: every shard screens through the one variant of the
    /// forced tier; reassembled responses are still the oracle's, for every
    /// backend registered alone.
    #[test]
    fn sharded_rescore_serves_the_oracle_answer(
        n_users in 4usize..20,
        n_items in 4usize..40,
        f in 1usize..6,
        shards in 1usize..4,
        seed in 0u64..200,
    ) {
        let model = model(Corpus::Random, n_users, n_items, f, seed);
        let k = (n_items / 2).max(1);
        let want = bits(&oracle(&model, k));
        for factory in BackendRegistry::with_defaults().factories() {
            for tier in ScreenTier::ALL {
                let engine = EngineBuilder::new()
                    .model(Arc::clone(&model))
                    .register_arc(Arc::clone(factory))
                    .precision(forced(tier))
                    .build()
                    .unwrap();
                let server = ServerBuilder::new()
                    .engine(Arc::new(engine))
                    .shards(shards)
                    .workers(1)
                    .build()
                    .unwrap();
                let served = server.execute(&QueryRequest::top_k(k)).unwrap();
                prop_assert_eq!(
                    bits(&served.results), want.clone(),
                    "{} diverged across {} shards under {:?}", factory.key(), shards, tier
                );
                server.shutdown().unwrap();
            }
        }
    }
}

/// Named dispatch under a forced tier serves a backend's variant in that
/// tier by name and reports the tier; a backend without one still answers,
/// f64-direct. Either way the answer is the oracle's.
#[test]
fn named_dispatch_under_a_forced_tier_uses_the_screen_variant() {
    let model = model(Corpus::Random, 30, 90, 8, 42);
    let request = QueryRequest::top_k(3);
    let want = bits(&oracle(&model, 3));
    // Per key: its display name and the tiers it has a variant in.
    let table: [(&str, &str, &[ScreenTier]); 6] = [
        ("bmm", "Blocked MM", &ScreenTier::ALL),
        ("maximus", "Maximus", &[ScreenTier::I8]),
        ("lemp", "LEMP", &[]),
        ("fexipro-si", "FEXIPRO-SI", &[]),
        ("fexipro-sir", "FEXIPRO-SIR", &[]),
        ("sparse", "Sparse-II", &[]),
    ];
    for tier in ScreenTier::ALL {
        let engine = engine_at(&model, forced(tier));
        for (key, name, tiers) in table {
            let response = engine.execute_with(key, &request).unwrap();
            let (name, precision) = if tiers.contains(&tier) {
                (format!("{name}{}", tier.suffix()), forced(tier))
            } else {
                (name.to_string(), Precision::F64)
            };
            assert_eq!(response.backend, name, "{key} under {tier:?}");
            assert_eq!(response.precision, precision, "{key} under {tier:?}");
            assert_eq!(bits(&response.results), want, "{key} under {tier:?}");
        }
    }
}

/// Model swaps rebuild the screen mirrors for the new epoch: after each
/// swap, whatever the forced engine's planner picks serves that epoch's
/// oracle answer.
#[test]
fn forced_rescore_survives_model_swaps_bit_identically() {
    let generations = [
        model(Corpus::Random, 30, 200, 8, 1),
        model(Corpus::Random, 45, 150, 8, 2),
        model(Corpus::Random, 20, 260, 8, 3),
    ];
    for tier in ScreenTier::ALL {
        let engine = engine_at(&generations[0], forced(tier));
        for (epoch, model) in generations.iter().enumerate() {
            if epoch > 0 {
                engine.swap_model(Arc::clone(model)).unwrap();
            }
            for k in [1, 7, 40] {
                let got = engine.execute(&QueryRequest::top_k(k)).unwrap();
                assert_eq!(
                    bits(&got.results),
                    bits(&oracle(model, k)),
                    "{tier:?}: epoch {epoch} diverged at k={k} on {}",
                    &got.backend
                );
            }
        }
    }
}

/// Serving under a forced tier surfaces the screen's work in the shard
/// counters: batches, candidates and survivors accumulate in that tier's
/// lane and every other lane stays untouched. This is the
/// per-precision-mode screen observability `/metrics` exposes.
#[test]
fn serve_metrics_report_screen_candidates_and_survivors_per_mode() {
    let model = model(Corpus::Random, 40, 300, 8, 7);
    let registry = BackendRegistry::with_defaults();
    let bmm = registry
        .factories()
        .iter()
        .find(|f| f.key() == "bmm")
        .expect("bmm is a default backend");
    for active_tier in ScreenTier::ALL {
        let precision = forced(active_tier);
        let engine = Arc::new(
            EngineBuilder::new()
                .model(Arc::clone(&model))
                .register_arc(Arc::clone(bmm))
                .precision(precision)
                .build()
                .unwrap(),
        );
        let server = ServerBuilder::new()
            .engine(engine)
            .shards(2)
            .workers(1)
            .build()
            .unwrap();
        for k in [1, 5, 20] {
            server.execute(&QueryRequest::top_k(k)).unwrap();
        }
        let metrics = server.metrics();
        server.shutdown().unwrap();
        assert!(metrics.completed > 0);
        let active = metrics.lanes()[active_tier.index()];
        assert!(active.batches > 0, "{precision:?}: no screened batches");
        // BMM screens every (user, item) score of every batch.
        assert!(
            active.candidates > 0,
            "{precision:?}: screen evaluated nothing"
        );
        assert!(
            active.survivors <= active.candidates,
            "{precision:?}: survivors exceed candidates"
        );
        for idle_tier in ScreenTier::ALL {
            if idle_tier != active_tier {
                assert_eq!(
                    metrics.lanes()[idle_tier.index()],
                    TierLaneMetrics::default(),
                    "{precision:?}: wrong-mode batches or screen counts"
                );
            }
        }
        // Per-shard counters carry the same lanes as the rollup.
        let per_shard = metrics.shards.iter();
        assert_eq!(
            per_shard
                .map(|s| s.lanes[active_tier.index()].candidates)
                .sum::<u64>(),
            active.candidates
        );
    }
}

/// A model whose factors quantize degenerately (subnormal rows) must
/// silently serve f64-direct under forced i8 — exactness before speed.
/// (The one tier-specific case: f32 represents these rows fine.)
#[test]
fn degenerate_quantization_serves_f64_direct() {
    let users = Matrix::from_fn(6, 4, |r, c| ((r + c) as f64 + 1.0) * 1.0e-320);
    let items = Matrix::from_fn(12, 4, |r, c| ((r * c) as f64 + 1.0) * 1.0e-320);
    let model = Arc::new(MfModel::new("subnormal", users, items).unwrap());
    let i8_engine = engine_at(&model, Precision::I8Rescore);
    let want = bits(&oracle(&model, 3));
    for key in i8_engine.backend_keys() {
        let got = i8_engine
            .execute_with(key, &QueryRequest::top_k(3))
            .unwrap();
        assert_eq!(bits(&got.results), want, "{key}");
        assert_eq!(
            got.precision,
            Precision::F64,
            "{key} must fall back to f64-direct on degenerate quantization"
        );
    }
}
