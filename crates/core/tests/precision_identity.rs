//! Property: a forced screen tier ([`Precision::of_tier`] of every
//! [`ScreenTier`]) is an execution-strategy change, never a results change.
//! Every backend's answers — solver, named and planned dispatch, the
//! serving runtime and the wire, under every precision — are refereed against the
//! oracle by the core test kit's driver (`exactness.rs`), on every corpus
//! including the degenerate-quantization one. This suite holds what the
//! driver does not check: which variant named dispatch reports, model
//! swaps, and the serve metrics' per-tier lanes.
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
use mips_topk::ScreenTier;
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

/// Named dispatch under a forced tier serves a backend's variant in that
/// tier by name and reports the tier; a backend without one still answers,
/// f64-direct. (The driver holds the answers to the oracle's.)
#[test]
fn named_dispatch_under_a_forced_tier_uses_the_screen_variant() {
    let model = model(Corpus::Random, 30, 90, 8, 42);
    let request = QueryRequest::top_k(3);
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

/// Serving under a forced tier surfaces the screen's work in the server's
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
            .workers(1)
            .build()
            .unwrap();
        for k in [1, 5, 20] {
            server.execute(&QueryRequest::top_k(k)).unwrap();
        }
        let metrics = server.metrics();
        server.shutdown().unwrap();
        assert!(metrics.completed > 0);
        let active = metrics.lanes[active_tier.index()];
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
                    metrics.lanes[idle_tier.index()],
                    TierLaneMetrics::default(),
                    "{precision:?}: wrong-mode batches or screen counts"
                );
            }
        }
        // `/metrics` carries the same lanes as the snapshot.
        let lane = format!(
            "\"screen_candidates_{}\":{}",
            active_tier.name(),
            active.candidates
        );
        assert!(metrics.to_json().contains(&lane), "{lane}");
    }
}
