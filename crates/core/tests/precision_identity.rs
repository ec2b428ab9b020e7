//! Property: a forced screen tier ([`Precision::of_tier`] of every
//! [`ScreenTier`]) is an execution-strategy change, never a results change.
//! For every registered backend and every tier, forcing the screen + exact
//! f64 rescore path must reproduce the pure-f64 engine's ids **and score
//! bits** exactly — across named dispatch, planned dispatch, `Auto`
//! competition, per-shard serving, model swaps, and adversarial corpora
//! built to stress both envelopes at once (near-ties far below f32 and int8
//! resolution, exact duplicates, magnitudes that push f32 products toward
//! overflow and underflow and the per-row int8 scales to their extremes,
//! and near-cancelling dots where the envelope dwarfs the score).
//!
//! The int8 screen is *kernel-invariant* — integer dots are exact in i32,
//! so the screen scores and candidate sets are identical across AVX2,
//! NEON, and scalar (pinned at the `mips-topk` layer); running this suite
//! under `MIPS_KERNEL=scalar` in CI therefore checks the same contract
//! over the portable kernels.

use mips_core::engine::{BackendRegistry, Engine, EngineBuilder, QueryRequest, QueryResponse};
use mips_core::precision::Precision;
use mips_core::serve::{ServerBuilder, TierLaneMetrics};
use mips_data::MfModel;
use mips_linalg::Matrix;
use mips_topk::ScreenTier;
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

/// Collapses a response to `(items, score bits)` rows — `f64` equality
/// would accept `-0.0 == 0.0` and reject `NaN == NaN`; bit equality is the
/// contract the mixed-precision path promises.
fn bits(response: &QueryResponse) -> Vec<(Vec<u32>, Vec<u64>)> {
    response
        .results
        .iter()
        .map(|list| {
            (
                list.items.clone(),
                list.scores.iter().map(|s| s.to_bits()).collect(),
            )
        })
        .collect()
}

/// The registry key of the backend that served `response`: its display
/// name with any tier suffix stripped ("LEMP+f32" / "LEMP+i8" → "LEMP"),
/// looked up among `engine`'s plain builds.
fn served_key<'e>(engine: &'e Engine, response: &QueryResponse) -> &'e str {
    let suffixed = ScreenTier::ALL
        .iter()
        .find_map(|tier| response.backend.strip_suffix(tier.suffix()));
    let base_name = suffixed.unwrap_or(&response.backend);
    engine
        .backend_keys()
        .into_iter()
        .find(|key| engine.solver(key).is_ok_and(|s| s.name() == base_name))
        .expect("the winner maps to a registered backend")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Named dispatch: for every backend key and tier, the forced engine's
    /// answer is bit-identical to the f64 engine's, at every k, while the
    /// screen-capable backends actually report the mixed-precision path.
    #[test]
    fn forced_rescore_is_bit_identical_per_backend(
        n_users in 2usize..14,
        n_items in 2usize..50,
        f in 1usize..9,
        seed in 0u64..300,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let f64_engine = engine_at(&model, Precision::F64);
        for tier in ScreenTier::ALL {
            let tier_engine = engine_at(&model, forced(tier));
            for key in f64_engine.backend_keys() {
                for k in [1, (n_items / 2).max(1), n_items] {
                    let request = QueryRequest::top_k(k);
                    let want = f64_engine.execute_with(key, &request).unwrap();
                    let got = tier_engine.execute_with(key, &request).unwrap();
                    prop_assert_eq!(
                        bits(&got), bits(&want),
                        "{} diverged at k={} under {:?}", key, k, tier
                    );
                    prop_assert_eq!(want.precision, Precision::F64);
                    let screened = matches!(key, "bmm" | "lemp" | "maximus");
                    prop_assert_eq!(
                        got.precision,
                        if screened { forced(tier) } else { Precision::F64 },
                        "{} must report its numeric path", key
                    );
                }
            }
        }
    }

    /// Planned dispatch under `Auto`: whichever candidate OPTIMUS picks —
    /// f64-direct or a screen variant of any tier — the served bits match
    /// the **same backend's** pure-f64 path. (Different backends
    /// legitimately accumulate dots in different orders and may disagree in
    /// the last ulp, so the contract is per-backend, not cross-backend:
    /// `Auto` must never let the numeric *mode* change the bits the chosen
    /// backend would have served.)
    #[test]
    fn auto_planning_is_bit_identical_whatever_wins(
        n_users in 2usize..12,
        n_items in 2usize..40,
        f in 1usize..7,
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let request = QueryRequest::top_k(k.min(n_items));
        let f64_engine = engine_at(&model, Precision::F64);
        let got = engine_at(&model, Precision::Auto).execute(&request).unwrap();
        let key = served_key(&f64_engine, &got);
        let want = f64_engine.execute_with(key, &request).unwrap();
        prop_assert_eq!(
            bits(&got), bits(&want),
            "auto winner {} diverged from its own f64 path", &got.backend
        );
    }

    /// Sharded serving: every shard screens through the one variant of the
    /// forced tier; reassembled responses still match the f64 engine bit
    /// for bit, for every backend registered alone.
    #[test]
    fn sharded_rescore_matches_the_global_f64_engine(
        n_users in 4usize..20,
        n_items in 4usize..40,
        f in 1usize..6,
        shards in 1usize..4,
        seed in 0u64..200,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let k = (n_items / 2).max(1);
        for factory in BackendRegistry::with_defaults().factories() {
            let alone = |precision: Precision| {
                Arc::new(
                    EngineBuilder::new()
                        .model(Arc::clone(&model))
                        .register_arc(Arc::clone(factory))
                        .precision(precision)
                        .build()
                        .unwrap(),
                )
            };
            let want = alone(Precision::F64).execute(&QueryRequest::top_k(k)).unwrap();
            for tier in ScreenTier::ALL {
                let server = ServerBuilder::new()
                    .engine(alone(forced(tier)))
                    .shards(shards)
                    .workers(1)
                    .build()
                    .unwrap();
                let served = server.execute(&QueryRequest::top_k(k)).unwrap();
                prop_assert_eq!(
                    bits(&served), bits(&want),
                    "{} diverged across {} shards under {:?}", factory.key(), shards, tier
                );
                server.shutdown().unwrap();
            }
        }
    }
}

/// Named dispatch under a forced tier serves the screen variants by name;
/// the screenless backends still answer, f64-direct.
#[test]
fn named_dispatch_under_a_forced_tier_uses_the_screen_variant() {
    let model = random_model(30, 90, 8, 42);
    let request = QueryRequest::top_k(3);
    for tier in ScreenTier::ALL {
        let engine = engine_at(&model, forced(tier));
        for (key, name) in [
            ("bmm", "Blocked MM"),
            ("lemp", "LEMP"),
            ("maximus", "Maximus"),
        ] {
            let response = engine.execute_with(key, &request).unwrap();
            assert_eq!(response.backend, format!("{name}{}", tier.suffix()));
            assert_eq!(response.precision, forced(tier), "{key}");
        }
        let fex = engine.execute_with("fexipro-si", &request).unwrap();
        assert_eq!(fex.precision, Precision::F64);
    }
}

/// Model swaps rebuild the screen mirrors for the new epoch: after each
/// swap, the forced engine must match a fresh f64 engine built directly on
/// that epoch's model — pinned to the **same backend** the forced engine's
/// planner picked (two independently planned engines may legitimately
/// crown different winners, and different backends may disagree in the
/// last ulp; the swap contract is that rebuilding the mirrors never
/// changes the chosen backend's bits).
#[test]
fn forced_rescore_survives_model_swaps_bit_identically() {
    let generations = [
        random_model(30, 200, 8, 1),
        random_model(45, 150, 8, 2),
        random_model(20, 260, 8, 3),
    ];
    for tier in ScreenTier::ALL {
        let engine = engine_at(&generations[0], forced(tier));
        for (epoch, model) in generations.iter().enumerate() {
            if epoch > 0 {
                engine.swap_model(Arc::clone(model)).unwrap();
            }
            let want = engine_at(model, Precision::F64);
            for k in [1, 7, 40] {
                let request = QueryRequest::top_k(k);
                let got = engine.execute(&request).unwrap();
                let key = served_key(&want, &got);
                assert_eq!(
                    bits(&got),
                    bits(&want.execute_with(key, &request).unwrap()),
                    "{tier:?}: epoch {epoch} diverged at k={k} on {}",
                    &got.backend
                );
            }
        }
    }
}

/// Models wider than the f64 depth block (`KC` = 256): the packed GEMM
/// splits the depth there, and every score must still be the one
/// sequential FMA chain the screens' rescore (and MAXIMUS's
/// canonicalization) reproduce — a chain restarted per depth block differs
/// in the last bit on almost every element. Every screen tier of every
/// backend must match f64-direct, and BMM's scores must be that chain.
#[test]
fn models_wider_than_the_depth_block_stay_bit_identical() {
    let model = random_model(9, 70, 300, 77);
    let f64_engine = engine_at(&model, Precision::F64);
    let request = QueryRequest::top_k(5);
    for tier in ScreenTier::ALL {
        let screened = engine_at(&model, forced(tier));
        // The screen-capable backends (FEXIPRO's 300 × 300 SVD would
        // dominate a debug run and has no screen to check).
        for key in ["bmm", "maximus", "lemp"] {
            let want = f64_engine.execute_with(key, &request).unwrap();
            let got = screened.execute_with(key, &request).unwrap();
            assert_eq!(bits(&got), bits(&want), "{key} under {tier:?}");
        }
    }
    let direct = f64_engine.execute_with("bmm", &request).unwrap();
    for (u, list) in direct.results.iter().enumerate() {
        for (&item, &score) in list.items.iter().zip(&list.scores) {
            let chain = mips_linalg::kernels::dot_gemm_ordered(
                model.users().row(u),
                model.items().row(item as usize),
            );
            assert_eq!(score.to_bits(), chain.to_bits(), "user {u} item {item}");
        }
    }
}

/// Builds a corpus designed to break an unsound screen in either tier,
/// with `n` items per regime. The user rows mirror the regimes so every
/// (user, item) pairing crosses magnitudes.
fn adversarial_model(n: usize, f: usize) -> Arc<MfModel> {
    let mut state = 0xDEAD_BEEF_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    // A shared base direction, so regime 0/1 items are near-ties against
    // every user.
    let base: Vec<f64> = (0..f).map(|_| next()).collect();
    let items = Matrix::from_fn(5 * n, f, |r, c| {
        let (regime, jitter) = (r / n, next());
        match regime {
            // Near-ties: perturbations ~1e-13, below f32 resolution and
            // orders of magnitude below the ~1/254 int8 quantization step —
            // every pairwise score gap is invisible to the screen; only the
            // envelope keeps the true winners alive for the f64 rescore.
            0 => base[c] + jitter * 1e-13,
            // Exact duplicates of one vector: ties broken by item id, a
            // decision the screen must not perturb.
            1 => base[c],
            // Large magnitude: f32 products near 1e16 (the relative
            // envelope grows with the norms, abs error per entry ~1e1); the
            // per-row int8 scale shrinks to ~127/1e8, so each reconstructed
            // product carries an absolute error ~1e6 — the envelope must
            // absorb all of it.
            2 => jitter * 1e8,
            // Tiny magnitude: f32 products underflow to zero entirely (the
            // envelope's absolute term must cover the lost mass); the
            // per-row int8 scale grows to ~127/1e-30 — the scale inversions
            // and the envelope's 1/s terms must stay finite and
            // conservative.
            3 => jitter * 1e-30,
            // Near-cancellation: huge alternating entries whose dot nearly
            // cancels — ‖u‖·‖i‖ and ‖i‖₁ are enormous relative to the
            // score, so the screen learns nothing and must rescore
            // everything.
            _ => {
                if c % 2 == 0 {
                    1e6 + jitter
                } else {
                    -1e6 + jitter
                }
            }
        }
    });
    let users = Matrix::from_fn(8, f, |r, c| match r % 4 {
        0 => base[c] + next() * 1e-13,
        1 => next() * 1e8,
        2 => next() * 1e-30,
        _ => next(),
    });
    Arc::new(MfModel::new("adversarial", users, items).unwrap())
}

/// The adversarial corpus, end to end: every backend, every forced tier, at
/// ks spanning "deep in the near-tie block" to "the whole corpus".
#[test]
fn adversarial_corpora_cannot_shake_bit_identity() {
    let model = adversarial_model(40, 8);
    let f64_engine = engine_at(&model, Precision::F64);
    for tier in ScreenTier::ALL {
        let tier_engine = engine_at(&model, forced(tier));
        for key in f64_engine.backend_keys() {
            for k in [1, 3, 35, 90, 200] {
                let request = QueryRequest::top_k(k);
                let want = f64_engine.execute_with(key, &request).unwrap();
                let got = tier_engine.execute_with(key, &request).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{key} diverged on the adversarial corpus at k={k} under {tier:?}"
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
    let model = random_model(40, 300, 8, 7);
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
    let f64_engine = engine_at(&model, Precision::F64);
    let i8_engine = engine_at(&model, Precision::I8Rescore);
    for key in f64_engine.backend_keys() {
        let request = QueryRequest::top_k(3);
        let want = f64_engine.execute_with(key, &request).unwrap();
        let got = i8_engine.execute_with(key, &request).unwrap();
        assert_eq!(bits(&got), bits(&want), "{key}");
        assert_eq!(
            got.precision,
            Precision::F64,
            "{key} must fall back to f64-direct on degenerate quantization"
        );
    }
}
