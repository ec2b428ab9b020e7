//! Property: [`Precision::F32Rescore`] is an execution-strategy change,
//! never a results change. For every registered backend, forcing the f32
//! screen + exact f64 rescore path must reproduce the pure-f64 engine's
//! ids **and score bits** exactly — across named dispatch, planned
//! dispatch, `Auto` competition, per-shard serving, model swaps, and
//! adversarial corpora built to stress the screen envelope (near-ties
//! below f32 resolution, exact duplicates, magnitudes that push f32
//! products toward overflow and underflow, and near-cancelling dots where
//! the relative envelope is enormous compared to the score).

use mips_core::engine::{BackendRegistry, Engine, EngineBuilder, QueryRequest, QueryResponse};
use mips_core::precision::Precision;
use mips_core::serve::ServerBuilder;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Named dispatch: for every backend key, the forced-f32 engine's
    /// answer is bit-identical to the f64 engine's, at every k, while the
    /// screen-capable backends actually report the mixed-precision path.
    #[test]
    fn forced_f32_rescore_is_bit_identical_per_backend(
        n_users in 2usize..14,
        n_items in 2usize..50,
        f in 1usize..9,
        seed in 0u64..300,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let f64_engine = engine_at(&model, Precision::F64);
        let f32_engine = engine_at(&model, Precision::F32Rescore);
        for key in f64_engine.backend_keys() {
            for k in [1, (n_items / 2).max(1), n_items] {
                let request = QueryRequest::top_k(k);
                let want = f64_engine.execute_with(key, &request).unwrap();
                let got = f32_engine.execute_with(key, &request).unwrap();
                prop_assert_eq!(
                    bits(&got), bits(&want),
                    "{} diverged at k={}", key, k
                );
                prop_assert_eq!(want.precision, Precision::F64);
                let screened = matches!(key, "bmm" | "lemp" | "maximus");
                prop_assert_eq!(
                    got.precision,
                    if screened { Precision::F32Rescore } else { Precision::F64 },
                    "{} must report its numeric path", key
                );
            }
        }
    }

    /// Planned dispatch under `Auto`: whichever candidate OPTIMUS picks —
    /// f64-direct or a `+f32` screen variant — the served bits match the
    /// **same backend's** pure-f64 path. (Different backends legitimately
    /// accumulate dots in different orders and may disagree in the last
    /// ulp, so the contract is per-backend, not cross-backend: `Auto` must
    /// never let the numeric *mode* change the bits the chosen backend
    /// would have served.)
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
        // Map the winner's display name ("LEMP+f32" / "LEMP+i8" → "LEMP")
        // back to its registry key to pin the f64 reference to the same
        // backend.
        let base_name = got
            .backend
            .strip_suffix("+f32")
            .or_else(|| got.backend.strip_suffix("+i8"))
            .unwrap_or(&got.backend);
        let key = f64_engine
            .backend_keys()
            .into_iter()
            .find(|key| f64_engine.solver(key).is_ok_and(|s| s.name() == base_name))
            .expect("auto winner maps to a registered backend");
        let want = f64_engine.execute_with(key, &request).unwrap();
        prop_assert_eq!(
            bits(&got), bits(&want),
            "auto winner {} diverged from its own f64 path", &got.backend
        );
    }

    /// Sharded serving: every shard screens through the one f32 variant;
    /// reassembled responses still match the f64 engine bit for bit, for
    /// every backend registered alone.
    #[test]
    fn sharded_f32_rescore_matches_the_global_f64_engine(
        n_users in 4usize..20,
        n_items in 4usize..40,
        f in 1usize..6,
        shards in 1usize..4,
        seed in 0u64..200,
    ) {
        let model = random_model(n_users, n_items, f, seed);
        let k = (n_items / 2).max(1);
        for factory in BackendRegistry::with_defaults().factories() {
            let want = Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&model))
                    .register_arc(Arc::clone(factory))
                    .build()
                    .unwrap(),
            )
            .execute(&QueryRequest::top_k(k))
            .unwrap();
            let f32_engine = Arc::new(
                EngineBuilder::new()
                    .model(Arc::clone(&model))
                    .register_arc(Arc::clone(factory))
                    .precision(Precision::F32Rescore)
                    .build()
                    .unwrap(),
            );
            let server = ServerBuilder::new()
                .engine(f32_engine)
                .shards(shards)
                .workers(1)
                .build()
                .unwrap();
            let served = server.execute(&QueryRequest::top_k(k)).unwrap();
            prop_assert_eq!(
                bits(&served), bits(&want),
                "{} diverged across {} shards", factory.key(), shards
            );
            server.shutdown().unwrap();
        }
    }
}

/// Model swaps rebuild the screen mirrors for the new epoch: after each
/// swap, the forced-f32 engine must match a fresh f64 engine built
/// directly on that epoch's model — pinned to the **same backend** the
/// f32 engine's planner picked (two independently planned engines may
/// legitimately crown different winners, and different backends may
/// disagree in the last ulp; the swap contract is that rebuilding the
/// mirrors never changes the chosen backend's bits).
#[test]
fn f32_rescore_survives_model_swaps_bit_identically() {
    let generations = [
        random_model(30, 200, 8, 1),
        random_model(45, 150, 8, 2),
        random_model(20, 260, 8, 3),
    ];
    let engine = engine_at(&generations[0], Precision::F32Rescore);
    for (epoch, model) in generations.iter().enumerate() {
        if epoch > 0 {
            engine.swap_model(Arc::clone(model)).unwrap();
        }
        let want = engine_at(model, Precision::F64);
        for k in [1, 7, 40] {
            let request = QueryRequest::top_k(k);
            let got = engine.execute(&request).unwrap();
            let base_name = got.backend.strip_suffix("+f32").unwrap_or(&got.backend);
            let key = want
                .backend_keys()
                .into_iter()
                .find(|key| want.solver(key).is_ok_and(|s| s.name() == base_name))
                .expect("screen winner maps to a registered backend");
            assert_eq!(
                bits(&got),
                bits(&want.execute_with(key, &request).unwrap()),
                "epoch {epoch} diverged at k={k} on {}",
                &got.backend
            );
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
    for precision in [Precision::F32Rescore, Precision::I8Rescore] {
        let screened = engine_at(&model, precision);
        // The screen-capable backends (FEXIPRO's 300 × 300 SVD would
        // dominate a debug run and has no screen to check).
        for key in ["bmm", "maximus", "lemp"] {
            let want = f64_engine.execute_with(key, &request).unwrap();
            let got = screened.execute_with(key, &request).unwrap();
            assert_eq!(bits(&got), bits(&want), "{key} under {precision:?}");
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

/// Builds a corpus designed to break an unsound screen, with `n` items per
/// regime. The user rows mirror the regimes so every (user, item) pairing
/// crosses magnitudes.
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
            // Near-ties: perturbations ~1e-13 below f32 resolution — every
            // pairwise score gap is invisible to the screen; only the
            // envelope keeps the true winners alive for the f64 rescore.
            0 => base[c] + jitter * 1e-13,
            // Exact duplicates of one vector: ties broken by item id, a
            // decision the screen must not perturb.
            1 => base[c],
            // Large magnitude: f32 products near 1e16 — rel envelope grows
            // with the norms, abs error per entry ~1e1.
            2 => jitter * 1e8,
            // Tiny magnitude: f32 products underflow to zero entirely; the
            // envelope's absolute term must cover the lost mass.
            3 => jitter * 1e-30,
            // Near-cancellation: huge alternating entries whose dot nearly
            // cancels — ‖u‖·‖i‖ is enormous relative to the score, so the
            // screen learns nothing and must rescore everything.
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

/// The adversarial corpus, end to end: every backend, forced f32, at ks
/// spanning "deep in the near-tie block" to "the whole corpus".
#[test]
fn adversarial_corpora_cannot_shake_bit_identity() {
    let model = adversarial_model(40, 8);
    let f64_engine = engine_at(&model, Precision::F64);
    let f32_engine = engine_at(&model, Precision::F32Rescore);
    for key in f64_engine.backend_keys() {
        for k in [1, 3, 35, 90, 200] {
            let request = QueryRequest::top_k(k);
            let want = f64_engine.execute_with(key, &request).unwrap();
            let got = f32_engine.execute_with(key, &request).unwrap();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{key} diverged on the adversarial corpus at k={k}"
            );
        }
    }
}
