//! The engine's error contract: malformed requests return typed
//! [`MipsError`] values — they never panic — for every built-in backend
//! served by name, on the deterministic edge cases and under randomized
//! fuzzing.

use mips_core::engine::{
    EngineBuilder, ExclusionSet, MipsError, QueryRequest, UserSelection, VectorQueryRequest,
    BUILTIN_KEYS,
};
use mips_core::maximus::MaximusConfig;
use mips_data::sparse::SparseVec;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::{MfModel, ModelError};
use mips_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

const NUM_USERS: usize = 14;
const NUM_ITEMS: usize = 22;

/// One engine shared across cases (solvers build once, not per fuzz case).
fn shared_engine() -> &'static mips_core::engine::Engine {
    static ENGINE: std::sync::OnceLock<mips_core::engine::Engine> = std::sync::OnceLock::new();
    ENGINE.get_or_init(engine)
}

fn engine() -> mips_core::engine::Engine {
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: NUM_USERS,
        num_items: NUM_ITEMS,
        num_factors: 6,
        ..SynthConfig::default()
    }));
    // Two raced backends, the MAXIMUS with small blocks; every other
    // built-in key serves by name.
    EngineBuilder::new()
        .model(model)
        .register(mips_core::engine::BmmFactory)
        .register(mips_core::engine::MaximusFactory::new(MaximusConfig {
            num_clusters: 3,
            block_size: 8,
            ..MaximusConfig::default()
        }))
        .build()
        .expect("engine assembles")
}

#[test]
fn k_zero_is_a_typed_error_for_every_backend() {
    let engine = engine();
    for key in BUILTIN_KEYS {
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(0))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: NUM_ITEMS
            },
            "backend {key}"
        );
    }
    assert_eq!(
        engine.execute(&QueryRequest::top_k(0)).unwrap_err(),
        MipsError::InvalidK {
            k: 0,
            num_items: NUM_ITEMS
        }
    );
}

#[test]
fn k_above_catalog_is_a_typed_error_for_every_backend() {
    let engine = engine();
    for key in BUILTIN_KEYS {
        for k in [NUM_ITEMS + 1, NUM_ITEMS * 10, usize::MAX] {
            assert_eq!(
                engine
                    .execute_with(key, &QueryRequest::top_k(k))
                    .unwrap_err(),
                MipsError::InvalidK {
                    k,
                    num_items: NUM_ITEMS
                },
                "backend {key}, k {k}"
            );
        }
    }
}

#[test]
fn out_of_range_users_are_typed_errors_for_every_backend() {
    let engine = engine();
    for key in BUILTIN_KEYS {
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users(vec![0, NUM_USERS]))
                .unwrap_err(),
            MipsError::UserOutOfRange {
                user: NUM_USERS,
                num_users: NUM_USERS
            },
            "backend {key}"
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users_range(0..NUM_USERS + 3))
                .unwrap_err(),
            MipsError::UserOutOfRange {
                user: NUM_USERS,
                num_users: NUM_USERS
            },
            "backend {key}"
        );
    }
}

#[test]
fn empty_user_selections_are_typed_errors_for_every_backend() {
    let engine = engine();
    for key in BUILTIN_KEYS {
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users(Vec::new()))
                .unwrap_err(),
            MipsError::EmptyUserList,
            "backend {key}"
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users_range(5..5))
                .unwrap_err(),
            MipsError::EmptyUserList,
            "backend {key}"
        );
    }
}

#[test]
fn out_of_range_exclusions_are_typed_errors() {
    let engine = engine();
    let excl = ExclusionSet::from_pairs([(0usize, NUM_ITEMS as u32)]);
    for key in BUILTIN_KEYS {
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).exclude(excl.clone()))
                .unwrap_err(),
            MipsError::ItemOutOfRange {
                item: NUM_ITEMS as u32,
                num_items: NUM_ITEMS
            },
            "backend {key}"
        );
    }
}

/// Finite factors whose inner products overflow: `u·i₀` is
/// `1e400 − 1e400`, which f64 evaluates as `+∞ + −∞ = NaN` — the score that
/// used to panic the heap inside `Engine::execute`. No such model can be
/// built, so none reaches an engine.
#[test]
fn models_whose_inner_products_overflow_are_typed_errors() {
    let users = Matrix::from_vec(1, 2, vec![1e200, 1e200]).unwrap();
    let items = Matrix::from_vec(3, 2, vec![1e200, -1e200, 1.0, 2.0, -3.0, 0.5]).unwrap();
    assert_eq!(
        MfModel::new("huge", users, items).unwrap_err(),
        ModelError::ScoreOverflow
    );
}

#[test]
fn vectors_whose_inner_products_overflow_are_typed_errors() {
    let engine = shared_engine();
    let sparse = SparseVec::new(6, vec![0, 3], vec![1.7e308, -1.7e308]).unwrap();
    for request in [
        VectorQueryRequest::dense(3, vec![1.7e308; 6]),
        VectorQueryRequest::sparse(3, sparse),
    ] {
        match engine.execute_vector(&request) {
            Err(MipsError::InvalidVector(message)) => {
                assert!(message.contains("overflows"), "{message}")
            }
            other => panic!("{request:?}: {other:?}"),
        }
    }
    // Large is fine as long as the scores fit.
    let big = VectorQueryRequest::dense(3, vec![1e150; 6]);
    assert_eq!(engine.execute_vector(&big).unwrap().results[0].len(), 3);
}

/// Assembles a request from fuzzed raw parts. Selection modes:
/// 0 = all, 1 = range, 2 = ids.
fn assemble(
    k: usize,
    mode: u8,
    start: usize,
    end: usize,
    ids: Vec<usize>,
    exclusions: Vec<(usize, u32)>,
) -> QueryRequest {
    let mut request = QueryRequest::top_k(k);
    request.users = match mode {
        0 => UserSelection::All,
        1 => UserSelection::Range(start..end),
        _ => UserSelection::Ids(ids),
    };
    if !exclusions.is_empty() {
        request = request.exclude(ExclusionSet::from_pairs(exclusions));
    }
    request
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any request — valid or garbage — produces `Ok` or a typed `Err`,
    /// never a panic, on every built-in backend; and `Ok` appears exactly
    /// when validation accepts the request.
    #[test]
    fn random_requests_never_abort(
        k in 0usize..60,
        mode in 0u8..3,
        start in 0usize..30,
        end in 0usize..30,
        ids in proptest::collection::vec(0usize..40, 0..12),
        exclusions in proptest::collection::vec((0usize..20, 0u32..40), 0..10),
    ) {
        let engine = shared_engine();
        let request = assemble(k, mode, start, end, ids, exclusions);
        let valid = request.validate(&engine.model()).is_ok();
        for key in BUILTIN_KEYS {
            match engine.execute_with(key, &request) {
                Ok(response) => {
                    prop_assert!(valid, "{key} accepted an invalid request: {request:?}");
                    prop_assert_eq!(response.results.len(), request.result_len(&engine.model()));
                }
                Err(_) => prop_assert!(!valid, "{key} rejected a valid request: {request:?}"),
            }
        }
        // The planning path agrees with the direct path on acceptance.
        match engine.execute(&request) {
            Ok(_) => prop_assert!(valid),
            Err(_) => prop_assert!(!valid),
        }
    }

    /// Fuzzed *invalid* requests always return `Err` (the acceptance rule
    /// stated directly): k is out of domain, a user is out of range, or the
    /// selection is empty.
    #[test]
    fn random_invalid_requests_always_err(
        selector in 0u8..4,
        k in 1usize..20,
        bad_user in 14usize..80,
        ids in proptest::collection::vec(0usize..14, 1..6),
    ) {
        let engine = shared_engine();
        let request = match selector {
            0 => QueryRequest::top_k(0),
            1 => QueryRequest::top_k(23 + k),
            2 => {
                let mut with_bad = ids.clone();
                with_bad.push(bad_user);
                QueryRequest::top_k(k.min(22)).users(with_bad)
            }
            _ => QueryRequest::top_k(k.min(22)).users(Vec::new()),
        };
        for key in BUILTIN_KEYS {
            prop_assert!(
                engine.execute_with(key, &request).is_err(),
                "{key} accepted {request:?}"
            );
        }
        prop_assert!(engine.execute(&request).is_err());
        prop_assert!(engine.prepare(0).is_err());
    }
}
