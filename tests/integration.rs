//! Cross-crate integration tests: the full pipeline from factor matrices
//! through the serving engine, every backend, and the planner, on the
//! catalog's stand-in models. That every backend, precision and route
//! returns the oracle's answer on every corpus shape is `mips-core`'s
//! exactness driver.

use optimus_maximus::prelude::*;
use optimus_maximus::topk::exact_topk;
use std::sync::Arc;

/// The oracle's answer for every user of `model` at `k`.
fn oracle(model: &MfModel, k: usize) -> Vec<TopKList> {
    (0..model.num_users())
        .map(|u| exact_topk(model.users().row(u), model.items(), k))
        .collect()
}

/// A small version of one catalog model.
fn catalog_model(dataset: &str, training: &str, f: usize) -> Arc<MfModel> {
    let spec = reference_models()
        .into_iter()
        .find(|s| s.dataset == dataset && s.training == training && s.f == f)
        .expect("a catalog model");
    Arc::new(spec.build(0.05))
}

fn engine_for(model: &Arc<MfModel>) -> Engine {
    EngineBuilder::new()
        .model(Arc::clone(model))
        .register(BmmFactory)
        .register(MaximusFactory::new(MaximusConfig {
            num_clusters: 4,
            block_size: 32,
            ..MaximusConfig::default()
        }))
        .register(LempFactory::default())
        .register(FexiproFactory::si())
        .register(FexiproFactory::sir())
        .build()
        .expect("engine assembles")
}

#[test]
fn all_backends_exact_on_all_dataset_families() {
    // The exactness kit's corpora are synthetic shapes; this holds every backend to
    // the oracle on one stand-in model of each catalog family.
    for model in [
        catalog_model("Netflix", "DSGD", 10),
        catalog_model("R2", "NOMAD", 10),
        catalog_model("KDD", "REF", 51),
        catalog_model("GloVe", "", 50),
    ] {
        let engine = engine_for(&model);
        for k in [1usize, 10] {
            let want = oracle(&model, k);
            for key in engine.backend_keys() {
                let response = engine
                    .execute_with(key, &QueryRequest::top_k(k))
                    .expect("valid request");
                assert_eq!(response.results, want, "{key} on {}", model.name());
            }
        }
    }
}

#[test]
fn planner_serves_exact_results_and_reuses_the_decision() {
    let model = catalog_model("R2", "NOMAD", 10);
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(MaximusFactory::new(MaximusConfig {
            num_clusters: 4,
            block_size: 32,
            ..MaximusConfig::default()
        }))
        .register(LempFactory::default())
        .optimus(OptimusConfig {
            sample_fraction: 0.05,
            ..OptimusConfig::default()
        })
        .build()
        .expect("engine assembles");

    let first = engine
        .execute(&QueryRequest::top_k(5))
        .expect("valid request");
    assert!(first.planned);
    assert_eq!(first.results, oracle(&model, 5), "planned serving is exact");

    // The plan carries an estimate per candidate, all finite.
    let plan = engine.prepare(5).expect("cached");
    assert_eq!(plan.estimates().len(), 3);
    for e in plan.estimates() {
        assert!(e.estimated_total_seconds.is_finite() && e.estimated_total_seconds > 0.0);
    }

    // Re-serving at the same k reuses the decision without re-sampling.
    let second = engine
        .execute(&QueryRequest::top_k(5).users_range(0..model.num_users() / 2))
        .expect("valid request");
    assert_eq!(engine.planner_runs(), 1);
    assert_eq!(second.backend, first.backend);
    for (u, list) in second.results.iter().enumerate() {
        assert_eq!(list.items, first.results[u].items, "user {u}");
    }
}

#[test]
fn end_to_end_train_then_serve() {
    // Trained factors → exact serving, the serving half of Fig. 1.
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: 120,
        num_items: 90,
        num_factors: 6,
        seed: 3,
        ..SynthConfig::default()
    }));
    let engine = engine_for(&model);
    let want = oracle(&model, 3);
    for key in engine.backend_keys() {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(3))
            .expect("valid request");
        assert_eq!(response.results, want, "{key}");
    }

    // The recommender path: exclude 25 already-rated items per user (17 is
    // prime to 90, so they are distinct), then check none comes back.
    let watched = ExclusionSet::from_pairs(
        (0..120usize).flat_map(|u| (0..25).map(move |j| (u, ((31 * u + 17 * j) % 90) as u32))),
    );
    let filtered = engine
        .execute(&QueryRequest::top_k(3).exclude(watched.clone()))
        .expect("valid request");
    for (u, list) in filtered.results.iter().enumerate() {
        assert_eq!(watched.count_for(u), 25);
        for (item, _) in list.iter() {
            assert!(
                !watched.for_user(u).contains(&item),
                "user {u} was served already-rated item {item}"
            );
        }
    }
}

#[test]
fn oracle_and_planner_usually_agree() {
    // Not a strict guarantee (timing noise on shared machines), but on a
    // model with a wide BMM-vs-index gap both should land on the same side.
    let spec = reference_models()
        .into_iter()
        .find(|s| s.dataset == "Netflix" && s.training == "BPR" && s.f == 25)
        .unwrap();
    let model = Arc::new(spec.build(0.15));
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(FexiproFactory::sir())
        .optimus(OptimusConfig {
            sample_fraction: 0.05,
            ..OptimusConfig::default()
        })
        .build()
        .expect("engine assembles");
    // The oracle: every backend run to completion, construction included.
    let measured = engine.backend_keys().into_iter().map(|key| {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(1))
            .expect("valid request");
        let build_seconds = engine.solver(key).expect("built").build_seconds();
        (key, build_seconds + response.serve_seconds)
    });
    let (best, _) = measured
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two backends");
    let plan = engine.prepare(1).expect("planner runs");
    // BPR models are BMM-friendly by construction; a diffuse-user model with
    // flat norms gives indexes nothing to prune.
    assert_eq!(best, "bmm");
    assert_eq!(plan.backend_key(), "bmm");
}

#[test]
fn model_validation_rejects_bad_input() {
    use optimus_maximus::linalg::Matrix;
    // NaN users.
    let mut users = Matrix::<f64>::zeros(2, 3);
    users.set(0, 0, f64::NAN);
    let items = Matrix::<f64>::from_fn(4, 3, |r, c| (r + c) as f64);
    assert!(matches!(
        MfModel::new("bad", users, items.clone()),
        Err(ModelError::InvalidMatrix(_))
    ));
    // Mismatched factor counts.
    let users = Matrix::<f64>::from_fn(2, 5, |r, c| (r * c) as f64);
    assert!(matches!(
        MfModel::new("bad", users, items.clone()),
        Err(ModelError::FactorMismatch { .. })
    ));
    // Empty matrices.
    let users = Matrix::<f64>::zeros(0, 3);
    assert!(MfModel::new("bad", users, items).is_err());
}

#[test]
fn malformed_requests_fail_with_typed_errors_on_every_backend() {
    let model = catalog_model("Netflix", "DSGD", 10);
    let engine = engine_for(&model);
    let n_items = model.num_items();
    let n_users = model.num_users();
    for key in engine.backend_keys() {
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(0))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: n_items
            }
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(n_items + 1))
                .unwrap_err(),
            MipsError::InvalidK {
                k: n_items + 1,
                num_items: n_items
            }
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users(vec![n_users]))
                .unwrap_err(),
            MipsError::UserOutOfRange {
                user: n_users,
                num_users: n_users
            }
        );
        assert_eq!(
            engine
                .execute_with(key, &QueryRequest::top_k(1).users(Vec::new()))
                .unwrap_err(),
            MipsError::EmptyUserList
        );
    }
}

#[test]
fn duplicate_and_degenerate_vectors_are_served_exactly() {
    use optimus_maximus::linalg::Matrix;
    // Model with duplicate items, a zero item, a zero user, and duplicate
    // users — every degenerate case at once.
    let users = Matrix::from_rows(&[
        vec![1.0, 2.0, -1.0],
        vec![0.0, 0.0, 0.0],
        vec![1.0, 2.0, -1.0],
        vec![-3.0, 0.5, 2.0],
    ])
    .unwrap();
    let mut item_rows = vec![
        vec![0.0, 0.0, 0.0],
        vec![1.0, 1.0, 1.0],
        vec![1.0, 1.0, 1.0],
        vec![-2.0, 0.0, 1.0],
    ];
    for j in 0..20 {
        item_rows.push(vec![j as f64 * 0.1, 1.0 - j as f64 * 0.05, 0.5]);
    }
    let items = Matrix::from_rows(&item_rows).unwrap();
    let model = Arc::new(MfModel::new("degenerate", users, items).unwrap());
    let engine = engine_for(&model);
    let reference = engine
        .execute_with("bmm", &QueryRequest::top_k(6))
        .expect("valid request");
    for key in engine.backend_keys() {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(6))
            .expect("valid request");
        for u in 0..model.num_users() {
            assert_eq!(
                response.results[u].items, reference.results[u].items,
                "{key} user {u}"
            );
        }
    }
}
