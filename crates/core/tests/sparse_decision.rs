//! OPTIMUS decision regression for the sparse backend.
//!
//! The planner's job on a hybrid registry is to route each *workload* to
//! the right execution family: a ≥99%-sparse catalog must go to the
//! inverted index, and the paper's dense reference workloads (Netflix and
//! GloVe stand-ins) must keep their dense winners — registering the sparse
//! backend must never regress a dense catalog's plan. These are pinned
//! end-to-end through [`Engine::prepare`], the same sampled decision
//! production requests take.

use mips_core::engine::{Engine, EngineBuilder, QueryRequest};
use mips_core::optimus::{CandidateOutcome, OptimusConfig};
use mips_core::Precision;
use mips_data::catalog::find;
use mips_data::sparse::{synth_sparse_model, SparseSynthConfig};
use mips_data::MfModel;
use std::sync::Arc;

/// An engine with every built-in backend, planning deterministically
/// (fixed sampling seed, generous sample so the measured gap dominates
/// timer noise) under plain f64 execution.
fn engine_over(model: MfModel) -> Engine {
    EngineBuilder::new()
        .model(Arc::new(model))
        .with_default_backends()
        .precision(Precision::F64)
        .optimus(OptimusConfig {
            sample_fraction: 0.05,
            seed: 0xDEC1DE,
            ..OptimusConfig::default()
        })
        .build()
        .expect("engine assembles")
}

/// A ≥99%-sparse catalog routes to the inverted index. The margin is not
/// subtle — at 1% density the postings walk touches ~1% of the work a
/// dense scan does — so the sampled decision is stable across hosts.
#[test]
fn optimus_routes_sparse_catalogs_to_the_inverted_index() {
    let engine = engine_over(synth_sparse_model(&SparseSynthConfig {
        num_users: 400,
        num_items: 900,
        num_factors: 96,
        density: 0.01,
        dense_head: 0,
        seed: 0x5AB5E,
    }));
    let plan = engine.prepare(10).expect("plan");
    assert_eq!(
        plan.backend_key(),
        "sparse",
        "a 99%-sparse catalog must plan to the inverted index; estimates: {:?}",
        plan.estimates()
    );
    // The decision is also correct, not just pinned: the winner serves
    // requests (exactness is covered by the identity suites).
    let response = engine
        .execute(&QueryRequest::top_k(10).users(vec![0, 1]))
        .expect("serve through the sparse plan");
    assert_eq!(response.backend, "Sparse-II");
}

/// Dense reference workloads keep dense winners: on fully dense factors the
/// postings cover every coordinate and the index is pure overhead, which
/// the planner's analytical gate sees *before building it*. Asserted on the
/// decision record, not on the clock: whichever way this build's kernels
/// calibrate, the sparse backend is either excluded by a bound that really
/// exceeds the leader's sampled estimate — never built, never sampled,
/// never the winner — or it was raced like everything else and the plan
/// went to the lowest sampled estimate.
#[test]
fn optimus_keeps_dense_winners_on_dense_catalogs() {
    for spec in [
        find("Netflix", "DSGD", 50).expect("catalog spec"),
        find("GloVe", "", 50).expect("catalog spec"),
    ] {
        let model = spec.build(0.1);
        let name = model.name().to_string();
        let engine = engine_over(model);
        let plan = engine.prepare(10).expect("plan");
        let record = plan.estimates();
        assert_eq!(
            record.len(),
            engine.backend_keys().len(),
            "{name}: {record:?}"
        );
        // The sparse backend is registered last and brute force first.
        let (reference, sparse) = (&record[0], &record[record.len() - 1]);
        assert_eq!(reference.name, "Blocked MM");
        assert_eq!(reference.outcome, CandidateOutcome::Sampled);
        let leader = record
            .iter()
            .filter(|e| e.outcome == CandidateOutcome::Sampled)
            .min_by(|a, b| {
                a.estimated_total_seconds
                    .total_cmp(&b.estimated_total_seconds)
            })
            .expect("the reference was sampled");
        assert_eq!(plan.backend_name(), leader.name, "{name}: {record:?}");
        match sparse.outcome {
            CandidateOutcome::PrunedAnalytical { bound_seconds } => {
                assert_eq!(sparse.name, "sparse", "never built: recorded by key");
                // A fully dense catalog offers the postings walk nothing to
                // skip: its bound is the whole dense product.
                assert_eq!(sparse.estimated_total_seconds, bound_seconds);
                assert!(
                    bound_seconds > leader.estimated_total_seconds,
                    "{name}: gated at {bound_seconds} s under a leader at {} s",
                    leader.estimated_total_seconds
                );
                assert_eq!((sparse.sampled_users, sparse.build_seconds), (0, 0.0));
            }
            _ => assert_eq!(sparse.name, "Sparse-II", "raced, so built"),
        }
    }
}
