//! Optimizer tour: why "to index or not to index" has no static answer.
//!
//! Reproduces the paper's motivating observation (Fig. 2) on two contrasting
//! workloads — a Netflix-like model where brute force wins and an R2-like
//! model where the index wins — and shows the engine's planner making the
//! right call on each, with its runtime estimates printed alongside the
//! measured truth.
//!
//! ```sh
//! cargo run --release --example optimizer_tour
//! ```

use optimus_maximus::prelude::*;
use std::sync::Arc;

fn tour(label: &str, model: Arc<MfModel>, block_size: usize, k: usize) {
    println!("== {label}: {} ==", model.name());
    let maximus_cfg = MaximusConfig {
        block_size,
        ..MaximusConfig::default()
    };
    let engine = EngineBuilder::new()
        .model(model)
        .register(BmmFactory)
        .register(MaximusFactory::new(maximus_cfg))
        .build()
        .expect("engine assembles");

    // Ground truth: run every backend to completion (the oracle of Table II).
    let mut oracle = ("", f64::INFINITY);
    for key in engine.backend_keys() {
        let response = engine
            .execute_with(key, &QueryRequest::top_k(k))
            .expect("serves");
        let build = engine.solver(key).expect("built").build_seconds();
        let total = build + response.serve_seconds;
        println!(
            "  measured {:<12} {:>8.3}s (build {:>6.4}s + serve {:>7.4}s)",
            response.backend, total, build, response.serve_seconds
        );
        if total < oracle.1 {
            oracle = (key, total);
        }
    }
    println!("  oracle choice: {}", oracle.0);

    // The engine's planner, online, from a <1% sample.
    let plan = engine.prepare(k).expect("planner runs");
    for e in plan.estimates() {
        println!(
            "  estimate {:<12} {:>8.3}s (from {} sampled users)",
            e.name, e.estimated_total_seconds, e.sampled_users
        );
    }
    let agree = plan.backend_key() == oracle.0;
    println!(
        "  planner choice: {} ({}, decision overhead {:.3}s)",
        plan.backend_name(),
        if agree {
            "matches oracle"
        } else {
            "differs from oracle"
        },
        plan.decision_seconds()
    );

    // The decision is cached: serving twice re-plans zero times.
    let first = engine.execute(&QueryRequest::top_k(k)).expect("serves");
    let second = engine.execute(&QueryRequest::top_k(k)).expect("serves");
    assert_eq!(engine.planner_runs(), 1);
    assert_eq!(first.backend, second.backend);
    println!(
        "  served {} users twice through the cached plan (planner ran {} time)\n",
        first.results.len(),
        engine.planner_runs()
    );
}

fn main() {
    // Netflix-like: flat-ish item norms, diffuse users — BMM territory
    // (Fig. 2, left).
    let netflix_like = reference_models()
        .into_iter()
        .find(|s| s.dataset == "Netflix" && s.training == "BPR" && s.f == 50)
        .unwrap();
    let model = Arc::new(netflix_like.build(1.0));
    let block = netflix_like.scaled_block_size(model.num_items());
    tour("BMM-friendly workload", model, block, 10);

    // R2-like: heavy norm skew, tight user bundles — index territory
    // (Fig. 2, right).
    let r2_like = reference_models()
        .into_iter()
        .find(|s| s.dataset == "R2" && s.training == "NOMAD" && s.f == 50)
        .unwrap();
    let model = Arc::new(r2_like.build(1.0));
    let block = r2_like.scaled_block_size(model.num_items());
    tour("index-friendly workload", model, block, 10);
}
