//! The batch-* workloads: the paper's Fig. 5 quantity. A fresh engine per
//! repetition; at each k one cold `Engine::execute(top_k(k))` (plan, index
//! builds and the serve) and one warm repeat.

use crate::models::{engine_builder, fresh_copy, peak_rss_mb, PlanLog, RunConfig, Shape};
use crate::oracle::Oracle;
use crate::report::{Metrics, Outcome, WorkloadRun};
use crate::stats::{fastest, median};
use crate::trace::Tracer;
use optimus_maximus::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The k values of one repetition, in the order they are served.
pub const KS: [usize; 3] = [1, 10, 50];
/// Warm passes at one k go on until they have taken this long together.
const WARM_FLOOR_S: f64 = 0.5;
/// Repetitions are the unit of every median here, so never fewer.
const MIN_REPS: usize = 3;

struct Rep {
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    /// `Engine::prepare` seconds; measured on traced repetitions only, where
    /// the cold step is split into prepare + execute.
    plan_s: f64,
    traced: bool,
}

// `is_multiple_of` is newer than the toolchains this crate should build on.
#[allow(clippy::manual_is_multiple_of)]
pub fn run(shape: Shape, cfg: &RunConfig, tracer: &mut Tracer) -> WorkloadRun {
    let template = tracer.span("data.synth_model", || {
        synth_model(&shape.synth_config(cfg.seed, cfg.smoke))
    });
    let oracle = tracer.span("oracle.build", || Oracle::new(&template, cfg.seed));
    // A traced run spends half its time here and half in the layer probes.
    let budget = if cfg.trace { 0.5 } else { 1.0 } * cfg.seconds;
    let min_reps = if cfg.smoke { 2 } else { MIN_REPS };
    let warm_floor_s = if cfg.smoke { 0.1 } else { 1.0 } * WARM_FLOOR_S;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reps: Vec<Rep> = Vec::new();
    let mut plans = PlanLog::default();
    let mut last = None;
    let mut peak_mb = 0.0;
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < budget {
        // A traced run records every other repetition, so the two kinds
        // price the tracer.
        let traced = cfg.trace && reps.len() % 2 == 0;
        let untraced = (cfg.trace && !traced).then(|| tracer.begin("batch.untraced_rep", 0));
        tracer.enabled = traced;
        let rep_span = tracer.begin("batch.rep", 0);
        // One engine alive at a time, so peak memory is one engine's.
        drop(last.take());

        let build_model = fresh_copy(&template);
        let t = Instant::now();
        let model = tracer.span("data.model_new", build_model);
        let engine = tracer.span("engine.build", || {
            Arc::new(
                engine_builder(Arc::clone(&model))
                    .build()
                    .expect("engine assembles"),
            )
        });
        let setup_s = t.elapsed().as_secs_f64();

        let (mut cold_s, mut warm_s, mut plan_s) = (0.0, 0.0, 0.0);
        for k in KS {
            let request = QueryRequest::top_k(k);
            let t = Instant::now();
            if cfg.trace {
                let open = tracer.begin("optimus.prepare", k as u64);
                engine.prepare(k).expect("planning succeeds");
                tracer.end(open);
                plan_s += t.elapsed().as_secs_f64();
            }
            let open = tracer.begin("engine.execute.cold", k as u64);
            let cold = engine.execute(&request).expect("cold execute succeeds");
            tracer.end(open);
            cold_s += t.elapsed().as_secs_f64();

            // The warm call, repeated while it is cheap: the fastest pass is
            // the one a busy neighbour on this host did not slow down.
            let (mut best, mut spent, mut warm) = (f64::INFINITY, 0.0, None);
            while spent < warm_floor_s {
                let t = Instant::now();
                let open = tracer.begin("engine.execute.warm", k as u64);
                warm = Some(engine.execute(&request).expect("warm execute succeeds"));
                tracer.end(open);
                let pass_s = t.elapsed().as_secs_f64();
                best = best.min(pass_s);
                spent += pass_s;
            }
            let warm = warm.expect("at least one warm pass ran");
            warm_s += best;

            let open = tracer.begin("oracle.check", k as u64);
            for response in [&cold, &warm] {
                attempted += oracle.users().len() as u64;
                failed += oracle.mismatches(&model, k, |u| &response.results[u].items);
            }
            tracer.end(open);
            plans.record(&engine, k);
        }

        tracer.end(rep_span);
        tracer.enabled = cfg.trace;
        if let Some(open) = untraced {
            tracer.end(open);
        }
        eprintln!(
            "[batch] repetition {}: setup {setup_s:.4} s, cold {cold_s:.3} s, warm {warm_s:.3} s",
            reps.len() + 1
        );
        if reps.is_empty() {
            // Later repetitions reuse the heap the first one grew.
            peak_mb = peak_rss_mb();
        }
        reps.push(Rep {
            setup_s,
            cold_s,
            warm_s,
            plan_s,
            traced,
        });
        last = Some((model, engine));
    }
    let (model, engine) = last.expect("at least one repetition ran");

    let column = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let mut observed = Metrics::default();
    if cfg.trace {
        let warm_where = |traced: bool| -> Vec<f64> {
            let of_kind = reps.iter().filter(|r| r.traced == traced);
            of_kind.map(|r| r.warm_s).collect()
        };
        observed.set(
            "trace.overhead_ratio",
            median(&warm_where(true)) / median(&warm_where(false)),
        );
        observed.set("optimus.plan_s", median(&column(|r| r.plan_s)));
        observed.set(
            "optimus.plan_share",
            median(&column(|r| r.plan_s / r.cold_s)),
        );
        observed.set("optimus.plan_flips", plans.flips());
        observed.set("optimus.bmm_share", plans.bmm_share());
    }
    eprintln!(
        "[batch] {} repetitions; plans {}",
        reps.len(),
        plans.describe()
    );

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&column(|r| r.setup_s)));
    metrics.set("cold_s", fastest(&column(|r| r.cold_s)));
    metrics.set(
        "answers_per_s",
        (model.num_users() * KS.len()) as f64 / fastest(&column(|r| r.warm_s)),
    );
    metrics.set("peak_rss_mb", peak_mb);
    WorkloadRun {
        outcome: Outcome {
            attempted,
            failed,
            metrics,
        },
        model,
        engine,
        observed,
    }
}
