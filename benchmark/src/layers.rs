//! Isolated layer probes: one call (or one tight loop of calls) into each
//! module's public API, on the workload's own model, each under a span named
//! after the module. This is the only file of the benchmark that reaches
//! below `optimus_maximus::prelude`; `README.md` lists every function it
//! calls.
//!
//! The probes run after the workload body of a traced run, on the engine the
//! body left behind — already planned at every k of the workload, so its
//! solvers are built and the probes time serving, not construction.

use crate::models::{engine_builder, fresh_copy, server, RunConfig, POINT_K};
use crate::report::Metrics;
use crate::stats::{median, p50_p99, Rng};
use crate::trace::Tracer;
use optimus_maximus::clustering::{kmeans, KMeansConfig};
use optimus_maximus::core::parallel::par_query_range;
use optimus_maximus::core::precision::Precision;
use optimus_maximus::linalg::quant::dot_i8;
use optimus_maximus::linalg::{gemm_flops, gemm_nt_into, GemmScratch};
use optimus_maximus::net::client::Client;
use optimus_maximus::net::http::{parse_request, Limits, Parse};
use optimus_maximus::net::json::{decode_query_request, encode_response};
use optimus_maximus::prelude::*;
use optimus_maximus::topk::{gemm_nt_topk, rows_topk};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rows of the user block the kernel probes multiply against every item.
const KERNEL_ROWS: usize = 512;
/// Users the solver probes serve (a prefix of the model's users).
const SOLVER_USERS: usize = 1024;
/// Requests of the point-lookup stream sent down each route.
const POINT_REQUESTS: usize = 2000;
/// Calls per codec probe.
const CODEC_CALLS: usize = 20_000;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median seconds of three calls.
fn median_of_3(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..3).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Every per-layer metric a probe can measure on `model`, for the k values
/// the workload uses.
pub fn sweep(
    model: &Arc<MfModel>,
    engine: &Arc<Engine>,
    ks: &[usize],
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Metrics {
    let mut out = Metrics::default();
    let open = tracer.begin("probes", 0);
    kernels(model, tracer, &mut out);
    solvers(model, engine, ks, tracer, &mut out);
    precisions(model, tracer, &mut out);
    request_stack(model, engine, cfg.seed, tracer, &mut out);
    codecs(engine, tracer, &mut out);
    tracer.end(open);
    out
}

/// data, linalg, topk, clustering: the substrate under every solver.
fn kernels(model: &Arc<MfModel>, tracer: &mut Tracer, out: &mut Metrics) {
    let build_model = fresh_copy(model);
    out.set(
        "data.model_new_s",
        tracer.span("data.model_new", || timed(build_model).1),
    );

    let (m, n, f) = (
        KERNEL_ROWS.min(model.num_users()),
        model.num_items(),
        model.num_factors(),
    );
    let flops = gemm_flops(m, n, f);
    let mut scores = vec![0.0f64; m * n];
    let seconds = tracer.span("linalg.gemm_f64", || {
        median_of_3(|| {
            gemm_nt_into(
                model.users().row_block(0, m),
                model.items().row_block(0, n),
                &mut scores,
            )
        })
    });
    out.set("linalg.gemm_f64_gflops", flops / seconds * 1e-9);
    // Computed from the shapes, not measured: both operands read once, the
    // score block written once.
    out.set(
        "linalg.gemm_bytes",
        ((m + n) * f + m * n) as f64 * 8.0 * 1e-6,
    );

    let mirror = Arc::clone(model.mirror32());
    let mut scores32 = vec![0.0f32; m * n];
    let seconds = tracer.span("linalg.gemm_f32", || {
        median_of_3(|| {
            gemm_nt_into(
                mirror.users().row_block(0, m),
                mirror.items().row_block(0, n),
                &mut scores32,
            )
        })
    });
    out.set("linalg.gemm_f32_gflops", flops / seconds * 1e-9);

    let codes = Arc::clone(model.mirror_i8());
    let rows = m.min(64);
    let seconds = tracer.span("linalg.dot_i8", || {
        median_of_3(|| {
            let mut sum = 0i64;
            for u in 0..rows {
                for i in 0..n {
                    sum += i64::from(dot_i8(codes.user_row(u), codes.item_row(i)));
                }
            }
            black_box(sum);
        })
    });
    out.set(
        "linalg.dot_i8_gops",
        gemm_flops(rows, n, f) / seconds * 1e-9,
    );

    out.set(
        "topk.select_s",
        tracer.span("topk.rows_topk", || {
            median_of_3(|| {
                black_box(rows_topk(&scores, m, n, POINT_K));
            })
        }),
    );
    let mut scratch = GemmScratch::new();
    out.set(
        "topk.fused_s",
        tracer.span("topk.gemm_nt_topk", || {
            median_of_3(|| {
                black_box(gemm_nt_topk(
                    model.users().row_block(0, m),
                    model.items().row_block(0, n),
                    POINT_K,
                    &mut scratch,
                ));
            })
        }),
    );

    out.set(
        "clustering.kmeans_s",
        tracer.span("clustering.kmeans", || {
            timed(|| black_box(kmeans(model.users(), &KMeansConfig::default()))).1
        }),
    );
}

/// Seconds for `solver` to answer the probe users at every k.
fn serve_s(solver: &dyn MipsSolver, ks: &[usize], users: usize) -> f64 {
    ks.iter()
        .map(|&k| timed(|| black_box(solver.query_range(k, 0..users))).1)
        .sum()
}

/// Each backend forced, then the planner's choice against the best of them
/// (the paper's Table II), the facade's cost over a direct solver call, and
/// the second thread's worth.
fn solvers(
    model: &Arc<MfModel>,
    engine: &Arc<Engine>,
    ks: &[usize],
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let users = SOLVER_USERS.min(model.num_users());
    let mut best_forced = f64::INFINITY;
    // (registry keys, span, build metric, serve metric); brute force builds
    // nothing, and FEXIPRO is its two variants together.
    for (keys, span, build_metric, serve_metric) in [
        (&["bmm"][..], "bmm.query_range", None, "bmm.serve_s"),
        (
            &["maximus"][..],
            "maximus.query_range",
            Some("maximus.build_s"),
            "maximus.serve_s",
        ),
        (
            &["lemp"][..],
            "lemp.query_range",
            Some("lemp.build_s"),
            "lemp.serve_s",
        ),
        (
            &["fexipro-si", "fexipro-sir"][..],
            "fexipro.query_range",
            Some("fexipro.build_s"),
            "fexipro.serve_s",
        ),
    ] {
        let (mut build, mut serve) = (0.0, 0.0);
        for key in keys {
            let solver = engine.solver(key).expect("default backend is registered");
            build += solver.build_seconds();
            let seconds = tracer.span(span, || serve_s(solver.as_ref(), ks, users));
            best_forced = best_forced.min(seconds);
            serve += seconds;
        }
        if let Some(metric) = build_metric {
            out.set(metric, build);
        }
        out.set(serve_metric, serve);
    }

    let plans: Vec<Arc<PreparedPlan>> = ks
        .iter()
        .map(|&k| engine.prepare(k).expect("the workload planned this k"))
        .collect();
    let chosen = tracer.span("optimus.chosen.query_range", || {
        plans
            .iter()
            .map(|p| serve_s(p.solver(), &[p.planned_k()], users))
            .sum::<f64>()
    });
    out.set("optimus.regret", chosen / best_forced);

    let plan = &plans[ks.iter().position(|&k| k == POINT_K).unwrap_or(0)];
    let k = plan.planned_k();
    let (direct, facade) = tracer.span("engine.execute.vs_query_all", || {
        let request = QueryRequest::top_k(k);
        let mut pairs: Vec<(f64, f64)> = (0..3)
            .map(|_| {
                (
                    timed(|| black_box(plan.solver().query_all(k))).1,
                    timed(|| black_box(engine.execute(&request))).1,
                )
            })
            .collect();
        pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
        pairs[1]
    });
    out.set("engine.overhead_ratio", facade / direct);

    let all = 0..model.num_users();
    let one = tracer.span("parallel.par_query_range.1", || {
        timed(|| black_box(par_query_range(plan.solver(), k, all.clone(), 1))).1
    });
    let two = tracer.span("parallel.par_query_range.2", || {
        timed(|| black_box(par_query_range(plan.solver(), k, all.clone(), 2))).1
    });
    out.set("parallel.scaling_ratio", one / two);
}

/// Brute force under each numeric tier, and `Auto` against the best of them.
fn precisions(model: &Arc<MfModel>, tracer: &mut Tracer, out: &mut Metrics) {
    let users = SOLVER_USERS.min(model.num_users());
    let request = QueryRequest::top_k(POINT_K).users_range(0..users);
    let mut forced_best = f64::INFINITY;
    for (precision, span, seconds_metric, ratio_metric) in [
        (Precision::F64, "precision.f64", "precision.f64_s", None),
        (
            Precision::F32Rescore,
            "precision.f32",
            "precision.f32_s",
            Some("topk.screen_survivor_ratio_f32"),
        ),
        (
            Precision::I8Rescore,
            "precision.i8",
            "precision.i8_s",
            Some("topk.screen_survivor_ratio_i8"),
        ),
        (
            Precision::Auto,
            "precision.auto",
            "precision.auto_regret",
            None,
        ),
    ] {
        let open = tracer.begin(span, 0);
        let engine = EngineBuilder::new()
            .model(Arc::clone(model))
            .register(BmmFactory)
            .precision(precision)
            .threads(1)
            .build()
            .expect("brute-force engine assembles");
        // The first call builds the tier's mirror (and, under Auto, plans).
        engine.execute(&request).expect("probe request is valid");
        let plan = engine.prepare(POINT_K).expect("already planned");
        let _ = plan.solver().take_screen_stats();
        let seconds = median_of_3(|| {
            black_box(engine.execute(&request).expect("probe request is valid"));
        });
        tracer.end(open);
        if precision == Precision::Auto {
            out.set(seconds_metric, seconds / forced_best);
        } else {
            forced_best = forced_best.min(seconds);
            out.set(seconds_metric, seconds);
        }
        if let Some(metric) = ratio_metric {
            let tally = plan.solver().take_screen_stats().unwrap_or_default();
            out.set(metric, tally.rescored as f64 / tally.screened.max(1) as f64);
        }
    }
}

/// One stream of single-user requests down three routes — the engine, the
/// in-process runtime, the HTTP front door — so each route's cost is the
/// difference from the one below it.
fn request_stack(
    model: &Arc<MfModel>,
    engine: &Arc<Engine>,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let mut rng = Rng::new(seed ^ 0x5EED_CAFE);
    let requests: Vec<QueryRequest> = (0..POINT_REQUESTS)
        .map(|_| QueryRequest::top_k(POINT_K).users(vec![rng.below(model.num_users())]))
        .collect();
    let latencies_us = |f: &mut dyn FnMut(&QueryRequest)| -> (f64, f64) {
        let mut us: Vec<f64> = requests.iter().map(|r| timed(|| f(r)).1 * 1e6).collect();
        p50_p99(&mut us)
    };

    let (point_us, _) = tracer.span("engine.execute.point", || {
        latencies_us(&mut |r| {
            black_box(engine.execute(r).expect("point lookup succeeds"));
        })
    });
    out.set("engine.point_us", point_us);

    let runtime = server(Arc::clone(engine));
    let (inproc_p50, inproc_p99) = tracer.span("serve.submit_wait", || {
        latencies_us(&mut |r| {
            black_box(
                runtime
                    .submit(r)
                    .and_then(|handle| handle.wait())
                    .expect("in-process request succeeds"),
            );
        })
    });
    out.set("serve.inproc_p50_us", inproc_p50);
    out.set("serve.inproc_p99_us", inproc_p99);
    out.set("serve.runtime_overhead_us", inproc_p50 - point_us);

    let http = HttpServerBuilder::new()
        .server(runtime)
        .build()
        .expect("front door binds an ephemeral loopback port");
    let mut client = Client::connect(http.local_addr()).expect("loopback connect");
    let (wire_p50, _) = tracer.span("client.request", || {
        latencies_us(&mut |r| {
            let UserSelection::Ids(ids) = &r.users else {
                unreachable!("the stream is single-user requests");
            };
            let body = format!("{{\"k\": {}, \"users\": [{}]}}", r.k, ids[0]);
            let response = client
                .request("POST", "/query", Some(&body))
                .expect("loopback round trip");
            assert_eq!(response.status, 200, "{}", response.body);
        })
    });
    out.set("net.wire_overhead_us", wire_p50 - inproc_p50);
    http.shutdown().expect("clean shutdown");

    out.set(
        "engine.build_s",
        tracer.span("engine.build", || {
            timed(|| black_box(engine_builder(Arc::clone(model)).build())).1
        }),
    );
}

/// The wire codecs on one canned single-user exchange.
fn codecs(engine: &Arc<Engine>, tracer: &mut Tracer, out: &mut Metrics) {
    let body = format!("{{\"k\": {POINT_K}, \"users\": [0]}}");
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = engine
        .execute(&QueryRequest::top_k(POINT_K).users(vec![0]))
        .expect("point lookup succeeds");
    let per_call_us = |seconds: f64| seconds / CODEC_CALLS as f64 * 1e6;

    let limits = Limits::default();
    let seconds = tracer.span("net.parse_request", || {
        timed(|| {
            for _ in 0..CODEC_CALLS {
                let parsed = parse_request(black_box(raw.as_bytes()), &limits);
                assert!(matches!(parsed, Parse::Ready(_)));
            }
        })
        .1
    });
    out.set("net.parse_us", per_call_us(seconds));

    let seconds = tracer.span("net.decode_query_request", || {
        timed(|| {
            for _ in 0..CODEC_CALLS {
                black_box(decode_query_request(black_box(body.as_bytes())).expect("valid body"));
            }
        })
        .1
    });
    out.set("net.decode_us", per_call_us(seconds));

    let seconds = tracer.span("net.encode_response", || {
        timed(|| {
            for _ in 0..CODEC_CALLS {
                black_box(encode_response(black_box(&response)));
            }
        })
        .1
    });
    out.set("net.encode_us", per_call_us(seconds));
}
