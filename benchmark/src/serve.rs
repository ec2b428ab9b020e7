//! The serve-burst workload: a closed-loop load generator against the HTTP
//! front door on an ephemeral loopback port. One thread per connection; each
//! keeps `DEPTH` requests in flight and sends the next only when a response
//! comes back, so a slower server is offered less load.

use crate::models::{
    engine_builder, fresh_copy, peak_rss_mb, server, PlanLog, RunConfig, Shape, POINT_K,
};
use crate::oracle::Oracle;
use crate::report::{Metrics, Outcome, WorkloadRun};
use crate::stats::{fastest, median, p50_p99, quantile_sorted, Rng};
use crate::trace::Tracer;
use optimus_maximus::net::client::{Client, Response};
use optimus_maximus::net::json::{self, Json};
use optimus_maximus::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds of `--seconds` per fresh system. Each system plans for itself,
/// and which plan it lands on decides its throughput more than anything else
/// does — a third to all of them draw the fast one — so the run boots many
/// and keeps their windows short.
const SECONDS_PER_SYSTEM: f64 = 2.8;
/// Steady windows each fresh system is driven through.
const WINDOWS_PER_SYSTEM: usize = 2;
/// Swaps in the swap phase of a traced run.
const SWAPS: usize = 3;

/// The model served: brute-force territory, so the solver layers are
/// batch-dense's, used per request.
const SHAPE: Shape = Shape::Dense;
/// Load-generator threads, one connection each.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight: 16 in all against 2 workers, so
/// a queue forms.
const DEPTH: usize = 8;
/// The k values of the mix; each is planned by a cold request.
pub const KS: [usize; 2] = [POINT_K, 50];
/// Share of requests at `KS[0]`; the rest go to `KS[1]`.
const FIRST_K_SHARE: f64 = 0.8;

/// The models a response may have been served from — one, or the two a
/// swap phase alternates — each with its oracle. A response's `epoch`
/// picks the side, which also checks that a request is answered from one
/// epoch end to end.
struct Checker {
    sides: Vec<(Arc<MfModel>, Oracle)>,
}

impl Checker {
    fn covers(&self, user: usize) -> bool {
        self.sides[0].1.covers(user)
    }

    /// Status 200, and for an oracle user the right `k` items.
    fn accepts(&self, user: usize, k: usize, response: &Response) -> bool {
        if response.status != 200 {
            return false;
        }
        if !self.covers(user) {
            return true;
        }
        let Ok(doc) = json::parse(&response.body) else {
            return false;
        };
        let Some(epoch) = doc.get("epoch").and_then(Json::as_u64) else {
            return false;
        };
        let (model, oracle) = &self.sides[epoch as usize % self.sides.len()];
        let items: Option<Vec<u32>> = doc
            .get("results")
            .and_then(Json::as_arr)
            .filter(|lists| lists.len() == 1)
            .and_then(|lists| lists[0].get("items"))
            .and_then(Json::as_arr)
            .and_then(|items| {
                items
                    .iter()
                    .map(|i| i.as_u64().and_then(|i| u32::try_from(i).ok()))
                    .collect()
            });
        items.is_some_and(|items| items.len() == k && oracle.accepts(model, user, &items))
    }
}

struct System {
    engine: Arc<Engine>,
    http: HttpServer,
    clients: Vec<Client>,
}

fn query_body(k: usize, user: usize) -> String {
    format!("{{\"k\": {k}, \"users\": [{user}]}}")
}

/// Factor matrices in memory → listening and connected. Returns the system
/// and the seconds that took.
fn boot(checker: &Checker, tracer: &mut Tracer) -> (System, f64) {
    let build_model = fresh_copy(&checker.sides[0].0);
    // Swap k installs side k mod 2, so epoch e always serves side e mod 2.
    let swap_to: Vec<Arc<MfModel>> = checker.sides.iter().map(|s| Arc::clone(&s.0)).collect();
    let swaps_done = AtomicUsize::new(0);
    let t = Instant::now();
    let model = tracer.span("data.model_new", build_model);
    let engine = tracer.span("engine.build", || {
        Arc::new(engine_builder(model).build().expect("engine assembles"))
    });
    let runtime = tracer.span("serve.build", || server(Arc::clone(&engine)));
    let http = tracer.span("net.build", || {
        HttpServerBuilder::new()
            .server(runtime)
            .swap_source(move || {
                let n = swaps_done.fetch_add(1, Ordering::Relaxed) + 1;
                Ok(Arc::clone(&swap_to[n % swap_to.len()]))
            })
            .build()
            .expect("front door binds an ephemeral loopback port")
    });
    let clients = tracer.span("client.connect", || {
        (0..CONNECTIONS)
            .map(|_| Client::connect(http.local_addr()).expect("loopback connect"))
            .collect()
    });
    let setup_s = t.elapsed().as_secs_f64();
    (
        System {
            engine,
            http,
            clients,
        },
        setup_s,
    )
}

/// When things happen in a drive, in ns from its start.
struct Timeline {
    warmup_ns: u64,
    window_ns: u64,
    windows: usize,
    /// Swap phase after the steady windows: `swaps` swaps, one per period.
    swap_period_ns: u64,
    swaps: usize,
    /// Whether odd windows run with the tracer off (a traced run).
    alternate_tracing: bool,
}

impl Timeline {
    fn steady_end_ns(&self) -> u64 {
        self.warmup_ns + self.windows as u64 * self.window_ns
    }

    fn end_ns(&self) -> u64 {
        self.steady_end_ns() + self.swaps as u64 * self.swap_period_ns
    }

    /// The steady window `at_ns` falls in, if any.
    fn window_of(&self, at_ns: u64) -> Option<usize> {
        (self.warmup_ns..self.steady_end_ns())
            .contains(&at_ns)
            .then(|| ((at_ns - self.warmup_ns) / self.window_ns) as usize)
    }
}

struct InFlight {
    sent_ns: u64,
    request_id: u64,
    /// `None` for a swap request.
    query: Option<(usize, usize)>,
}

#[derive(Default)]
struct ThreadLog {
    /// `(sent_ns, done_ns)` of every answered query.
    samples: Vec<(u64, u64)>,
    /// `(sent_ns, done_ns)` of every acknowledged swap.
    swap_acks: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
}

/// One connection's closed loop over the whole timeline.
fn drive(
    client: &mut Client,
    thread: usize,
    origin: Instant,
    timeline: &Timeline,
    checker: &Checker,
    mut rng: Rng,
    tracer: &mut Tracer,
) -> ThreadLog {
    let num_users = checker.sides[0].0.num_users();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut log = ThreadLog::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
    let mut next_id = ((thread as u64) << 48) + 1;
    let mut swaps_sent = 0usize;
    let root = tracer.begin("loadgen.thread", 0);
    let mut window = None;
    let mut untraced = None;
    'run: loop {
        let mut now = now_ns();
        if timeline.alternate_tracing && timeline.window_of(now) != window {
            window = timeline.window_of(now);
            if let Some(open) = untraced.take() {
                tracer.enabled = true;
                tracer.end(open);
            }
            if window.is_some_and(|w| w % 2 == 1) {
                untraced = Some(tracer.begin("loadgen.untraced_window", 0));
                tracer.enabled = false;
            }
        }
        while in_flight.len() < DEPTH && now < timeline.end_ns() {
            let swap_due = thread == 0
                && swaps_sent < timeline.swaps
                && now >= timeline.steady_end_ns() + swaps_sent as u64 * timeline.swap_period_ns;
            let query = (!swap_due).then(|| {
                let first = rng.next_u64() as f64 / u64::MAX as f64 <= FIRST_K_SHARE;
                let k = KS[if first { 0 } else { 1 }];
                (k, rng.below(num_users))
            });
            let open = tracer.begin("client.send", next_id);
            let sent = match query {
                Some((k, user)) => client.send("POST", "/query", Some(&query_body(k, user))),
                None => client.send("POST", "/admin/swap", None),
            };
            tracer.end(open);
            log.attempted += 1;
            if sent.is_err() {
                log.failed += 1 + in_flight.len() as u64;
                break 'run;
            }
            swaps_sent += usize::from(swap_due);
            in_flight.push_back(InFlight {
                sent_ns: now,
                request_id: next_id,
                query,
            });
            next_id += 1;
            now = now_ns();
        }
        let Some(oldest) = in_flight.pop_front() else {
            break;
        };
        let open = tracer.begin("client.recv", oldest.request_id);
        let response = client.recv();
        tracer.end(open);
        let done_ns = now_ns();
        let Ok(response) = response else {
            log.failed += 1 + in_flight.len() as u64;
            break;
        };
        let open = tracer.begin("oracle.check", oldest.request_id);
        let ok = match oldest.query {
            Some((k, user)) => {
                log.samples.push((oldest.sent_ns, done_ns));
                checker.accepts(user, k, &response)
            }
            None => {
                log.swap_acks.push((oldest.sent_ns, done_ns));
                response.status == 200
            }
        };
        tracer.end(open);
        log.failed += u64::from(!ok);
    }
    if let Some(open) = untraced.take() {
        tracer.enabled = true;
        tracer.end(open);
    }
    tracer.end(root);
    log
}

/// Counters of the serving runtime and the front door at one instant.
struct Counters {
    at: Instant,
    completed: u64,
    batches: u64,
    coalesced: u64,
    busy_seconds: f64,
    rejected: u64,
    responses_5xx: u64,
    rejected_overload: u64,
}

impl Counters {
    fn read(http: &HttpServer) -> Counters {
        let server = http.server().metrics();
        let net = http.metrics();
        let sum = |f: fn(&ShardMetrics) -> u64| server.shards.iter().map(f).sum::<u64>();
        Counters {
            at: Instant::now(),
            completed: sum(|s| s.completed),
            batches: sum(|s| s.batches),
            coalesced: sum(|s| s.coalesced),
            busy_seconds: server.shards.iter().map(|s| s.busy_seconds).sum(),
            rejected: server.rejected,
            responses_5xx: net.responses_5xx,
            rejected_overload: net.rejected_overload,
        }
    }
}

/// What the load-generator threads of one drive logged.
struct Drive {
    logs: Vec<ThreadLog>,
    /// Server and front-door counters at the end of warm-up and at the end
    /// of the steady windows.
    steady: (Counters, Counters),
}

/// Runs the timeline against a booted system, one thread per connection.
fn drive_all(
    system: &mut System,
    timeline: &Timeline,
    checker: &Checker,
    stream_seed: u64,
    tracer: &mut Tracer,
) -> Drive {
    let origin = Instant::now();
    let open = tracer.begin("loadgen.drive", 0);
    let wait_until = |ns: u64| {
        std::thread::sleep(Duration::from_nanos(ns).saturating_sub(origin.elapsed()));
    };
    let http = &system.http;
    let (finished, steady) = std::thread::scope(|scope| {
        let handles: Vec<_> = system
            .clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let mut thread_tracer = tracer.for_thread(thread as u32 + 1);
                let rng = Rng::new(stream_seed ^ ((thread as u64 + 1) << 32));
                scope.spawn(move || {
                    let log = drive(
                        client,
                        thread,
                        origin,
                        timeline,
                        checker,
                        rng,
                        &mut thread_tracer,
                    );
                    (log, thread_tracer)
                })
            })
            .collect();
        wait_until(timeline.warmup_ns);
        let before = Counters::read(http);
        wait_until(timeline.steady_end_ns());
        let after = Counters::read(http);
        let finished: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread finished"))
            .collect();
        (finished, (before, after))
    });
    tracer.end(open);
    let mut logs = Vec::new();
    for (log, thread_tracer) in finished {
        tracer.absorb(thread_tracer);
        logs.push(log);
    }
    Drive { logs, steady }
}

/// The swap phase as its clients saw it: `acks` and `answered` are the
/// `(sent_ns, done_ns)` of its swaps and queries, `steady_answers` what the
/// steady phase would have answered in the same time.
fn swap_metrics(acks: &[(u64, u64)], answered: &[(u64, u64)], steady_answers: f64) -> Metrics {
    let (mut ack_ms, mut replan_ms, mut stall_ms) = (Vec::new(), Vec::new(), Vec::new());
    for &(sent_ns, acked_ns) in acks {
        ack_ms.push((acked_ns - sent_ns) as f64 * 1e-6);
        // Requests sent in the second after the ack: the first one pays for
        // replanning, the worst one is the stall.
        let after_ack = answered
            .iter()
            .filter(|(sent, _)| (acked_ns..acked_ns + 1_000_000_000).contains(sent));
        if let Some(first) = after_ack.clone().min_by_key(|(sent, _)| *sent) {
            replan_ms.push((first.1 - first.0) as f64 * 1e-6);
        }
        if let Some(worst) = after_ack.map(|(sent, done)| done - sent).max() {
            stall_ms.push(worst as f64 * 1e-6);
        }
    }
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mut out = Metrics::default();
    out.set("engine.swap_ack_ms", or_zero(&ack_ms));
    out.set("engine.replan_ms", or_zero(&replan_ms));
    out.set("serve.swap_stall_ms", or_zero(&stall_ms));
    out.set(
        "serve.swap_goodput_ratio",
        answered.len() as f64 / steady_answers,
    );
    out
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> WorkloadRun {
    // The swap phase's metrics are per-layer ones: only a traced run swaps.
    let swaps = if cfg.trace { SWAPS } else { 0 };
    let mut sides = Vec::new();
    for side in 0..if swaps > 0 { 2 } else { 1 } {
        let model = tracer.span("data.synth_model", || {
            Arc::new(synth_model(
                &SHAPE.synth_config(cfg.seed.wrapping_add(side), cfg.smoke),
            ))
        });
        let oracle = tracer.span("oracle.build", || Oracle::new(&model, cfg.seed));
        sides.push((model, oracle));
    }
    let checker = Checker { sides };
    let boots = if cfg.smoke || cfg.trace {
        2
    } else {
        (cfg.seconds / SECONDS_PER_SYSTEM).round().max(2.0) as usize
    };
    let window_s = cfg.seconds / 40.0;
    // Long enough for the stall a swap causes to end before the next swap,
    // also at smoke scale.
    let swap_period_s = (0.15 * cfg.seconds).max(0.75);

    // One fresh system after another. Each is built, asked its first
    // question at every k of the mix — which is when the planner runs and
    // indexes are built — and then driven through its share of the steady
    // windows, so the run spans several independent planner decisions and
    // thread placements rather than one.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup_s, mut cold_s, mut plan_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut plans = PlanLog::default();
    // Per steady window of the whole run: request latencies in µs, and
    // whether the tracer was recording.
    let mut per_window: Vec<(Vec<f64>, bool)> = Vec::new();
    let mut swap_phase: Vec<(u64, u64)> = Vec::new();
    let mut swap_acks: Vec<(u64, u64)> = Vec::new();
    let mut steady_counters = Vec::new();
    let mut peak_mb = 0.0;
    let mut last_engine = None;
    for index in 0..boots {
        // One engine alive at a time: the next system reuses the heap the
        // last one freed instead of touching fresh memory beside it.
        drop(last_engine.take());
        let open = tracer.begin("serve.boot", 0);
        let (mut system, boot_s) = boot(&checker, tracer);
        let (mut cold, mut planning) = (0.0, 0.0);
        for (i, &k) in KS.iter().enumerate() {
            let user = checker.sides[0].1.users()[i];
            let t = Instant::now();
            let first = tracer.begin("client.request.cold", k as u64);
            let response = system.clients[0].request("POST", "/query", Some(&query_body(k, user)));
            tracer.end(first);
            cold += t.elapsed().as_secs_f64();
            attempted += 1;
            failed += u64::from(!response.is_ok_and(|r| checker.accepts(user, k, &r)));
            planning += plans.record(&system.engine, k).decision_seconds();
        }
        tracer.end(open);
        setup_s.push(boot_s);
        cold_s.push(cold);
        plan_s.push(planning);

        let last = index + 1 == boots;
        let timeline = Timeline {
            warmup_ns: (0.5 * window_s * 1e9) as u64,
            window_ns: (window_s * 1e9) as u64,
            windows: WINDOWS_PER_SYSTEM,
            swap_period_ns: (swap_period_s * 1e9) as u64,
            swaps: if last { swaps } else { 0 },
            alternate_tracing: cfg.trace,
        };
        let stream_seed = cfg
            .seed
            .wrapping_add(index as u64)
            .wrapping_mul(0x9E37_79B9);
        let drive = drive_all(&mut system, &timeline, &checker, stream_seed, tracer);
        let first_window = per_window.len();
        per_window.extend((0..WINDOWS_PER_SYSTEM).map(|w| (Vec::new(), cfg.trace && w % 2 == 0)));
        for log in drive.logs {
            attempted += log.attempted;
            failed += log.failed;
            swap_acks.extend(log.swap_acks);
            for (sent_ns, done_ns) in log.samples {
                if let Some(w) = timeline.window_of(done_ns) {
                    per_window[first_window + w]
                        .0
                        .push((done_ns - sent_ns) as f64 * 1e-3);
                } else if done_ns >= timeline.steady_end_ns() {
                    swap_phase.push((sent_ns, done_ns));
                }
            }
        }
        steady_counters.push(drive.steady);
        if index == 0 {
            // Later systems re-measure set-up in a process whose allocator
            // has already been through one; a deployment's memory is this
            // one's.
            peak_mb = peak_rss_mb();
        }
        let workers = system.http.server().worker_count();
        tracer.span("net.shutdown", || {
            system.http.shutdown().expect("clean shutdown")
        });
        last_engine = Some((system.engine, workers));
    }
    let (engine, workers) = last_engine.expect("at least one system booted");
    let model = engine.model();

    let rates: Vec<f64> = per_window
        .iter()
        .map(|(w, _)| w.len() as f64 / window_s)
        .collect();
    let mut window_p99 = Vec::new();
    let mut steady_us: Vec<f64> = Vec::new();
    for (latencies, _) in &mut per_window {
        if latencies.is_empty() {
            continue;
        }
        latencies.sort_unstable_by(f64::total_cmp);
        window_p99.push(quantile_sorted(latencies, 0.99));
        steady_us.extend_from_slice(latencies);
    }
    if steady_us.is_empty() {
        // A dead connection: nothing was answered, which `failed` reports.
        steady_us.push(f64::MAX);
        window_p99.push(f64::MAX);
    }
    // Each system's throughput is the median of its own windows; the run's
    // is its best system's. Systems of one run differ by the plan each one's
    // planner happened to pick — a k = 10 plan that wins on a sample of whole
    // batches can be several times slower on single-user requests — and a
    // median over five draws from two regimes flips between them.
    let boot_rates: Vec<f64> = rates.chunks(WINDOWS_PER_SYSTEM).map(median).collect();
    let answers_per_s = boot_rates.iter().copied().fold(0.0, f64::max);
    eprintln!("[serve] boots: setup {setup_s:.4?} s, cold {cold_s:.3?} s");
    eprintln!("[serve] windows: {rates:.0?} req/s, p99 {window_p99:.0?} us");
    eprintln!(
        "[serve] per system: {boot_rates:.0?} req/s on {}",
        plans.in_order()
    );
    eprintln!(
        "[serve] {} steady samples; plans {}",
        steady_us.len(),
        plans.describe()
    );

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("cold_s", fastest(&cold_s));
    metrics.set("answers_per_s", answers_per_s);
    metrics.set("peak_rss_mb", peak_mb);

    let mut observed = Metrics::default();
    if cfg.trace {
        observed.set(
            "net.boot_rate_spread",
            1.0 - fastest(&boot_rates) / answers_per_s.max(f64::MIN_POSITIVE),
        );
        observed.set("net.p50_us", p50_p99(&mut steady_us).0);
        observed.set("net.p99_us", median(&window_p99));
        let rates_where = |traced: bool| -> Vec<f64> {
            per_window
                .iter()
                .zip(&rates)
                .filter(|((_, t), _)| *t == traced)
                .map(|(_, &r)| r)
                .collect()
        };
        observed.set(
            "trace.overhead_ratio",
            median(&rates_where(false)) / median(&rates_where(true)),
        );
        // The planner's own report of its sampling time; a cold request is
        // that plus index builds plus one single-user answer.
        observed.set("optimus.plan_s", median(&plan_s));
        observed.set("optimus.plan_share", median(&plan_s) / median(&cold_s));
        observed.set("optimus.plan_flips", plans.flips());
        observed.set("optimus.bmm_share", plans.bmm_share());

        let delta = |f: fn(&Counters) -> f64| -> f64 {
            steady_counters.iter().map(|(b, a)| f(a) - f(b)).sum()
        };
        let completed = delta(|c| c.completed as f64);
        let wall_s: f64 = steady_counters
            .iter()
            .map(|(b, a)| (a.at - b.at).as_secs_f64())
            .sum();
        observed.set(
            "serve.mean_batch",
            completed / delta(|c| c.batches as f64).max(1.0),
        );
        observed.set(
            "serve.coalesced_share",
            delta(|c| c.coalesced as f64) / completed.max(1.0),
        );
        observed.set(
            "serve.busy_share",
            delta(|c| c.busy_seconds) / (wall_s * workers as f64),
        );
        let totals = |f: fn(&Counters) -> u64| -> f64 {
            steady_counters.iter().map(|(_, a)| f(a)).sum::<u64>() as f64
        };
        observed.set("serve.rejected", totals(|c| c.rejected));
        observed.set("net.responses_5xx", totals(|c| c.responses_5xx));
        observed.set("net.rejected_overload", totals(|c| c.rejected_overload));

        if swap_acks.len() != swaps {
            eprintln!(
                "[serve] {} of {swaps} swaps were acknowledged",
                swap_acks.len()
            );
            failed += 1;
        }
        if swaps > 0 {
            let steady_answers = swaps as f64 * swap_period_s * answers_per_s;
            observed.extend(swap_metrics(&swap_acks, &swap_phase, steady_answers));
        }
    }

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
