//! Live loopback suite: a real listener, real sockets, real deadline and
//! admission behavior.
//!
//! Each test boots an [`HttpServer`] on an ephemeral port and drives it
//! with the crate's blocking [`Client`]. That wire answers are the
//! oracle's, bit for bit, for every backend and precision, is the core
//! test kit's `Wire` route (`mips-core`'s `exactness.rs`); this suite holds
//! the protocol: statuses, framing, pipelining order, metrics, deadlines,
//! admission and drain.

use mips_core::engine::{BmmFactory, Engine, EngineBuilder, QueryRequest};
use mips_core::precision::Precision;
use mips_core::serve::{MipsServer, ServerBuilder};
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_net::client::Client;
use mips_net::json::{self, Json};
use mips_net::{HttpServer, HttpServerBuilder};
use mips_topk::ScreenTier;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model(users: usize, items: usize, seed: u64) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: items,
        num_factors: 8,
        seed,
        ..SynthConfig::default()
    }))
}

fn engine(model: &Arc<MfModel>) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(model))
            .with_default_backends()
            .build()
            .unwrap(),
    )
}

/// A small default stack: 80 users, 100 items, 2 workers.
fn stack() -> (Arc<Engine>, Arc<MipsServer>, HttpServer) {
    let engine = engine(&model(80, 100, 11));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(2)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    (engine, server, http)
}

/// Extracts `results` from a wire response as `(items, score_bits)` rows.
fn wire_results(body: &str) -> Vec<(Vec<u32>, Vec<u64>)> {
    let doc = json::parse(body).unwrap();
    doc.get("results")
        .and_then(Json::as_arr)
        .expect("results array")
        .iter()
        .map(|row| {
            let items = row
                .get("items")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|i| i.as_u64().unwrap() as u32)
                .collect();
            let scores = row
                .get("scores")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|s| s.as_num().unwrap().to_bits())
                .collect();
            (items, scores)
        })
        .collect()
}

#[test]
fn vector_queries_serve_both_encodings_bit_identically() {
    let (_engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();

    // A sparse payload and its densified twin answer identically.
    let sparse_body =
        "{\"k\": 3, \"vector\": {\"dim\": 8, \"indices\": [1, 6], \"values\": [0.75, -1.25]}}";
    let dense_twin = "{\"k\": 3, \"vector\": [0, 0.75, 0, 0, 0, 0, -1.25, 0]}";
    let via_sparse = client
        .request("POST", "/vector-query", Some(sparse_body))
        .unwrap();
    let via_dense = client
        .request("POST", "/vector-query", Some(dense_twin))
        .unwrap();
    assert_eq!(via_sparse.status, 200, "{}", via_sparse.body);
    assert_eq!(via_dense.status, 200, "{}", via_dense.body);
    assert_eq!(
        wire_results(&via_sparse.body),
        wire_results(&via_dense.body),
        "sparse and dense encodings must be interchangeable on the wire"
    );
    // The default stack registers the sparse backend, which owns the
    // point-lookup path.
    let doc = json::parse(&via_dense.body).unwrap();
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some("Sparse-II"));

    // Typed errors reach the wire with their statuses.
    let cases = [
        ("{\"k\": 0, \"vector\": [0]}", "invalid k"),
        ("{\"k\": 1, \"vector\": [1, 2]}", "invalid query vector"),
        (
            "{\"k\": 1, \"vector\": {\"dim\": 8, \"indices\": [3, 1], \"values\": [1, 1]}}",
            "invalid sparse vector",
        ),
    ];
    for (body, fragment) in cases {
        let response = client.request("POST", "/vector-query", Some(body)).unwrap();
        assert_eq!(response.status, 400, "{body}: {}", response.body);
        let doc = json::parse(&response.body).unwrap();
        let message = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(fragment),
            "{body}: {message:?} should mention {fragment:?}"
        );
    }
    let wrong_method = client.request("GET", "/vector-query", None).unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
    http.shutdown().unwrap();
}

/// A finite vector whose inner products overflow used to panic the event
/// loop's thread (a vector query runs there): the client saw the
/// connection close mid-response and every later connect was reset. It is
/// a 400 now, and the server answers the next connection.
#[test]
fn a_vector_whose_scores_overflow_is_a_400_and_the_server_stays_up() {
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: 20,
        num_items: 30,
        num_factors: 4,
        seed: 5,
        ..SynthConfig::default()
    }));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine(&model))
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new().server(server).build().unwrap();
    let mut client = Client::connect(http.local_addr()).unwrap();
    let huge = "{\"k\": 3, \"vector\": [1.7e308, 1.7e308, 1.7e308, 1.7e308]}";
    let response = client.request("POST", "/vector-query", Some(huge)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    let doc = json::parse(&response.body).unwrap();
    let message = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("overflows"), "{message}");

    let mut fresh = Client::connect(http.local_addr()).unwrap();
    let fine = "{\"k\": 3, \"vector\": [1, 0.5, -2, 0.25]}";
    let response = fresh.request("POST", "/vector-query", Some(fine)).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(wire_results(&response.body)[0].0.len(), 3);
    http.shutdown().unwrap();
}

#[test]
fn a_forced_tier_is_announced_on_the_wire_and_counted_in_its_lanes() {
    // A forced tier changes how answers are computed — a screen, then the
    // exact f64 rescore — and both the response and /metrics must announce
    // the mode, with the screen work in that tier's lanes only. The engine
    // is pinned to BMM, which has a variant in every tier: with the full
    // registry OPTIMUS may hand a forced plan to a screenless backend, which
    // serves f64-direct and leaves the lanes empty.
    let model = model(80, 100, 11);
    for tier in ScreenTier::ALL {
        let precision = Precision::of_tier(Some(tier));
        let engine = Arc::new(
            EngineBuilder::new()
                .model(Arc::clone(&model))
                .register(BmmFactory)
                .precision(precision)
                .build()
                .unwrap(),
        );
        let plan = engine.prepare(5).unwrap();
        assert_eq!(plan.solver().name(), format!("Blocked MM{}", tier.suffix()));
        assert_eq!(plan.precision(), precision);
        let server = Arc::new(
            ServerBuilder::new()
                .engine(engine)
                .workers(2)
                .build()
                .unwrap(),
        );
        let http = HttpServerBuilder::new().server(server).build().unwrap();
        let mut client = Client::connect(http.local_addr()).unwrap();

        let wire = "{\"k\": 5, \"users\": [3, 0, 9, 3]}";
        let response = client.request("POST", "/query", Some(wire)).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(
            doc.get("precision").and_then(Json::as_str),
            Some(precision.as_str()),
            "the response must carry the serving plan's precision"
        );

        let metrics = client.request("GET", "/metrics", None).unwrap();
        let doc = json::parse(&metrics.body).unwrap();
        let server_side = doc.get("server").expect("server section");
        let counter = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(
            server_side.get("precision").and_then(Json::as_str),
            Some(precision.as_str())
        );
        let batches = format!("{}_batches", tier.name());
        assert!(
            counter(server_side, &batches) >= 1,
            "served batches must be attributed to the {tier:?} screen path"
        );
        let candidates = counter(server_side, &format!("screen_candidates_{}", tier.name()));
        let survivors = counter(server_side, &format!("screen_survivors_{}", tier.name()));
        assert!(
            candidates >= 1,
            "the {tier:?} screen must report evaluated scores"
        );
        assert!(survivors <= candidates);
        for idle in ScreenTier::ALL.into_iter().filter(|&t| t != tier) {
            let key = format!("screen_candidates_{}", idle.name());
            assert_eq!(counter(server_side, &key), 0, "{key} under {tier:?}");
        }
        http.shutdown().unwrap();
    }
}

#[test]
fn metrics_and_healthz_expose_the_rollup() {
    let (_engine, server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    for _ in 0..3 {
        let r = client
            .request("POST", "/query", Some("{\"k\": 2, \"users\": [1]}"))
            .unwrap();
        assert_eq!(r.status, 200);
    }
    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let doc = json::parse(&health.body).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(0));

    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let doc = json::parse(&metrics.body).unwrap();
    let server_side = doc.get("server").expect("server section");
    assert_eq!(server_side.get("completed").and_then(Json::as_u64), Some(3));
    // The wire schema, pinned whole: a key added to or dropped from the
    // `server` object has to change this list.
    let keys = |obj: &Json| -> Vec<String> {
        let fields = obj.as_obj().expect("a JSON object");
        fields.iter().map(|(key, _)| key.clone()).collect()
    };
    let server_keys = [
        "submitted",
        "completed",
        "rejected",
        "failed",
        "epoch",
        "precision",
        "swaps",
        "batches",
        "f32_batches",
        "i8_batches",
        "screen_candidates_f32",
        "screen_survivors_f32",
        "screen_candidates_i8",
        "screen_survivors_i8",
        "coalesced",
        "users_served",
        "busy_seconds",
        "mean_batch",
        "latency",
    ];
    assert_eq!(keys(server_side), server_keys);
    let net_side = doc.get("net").expect("net section");
    // The /metrics request itself is parsed before its response counts.
    assert!(
        net_side
            .get("http_requests")
            .and_then(Json::as_u64)
            .unwrap()
            >= 5
    );
    assert!(
        net_side
            .get("responses_2xx")
            .and_then(Json::as_u64)
            .unwrap()
            >= 4
    );
    assert_eq!(net_side.get("accepted").and_then(Json::as_u64), Some(1));

    // The in-process snapshot agrees with the wire counters.
    assert_eq!(server.metrics().completed, 3);
    assert!(http.metrics().http_requests >= 5);
    http.shutdown().unwrap();
}

#[test]
fn typed_errors_map_to_their_statuses_on_the_wire() {
    let (_engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    // (body, expected status, fragment of the error message)
    let cases = [
        ("{\"k\": 0}", 400, "invalid k"),
        ("{\"k\": 101}", 400, "invalid k"),
        ("{\"k\": 1, \"users\": [80]}", 400, "out of range"),
        ("{\"k\": 1, \"users\": []}", 400, "no users"),
        (
            "{\"k\": 1, \"exclude\": {\"0\": [100]}}",
            400,
            "out of range",
        ),
        ("{\"k\": 1, \"typo\": 1}", 400, "unknown field"),
        ("not json at all", 400, "invalid literal"),
        ("{\"k\": 1", 400, "expected ','"),
    ];
    for (body, status, fragment) in cases {
        let response = client.request("POST", "/query", Some(body)).unwrap();
        assert_eq!(response.status, status, "{body}: {}", response.body);
        let doc = json::parse(&response.body).unwrap();
        let message = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(fragment),
            "{body}: {message:?} should mention {fragment:?}"
        );
        assert_eq!(
            doc.get("status").and_then(Json::as_u64),
            Some(status as u64)
        );
    }
    // Routing errors.
    let missing = client.request("GET", "/nope", None).unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client.request("DELETE", "/query", Some("{}")).unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
    let wrong_get = client.request("POST", "/metrics", None).unwrap();
    assert_eq!(wrong_get.status, 405);
    assert_eq!(wrong_get.header("allow"), Some("GET"));
    // Swap without a configured source is 501, not a crash.
    let swap = client.request("POST", "/admin/swap", None).unwrap();
    assert_eq!(swap.status, 501);
    http.shutdown().unwrap();
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    let depth = 12;
    for i in 0..depth {
        client
            .send(
                "POST",
                "/query",
                Some(&format!(
                    "{{\"k\": {}, \"users\": [{}]}}",
                    i % 7 + 1,
                    i % 80
                )),
            )
            .unwrap();
    }
    for i in 0..depth {
        let response = client.recv().unwrap();
        assert_eq!(response.status, 200, "request {i}");
        let expected = engine
            .execute(&QueryRequest::top_k(i % 7 + 1).users(vec![i % 80]))
            .unwrap();
        let got = wire_results(&response.body);
        assert_eq!(
            got[0].0, expected.results[0].items,
            "request {i} out of order"
        );
    }
    http.shutdown().unwrap();
}

#[test]
fn malformed_http_is_refused_and_the_connection_condemned() {
    let (_engine, _server, http) = stack();
    // Garbage head.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client.send_raw(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let response = client.recv().unwrap();
    assert_eq!(response.status, 400);
    assert!(client.recv().is_err(), "connection must close after a 400");

    // Oversized declared body: refused from the header alone.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    assert_eq!(client.recv().unwrap().status, 413);

    // Chunked encoding: explicit 501.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    assert_eq!(client.recv().unwrap().status, 501);

    // EOF mid-request: 400, then close.
    let mut client = Client::connect(http.local_addr()).unwrap();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-")
        .unwrap();
    client.finish_writes().unwrap();
    assert_eq!(client.recv().unwrap().status, 400);
    assert!(client.recv().is_err());

    let net = http.metrics();
    assert!(net.parse_errors >= 4, "{net:?}");
    http.shutdown().unwrap();
}

#[test]
fn read_deadline_answers_408_for_stalled_requests() {
    let engine = engine(&model(40, 50, 3));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(server)
        .read_timeout(Duration::from_millis(80))
        .build()
        .unwrap();
    let mut client = Client::connect(http.local_addr()).unwrap();
    // A head that never finishes.
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"k")
        .unwrap();
    let started = Instant::now();
    let response = client.recv().unwrap();
    assert_eq!(response.status, 408);
    assert!(
        started.elapsed() >= Duration::from_millis(60),
        "the deadline must actually elapse"
    );
    assert!(client.recv().is_err(), "connection closes after the 408");
    assert!(http.metrics().timeouts >= 1);
    http.shutdown().unwrap();
}

#[test]
fn overload_answers_429_with_retry_after() {
    // One worker, a queue of two sub-requests, and a model big enough
    // that an all-users request holds the worker for a while.
    let engine = engine(&model(1200, 900, 5));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(1)
            .queue_capacity(2)
            .max_batch(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    // Occupy the worker and fill the queue from in-process submissions.
    let busy = server.submit(&QueryRequest::top_k(200)).unwrap();
    let queued_a = server.submit(&QueryRequest::top_k(200)).unwrap();
    let queued_b = server.submit(&QueryRequest::top_k(200)).unwrap();
    // The wire sees backpressure, not a blocking submit.
    let mut client = Client::connect(http.local_addr()).unwrap();
    let response = client
        .request("POST", "/query", Some("{\"k\": 1, \"users\": [0]}"))
        .unwrap();
    assert_eq!(response.status, 429, "{}", response.body);
    assert_eq!(response.header("retry-after"), Some("1"));
    let doc = json::parse(&response.body).unwrap();
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("overloaded"));
    // The refused request is visible in both metric rollups.
    assert!(http.metrics().rejected_overload >= 1);
    assert!(server.metrics().rejected >= 1);
    busy.wait().unwrap();
    queued_a.wait().unwrap();
    queued_b.wait().unwrap();
    // With the queue drained the same query is admitted.
    let response = client
        .request("POST", "/query", Some("{\"k\": 1, \"users\": [0]}"))
        .unwrap();
    assert_eq!(response.status, 200);
    http.shutdown().unwrap();
}

#[test]
fn connection_limit_sheds_with_503() {
    let (_engine, _server, http) = {
        let engine = engine(&model(40, 50, 7));
        let server = Arc::new(
            ServerBuilder::new()
                .engine(Arc::clone(&engine))
                .workers(1)
                .build()
                .unwrap(),
        );
        let http = HttpServerBuilder::new()
            .server(Arc::clone(&server))
            .max_connections(1)
            .build()
            .unwrap();
        (engine, server, http)
    };
    let mut first = Client::connect(http.local_addr()).unwrap();
    // Complete a request so the connection is registered before the next
    // connect races the accept loop.
    assert_eq!(first.request("GET", "/healthz", None).unwrap().status, 200);
    let mut second = Client::connect(http.local_addr()).unwrap();
    let shed = second.request("GET", "/healthz", None).unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    // The first connection keeps serving.
    assert_eq!(first.request("GET", "/healthz", None).unwrap().status, 200);
    assert!(http.metrics().shed >= 1);
    http.shutdown().unwrap();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let engine = engine(&model(900, 800, 9));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .build()
        .unwrap();
    let addr = http.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // A query that takes a macroscopic moment, in flight when shutdown
    // lands. The reader runs concurrently: draining a response larger
    // than the socket buffers requires a live reader on the other end.
    client.send("POST", "/query", Some("{\"k\": 400}")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let reader = std::thread::spawn(move || {
        let response = client.recv().unwrap();
        (response, client)
    });
    let net = http.shutdown().unwrap();
    // Drained, not dropped: the response was written before close.
    let (response, _client) = reader.join().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(wire_results(&response.body).len(), 900);
    assert_eq!(net.responses_2xx, 1);
    // The listener is gone: new connections are refused.
    assert!(Client::connect(addr).is_err());
}

// ---------------------------------------------------------------------------
// The sleeping loop: deadlines, ordering and shutdown with an event loop
// that blocks in a readiness wait instead of polling.
// ---------------------------------------------------------------------------

/// A stack whose only backend serves through BMM but holds any batch that
/// contains user 0 for `hold` first: 2 workers and `max_batch(1)`, so
/// a held request and a fast one run side by side.
fn slow_stub_stack(hold: Duration, net: HttpServerBuilder) -> (Arc<MipsServer>, HttpServer) {
    use mips_core::engine::FnFactory;
    use mips_core::solver::MipsSolver;
    use mips_topk::TopKList;
    use std::ops::Range;

    struct Slow {
        inner: mips_core::MaximusIndex,
        hold: Duration,
    }
    impl MipsSolver for Slow {
        fn name(&self) -> &str {
            "slow-stub"
        }
        fn build_seconds(&self) -> f64 {
            0.0
        }
        fn batches_users(&self) -> bool {
            true
        }
        fn num_users(&self) -> usize {
            self.inner.num_users()
        }
        fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
            if users.contains(&0) {
                std::thread::sleep(self.hold);
            }
            self.inner.query_range(k, users)
        }
        fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
            if users.contains(&0) {
                std::thread::sleep(self.hold);
            }
            self.inner.query_subset(k, users)
        }
    }
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model(30, 40, 21))
            .register(FnFactory::new("slow-stub", move |model: &Arc<MfModel>| {
                Ok(Box::new(Slow {
                    inner: mips_core::MaximusIndex::brute_force(Arc::clone(model)),
                    hold,
                }) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    );
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .workers(2)
            .max_batch(1)
            .build()
            .unwrap(),
    );
    let http = net.server(Arc::clone(&server)).build().unwrap();
    (server, http)
}

/// Whether the loop's readiness wait is the real thing. Off unix it is a
/// bounded sleep that retries every socket (`poll.rs`): every behaviour
/// below still holds there, the wake-up counts do not.
const LOOP_BLOCKS: bool = cfg!(unix);

/// `elapsed` is `expected` give or take the 100 ms a loaded host may add.
fn assert_close(elapsed: Duration, expected: Duration, what: &str) {
    let slack = Duration::from_millis(100);
    assert!(
        elapsed + slack >= expected && elapsed <= expected + slack,
        "{what}: {elapsed:?}, expected {expected:?} ± {slack:?}"
    );
}

#[test]
fn a_sleeping_loop_fires_the_read_deadline_on_time() {
    let read_timeout = Duration::from_millis(250);
    let (_server, http) = slow_stub_stack(
        Duration::ZERO,
        HttpServerBuilder::new().read_timeout(read_timeout),
    );
    let mut client = Client::connect(http.local_addr()).unwrap();
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    let before = http.metrics();
    let started = Instant::now();
    client
        .send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 30\r\n\r\n{\"k\": 2, ")
        .unwrap();
    let response = client.recv().unwrap();
    assert_eq!(response.status, 408);
    assert_close(
        started.elapsed(),
        read_timeout,
        "408 after the half-sent request",
    );
    assert!(client.recv().is_err(), "connection closes after the 408");
    let after = http.metrics();
    assert_eq!(after.timeouts - before.timeouts, 1);
    // The deadline came from the wait's timeout, not from looking often:
    // one wake-up for the bytes, one for the deadline, one for the close.
    assert!(
        !LOOP_BLOCKS || after.loop_wakeups - before.loop_wakeups <= 4,
        "{} wake-ups to serve one deadline",
        after.loop_wakeups - before.loop_wakeups
    );
    http.shutdown().unwrap();
}

#[test]
fn a_sleeping_loop_closes_idle_connections_at_the_idle_timeout() {
    let idle_timeout = Duration::from_millis(250);
    let (_server, http) = slow_stub_stack(
        Duration::ZERO,
        HttpServerBuilder::new().idle_timeout(idle_timeout),
    );
    let mut client = Client::connect(http.local_addr()).unwrap();
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    let started = Instant::now();
    // Nothing pending, nothing sent: the next thing the client sees is EOF.
    assert!(client.recv().is_err());
    assert_close(started.elapsed(), idle_timeout, "idle close");
    let net = http.shutdown().unwrap();
    assert_eq!((net.accepted, net.closed, net.timeouts), (1, 1, 0));
}

#[test]
fn a_sleeping_loop_condemns_a_peer_that_never_reads() {
    // A response far larger than the socket buffers, and a client that
    // sends the request and then never reads: the write stalls, nothing
    // ever becomes ready, and the write deadline has to come from the
    // wait's timeout.
    let engine = engine(&model(900, 800, 9));
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .workers(1)
            .build()
            .unwrap(),
    );
    let http = HttpServerBuilder::new()
        .server(server)
        .write_timeout(Duration::from_millis(200))
        .build()
        .unwrap();
    let mut client = Client::connect(http.local_addr()).unwrap();
    client.send("POST", "/query", Some("{\"k\": 400}")).unwrap();
    let started = Instant::now();
    while http.metrics().timeouts == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the stalled write was never condemned: {:?}",
            http.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let net = http.metrics();
    assert_eq!((net.timeouts, net.closed), (1, 1), "{net:?}");
    assert!(net.bytes_written > 0, "the write had started: {net:?}");
    assert!(
        !LOOP_BLOCKS || net.loop_wakeups < 100,
        "a stalled write must not make the loop spin: {net:?}"
    );
    drop(client);
    http.shutdown().unwrap();
}

#[test]
fn a_fast_second_request_waits_rendered_behind_a_slow_first() {
    let hold = Duration::from_millis(300);
    let (server, http) = slow_stub_stack(hold, HttpServerBuilder::new());
    let mut client = Client::connect(http.local_addr()).unwrap();
    // Plan k = 2 up front so neither timed request pays for planning.
    let warm = client
        .request("POST", "/query", Some("{\"k\": 2, \"users\": [5]}"))
        .unwrap();
    assert_eq!(warm.status, 200);

    let started = Instant::now();
    client
        .send("POST", "/query", Some("{\"k\": 2, \"users\": [0]}"))
        .unwrap();
    client
        .send("POST", "/query", Some("{\"k\": 2, \"users\": [9]}"))
        .unwrap();
    // Mid-hold: the second request is finished and rendered (a worker's
    // notifier did that), yet nothing has left — the first is still held.
    std::thread::sleep(hold / 2);
    assert_eq!(server.metrics().completed, 2, "warm-up + the fast request");
    assert_eq!(http.metrics().responses_2xx, 1, "only the warm-up has left");

    let first = client.recv().unwrap();
    let first_at = started.elapsed();
    let second = client.recv().unwrap();
    let second_at = started.elapsed();
    assert_eq!((first.status, second.status), (200, 200));
    // In request order: each response is the in-process answer for its own
    // user.
    for (response, user) in [(&first, 0), (&second, 9)] {
        let expect = server
            .engine()
            .execute(&QueryRequest::top_k(2).users(vec![user]))
            .unwrap();
        let expect_items: Vec<Vec<u32>> = expect.results.iter().map(|l| l.items.clone()).collect();
        let got_items: Vec<Vec<u32>> = wire_results(&response.body)
            .into_iter()
            .map(|(items, _)| items)
            .collect();
        assert_eq!(got_items, expect_items, "user {user}");
    }
    assert!(
        first_at >= hold,
        "the first response was held: {first_at:?}"
    );
    assert!(
        second_at - first_at < Duration::from_millis(100),
        "the second left with the first, not {:?} later",
        second_at - first_at
    );
    http.shutdown().unwrap();
}

#[test]
fn the_loop_sleeps_while_idle_and_while_a_request_is_with_the_workers() {
    let hold = Duration::from_millis(200);
    let (_server, http) = slow_stub_stack(hold, HttpServerBuilder::new());
    let mut client = Client::connect(http.local_addr()).unwrap();
    let warm = client
        .request("POST", "/query", Some("{\"k\": 2, \"users\": [5]}"))
        .unwrap();
    assert_eq!(warm.status, 200);

    // Counters are bumped just after the event they count (a worker may be
    // preempted between writing the wake socket and counting the byte), so
    // let them settle before each reading.
    let settled = || {
        std::thread::sleep(Duration::from_millis(50));
        http.metrics()
    };

    // An open keep-alive connection with nothing to say costs nothing.
    let before = settled();
    std::thread::sleep(Duration::from_millis(200));
    let idle = http.metrics();
    if !LOOP_BLOCKS {
        return;
    }
    assert_eq!(idle.loop_wakeups - before.loop_wakeups, 0, "the loop polls");
    assert_eq!(idle.completion_wakes - before.completion_wakes, 0);

    // One request held 200 ms by the backend: a wake-up for its bytes, one
    // for its completion — not one per millisecond of waiting.
    let response = client
        .request("POST", "/query", Some("{\"k\": 2, \"users\": [0]}"))
        .unwrap();
    assert_eq!(response.status, 200);
    let after = settled();
    let wakeups = after.loop_wakeups - idle.loop_wakeups;
    assert!(
        (1..=4).contains(&wakeups),
        "{wakeups} wake-ups for one held request"
    );
    assert_eq!(
        after.completion_wakes - idle.completion_wakes,
        1,
        "the finishing worker found the loop asleep and woke it once"
    );
    // Both counters are on the wire, too.
    let doc = json::parse(&client.request("GET", "/metrics", None).unwrap().body).unwrap();
    let net = doc.get("net").unwrap();
    assert!(net.get("loop_wakeups").and_then(Json::as_u64).unwrap() >= after.loop_wakeups);
    assert!(net.get("completion_wakes").and_then(Json::as_u64).unwrap() >= after.completion_wakes);
    http.shutdown().unwrap();
}

#[test]
fn shutdown_wakes_a_sleeping_loop_at_once() {
    let (_engine, _server, http) = stack();
    let mut client = Client::connect(http.local_addr()).unwrap();
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    // The loop now sleeps with the 30 s idle deadline as its timeout.
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let net = http.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "shutdown waited out the loop's sleep: {:?}",
        started.elapsed()
    );
    assert_eq!((net.accepted, net.closed), (1, 1), "{net:?}");
    assert!(client.recv().is_err(), "the idle connection was closed");
}
