//! The network front door, end to end: boot an HTTP server over the
//! serving runtime, query it over a real loopback socket, read the metrics
//! rollup, hot-swap the model through the admin endpoint (in-flight
//! requests drain on their pinned epoch), and shut down cleanly.
//!
//! ```sh
//! cargo run --release --example http_serving
//! ```
//!
//! The example exits nonzero on any unexpected response, so CI runs it as
//! the loopback smoke test for the whole wire stack: HTTP parsing, JSON
//! codec, admission control, the swap path, and graceful shutdown.

use optimus_maximus::net::client::Client;
use optimus_maximus::net::json::{self, Json};
use optimus_maximus::prelude::*;
use std::sync::Arc;

fn main() {
    // --- 1. A model, an engine, a serving runtime. ---
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: 400,
        num_items: 300,
        num_factors: 16,
        seed: 7,
        ..SynthConfig::default()
    }));
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&model))
            .with_default_backends()
            .build()
            .expect("engine assembles"),
    );
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .workers(2)
            .build()
            .expect("server assembles"),
    );

    // --- 2. The front door: ephemeral port, a swap source for /admin/swap. ---
    let retrained = Arc::new(synth_model(&SynthConfig {
        num_users: 400,
        num_items: 300,
        num_factors: 16,
        seed: 8, // "retrained": same shape, new factors
        ..SynthConfig::default()
    }));
    let swap_model = Arc::clone(&retrained);
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .swap_source(move || Ok(Arc::clone(&swap_model)))
        .build()
        .expect("front door binds");
    println!("serving on http://{}", http.local_addr());

    // --- 3. A query over the wire. ---
    let mut client = Client::connect(http.local_addr()).expect("connect");
    let response = client
        .request("POST", "/query", Some("{\"k\": 5, \"users\": [0, 7, 42]}"))
        .expect("query round trip");
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = json::parse(&response.body).expect("valid response JSON");
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 3);
    println!(
        "top-5 for user 0 (epoch {}, backend {}): {}",
        doc.get("epoch").and_then(Json::as_u64).unwrap(),
        doc.get("backend").and_then(Json::as_str).unwrap(),
        results[0]
            .get("items")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|i| i.as_u64().unwrap().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- 4. Bad requests are typed 4xx, not hangs or panics. ---
    let bad = client
        .request("POST", "/query", Some("{\"k\": 0}"))
        .expect("error round trip");
    assert_eq!(bad.status, 400);
    println!(
        "k=0 answers {}: {}",
        bad.status,
        json::parse(&bad.body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
    );

    // --- 5. The metrics rollup, served as JSON. ---
    let metrics = client.request("GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.status, 200);
    let doc = json::parse(&metrics.body).expect("valid metrics JSON");
    let completed = doc
        .get("server")
        .and_then(|s| s.get("completed"))
        .and_then(Json::as_u64)
        .expect("server.completed");
    let accepted = doc
        .get("net")
        .and_then(|n| n.get("accepted"))
        .and_then(Json::as_u64)
        .expect("net.accepted");
    println!("metrics: {completed} completed, {accepted} connection(s) accepted");

    // --- 6. Hot swap through the admin endpoint. ---
    let swap = client
        .request("POST", "/admin/swap", None)
        .expect("swap round trip");
    assert_eq!(swap.status, 200, "{}", swap.body);
    let doc = json::parse(&swap.body).expect("valid swap JSON");
    let epoch = doc.get("epoch").and_then(Json::as_u64).expect("new epoch");
    println!("swapped to epoch {epoch} (graceful: in-flight requests finish on their old epoch)");

    // New queries see the new epoch.
    let response = client
        .request("POST", "/query", Some("{\"k\": 5, \"users\": [0]}"))
        .expect("post-swap query");
    assert_eq!(response.status, 200);
    let served_epoch = json::parse(&response.body)
        .unwrap()
        .get("epoch")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(served_epoch, epoch, "new admissions serve the new model");

    // --- 7. Clean shutdown: drain, close, report. ---
    let net = http.shutdown().expect("clean shutdown");
    assert_eq!(net.responses_5xx, 0, "no server errors during the tour");
    println!(
        "shutdown: {} request(s), {} responses 2xx, {} rejected, {} swap(s)",
        net.http_requests, net.responses_2xx, net.rejected_overload, net.admin_swaps
    );
}
