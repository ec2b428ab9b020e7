//! Wire-level graceful drain: `POST /admin/swap` rotates models while
//! client threads keep querying over real sockets.
//!
//! This extends the `serve_swap.rs` guarantees to the HTTP boundary:
//!
//! * **Zero failed requests.** Every query issued across ≥ 3 hot swaps
//!   answers `200` — no 5xx, no dropped connections, no wedged reads.
//! * **Per-epoch bit-identity.** Each response carries the epoch it was
//!   served from, and its items and score *bits* equal a sequential
//!   `Engine::execute` on a fresh single-backend engine holding that
//!   epoch's model — the socket adds framing, never drift.
//!
//! A BMM-only engine keeps planning deterministic so fresh reference
//! engines are guaranteed bit-identical per model.

use mips_core::engine::{BmmFactory, Engine, EngineBuilder, QueryRequest};
use mips_core::serve::ServerBuilder;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_net::client::Client;
use mips_net::json::{self, Json};
use mips_net::HttpServerBuilder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const USERS: usize = 50;
const ITEMS: usize = 60;

fn model(seed: u64) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: USERS,
        num_items: ITEMS,
        num_factors: 8,
        seed,
        ..SynthConfig::default()
    }))
}

fn bmm_engine(model: &Arc<MfModel>) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(model))
            .register(BmmFactory)
            .build()
            .unwrap(),
    )
}

/// Wire bodies paired with the equivalent in-process request; every entry
/// is valid on every model of the rotation (same user/item counts).
fn corpus() -> Vec<(String, QueryRequest)> {
    vec![
        ("{\"k\": 1}".into(), QueryRequest::top_k(1)),
        ("{\"k\": 7}".into(), QueryRequest::top_k(7)),
        (
            format!("{{\"k\": 3, \"users\": {{\"range\": [0, {USERS}]}}}}"),
            QueryRequest::top_k(3).users_range(0..USERS),
        ),
        (
            format!("{{\"k\": 2, \"users\": [{}, 0, {}]}}", USERS - 1, USERS / 2),
            QueryRequest::top_k(2).users(vec![USERS - 1, 0, USERS / 2]),
        ),
        (
            "{\"k\": 5, \"users\": [3], \"exclude\": {\"3\": [0, 2, 4, 6, 8]}}".into(),
            QueryRequest::top_k(5).users(vec![3]).exclude(
                mips_core::engine::ExclusionSet::from_pairs((0..5u32).map(|i| (3usize, i * 2))),
            ),
        ),
        (
            format!("{{\"k\": {ITEMS}, \"users\": [9]}}"),
            QueryRequest::top_k(ITEMS).users(vec![9]),
        ),
    ]
}

/// One observed wire answer: which corpus entry, which epoch served it,
/// and the exact payload bits.
struct Observed {
    corpus_index: usize,
    epoch: u64,
    results: Vec<(Vec<u32>, Vec<u64>)>,
}

fn decode_observed(corpus_index: usize, body: &str) -> Observed {
    let doc = json::parse(body).unwrap();
    let epoch = doc
        .get("epoch")
        .and_then(Json::as_u64)
        .expect("epoch field");
    let results = doc
        .get("results")
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
        .collect();
    Observed {
        corpus_index,
        epoch,
        results,
    }
}

#[test]
fn wire_queries_survive_hot_swaps_bit_identically() {
    const SWAPS: usize = 4;
    const CLIENT_THREADS: usize = 4;
    const BURST: usize = 6;

    let models: Vec<Arc<MfModel>> = vec![model(0xA), model(0xB), model(0xC)];
    let engine = bmm_engine(&models[0]);
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .workers(2)
            .build()
            .unwrap(),
    );

    // The swap source rotates through the models and records each pick;
    // swaps are serialized on one admin connection, so the i-th recorded
    // pick corresponds to the i-th swap response (and its epoch).
    let picked: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let source_models = models.clone();
    let source_picked = Arc::clone(&picked);
    let http = HttpServerBuilder::new()
        .server(Arc::clone(&server))
        .swap_source(move || {
            let mut picked = source_picked.lock().unwrap();
            let index = (picked.len() + 1) % source_models.len();
            picked.push(index);
            Ok(Arc::clone(&source_models[index]))
        })
        .build()
        .unwrap();
    let addr = http.local_addr();

    let corpus: Arc<Vec<(String, QueryRequest)>> = Arc::new(corpus());
    let stop = Arc::new(AtomicBool::new(false));

    // Query threads: pipelined bursts over keep-alive connections for the
    // whole swap storm.
    let mut workers = Vec::new();
    for thread_id in 0..CLIENT_THREADS {
        let corpus = Arc::clone(&corpus);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut observed = Vec::new();
            let mut cursor = thread_id; // de-phase the threads
            while !stop.load(Ordering::Acquire) {
                let burst: Vec<usize> = (0..BURST).map(|i| (cursor + i) % corpus.len()).collect();
                cursor += BURST;
                for &index in &burst {
                    client
                        .send("POST", "/query", Some(&corpus[index].0))
                        .unwrap();
                }
                for &index in &burst {
                    let response = client.recv().unwrap();
                    assert_eq!(
                        response.status, 200,
                        "request must never fail during a swap: {}",
                        response.body
                    );
                    observed.push(decode_observed(index, &response.body));
                }
            }
            observed
        }));
    }

    // Admin thread: ≥ 3 swaps through the HTTP surface, paced so queries
    // land before, between, and after swaps.
    let swap_epochs: Vec<u64> = {
        let mut client = Client::connect(addr).unwrap();
        let mut epochs = Vec::new();
        for _ in 0..SWAPS {
            std::thread::sleep(Duration::from_millis(40));
            let response = client.request("POST", "/admin/swap", None).unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
            let doc = json::parse(&response.body).unwrap();
            assert_eq!(doc.get("swapped"), Some(&Json::Bool(true)));
            epochs.push(doc.get("epoch").and_then(Json::as_u64).unwrap());
        }
        std::thread::sleep(Duration::from_millis(40));
        epochs
    };
    stop.store(true, Ordering::Release);
    let observed: Vec<Observed> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();

    // Epoch → model map: epoch 0 is the boot model, each swap response's
    // epoch maps to the model its source call picked.
    let picked = picked.lock().unwrap();
    assert_eq!(picked.len(), SWAPS);
    let mut epoch_models: HashMap<u64, Arc<MfModel>> = HashMap::new();
    epoch_models.insert(0, Arc::clone(&models[0]));
    for (epoch, &pick) in swap_epochs.iter().zip(picked.iter()) {
        epoch_models.insert(*epoch, Arc::clone(&models[pick]));
    }

    // Every observed response replays bit-identically on a fresh engine
    // holding that epoch's model.
    let mut references: HashMap<u64, Arc<Engine>> = HashMap::new();
    let mut seen_epochs = std::collections::HashSet::new();
    assert!(!observed.is_empty());
    for obs in &observed {
        seen_epochs.insert(obs.epoch);
        let reference = references.entry(obs.epoch).or_insert_with(|| {
            bmm_engine(
                epoch_models
                    .get(&obs.epoch)
                    .unwrap_or_else(|| panic!("unknown epoch {}", obs.epoch)),
            )
        });
        let expected = reference.execute(&corpus[obs.corpus_index].1).unwrap();
        assert_eq!(obs.results.len(), expected.results.len());
        for (got, want) in obs.results.iter().zip(&expected.results) {
            assert_eq!(got.0, want.items, "epoch {}", obs.epoch);
            let want_bits: Vec<u64> = want.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(
                got.1, want_bits,
                "epoch {}: score bits must match a fresh engine",
                obs.epoch
            );
        }
    }
    // The storm actually spanned epochs (boot + at least one swapped).
    assert!(
        seen_epochs.len() >= 2,
        "queries should observe multiple epochs, saw {seen_epochs:?}"
    );

    // Nothing failed anywhere in the stack.
    let server_metrics = server.metrics();
    assert_eq!(server_metrics.failed, 0);
    assert_eq!(server_metrics.rejected, 0);
    assert_eq!(server_metrics.swaps, SWAPS as u64);
    let net = http.shutdown().unwrap();
    assert_eq!(net.responses_5xx, 0);
    assert_eq!(net.admin_swaps, SWAPS as u64);
    assert_eq!(net.responses_2xx as usize, observed.len() + SWAPS);
}
