//! Swap-under-load stress suite for the serving runtime.
//!
//! The load-bearing properties of hot model swap:
//!
//! * **Per-epoch bit-identity.** Every response reports the model epoch it
//!   was served from, and its results are bit-identical to a sequential
//!   `Engine::execute` on a fresh engine holding that epoch's model — no
//!   matter how many swaps landed while the request was in flight.
//! * **Zero lost or failed requests.** Swaps (including ones that change
//!   `num_users`, so all-user requests are cut differently) never drop,
//!   fail, or wedge a request, and never set a cumulative counter back.
//! * **Old epochs are reclaimed.** Once the last in-flight request of an
//!   epoch completes after a swap, nothing keeps the old model (or its
//!   derived indexes and plans) alive — no further admission needed.
//!
//! A single-backend (BMM) engine is used throughout so the planning
//! decision is deterministic and a fresh reference engine on the same
//! model is guaranteed to serve bit-identically.

use mips_core::engine::{BmmFactory, Engine, EngineBuilder, ExclusionSet, QueryRequest};
use mips_core::serve::ServerBuilder;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_topk::TopKList;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn model(users: usize, items: usize, seed: u64) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: items,
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

/// A request corpus valid on **every** model of the rotation: users and
/// exclusions stay inside the smallest user/item counts, while all-user
/// requests adapt to each epoch's size by construction.
fn swap_corpus(min_users: usize, min_items: usize) -> Vec<QueryRequest> {
    let mut exclusions = ExclusionSet::new();
    for u in [0, min_users / 2, min_users - 1] {
        for item in 0..5u32 {
            exclusions.insert(u, item * 2);
        }
    }
    let exclusions = Arc::new(exclusions);
    vec![
        QueryRequest::top_k(1),
        QueryRequest::top_k(5),
        QueryRequest::top_k(min_items),
        QueryRequest::top_k(3).users_range(0..min_users),
        QueryRequest::top_k(4).users_range(min_users / 2 - 1..min_users / 2 + 2),
        QueryRequest::top_k(2).users(vec![min_users - 1, 0, min_users / 2, 0]),
        QueryRequest::top_k(6).users(vec![1, 1, min_users - 1]),
        QueryRequest::top_k(5).exclude(Arc::clone(&exclusions)),
        QueryRequest::top_k(2)
            .users(vec![0, min_users - 1])
            .exclude(exclusions),
    ]
}

#[test]
fn swap_under_load_is_bit_identical_per_epoch_with_zero_lost_requests() {
    // Three models, rotated under load: B shrinks the user count (cutting
    // all-user requests differently), C changes the catalog size.
    let models = [model(97, 120, 42), model(61, 120, 7), model(97, 90, 13)];
    let min_users = 61;
    let min_items = 90;
    let corpus = swap_corpus(min_users, min_items);

    // Expected results per model, from fresh sequential engines.
    let expected: Vec<Vec<Vec<TopKList>>> = models
        .iter()
        .map(|m| {
            let reference = bmm_engine(m);
            corpus
                .iter()
                .map(|request| reference.execute(request).unwrap().results)
                .collect()
        })
        .collect();

    let engine = bmm_engine(&models[0]);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(3)
        .max_batch(8)
        .build()
        .unwrap();

    // Epoch id -> model index, fed by the swapper as swaps are accepted.
    let epoch_models = Mutex::new(vec![(engine.epoch(), 0usize)]);
    let done = AtomicBool::new(false);

    const SUBMITTERS: usize = 4;
    const PASSES: usize = 4;
    let total = SUBMITTERS * PASSES * corpus.len();
    let observed: Mutex<Vec<(usize, u64, Vec<TopKList>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // The swapper: rotate through the models until the load finishes.
        scope.spawn(|| {
            let mut next = 1usize;
            while !done.load(Ordering::Relaxed) {
                let id = engine.swap_model(Arc::clone(&models[next])).unwrap();
                epoch_models.lock().unwrap().push((id, next));
                next = (next + 1) % models.len();
                std::thread::sleep(Duration::from_millis(1));
            }
        });

        for t in 0..SUBMITTERS {
            let server = &server;
            let corpus = &corpus;
            let observed = &observed;
            scope.spawn(move || {
                let mut mine = Vec::new();
                for pass in 0..PASSES {
                    let mut handles = Vec::new();
                    for i in 0..corpus.len() {
                        let idx = (i * 5 + t + pass) % corpus.len();
                        handles.push((idx, server.submit(&corpus[idx]).unwrap()));
                    }
                    for (idx, handle) in handles {
                        let response = handle.wait().unwrap();
                        mine.push((idx, response.epoch, response.results));
                    }
                }
                observed.lock().unwrap().extend(mine);
            });
        }

        // Stop the swapper once all requests have completed. (The scope
        // only joins after this closure returns, so completion is flagged
        // from a watcher thread.)
        let server_ref = &server;
        let done_ref = &done;
        scope.spawn(move || {
            while server_ref.metrics().completed < total as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            done_ref.store(true, Ordering::Relaxed);
        });
    });

    // Every response matches the sequential reference for the epoch it
    // reports serving from — down to the bit.
    let epoch_models = epoch_models.into_inner().unwrap();
    let model_of = |epoch: u64| -> usize {
        epoch_models
            .iter()
            .find(|&&(id, _)| id == epoch)
            .unwrap_or_else(|| panic!("response reported unknown epoch {epoch}"))
            .1
    };
    let observed = observed.into_inner().unwrap();
    let total = SUBMITTERS * PASSES * corpus.len();
    assert_eq!(observed.len(), total, "every request returned");
    for (idx, epoch, results) in &observed {
        let m = model_of(*epoch);
        assert_eq!(
            results, &expected[m][*idx],
            "request {idx} diverged from the sequential engine on epoch {epoch} (model {m})"
        );
    }

    // Nothing was lost, rejected, or failed; the server observed swaps.
    let metrics = server.metrics();
    assert_eq!(metrics.submitted, total as u64);
    assert_eq!(metrics.completed, total as u64);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.latency.count, metrics.completed);
    assert!(
        metrics.swaps >= 1,
        "the runtime must have picked up at least one swap"
    );
    assert!(engine.swap_count() >= metrics.swaps);
    server.shutdown().unwrap();
}

#[test]
fn swaps_that_change_num_users_recut_the_requests() {
    let big = model(90, 40, 1);
    let small = model(33, 40, 2);
    let engine = bmm_engine(&big);
    // Two workers, 16-user batches: 90 users are cut into 2 pieces, 33
    // users into 2, 4 users not at all.
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(2)
        .max_batch(16)
        .build()
        .unwrap();

    // Two requests before the swap, one after: a counter reset by the
    // swap would read lower after it than before it.
    let before = server.execute(&QueryRequest::top_k(3)).unwrap();
    assert_eq!(before.results.len(), 90);
    server.execute(&QueryRequest::top_k(3)).unwrap();
    let before_swap = server.metrics();
    assert_eq!(before_swap.epoch, 0);
    assert_eq!(before_swap.batches, 4, "two pieces per 90-user request");

    engine.swap_model(Arc::clone(&small)).unwrap();
    let after = server.execute(&QueryRequest::top_k(3)).unwrap();
    assert_eq!(after.results.len(), 33, "the new epoch has 33 users");
    assert_eq!(after.epoch, 1);
    let metrics = server.metrics();
    assert_eq!(metrics.epoch, 1);
    assert_eq!(metrics.swaps, 1);
    // Identity against a fresh sequential engine on the new model.
    assert_eq!(
        after.results,
        bmm_engine(&small)
            .execute(&QueryRequest::top_k(3))
            .unwrap()
            .results
    );

    // The totals keep counting across the swap: every request since build
    // and every user each one selected, one solver call per piece.
    assert_eq!((metrics.submitted, metrics.completed), (3, 3));
    assert_eq!(metrics.users_served, 90 + 90 + 33);
    assert!(metrics.batches >= before_swap.batches);
    assert!(metrics.coalesced >= before_swap.coalesced);
    assert_eq!(metrics.batches, 2 + 2 + 2, "one solver call per piece");

    // A model with fewer users than one batch holds is served whole.
    engine.swap_model(model(4, 40, 3)).unwrap();
    let tiny = server.execute(&QueryRequest::top_k(3)).unwrap();
    assert_eq!(tiny.results.len(), 4);
    let metrics = server.metrics();
    assert_eq!(metrics.batches, 7);
    assert_eq!(metrics.users_served, 90 + 90 + 33 + 4);
    assert_eq!((metrics.submitted, metrics.completed), (4, 4));
    server.shutdown().unwrap();
}

#[test]
fn old_epochs_become_unreachable_after_the_last_in_flight_request() {
    let old_model = model(40, 30, 3);
    let weak_old = Arc::downgrade(&old_model);
    let engine = bmm_engine(&old_model);
    drop(old_model); // the engine's epoch now holds the only strong refs

    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(2)
        .build()
        .unwrap();
    // Serve on epoch 0: builds the solver and the plan that pin the old
    // model.
    server.execute(&QueryRequest::top_k(4)).unwrap();
    assert!(
        weak_old.upgrade().is_some(),
        "epoch 0 is live while current"
    );

    engine.swap_model(model(52, 30, 4)).unwrap();
    // With no in-flight epoch-0 work, every derived structure of epoch 0
    // (model, BMM solver, prepared plan) must drop — before any request is
    // admitted on epoch 1. Poll briefly: the last worker may still be
    // releasing its locals.
    let mut reclaimed = false;
    for _ in 0..200 {
        if weak_old.upgrade().is_none() {
            reclaimed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        reclaimed,
        "old epoch still reachable after swap + drained traffic"
    );
    // The server keeps serving the new epoch.
    let response = server.execute(&QueryRequest::top_k(2)).unwrap();
    assert_eq!(response.results.len(), 52);
    assert_eq!(response.epoch, 1);
    server.shutdown().unwrap();
}

#[test]
fn direct_engine_traffic_and_server_traffic_agree_across_swaps() {
    // The server fronts the engine; both paths must see the same epoch
    // stream and identical results on it.
    let a = model(48, 36, 5);
    let b = model(48, 36, 6);
    let engine = bmm_engine(&a);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(2)
        .build()
        .unwrap();
    let request = QueryRequest::top_k(5);
    let direct = engine.execute(&request).unwrap();
    let served = server.execute(&request).unwrap();
    assert_eq!(direct.results, served.results);
    assert_eq!(direct.epoch, served.epoch);

    engine.swap_model(Arc::clone(&b)).unwrap();
    let direct = engine.execute(&request).unwrap();
    let served = server.execute(&request).unwrap();
    assert_eq!(direct.results, served.results);
    assert_eq!(direct.epoch, 1);
    assert_eq!(served.epoch, 1);
    server.shutdown().unwrap();
}
