//! Serving concurrent traffic: the worker pool with micro-batching.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Where the other examples call `Engine::execute` one request at a time,
//! this one stands up a `MipsServer` — a worker pool behind a bounded
//! submission queue — and pushes a flood of single-user requests through
//! it, then reads the runtime's own metrics back: throughput, p50/p99
//! latency, and how much the micro-batcher coalesced.

use optimus_maximus::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), MipsError> {
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: 3000,
        num_items: 2000,
        num_factors: 64,
        ..SynthConfig::default()
    }));

    // The engine stays the single source of truth: model, backends, and
    // the OPTIMUS planner. The server *fronts* it, so direct
    // `engine.execute` calls and served traffic share plans and solvers.
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&model))
            .with_default_backends()
            .build()?,
    );

    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(4) // persistent pool; any worker serves any user
        .queue_capacity(1024) // backpressure bound, in sub-requests
        .max_batch(32) // most users one coalesced solver call may carry
        .build()?;
    println!("server: {server:?}\n");

    // A flood of single-user requests from four front-end threads — the
    // traffic shape that makes per-request dispatch slowest, and that the
    // micro-batcher coalesces back into batched GEMM.
    let requests = 2000usize;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let server = &server;
            scope.spawn(move || {
                for i in 0..requests / 4 {
                    let user = (t + 4 * i * 7) % 3000;
                    let response = server
                        .execute(&QueryRequest::top_k(10).users(vec![user]))
                        .expect("serves");
                    assert_eq!(response.results.len(), 1);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    let metrics = server.metrics();
    println!(
        "served {} requests in {:.2}s — {:.0} req/s",
        metrics.completed,
        elapsed,
        requests as f64 / elapsed
    );
    println!(
        "latency: p50 {:.0}us  p99 {:.0}us  max {:.0}us",
        metrics.latency.p50_us, metrics.latency.p99_us, metrics.latency.max_us
    );
    println!(
        "micro-batching: {} solver calls for {} users ({:.1} per batch, {} requests coalesced), busy {:.2}s",
        metrics.batches,
        metrics.users_served,
        metrics.mean_batch_size(),
        metrics.coalesced,
        metrics.busy_seconds
    );

    // A request over more than `max_batch` users is cut into one piece per
    // worker, served in parallel and reassembled invisibly — the response
    // is bit-identical to a sequential engine call, for a range and for an
    // id list with repeats alike.
    let large = [
        QueryRequest::top_k(5),
        QueryRequest::top_k(5).users((0..3000).step_by(7).chain([6, 6, 0]).collect::<Vec<_>>()),
    ];
    for request in &large {
        let before = server.metrics().batches;
        let served = server.execute(request)?;
        let sequential = engine.execute(request)?;
        assert_eq!(served.results, sequential.results);
        println!(
            "\n{}-user request in {} pieces matches Engine::execute exactly",
            served.results.len(),
            server.metrics().batches - before
        );
    }

    // Backpressure is a typed error, not a hang: `try_submit` bounces when
    // the bounded queue is full.
    match server.try_submit(&QueryRequest::top_k(5)) {
        Ok(handle) => {
            handle.wait()?;
            println!("try_submit accepted (queue had room)");
        }
        Err(MipsError::ServerOverloaded { capacity }) => {
            println!("bounced by backpressure at capacity {capacity}");
        }
        Err(other) => return Err(other),
    }

    // Hot model swap: a "retrained" model (here: a different seed, and
    // more users) rolls in atomically
    // while the server keeps serving. Requests in flight at the swap
    // finish on the epoch they started under; new requests see the new
    // model and report its epoch.
    let retrained = Arc::new(synth_model(&SynthConfig {
        num_users: 4000,
        num_items: 2000,
        num_factors: 64,
        seed: 7,
        ..SynthConfig::default()
    }));
    let new_epoch = engine.swap_model(Arc::clone(&retrained))?;
    let response = server.execute(&QueryRequest::top_k(10).users(vec![3500]))?;
    println!(
        "\nswapped to epoch {new_epoch}: user 3500 (new in this model) served \
         from epoch {} via {}",
        response.epoch, response.backend
    );
    let metrics = server.metrics();
    println!(
        "server followed the swap: epoch {}, {} swap(s)",
        metrics.epoch, metrics.swaps
    );
    Ok(())
}
