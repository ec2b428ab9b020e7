//! Serving concurrent traffic: the sharded runtime with micro-batching.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Where the other examples call `Engine::execute` one request at a time,
//! this one stands up a `MipsServer` — user shards, a worker pool, a
//! bounded submission queue — and pushes a flood of single-user requests
//! through it, then reads the runtime's own metrics back: throughput,
//! p50/p99 latency, and how much the micro-batcher coalesced.

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
        .shards(4) // contiguous user ranges, each with its own counters
        .workers(4) // persistent pool; any worker serves any shard
        .queue_capacity(1024) // backpressure bound, in sub-requests
        .max_batch(32) // most users one coalesced solver call may carry
        .build()?;
    println!("server: {server:?}");
    println!("shard bounds: {:?}\n", server.shard_bounds());

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
        "micro-batching: {} solver calls for {} sub-requests ({:.1} per batch)",
        metrics.batches(),
        metrics.completed,
        metrics.mean_batch_size()
    );
    for shard in &metrics.shards {
        println!(
            "  shard {} (users {:?}): {} sub-requests, {} batches, busy {:.2}s",
            shard.shard, shard.users, shard.completed, shard.batches, shard.busy_seconds
        );
    }

    // Requests that straddle shards are split and reassembled invisibly —
    // the response is bit-identical to a sequential engine call.
    let everyone = server.execute(&QueryRequest::top_k(5))?;
    let sequential = engine.execute(&QueryRequest::top_k(5))?;
    assert_eq!(everyone.results, sequential.results);
    println!("\nall-users request across shards matches Engine::execute exactly");

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
    // more users — the server re-chunks its shards) rolls in atomically
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
        "server followed the swap: epoch {}, {} swap(s), shard bounds now {:?}",
        metrics.epoch,
        metrics.swaps,
        server.shard_bounds()
    );
    Ok(())
}
