//! The concurrent serving runtime: many requests, many cores, one model.
//!
//! [`crate::engine`] serves one request at a time inside a blocking call.
//! This module turns that library into a traffic-serving system, the
//! ROADMAP's "millions of users" north star:
//!
//! * **A persistent worker pool** fed by a bounded multi-producer
//!   submission queue. [`MipsServer::submit`] applies backpressure by
//!   blocking; [`MipsServer::try_submit`] bounces with
//!   [`MipsError::ServerOverloaded`] instead. Every solver is built once
//!   over the whole model, and every
//!   [`PreparedPlan`](crate::engine::PreparedPlan) once per `k`, traffic
//!   class and epoch; all workers share both.
//! * **Dynamic micro-batching.** Queued single-user/small requests under
//!   the same `(epoch, k)` coalesce into one batched solver call — the
//!   paper's batched-GEMM amortization applied to concurrent traffic.
//!   A worker takes whatever matching work is already queued, up to
//!   [`ServerBuilder::max_batch`] users, and never waits for more.
//! * **Parallel large requests.** A request over more than `max_batch`
//!   users is cut into at most one contiguous piece per worker (the
//!   paper's Fig. 6 partitioning), served in parallel and reassembled in
//!   request order — id lists with repeats and exclusion sets included.
//!   A cut request is admitted all or nothing.
//! * **Observability.** Throughput, solver-work and latency counters,
//!   including request-level p50/p99, via [`MipsServer::metrics`].
//! * **Hot model swap.** [`Engine::swap_model`] on the fronted engine is
//!   picked up without restarting the server: each request pins the epoch
//!   current at submission, is split on that epoch's users, and is served
//!   on it end to end; the epoch is freed when its last in-flight
//!   sub-request settles. The micro-batcher never coalesces across epochs,
//!   and [`ServerMetrics`] reports the current epoch and the swaps since
//!   the server was built.
//!
//! Results are bit-identical to sequential [`Engine::execute`] calls; the
//! concurrency is invisible except in the clock.
//!
//! ```
//! use mips_core::engine::{EngineBuilder, QueryRequest};
//! use mips_core::serve::ServerBuilder;
//! use mips_data::synth::{synth_model, SynthConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 120, num_items: 200, num_factors: 8,
//!     ..SynthConfig::default()
//! }));
//! let engine = Arc::new(
//!     EngineBuilder::new().model(model).with_default_backends().build().unwrap(),
//! );
//! let server = ServerBuilder::new()
//!     .engine(engine)
//!     .workers(2)
//!     .build()
//!     .unwrap();
//! // Submit a few requests concurrently, then wait on each.
//! let handles: Vec<_> = (0..8)
//!     .map(|u| server.submit(&QueryRequest::top_k(5).users(vec![u])).unwrap())
//!     .collect();
//! for handle in handles {
//!     assert_eq!(handle.wait().unwrap().results.len(), 1);
//! }
//! assert_eq!(server.metrics().completed, 8);
//! ```

pub(crate) mod batcher;
mod gate;
pub(crate) mod metrics;
pub(crate) mod queue;
pub(crate) mod split;
mod worker;

pub use gate::WakeGate;
pub use metrics::{
    escape_json, JsonWriter, LatencyHistogram, LatencySnapshot, ServerMetrics, ShardMetrics,
    TierLaneMetrics, TierLanes,
};

use crate::engine::{Engine, MipsError, QueryRequest, QueryResponse};
use crate::sync::atomic::Ordering;
use crate::sync::thread::JoinHandle;
use crate::sync::Arc;
use metrics::ServerCounters;
use queue::SubmitQueue;
use split::{Notifier, Pending};
use std::time::Instant;

/// Tunables of the serving runtime — every [`ServerBuilder`] knob as one
/// typed value. Zeroes mean "pick for me" where noted;
/// [`ServeOptions::validate`] (called by [`ServerBuilder::build`]) checks
/// everything else, so a hand-assembled options value and a
/// builder-assembled one are rejected identically.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the pool. `0` = one per available core. A request
    /// over more than `max_batch` users is cut into at most this many
    /// pieces.
    pub workers: usize,
    /// Submission-queue bound, in sub-requests; the backpressure threshold.
    /// At least `workers`, so any request's pieces can be admitted.
    pub queue_capacity: usize,
    /// Largest micro-batch, in **users**: the budget for one coalesced
    /// solver call, whether it is 32 single-user requests or four 8-user
    /// ones. Sub-requests at or above this size are served solo, so `1`
    /// makes every sub-request its own solver call; a request over this
    /// size is cut into `min(workers, ⌈users / max_batch⌉)` pieces. A
    /// batch is whatever is already queued: no worker waits for more
    /// arrivals.
    pub max_batch: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 0,
            queue_capacity: 1024,
            max_batch: 32,
        }
    }
}

impl ServeOptions {
    /// Checks the invariants that do not depend on the machine (`0 = pick
    /// for me` resolution and the queue-vs-workers admission bound happen
    /// in [`ServerBuilder::build`], which calls this first).
    pub fn validate(&self) -> Result<(), MipsError> {
        if self.queue_capacity == 0 {
            return Err(MipsError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(MipsError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Step-by-step assembly of a [`MipsServer`].
#[derive(Default)]
pub struct ServerBuilder {
    engine: Option<Arc<Engine>>,
    config: ServeOptions,
    /// Whether [`ServerBuilder::workers`] was called explicitly: an
    /// explicit `0` is a configuration error, while an untouched builder
    /// keeps the documented `0 = pick for me` resolution.
    workers_set: bool,
}

impl ServerBuilder {
    /// An empty builder with default tunables.
    pub fn new() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The engine to serve (model + backends + planner). Shared: the same
    /// engine can keep serving direct `execute` calls.
    pub fn engine(mut self, engine: Arc<Engine>) -> ServerBuilder {
        self.engine = Some(engine);
        self
    }

    /// Does nothing: requests are no longer routed by user range.
    #[deprecated(note = "requests are no longer routed by user range; drop the call")]
    pub fn shards(self, _shards: usize) -> ServerBuilder {
        self
    }

    /// Sets the worker-pool size. Passing `0` here is rejected at
    /// [`ServerBuilder::build`]: omit the call for automatic sizing (one
    /// worker per available core).
    pub fn workers(mut self, workers: usize) -> ServerBuilder {
        self.config.workers = workers;
        self.workers_set = true;
        self
    }

    /// Sets the submission-queue bound (sub-requests).
    pub fn queue_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the micro-batch budget (users per coalesced solver call; `1`
    /// turns coalescing off).
    pub fn max_batch(mut self, max_batch: usize) -> ServerBuilder {
        self.config.max_batch = max_batch;
        self
    }

    /// Validates the assembly, spawns the worker pool, and returns the
    /// running server.
    pub fn build(self) -> Result<MipsServer, MipsError> {
        let engine = self
            .engine
            .ok_or_else(|| MipsError::InvalidConfig("a server needs an engine".into()))?;
        let mut config = self.config;
        if self.workers_set && config.workers == 0 {
            return Err(MipsError::InvalidConfig(
                "workers must be at least 1 (omit the call for automatic sizing)".into(),
            ));
        }
        config.validate()?;
        if config.workers == 0 {
            config.workers = crate::sync::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
        }
        if config.queue_capacity < config.workers {
            // A request can be cut into one piece per worker; a queue
            // smaller than that could only admit such a request into an
            // empty queue, which sustained small traffic can starve forever.
            return Err(MipsError::InvalidConfig(format!(
                "queue_capacity ({}) must be at least the worker count ({}) \
                 so any request can be admitted",
                config.queue_capacity, config.workers
            )));
        }

        let shared = Arc::new(ServerShared {
            queue: SubmitQueue::new(config.queue_capacity),
            counters: Arc::new(ServerCounters::default()),
            first_epoch: engine.epoch(),
            engine,
            config: config.clone(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("mips-serve-{i}"))
                    .spawn(move || worker::run_worker(shared))
                    .map_err(|e| MipsError::InvalidConfig(format!("spawning worker {i}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MipsServer { shared, workers })
    }
}

/// State shared between the server handle and its workers.
pub(crate) struct ServerShared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) queue: SubmitQueue,
    pub(crate) counters: Arc<ServerCounters>,
    /// The engine's epoch when the server was built; `swaps` counts from
    /// it.
    first_epoch: u64,
    pub(crate) config: ServeOptions,
}

/// A waitable in-flight request returned by [`MipsServer::submit`].
#[must_use = "wait() on the handle to get the response"]
pub struct ResponseHandle {
    pending: Arc<Pending>,
}

impl ResponseHandle {
    /// Blocks until the request completes, returning the reassembled
    /// response (or the first error any piece hit).
    pub fn wait(self) -> Result<QueryResponse, MipsError> {
        self.pending.wait()
    }

    /// Whether the request has already completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.pending.is_finished()
    }
}

/// The concurrent serving runtime. See the [module docs](self).
pub struct MipsServer {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl MipsServer {
    /// Starts assembling a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The effective serving options (after `0 = auto` resolution).
    pub fn options(&self) -> &ServeOptions {
        &self.shared.config
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Validates and enqueues a request, blocking while the submission
    /// queue is over capacity (backpressure). Returns a handle to wait on.
    pub fn submit(&self, request: &QueryRequest) -> Result<ResponseHandle, MipsError> {
        let pending = self.submit_inner(request, true, None)?;
        Ok(ResponseHandle { pending })
    }

    /// [`MipsServer::submit`], but a full queue returns
    /// [`MipsError::ServerOverloaded`] instead of blocking.
    pub fn try_submit(&self, request: &QueryRequest) -> Result<ResponseHandle, MipsError> {
        let pending = self.submit_inner(request, false, None)?;
        Ok(ResponseHandle { pending })
    }

    /// [`MipsServer::try_submit`] for callers that must not block on a
    /// handle: instead of returning one, the runtime hands the outcome to
    /// `on_done` — exactly once, on the worker thread that finished the
    /// request (success, error, and a panicking backend alike), after the
    /// request is counted in [`MipsServer::metrics`]. A request that is
    /// not admitted returns the error here and drops `on_done` uncalled.
    ///
    /// `on_done` runs on the serving pool, so it is the place for work
    /// that parallelizes with the pool (rendering the response) and for a
    /// wake-up of whoever consumes it (see [`WakeGate`]) — not for
    /// anything that blocks.
    pub fn try_submit_notify(
        &self,
        request: &QueryRequest,
        on_done: impl FnOnce(Result<QueryResponse, MipsError>) + Send + 'static,
    ) -> Result<(), MipsError> {
        self.submit_inner(request, false, Some(Box::new(on_done)))
            .map(drop)
    }

    /// Submits and waits: the drop-in concurrent replacement for
    /// [`Engine::execute`].
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, MipsError> {
        self.submit(request)?.wait()
    }

    fn submit_inner(
        &self,
        request: &QueryRequest,
        block: bool,
        notifier: Option<Notifier>,
    ) -> Result<Arc<Pending>, MipsError> {
        // One epoch snapshot per request: validation, splitting, planning,
        // and serving all resolve against it, so a concurrent swap_model
        // can never tear a request across two models.
        let epoch = self.shared.engine.snapshot();
        request.validate(&epoch.model)?;
        let now = Instant::now();
        let pending = Arc::new(Pending::with_notifier(
            request.result_len(&epoch.model),
            now,
            Some(Arc::clone(&self.shared.counters)),
            epoch.id,
            notifier,
        ));
        let subs = split::split(request, &epoch, &self.shared.config, &pending);
        debug_assert!(!subs.is_empty(), "validated requests select users");
        // Safe to set after splitting: no worker sees the subs until
        // push_all succeeds below.
        pending.set_parts(subs.len());
        match self.shared.queue.push_all(subs, block) {
            Ok(()) => {
                self.shared
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(pending)
            }
            Err(error) => {
                if matches!(error, MipsError::ServerOverloaded { .. }) {
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(error)
            }
        }
    }

    /// Snapshots every counter, cumulative since build. The epoch and swap
    /// count come from the engine's current epoch.
    pub fn metrics(&self) -> ServerMetrics {
        let load = |counter: &crate::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
        let counters = &self.shared.counters;
        let epoch = self.shared.engine.epoch();
        let mut metrics = ServerMetrics {
            submitted: load(&counters.submitted),
            completed: load(&counters.completed),
            rejected: load(&counters.rejected),
            failed: load(&counters.failed),
            epoch,
            precision: self.shared.engine.precision(),
            swaps: epoch - self.shared.first_epoch,
            batches: load(&counters.batches),
            lanes: std::array::from_fn(|tier| {
                let lane = &counters.lanes[tier];
                TierLaneMetrics {
                    batches: load(&lane.batches),
                    candidates: load(&lane.candidates),
                    survivors: load(&lane.survivors),
                }
            }),
            coalesced: load(&counters.coalesced),
            users_served: load(&counters.users_served),
            busy_seconds: load(&counters.busy_ns) as f64 / 1e9,
            latency: counters.latency.snapshot(),
            ..ServerMetrics::default()
        };
        #[allow(deprecated)]
        {
            metrics.shards = vec![ShardMetrics {
                submitted: metrics.submitted,
                completed: metrics.completed,
                batches: metrics.batches,
                coalesced: metrics.coalesced,
                busy_seconds: metrics.busy_seconds,
            }];
        }
        metrics
    }

    /// Drains in-flight work and stops the pool. Also happens on `Drop`;
    /// the explicit form surfaces worker panics as a `Result`.
    pub fn shutdown(mut self) -> Result<(), MipsError> {
        self.shared.queue.close();
        let mut panicked = false;
        for worker in self.workers.drain(..) {
            panicked |= worker.join().is_err();
        }
        if panicked {
            return Err(MipsError::WorkerPanicked {
                message: "worker thread exited abnormally".into(),
            });
        }
        Ok(())
    }
}

impl Drop for MipsServer {
    fn drop(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for MipsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MipsServer")
            .field("epoch", &self.shared.engine.epoch())
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.config.queue_capacity)
            .field("max_batch", &self.shared.config.max_batch)
            .finish()
    }
}
