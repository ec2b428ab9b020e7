//! Stress suite for the concurrent serving runtime.
//!
//! The core test kit's driver (`exactness.rs`) holds every backend's
//! served answers to the oracle's on every corpus. This suite holds what
//! needs concurrency: whatever the worker count, batching policy, or
//! submission concurrency, every response is **bit-identical** to a
//! sequential [`Engine::execute`] on the same engine — cutting,
//! coalescing, and reassembly must be invisible except in the clock — plus
//! backpressure, worker panics, shutdown and plan sharing.

use mips_core::engine::{Engine, EngineBuilder, ExclusionSet, FnFactory, MipsError, QueryRequest};
use mips_core::optimus::OptimusConfig;
use mips_core::serve::ServerBuilder;
use mips_core::solver::MipsSolver;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_linalg::CacheConfig;
use mips_topk::TopKList;
use std::ops::Range;
use std::sync::{Arc, RwLock};

fn model(users: usize, items: usize) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: items,
        num_factors: 8,
        ..SynthConfig::default()
    }))
}

fn tiny_optimus() -> OptimusConfig {
    OptimusConfig {
        sample_fraction: 0.05,
        cache: CacheConfig {
            l1_bytes: 1024,
            l2_bytes: 2048,
            l3_bytes: 4096,
        },
        ..OptimusConfig::default()
    }
}

fn engine(users: usize, items: usize) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new()
            .model(model(users, items))
            .with_default_backends()
            .optimus(tiny_optimus())
            .build()
            .unwrap(),
    )
}

/// A corpus of mixed requests: every selection shape, ranges and id-lists
/// that straddle the pieces a large request is cut into, repeated ids,
/// exclusion sets that cross those cuts, and k from 1 to the whole catalog.
fn mixed_corpus(engine: &Engine) -> Vec<QueryRequest> {
    let num_users = engine.model().num_users();
    let num_items = engine.model().num_items();
    // Exclusions for users on both sides of the first boundary of a
    // 3-piece cut, including a power user with a huge list.
    let mut exclusions = ExclusionSet::new();
    for u in [0, num_users / 3, num_users / 3 + 1, num_users - 1] {
        for item in 0..5u32 {
            exclusions.insert(u, item * 3);
        }
    }
    for item in 0..(num_items as u32 * 2 / 3) {
        exclusions.insert(1, item); // power user: excludes 2/3 of the catalog
    }
    let exclusions = Arc::new(exclusions);
    vec![
        QueryRequest::top_k(1),
        QueryRequest::top_k(5),
        QueryRequest::top_k(num_items), // k = whole catalog
        QueryRequest::top_k(7).users_range(0..num_users),
        QueryRequest::top_k(3).users_range(num_users / 3 - 1..num_users / 3 + 2),
        QueryRequest::top_k(4).users_range(num_users - 1..num_users),
        QueryRequest::top_k(2).users(vec![num_users - 1, 0, num_users / 2]),
        QueryRequest::top_k(6).users(vec![5, 5, num_users - 1, 5, 0, num_users / 3]),
        QueryRequest::top_k(3).users((0..num_users).rev().collect::<Vec<_>>()),
        QueryRequest::top_k(5).exclude(Arc::clone(&exclusions)),
        QueryRequest::top_k(2)
            .users(vec![1, 0, num_users / 3, num_users - 1])
            .exclude(Arc::clone(&exclusions)),
        QueryRequest::top_k(4)
            .users_range(0..num_users / 2 + 1)
            .exclude(exclusions),
    ]
}

#[test]
fn concurrent_mixed_requests_are_bit_identical_to_sequential() {
    let engine = engine(97, 120); // 97 users: ragged over any piece count
    let corpus = mixed_corpus(&engine);
    let expected: Vec<Vec<TopKList>> = corpus
        .iter()
        .map(|request| engine.execute(request).unwrap().results)
        .collect();
    let corpus_users: usize = corpus.iter().map(|r| r.result_len(&engine.model())).sum();

    for (workers, max_batch) in [(4, 8), (2, 1), (8, 8), (3, 32)] {
        let server = ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(workers)
            .max_batch(max_batch)
            .build()
            .unwrap();
        // 6 submitter threads × 4 passes, each walking the corpus from a
        // different offset so queued requests interleave differently.
        std::thread::scope(|scope| {
            for t in 0..6 {
                let server = &server;
                let corpus = &corpus;
                let expected = &expected;
                scope.spawn(move || {
                    for pass in 0..4 {
                        let mut handles = Vec::new();
                        for i in 0..corpus.len() {
                            let idx = (i * 7 + t + pass) % corpus.len();
                            handles.push((idx, server.submit(&corpus[idx]).unwrap()));
                        }
                        for (idx, handle) in handles {
                            let response = handle.wait().unwrap();
                            assert_eq!(
                                response.results, expected[idx],
                                "request {idx} diverged (workers={workers} max_batch={max_batch})"
                            );
                            assert!(response.planned);
                            assert!(!response.backend.is_empty());
                        }
                    }
                });
            }
        });
        let metrics = server.metrics();
        assert_eq!(metrics.submitted, 6 * 4 * corpus.len() as u64);
        assert_eq!(metrics.completed, metrics.submitted);
        assert_eq!(metrics.failed, 0);
        assert_eq!(metrics.latency.count, metrics.completed);
        // Every selected user was served exactly once, however the
        // requests were cut and coalesced.
        assert_eq!(metrics.users_served, 6 * 4 * corpus_users as u64);
        server.shutdown().unwrap();
    }
}

#[test]
fn ragged_boundaries_cover_every_user_exactly_once() {
    let engine = engine(41, 30);
    let requests = [
        QueryRequest::top_k(3),
        QueryRequest::top_k(3).users_range(3..40),
        QueryRequest::top_k(3).users((0..41).rev().chain([7, 7, 40]).collect::<Vec<_>>()),
    ];
    let expected: Vec<_> = requests
        .iter()
        .map(|request| engine.execute(request).unwrap().results)
        .collect();
    for workers in [1, 2, 3, 5, 7] {
        for max_batch in [1, 5, 40, 41, 64] {
            let server = ServerBuilder::new()
                .engine(Arc::clone(&engine))
                .workers(workers)
                .max_batch(max_batch)
                .build()
                .unwrap();
            for (request, expected) in requests.iter().zip(&expected) {
                let before = server.metrics();
                let response = server.execute(request).unwrap();
                assert_eq!(&response.results, expected, "{workers}/{max_batch}");
                // One solver call per piece, and every selected position
                // served exactly once.
                let n = request.result_len(&engine.model());
                let pieces = n.div_ceil(max_batch).min(workers) as u64;
                let after = server.metrics();
                assert_eq!(
                    after.batches - before.batches,
                    pieces,
                    "{workers}/{max_batch}"
                );
                assert_eq!(after.users_served - before.users_served, n as u64);
            }
        }
    }
}

#[test]
fn invalid_k_and_user_selections_are_typed_errors() {
    let server = ServerBuilder::new()
        .engine(engine(23, 16))
        .workers(3)
        .build()
        .unwrap();
    assert_eq!(
        server.execute(&QueryRequest::top_k(0)).unwrap_err(),
        MipsError::InvalidK {
            k: 0,
            num_items: 16
        }
    );
    assert_eq!(
        server.execute(&QueryRequest::top_k(17)).unwrap_err(),
        MipsError::InvalidK {
            k: 17,
            num_items: 16
        }
    );
    assert!(server
        .execute(&QueryRequest::top_k(3).users(vec![23]))
        .is_err());
    assert!(server
        .execute(&QueryRequest::top_k(3).users(Vec::new()))
        .is_err());
}

/// BMM behind a gate: every query waits for a read lock, so a test holding
/// the write lock keeps the workers busy while a backlog forms.
struct GatedSolver {
    inner: mips_core::MaximusIndex,
    gate: Arc<RwLock<()>>,
}

impl MipsSolver for GatedSolver {
    fn name(&self) -> &str {
        "gated"
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
        let _open = self.gate.read().unwrap();
        self.inner.query_range(k, users)
    }
    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        let _open = self.gate.read().unwrap();
        self.inner.query_subset(k, users)
    }
}

/// An engine whose only backend is a [`GatedSolver`] behind `gate`.
fn gated_engine(model: Arc<MfModel>, gate: &Arc<RwLock<()>>) -> Arc<Engine> {
    let gate = Arc::clone(gate);
    Arc::new(
        EngineBuilder::new()
            .model(model)
            .register(FnFactory::new("gated", move |model: &Arc<MfModel>| {
                Ok(Box::new(GatedSolver {
                    inner: mips_core::MaximusIndex::brute_force(Arc::clone(model)),
                    gate: Arc::clone(&gate),
                }) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    )
}

#[test]
fn micro_batching_coalesces_single_user_traffic_without_changing_results() {
    let gate = Arc::new(RwLock::new(()));
    let engine = gated_engine(model(64, 80), &gate);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(1) // one worker: the backlog forms, batches must fill
        .max_batch(16)
        .build()
        .unwrap();
    // Flood with single-user requests while the gate holds the one worker
    // inside its first solver call: the rest of the flood is queued when
    // the gate opens, so the batcher must coalesce.
    let closed = gate.write().unwrap();
    let handles: Vec<_> = (0..64)
        .map(|u| {
            (
                u,
                server
                    .submit(&QueryRequest::top_k(5).users(vec![u]))
                    .unwrap(),
            )
        })
        .collect();
    drop(closed);
    let expected = engine.execute(&QueryRequest::top_k(5)).unwrap().results;
    for (u, handle) in handles {
        assert_eq!(handle.wait().unwrap().results[0], expected[u], "user {u}");
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 64);
    assert!(
        metrics.batches < 64,
        "single-user flood must coalesce: {} batches for 64 requests",
        metrics.batches
    );
    assert!(metrics.coalesced > 0);
    assert!(metrics.mean_batch_size() > 1.0);
}

#[test]
fn requests_from_different_user_ranges_coalesce() {
    let gate = Arc::new(RwLock::new(()));
    let engine = gated_engine(model(64, 80), &gate);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(1)
        .max_batch(64)
        .build()
        .unwrap();
    // The one worker takes the k = 3 request alone (nothing else is queued
    // at that k) and blocks inside it at the gate.
    let closed = gate.write().unwrap();
    let blocker = server
        .submit(&QueryRequest::top_k(3).users(vec![0]))
        .unwrap();
    // One-user requests at k = 5 for every user, low ids and high alike,
    // queue up behind it.
    let handles: Vec<_> = (0..64)
        .map(|u| {
            server
                .submit(&QueryRequest::top_k(5).users(vec![u]))
                .unwrap()
        })
        .collect();
    drop(closed);
    blocker.wait().unwrap();
    let expected = engine.execute(&QueryRequest::top_k(5)).unwrap().results;
    for (u, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap().results[0], expected[u], "user {u}");
    }
    // The gated call, then one call that holds all 64 users.
    let metrics = server.metrics();
    assert_eq!(metrics.batches, 2);
    assert_eq!(metrics.coalesced, 64);
    assert_eq!(metrics.users_served, 65);
}

#[test]
fn try_submit_applies_backpressure_and_blocking_submit_recovers() {
    let gate = Arc::new(RwLock::new(()));
    let server = ServerBuilder::new()
        .engine(gated_engine(model(16, 20), &gate))
        .workers(1)
        .queue_capacity(2)
        .max_batch(1)
        .build()
        .unwrap();
    // Fill the pipeline: the one worker holds the first request at the
    // gate, and the next two fill the queue (capacity 2).
    let closed = gate.write().unwrap();
    let running: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(&QueryRequest::top_k(2).users(vec![0]))
                .unwrap()
        })
        .collect();
    assert!(matches!(
        server.try_submit(&QueryRequest::top_k(2).users(vec![1])),
        Err(MipsError::ServerOverloaded { capacity: 2 })
    ));
    assert_eq!(server.metrics().rejected, 1);
    // Blocking submit waits out the backlog instead of bouncing.
    std::thread::scope(|scope| {
        let late = scope.spawn(|| {
            server
                .submit(&QueryRequest::top_k(2).users(vec![2]))
                .unwrap()
        });
        drop(closed);
        assert_eq!(late.join().unwrap().wait().unwrap().results.len(), 1);
    });
    for handle in running {
        handle.wait().unwrap();
    }
}

#[test]
fn worker_panic_fails_the_request_but_not_the_server() {
    /// Panics when asked for user 13, serves everyone else.
    struct TrapSolver {
        inner: mips_core::MaximusIndex,
    }
    impl TrapSolver {
        fn check(&self, users: &[usize]) {
            if users.contains(&13) {
                panic!("user 13 is cursed");
            }
        }
    }
    impl MipsSolver for TrapSolver {
        fn name(&self) -> &str {
            "trap"
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
            self.check(&users.clone().collect::<Vec<_>>());
            self.inner.query_range(k, users)
        }
        fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
            self.check(users);
            self.inner.query_subset(k, users)
        }
    }
    let m = model(20, 15);
    let engine = Arc::new(
        EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(FnFactory::new("trap", |model: &Arc<MfModel>| {
                Ok(Box::new(TrapSolver {
                    inner: mips_core::MaximusIndex::brute_force(Arc::clone(model)),
                }) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(engine)
        .workers(2)
        .build()
        .unwrap();
    let err = server
        .execute(&QueryRequest::top_k(2).users(vec![13]))
        .unwrap_err();
    assert!(
        matches!(&err, MipsError::WorkerPanicked { message } if message.contains("cursed")),
        "{err:?}"
    );
    // The pool survives and keeps serving; the failure is counted.
    let ok = server
        .execute(&QueryRequest::top_k(2).users(vec![1]))
        .unwrap();
    assert_eq!(ok.results.len(), 1);
    let metrics = server.metrics();
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.completed, 2);
    // The panicked request still settles: no phantom in-flight work is
    // left behind.
    assert_eq!(metrics.submitted, metrics.completed);
    server.shutdown().unwrap();
}

#[test]
fn shutdown_rejects_new_work_and_drop_joins_workers() {
    let engine = engine(12, 10);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(2)
        .build()
        .unwrap();
    let handle = server.submit(&QueryRequest::top_k(2)).unwrap();
    assert_eq!(handle.wait().unwrap().results.len(), 12);
    server.shutdown().unwrap();
    // A dropped server also joins cleanly (no hang, no panic).
    let server = ServerBuilder::new()
        .engine(engine)
        .workers(1)
        .build()
        .unwrap();
    let _ = server.execute(&QueryRequest::top_k(1)).unwrap();
    drop(server);
}

#[test]
fn builder_rejects_bad_assemblies() {
    let engine = engine(8, 8);
    assert!(matches!(
        ServerBuilder::new().build(),
        Err(MipsError::InvalidConfig(_))
    ));
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .queue_capacity(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .max_batch(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // A queue smaller than the worker count could never admit a request
    // cut into one piece per worker except into an empty queue
    // (starvable): rejected at build.
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(8)
            .queue_capacity(4)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // An explicit zero worker count is a configuration error, not a
    // silent fall-through to automatic sizing.
    assert!(matches!(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(0)
            .build(),
        Err(MipsError::InvalidConfig(_))
    ));
    // Auto knobs resolve to sane values: one worker per available core,
    // and a queue that admits any cut request.
    let server = ServerBuilder::new().engine(engine).build().unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert_eq!(server.worker_count(), cores);
    assert_eq!(server.options().workers, cores);
    assert!(server.options().queue_capacity >= server.worker_count());
}

#[test]
fn plans_are_shared_across_pieces_not_resampled() {
    let engine = engine(90, 40);
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(3)
        .max_batch(15)
        .build()
        .unwrap();
    server.execute(&QueryRequest::top_k(4)).unwrap();
    assert_eq!(server.metrics().batches, 3, "cut into one piece per worker");
    // The first request is cut into 3 pieces over 3 workers; first-touch
    // planning installs compare-and-swap style, so up to one planner run
    // per concurrently racing worker — never one per piece, and no convoy.
    let first_wave = engine.planner_runs();
    assert!(
        (1..=3).contains(&first_wave),
        "{first_wave} planner runs for the first request"
    );
    for _ in 0..3 {
        server.execute(&QueryRequest::top_k(4)).unwrap();
    }
    // Steady state: the installed plan is shared by every piece; nothing
    // re-samples.
    assert_eq!(engine.planner_runs(), first_wave);
}
