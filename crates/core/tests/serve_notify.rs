//! The completion-notifier contract of [`MipsServer::try_submit_notify`]:
//! the outcome is handed over exactly once — success, a typed error, and a
//! panicking backend alike — on a worker thread, after the request is
//! counted, and never for a request that was not admitted.

use mips_core::engine::{Engine, EngineBuilder, FnFactory, MipsError, QueryRequest, QueryResponse};
use mips_core::serve::{MipsServer, ServerBuilder};
use mips_core::solver::MipsSolver;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_topk::TopKList;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Serves through BMM, except: user 13 panics, user 7 takes 100 ms.
struct Moody {
    inner: mips_core::MaximusIndex,
}

impl Moody {
    fn react(&self, users: &[usize]) {
        if users.contains(&13) {
            panic!("user 13 is cursed");
        }
        if users.contains(&7) {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

impl MipsSolver for Moody {
    fn name(&self) -> &str {
        "moody"
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
        self.react(&users.clone().collect::<Vec<_>>());
        self.inner.query_range(k, users)
    }
    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        self.react(users);
        self.inner.query_subset(k, users)
    }
}

fn stack(queue_capacity: usize) -> (Arc<Engine>, Arc<MipsServer>) {
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: 20,
        num_items: 15,
        num_factors: 8,
        ..SynthConfig::default()
    }));
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model)
            .register(FnFactory::new("moody", |model: &Arc<MfModel>| {
                Ok(Box::new(Moody {
                    inner: mips_core::MaximusIndex::brute_force(Arc::clone(model)),
                }) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap(),
    );
    let server = Arc::new(
        ServerBuilder::new()
            .engine(Arc::clone(&engine))
            .workers(1)
            .queue_capacity(queue_capacity)
            .max_batch(1)
            .build()
            .unwrap(),
    );
    (engine, server)
}

/// What a notifier saw at the moment it ran.
struct Seen {
    outcome: Result<QueryResponse, MipsError>,
    thread: String,
    completed_then: u64,
}

/// Submits with a notifier that reports what it saw over a channel.
fn submit_reporting(
    server: &Arc<MipsServer>,
    request: &QueryRequest,
    seen: &mpsc::Sender<Seen>,
) -> Result<(), MipsError> {
    let (seen, observer) = (seen.clone(), Arc::clone(server));
    server.try_submit_notify(request, move |outcome| {
        let thread = std::thread::current().name().unwrap_or("").to_string();
        let completed_then = observer.metrics().completed;
        seen.send(Seen {
            outcome,
            thread,
            completed_then,
        })
        .unwrap();
    })
}

#[test]
fn the_notifier_gets_the_outcome_once_on_a_worker_after_the_rollup() {
    let (engine, server) = stack(64);
    let (tx, rx) = mpsc::channel();
    let wait = Duration::from_secs(30);

    // Success: the response `wait()` would have returned, bit for bit.
    let request = QueryRequest::top_k(3).users(vec![4, 1]);
    submit_reporting(&server, &request, &tx).unwrap();
    let seen = rx.recv_timeout(wait).unwrap();
    let response = seen.outcome.unwrap();
    assert_eq!(response.results, engine.execute(&request).unwrap().results);
    assert_eq!(response.backend, "moody");
    assert!(seen.thread.starts_with("mips-serve-"), "{}", seen.thread);
    assert_eq!(seen.completed_then, 1, "counted before the notifier ran");

    // A panicking backend: the worker's panic path notifies too.
    submit_reporting(&server, &QueryRequest::top_k(2).users(vec![13]), &tx).unwrap();
    let seen = rx.recv_timeout(wait).unwrap();
    assert!(
        matches!(&seen.outcome, Err(MipsError::WorkerPanicked { message }) if message.contains("cursed")),
        "{:?}",
        seen.outcome
    );
    assert!(seen.thread.starts_with("mips-serve-"), "{}", seen.thread);
    assert_eq!(seen.completed_then, 2);
    assert_eq!(server.metrics().failed, 1);

    // Exactly once each: nothing else ever arrives.
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    let metrics = server.metrics();
    assert_eq!((metrics.submitted, metrics.completed), (2, 2));
}

#[test]
fn a_request_that_is_not_admitted_returns_the_error_and_never_notifies() {
    let (_engine, server) = stack(1);
    let (tx, rx) = mpsc::channel();

    // Invalid: rejected before admission.
    let invalid = submit_reporting(&server, &QueryRequest::top_k(2).users(vec![99]), &tx);
    assert!(
        matches!(invalid, Err(MipsError::UserOutOfRange { .. })),
        "{invalid:?}"
    );

    // Overload: one slow request on the worker, one in the queue of one.
    let slow = QueryRequest::top_k(2).users(vec![7]);
    submit_reporting(&server, &slow, &tx).unwrap();
    let mut admitted = 1;
    let bounced = loop {
        match submit_reporting(&server, &slow, &tx) {
            Ok(()) => admitted += 1,
            Err(error) => break error,
        }
        assert!(admitted < 50, "a queue of one never filled");
    };
    assert!(
        matches!(bounced, MipsError::ServerOverloaded { capacity: 1 }),
        "{bounced:?}"
    );
    for _ in 0..admitted {
        let seen = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(seen.outcome.is_ok());
    }
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a rejected request notified"
    );
    // Bounced submissions leave no phantom in-flight work.
    let metrics = server.metrics();
    assert_eq!(metrics.submitted, admitted);
    assert_eq!(metrics.rejected, 1);
}
