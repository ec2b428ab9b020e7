//! Self-tests for the vendored model checker.
//!
//! These run in every normal build (no special cfg): they prove the
//! scheduler explores real interleavings, catches planted races and
//! deadlocks, respects the preemption bound, and replays failure traces
//! deterministically.

use std::sync::Arc;

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Condvar, Mutex};
use loom::thread;
use loom::{explore, model, replay, Config};

/// Two threads incrementing under a mutex: correct in every schedule,
/// and the exploration must actually branch (more than one schedule).
#[test]
fn mutex_guarded_increments_pass_and_explore_branches() {
    let report = explore(Config::default(), || {
        let counter = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let mut v = counter.lock().unwrap();
                    *v += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 2);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.schedules > 1,
        "exploration never branched: {} schedule(s)",
        report.schedules
    );
}

/// A torn read-modify-write (load, then store) across two threads: the
/// checker must find the interleaving where one increment is lost.
#[test]
fn torn_increment_race_is_caught() {
    let report = explore(Config::default(), || {
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost increment");
    });
    let failure = report.failure.expect("planted race not found");
    assert!(
        failure.message.contains("lost increment"),
        "{}",
        failure.message
    );
}

/// The same planted race is invisible without preemptions: a bound of 0
/// only explores cooperative schedules, where each thread's
/// load-then-store runs intact.
#[test]
fn preemption_bound_zero_hides_the_torn_increment() {
    let report = explore(
        Config {
            preemption_bound: 0,
            ..Config::default()
        },
        || {
            let counter = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        let v = counter.load(Ordering::SeqCst);
                        counter.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(counter.load(Ordering::SeqCst), 2);
        },
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A condvar wait that nobody will ever notify is a deadlock, and the
/// checker reports it as such instead of hanging.
#[test]
fn missed_notify_is_reported_as_deadlock() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready).unwrap();
                }
            })
        };
        // The flag is set without ever notifying — classic dropped
        // notify. The waiter can park after the store and sleep forever.
        {
            let (lock, _cv) = &*pair;
            *lock.lock().unwrap() = true;
        }
        waiter.join().unwrap();
    });
    // Some schedules pass (waiter observes the flag before parking); the
    // checker must find the one that deadlocks.
    let failure = report.failure.expect("dropped notify not found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
}

/// The correct flag+notify handshake passes in every schedule.
#[test]
fn notify_handshake_has_no_lost_wakeup() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready).unwrap();
                }
            })
        };
        {
            let (lock, cv) = &*pair;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// Failure traces are deterministic (same exploration → same trace) and
/// replayable (the seed alone reproduces the failure).
#[test]
fn failure_traces_are_deterministic_and_replayable() {
    fn planted() -> impl Fn() + Send + Sync + 'static {
        || {
            let counter = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        let v = counter.load(Ordering::SeqCst);
                        counter.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(counter.load(Ordering::SeqCst), 2);
        }
    }
    let first = explore(Config::default(), planted())
        .failure
        .expect("race not found");
    let second = explore(Config::default(), planted())
        .failure
        .expect("race not found");
    assert_eq!(first.trace, second.trace);
    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.schedule_index, second.schedule_index);

    let replayed = replay(&first.trace, planted())
        .failure
        .expect("trace seed did not reproduce the failure");
    assert_eq!(replayed.trace, first.trace);
}

/// Join returns the thread's value, and `model` itself passes a clean
/// closure without panicking.
#[test]
fn join_values_and_clean_model() {
    model(|| {
        let h = thread::spawn(|| 41 + 1);
        assert_eq!(h.join().unwrap(), 42);
    });
}

/// RwLock: a writer is exclusive with readers — readers can never
/// observe the writer's intermediate state.
#[test]
fn rwlock_readers_never_see_intermediate_writes() {
    let report = explore(Config::default(), || {
        let lock = Arc::new(loom::sync::RwLock::new(0u64));
        let writer = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let mut v = lock.write().unwrap();
                *v = 1; // intermediate (odd)
                *v = 2; // final (even)
            })
        };
        let reader = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let v = lock.read().unwrap();
                assert!(*v % 2 == 0, "observed intermediate write");
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}
