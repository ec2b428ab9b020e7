//! Deterministic model checking of `mips-core`'s concurrency protocols.
//!
//! Compiled only under `--cfg mips_model_check`
//! (`RUSTFLAGS="--cfg mips_model_check" cargo test -p mips-core --test
//! model_check`); in a normal build this file is empty. Under the cfg the
//! [`crate::sync`](mips_core::sync) facade resolves to the vendored `loom`
//! shim, so every lock, condvar, atomic, and spawn below is a yield point
//! of a deterministic scheduler that exhaustively explores thread
//! interleavings (bounded preemptions, DFS over branch points). A failing
//! test prints a dot-separated trace seed; re-running with
//! `MIPS_MODEL_REPLAY=<seed>` replays exactly that interleaving.
//!
//! Five protocol invariants from the serving runtime are proved here, plus
//! a regression pin for a behavior an earlier change fixed, a seeded-bug suite
//! demonstrating the checker actually catches planted races, and
//! determinism/replay assertions over the checker itself.

#![cfg(mips_model_check)]

use loom::{explore, model, replay, Config};
use mips_core::model_support as ms;
use mips_core::serve::WakeGate;
use mips_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use mips_core::sync::{thread, Arc, Condvar, Mutex};
use mips_core::{MipsError, Precision};
use std::time::Instant;

/// A toy queue item: its key models a sub-request's `(epoch, k)` batch
/// key, with every toy at `k = 1`.
#[derive(Debug, Clone)]
struct Toy {
    epoch: u64,
    /// Seeded bug switch: key on `k` alone, dropping the epoch.
    epoch_blind: bool,
}

impl Toy {
    fn new(epoch: u64) -> Toy {
        Toy {
            epoch,
            epoch_blind: false,
        }
    }
}

impl ms::QueueItem for Toy {
    type Key = (u64, usize);
    fn key(&self) -> (u64, usize) {
        let epoch = if self.epoch_blind { 0 } else { self.epoch };
        (epoch, 1)
    }
    fn weight(&self) -> usize {
        1
    }
    fn batchable(&self, _max_batch: usize) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Invariant 1: epoch refcounts never leak or double-free.
// ---------------------------------------------------------------------------

/// A reader snapshotting the epoch cell concurrently with a swap either
/// sees the old epoch or the new one — never a mixture — and once the swap
/// lands and every snapshot drops, the old epoch is reclaimed (`Weak`
/// upgrade fails). `Arc` stays std under the model, so the refcount
/// observations are exact.
#[test]
fn epoch_swap_never_leaks_or_tears_the_old_epoch() {
    model(|| {
        let cell = Arc::new(ms::ArcCell::new(Arc::new(1u64)));
        let weak_old = Arc::downgrade(&cell.load());

        let reader = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                let snapshot = cell.load();
                // A snapshot is internally consistent: it is one of the two
                // epochs, never a torn intermediate.
                assert!(*snapshot == 1 || *snapshot == 2, "torn epoch snapshot");
                *snapshot
            })
        };
        let swapper = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.swap_with(|old| Arc::new(**old + 1));
            })
        };
        reader.join().unwrap();
        swapper.join().unwrap();

        // The swap landed and no snapshot holder remains: the old epoch
        // must be gone in every interleaving — anything else is a leak.
        assert_eq!(*cell.load(), 2);
        assert!(
            weak_old.upgrade().is_none(),
            "old epoch leaked past its last holder"
        );
    });
}

// ---------------------------------------------------------------------------
// Regression pin (PR 5): epoch caches build outside the lock, install by
// compare-and-swap, and losers adopt the winner.
// ---------------------------------------------------------------------------

/// Two first-touch racers may each run the builder (no convoying behind a
/// held lock — that is the protocol's point), but exactly one value is
/// installed and every caller ends up holding that single canonical
/// instance, in every interleaving.
#[test]
fn cache_racers_build_outside_the_lock_and_adopt_one_winner() {
    model(|| {
        let cell: ms::CacheCell<Arc<u64>> = Arc::new(Mutex::new(None));
        let builds = Arc::new(AtomicU64::new(0));

        let racer = {
            let cell = Arc::clone(&cell);
            let builds = Arc::clone(&builds);
            thread::spawn(move || {
                ms::get_or_build(&cell, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, MipsError>(Arc::new(10))
                })
                .unwrap()
            })
        };
        let mine = ms::get_or_build(&cell, || {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok::<_, MipsError>(Arc::new(20))
        })
        .unwrap();
        let theirs = racer.join().unwrap();

        // Both racers hold the same installed instance (the loser adopted
        // the winner), and a later caller adopts it without building.
        assert!(Arc::ptr_eq(&mine, &theirs), "racers diverged");
        let built_before = builds.load(Ordering::SeqCst);
        assert!(built_before >= 1 && built_before <= 2);
        let late = ms::get_or_build(&cell, || {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok::<_, MipsError>(Arc::new(30))
        })
        .unwrap();
        assert!(Arc::ptr_eq(&late, &mine), "late caller missed the cache");
        assert_eq!(builds.load(Ordering::SeqCst), built_before);
    });
}

// ---------------------------------------------------------------------------
// Invariant 2: the MPMC queue has no lost wakeups under concurrent
// submit / shutdown.
// ---------------------------------------------------------------------------

/// Whatever the interleaving of a producer, a closer, and a draining
/// consumer, every successfully admitted item is popped: `pop` never
/// returns `None` with items still queued, and `close` wakes a parked
/// consumer instead of stranding it (a lost wakeup would surface as a
/// deadlock report).
#[test]
fn queue_submit_shutdown_loses_no_items_and_no_wakeups() {
    model(|| {
        let queue = Arc::new(ms::BoundedQueue::<Toy>::new(4));

        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || match queue.push_all(vec![Toy::new(1)], false) {
                Ok(()) => true,
                Err(MipsError::ServerShutdown) => false,
                Err(other) => panic!("unexpected push error: {other:?}"),
            })
        };
        let closer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.close())
        };

        let mut popped = 0usize;
        while queue.pop().is_some() {
            popped += 1;
        }
        let admitted = producer.join().unwrap();
        closer.join().unwrap();
        assert_eq!(
            popped, admitted as usize,
            "an admitted item was lost (or a phantom item appeared) across shutdown"
        );
    });
}

/// A blocking producer parked on a full queue is always woken by the
/// consumer's pops: with capacity 1 and two admissions, every
/// interleaving must drain both items (a missed `not_full` notification
/// would deadlock, which the model reports).
#[test]
fn blocking_push_is_always_woken_by_pop() {
    model(|| {
        let queue = Arc::new(ms::BoundedQueue::<Toy>::new(1));
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                queue.push_all(vec![Toy::new(1)], true).unwrap();
                queue.push_all(vec![Toy::new(1)], true).unwrap();
            })
        };
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        producer.join().unwrap();
    });
}

/// One wake-up per admitted item is enough: two workers parked on an empty
/// queue and two single-item pushes (each a `notify_one`) always end with
/// both items popped, whichever worker each wake-up lands on and however
/// the pops interleave with the pushes.
#[test]
fn one_wake_per_item_drains_every_item() {
    model(|| {
        let queue = Arc::new(ms::BoundedQueue::<Toy>::new(4));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut popped = 0usize;
                    while queue.pop().is_some() {
                        popped += 1;
                    }
                    popped
                })
            })
            .collect();
        queue.push_all(vec![Toy::new(1)], false).unwrap();
        queue.push_all(vec![Toy::new(1)], false).unwrap();
        queue.close();
        let popped: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(popped, 2, "an item was stranded behind a spent wake-up");
    });
}

// ---------------------------------------------------------------------------
// Invariant 3: the batcher never coalesces across epochs.
// ---------------------------------------------------------------------------

/// An epoch-2 item queued ahead of (or racing with) an epoch-1 leader
/// never joins the leader's batch; it stays queued for its own batch. The
/// batch key holds the epoch, so this must hold in every interleaving.
#[test]
fn batcher_never_coalesces_across_epochs() {
    model(|| leader_batch_stays_in_its_epoch(false));
}

/// One leader, old-epoch items queued before and racing in; `epoch_blind`
/// keys every toy without its epoch.
fn leader_batch_stays_in_its_epoch(epoch_blind: bool) {
    let toy = move |epoch| Toy { epoch, epoch_blind };
    let queue = Arc::new(ms::BoundedQueue::<Toy>::new(8));
    // An old-epoch item is already queued when the new-epoch leader is
    // popped; another old-epoch item races in while the batch gathers.
    queue.push_all(vec![toy(2)], false).unwrap();
    let racer = {
        let queue = Arc::clone(&queue);
        thread::spawn(move || {
            queue.push_all(vec![toy(2), toy(1)], false).unwrap();
        })
    };

    let batch = ms::collect_batch(&queue, toy(1), 8);
    assert!(
        batch.iter().all(|item| item.epoch == 1),
        "batch coalesced across epochs: {:?}",
        batch.iter().map(|i| i.epoch).collect::<Vec<_>>()
    );
    racer.join().unwrap();

    // The other epoch's items are intact in queue order, ready to lead
    // their own batch.
    queue.close();
    let mut left = Vec::new();
    while let Some(item) = queue.pop() {
        left.push(item.epoch);
    }
    let stranded_old: usize = left.iter().filter(|&&e| e == 2).count();
    assert_eq!(stranded_old, 2, "old-epoch items vanished: {left:?}");
}

// ---------------------------------------------------------------------------
// Invariant 4: metrics are rolled up before waiters wake.
// ---------------------------------------------------------------------------

/// The moment `Pending::wait` returns, the server-wide counters already
/// reflect the finished request — completion count and latency sample —
/// no matter how the two sub-request completions interleave with the
/// waiter. This is the metrics-before-wake ordering in `finish_one`.
#[test]
fn metrics_are_rolled_up_before_the_waiter_wakes() {
    model(|| {
        let counters = Arc::new(ms::ServerCounters::default());
        let pending = Arc::new(ms::Pending::with_counters(
            2,
            Instant::now(),
            Some(Arc::clone(&counters)),
            7,
        ));
        pending.set_parts(2);

        let workers: Vec<_> = (0..2)
            .map(|part| {
                let pending = Arc::clone(&pending);
                thread::spawn(move || {
                    pending.complete(part, vec![ms::TopKList::empty()], "toy", Precision::F64);
                })
            })
            .collect();

        let response = pending.wait().expect("both parts completed");
        // The waiter is awake: the rollup must already be visible.
        assert_eq!(response.epoch, 7);
        assert_eq!(response.results.len(), 2);
        assert_eq!(
            ms::server_completed(&counters),
            1,
            "completed lagged the wakeup"
        );
        assert_eq!(ms::server_failed(&counters), 0);
        assert_eq!(
            ms::server_latency_count(&counters),
            1,
            "latency sample lagged the wakeup"
        );
        for worker in workers {
            worker.join().unwrap();
        }
    });
}

/// Same ordering on the failure path: a request finished by an error has
/// `completed` and `failed` rolled up before the waiter observes the
/// error, and a completion racing the failure never double-finishes.
#[test]
fn failed_requests_roll_up_before_the_waiter_wakes() {
    model(|| {
        let counters = Arc::new(ms::ServerCounters::default());
        let pending = Arc::new(ms::Pending::with_counters(
            2,
            Instant::now(),
            Some(Arc::clone(&counters)),
            3,
        ));
        pending.set_parts(2);

        let completer = {
            let pending = Arc::clone(&pending);
            thread::spawn(move || {
                pending.complete(0, vec![ms::TopKList::empty()], "toy", Precision::F64);
            })
        };
        let failer = {
            let pending = Arc::clone(&pending);
            thread::spawn(move || {
                pending.fail(MipsError::ServerShutdown);
            })
        };

        let err = pending.wait().expect_err("the failure must win");
        assert!(matches!(err, MipsError::ServerShutdown));
        assert_eq!(ms::server_completed(&counters), 1);
        assert_eq!(ms::server_failed(&counters), 1, "failed lagged the wakeup");
        completer.join().unwrap();
        failer.join().unwrap();
    });
}

/// The notifier variant of the same ordering, on both finishing paths: a
/// request completed by two racing parts (`fail_one` = a completion racing
/// a failure) hands its outcome to the notifier exactly once, with the
/// counters already rolled up and the pending's lock released — the
/// notifier re-locks the pending, which would deadlock the model if the
/// completing thread still held it.
fn notifier_runs_once_after_the_rollup(fail_one: bool) {
    model(move || {
        let counters = Arc::new(ms::ServerCounters::default());
        let calls = Arc::new(AtomicU64::new(0));
        let itself: Arc<Mutex<Option<Arc<ms::Pending>>>> = Arc::new(Mutex::new(None));
        let notifier = {
            let (counters, calls, itself) = (
                Arc::clone(&counters),
                Arc::clone(&calls),
                Arc::clone(&itself),
            );
            Box::new(move |outcome: Result<_, MipsError>| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert_eq!(outcome.is_err(), fail_one);
                assert_eq!(
                    ms::server_completed(&counters),
                    1,
                    "completed lagged the notifier"
                );
                assert_eq!(
                    ms::server_failed(&counters),
                    u64::from(fail_one),
                    "failed lagged the notifier"
                );
                assert_eq!(ms::server_latency_count(&counters), 1);
                let pending = itself
                    .lock()
                    .unwrap()
                    .take()
                    .expect("set before the parts run");
                assert!(pending.is_finished());
            })
        };
        let pending = Arc::new(ms::Pending::with_notifier(
            2,
            Instant::now(),
            Some(Arc::clone(&counters)),
            5,
            Some(notifier),
        ));
        pending.set_parts(2);
        *itself.lock().unwrap() = Some(Arc::clone(&pending));

        let parts: Vec<_> = (0..2)
            .map(|part| {
                let pending = Arc::clone(&pending);
                thread::spawn(move || {
                    if fail_one && part == 1 {
                        pending.fail(MipsError::ServerShutdown);
                    } else {
                        pending.complete(part, vec![ms::TopKList::empty()], "toy", Precision::F64);
                    }
                })
            })
            .collect();
        for part in parts {
            part.join().unwrap();
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "notified once, not per part"
        );
    });
}

#[test]
fn the_notifier_runs_once_after_the_rollup_on_success() {
    notifier_runs_once_after_the_rollup(false);
}

#[test]
fn the_notifier_runs_once_after_the_rollup_on_failure() {
    notifier_runs_once_after_the_rollup(true);
}

// ---------------------------------------------------------------------------
// Invariant 5: a completion between announce and sleep is never lost.
// ---------------------------------------------------------------------------

/// A wake socket in miniature: bytes pending, and a condvar standing in
/// for the readiness wait. `sleep` blocks until a byte is there and takes
/// everything, like the front door's loop draining its socket.
#[derive(Default)]
struct WakeSocket {
    pending: Mutex<u32>,
    readable: Condvar,
}

impl WakeSocket {
    fn write(&self) {
        *self.pending.lock().unwrap() += 1;
        self.readable.notify_all();
    }

    fn sleep(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending == 0 {
            pending = self.readable.wait(pending).unwrap();
        }
        *pending = 0;
    }
}

/// The front door's loop against one completing worker, with `recheck`
/// deciding whether the loop looks at its front slot again after
/// announcing the sleep (the real loop always does).
fn sleeper_and_completer(recheck: bool) {
    let gate = Arc::new(WakeGate::new());
    let front_ready = Arc::new(AtomicBool::new(false));
    let socket = Arc::new(WakeSocket::default());
    let worker = {
        let (gate, front_ready, socket) = (
            Arc::clone(&gate),
            Arc::clone(&front_ready),
            Arc::clone(&socket),
        );
        thread::spawn(move || {
            // Publish the completion, then pass the gate.
            front_ready.store(true, Ordering::SeqCst);
            gate.wake(|| socket.write());
        })
    };
    // Advance (nothing rendered yet?) → announce → re-check → sleep.
    while !front_ready.load(Ordering::SeqCst) {
        gate.sleep_unless(
            || recheck && front_ready.load(Ordering::SeqCst),
            || socket.sleep(),
        );
    }
    worker.join().unwrap();
}

/// Wherever the worker's completion lands relative to the loop's last
/// look, its announcement and its sleep, the loop ends up seeing it: before
/// the announcement the re-check finds it, after it the worker finds the
/// gate set and writes the socket. A lost completion would park the loop
/// forever, which the model reports as a deadlock.
#[test]
fn a_completion_between_announce_and_sleep_is_never_lost() {
    model(|| sleeper_and_completer(true));
}

// ---------------------------------------------------------------------------
// Seeded-bug suite: the checker must CATCH these planted defects. Each is
// a miniature of a real bug class the invariants above guard against.
// ---------------------------------------------------------------------------

fn small() -> Config {
    Config {
        preemption_bound: 2,
        max_schedules: 100_000,
    }
}

/// A torn refcount release: load-then-store instead of `fetch_sub`. Two
/// droppers racing lose a decrement, so the count never reaches zero — the
/// leak/double-free class the epoch suite guards. The checker must find
/// the interleaving.
#[test]
fn seeded_torn_refcount_release_is_caught() {
    let report = explore(small(), || {
        let count = Arc::new(AtomicU64::new(2));
        let dropper = {
            let count = Arc::clone(&count);
            thread::spawn(move || {
                // BUG (seeded): non-atomic decrement.
                let v = count.load(Ordering::SeqCst);
                count.store(v - 1, Ordering::SeqCst);
            })
        };
        let v = count.load(Ordering::SeqCst);
        count.store(v - 1, Ordering::SeqCst);
        dropper.join().unwrap();
        assert_eq!(
            count.load(Ordering::SeqCst),
            0,
            "torn release: refcount leaked or double-freed"
        );
    });
    let failure = report
        .failure
        .expect("the seeded refcount race must be caught");
    assert!(
        failure.message.contains("torn release"),
        "unexpected failure: {}",
        failure.message
    );
}

/// A toy queue whose push forgets to notify: a consumer that parked
/// before the push is never woken. The checker must report the lost
/// wakeup as a deadlock.
#[test]
fn seeded_dropped_notify_is_caught_as_deadlock() {
    let report = explore(small(), || {
        let chan = Arc::new((Mutex::new(Vec::<u32>::new()), Condvar::new()));
        let producer = {
            let chan = Arc::clone(&chan);
            thread::spawn(move || {
                chan.0.lock().unwrap().push(1);
                // BUG (seeded): no chan.1.notify_all() here.
            })
        };
        let (lock, cv) = &*chan;
        let mut items = lock.lock().unwrap();
        while items.is_empty() {
            items = cv.wait(items).unwrap();
        }
        drop(items);
        producer.join().unwrap();
    });
    let failure = report.failure.expect("the dropped notify must be caught");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {}",
        failure.message
    );
}

/// A batch key that drops the epoch: the leader's batch swallows the
/// old-epoch item already queued, so two models would share one solver
/// call. The checker must find it (here every schedule shows it).
#[test]
fn seeded_epoch_blind_key_is_caught() {
    // BUG (seeded): the key is `k` without the epoch.
    let report = explore(small(), || leader_batch_stays_in_its_epoch(true));
    let failure = report.failure.expect("the epoch-blind key must be caught");
    assert!(
        failure.message.contains("coalesced across epochs"),
        "unexpected failure: {}",
        failure.message
    );
}

/// The wake-gate handshake without its re-check: a completion that lands
/// between the loop's last look at its front slot and its announcement
/// finds the gate clear (no wake-up), and the loop then sleeps on a socket
/// nobody will write. The checker must find that schedule.
#[test]
fn seeded_skipped_recheck_is_caught_as_deadlock() {
    // BUG (seeded): `recheck = false` — announce, then sleep blind.
    let report = explore(small(), || sleeper_and_completer(false));
    let failure = report.failure.expect("the skipped re-check must be caught");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {}",
        failure.message
    );
}

/// A notify-before-rollup inversion of the metrics invariant: the waiter
/// can wake and read the counter before the worker bumps it. The checker
/// must find that interleaving.
#[test]
fn seeded_notify_before_rollup_is_caught() {
    let report = explore(small(), || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let rolled_up = Arc::new(AtomicU64::new(0));
        let worker = {
            let state = Arc::clone(&state);
            let rolled_up = Arc::clone(&rolled_up);
            thread::spawn(move || {
                *state.0.lock().unwrap() = true;
                state.1.notify_all();
                // BUG (seeded): rollup after the notify — the real
                // finish_one rolls up first.
                rolled_up.fetch_add(1, Ordering::SeqCst);
            })
        };
        let (lock, cv) = &*state;
        let mut done = lock.lock().unwrap();
        while !*done {
            done = cv.wait(done).unwrap();
        }
        drop(done);
        assert_eq!(
            rolled_up.load(Ordering::SeqCst),
            1,
            "metrics lagged the wakeup"
        );
        worker.join().unwrap();
    });
    let failure = report.failure.expect("the inverted rollup must be caught");
    assert!(
        failure.message.contains("metrics lagged"),
        "unexpected failure: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// The checker itself: failure traces are deterministic and replayable.
// ---------------------------------------------------------------------------

/// The same seeded bug explored twice yields byte-identical traces and
/// schedules, and replaying the printed trace seed reproduces the failure
/// in exactly one schedule — the contract behind `MIPS_MODEL_REPLAY`.
#[test]
fn failure_traces_are_deterministic_and_replayable() {
    fn seeded() -> impl Fn() + Send + Sync + 'static {
        || {
            let count = Arc::new(AtomicU64::new(2));
            let dropper = {
                let count = Arc::clone(&count);
                thread::spawn(move || {
                    let v = count.load(Ordering::SeqCst);
                    count.store(v - 1, Ordering::SeqCst);
                })
            };
            let v = count.load(Ordering::SeqCst);
            count.store(v - 1, Ordering::SeqCst);
            dropper.join().unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 0, "lost decrement");
        }
    }

    let first = explore(small(), seeded()).failure.expect("must fail");
    let second = explore(small(), seeded()).failure.expect("must fail");
    assert_eq!(
        first.trace, second.trace,
        "exploration is not deterministic"
    );
    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.schedule_index, second.schedule_index);

    let replayed = replay(&first.trace, seeded());
    assert_eq!(replayed.schedules, 1);
    let failure = replayed.failure.expect("replay must reproduce the failure");
    assert!(failure.message.contains("lost decrement"));
}
