//! The bounded submission queue feeding the worker pool.
//!
//! Many submitter threads push, the worker pool pops — with two properties
//! the runtime needs beyond a plain channel:
//!
//! * **All-or-nothing admission.** A request larger than one micro-batch is
//!   cut into several sub-requests; admitting some of them and bouncing
//!   the rest would leave a request permanently incomplete. `push_all`
//!   admits a request's whole sub-request set atomically or not at all.
//! * **Keyed extraction.** The micro-batcher coalesces queued sub-requests
//!   under the same `(epoch, k)`. Workers pull their first item FIFO, then
//!   extract every queued match, leaving other work in order for the rest
//!   of the pool.
//!
//! Capacity is the backpressure bound: `push_all` with `block = false`
//! refuses over-capacity submissions ([`MipsError::ServerOverloaded`]),
//! with `block = true` it waits for the pool to drain. A request is cut
//! into at most one piece per worker and the server builder guarantees
//! `capacity >= workers`, so every request's sub-request set fits; the
//! empty-queue admission of an oversized set below is defense in depth,
//! not a supported mode (it would be starvable under sustained small
//! traffic).

use super::split::SubRequest;
use crate::engine::MipsError;
use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// The key micro-batchable work is coalesced under: one model epoch at one
/// `k`.
///
/// The epoch id makes coalescing epoch-safe by construction: sub-requests
/// admitted before and after a model swap can never share a batch — they
/// would plan on different models. Epoch ids are strictly increasing per
/// engine, so equal keys always mean the same epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    epoch: u64,
    k: usize,
}

/// Work items the bounded queue can carry and the micro-batcher can
/// coalesce. `SubRequest` is the production item; the model-check suite
/// drives the same queue/batcher code with toy items, so the protocols
/// are checked without building engines.
pub trait QueueItem {
    /// Coalescing key: items with equal keys may share a batch.
    type Key: Copy + PartialEq;
    /// The key this item coalesces under.
    fn key(&self) -> Self::Key;
    /// The item's cost against the batch budget (users, for
    /// sub-requests).
    fn weight(&self) -> usize;
    /// Whether this item may join a coalesced batch at all.
    fn batchable(&self, max_batch: usize) -> bool;
}

impl QueueItem for SubRequest {
    type Key = BatchKey;
    fn key(&self) -> BatchKey {
        BatchKey {
            epoch: self.epoch.id,
            k: self.k,
        }
    }
    fn weight(&self) -> usize {
        self.users.len()
    }
    fn batchable(&self, max_batch: usize) -> bool {
        // The inherent method: no exclusions, and small enough to share.
        SubRequest::batchable(self, max_batch)
    }
}

struct QueueState<I> {
    items: VecDeque<I>,
    closed: bool,
    /// Pushers parked on `not_full`. Consumers signal it only while this
    /// is non-zero: a notify is a syscall whether or not anyone waits, and
    /// steady traffic never has a blocked pusher.
    blocked_pushers: usize,
}

/// Bounded MPMC queue of keyed work items with atomic multi-item
/// admission and keyed extraction. [`SubmitQueue`] is the production
/// instantiation.
pub struct BoundedQueue<I: QueueItem> {
    state: Mutex<QueueState<I>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// The production queue: sub-requests keyed by `(epoch, k)`.
pub(crate) type SubmitQueue = BoundedQueue<SubRequest>;

impl<I: QueueItem> BoundedQueue<I> {
    /// An empty queue admitting at most `capacity` queued items.
    pub fn new(capacity: usize) -> BoundedQueue<I> {
        assert!(capacity > 0, "BoundedQueue: capacity must be > 0");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                blocked_pushers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, QueueState<I>> {
        self.state
            .lock()
            .unwrap_or_else(crate::sync::PoisonError::into_inner)
    }

    /// Queued items right now.
    #[cfg(any(test, mips_model_check))]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Admits `subs` atomically. With `block`, waits for space; without,
    /// returns [`MipsError::ServerOverloaded`] when the set does not fit.
    pub fn push_all(&self, subs: Vec<I>, block: bool) -> Result<(), MipsError> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(MipsError::ServerShutdown);
            }
            let fits = state.items.len() + subs.len() <= self.capacity
                || (state.items.is_empty() && subs.len() > self.capacity);
            if fits {
                // One item occupies one worker: wake one. A set wakes the
                // pool.
                let wake_all = subs.len() > 1;
                state.items.extend(subs);
                drop(state);
                if wake_all {
                    self.not_empty.notify_all();
                } else {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            if !block {
                return Err(MipsError::ServerOverloaded {
                    capacity: self.capacity,
                });
            }
            state.blocked_pushers += 1;
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(crate::sync::PoisonError::into_inner);
            state.blocked_pushers -= 1;
        }
    }

    /// Releases the lock after items left the queue, waking blocked
    /// pushers if there are any.
    fn release_after_take(&self, state: crate::sync::MutexGuard<'_, QueueState<I>>) {
        let pushers_wait = state.blocked_pushers > 0;
        drop(state);
        if pushers_wait {
            self.not_full.notify_all();
        }
    }

    /// Blocks for the next item; `None` once the queue is closed and
    /// drained.
    pub fn pop(&self) -> Option<I> {
        let mut state = self.lock();
        loop {
            if let Some(sub) = state.items.pop_front() {
                self.release_after_take(state);
                return Some(sub);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(crate::sync::PoisonError::into_inner);
        }
    }

    /// Extracts queued sub-requests matching `key` (batchable ones only)
    /// whose users fit within `budget_users`, preserving the queue order of
    /// everything else. The budget bounds the *work* of the coalesced
    /// solver call — in users, not sub-requests — so `max_batch` means the
    /// same thing whether traffic is single-user or small-range.
    pub fn extract_matching(
        &self,
        key: I::Key,
        budget_users: usize,
        max_batch: usize,
        out: &mut Vec<I>,
    ) {
        if budget_users == 0 {
            return;
        }
        let mut state = self.lock();
        // Allocation-free pre-scan: under mixed load much of the backlog is
        // other keys' work, and every pop of a batchable item scans once,
        // so the no-match case must not pay a queue rebuild.
        let fits = |sub: &I, budget: usize| {
            sub.key() == key && sub.batchable(max_batch) && sub.weight() <= budget
        };
        if !state.items.iter().any(|sub| fits(sub, budget_users)) {
            return;
        }
        let mut kept = VecDeque::with_capacity(state.items.len());
        let mut budget = budget_users;
        for sub in state.items.drain(..) {
            if fits(&sub, budget) {
                budget -= sub.weight();
                out.push(sub);
            } else {
                kept.push_back(sub);
            }
        }
        state.items = kept;
        self.release_after_take(state);
    }

    /// Closes the queue: pending pops drain the backlog, then return
    /// `None`; new pushes fail with [`MipsError::ServerShutdown`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::epoch::ModelEpoch;
    use crate::engine::QueryRequest;
    use crate::serve::split::{split, test_epoch, Pending, SubUsers};
    use crate::serve::ServeOptions;
    use crate::sync::Arc;
    use std::time::{Duration, Instant};

    /// Two epochs shared by every sub-request of a test, so sub-requests
    /// with equal epoch indexes and `k` get equal batch keys.
    struct Fixture {
        epochs: [Arc<ModelEpoch>; 2],
    }

    fn fixture() -> Fixture {
        Fixture {
            epochs: [test_epoch(0, 12), test_epoch(1, 12)],
        }
    }

    fn sub(f: &Fixture, epoch: usize, k: usize, user: usize) -> SubRequest {
        let now = Instant::now();
        SubRequest {
            k,
            out_start: 0,
            users: SubUsers::Ids(vec![user]),
            exclude: None,
            pending: Arc::new(Pending::new(1, now)),
            epoch: Arc::clone(&f.epochs[epoch]),
        }
    }

    #[test]
    fn try_push_bounces_when_full_blocking_push_waits() {
        let e = fixture();
        let q = SubmitQueue::new(2);
        q.push_all(vec![sub(&e, 0, 1, 0), sub(&e, 0, 1, 1)], false)
            .unwrap();
        assert!(matches!(
            q.push_all(vec![sub(&e, 0, 1, 2)], false),
            Err(MipsError::ServerOverloaded { capacity: 2 })
        ));
        // A consumer frees a slot; the blocked push completes.
        crate::sync::thread::scope(|scope| {
            let handle = scope.spawn(|| q.push_all(vec![sub(&e, 0, 1, 2)], true));
            crate::sync::thread::sleep(Duration::from_millis(20));
            assert!(q.pop().is_some());
            handle.join().unwrap().unwrap();
        });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn oversized_requests_admit_only_into_an_empty_queue() {
        let e = fixture();
        let q = SubmitQueue::new(2);
        let big = vec![sub(&e, 0, 1, 0), sub(&e, 0, 1, 1), sub(&e, 0, 1, 2)];
        q.push_all(big, false).unwrap();
        assert_eq!(q.len(), 3);
        assert!(q.push_all(vec![sub(&e, 0, 1, 3)], false).is_err());
    }

    #[test]
    fn extract_matching_pulls_only_the_key_and_keeps_order() {
        let e = fixture();
        let q = SubmitQueue::new(16);
        q.push_all(
            vec![
                sub(&e, 0, 5, 0),
                sub(&e, 1, 5, 1),
                sub(&e, 0, 5, 11),
                sub(&e, 0, 3, 3),
            ],
            false,
        )
        .unwrap();
        let first = q.pop().unwrap();
        assert_eq!((first.epoch.id, first.k), (0, 5));
        let key = first.key();
        let mut batch = vec![first];
        q.extract_matching(key, 8, 32, &mut batch);
        // Users 0 and 11 coalesce whatever their ids: the key is the epoch
        // and k alone.
        assert_eq!(batch.len(), 2, "only epoch-0 k=5 items coalesce");
        assert_eq!(batch[1].users, SubUsers::Ids(vec![11]));
        // The others remain FIFO.
        assert_eq!(q.pop().unwrap().epoch.id, 1);
        assert_eq!(q.pop().unwrap().k, 3);
    }

    #[test]
    fn one_request_split_on_two_epochs_never_shares_a_key() {
        // The same request split on the epochs before and after a swap
        // yields the same pieces and k but distinct batch keys, so the
        // micro-batcher cannot coalesce across epochs; the same
        // `(epoch, k)` always shares one.
        let config = ServeOptions {
            workers: 3,
            max_batch: 1,
            ..ServeOptions::default()
        };
        let request = QueryRequest::top_k(5).users(vec![0, 5, 11]);
        let now = Instant::now();
        let keys = |epoch: &Arc<ModelEpoch>| -> Vec<BatchKey> {
            let pending = Arc::new(Pending::new(3, now));
            let subs = split(&request, epoch, &config, &pending);
            subs.iter().map(QueueItem::key).collect()
        };
        let (old, new) = (test_epoch(0, 12), test_epoch(1, 12));
        let (old_keys, new_keys) = (keys(&old), keys(&new));
        assert_eq!(old_keys.len(), 3);
        assert_eq!(new_keys.len(), 3);
        for key in &old_keys {
            assert!(!new_keys.contains(key), "{key:?} shared across epochs");
        }
        assert!(old_keys.iter().all(|key| *key == old_keys[0]));
        assert_eq!(old_keys, keys(&old));
        // Keyed by value: a second `Arc` of an epoch with the same id
        // coalesces with the first, so the key holds no identity.
        assert_eq!(old_keys, keys(&test_epoch(0, 12)));
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let e = fixture();
        let q = SubmitQueue::new(4);
        q.push_all(vec![sub(&e, 0, 1, 0)], false).unwrap();
        q.close();
        assert!(matches!(
            q.push_all(vec![sub(&e, 0, 1, 1)], true),
            Err(MipsError::ServerShutdown)
        ));
        assert!(q.pop().is_some(), "backlog drains after close");
        assert!(q.pop().is_none());
    }
}
