//! Request splitting and response reassembly.
//!
//! A request whose users fit one micro-batch (`max_batch` users) is queued
//! whole. A larger one is cut into `min(workers, ⌈n / max_batch⌉)`
//! contiguous [`chunk_bounds`] pieces of its selected positions, so idle
//! workers serve it in parallel (the paper's Fig. 6 partitioning). Each
//! piece's results land contiguously at its `out_start` in the response,
//! whatever the selection's shape: ranges stay ranges, id lists (repeats
//! included) are sliced in request order. Exclusion sets are keyed by
//! global user id, so every piece carries the request's set untouched.

use super::metrics::ServerCounters;
use super::ServeOptions;
use crate::engine::epoch::ModelEpoch;
use crate::engine::{ExclusionSet, MipsError, QueryRequest, QueryResponse, UserSelection};
use crate::parallel::chunk_bounds;
use crate::sync::{Arc, Condvar, Mutex};
use mips_topk::TopKList;
use std::ops::Range;
use std::time::Instant;

/// Cuts a request validated on `epoch` into the sub-requests `config`
/// calls for, all wired to one [`Pending`] reassembly buffer sized for the
/// full response; each sub-request pins `epoch` until it settles.
pub(crate) fn split(
    request: &QueryRequest,
    epoch: &Arc<ModelEpoch>,
    config: &ServeOptions,
    pending: &Arc<Pending>,
) -> Vec<SubRequest> {
    let n = request.result_len(&epoch.model);
    let pieces = n.div_ceil(config.max_batch).min(config.workers);
    let exclude = request.exclude.clone().filter(|e| !e.is_empty());
    let users = |at: Range<usize>| match &request.users {
        UserSelection::All => SubUsers::Range(at),
        UserSelection::Range(range) => {
            SubUsers::Range(range.start + at.start..range.start + at.end)
        }
        UserSelection::Ids(ids) => SubUsers::Ids(ids[at].to_vec()),
    };
    chunk_bounds(n, pieces)
        .into_iter()
        .map(|at| SubRequest {
            k: request.k,
            out_start: at.start,
            users: users(at),
            exclude: exclude.clone(),
            pending: Arc::clone(pending),
            epoch: Arc::clone(epoch),
        })
        .collect()
}

/// The users of one sub-request, in response order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SubUsers {
    /// A contiguous slice of the model's users.
    Range(Range<usize>),
    /// Explicit ids, repeats allowed.
    Ids(Vec<usize>),
}

impl SubUsers {
    /// Number of users this sub-request serves.
    pub fn len(&self) -> usize {
        match self {
            SubUsers::Range(users) => users.len(),
            SubUsers::Ids(users) => users.len(),
        }
    }
}

/// One unit of work for the pool: a request, or one piece of a request too
/// large for one micro-batch, submitted through the server's queue.
pub(crate) struct SubRequest {
    pub(crate) k: usize,
    /// The first response slot this sub-request's results fill.
    pub(crate) out_start: usize,
    pub(crate) users: SubUsers,
    pub(crate) exclude: Option<Arc<ExclusionSet>>,
    pub(crate) pending: Arc<Pending>,
    /// The model epoch the request was validated on: planning and serving
    /// resolve against it, and this `Arc` keeps its model, solvers and
    /// plans alive until the sub-request settles — no longer.
    pub(crate) epoch: Arc<ModelEpoch>,
}

impl SubRequest {
    /// Whether the micro-batcher may coalesce this sub-request with others
    /// under the same `(epoch, k)`. Exclusion-carrying requests are served
    /// solo: two batched requests could exclude different items for the
    /// same user, which a merged exclusion set cannot express.
    pub(crate) fn batchable(&self, max_batch: usize) -> bool {
        self.exclude.is_none() && self.users.len() < max_batch
    }

    /// The sub-request as a standalone engine request (unbatched path).
    pub(crate) fn to_request(&self) -> QueryRequest {
        QueryRequest {
            k: self.k,
            users: match &self.users {
                SubUsers::Range(users) => UserSelection::Range(users.clone()),
                SubUsers::Ids(users) => UserSelection::Ids(users.clone()),
            },
            exclude: self.exclude.clone(),
        }
    }
}

/// What a completion notifier receives: the reassembled response, or the
/// first error any piece hit — what [`ResponseHandle::wait`] would have
/// returned.
///
/// [`ResponseHandle::wait`]: super::ResponseHandle::wait
pub type Outcome = Result<QueryResponse, MipsError>;

/// A completion notifier: called exactly once, with the request's outcome,
/// on the thread that finished the request.
pub type Notifier = Box<dyn FnOnce(Outcome) + Send>;

/// Reassembly state for one in-flight request: a slot per selected user,
/// filled by sub-request completions in any order, plus the condvar the
/// caller's [`ResponseHandle`](super::ResponseHandle) waits on — or the
/// notifier that takes the outcome instead of a waiter.
pub struct Pending {
    state: Mutex<PendingState>,
    done: Condvar,
    /// Server-wide counters to roll into when the request finishes; rolled
    /// up *before* the waiter wakes, so metrics never lag a completed
    /// `wait`. `None` in unit tests that exercise the pending alone.
    counters: Option<Arc<ServerCounters>>,
    /// The model epoch the request was admitted under, reported back in
    /// [`QueryResponse::epoch`].
    epoch: u64,
}

struct PendingState {
    results: Vec<TopKList>,
    remaining: usize,
    backend: String,
    precision: crate::precision::Precision,
    error: Option<MipsError>,
    finished: bool,
    submitted_at: Instant,
    latency: f64,
    /// Taken (with the outcome) by the completion that finishes the
    /// request; `None` for requests someone waits on.
    notifier: Option<Notifier>,
}

impl Pending {
    /// A pending response with `result_len` slots. The number of
    /// sub-requests it waits for is set by [`Pending::set_parts`] once the
    /// split is known — before any worker can see the sub-requests.
    #[cfg(any(test, mips_model_check))]
    pub fn new(result_len: usize, now: Instant) -> Pending {
        Pending::with_counters(result_len, now, None, 0)
    }

    /// [`Pending::new`] wired to the server's request-level counters and
    /// stamped with the model epoch the request was admitted under.
    #[cfg(any(test, mips_model_check))]
    pub fn with_counters(
        result_len: usize,
        now: Instant,
        counters: Option<Arc<ServerCounters>>,
        epoch: u64,
    ) -> Pending {
        Pending::with_notifier(result_len, now, counters, epoch, None)
    }

    /// [`Pending::with_counters`], plus the notifier that receives the
    /// outcome when the last sub-request completes — on success, on
    /// [`Pending::fail`], and on the worker's panic path (which fails the
    /// request) alike. It runs on the completing thread after the counters
    /// rolled up and with the pending's lock released, so it may read
    /// metrics and take its time without blocking other completions.
    pub fn with_notifier(
        result_len: usize,
        now: Instant,
        counters: Option<Arc<ServerCounters>>,
        epoch: u64,
        notifier: Option<Notifier>,
    ) -> Pending {
        Pending {
            state: Mutex::new(PendingState {
                results: vec![TopKList::empty(); result_len],
                remaining: 0,
                backend: String::new(),
                precision: crate::precision::Precision::F64,
                error: None,
                finished: false,
                submitted_at: now,
                latency: 0.0,
                notifier,
            }),
            done: Condvar::new(),
            counters,
            epoch,
        }
    }

    /// Records how many sub-request completions finish this request. Must
    /// be called exactly once, before the sub-requests are enqueued.
    pub fn set_parts(&self, parts: usize) {
        let mut state = self.lock();
        debug_assert_eq!(state.remaining, 0, "set_parts called twice");
        state.remaining = parts;
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, PendingState> {
        self.state
            .lock()
            .unwrap_or_else(crate::sync::PoisonError::into_inner)
    }

    /// Writes one sub-request's results into the response, starting at
    /// slot `out_start`. Returns `true` when this completion finished the
    /// whole request.
    ///
    /// A completion arriving after the request already finished (an early
    /// failure of another piece, or the panic handler re-failing a batch
    /// whose earlier subs completed) is ignored: the waiter may already
    /// have taken the result buffers, and the part count must not
    /// underflow.
    pub fn complete(
        &self,
        out_start: usize,
        lists: Vec<TopKList>,
        backend: &str,
        precision: crate::precision::Precision,
    ) -> bool {
        let mut state = self.lock();
        if state.finished {
            return false;
        }
        for (offset, list) in lists.into_iter().enumerate() {
            state.results[out_start + offset] = list;
        }
        if state.backend.is_empty() {
            state.backend = backend.to_string();
            // Like the backend label, the first completing sub-request
            // names the response's precision.
            state.precision = precision;
        }
        self.finish_one(state)
    }

    /// Fails the whole request (first error wins). Returns `true` when this
    /// completion finished the request. Ignored once the request already
    /// finished (see [`Pending::complete`]).
    pub fn fail(&self, error: MipsError) -> bool {
        let mut state = self.lock();
        if state.finished {
            return false;
        }
        state.error.get_or_insert(error);
        self.finish_one(state)
    }

    fn finish_one(&self, mut state: crate::sync::MutexGuard<'_, PendingState>) -> bool {
        state.remaining -= 1;
        if state.remaining != 0 {
            return false;
        }
        state.finished = true;
        state.latency = state.submitted_at.elapsed().as_secs_f64();
        if let Some(counters) = &self.counters {
            use crate::sync::atomic::Ordering;
            counters.completed.fetch_add(1, Ordering::Relaxed);
            if state.error.is_some() {
                counters.failed.fetch_add(1, Ordering::Relaxed);
            }
            counters.latency.record_ns((state.latency * 1e9) as u64);
        }
        match state.notifier.take() {
            // Nobody waits on a notified request: the notifier owns the
            // outcome. It runs with the lock released.
            Some(notifier) => {
                let outcome = self.take_outcome(&mut state);
                drop(state);
                notifier(outcome);
            }
            None => self.done.notify_all(),
        }
        true
    }

    /// Moves the finished request's response (or first error) out.
    fn take_outcome(&self, state: &mut PendingState) -> Outcome {
        debug_assert!(state.finished);
        if let Some(error) = state.error.take() {
            return Err(error);
        }
        Ok(QueryResponse {
            results: std::mem::take(&mut state.results),
            backend: std::mem::take(&mut state.backend),
            precision: state.precision,
            planned: true,
            epoch: self.epoch,
            serve_seconds: state.latency,
        })
    }

    /// Whether the request has fully completed (with result or error).
    pub fn is_finished(&self) -> bool {
        self.lock().finished
    }

    /// Blocks until every sub-request has completed, then takes the
    /// response (or the first error).
    pub fn wait(&self) -> Outcome {
        let mut state = self.lock();
        while !state.finished {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(crate::sync::PoisonError::into_inner);
        }
        self.take_outcome(&mut state)
    }
}

/// A test-only epoch `id` over a tiny synthetic model, shared by the
/// split and queue unit tests (which exercise splitting and batch keys,
/// not serving).
#[cfg(test)]
pub(crate) fn test_epoch(id: u64, num_users: usize) -> Arc<ModelEpoch> {
    use mips_data::synth::{synth_model, SynthConfig};
    let model = synth_model(&SynthConfig {
        num_users,
        num_items: 16,
        num_factors: 4,
        ..SynthConfig::default()
    });
    Arc::new(ModelEpoch::new(id, Arc::new(model)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(workers: usize, max_batch: usize) -> ServeOptions {
        ServeOptions {
            workers,
            max_batch,
            ..ServeOptions::default()
        }
    }

    /// The split of `request` on `epoch`, as `(out_start, users)` pairs.
    fn cut(
        request: &QueryRequest,
        epoch: &Arc<ModelEpoch>,
        config: &ServeOptions,
    ) -> Vec<(usize, SubUsers)> {
        let now = Instant::now();
        let len = request.result_len(&epoch.model);
        let pending = Arc::new(Pending::new(len, now));
        let subs = split(request, epoch, config, &pending);
        for sub in &subs {
            // Every piece is pinned to the epoch it was split on and keeps
            // the request's k and exclusions.
            assert!(Arc::ptr_eq(&sub.epoch, epoch));
            assert_eq!(sub.k, request.k);
            assert_eq!(sub.exclude.is_some(), request.exclude.is_some());
        }
        subs.into_iter().map(|s| (s.out_start, s.users)).collect()
    }

    #[test]
    fn splits_cover_each_selection_shape() {
        let epoch = test_epoch(3, 10);
        let mut exclusions = ExclusionSet::new();
        exclusions.insert(9, 2);
        let exclusions = Arc::new(exclusions);
        let ids = vec![9, 0, 5, 0, 9, 3, 3];
        let requests = [
            QueryRequest::top_k(2),
            QueryRequest::top_k(2).users_range(2..9),
            QueryRequest::top_k(2).users(ids.clone()),
            QueryRequest::top_k(2).exclude(Arc::clone(&exclusions)),
            QueryRequest::top_k(2)
                .users(ids.clone())
                .exclude(Arc::clone(&exclusions)),
        ];
        // The users each request selects, in response order.
        let selected = |request: &QueryRequest| -> Vec<usize> {
            match &request.users {
                UserSelection::All => (0..10).collect(),
                UserSelection::Range(range) => range.clone().collect(),
                UserSelection::Ids(ids) => ids.clone(),
            }
        };
        for request in &requests {
            let want = selected(request);
            let n = want.len();
            for (workers, max_batch) in [(1, 1), (2, 3), (3, 2), (4, 4), (8, 1), (3, n), (2, 32)] {
                let pieces = cut(request, &epoch, &options(workers, max_batch));
                let expect = if n <= max_batch {
                    1
                } else {
                    workers.min(n.div_ceil(max_batch))
                };
                assert_eq!(pieces.len(), expect, "{request:?} at {workers}/{max_batch}");
                if n <= max_batch {
                    // Queued whole: a range stays one range, ids one list.
                    let whole = match &request.users {
                        UserSelection::Ids(ids) => SubUsers::Ids(ids.clone()),
                        _ => SubUsers::Range(want[0]..want[n - 1] + 1),
                    };
                    assert_eq!(pieces, [(0, whole)]);
                }
                // The pieces tile the response in order: each lands where
                // the previous ended and serves exactly the users selected
                // at those positions, so every position is covered once.
                let mut next = 0;
                for (out_start, users) in &pieces {
                    assert_eq!(*out_start, next, "{request:?} at {workers}/{max_batch}");
                    let got: Vec<usize> = match users {
                        SubUsers::Range(range) => range.clone().collect(),
                        SubUsers::Ids(ids) => ids.clone(),
                    };
                    assert!(!got.is_empty());
                    assert_eq!(got, want[next..next + got.len()]);
                    next += got.len();
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn an_epoch_with_fewer_users_is_cut_into_fewer_ranges() {
        // Three workers and one-user batches, but a two-user epoch has only
        // two users to cut: every user is still served exactly once.
        let epoch = test_epoch(0, 2);
        let pieces = cut(&QueryRequest::top_k(1), &epoch, &options(3, 1));
        assert_eq!(
            pieces,
            [(0, SubUsers::Range(0..1)), (1, SubUsers::Range(1..2))]
        );
    }

    #[test]
    fn pending_reassembles_out_of_order_completions() {
        let now = Instant::now();
        let pending = Pending::new(3, now);
        pending.set_parts(2);
        let mk = |item: u32| TopKList {
            items: vec![item],
            scores: vec![item as f64],
        };
        assert!(!pending.complete(2, vec![mk(30)], "B", crate::precision::Precision::F64));
        assert!(!pending.is_finished());
        assert!(pending.complete(
            0,
            vec![mk(10), mk(20)],
            "B",
            crate::precision::Precision::F64
        ));
        let response = pending.wait().unwrap();
        assert_eq!(response.backend, "B");
        assert_eq!(
            response
                .results
                .iter()
                .map(|l| l.items[0])
                .collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn first_error_wins_and_fails_the_wait() {
        let now = Instant::now();
        let pending = Pending::new(2, now);
        pending.set_parts(2);
        pending.fail(MipsError::EmptyUserList);
        pending.fail(MipsError::NoBackends);
        assert!(pending.is_finished());
        assert_eq!(pending.wait().unwrap_err(), MipsError::EmptyUserList);
    }
}
