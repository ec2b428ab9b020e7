//! Shard routing: contiguous user ranges, request splitting, and response
//! reassembly.
//!
//! The paper's Fig. 6 observation — read-only indexes make user-partitioned
//! parallelism near-linear — is applied here at the *serving* level: the
//! model's users are split into contiguous shards (the same
//! [`chunk_bounds`](crate::parallel::chunk_bounds) partitioning the
//! multi-core path uses), a request is split into at most one sub-request
//! per shard, and the per-shard results are scattered back into the
//! response in request order. Exclusion sets ride along untouched: they are
//! keyed by global user id, so a set that straddles shards simply travels
//! with every sub-request that needs it. The ranges are cut from the
//! request's own epoch at split time, so a swap that changes the user count
//! re-cuts them with nothing to rebuild.

use super::metrics::{ServerCounters, ShardCounters};
use crate::engine::epoch::ModelEpoch;
use crate::engine::{ExclusionSet, MipsError, QueryRequest, QueryResponse, UserSelection};
use crate::parallel::chunk_bounds;
use crate::sync::{Arc, Condvar, Mutex};
use mips_topk::TopKList;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Splits a request validated on `epoch` into per-shard sub-requests, all
/// wired to one [`Pending`] reassembly buffer sized for the full response.
/// The shard ranges are `epoch`'s users cut into at most `shards.len()`
/// [`chunk_bounds`] pieces; each sub-request pins `epoch` until it settles
/// and is counted in `shards[its shard]`.
pub(crate) fn split(
    request: &QueryRequest,
    epoch: &Arc<ModelEpoch>,
    shards: &Arc<[ShardCounters]>,
    pending: &Arc<Pending>,
    now: Instant,
) -> Vec<SubRequest> {
    let bounds = chunk_bounds(epoch.model.num_users(), shards.len());
    let exclude = request.exclude.clone().filter(|e| !e.is_empty());
    let sub = |(shard, users): (usize, SubUsers)| SubRequest {
        shard,
        k: request.k,
        users,
        exclude: exclude.clone(),
        pending: Arc::clone(pending),
        epoch: Arc::clone(epoch),
        shards: Arc::clone(shards),
        submitted_at: now,
    };
    let groups = match &request.users {
        UserSelection::All => group_range(&bounds, 0..epoch.model.num_users()),
        UserSelection::Range(range) => group_range(&bounds, range.clone()),
        UserSelection::Ids(ids) => group_ids(&bounds, ids),
    };
    groups.into_iter().map(sub).collect()
}

/// The slice of `range` each shard owns, ascending by shard; each slice's
/// results land contiguously at its offset in `range`.
fn group_range(bounds: &[Range<usize>], range: Range<usize>) -> Vec<(usize, SubUsers)> {
    let slice = |(shard, owned): (usize, &Range<usize>)| {
        let users = range.start.max(owned.start)..range.end.min(owned.end);
        let out_start = users.start - range.start;
        (!users.is_empty()).then_some((shard, SubUsers::Range { users, out_start }))
    };
    bounds.iter().enumerate().filter_map(slice).collect()
}

/// The shard owning `user` among `bounds` (a [`chunk_bounds`] cut, so every
/// range but the last is as long as the first). Caller guarantees `user`
/// is in range.
fn shard_of(bounds: &[Range<usize>], user: usize) -> usize {
    user / bounds[0].len()
}

/// The ids of one request grouped by owning shard, ascending by shard,
/// request order (and response positions) preserved within each.
fn group_ids(bounds: &[Range<usize>], ids: &[usize]) -> Vec<(usize, SubUsers)> {
    // The straight path: every id on one shard — always so for the
    // one-id request that is most point traffic — needs no grouping.
    if let Some(&first) = ids.first() {
        let shard = shard_of(bounds, first);
        if ids.iter().all(|user| bounds[shard].contains(user)) {
            let users = SubUsers::Ids {
                users: ids.to_vec(),
                positions: (0..ids.len()).collect(),
            };
            return vec![(shard, users)];
        }
    }
    group_ids_across_shards(bounds, ids)
}

/// [`group_ids`] for ids that straddle shards (correct for any id list;
/// the unit tests hold the straight path against it).
fn group_ids_across_shards(bounds: &[Range<usize>], ids: &[usize]) -> Vec<(usize, SubUsers)> {
    let mut per_shard: HashMap<usize, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (pos, &user) in ids.iter().enumerate() {
        let entry = per_shard.entry(shard_of(bounds, user)).or_default();
        entry.0.push(user);
        entry.1.push(pos);
    }
    let mut groups: Vec<(usize, SubUsers)> = per_shard
        .into_iter()
        .map(|(shard, (users, positions))| (shard, SubUsers::Ids { users, positions }))
        .collect();
    groups.sort_unstable_by_key(|(shard, _)| *shard);
    groups
}

/// The users of one sub-request, with the positions their results occupy in
/// the final response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubUsers {
    /// A contiguous slice of the shard's range; results land contiguously
    /// starting at `out_start`.
    Range {
        /// Global user ids to serve.
        users: Range<usize>,
        /// First response slot this range fills.
        out_start: usize,
    },
    /// Explicit ids (all owned by one shard), scattered back one by one.
    Ids {
        /// Global user ids to serve, in request order.
        users: Vec<usize>,
        /// Response slot for each served user.
        positions: Vec<usize>,
    },
}

impl SubUsers {
    /// Number of users this sub-request serves.
    pub fn len(&self) -> usize {
        match self {
            SubUsers::Range { users, .. } => users.len(),
            SubUsers::Ids { users, .. } => users.len(),
        }
    }
}

/// One unit of shard work: a per-shard slice of a request, submitted to the
/// worker pool through the server's queue.
pub(crate) struct SubRequest {
    /// The position of this sub-request's range among its epoch's shard
    /// ranges.
    pub(crate) shard: usize,
    pub(crate) k: usize,
    pub(crate) users: SubUsers,
    pub(crate) exclude: Option<Arc<ExclusionSet>>,
    pub(crate) pending: Arc<Pending>,
    /// The model epoch the request was validated on: planning and serving
    /// resolve against it, and this `Arc` keeps its model, solvers and
    /// plans alive until the sub-request settles — no longer.
    pub(crate) epoch: Arc<ModelEpoch>,
    /// The server's per-shard counters; `shards[shard]` counts this
    /// sub-request.
    pub(crate) shards: Arc<[ShardCounters]>,
    pub(crate) submitted_at: Instant,
}

impl SubRequest {
    /// Whether the micro-batcher may coalesce this sub-request with others
    /// under the same `(epoch, shard, k)`. Exclusion-carrying requests are
    /// served solo: two batched requests could exclude different items for
    /// the same user, which a merged exclusion set cannot express.
    pub(crate) fn batchable(&self, max_batch: usize) -> bool {
        self.exclude.is_none() && self.users.len() < max_batch
    }

    /// The sub-request as a standalone engine request (unbatched path).
    pub(crate) fn to_request(&self) -> QueryRequest {
        QueryRequest {
            k: self.k,
            users: match &self.users {
                SubUsers::Range { users, .. } => UserSelection::Range(users.clone()),
                SubUsers::Ids { users, .. } => UserSelection::Ids(users.clone()),
            },
            exclude: self.exclude.clone(),
        }
    }
}

/// What a completion notifier receives: the reassembled response, or the
/// first error any shard hit — what [`ResponseHandle::wait`] would have
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

    /// Scatters one sub-request's results into the response. Returns `true`
    /// when this completion finished the whole request.
    ///
    /// A completion arriving after the request already finished (an early
    /// failure on another shard, or the panic handler re-failing a batch
    /// whose earlier subs completed) is ignored: the waiter may already
    /// have taken the result buffers, and the part count must not
    /// underflow.
    pub fn complete(
        &self,
        users: &SubUsers,
        lists: Vec<TopKList>,
        backend: &str,
        precision: crate::precision::Precision,
    ) -> bool {
        let mut state = self.lock();
        if state.finished {
            return false;
        }
        match users {
            SubUsers::Range { out_start, .. } => {
                for (offset, list) in lists.into_iter().enumerate() {
                    state.results[out_start + offset] = list;
                }
            }
            SubUsers::Ids { positions, .. } => {
                for (&pos, list) in positions.iter().zip(lists) {
                    state.results[pos] = list;
                }
            }
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
/// shard and queue unit tests (which exercise splitting and batch keys,
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

/// `n` fresh per-shard counter slots.
#[cfg(test)]
pub(crate) fn test_shards(n: usize) -> Arc<[ShardCounters]> {
    (0..n).map(|_| ShardCounters::default()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_respects_chunk_boundaries() {
        // 10 users over 3 shards: ragged bounds 0..4, 4..8, 8..10.
        let bounds = chunk_bounds(10, 3);
        assert_eq!(bounds, [0..4, 4..8, 8..10]);
        for (user, shard) in [(0, 0), (3, 0), (4, 1), (7, 1), (8, 2), (9, 2)] {
            assert_eq!(shard_of(&bounds, user), shard, "user {user}");
        }
        assert_eq!(chunk_bounds(3, 8).len(), 3, "never more shards than users");
        let whole = chunk_bounds(10, 1);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0], 0..10);
    }

    #[test]
    fn splits_cover_each_selection_shape() {
        let epoch = test_epoch(3, 10);
        let shards = test_shards(3);
        let now = Instant::now();
        let split = |request: &QueryRequest, len: usize| {
            split(
                request,
                &epoch,
                &shards,
                &Arc::new(Pending::new(len, now)),
                now,
            )
        };
        let subs = split(&QueryRequest::top_k(2), 10);
        assert_eq!(subs.len(), 3);
        assert!(
            matches!(&subs[1].users, SubUsers::Range { users, out_start } if *users == (4..8) && *out_start == 4)
        );
        // Every sub-request is pinned to the epoch it was split on.
        for sub in &subs {
            assert!(Arc::ptr_eq(&sub.epoch, &epoch));
        }

        // A range straddling the first boundary only touches two shards.
        let subs = split(&QueryRequest::top_k(2).users_range(2..6), 4);
        assert_eq!(subs.len(), 2);
        assert!(
            matches!(&subs[0].users, SubUsers::Range { users, out_start } if *users == (2..4) && *out_start == 0)
        );
        assert!(
            matches!(&subs[1].users, SubUsers::Range { users, out_start } if *users == (4..6) && *out_start == 2)
        );

        // Ids scatter by shard but keep their response positions.
        let subs = split(&QueryRequest::top_k(2).users(vec![9, 0, 5, 0]), 4);
        assert_eq!(subs.len(), 3);
        assert!(
            matches!(&subs[0].users, SubUsers::Ids { users, positions } if users == &[0, 0] && positions == &[1, 3])
        );
        assert!(
            matches!(&subs[2].users, SubUsers::Ids { users, positions } if users == &[9] && positions == &[0])
        );
    }

    #[test]
    fn an_epoch_with_fewer_users_is_cut_into_fewer_ranges() {
        // Three slots, but a two-user epoch has only two ranges to fill
        // them with: every user is still served exactly once.
        let epoch = test_epoch(0, 2);
        let now = Instant::now();
        let pending = Arc::new(Pending::new(2, now));
        let subs = split(
            &QueryRequest::top_k(1),
            &epoch,
            &test_shards(3),
            &pending,
            now,
        );
        let cut: Vec<_> = subs.iter().map(|s| (s.shard, s.users.clone())).collect();
        let range = |users: Range<usize>| SubUsers::Range {
            out_start: users.start,
            users,
        };
        assert_eq!(cut, [(0, range(0..1)), (1, range(1..2))]);
    }

    #[test]
    fn the_single_shard_straight_path_equals_the_general_grouping() {
        for (num_users, shards) in [(10, 3), (7, 7), (64, 4), (5, 1)] {
            let bounds = chunk_bounds(num_users, shards);
            // A one-id request at (and next to) every shard boundary.
            for user in 0..num_users {
                assert_eq!(
                    group_ids(&bounds, &[user]),
                    group_ids_across_shards(&bounds, &[user]),
                    "user {user} of {num_users} over {shards} shards"
                );
            }
            // Several ids on one shard, repeats included, and the lists
            // that must *not* take the straight path.
            for range in &bounds {
                let (first, last) = (range.start, range.end - 1);
                let same_shard = [last, first, last];
                assert_eq!(
                    group_ids(&bounds, &same_shard),
                    group_ids_across_shards(&bounds, &same_shard)
                );
                let straddling = [last, (last + 1) % num_users, first];
                assert_eq!(
                    group_ids(&bounds, &straddling),
                    group_ids_across_shards(&bounds, &straddling)
                );
            }
        }
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
        let last = SubUsers::Ids {
            users: vec![7],
            positions: vec![2],
        };
        assert!(!pending.complete(&last, vec![mk(30)], "B", crate::precision::Precision::F64));
        assert!(!pending.is_finished());
        let first = SubUsers::Range {
            users: 0..2,
            out_start: 0,
        };
        assert!(pending.complete(
            &first,
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
