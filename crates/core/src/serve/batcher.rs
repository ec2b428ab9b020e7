//! The dynamic micro-batcher: coalescing small requests into one solver
//! call.
//!
//! The paper's central measurement is that batched GEMM amortizes per-query
//! work — a `32 × f · f × n` multiply is far cheaper than 32 separate
//! `1 × f` passes over the item matrix (§II-B; LEMP makes the same
//! observation with bucket-batched probing). Single-user traffic squanders
//! that, so the batcher coalesces queued sub-requests of the same epoch and
//! shard at the same `k` into one `query_subset` call.
//!
//! The flush is adaptive and never waits: a worker pops one sub-request,
//! extracts every queued match up to `max_batch` users, and runs the batch.
//! Under light load the queue is empty and requests serve solo with zero
//! added latency; under heavy load a backlog forms and batches fill —
//! throughput rises exactly when it is needed.
//!
//! Coalescing is transparent: every solver's `query_subset` produces
//! per-user results that are independent of batch composition (the stress
//! suite asserts bit-identical results against sequential
//! [`Engine::execute`](crate::engine::Engine::execute) calls), and
//! exclusion-carrying sub-requests are never coalesced, because two
//! requests may exclude different items for the same user. Model epochs
//! are respected by construction: the batch key holds the epoch id each
//! sub-request was validated on, so sub-requests admitted before and after
//! a [`swap_model`](crate::engine::Engine::swap_model) can never share a
//! solver call.
//!
//! A batch is served by the plan for its shape: its total user count picks
//! the traffic class ([`Optimus::class_of`](crate::optimus::Optimus::class_of)),
//! so single-user requests and batches coalesced from a few take the
//! point plan at their `k` — priced one user per call — and a large range
//! takes the bulk plan.

use super::metrics::ShardCounters;
use super::queue::{BoundedQueue, QueueItem};
use super::shard::{SubRequest, SubUsers};
use crate::engine::{serve, Engine};
use crate::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Gathers the micro-batch led by `first`: every queued match that fits
/// the `max_batch` user budget, extracted in one pass. Generic over
/// [`QueueItem`] so the model-check suite can drive the exact coalescing
/// protocol with toy items.
pub fn collect_batch<I: QueueItem>(queue: &BoundedQueue<I>, first: I, max_batch: usize) -> Vec<I> {
    let key = first.key();
    // `max_batch` budgets the coalesced solver call in *users*: a batch of
    // 32 single-user requests and a batch of four 8-user requests cost the
    // same, and a small request is never made to wait behind a coalesced
    // call bigger than the knob promises.
    let budget = max_batch.saturating_sub(first.weight());
    let mut batch = vec![first];
    queue.extract_matching(key, budget, max_batch, &mut batch);
    batch
}

/// Executes one batch (one or many coalesced sub-requests) on the epoch
/// every sub-request in it is pinned to, scattering results back into each
/// pending response and counting it in `shard`, the batch's shard slot.
/// Request-level completion metrics roll up inside the pending itself,
/// before any waiter wakes. `progress` counts subs whose shard `completed`
/// counter has been bumped — the worker's panic handler uses it to settle
/// the remainder so `submitted == completed` holds even across backend
/// panics.
pub(crate) fn execute_batch(
    engine: &Engine,
    shard: &ShardCounters,
    batch: Vec<SubRequest>,
    progress: &AtomicUsize,
) {
    debug_assert!(!batch.is_empty());
    // The batch key guarantees one epoch and one shard per batch.
    debug_assert!(batch.iter().all(|s| s.key() == batch[0].key()));
    let k = batch[0].k;
    let settle_one = |sub: &SubRequest| {
        shard.add(&shard.completed, 1);
        shard
            .latency
            .record_ns(sub.submitted_at.elapsed().as_nanos() as u64);
        progress.fetch_add(1, Ordering::Relaxed);
    };

    let total_users: usize = batch.iter().map(|s| s.users.len()).sum();
    let class = engine.class_of(&batch[0].epoch, total_users);
    let plan = match engine.prepare_on(&batch[0].epoch, k, class) {
        Ok(plan) => plan,
        Err(error) => {
            for sub in &batch {
                settle_one(sub);
                sub.pending.fail(error.clone());
            }
            return;
        }
    };
    let model = plan.model();
    let solver = plan.solver();

    let started = Instant::now();
    let outcome = if batch.len() == 1 {
        // Solo path: ranges stay ranges, exclusions allowed.
        let request = batch[0].to_request();
        serve(model, solver, 1, &request, true, plan.epoch()).map(|r| r.results)
    } else {
        // Coalesced path: concatenate ids into one gathered batch. Repeats
        // across sub-requests are fine — the solver's dedup fans results
        // back out per occurrence.
        let mut users: Vec<usize> = Vec::with_capacity(batch.iter().map(|s| s.users.len()).sum());
        for sub in &batch {
            match &sub.users {
                SubUsers::Range { users: r, .. } => users.extend(r.clone()),
                SubUsers::Ids { users: ids, .. } => users.extend_from_slice(ids),
            }
        }
        let request = crate::engine::QueryRequest {
            k,
            users: crate::engine::UserSelection::Ids(users),
            exclude: None,
        };
        serve(model, solver, 1, &request, true, plan.epoch()).map(|r| r.results)
    };
    let busy_ns = started.elapsed().as_nanos() as u64;

    // Roll up shard counters before scattering so metrics never lag the
    // caller's wakeup.
    shard.add(&shard.batches, 1);
    // Fold the screen work into the lane of the plan's tier (a point and a
    // bulk plan at one k may differ). Each tier variant drains only its own
    // counters (`MipsSolver::screen_variant`), so per-tier totals are exact;
    // per-shard counts are not: a drain may take another shard's scan.
    if let Some(tier) = plan.precision().forced_tier() {
        let lane = &shard.lanes[tier.index()];
        shard.add(&lane.batches, 1);
        if let Some(tally) = solver.take_screen_stats() {
            shard.add(&lane.candidates, tally.screened);
            shard.add(&lane.survivors, tally.rescored);
        }
    }
    shard.add(&shard.busy_ns, busy_ns);
    shard.add(&shard.users_served, total_users as u64);
    if batch.len() > 1 {
        shard.add(&shard.coalesced, batch.len() as u64);
    }

    match outcome {
        Ok(mut results) => {
            debug_assert_eq!(results.len(), total_users);
            // Scatter back to front so each split_off is O(its own slice).
            for sub in batch.iter().rev() {
                let lists = results.split_off(results.len() - sub.users.len());
                // Count and time *before* completing: the last completion
                // wakes the waiter, and metrics must already be consistent
                // when it reads them.
                settle_one(sub);
                sub.pending
                    .complete(&sub.users, lists, plan.backend_name(), plan.precision());
            }
        }
        Err(error) => {
            for sub in &batch {
                settle_one(sub);
                sub.pending.fail(error.clone());
            }
        }
    }
}
