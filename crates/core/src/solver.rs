//! The common solver interface: the [`MipsSolver`] trait every backend
//! implements, and the helpers its implementations share.
//!
//! A backend's [`crate::engine::SolverFactory`] builds its plain f64
//! solver; everything else is asked of that solver. Its mixed-precision
//! variants come from [`MipsSolver::screen_variant`], which shares the
//! plain build's construction, so the engine constructs each backend once
//! per model epoch however many screen tiers it arms.

use crate::precision::Precision;
use mips_topk::{ScreenTier, TopKList};
use std::collections::HashMap;
use std::ops::Range;

/// A built, queryable exact MIPS solver.
///
/// Implementations hold their model in an [`Arc`](crate::sync::Arc) and are
/// immutable after construction, so they can be queried concurrently (the
/// multi-core experiments of Fig. 6 partition users across threads).
pub trait MipsSolver: Send + Sync {
    /// Human-readable name used in benchmark tables
    /// (`"Blocked MM"`, `"Maximus"`, `"LEMP"`, `"FEXIPRO-SI"`, …).
    fn name(&self) -> &str;

    /// Wall-clock seconds spent building this solver (index construction;
    /// ~0 for brute force). Fig. 4 compares this against serving time. A
    /// solver that builds part of itself on first touch adds those seconds
    /// as its queries set them off, so the figure may grow; the planner
    /// keeps the growth out of a candidate's serving time.
    fn build_seconds(&self) -> f64;

    /// `true` if the solver shares work across users in a batch (BMM,
    /// MAXIMUS). OPTIMUS may only apply its per-user t-test early stopping
    /// to solvers that return `false` (§IV-A).
    fn batches_users(&self) -> bool;

    /// Number of users of the underlying model.
    fn num_users(&self) -> usize;

    /// Top-k for an explicit list of user ids, in input order. Each list
    /// is the user row's [`mips_topk::exact_topk`] answer, ids and score
    /// bits: a scan that scores approximately (a screen tier, the
    /// four-lane `dot`, a postings accumulator) offers those scores to a
    /// [`mips_topk::Shortlist`] and finishes through its chain rescore.
    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList>;

    /// Top-k for a contiguous user range, in order: by default the range's
    /// ids served through [`MipsSolver::query_subset`].
    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        self.query_subset(k, &users.collect::<Vec<_>>())
    }

    /// Top-k for every user.
    fn query_all(&self, k: usize) -> Vec<TopKList> {
        self.query_range(k, 0..self.num_users())
    }

    /// The numeric path this solver serves through:
    /// [`Precision::of_tier`] of the screen tier its scans run in before
    /// the exact f64 rescore, [`Precision::F64`] without one. Results are
    /// bit-identical either way; the engine records the effective value on
    /// prepared plans and responses.
    fn precision(&self) -> Precision {
        Precision::F64
    }

    /// The screen tiers this solver's backend has a variant in: for each
    /// one, [`MipsSolver::screen_variant`] returns `Some`. Empty (the
    /// default) for a backend without a screen path. The planner reads it
    /// to list — and bound — a plain build's variants before deciding which
    /// of them are worth building.
    fn screen_tiers(&self) -> &[ScreenTier] {
        &[]
    }

    /// This backend's mixed-precision variant in `tier`, **derived from
    /// this (plain) build**: scans screen in `tier` with a conservative
    /// error envelope, survivors are rescored in f64, results stay
    /// bit-identical (see [`mips_topk::screen`]).
    ///
    /// The contract is **sharing**: the variant holds whatever this solver
    /// constructed — clusterings, sorted lists, gathered item copies —
    /// behind an `Arc` and adds only the tier's mirrors, so the construction
    /// exists once per epoch however many tiers are armed, and the variant's
    /// `build_seconds` is the mirroring alone. Its screen counters
    /// ([`MipsSolver::take_screen_stats`]) are its own, never shared with
    /// the solver it was derived from or with a sibling tier.
    ///
    /// `None` (the default) means the backend has no screen path: the
    /// engine then serves it f64-direct under every [`Precision`] setting.
    /// `Some` for exactly the tiers [`MipsSolver::screen_tiers`] lists. A
    /// backend whose *model* cannot be mirrored in `tier` returns a solver
    /// serving the plain f64 path instead.
    fn screen_variant(&self, _tier: ScreenTier) -> Option<Box<dyn MipsSolver>> {
        None
    }

    /// Exact top-k for an *ad-hoc* query vector — one that is not a stored
    /// user row (a fresh embedding, a composed query, a densified sparse
    /// payload). `None` (the default) means the backend has no point-lookup
    /// path and the engine falls back to the oracle scan.
    ///
    /// Implementations must be bit-identical to [`mips_topk::exact_topk`] —
    /// the same contract as user queries.
    fn query_vector(&self, _query: &[f64], _k: usize) -> Option<TopKList> {
        None
    }

    /// Drains the solver's cumulative mixed-precision screen counters:
    /// everything screened and rescored since the last drain, across all
    /// threads. `None` (the default) for solvers without a screen path; a
    /// screening solver returns `Some` even when the drained counts are
    /// zero. The serving layer calls this after every batch and folds the
    /// tallies into the shard's per-mode candidate/survivor counters, so
    /// under concurrency a drain may attribute another in-flight batch's
    /// work to this one — per-batch attribution is approximate, but no
    /// count is ever lost or double-counted and the shard totals stay
    /// exact.
    fn take_screen_stats(&self) -> Option<ScreenTally> {
        None
    }
}

/// The display name of backend `base` armed with screen `tier` — the base
/// name plus the tier's suffix (`"Blocked MM"` → `"Blocked MM+f32"`). Every
/// screening solver derives its [`MipsSolver::name`] through this, so the
/// `backend` response field and OPTIMUS estimates tell the numeric paths
/// apart the same way for every backend and tier.
pub(crate) fn screened_name(base: &str, tier: Option<ScreenTier>) -> String {
    format!("{base}{}", tier.map_or("", ScreenTier::suffix))
}

/// One drain's worth of mixed-precision screen work (f32 or int8 tier —
/// the solver's [`MipsSolver::precision`] says which).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenTally {
    /// Scores the screen evaluated (candidates it could have pruned).
    pub screened: u64,
    /// Candidates that survived the envelope test and were rescored with
    /// an exact f64 dot. `screened - rescored` exact dots were skipped.
    pub rescored: u64,
}

/// Lock-free cells behind [`MipsSolver::take_screen_stats`]: screening
/// solvers accumulate into these from their scan kernels and the serving
/// layer drains them batch by batch.
#[derive(Debug, Default)]
pub struct ScreenTallyCells {
    screened: crate::sync::atomic::AtomicU64,
    rescored: crate::sync::atomic::AtomicU64,
}

impl ScreenTallyCells {
    /// Adds one scan's counts.
    pub fn record(&self, screened: u64, rescored: u64) {
        use crate::sync::atomic::Ordering;
        if screened > 0 {
            self.screened.fetch_add(screened, Ordering::Relaxed);
        }
        if rescored > 0 {
            self.rescored.fetch_add(rescored, Ordering::Relaxed);
        }
    }

    /// Takes everything recorded since the last drain, resetting to zero.
    pub fn drain(&self) -> ScreenTally {
        use crate::sync::atomic::Ordering;
        ScreenTally {
            screened: self.screened.swap(0, Ordering::Relaxed),
            rescored: self.rescored.swap(0, Ordering::Relaxed),
        }
    }
}

/// Runs a subset query with repeated user ids deduplicated: each distinct
/// user is queried once (preserving first-occurrence order) and results are
/// fanned back out in input order.
///
/// Solver implementations wrap their gather in this so a request like
/// `[7, 2, 7]` does the work of two queries, not three.
pub fn dedup_query_subset(
    users: &[usize],
    query_distinct: impl FnOnce(&[usize]) -> Vec<TopKList>,
) -> Vec<TopKList> {
    if users.len() < 2 {
        // Point queries (the optimizer's t-test loop, single-user requests)
        // skip the bookkeeping entirely.
        return query_distinct(users);
    }
    let mut first_pos: HashMap<usize, usize> = HashMap::with_capacity(users.len());
    let mut distinct: Vec<usize> = Vec::with_capacity(users.len());
    for &u in users {
        first_pos.entry(u).or_insert_with(|| {
            distinct.push(u);
            distinct.len() - 1
        });
    }
    if distinct.len() == users.len() {
        // No repeats (the common case): query directly — one hash pass of
        // overhead, no fan-out clones.
        return query_distinct(users);
    }
    let results = query_distinct(&distinct);
    debug_assert_eq!(results.len(), distinct.len());
    users
        .iter()
        .map(|u| results[first_pos[u]].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BackendRegistry;
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};

    #[test]
    fn dedup_subset_queries_each_distinct_user_once() {
        use std::cell::Cell;
        let queried = Cell::new(0usize);
        let out = dedup_query_subset(&[7, 2, 7, 7, 2], |distinct| {
            assert_eq!(distinct, &[7, 2]);
            queried.set(distinct.len());
            distinct
                .iter()
                .map(|&u| TopKList {
                    items: vec![u as u32],
                    scores: vec![u as f64],
                })
                .collect()
        });
        assert_eq!(queried.get(), 2);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], out[3]);
        assert_eq!(out[1], out[4]);
        assert_eq!(out[0].items, vec![7]);
        assert_eq!(out[1].items, vec![2]);
    }

    #[test]
    fn dedup_subset_passes_distinct_input_through() {
        let out = dedup_query_subset(&[3, 1, 4], |distinct| {
            assert_eq!(distinct, &[3, 1, 4]);
            distinct.iter().map(|_| TopKList::empty()).collect()
        });
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn every_default_backend_builds_and_answers() {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 25,
            num_items: 40,
            num_factors: 8,
            ..SynthConfig::default()
        }));
        for factory in BackendRegistry::with_defaults().factories() {
            let solver = factory.build(&model).unwrap();
            assert_eq!(solver.num_users(), 25);
            let all = solver.query_all(3);
            assert_eq!(all.len(), 25);
            for list in &all {
                assert_eq!(list.len(), 3);
                assert!(list.is_sorted());
            }
            // Subset order must follow the input, not user order.
            let subset = solver.query_subset(2, &[7, 2, 7]);
            assert_eq!(subset.len(), 3);
            assert_eq!(subset[0], subset[2]);
            assert_eq!(subset[1], solver.query_range(2, 2..3)[0]);
        }
    }
}
