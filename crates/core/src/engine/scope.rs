//! Index scope: whether derived state (solver indexes, plans) is built
//! over the whole model or per user shard.
//!
//! The paper's thesis is that the index-vs-BMM decision depends on the
//! shape of the data — and the serving runtime's shards *are*
//! differently-shaped data: contiguous user slices with their own norm
//! distributions and cluster structure. [`IndexScope`] selects the
//! granularity at which that decision is made:
//!
//! * [`IndexScope::Global`] — one solver set and one plan per `k` for the
//!   whole model, shared by every shard (the pre-existing behaviour).
//! * [`IndexScope::PerShard`] — every shard builds its own solver set over
//!   a [`ModelView`](mips_data::ModelView) of its user range
//!   (shard-clustered MAXIMUS, shard-scoped LEMP/FEXIPRO, zero-copy BMM)
//!   and runs OPTIMUS over those candidates, sampled from the shard's own
//!   users.
//! * [`IndexScope::Auto`] — per-shard OPTIMUS picks shard by shard: the
//!   globally planned winner competes against the shard-local candidates
//!   on the shard's user sample, so a shard only goes local when its slice
//!   actually plans differently.
//!
//! Whatever the scope, results are bit-identical to the global engine:
//! every solver is exact, every built-in backend's shard-local build
//! returns bit-identical lists to its global build for the same users, and
//! the stress suite's comparison mode proves it on the serve corpus.

use crate::solver::MipsSolver;
use mips_topk::TopKList;
use std::ops::Range;

/// Granularity of derived-state construction for the serving runtime:
/// whether solver indexes and plans are built once over the whole model,
/// per user shard, or chosen per shard by OPTIMUS (see the field docs and
/// the serving runtime's `ServerBuilder::index_scope`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexScope {
    /// One global solver set and plan cache shared by all shards.
    #[default]
    Global,
    /// Shard-local solvers and plans, built over each shard's user range.
    PerShard,
    /// Per-shard OPTIMUS chooses between the global plan's winner and the
    /// shard-local candidates, shard by shard.
    Auto,
}

impl IndexScope {
    /// Stable lower-case label (metrics, bench digests).
    pub fn as_str(&self) -> &'static str {
        match self {
            IndexScope::Global => "global",
            IndexScope::PerShard => "per-shard",
            IndexScope::Auto => "auto",
        }
    }

    /// `true` when the scope can build shard-local state.
    pub(crate) fn builds_local(&self) -> bool {
        !matches!(self, IndexScope::Global)
    }
}

impl std::fmt::Display for IndexScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Construction work performed while resolving one shard plan: how many
/// shard-local indexes were built by this call and the wall-clock spent
/// building them. Cache hits contribute nothing; the serving runtime rolls
/// these into its per-shard metrics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardBuildStats {
    /// Shard-local solver builds performed.
    pub(crate) builds: u64,
    /// Nanoseconds spent inside those builds.
    pub(crate) build_ns: u64,
}

/// Presents a view-built (local-id) solver in the model's **global** user
/// id space: queries offset into the view, so the whole serving stack —
/// requests, exclusion sets, routing, deduplication — keeps speaking
/// global ids and only this boundary translates.
pub(crate) struct ShardScopedSolver {
    inner: Box<dyn MipsSolver>,
    /// First global user id the view covers.
    base: usize,
}

impl ShardScopedSolver {
    /// Wraps `inner` (serving local ids `0..inner.num_users()`) as the
    /// global range starting at `base`.
    pub(crate) fn new(inner: Box<dyn MipsSolver>, base: usize) -> ShardScopedSolver {
        ShardScopedSolver { inner, base }
    }

    /// The view-built solver behind the id translation — what a factory's
    /// `build_screen` is handed as the base of a shard-local variant.
    pub(crate) fn inner(&self) -> &dyn MipsSolver {
        self.inner.as_ref()
    }

    fn to_local(&self, user: usize) -> usize {
        assert!(
            user >= self.base && user < self.base + self.inner.num_users(),
            "user {user} outside shard range {}..{}",
            self.base,
            self.base + self.inner.num_users()
        );
        user - self.base
    }
}

impl MipsSolver for ShardScopedSolver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_seconds(&self) -> f64 {
        self.inner.build_seconds()
    }

    fn batches_users(&self) -> bool {
        self.inner.batches_users()
    }

    /// One past the largest servable **global** user id (ids below the
    /// shard base are out of range; `query_*` assert both ends).
    fn num_users(&self) -> usize {
        self.base + self.inner.num_users()
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        if users.is_empty() {
            return Vec::new();
        }
        let start = self.to_local(users.start);
        let end = start + users.len();
        self.inner.query_range(k, start..end)
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        let local: Vec<usize> = users.iter().map(|&u| self.to_local(u)).collect();
        self.inner.query_subset(k, &local)
    }

    fn precision(&self) -> crate::precision::Precision {
        self.inner.precision()
    }

    fn screen_tiers(&self) -> &[mips_topk::ScreenTier] {
        self.inner.screen_tiers()
    }

    fn take_screen_stats(&self) -> Option<crate::solver::ScreenTally> {
        self.inner.take_screen_stats()
    }

    fn query_all(&self, _k: usize) -> Vec<TopKList> {
        // No coherent meaning exists: every other MipsSolver returns one
        // list per user id in 0..num_users(), but ids below the shard base
        // are not servable here. The serving runtime never routes an `All`
        // selection to a shard plan (the router splits it into ranges
        // first), so reaching this is a wiring bug — fail loudly instead
        // of silently misattributing results.
        unreachable!(
            "query_all on a shard-scoped solver (range {}..{}): \
             address the shard through query_range/query_subset",
            self.base,
            self.base + self.inner.num_users()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_data::ModelView;

    #[test]
    fn scoped_solver_translates_global_ids_onto_the_view() {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 30,
            num_items: 40,
            num_factors: 6,
            ..SynthConfig::default()
        }));
        let global = BmmSolver::build(Arc::clone(&model));
        let view = ModelView::of_range(&model, 10..22);
        let scoped = ShardScopedSolver::new(
            Box::new(BmmSolver::build_view(&view)),
            view.user_range().start,
        );
        assert_eq!(scoped.num_users(), 22);
        assert_eq!(scoped.name(), "Blocked MM");
        assert!(scoped.batches_users());
        assert_eq!(scoped.query_range(3, 10..22), global.query_range(3, 10..22));
        assert_eq!(scoped.query_range(3, 15..15), Vec::new());
        assert_eq!(
            scoped.query_subset(2, &[21, 10, 21]),
            global.query_subset(2, &[21, 10, 21])
        );
    }

    #[test]
    #[should_panic(expected = "outside shard range")]
    fn ids_below_the_shard_base_are_rejected() {
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 20,
            num_items: 10,
            num_factors: 4,
            ..SynthConfig::default()
        }));
        let view = ModelView::of_range(&model, 8..16);
        let scoped = ShardScopedSolver::new(Box::new(BmmSolver::build_view(&view)), 8);
        let _ = scoped.query_subset(1, &[7]);
    }

    #[test]
    fn scope_labels_are_stable() {
        assert_eq!(IndexScope::Global.as_str(), "global");
        assert_eq!(IndexScope::PerShard.as_str(), "per-shard");
        assert_eq!(IndexScope::Auto.as_str(), "auto");
        assert_eq!(IndexScope::default(), IndexScope::Global);
        assert!(!IndexScope::Global.builds_local());
        assert!(IndexScope::PerShard.builds_local());
        assert!(IndexScope::Auto.builds_local());
        assert_eq!(format!("{}", IndexScope::Auto), "auto");
    }
}
