//! The engine's query planner: which backend — in which numeric tier —
//! serves requests at one `k`.
//!
//! [`Engine::plan_over`] is the planning phase behind [`Engine::prepare`].
//! It hands OPTIMUS ([`Optimus::choose`]) a **lazy** candidate source over
//! the backend registry and the epoch's solver cache, so an index is built
//! only when the staged race still gives it a chance, and keeps the race's
//! **decision record** — every registered backend × tier with its estimate
//! and [`CandidateOutcome`](crate::optimus::CandidateOutcome) — on the
//! [`PreparedPlan`].
//!
//! What the engine adds to the race: the **analytical gate** for the sparse
//! backend ([`sparse_bound_seconds`]) and the **tier-rate bound** for screen
//! variants, both from the host's kernel rates ([`crate::optimus::cost`]) —
//! measured, never configured — and the shortcut that skips the race for a
//! lone candidate.

use super::epoch::ModelEpoch;
use super::{Engine, MipsError, PreparedPlan};
use crate::optimus::cost::{sparse_updates_per_second, tier_flops_per_second};
use crate::optimus::{CandidateSource, Optimus};
use crate::precision::Precision;
use crate::solver::{screened_name, MipsSolver};
use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use mips_data::MfModel;
use mips_topk::ScreenTier;

/// Registry key of the one backend with an analytical cost model of its
/// own ([`sparse_bound_seconds`]).
const SPARSE_KEY: &str = "sparse";

/// The lazy candidate source of one plan: registry backends in order, each
/// built on demand through the epoch's solver cache. A forced tier
/// ([`Precision::forced_tier`]) substitutes each backend's screen variant
/// when it has one (under the plain key — the mode is forced, not
/// competed); [`Precision::Auto`] competes every available screen variant
/// as an **extra** candidate against its f64 build, bounded by the
/// measured tier-rate ratio.
struct Candidates<'a> {
    engine: &'a Engine,
    state: &'a ModelEpoch,
    /// Registry keys, in registration order.
    keys: Vec<&'a str>,
}

impl CandidateSource for Candidates<'_> {
    type Error = MipsError;

    fn labels(&self) -> Vec<String> {
        self.keys.iter().map(|key| key.to_string()).collect()
    }

    fn analytical_bound(&mut self, base: usize) -> Option<f64> {
        (self.keys[base] == SPARSE_KEY).then(|| sparse_bound_seconds(&self.state.model))
    }

    fn build(&mut self, base: usize) -> Result<Arc<dyn MipsSolver>, MipsError> {
        let tier = self.engine.config.precision.forced_tier();
        self.engine
            .solver_or_plain(self.state, self.keys[base], tier)
    }

    fn tier_time_ratio(&mut self, _base: usize, tier: ScreenTier) -> Option<f64> {
        (self.engine.config.precision == Precision::Auto)
            .then(|| tier_flops_per_second(None) / tier_flops_per_second(Some(tier)))
    }

    fn build_variant(
        &mut self,
        base: usize,
        tier: ScreenTier,
    ) -> Result<Option<Arc<dyn MipsSolver>>, MipsError> {
        self.engine
            .solver_on(self.state, self.keys[base], Some(tier))
    }
}

impl Engine {
    /// The planning phase behind [`Engine::prepare`]: the candidates are
    /// the registered backends, each built — or fetched from the epoch's
    /// cache — only when the race asks, and OPTIMUS samples the model's
    /// users.
    pub(super) fn plan_over(
        &self,
        state: &ModelEpoch,
        k: usize,
    ) -> Result<PreparedPlan, MipsError> {
        let model = &state.model;
        let mut source = Candidates {
            engine: self,
            state,
            keys: self.registry.keys(),
        };
        self.planner_runs.fetch_add(1, Ordering::SeqCst);

        // One candidate with nothing to compete against: nothing to sample.
        let lone = match source.keys.len() {
            1 => Some(source.build(0)?).filter(|only| {
                self.config.precision != Precision::Auto || only.screen_tiers().is_empty()
            }),
            _ => None,
        };
        let choice = match lone {
            Some(_) => None,
            None => Some(Optimus::new(self.config.optimus).choose(model, k, &mut source)?),
        };
        let (base, tier, solver) = match (&choice, lone) {
            (Some(choice), _) => {
                let winner = &choice.entries[choice.chosen];
                let solver = winner.solver.as_ref().expect("the winner was raced");
                (winner.base, winner.tier, Arc::clone(solver))
            }
            (None, only) => (0, None, only.expect("no race means a lone candidate")),
        };
        let mut plan = PreparedPlan {
            model: Arc::clone(model),
            precision: solver.precision(),
            backend_key: screened_name(source.keys[base], tier),
            winner: solver,
            planned_k: k,
            threads: self.config.threads,
            epoch: state.id,
            estimates: Vec::new(),
            sample_size: 0,
            decision_seconds: 0.0,
        };
        if let Some(choice) = choice {
            plan.sample_size = choice.sample_size;
            plan.decision_seconds = choice.decision_seconds;
            plan.estimates = choice.entries.into_iter().map(|e| e.estimate).collect();
        }
        Ok(plan)
    }
}

/// The analytical cost of the sparse inverted-index **accumulation
/// stage** for every user of `model` — the planner's lower bound on the
/// sparse backend, checked before the index is built. Expected work is
/// derived from sampled nnz/density statistics: each query touches one
/// postings list per nonzero query factor, and each list holds
/// `density × num_items` postings on average. Candidate selection and the
/// exact rescore come on top (they are data-dependent, which is why a
/// sparse candidate under the bound is still sampled).
fn sparse_bound_seconds(model: &MfModel) -> f64 {
    const SAMPLE_ROWS: usize = 256;
    let user_stats = mips_data::SparsityStats::sample(model.users(), SAMPLE_ROWS);
    let item_stats = mips_data::SparsityStats::sample(model.items(), SAMPLE_ROWS);
    let updates_per_query =
        user_stats.avg_nnz_per_row * item_stats.density * model.num_items() as f64;
    model.num_users() as f64 * updates_per_query / sparse_updates_per_second()
}
