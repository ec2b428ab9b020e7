//! The engine's query planner: which backend — in which numeric tier —
//! serves requests at one `k`.
//!
//! [`Engine::plan_over`] is the planning phase behind [`Engine::prepare`].
//! It hands OPTIMUS ([`Optimus::choose`]) a **lazy** candidate source over
//! the backend registry and the epoch's solver cache, so an index is built
//! only when the staged race still gives it a chance, and keeps the race's
//! **decision record** — every registered backend × tier with its estimate
//! and [`CandidateOutcome`] — on the [`PreparedPlan`].
//!
//! What the engine adds to the race:
//!
//! * the **analytical gate** for the sparse backend
//!   ([`sparse_bound_seconds`]) and the **tier-rate bound** for screen
//!   variants, both from the host's kernel rates ([`crate::optimus::cost`])
//!   — measured, never configured;
//! * the **adoption rule** ([`demote_marginal_screen_winner`]): under
//!   [`Precision::Auto`] a screen variant displaces its own f64 build only
//!   when it is clearly, not marginally, faster.

use super::epoch::ModelEpoch;
use super::{Engine, MipsError, PreparedPlan};
use crate::optimus::cost::{sparse_updates_per_second, tier_flops_per_second};
use crate::optimus::{CandidateOutcome, CandidateSource, Optimus, PlannedChoice, StrategyEstimate};
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

/// Under `Auto`, a screen variant displaces its own f64 build only when its
/// sampled estimate is at most this fraction of the base's — i.e.
/// clearly faster, not within sampling noise of a tie. See
/// [`demote_marginal_screen_winner`] for the asymmetry argument that
/// justifies favouring the exact-direct incumbent.
pub(crate) const SCREEN_ADOPTION_MARGIN: f64 = 0.85;

/// The screen must also be estimated to save at least this much absolute
/// wall-clock before it displaces its f64 base. Sub-millisecond requests
/// finish inside the sampling noise floor: a relative margin alone still
/// adopts on a "30 µs vs 40 µs" sample, where the decision is pure noise
/// and the upside — even when real — is microseconds. Seconds-scale
/// requests (where the screen genuinely pays) clear this floor by orders
/// of magnitude.
pub(crate) const SCREEN_ADOPTION_FLOOR_SECONDS: f64 = 500e-6;

/// Screen-adoption margin: under `Auto` a screen variant competes against
/// its own f64 build, and the two run the identical access pattern — their
/// sampled estimates differ by the screen's true advantage plus sampling
/// noise. Adopting the screen on a hair's-breadth estimate trades bounded
/// upside for an unbounded noise regression, so the exact-direct incumbent
/// keeps the plan unless the screen is estimated clearly faster — below
/// [`SCREEN_ADOPTION_MARGIN`] of the base's time *and* saving at least
/// [`SCREEN_ADOPTION_FLOOR_SECONDS`] of absolute wall-clock. A wrongly
/// kept incumbent forgoes at most the margin; a wrongly adopted screen
/// can serve arbitrarily slower than the committed f64 baseline.
///
/// `screen_of[i]` is the index of the f64 base candidate `i` is a screen
/// variant of (`None`: not a screen variant, or — the forced modes, third
/// -party solvers that merely *name* themselves like one — no base twin
/// competed). Returns the base's index when the winner should be demoted
/// to it, `None` when `chosen` keeps the plan. Every screen tier faces the
/// same incumbent and the same noise asymmetry, so they share one margin.
fn demote_marginal_screen_winner(
    estimates: &[&StrategyEstimate],
    chosen: usize,
    screen_of: &[Option<usize>],
) -> Option<usize> {
    let base = screen_of[chosen]?;
    let screen_seconds = estimates[chosen].estimated_total_seconds;
    let base_seconds = estimates[base].estimated_total_seconds;
    (screen_seconds > SCREEN_ADOPTION_MARGIN * base_seconds
        || base_seconds - screen_seconds < SCREEN_ADOPTION_FLOOR_SECONDS)
        .then_some(base)
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
            None => Some(self.run_planner(model, k, &mut source)?),
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

    /// Runs the OPTIMUS race over the candidate source, then applies the
    /// screen-adoption rule: a winning variant within the margin of its own
    /// f64 base hands the plan to the base
    /// ([`CandidateOutcome::DemotedWithinMargin`]).
    fn run_planner(
        &self,
        model: &MfModel,
        k: usize,
        source: &mut Candidates<'_>,
    ) -> Result<PlannedChoice, MipsError> {
        let mut choice = Optimus::new(self.config.optimus).choose(model, k, source)?;
        let estimates: Vec<&StrategyEstimate> =
            choice.entries.iter().map(|e| &e.estimate).collect();
        let screen_of: Vec<Option<usize>> = (0..choice.entries.len())
            .map(|idx| choice.base_entry_of(idx))
            .collect();
        if let Some(base) = demote_marginal_screen_winner(&estimates, choice.chosen, &screen_of) {
            choice.entries[choice.chosen].estimate.outcome = CandidateOutcome::DemotedWithinMargin;
            choice.chosen = base;
        }
        Ok(choice)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screen_winner_within_margin_is_demoted_to_its_f64_base() {
        let estimate = |name: &str, secs: f64| StrategyEstimate {
            name: name.to_string(),
            build_seconds: 0.0,
            sampled_users: 8,
            sample_seconds: secs / 10.0,
            estimated_total_seconds: secs,
            outcome: CandidateOutcome::Sampled,
        };
        let demote =
            |estimates: &[StrategyEstimate], chosen: usize, screen_of: &[Option<usize>]| {
                let estimates: Vec<&StrategyEstimate> = estimates.iter().collect();
                demote_marginal_screen_winner(&estimates, chosen, screen_of)
            };
        // Candidate 1 is a screen variant of candidate 0.
        let paired = [None, Some(0)];
        // Screen barely ahead of its base (within the noise margin): the
        // exact-direct incumbent keeps the plan.
        let noisy = [
            estimate("Blocked MM", 1.00),
            estimate("Blocked MM+f32", 0.95),
        ];
        assert_eq!(demote(&noisy, 1, &paired), Some(0));
        // Screen clearly faster than the margin: adoption stands.
        let clear = [
            estimate("Blocked MM", 1.00),
            estimate("Blocked MM+f32", 0.60),
        ];
        assert_eq!(demote(&clear, 1, &paired), None);
        // Exactly at the margin boundary counts as clearly faster (the
        // demotion predicate is strict).
        let edge = [
            estimate("Blocked MM", 1.00),
            estimate("Blocked MM+f32", SCREEN_ADOPTION_MARGIN),
        ];
        assert_eq!(demote(&edge, 1, &paired), None);
        // Sub-millisecond requests: even a clear relative win saves less
        // absolute time than the noise floor — the incumbent keeps it.
        let tiny = [
            estimate("Blocked MM", 900e-6),
            estimate("Blocked MM+f32", 500e-6),
        ];
        assert_eq!(demote(&tiny, 1, &paired), Some(0));
        // Forced modes: screens run under plain keys and no base twin
        // competes — nothing to demote to.
        let forced = [estimate("Maximus", 1.0), estimate("Blocked MM+f32", 0.99)];
        assert_eq!(demote(&forced, 1, &[None, None]), None);
        // Pairing is structural, never read off display names: a
        // third-party solver that merely *names* itself like a screen of
        // another candidate is not one, and is never demoted to it.
        let lookalike = [
            estimate("Blocked MM", 1.00),
            estimate("Blocked MM+i8", 0.95),
        ];
        assert_eq!(demote(&lookalike, 1, &[None, None]), None);
        // Every tier rides the same adoption discipline: marginal winners
        // demote to their f64 base, clear wins stand, and a screen winner
        // never demotes to a sibling tier (the base is the f64 build, not
        // the other screen).
        let three_way = [
            estimate("Blocked MM", 1.00),
            estimate("Blocked MM+f32", 0.70),
            estimate("Blocked MM+i8", 0.95),
        ];
        let both = [None, Some(0), Some(0)];
        assert_eq!(demote(&three_way, 2, &both), Some(0));
        assert_eq!(demote(&three_way, 1, &both), None);
    }
}
