//! OPTIMUS: the online, sample-based MIPS serving optimizer (§IV).
//!
//! Given a model and a set of candidate strategies (BMM plus one or more
//! indexes), OPTIMUS:
//!
//! 1. **builds a candidate only once it can still win** — construction is
//!    cheap next to serving (Fig. 4) but not next to *deciding*, so
//!    [`Optimus::choose`] builds lazily: a candidate whose calibrated
//!    analytical lower bound already exceeds the leader's sampled estimate
//!    is never built, and a screen variant is built (over its f64 base's
//!    shared construction) only when its tier-rate bound says it can still
//!    beat the leader;
//! 2. **samples users** for the traffic class it plans ([`TrafficClass`]).
//!    A [`TrafficClass::Bulk`] plan samples a fraction of `U` (default
//!    0.5 %) floored so the sampled user block at least occupies the L2
//!    cache, without which BMM's timing degenerates toward matrix–vector
//!    multiply (§IV-A). A [`TrafficClass::Point`] plan prices the calls a
//!    server mostly sees — one user, or a few coalesced — on a prefix of
//!    that sample. A call over `m` users is `Point` when `m² < S`, `S` the
//!    bulk sample size: the geometric midpoint of the two call sizes the
//!    races time, 1 and `S`;
//! 3. **times the candidates on the sample** and linearly extrapolates total
//!    serving time. A bulk race times batch-capable candidates on the whole
//!    sample in one call; a point race times every candidate one user per
//!    call. Candidates timed per user — point-query indexes (LEMP on a
//!    default engine), and every candidate of a point race — run under an
//!    incremental one-sample t-test against the current leader's mean
//!    per-user time that stops sampling as soon as the candidate is
//!    significantly slower (the exact integer-df Student-t at α = 5 %);
//! 4. **keeps the exact-direct incumbent** unless a screen variant is
//!    clearly faster than its own f64 base (the adoption rule);
//! 5. **hands the estimated winner to the engine**, which caches it in a
//!    [`crate::engine::PreparedPlan`] — with every candidate's estimate and
//!    [`CandidateOutcome`] — and serves all requests of that class at
//!    that `k` with it.
//!
//! [`Optimus::choose`] is the only optimizer in the tree: the engine's
//! planner calls it, and `examples/paper.rs` reproduces the paper's Table II
//! and Figs. 7–8 by reading the plans it produces.
//!
//! [`cost`] holds the paper's offline profiling of the host (§IV-A): the
//! sustained rate of every numeric tier's multiply kernel and of the sparse
//! postings walk, measured once per process in place of the paper's
//! hardware datasheet lookup. The engine bounds candidates with them.

pub mod cost;

use crate::solver::{screened_name, MipsSolver};
use crate::sync::Arc;
use mips_data::MfModel;
use mips_linalg::CacheConfig;
use mips_topk::ScreenTier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Significance level of the early-stopping t-test (paper: 5 %).
pub const TTEST_ALPHA: f64 = 0.05;

/// Users a point-query candidate is timed on before the t-test may stop it.
pub const TTEST_MIN_SAMPLES: u64 = 8;

/// The standard normal's 97.5 % quantile. Student's t has heavier tails, so
/// `|t| ≤ Z_975` gives a two-sided p of at least 5 % at every df: the
/// t-test skips its `O(df)` series there, and no decision changes.
const Z_975: f64 = 1.959963984540054;

/// Under `Auto`, a screen variant displaces its own f64 build only when its
/// sampled estimate is at most this fraction of the base's — i.e.
/// clearly faster, not within sampling noise of a tie. See
/// [`demote_marginal_screen_winner`] for the asymmetry argument that
/// justifies favouring the exact-direct incumbent.
const SCREEN_ADOPTION_MARGIN: f64 = 0.85;

/// The screen must also be estimated to save at least this much absolute
/// wall-clock before it displaces its f64 base. Sub-millisecond requests
/// finish inside the sampling noise floor: a relative margin alone still
/// adopts on a "30 µs vs 40 µs" sample, where the decision is pure noise
/// and the upside — even when real — is microseconds. Seconds-scale
/// requests (where the screen genuinely pays) clear this floor by orders
/// of magnitude.
const SCREEN_ADOPTION_FLOOR_SECONDS: f64 = 500e-6;

/// Users a [`TrafficClass::Point`] race times, one per call: a prefix of
/// the bulk sample, six t-test minimums long. On the dense benchmark shape
/// (serve-burst's fresh engines, ten per run, a 2-vCPU guest) 48 users
/// decided in 0.022–0.048 s per k, against 0.096–0.22 s for the 656-user
/// bulk race, and planned a screened brute force at k = 10 and 50 on every
/// engine of two seeds, as single-user timings of every candidate rank
/// them. 24 users decided in 0.016–0.039 s but planned `maximus+i8` at
/// k = 10 once in ten; 96 took 0.042–0.067 s for the same plans as 48.
const POINT_SAMPLE_USERS: usize = 6 * TTEST_MIN_SAMPLES as usize;

/// The shape of the calls a plan serves, and so how its race times them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// One user or a few per call — a single-user request, or a server
    /// batch coalesced from a few: every candidate is timed one user per
    /// call, over a 48-user prefix of the bulk sample.
    Point,
    /// Many users per call — a whole-model or large-range request: the
    /// paper's setting, in which batch-capable candidates are timed on the
    /// whole sample in one call.
    Bulk,
}

/// OPTIMUS configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptimusConfig {
    /// Fraction of users sampled for runtime estimation (paper: 0.5 %).
    pub sample_fraction: f64,
    /// Cache geometry used for the L2-occupancy sample floor.
    pub cache: CacheConfig,
    /// Seed for user sampling.
    pub seed: u64,
}

impl Default for OptimusConfig {
    fn default() -> Self {
        OptimusConfig {
            sample_fraction: 0.005,
            cache: CacheConfig::default(),
            seed: 0x0971,
        }
    }
}

/// What the planner did with one candidate — the "why" next to each
/// estimate of a plan's decision record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateOutcome {
    /// Timed on the whole sample.
    Sampled,
    /// The t-test found it significantly slower than the reference after
    /// `after` sampled users and stopped there.
    StoppedEarly {
        /// Users timed before the test decided.
        after: usize,
    },
    /// Neither built nor sampled: its calibrated analytical lower bound
    /// already exceeded the leader's sampled estimate.
    PrunedAnalytical {
        /// The bound, in seconds for all the plan's users.
        bound_seconds: f64,
    },
    /// A screen variant that was never built: even at the tier-rate bound —
    /// its f64 base's estimate scaled by the calibrated kernel-rate ratio of
    /// the two tiers — it could not reach the leader.
    NotBuilt {
        /// The bound, in seconds for all the plan's users.
        bound_seconds: f64,
    },
    /// A screen variant that had the lowest estimate but not by the
    /// adoption margin: the plan went to its f64 base instead.
    DemotedWithinMargin,
}

/// One candidate's measured estimate.
#[derive(Debug, Clone)]
pub struct StrategyEstimate {
    /// Strategy display name — the built solver's; for a candidate that was
    /// never built, its registry key (plus the tier suffix for a variant).
    pub name: String,
    /// Index construction seconds (0 for BMM and for anything never built;
    /// the mirroring alone for a screen variant, which shares its base's
    /// construction), including any the timed passes set off (MAXIMUS
    /// packs list parts on first touch).
    pub build_seconds: f64,
    /// Users actually timed (may be below the sample size when the t-test
    /// stopped early; 0 for a candidate that was never built).
    pub sampled_users: usize,
    /// Measured sampling seconds.
    pub sample_seconds: f64,
    /// Extrapolated total serving time for all users, in seconds. For a
    /// candidate that was never sampled: the bound that excluded it, which
    /// is a lower bound on this.
    pub estimated_total_seconds: f64,
    /// What the planner did with the candidate.
    pub outcome: CandidateOutcome,
}

impl StrategyEstimate {
    /// The estimate of `solver` from `sampled_users` users timed in
    /// `sample_seconds`, extrapolated to `n` users.
    fn timed(
        solver: &dyn MipsSolver,
        sampled_users: usize,
        sample_seconds: f64,
        n: usize,
        outcome: CandidateOutcome,
    ) -> StrategyEstimate {
        StrategyEstimate {
            name: solver.name().to_string(),
            build_seconds: solver.build_seconds(),
            sampled_users,
            sample_seconds,
            estimated_total_seconds: sample_seconds / sampled_users as f64 * n as f64,
            outcome,
        }
    }

    /// The record of a candidate `name` excluded by `outcome`'s bound
    /// before it was built.
    fn unbuilt(name: String, bound_seconds: f64, outcome: CandidateOutcome) -> StrategyEstimate {
        StrategyEstimate {
            name,
            build_seconds: 0.0,
            sampled_users: 0,
            sample_seconds: 0.0,
            estimated_total_seconds: bound_seconds,
            outcome,
        }
    }

    /// `true` when the candidate was timed on the whole sample.
    fn is_sampled(&self) -> bool {
        self.outcome == CandidateOutcome::Sampled
    }
}

/// Where [`Optimus::choose`] gets its candidates: the f64 **base**
/// candidates in race order, each built on demand, plus — for the bases
/// that compete them — their screen variants, built on demand from the
/// base. The engine implements this over its backend registry and epoch
/// cache; nothing is constructed until the race asks.
pub trait CandidateSource {
    /// Why a build can fail.
    type Error;

    /// One label per base candidate, in race order. A candidate that is
    /// never built is recorded under its label (a registry key).
    fn labels(&self) -> Vec<String>;

    /// A calibrated lower bound on base `base`'s serving seconds for all of
    /// the model's users, when the source has an analytical model of it.
    /// `None`: no model — the candidate is built and sampled.
    fn analytical_bound(&mut self, base: usize) -> Option<f64>;

    /// Builds (or fetches) base candidate `base`.
    fn build(&mut self, base: usize) -> Result<Arc<dyn MipsSolver>, Self::Error>;

    /// The calibrated time of `tier`'s scan kernel relative to the f64
    /// kernel's: a variant of `base` in `tier` cannot serve faster than
    /// `base`'s estimate times this. `None` when `base` does not compete a
    /// variant in `tier` (the numeric mode is forced).
    fn tier_time_ratio(&mut self, base: usize, tier: ScreenTier) -> Option<f64>;

    /// Builds (or fetches) the `tier` variant of base candidate `base`,
    /// which is already built. `Ok(None)`: the backend has no such variant
    /// after all.
    fn build_variant(
        &mut self,
        base: usize,
        tier: ScreenTier,
    ) -> Result<Option<Arc<dyn MipsSolver>>, Self::Error>;
}

/// One row of a planning decision: a base candidate or a competed screen
/// variant of one, what was built of it, and what the race found.
#[derive(Clone)]
pub struct RaceEntry {
    /// Index of the base candidate in [`CandidateSource::labels`] order.
    pub base: usize,
    /// `Some` for a competed screen variant of `base`.
    pub tier: Option<ScreenTier>,
    /// The built solver; `None` when a bound excluded the candidate before
    /// construction.
    pub solver: Option<Arc<dyn MipsSolver>>,
    /// The estimate and its outcome.
    pub estimate: StrategyEstimate,
}

/// A planning decision: the engine's query-planner result.
#[derive(Clone)]
pub struct PlannedChoice {
    /// Index of the winner in `entries`.
    pub chosen: usize,
    /// Every candidate — each base in race order, followed by its competed
    /// variants — raced or excluded.
    pub entries: Vec<RaceEntry>,
    /// Users sampled for estimation.
    pub sample_size: usize,
    /// Wall-clock seconds spent sampling and deciding — the index builds the
    /// race triggered are each candidate's `build_seconds`, not part of
    /// this.
    pub decision_seconds: f64,
}

/// When the per-user t-test may cut a candidate's sampling short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EarlyStop {
    /// Never: time the whole sample (in one call, in a bulk race).
    Never,
    /// Only when the candidate is significantly *slower* than the
    /// reference: a candidate at or ahead of the leader keeps the whole
    /// sample, because its estimate is what later candidates are tested
    /// and bounded against.
    WhenSlower,
}

/// The OPTIMUS optimizer.
#[derive(Debug, Clone, Default)]
pub struct Optimus {
    config: OptimusConfig,
}

impl Optimus {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: OptimusConfig) -> Optimus {
        assert!(
            config.sample_fraction > 0.0 && config.sample_fraction <= 1.0,
            "OptimusConfig: sample_fraction must be in (0, 1]"
        );
        Optimus { config }
    }

    /// The sample size rule of §IV-A: `max(fraction·|U|, L2-occupancy rows,
    /// 2)`, capped at `|U|`.
    pub fn sample_size(&self, num_users: usize, f: usize) -> usize {
        let by_fraction = (num_users as f64 * self.config.sample_fraction).ceil() as usize;
        let l2_floor = self.config.cache.rows_to_fill_l2(f, 8);
        by_fraction.max(l2_floor).max(2).min(num_users)
    }

    /// The class of a call over `users` of a model's `num_users` users of
    /// `f` factors: [`TrafficClass::Point`] when `users² < S`, `S` the
    /// bulk [`sample_size`](Optimus::sample_size) — the geometric midpoint
    /// of the one-user and whole-sample calls the two races time.
    pub fn class_of(&self, num_users: usize, f: usize, users: usize) -> TrafficClass {
        if users.saturating_mul(users) < self.sample_size(num_users, f) {
            TrafficClass::Point
        } else {
            TrafficClass::Bulk
        }
    }

    /// Draws `sample_size` distinct users, deterministic per seed.
    fn sample_users(&self, n: usize, f: usize) -> Vec<usize> {
        let sample_size = self.sample_size(n, f);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut sample: Vec<usize> = Vec::with_capacity(sample_size);
        let mut taken = vec![false; n];
        while sample.len() < sample_size {
            let u = rng.gen_range(0..n);
            if !taken[u] {
                taken[u] = true;
                sample.push(u);
            }
        }
        sample
    }

    /// Chooses among lazily built candidates with a **staged race** — the
    /// planning primitive behind [`crate::engine::PreparedPlan`] — for calls
    /// of `class`. A [`TrafficClass::Bulk`] race runs as described below. A
    /// [`TrafficClass::Point`] race runs the same stages over a 48-user
    /// prefix of the bulk sample, timing every
    /// candidate — warm-up, stage 2 and the second pass included — one user
    /// per call, and puts every base of stage 1, batch-capable or not,
    /// under the t-test.
    ///
    /// * **Reference.** The first batch-capable base (BMM when registered)
    ///   is built and timed on the whole sample; it is the first *leader*.
    /// * **Analytical gate.** A base whose
    ///   [`CandidateSource::analytical_bound`] exceeds the leader's estimate
    ///   is neither built nor sampled
    ///   ([`CandidateOutcome::PrunedAnalytical`]).
    /// * **Stage 1** builds and times the remaining f64 bases in order.
    ///   Point-query bases run under the incremental t-test against the
    ///   **current leader's** mean per-user time: one significantly slower
    ///   stops there ([`CandidateOutcome::StoppedEarly`]), one at or ahead
    ///   of the leader keeps the whole sample and may take the lead.
    /// * **Stage 2** visits the bases best-first and, for each screen tier
    ///   the base lists ([`MipsSolver::screen_tiers`]) and the source
    ///   competes, bounds the variant from below by the base's estimate
    ///   times [`CandidateSource::tier_time_ratio`]. Over the leader's
    ///   estimate it is never built ([`CandidateOutcome::NotBuilt`]); at or
    ///   under it, the variant is built and timed on the whole sample — as
    ///   is its base, if the t-test had cut it short — so a pair is always
    ///   compared over the identical user mix (on backends whose per-user
    ///   cost tracks the user's norm, different mixes mis-rank a pair whose
    ///   true costs are within ~20 %).
    /// * **Second pass.** The adoption rule compares a winning variant
    ///   head-to-head with its own base, so the provisional
    ///   winner's base/variant group — and only it — gets a second timing
    ///   pass with the per-candidate minimum kept: one scheduler burst
    ///   inside a candidate's only pass can mis-rank a pair within the
    ///   adoption margin, but to survive a min-of-two it would have to hit
    ///   the same side twice and the other side never.
    /// * **Adoption.** A winning variant within the margin of its own f64
    ///   base hands the plan to the base
    ///   ([`CandidateOutcome::DemotedWithinMargin`]): a screen displaces
    ///   the exact-direct incumbent only when it is clearly, not
    ///   marginally, faster.
    ///
    /// Every bound errs toward racing (the strict comparisons build a
    /// candidate sitting exactly at its bound), and every path that can win
    /// is exact, so the race changes what planning costs, not what it may
    /// answer.
    ///
    /// The sample is drawn from all of `model`'s users, and each
    /// candidate's total is extrapolated to its user count.
    ///
    /// Panics if the source has no candidates; the engine guards that case
    /// with a typed error before calling.
    pub fn choose<S: CandidateSource>(
        &self,
        model: &MfModel,
        k: usize,
        class: TrafficClass,
        source: &mut S,
    ) -> Result<PlannedChoice, S::Error> {
        let overall = Instant::now();
        let labels = source.labels();
        assert!(!labels.is_empty(), "Optimus::choose: no candidates");
        let n = model.num_users();
        let mut sample = self.sample_users(n, model.num_factors());
        if class == TrafficClass::Point {
            sample.truncate(POINT_SAMPLE_USERS);
        }
        let mut race = Race {
            k,
            n,
            class,
            // Untimed warm-up prefix per candidate before its timed pass:
            // a candidate's first queries pay one-off costs (page faults,
            // cold caches over its index, lazily initialised scratch) that
            // land asymmetrically — whoever samples first pays the most —
            // and on small models inflate the extrapolated totals by orders
            // of magnitude. Planning is a *comparison* of steady-state
            // costs, so estimates must not carry cold-start noise.
            warm: sample.len().min(4),
            sample: &sample,
            leader_seconds: f64::INFINITY,
            building: 0.0,
        };

        let bounds: Vec<Option<f64>> = (0..labels.len())
            .map(|base| source.analytical_bound(base))
            .collect();
        let mut solvers: Vec<Option<Arc<dyn MipsSolver>>> = vec![None; labels.len()];
        let mut bases: Vec<Option<StrategyEstimate>> = vec![None; labels.len()];

        // The reference: the first batch-capable base, else the first base
        // without an analytical bound, else the first base. Bases with a
        // bound wait for a leader to be measured against.
        let mut reference = None;
        for base in (0..labels.len()).filter(|&b| bounds[b].is_none()) {
            reference.get_or_insert(base);
            if built(source, &mut solvers[base], base, &mut race.building)?.batches_users() {
                reference = Some(base);
                break;
            }
        }
        let reference = reference.unwrap_or(0);
        let solver = built(
            source,
            &mut solvers[reference],
            reference,
            &mut race.building,
        )?;
        bases[reference] = Some(race.time(solver.as_ref(), EarlyStop::Never));

        // Stage 1: the remaining f64 bases, in order.
        for base in (0..labels.len()).filter(|&b| b != reference) {
            if let Some(bound_seconds) = bounds[base].filter(|&b| b > race.leader_seconds) {
                bases[base] = Some(StrategyEstimate::unbuilt(
                    labels[base].clone(),
                    bound_seconds,
                    CandidateOutcome::PrunedAnalytical { bound_seconds },
                ));
                continue;
            }
            let solver = built(source, &mut solvers[base], base, &mut race.building)?;
            bases[base] = Some(race.time(solver.as_ref(), EarlyStop::WhenSlower));
        }
        let mut bases: Vec<StrategyEstimate> = bases
            .into_iter()
            .map(|e| e.expect("every base was raced or excluded"))
            .collect();

        // Stage 2: screen variants, best base first so the leader drops
        // early and the bound excludes the most.
        let mut variants: Vec<Vec<RaceEntry>> = vec![Vec::new(); labels.len()];
        let mut order: Vec<usize> = (0..labels.len())
            .filter(|&b| solvers[b].is_some())
            .collect();
        order.sort_by(|&a, &b| {
            bases[a]
                .estimated_total_seconds
                .total_cmp(&bases[b].estimated_total_seconds)
        });
        for base in order {
            let solver = Arc::clone(solvers[base].as_ref().expect("ordered bases are built"));
            for &tier in solver.screen_tiers() {
                let Some(ratio) = source.tier_time_ratio(base, tier) else {
                    continue;
                };
                let bound_seconds = bases[base].estimated_total_seconds * ratio;
                if bound_seconds > race.leader_seconds {
                    variants[base].push(RaceEntry {
                        base,
                        tier: Some(tier),
                        solver: None,
                        estimate: StrategyEstimate::unbuilt(
                            screened_name(solver.name(), Some(tier)),
                            bound_seconds,
                            CandidateOutcome::NotBuilt { bound_seconds },
                        ),
                    });
                    continue;
                }
                let started = Instant::now();
                let variant = source.build_variant(base, tier)?;
                race.building += started.elapsed().as_secs_f64();
                let Some(variant) = variant else {
                    continue;
                };
                if !bases[base].is_sampled() {
                    bases[base] = race.time(solver.as_ref(), EarlyStop::Never);
                }
                variants[base].push(RaceEntry {
                    base,
                    tier: Some(tier),
                    estimate: race.time(variant.as_ref(), EarlyStop::Never),
                    solver: Some(variant),
                });
            }
        }

        let mut entries = Vec::new();
        for (base, (estimate, solver)) in bases.into_iter().zip(solvers).enumerate() {
            entries.push(RaceEntry {
                base,
                tier: None,
                solver,
                estimate,
            });
            entries.append(&mut variants[base]);
        }
        // The lowest whole-sample estimate (a candidate the t-test stopped
        // was slower than the leader of its time, so it is never that).
        let fastest = |entries: &[RaceEntry]| -> usize {
            let sampled = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.estimate.is_sampled());
            sampled
                .min_by(|a, b| {
                    let seconds = |e: &RaceEntry| e.estimate.estimated_total_seconds;
                    seconds(a.1).total_cmp(&seconds(b.1))
                })
                .expect("the reference was sampled")
                .0
        };

        // Second pass over the provisional winner's group.
        let winner_base = entries[fastest(&entries)].base;
        let group: Vec<usize> = (0..entries.len())
            .filter(|&i| entries[i].base == winner_base && entries[i].estimate.is_sampled())
            .collect();
        if group.len() > 1 {
            for idx in group {
                let solver = entries[idx]
                    .solver
                    .as_deref()
                    .expect("sampled entries are built");
                let second = race.estimate(solver, EarlyStop::Never);
                if second.sample_seconds < entries[idx].estimate.sample_seconds {
                    entries[idx].estimate = second;
                }
            }
        }

        let mut chosen = fastest(&entries);
        if let Some(base) = demote_marginal_screen_winner(&entries, chosen) {
            entries[chosen].estimate.outcome = CandidateOutcome::DemotedWithinMargin;
            chosen = base;
        }
        Ok(PlannedChoice {
            chosen,
            entries,
            sample_size: sample.len(),
            decision_seconds: overall.elapsed().as_secs_f64() - race.building,
        })
    }
}

/// Seconds `solver` takes to serve `users` at `k`, less the construction
/// the query set off: an index that builds part of itself on first touch
/// (MAXIMUS packs a list part the first time a pass reaches it) adds
/// those seconds to its [`MipsSolver::build_seconds`], and they count as
/// construction, not serving — estimates must not carry cold-start noise.
fn serving_seconds(solver: &dyn MipsSolver, k: usize, users: &[usize]) -> f64 {
    let built = solver.build_seconds();
    let t0 = Instant::now();
    let results = solver.query_subset(k, users);
    let elapsed = t0.elapsed().as_secs_f64();
    debug_assert_eq!(results.len(), users.len());
    (elapsed - (solver.build_seconds() - built)).max(0.0)
}

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
/// A variant is paired with its base by [`RaceEntry::base`] and
/// [`RaceEntry::tier`], never by name: under a forced mode the screens run
/// under plain keys, and a third-party solver that merely *names* itself
/// like a screen has no base twin. Returns the base's index in `entries`
/// when the winner `chosen` should be demoted to it. Every screen tier
/// faces the same incumbent and the same noise asymmetry, so they share
/// one margin.
fn demote_marginal_screen_winner(entries: &[RaceEntry], chosen: usize) -> Option<usize> {
    let winner = &entries[chosen];
    winner.tier?;
    let base = entries
        .iter()
        .position(|e| e.base == winner.base && e.tier.is_none())?;
    let screen_seconds = winner.estimate.estimated_total_seconds;
    let base_seconds = entries[base].estimate.estimated_total_seconds;
    (screen_seconds > SCREEN_ADOPTION_MARGIN * base_seconds
        || base_seconds - screen_seconds < SCREEN_ADOPTION_FLOOR_SECONDS)
        .then_some(base)
}

/// Welford's running mean and sum of squared deviations of a point-query
/// candidate's per-user times: the state of the early-stopping t-test.
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// The one-sample t-test against `reference`: whether the mean time is
    /// significantly above it at [`TTEST_ALPHA`], two-sided. No verdict
    /// before [`TTEST_MIN_SAMPLES`] times; with zero variance the sign of
    /// the difference decides.
    fn significantly_above(&self, reference: f64) -> bool {
        if self.n < TTEST_MIN_SAMPLES {
            return false;
        }
        let diff = self.mean - reference;
        let std_error = (self.m2 / (self.n - 1) as f64).sqrt() / (self.n as f64).sqrt();
        if std_error == 0.0 {
            return diff > 0.0;
        }
        let t = diff / std_error;
        t > Z_975 && two_sided_p(t, self.n - 1) < TTEST_ALPHA
    }
}

/// `P(|T| ≥ t)` for Student's t with `df ≥ 1` degrees of freedom and
/// `t ≥ 0`: one minus the finite series for `A(t|ν)` of Abramowitz &
/// Stegun 26.7.3 (odd ν) and 26.7.4 (even ν), with θ = atan(t/√ν):
///
/// * odd: `A = (2/π)·(θ + sin θ·(cos θ + (2/3)cos³θ + … + (2·4⋯(ν−3))/(1·3⋯(ν−2))·cos^(ν−2)θ))`,
/// * even: `A = sin θ·(1 + (1/2)cos²θ + … + (1·3⋯(ν−3))/(2·4⋯(ν−2))·cos^(ν−2)θ)`.
///
/// Both sums have `⌊ν/2⌋` terms, and each term is the last times
/// `(2i − 1 + odd)/(2i + odd)·cos²θ`.
fn two_sided_p(t: f64, df: u64) -> f64 {
    let theta = (t / (df as f64).sqrt()).atan();
    let (sin, cos) = theta.sin_cos();
    let odd = df % 2;
    let mut term = if odd == 1 { cos } else { 1.0 };
    let mut sum = 0.0;
    for i in 1..=df / 2 {
        sum += term;
        let num = (2 * i - 1 + odd) as f64;
        term *= num / (num + 1.0) * cos * cos;
    }
    let within = if odd == 1 {
        (theta + sin * sum) * std::f64::consts::FRAC_2_PI
    } else {
        sin * sum
    };
    1.0 - within
}

/// The solver in `slot`, building base candidate `base` into it first if
/// the race has not needed it yet (the seconds that takes go to `building`).
fn built<S: CandidateSource>(
    source: &mut S,
    slot: &mut Option<Arc<dyn MipsSolver>>,
    base: usize,
    building: &mut f64,
) -> Result<Arc<dyn MipsSolver>, S::Error> {
    if slot.is_none() {
        let started = Instant::now();
        *slot = Some(source.build(base)?);
        *building += started.elapsed().as_secs_f64();
    }
    Ok(Arc::clone(slot.as_ref().expect("filled above")))
}

/// The moving parts of one [`Optimus::choose`] invocation: the sample, the
/// class it is timed for, and the leader every later candidate is tested
/// and bounded against.
struct Race<'a> {
    k: usize,
    /// Users the estimates extrapolate to.
    n: usize,
    /// How calls are timed: the whole sample at once for a batch-capable
    /// candidate of a bulk race, else one user per call.
    class: TrafficClass,
    sample: &'a [usize],
    /// Length of the untimed warm-up prefix of `sample`.
    warm: usize,
    /// The lowest whole-sample estimate so far.
    leader_seconds: f64,
    /// Seconds inside construction the race triggered — the source's
    /// builds and what timed candidates built on first touch — reported
    /// per candidate and kept out of the decision's own clock.
    building: f64,
}

impl Race<'_> {
    /// Warms `solver` up, times it on the sample — against the leader's
    /// mean per-user time, as far as `early_stop` allows — and lets a
    /// whole-sample estimate take the lead. Construction either pass sets
    /// off (the growth of [`MipsSolver::build_seconds`]) counts as
    /// `building`, not as serving time or deciding time.
    fn time(&mut self, solver: &dyn MipsSolver, early_stop: EarlyStop) -> StrategyEstimate {
        let built = solver.build_seconds();
        let warm = &self.sample[..self.warm];
        match self.class {
            TrafficClass::Bulk => {
                let _ = solver.query_subset(self.k, warm);
            }
            TrafficClass::Point => {
                for &u in warm {
                    let _ = solver.query_subset(self.k, &[u]);
                }
            }
        }
        let estimate = self.estimate(solver, early_stop);
        if estimate.is_sampled() {
            self.leader_seconds = self.leader_seconds.min(estimate.estimated_total_seconds);
        }
        self.building += solver.build_seconds() - built;
        estimate
    }

    /// Times `solver` on the sample. A bulk race times a batch-capable
    /// candidate, and any candidate `early_stop` never cuts short, on the
    /// whole sample at once (a batch index's per-user cost is only
    /// meaningful with work sharing); every other call is timed user by
    /// user, under the incremental t-test against the leader's mean
    /// per-user time as far as `early_stop` lets the test cut it short.
    fn estimate(&self, solver: &dyn MipsSolver, early_stop: EarlyStop) -> StrategyEstimate {
        let (k, sample, n) = (self.k, self.sample, self.n);
        let whole = solver.batches_users() || early_stop == EarlyStop::Never;
        if self.class == TrafficClass::Bulk && whole {
            let sample_seconds = serving_seconds(solver, k, sample);
            let outcome = CandidateOutcome::Sampled;
            return StrategyEstimate::timed(solver, sample.len(), sample_seconds, n, outcome);
        }

        // One user per call: incremental one-sample t-test against the
        // leader's mean.
        let reference_per_user = self.leader_seconds / n as f64;
        let mut times = Welford::default();
        let mut sample_seconds = 0.0;
        let mut used = 0;
        for &u in sample {
            let dt = serving_seconds(solver, k, &[u]);
            sample_seconds += dt;
            used += 1;
            times.push(dt);
            if early_stop == EarlyStop::WhenSlower && times.significantly_above(reference_per_user)
            {
                break;
            }
        }
        let outcome = if used == sample.len() {
            CandidateOutcome::Sampled
        } else {
            CandidateOutcome::StoppedEarly { after: used }
        };
        StrategyEstimate::timed(solver, used, sample_seconds, n, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximus::{MaximusConfig, MaximusIndex};
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_data::MfModel;
    use mips_lemp::LempConfig;
    use mips_topk::TopKList;

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 300,
            num_items: 250,
            num_factors: 10,
            item_norm_skew: 0.8,
            user_spread: 0.3,
            ..SynthConfig::default()
        }))
    }

    fn tiny_config() -> OptimusConfig {
        OptimusConfig {
            sample_fraction: 0.05,
            cache: CacheConfig {
                l1_bytes: 1024,
                l2_bytes: 2048, // tiny: keeps the L2 floor small for tests
                l3_bytes: 4096,
            },
            ..OptimusConfig::default()
        }
    }

    #[test]
    fn whatever_is_chosen_serves_exact_results() {
        let m = model();
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                num_clusters: 4,
                block_size: 32,
                ..MaximusConfig::default()
            },
        );
        let lemp = crate::adapters::LempSolver::build(Arc::clone(&m), &LempConfig::default());
        let mut source = Prebuilt {
            bases: vec![
                Arc::new(MaximusIndex::brute_force(Arc::clone(&m))),
                Arc::new(maximus),
                Arc::new(lemp),
            ],
            f32_variants: Vec::new(),
        };
        let Ok(choice) = Optimus::new(tiny_config()).choose(&m, 3, TrafficClass::Bulk, &mut source);
        assert_eq!(choice.entries.len(), 3);
        for entry in &choice.entries {
            let e = &entry.estimate;
            assert!(e.estimated_total_seconds > 0.0 && e.estimated_total_seconds.is_finite());
            assert!(e.sampled_users >= 2 && e.sampled_users <= choice.sample_size);
        }
        let winner = choice.entries[choice.chosen].solver.as_deref();
        let got = winner.expect("the winner was built").query_all(3);
        let want = MaximusIndex::brute_force(Arc::clone(&m)).query_all(3);
        assert_eq!(got.len(), want.len());
        for (u, (got, expect)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got.items, expect.items, "user {u}");
        }
    }

    #[test]
    fn sample_size_respects_l2_floor_and_bounds() {
        let optimus = Optimus::new(OptimusConfig::default());
        // 0.5 % of 100k users at f=100 is 500, but the L2 floor (256 KB /
        // 800 B) is 328 — fraction dominates.
        assert_eq!(optimus.sample_size(100_000, 100), 500);
        // For few users the floor caps at |U|.
        assert_eq!(optimus.sample_size(50, 100), 50);
        // At tiny f the floor dominates the fraction.
        let floor = CacheConfig::default().rows_to_fill_l2(10, 8);
        assert_eq!(optimus.sample_size(100_000, 10), floor.max(500));
    }

    #[test]
    fn a_point_query_candidate_records_where_its_sampling_stopped() {
        // FEXIPRO point queries against BMM: whether the t-test settles
        // before the full sample is the clock's business, but the record
        // must say which happened — `Sampled` over the whole sample, or
        // `StoppedEarly` at the user count it reports, never before
        // `TTEST_MIN_SAMPLES` and never past the sample.
        let m = model();
        let config = tiny_config();
        let fexipro = crate::adapters::FexiproSolver::build(
            Arc::clone(&m),
            &mips_fexipro::FexiproConfig::sir(),
        );
        let mut source = Prebuilt {
            bases: vec![
                Arc::new(MaximusIndex::brute_force(Arc::clone(&m))),
                Arc::new(fexipro),
            ],
            f32_variants: Vec::new(),
        };
        let Ok(choice) = Optimus::new(config).choose(&m, 1, TrafficClass::Bulk, &mut source);
        let fex = &choice.entries[1].estimate;
        match fex.outcome {
            CandidateOutcome::Sampled => assert_eq!(fex.sampled_users, choice.sample_size),
            CandidateOutcome::StoppedEarly { after } => {
                assert_eq!(after, fex.sampled_users);
                assert!(after as u64 >= TTEST_MIN_SAMPLES && after < choice.sample_size);
                assert_ne!(choice.chosen, 1, "a stopped candidate lost to the leader");
            }
            other => panic!("a built, unpaired candidate cannot be {other:?}"),
        }
    }

    /// Already-built bases, the first `paired` of which also carry an f32
    /// variant that always races (time ratio 0).
    struct Prebuilt {
        bases: Vec<Arc<dyn MipsSolver>>,
        f32_variants: Vec<Arc<dyn MipsSolver>>,
    }

    impl CandidateSource for Prebuilt {
        type Error = std::convert::Infallible;

        fn labels(&self) -> Vec<String> {
            self.bases.iter().map(|s| s.name().to_string()).collect()
        }

        fn analytical_bound(&mut self, _base: usize) -> Option<f64> {
            None
        }

        fn build(&mut self, base: usize) -> Result<Arc<dyn MipsSolver>, Self::Error> {
            Ok(Arc::clone(&self.bases[base]))
        }

        fn tier_time_ratio(&mut self, base: usize, tier: ScreenTier) -> Option<f64> {
            (tier == ScreenTier::F32 && base < self.f32_variants.len()).then_some(0.0)
        }

        fn build_variant(
            &mut self,
            base: usize,
            _tier: ScreenTier,
        ) -> Result<Option<Arc<dyn MipsSolver>>, Self::Error> {
            Ok(Some(Arc::clone(&self.f32_variants[base])))
        }
    }

    #[test]
    fn screen_paired_candidates_are_timed_on_the_full_sample() {
        // A screen variant and its f64 base are compared head-to-head by
        // the adoption rule, so `choose` must not let the t-test stop
        // the two at different user counts (different user mixes bias
        // the pair's comparison on norm-heterogeneous backends). Both
        // sides of a raced pair must report the full sample; the unpaired
        // point-query candidates keep early-stopped sampling.
        //
        // No default point-query backend screens, but a third-party one
        // may: `Point` lists the f32 tier and carries a variant, so stage 2
        // re-times it on the whole sample if the t-test stopped it.
        //
        // Pairing is the source's structural knowledge: a third-party
        // solver whose display name merely *ends* in a tier suffix (and
        // even matches another candidate's name before it) is unpaired.
        // The stub records the largest subset it was ever asked for: a
        // paired candidate is timed on the whole sample at once, an
        // unpaired point-query one user by user after the warm-up.
        struct Point {
            inner: crate::adapters::LempSolver,
            name: &'static str,
        }
        impl MipsSolver for Point {
            fn name(&self) -> &str {
                self.name
            }
            fn build_seconds(&self) -> f64 {
                self.inner.build_seconds()
            }
            fn batches_users(&self) -> bool {
                false
            }
            fn screen_tiers(&self) -> &[ScreenTier] {
                &[ScreenTier::F32]
            }
            fn num_users(&self) -> usize {
                self.inner.num_users()
            }
            fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
                self.inner.query_subset(k, users)
            }
        }
        struct Lookalike {
            inner: crate::adapters::FexiproSolver,
            largest_subset: crate::sync::atomic::AtomicUsize,
        }
        impl MipsSolver for Lookalike {
            fn name(&self) -> &str {
                "FEXIPRO-SI+i8"
            }
            fn build_seconds(&self) -> f64 {
                self.inner.build_seconds()
            }
            fn batches_users(&self) -> bool {
                false
            }
            fn num_users(&self) -> usize {
                self.inner.num_users()
            }
            fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
                self.largest_subset
                    .fetch_max(users.len(), crate::sync::atomic::Ordering::Relaxed);
                self.inner.query_subset(k, users)
            }
        }
        let m = model();
        let optimus = Optimus::new(tiny_config());
        let point = |name| Point {
            inner: crate::adapters::LempSolver::build(Arc::clone(&m), &LempConfig::default()),
            name,
        };
        let fexipro = || {
            crate::adapters::FexiproSolver::build(
                Arc::clone(&m),
                &mips_fexipro::FexiproConfig::si(),
            )
        };
        let lookalike = Arc::new(Lookalike {
            inner: fexipro(),
            largest_subset: Default::default(),
        });
        // `Point` leads the list so that it is the base with the variant;
        // BMM is still the reference (the first batch-capable candidate).
        let mut source = Prebuilt {
            bases: vec![
                Arc::new(point("Point")),
                Arc::new(MaximusIndex::brute_force(Arc::clone(&m))),
                Arc::new(fexipro()),
                Arc::clone(&lookalike) as Arc<dyn MipsSolver>,
            ],
            f32_variants: vec![Arc::new(point("Point+f32"))],
        };
        let Ok(choice) = optimus.choose(&m, 3, TrafficClass::Bulk, &mut source);
        let names: Vec<&str> = choice
            .entries
            .iter()
            .map(|e| e.estimate.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "Point",
                "Point+f32",
                "Blocked MM",
                "FEXIPRO-SI",
                "FEXIPRO-SI+i8"
            ],
            "each base in order, followed by its competed variants"
        );
        let pairing = |idx: usize| (choice.entries[idx].base, choice.entries[idx].tier);
        assert_eq!(pairing(1), (0, Some(ScreenTier::F32)));
        assert_eq!(pairing(4), (3, None), "a name is not a pairing");
        for entry in &choice.entries {
            let e = &entry.estimate;
            if e.name == "Point" || e.name == "Point+f32" || e.name == "Blocked MM" {
                // The variant runs the base's own scan: when it edges ahead,
                // the adoption rule demotes it, after the whole sample.
                let demoted =
                    e.name == "Point+f32" && e.outcome == CandidateOutcome::DemotedWithinMargin;
                if !demoted {
                    assert_eq!(e.outcome, CandidateOutcome::Sampled, "{}", e.name);
                }
                assert_eq!(
                    e.sampled_users, choice.sample_size,
                    "{} must be timed on the whole sample",
                    e.name
                );
            } else {
                assert!(e.sampled_users <= choice.sample_size);
            }
        }
        let largest = lookalike
            .largest_subset
            .load(crate::sync::atomic::Ordering::Relaxed);
        assert!(choice.sample_size > 4, "sample must exceed the warm-up");
        assert!(
            largest <= 4,
            "a name ending in a tier suffix was paired: queried {largest} users at once"
        );
    }

    #[test]
    fn screen_winner_within_margin_is_demoted_to_its_f64_base() {
        let entry = |base: usize, tier: Option<ScreenTier>, secs: f64| RaceEntry {
            base,
            tier,
            solver: None,
            estimate: StrategyEstimate {
                name: screened_name("Blocked MM", tier),
                build_seconds: 0.0,
                sampled_users: 8,
                sample_seconds: secs / 10.0,
                estimated_total_seconds: secs,
                outcome: CandidateOutcome::Sampled,
            },
        };
        let f32 = Some(ScreenTier::F32);
        let i8 = Some(ScreenTier::I8);
        // Entry 1 is a screen variant of entry 0.
        let pair = |secs: f64| [entry(0, None, 1.00), entry(0, f32, secs)];
        // Screen barely ahead of its base (within the noise margin): the
        // exact-direct incumbent keeps the plan.
        assert_eq!(demote_marginal_screen_winner(&pair(0.95), 1), Some(0));
        // Screen clearly faster than the margin: adoption stands.
        assert_eq!(demote_marginal_screen_winner(&pair(0.60), 1), None);
        // Exactly at the margin boundary counts as clearly faster (the
        // demotion predicate is strict).
        let edge = pair(SCREEN_ADOPTION_MARGIN);
        assert_eq!(demote_marginal_screen_winner(&edge, 1), None);
        // Sub-millisecond requests: even a clear relative win saves less
        // absolute time than the noise floor — the incumbent keeps it.
        let tiny = [entry(0, None, 900e-6), entry(0, f32, 500e-6)];
        assert_eq!(demote_marginal_screen_winner(&tiny, 1), Some(0));
        // Forced modes: screens run under plain keys and no base twin
        // competes — nothing to demote to. Pairing is structural, never
        // read off display names: a third-party solver that merely *names*
        // itself like a screen of another candidate is not one either.
        let mut forced = pair(0.99);
        forced[1].tier = None;
        forced[1].base = 1;
        assert_eq!(demote_marginal_screen_winner(&forced, 1), None);
        // Every tier rides the same adoption discipline: marginal winners
        // demote to their f64 base, clear wins stand, and a screen winner
        // never demotes to a sibling tier (the base is the f64 build, not
        // the other screen).
        let three_way = [
            entry(0, None, 1.00),
            entry(0, f32, 0.70),
            entry(0, i8, 0.95),
        ];
        assert_eq!(demote_marginal_screen_winner(&three_way, 2), Some(0));
        assert_eq!(demote_marginal_screen_winner(&three_way, 1), None);
        // A variant pairs with the base of its own `base` index, wherever
        // that sits in the entries.
        let two_bases = [
            entry(0, None, 0.50),
            entry(1, None, 1.00),
            entry(1, i8, 0.95),
        ];
        assert_eq!(demote_marginal_screen_winner(&two_bases, 2), Some(1));
    }

    /// Welford's state after `xs`.
    fn welford(xs: &[f64]) -> Welford {
        let mut acc = Welford::default();
        xs.iter().for_each(|&x| acc.push(x));
        acc
    }

    #[test]
    fn welford_matches_the_two_pass_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [2usize, 3, 17, 200] {
            // Times spanning orders of magnitude around a large offset.
            let xs: Vec<f64> = (0..len)
                .map(|_| 1e3 + rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..3)))
                .collect();
            let acc = welford(&xs);
            let mean = xs.iter().sum::<f64>() / len as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (len - 1) as f64;
            assert_eq!(acc.n, len as u64);
            assert!((acc.mean - mean).abs() <= 1e-12 * mean.abs(), "len {len}");
            let welford_var = acc.m2 / (len - 1) as f64;
            assert!((welford_var - var).abs() <= 1e-9 * var, "len {len}");
        }
    }

    #[test]
    fn p_values_hit_the_tabulated_critical_values() {
        // Two-sided 5 % critical values of Student's t.
        for (df, t) in [
            (7, 2.364624),
            (10, 2.228139),
            (30, 2.042272),
            (100, 1.983972),
            (1000, 1.962339),
        ] {
            let p = two_sided_p(t, df);
            assert!((p - 0.05).abs() < 1e-6, "df {df}: p({t}) = {p}");
        }
    }

    #[test]
    fn p_values_match_the_closed_forms_at_one_and_two_df() {
        for i in 0..=400 {
            let t = i as f64 * 0.05;
            let cauchy = 1.0 - 2.0 * t.atan() / std::f64::consts::PI;
            assert!((two_sided_p(t, 1) - cauchy).abs() < 1e-12, "df 1, t {t}");
            let two = 1.0 - t / (2.0 + t * t).sqrt();
            assert!((two_sided_p(t, 2) - two).abs() < 1e-12, "df 2, t {t}");
        }
        assert_eq!(two_sided_p(0.0, 9), 1.0);
        assert!(two_sided_p(f64::INFINITY, 9).abs() < 1e-15);
    }

    #[test]
    fn the_guard_skips_only_ts_that_cannot_reach_significance() {
        // At z₀.₉₇₅ Student's t is above 5 % at every df (the normal's
        // tails are the thinnest), so the guard decides nothing; just past
        // it, a df large enough is already significant.
        for df in [1, 2, 7, 30, 1000, 20_000] {
            assert!(two_sided_p(Z_975, df) > TTEST_ALPHA, "df {df}");
        }
        assert!(two_sided_p(Z_975 + 1e-3, 20_000) < TTEST_ALPHA);
        // A stream whose t lands just under the cutoff never stops; one
        // just over it stops once the df make it significant.
        let at = |t: f64| {
            // Eight times with mean t·se above the reference 0.
            let xs = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0];
            let acc = welford(&xs);
            let se = (acc.m2 / 7.0).sqrt() / 8f64.sqrt();
            welford(&xs.map(|x| x + t * se)).significantly_above(0.0)
        };
        assert!(!at(Z_975 - 1e-6));
        assert!(!at(2.364624 - 1e-4), "df 7 needs t > 2.3646");
        assert!(at(2.364624 + 1e-4));
    }

    #[test]
    fn the_t_test_waits_for_min_samples_and_decides_by_sign_without_variance() {
        // A candidate 100× slower stops exactly at TTEST_MIN_SAMPLES.
        let mut acc = Welford::default();
        for i in 0..TTEST_MIN_SAMPLES {
            assert!(!acc.significantly_above(1.0), "after {i} users");
            acc.push(100.0 + i as f64 * 0.01);
        }
        assert!(acc.significantly_above(1.0));
        // Zero variance: the sign of the difference decides alone.
        let flat = welford(&[5.0; 8]);
        assert!(flat.significantly_above(4.0));
        assert!(!flat.significantly_above(5.0));
        assert!(!flat.significantly_above(6.0));
        // A faster candidate is never "above", however significant.
        assert!(!welford(&[1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1]).significantly_above(10.0));
    }

    #[test]
    fn a_stream_straddling_the_reference_never_stops() {
        let mut acc = Welford::default();
        for i in 0..200 {
            acc.push(if i % 2 == 0 { 9.0 } else { 11.0 });
            assert!(!acc.significantly_above(10.0), "after {} users", i + 1);
        }
    }
}
