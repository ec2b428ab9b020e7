//! The request/response serving engine: the crate's primary public API.
//!
//! The paper's thesis is that the choice of exact-MIPS strategy should be
//! made at serving time by an optimizer. The engine packages that thesis
//! behind one facade:
//!
//! * [`EngineBuilder`] assembles a model, a set of backends from an open
//!   [`registry`](BackendRegistry) (brute force, MAXIMUS, LEMP, FEXIPRO,
//!   or anything implementing [`SolverFactory`]), and
//!   [`EngineOptions`] — including the multi-core serving degree.
//! * [`QueryRequest`] describes one unit of work: `k`, a user selection
//!   (everyone / a range / an explicit id list), and optional per-user
//!   item exclusions for the recommender scenario.
//! * Every entry point returns `Result<_, MipsError>`: malformed requests
//!   (`k == 0`, `k > num_items`, out-of-range users, empty selections) are
//!   typed errors, never panics.
//! * [`Engine::prepare`] runs the OPTIMUS planner (`planner.rs`: a
//!   staged race that builds an index only while it can still win) once and
//!   caches the winning backend — with the decision record — in a
//!   [`PreparedPlan`]; [`Engine::execute`] does this transparently, so
//!   repeated requests at the same `k` and traffic class never re-sample.
//!   A request over a few users and one over many are priced apart
//!   ([`TrafficClass`]): the point plan is timed one user per call, the
//!   bulk plan on a whole sample per call.
//! * [`Engine::swap_model`] installs a retrained model atomically while the
//!   engine keeps serving: each request snapshots one model *epoch* on
//!   entry and runs against it end to end, so in-flight requests finish
//!   bit-identically on the epoch they started under while new submissions
//!   see the new model. Every derived structure (built indexes, cached
//!   plans) is epoch-scoped and reclaimed when the last in-flight request
//!   of an old epoch completes.
//!
//! ```
//! use mips_core::engine::{EngineBuilder, QueryRequest};
//! use mips_data::synth::{synth_model, SynthConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 60,
//!     num_items: 120,
//!     num_factors: 8,
//!     ..SynthConfig::default()
//! }));
//! let engine = EngineBuilder::new()
//!     .model(model)
//!     .with_default_backends()
//!     .threads(2)
//!     .build()
//!     .unwrap();
//! let response = engine.execute(&QueryRequest::top_k(5)).unwrap();
//! assert_eq!(response.results.len(), 60);
//! assert!(engine.execute(&QueryRequest::top_k(0)).is_err()); // typed, no panic
//! ```

pub(crate) mod epoch;
pub mod error;
pub mod plan;
mod planner;
pub mod registry;
pub mod request;

pub use error::MipsError;
pub use plan::PreparedPlan;
pub use registry::{
    builtin, BackendRegistry, BmmFactory, FexiproFactory, FnFactory, LempFactory, MaximusFactory,
    SolverFactory, SparseFactory, BUILTIN_KEYS,
};
pub use request::{
    ExclusionSet, QueryRequest, QueryResponse, QueryVector, UserSelection, VectorQueryRequest,
};

use crate::optimus::{Optimus, OptimusConfig, TrafficClass};
use crate::parallel::{par_query_range, par_query_subset};
use crate::precision::Precision;
use crate::solver::MipsSolver;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use epoch::{get_or_build, ArcCell, ModelEpoch};
use mips_data::MfModel;
use mips_topk::{exact_topk, ScreenTier, TopKList};
use std::collections::HashMap;
use std::time::Instant;

/// Engine-wide serving options: every [`EngineBuilder`] knob as one typed,
/// validated value. The per-knob builder methods are sugar over this
/// struct; [`EngineOptions::validate`] is the single place the invariants
/// live, so a hand-assembled options value and a builder-assembled one are
/// rejected identically.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads for serving (user-partitioned, Fig. 6). `1` serves
    /// sequentially; values above one route every request through the
    /// multi-core path.
    pub threads: usize,
    /// Planner configuration (sampling fraction, cache geometry, seed).
    pub optimus: OptimusConfig,
    /// Numeric execution mode for the scan backends: pure f64 (default),
    /// a forced screen tier + f64 rescore, or planner's choice per plan.
    /// Results are bit-identical across all of them — see
    /// [`crate::precision::Precision`].
    pub precision: Precision,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            threads: 1,
            optimus: OptimusConfig::default(),
            precision: Precision::F64,
        }
    }
}

impl EngineOptions {
    /// Checks every invariant the engine relies on. [`EngineBuilder::build`]
    /// calls this; standalone callers can validate early.
    pub fn validate(&self) -> Result<(), MipsError> {
        if self.threads == 0 {
            return Err(MipsError::InvalidConfig(
                "threads must be at least 1".into(),
            ));
        }
        let f = self.optimus.sample_fraction;
        if !(f > 0.0 && f <= 1.0) {
            return Err(MipsError::InvalidConfig(format!(
                "optimus.sample_fraction must be in (0, 1], got {f}"
            )));
        }
        Ok(())
    }
}

/// Step-by-step assembly of an [`Engine`].
#[derive(Default)]
pub struct EngineBuilder {
    model: Option<Arc<MfModel>>,
    registry: BackendRegistry,
    config: EngineOptions,
    defer_error: Option<MipsError>,
}

impl EngineBuilder {
    /// An empty builder.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Sets the model to serve.
    pub fn model(mut self, model: Arc<MfModel>) -> EngineBuilder {
        self.model = Some(model);
        self
    }

    /// Registers one backend; duplicate keys surface as an error from
    /// [`EngineBuilder::build`].
    pub fn register(self, factory: impl SolverFactory + 'static) -> EngineBuilder {
        self.register_arc(Arc::new(factory))
    }

    /// Registers an already-shared backend factory.
    pub fn register_arc(mut self, factory: Arc<dyn SolverFactory>) -> EngineBuilder {
        if let Err(err) = self.registry.register(factory) {
            self.defer_error.get_or_insert(err);
        }
        self
    }

    /// Registers the raced built-in backends
    /// ([`BackendRegistry::with_defaults`]) with default parameters, in
    /// order, after whatever is already registered.
    pub fn with_default_backends(mut self) -> EngineBuilder {
        for factory in BackendRegistry::with_defaults().factories() {
            self = self.register_arc(Arc::clone(factory));
        }
        self
    }

    /// Replaces the registry wholesale, clearing any error deferred from
    /// earlier incremental registrations (they targeted the replaced
    /// registry).
    pub fn registry(mut self, registry: BackendRegistry) -> EngineBuilder {
        self.registry = registry;
        self.defer_error = None;
        self
    }

    /// Sets the serving thread count (must be at least 1).
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.config.threads = threads;
        self
    }

    /// Sets the planner configuration.
    pub fn optimus(mut self, optimus: OptimusConfig) -> EngineBuilder {
        self.config.optimus = optimus;
        self
    }

    /// Sets the numeric execution mode (f64-direct, a forced screen tier +
    /// f64-rescore, or per-plan [`Precision::Auto`]). Results are
    /// bit-identical under every setting.
    pub fn precision(mut self, precision: Precision) -> EngineBuilder {
        self.config.precision = precision;
        self
    }

    /// Validates the assembly and produces the engine.
    pub fn build(self) -> Result<Engine, MipsError> {
        if let Some(err) = self.defer_error {
            return Err(err);
        }
        self.config.validate()?;
        let model = self
            .model
            .ok_or_else(|| MipsError::InvalidConfig("a model is required".into()))?;
        if model.num_users() == 0 || model.num_items() == 0 {
            return Err(MipsError::EmptyModel);
        }
        if self.registry.is_empty() {
            return Err(MipsError::NoBackends);
        }
        Ok(Engine {
            state: ArcCell::new(Arc::new(ModelEpoch::new(0, model))),
            registry: self.registry,
            config: self.config,
            planner_runs: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        })
    }
}

/// Locks a cache mutex, recovering from poisoning: if a (custom) factory
/// panicked mid-build, the slot it was filling is still `None`, so the
/// sensible recovery is to let the next caller retry rather than poison the
/// engine forever.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> crate::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(crate::sync::PoisonError::into_inner)
}

/// The serving engine: backends + planner + the current model epoch.
///
/// The registry and configuration are immutable after construction. The
/// model — and everything derived from it (built solvers, cached plans) —
/// lives in an epoch that [`Engine::swap_model`] replaces atomically, so an
/// engine can be shared across threads, queried concurrently, and re-pointed
/// at a retrained model without draining traffic.
pub struct Engine {
    state: ArcCell<ModelEpoch>,
    registry: BackendRegistry,
    config: EngineOptions,
    planner_runs: AtomicU64,
    swaps: AtomicU64,
}

impl Engine {
    /// Starts assembling an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// A snapshot of the currently served model. In-flight requests may
    /// still be finishing on an older epoch's model after a
    /// [`swap_model`](Engine::swap_model); this is always the newest.
    pub fn model(&self) -> Arc<MfModel> {
        Arc::clone(&self.state.load().model)
    }

    /// The current model epoch (0 at build, +1 per successful swap).
    pub fn epoch(&self) -> u64 {
        self.state.load().id
    }

    /// How many model swaps have been accepted.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// The current epoch state, for epoch-pinned serving (the concurrent
    /// runtime snapshots this once per request).
    pub(crate) fn snapshot(&self) -> Arc<ModelEpoch> {
        self.state.load()
    }

    /// Atomically installs a retrained model and returns the new epoch id.
    ///
    /// The swap is an atomic pointer replacement: requests already past
    /// their epoch snapshot finish bit-identically on the old model (and
    /// its cached plans/indexes), requests entering afterwards see the new
    /// one — there is no draining window and no half-swapped state. All
    /// derived caches are invalidated wholesale because they live inside
    /// the epoch; the old epoch (model, indexes, plans) is freed when its
    /// last in-flight request completes.
    ///
    /// The new model must be non-empty, like at build time; everything
    /// else about it was validated by [`MfModel::new`]. Its shape may differ
    /// freely — user count, catalog size, and factor dimensionality are all
    /// per-epoch properties.
    pub fn swap_model(&self, model: Arc<MfModel>) -> Result<u64, MipsError> {
        if model.num_users() == 0 || model.num_items() == 0 {
            return Err(MipsError::EmptyModel);
        }
        let installed = self
            .state
            .swap_with(|old| Arc::new(ModelEpoch::new(old.id + 1, model)));
        self.swaps.fetch_add(1, Ordering::SeqCst);
        Ok(installed.id)
    }

    /// The backend registry.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The engine options in effect.
    pub fn options(&self) -> &EngineOptions {
        &self.config
    }

    /// The engine's configured numeric mode (see
    /// [`EngineBuilder::precision`]). Per-plan effective decisions are on
    /// [`PreparedPlan::precision`].
    pub fn precision(&self) -> Precision {
        self.config.precision
    }

    /// Registered backend keys, in registration order.
    pub fn backend_keys(&self) -> Vec<&str> {
        self.registry.keys()
    }

    /// How many times the OPTIMUS planner has actually run (used to verify
    /// that prepared plans are reused rather than re-sampled).
    pub fn planner_runs(&self) -> u64 {
        self.planner_runs.load(Ordering::SeqCst)
    }

    /// The built (plain f64) solver for `key` on the current epoch,
    /// constructing and caching it on first use; an unregistered built-in
    /// key ([`registry::builtin`]) serves too. Concurrent requests for
    /// other backends proceed; concurrent first requests for this one may
    /// race the build but share the single installed instance.
    pub fn solver(&self, key: &str) -> Result<Arc<dyn MipsSolver>, MipsError> {
        self.solver_or_plain(&self.snapshot(), key, None)
    }

    /// The one solver lookup: backend `key` on one epoch snapshot, in
    /// screen tier `tier` (`None`: the plain f64 build), `key` resolved in
    /// the registry first, then among the built-ins.
    ///
    /// Built lazily and cached in the epoch under the typed pair
    /// `(key, tier)`. The build runs outside the cache lock and installs
    /// compare-and-swap style (see [`epoch::get_or_build`]), so a slow build
    /// never convoys concurrent first-touch builders of other state.
    /// `Ok(None)` — cached like a build — means the backend has no variant
    /// in `tier`; the plain build always exists.
    ///
    /// A tier variant is **derived from the plain build**: the
    /// `(key, None)` cell's solver (built here if this is its first use)
    /// derives it ([`MipsSolver::screen_variant`]), adding the tier's
    /// mirrors over the shared construction — so a backend's clustering,
    /// sorting and gathered copies exist once per `key` and epoch, however
    /// many tiers are armed.
    fn solver_on(
        &self,
        state: &ModelEpoch,
        key: &str,
        tier: Option<ScreenTier>,
    ) -> Result<Option<Arc<dyn MipsSolver>>, MipsError> {
        let factory = match self.registry.get(key) {
            Some(factory) => Arc::clone(factory),
            None => registry::builtin(key)
                .ok_or_else(|| MipsError::UnknownBackend { key: key.into() })?,
        };
        let cell = {
            let mut map = lock_recovering(&state.solvers);
            Arc::clone(map.entry((key.to_string(), tier)).or_default())
        };
        get_or_build(&cell, || match tier {
            None => Ok(Some(Arc::from(factory.build(&state.model)?))),
            Some(tier) => {
                let plain = self.solver_on(state, key, None)?;
                let plain = plain.expect("every backend has a plain build");
                Ok(plain.screen_variant(tier).map(Arc::from))
            }
        })
    }

    /// [`Engine::solver_on`] for a caller that needs *a* solver: the
    /// `tier` variant when one is asked for and the backend has it, the
    /// plain f64 build otherwise.
    fn solver_or_plain(
        &self,
        state: &ModelEpoch,
        key: &str,
        tier: Option<ScreenTier>,
    ) -> Result<Arc<dyn MipsSolver>, MipsError> {
        if tier.is_some() {
            if let Some(screen) = self.solver_on(state, key, tier)? {
                return Ok(screen);
            }
        }
        Ok(self
            .solver_on(state, key, None)?
            .expect("every backend has a plain build"))
    }

    /// Serves a request with an explicitly named backend — registered or
    /// built in — with no planning.
    pub fn execute_with(
        &self,
        key: &str,
        request: &QueryRequest,
    ) -> Result<QueryResponse, MipsError> {
        let state = self.snapshot();
        request.validate(&state.model)?;
        // Named dispatch honors a forced screen tier (falling back to the
        // f64 build when the backend has no path for that tier); under
        // Auto the precision decision belongs to the planner, so unplanned
        // named requests serve f64-direct.
        let solver = self.solver_or_plain(&state, key, self.config.precision.forced_tier())?;
        serve(
            &state.model,
            solver.as_ref(),
            self.config.threads,
            request,
            false,
            state.id,
        )
    }

    /// Serves an ad-hoc [`VectorQueryRequest`]: the exact top-`k` items
    /// for one factor-space vector, dense or sparse — the point-lookup
    /// face of the engine, with no user id involved, so it answers for
    /// "users" the model has never seen (fresh embeddings, composed
    /// queries, sparse bag-of-words vectors).
    ///
    /// A sparse payload is densified before serving, so both encodings of
    /// the same vector return bit-identical results. The point-lookup path
    /// of the first registered of `sparse` (the inverted index) and `bmm`
    /// (brute force's norm-sorted walk with its Cauchy–Schwarz stop)
    /// serves the query, under that solver's name — the solver is built
    /// lazily and cached on the epoch, like every solver. An engine with
    /// neither runs the oracle scan, [`exact_topk`], reported under brute
    /// force's name. The paths are bit-identical by the backend exactness
    /// contract, so routing is invisible in the results.
    pub fn execute_vector(&self, request: &VectorQueryRequest) -> Result<QueryResponse, MipsError> {
        let state = self.snapshot();
        request.validate(&state.model)?;
        let query = request.vector.densify();
        let started = Instant::now();
        let served = match ["sparse", "bmm"]
            .into_iter()
            .find(|key| self.registry.get(key).is_some())
        {
            Some(key) => {
                let solver = self.solver_or_plain(&state, key, None)?;
                let list = solver.query_vector(&query, request.k);
                list.map(|list| (list, solver.name().to_string()))
            }
            None => None,
        };
        let (list, backend) = served.unwrap_or_else(|| {
            let list = exact_topk(&query, state.model.items(), request.k);
            (list, "Blocked MM".to_string())
        });
        Ok(QueryResponse {
            results: vec![list],
            backend,
            precision: Precision::F64,
            planned: false,
            epoch: state.id,
            serve_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Runs the OPTIMUS planner for whole-model requests at `k` — the
    /// [`TrafficClass::Bulk`] plan — and caches the decision in the current
    /// epoch. Calling again with the same `k` (on the same epoch) returns
    /// the cached plan without re-sampling. Planning happens under a
    /// per-`k`-and-class lock, so a long sampling run for one `k` never
    /// stalls requests at another. Requests over a few users are served by
    /// the [`TrafficClass::Point`] plan at their `k`; [`Engine::plan_for`]
    /// returns the plan any given request takes.
    pub fn prepare(&self, k: usize) -> Result<Arc<PreparedPlan>, MipsError> {
        self.prepare_on(&self.snapshot(), k, TrafficClass::Bulk)
    }

    /// The plan that serves `request` on the current epoch, planned on
    /// first use and cached like [`Engine::prepare`]'s. The request is
    /// validated, then classed by its user count ([`Optimus::class_of`]): a
    /// few users take the [`TrafficClass::Point`] plan at its `k`, a whole
    /// model or a large range the [`TrafficClass::Bulk`] plan, which is
    /// `prepare(k)`'s.
    pub fn plan_for(&self, request: &QueryRequest) -> Result<Arc<PreparedPlan>, MipsError> {
        let state = self.snapshot();
        request.validate(&state.model)?;
        let class = self.class_of(&state, request.result_len(&state.model));
        self.prepare_on(&state, request.k, class)
    }

    /// The traffic class of a call over `users` users of `state`'s model
    /// ([`Optimus::class_of`]).
    pub(crate) fn class_of(&self, state: &ModelEpoch, users: usize) -> TrafficClass {
        let model = &state.model;
        Optimus::new(self.config.optimus).class_of(model.num_users(), model.num_factors(), users)
    }

    /// The plan for calls of `class` at `k`, pinned to one epoch snapshot —
    /// the concurrent runtime uses this so a sub-request plans (and serves)
    /// on the epoch its request was admitted under, even if a swap lands in
    /// between.
    pub(crate) fn prepare_on(
        &self,
        state: &ModelEpoch,
        k: usize,
        class: TrafficClass,
    ) -> Result<Arc<PreparedPlan>, MipsError> {
        if k == 0 || k > state.model.num_items() {
            return Err(MipsError::InvalidK {
                k,
                num_items: state.model.num_items(),
            });
        }
        let cell = {
            let mut map = lock_recovering(&state.plans);
            Arc::clone(map.entry((k, class)).or_default())
        };
        get_or_build(&cell, || Ok(Arc::new(self.plan_over(state, k, class)?)))
    }

    /// Serves a request through the plan cache: plans once per `k`, traffic
    /// class and epoch, then dispatches to the cached winner — the plan
    /// [`Engine::plan_for`] returns, pinned to the epoch it validated on.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, MipsError> {
        self.plan_for(request)?.execute_prevalidated(request)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.snapshot();
        f.debug_struct("Engine")
            .field("model", &state.model.name())
            .field("epoch", &state.id)
            .field("backends", &self.registry.keys())
            .field("threads", &self.config.threads)
            .field("planner_runs", &self.planner_runs())
            .finish()
    }
}

/// Runs the request's user selection through the solver at the given `k`.
fn dispatch(
    model: &MfModel,
    solver: &dyn MipsSolver,
    threads: usize,
    users: &UserSelection,
    k: usize,
) -> Vec<TopKList> {
    match users {
        // All-users at one thread takes the solver's specialized query_all
        // path (MAXIMUS serves whole clusters in membership order there).
        UserSelection::All if threads == 1 => solver.query_all(k),
        UserSelection::All => par_query_range(solver, k, 0..model.num_users(), threads),
        UserSelection::Range(r) => par_query_range(solver, k, r.clone(), threads),
        UserSelection::Ids(ids) => par_query_subset(solver, k, ids, threads),
    }
}

/// Serves one **already-validated** request with a concrete solver.
///
/// Shared by [`Engine::execute_with`], [`Engine::execute`], and
/// [`PreparedPlan::execute`], each of which validates exactly once before
/// calling in; both engine-level threading and exact exclusion handling
/// live here.
///
/// Exclusions are served exactly by widening `k`: a user's true top-k among
/// non-excluded items always sits within their top-(k + |exclusions|)
/// overall. The widening of the main batch is capped so one power user with
/// thousands of rated items cannot multiply the serve cost for everyone —
/// users whose exclusion count exceeds the cap are re-served individually
/// at their own width in a second, narrow pass.
pub(crate) fn serve(
    model: &MfModel,
    solver: &dyn MipsSolver,
    threads: usize,
    request: &QueryRequest,
    planned: bool,
    epoch: u64,
) -> Result<QueryResponse, MipsError> {
    debug_assert!(request.validate(model).is_ok(), "caller must validate");
    let start = Instant::now();
    let k = request.k;
    let num_items = model.num_items();

    let results = match request.exclude.as_ref().filter(|e| !e.is_empty()) {
        None => dispatch(model, solver, threads, &request.users, k),
        Some(e) => {
            let counts: Vec<usize> = request
                .selected_users_iter(model)
                .map(|u| e.count_for(u))
                .collect();
            let max_widen = counts.iter().copied().max().unwrap_or(0);
            // Cap the batch widening at max(k, 32): proportional to k so the
            // bulk pass does at most ~2x work, floored so moderate exclusion
            // lists never trigger the outlier pass.
            let bulk_widen = max_widen.min(k.max(32));
            let k_bulk = (k + bulk_widen).min(num_items);

            let raw = dispatch(model, solver, threads, &request.users, k_bulk);
            debug_assert_eq!(counts.len(), raw.len());
            let mut results: Vec<TopKList> = request
                .selected_users_iter(model)
                .zip(raw)
                .map(|(u, list)| filter_excluded(list, e.for_user(u), k))
                .collect();

            // Outlier pass: users whose exclusion list exceeds the bulk
            // widening need a wider query for exactness (unless the bulk
            // pass already ranked the whole catalog). Outliers are grouped
            // by the power-of-two ceiling of their needed width so each
            // user pays at most ~2x their own widening, never the widest
            // user's.
            if k_bulk < num_items {
                let mut groups: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
                for (pos, u) in request.selected_users_iter(model).enumerate() {
                    if counts[pos] > bulk_widen {
                        let k_user = (k + counts[pos]).min(num_items);
                        groups
                            .entry(k_user.next_power_of_two().min(num_items))
                            .or_default()
                            .push((pos, u));
                    }
                }
                for (k_out, members) in groups {
                    let ids: Vec<usize> = members.iter().map(|&(_, u)| u).collect();
                    let lists = par_query_subset(solver, k_out, &ids, threads);
                    for (&(pos, u), list) in members.iter().zip(lists) {
                        results[pos] = filter_excluded(list, e.for_user(u), k);
                    }
                }
            }
            results
        }
    };

    Ok(QueryResponse {
        results,
        backend: solver.name().to_string(),
        precision: solver.precision(),
        planned,
        epoch,
        serve_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Drops excluded items from a widened list and truncates to `k`.
fn filter_excluded(
    mut list: TopKList,
    excluded: &std::collections::HashSet<u32>,
    k: usize,
) -> TopKList {
    if excluded.is_empty() {
        // Exclusion-free users (the majority) keep their buffers: truncate
        // the widened list in place instead of rebuilding it.
        list.items.truncate(k);
        list.scores.truncate(k);
        return list;
    }
    let mut out = TopKList::empty();
    for (item, score) in list.iter() {
        if out.len() == k {
            break;
        }
        if !excluded.contains(&item) {
            out.items.push(item);
            out.scores.push(score);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximus::MaximusIndex;
    use crate::optimus::CandidateOutcome;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_linalg::CacheConfig;

    fn model(users: usize, items: usize) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: items,
            num_factors: 8,
            ..SynthConfig::default()
        }))
    }

    fn tiny_optimus() -> OptimusConfig {
        OptimusConfig {
            sample_fraction: 0.05,
            cache: CacheConfig {
                l1_bytes: 1024,
                l2_bytes: 2048,
                l3_bytes: 4096,
            },
            ..OptimusConfig::default()
        }
    }

    fn engine(users: usize, items: usize) -> Engine {
        EngineBuilder::new()
            .model(model(users, items))
            .with_default_backends()
            .optimus(tiny_optimus())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_each_bad_assembly() {
        assert!(matches!(
            EngineBuilder::new().with_default_backends().build(),
            Err(MipsError::InvalidConfig(_))
        ));
        assert_eq!(
            EngineBuilder::new().model(model(4, 6)).build().unwrap_err(),
            MipsError::NoBackends
        );
        assert!(matches!(
            EngineBuilder::new()
                .model(model(4, 6))
                .with_default_backends()
                .threads(0)
                .build(),
            Err(MipsError::InvalidConfig(_))
        ));
        assert_eq!(
            EngineBuilder::new()
                .model(model(4, 6))
                .register(BmmFactory)
                .register(BmmFactory)
                .build()
                .unwrap_err(),
            MipsError::DuplicateBackend { key: "bmm".into() }
        );
        // A bad sampling fraction is refused at assembly, before
        // `Optimus::new` could assert on it at the first plan.
        let with_fraction = |sample_fraction: f64| {
            EngineBuilder::new()
                .model(model(4, 6))
                .register(BmmFactory)
                .optimus(OptimusConfig {
                    sample_fraction,
                    ..OptimusConfig::default()
                })
                .build()
        };
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                matches!(with_fraction(bad), Err(MipsError::InvalidConfig(_))),
                "sample_fraction {bad} was accepted"
            );
        }
        let whole = with_fraction(1.0).expect("sampling every user is valid");
        assert!(whole.execute(&QueryRequest::top_k(2)).is_ok());
    }

    #[test]
    fn degenerate_backend_configs_are_typed_errors_not_panics() {
        use crate::maximus::MaximusConfig;
        let engine = EngineBuilder::new()
            .model(model(8, 12))
            .register(MaximusFactory::new(MaximusConfig {
                num_clusters: 0,
                ..MaximusConfig::default()
            }))
            .build()
            .expect("config errors surface at first use, not assembly");
        for _ in 0..2 {
            // Both attempts fail cleanly; the cache must not poison.
            let err = engine
                .execute(&QueryRequest::top_k(2))
                .expect_err("degenerate config cannot build");
            assert!(
                matches!(&err, MipsError::BackendBuild { key, .. } if key == "maximus"),
                "{err:?}"
            );
        }
        // LEMP's invariants are `LempConfig::validate`'s, whichever knob
        // breaks them: typed from the factory, and typed — twice — through
        // the engine.
        use mips_lemp::LempConfig;
        let ok = LempConfig::default();
        for config in [
            LempConfig {
                bucket_size: 0,
                ..ok
            },
            LempConfig {
                checkpoint_fraction: 0.0,
                ..ok
            },
            LempConfig { tune_k: 0, ..ok },
        ] {
            let lemp = LempFactory::new(config);
            assert!(
                matches!(
                    lemp.build(&model(8, 12)),
                    Err(MipsError::BackendBuild { .. })
                ),
                "{config:?}"
            );
            let engine = EngineBuilder::new()
                .model(model(8, 12))
                .register(lemp)
                .build()
                .expect("config errors surface at first use, not assembly");
            for _ in 0..2 {
                let err = engine
                    .execute(&QueryRequest::top_k(2))
                    .expect_err("degenerate config cannot build");
                assert!(
                    matches!(&err, MipsError::BackendBuild { key, .. } if key == "lemp"),
                    "{config:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn panicking_custom_factory_does_not_poison_the_engine() {
        let engine = EngineBuilder::new()
            .model(model(8, 12))
            .register(FnFactory::new("boom", |_: &Arc<MfModel>| {
                panic!("factory exploded")
            }))
            .register(BmmFactory)
            .build()
            .unwrap();
        // The panic propagates to the first caller...
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_with("boom", &QueryRequest::top_k(2))
        }));
        assert!(first.is_err());
        // ...but the engine recovers: other backends serve, and retrying the
        // broken key panics with the factory's own message, not a poisoned
        // mutex.
        let ok = engine
            .execute_with("bmm", &QueryRequest::top_k(2))
            .expect("other backends unaffected");
        assert_eq!(ok.results.len(), 8);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_with("boom", &QueryRequest::top_k(2))
        }));
        let message = *second.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(message, "factory exploded");
    }

    #[test]
    fn replacing_the_registry_clears_earlier_registration_errors() {
        // A duplicate register() poisons the builder, but swapping in a
        // whole valid registry recovers it.
        let engine = EngineBuilder::new()
            .model(model(4, 6))
            .register(BmmFactory)
            .register(BmmFactory)
            .registry(BackendRegistry::with_defaults())
            .build()
            .expect("replaced registry is valid");
        assert_eq!(
            engine.backend_keys(),
            BackendRegistry::with_defaults().keys()
        );
    }

    #[test]
    fn execute_with_matches_direct_solver_calls() {
        let m = model(40, 80);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let direct = MaximusIndex::brute_force(Arc::clone(&m)).query_all(5);
        let via_engine = engine.execute_with("bmm", &QueryRequest::top_k(5)).unwrap();
        assert_eq!(via_engine.results, direct);
        assert_eq!(via_engine.backend, "Blocked MM");
        assert!(!via_engine.planned);
        // Every built-in backend, raced or named, returns the same items.
        for key in BUILTIN_KEYS {
            let response = engine.execute_with(key, &QueryRequest::top_k(5)).unwrap();
            for (u, (got, want)) in response.results.iter().zip(&direct).enumerate() {
                assert_eq!(got.items, want.items, "{key} user {u}");
            }
        }
    }

    #[test]
    fn vector_queries_match_the_canonical_scan_on_both_routes() {
        let m = model(30, 70);
        // With the sparse backend registered, the inverted index serves.
        let with_sparse = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        // Without it, the engine falls back to the canonical scan.
        let without = EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(BmmFactory)
            .build()
            .unwrap();
        let direct = MaximusIndex::brute_force(Arc::clone(&m)).query_all(5);
        for u in [0usize, 7, 29] {
            let request = VectorQueryRequest::dense(5, m.users().row(u).to_vec());
            let routed = with_sparse.execute_vector(&request).unwrap();
            let scanned = without.execute_vector(&request).unwrap();
            assert_eq!(routed.backend, "Sparse-II");
            assert_eq!(scanned.backend, "Blocked MM");
            assert!(!routed.planned && !scanned.planned);
            assert_eq!(routed.results.len(), 1);
            // Both routes are bit-identical to each other and to serving
            // the same vector as a stored user row.
            for response in [&routed, &scanned] {
                let got = &response.results[0];
                assert_eq!(got.items, direct[u].items, "user {u}");
                let gb: Vec<u64> = got.scores.iter().map(|s| s.to_bits()).collect();
                let wb: Vec<u64> = direct[u].scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(gb, wb, "score bits user {u}");
            }
        }
    }

    #[test]
    fn vector_queries_name_the_solver_that_served() {
        // Without `sparse`, the registered `bmm` solver's point lookup
        // serves under its own name — here a two-cluster MAXIMUS keyed
        // `bmm`, so the label proves which solver ran. An engine with
        // neither key runs the oracle scan.
        use crate::maximus::MaximusConfig;
        let m = model(30, 70);
        let keyed_bmm = EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(FnFactory::new("bmm", |m: &Arc<MfModel>| {
                let config = MaximusConfig {
                    num_clusters: 2,
                    ..MaximusConfig::default()
                };
                Ok(Box::new(MaximusIndex::build(Arc::clone(m), &config)) as Box<dyn MipsSolver>)
            }))
            .build()
            .unwrap();
        let neither = EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(LempFactory::default())
            .build()
            .unwrap();
        let query: Vec<f64> = (0..8).map(|j| (j as f64 * 0.7).cos()).collect();
        let want = exact_topk(&query, m.items(), 6);
        for (engine, backend) in [(&keyed_bmm, "Maximus"), (&neither, "Blocked MM")] {
            let request = VectorQueryRequest::dense(6, query.clone());
            let response = engine.execute_vector(&request).unwrap();
            assert_eq!(response.backend, backend);
            assert_eq!(response.results, std::slice::from_ref(&want), "{backend}");
        }
    }

    #[test]
    fn sparse_and_dense_vector_payloads_are_bit_identical() {
        use mips_data::sparse::SparseVec;
        let engine = engine(20, 50);
        // A mostly-zero query: the natural sparse-payload case.
        let mut dense = vec![0.0f64; 8];
        dense[1] = 0.75;
        dense[6] = -1.25;
        let via_dense = engine
            .execute_vector(&VectorQueryRequest::dense(4, dense.clone()))
            .unwrap();
        let via_sparse = engine
            .execute_vector(&VectorQueryRequest::sparse(
                4,
                SparseVec::from_dense(&dense),
            ))
            .unwrap();
        assert_eq!(via_dense.results, via_sparse.results);
        assert_eq!(via_dense.backend, via_sparse.backend);
    }

    #[test]
    fn vector_query_errors_are_typed() {
        let engine = engine(10, 20);
        assert_eq!(
            engine
                .execute_vector(&VectorQueryRequest::dense(0, vec![0.0; 8]))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: 20
            }
        );
        assert_eq!(
            engine
                .execute_vector(&VectorQueryRequest::dense(21, vec![0.0; 8]))
                .unwrap_err(),
            MipsError::InvalidK {
                k: 21,
                num_items: 20
            }
        );
        assert!(matches!(
            engine
                .execute_vector(&VectorQueryRequest::dense(3, vec![0.0; 5]))
                .unwrap_err(),
            MipsError::InvalidVector(_)
        ));
        let mut bad = vec![0.0f64; 8];
        bad[2] = f64::NAN;
        let err = engine
            .execute_vector(&VectorQueryRequest::dense(3, bad))
            .unwrap_err();
        assert!(matches!(err, MipsError::InvalidVector(_)));
        assert_eq!(err.http_status(), 400);
    }

    #[test]
    fn selections_come_back_in_request_order() {
        let engine = engine(30, 50);
        let all = engine.execute_with("bmm", &QueryRequest::top_k(3)).unwrap();
        let range = engine
            .execute_with("bmm", &QueryRequest::top_k(3).users_range(10..20))
            .unwrap();
        assert_eq!(range.results.len(), 10);
        assert_eq!(range.results[0], all.results[10]);
        let ids = engine
            .execute_with("bmm", &QueryRequest::top_k(3).users(vec![7, 2, 7]))
            .unwrap();
        assert_eq!(ids.results.len(), 3);
        assert_eq!(ids.results[0], ids.results[2]);
        assert_eq!(ids.results[1], all.results[2]);
    }

    #[test]
    fn threads_are_invisible_to_results() {
        let m = model(61, 40);
        let sequential = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let threaded = EngineBuilder::new()
            .model(m)
            .with_default_backends()
            .threads(4)
            .build()
            .unwrap();
        for request in [
            QueryRequest::top_k(4),
            QueryRequest::top_k(4).users_range(3..49),
            QueryRequest::top_k(4).users(vec![0, 60, 17, 17, 33]),
        ] {
            let a = sequential.execute_with("maximus", &request).unwrap();
            let b = threaded.execute_with("maximus", &request).unwrap();
            assert_eq!(a.results, b.results);
        }
    }

    #[test]
    fn exclusions_remove_rated_items_exactly() {
        let m = model(12, 25);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let baseline = engine.execute_with("bmm", &QueryRequest::top_k(6)).unwrap();
        // Exclude user 3's top two items and user 5's top item.
        let mut exclusions = ExclusionSet::new();
        exclusions.insert(3, baseline.results[3].items[0]);
        exclusions.insert(3, baseline.results[3].items[1]);
        exclusions.insert(5, baseline.results[5].items[0]);
        let request = QueryRequest::top_k(6).exclude(exclusions.clone());
        for key in BUILTIN_KEYS {
            let response = engine.execute_with(key, &request).unwrap();
            // Excluded items are gone, results still k-long and sorted.
            for (u, list) in response.results.iter().enumerate() {
                assert_eq!(list.len(), 6, "{key} user {u}");
                assert!(list.is_sorted() || list.len() < 2);
                for item in &list.items {
                    assert!(
                        !exclusions.for_user(u).contains(item),
                        "{key} user {u} still sees excluded item {item}"
                    );
                }
            }
            // User 3's filtered top-6 = unfiltered ranks 3..=8.
            let widened = engine.execute_with("bmm", &QueryRequest::top_k(8)).unwrap();
            assert_eq!(response.results[3].items, widened.results[3].items[2..8]);
            assert_eq!(
                response.results[5].items[..5],
                baseline.results[5].items[1..6]
            );
            // Untouched users are unchanged.
            assert_eq!(response.results[0].items, baseline.results[0].items);
        }
    }

    #[test]
    fn power_user_exclusions_stay_exact_without_widening_the_batch() {
        // One user excludes far more items than the bulk-widening cap
        // (32 for small k): the engine must re-serve that user individually
        // and still return the exact filtered top-k for everyone.
        let m = model(10, 100);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .with_default_backends()
            .build()
            .unwrap();
        let full = engine
            .execute_with("bmm", &QueryRequest::top_k(100))
            .unwrap();
        // User 4 excludes their top 50 items; user 6 excludes their top 2.
        let mut exclusions = ExclusionSet::new();
        for &item in &full.results[4].items[..50] {
            exclusions.insert(4, item);
        }
        exclusions.insert(6, full.results[6].items[0]);
        exclusions.insert(6, full.results[6].items[1]);
        let request = QueryRequest::top_k(4).exclude(exclusions);
        for key in BUILTIN_KEYS {
            let response = engine.execute_with(key, &request).unwrap();
            // Expected answers come straight off the full ranking.
            assert_eq!(
                response.results[4].items,
                full.results[4].items[50..54],
                "{key} power user"
            );
            assert_eq!(
                response.results[6].items,
                full.results[6].items[2..6],
                "{key} light user"
            );
            assert_eq!(
                response.results[0].items,
                full.results[0].items[..4],
                "{key} untouched user"
            );
        }
    }

    #[test]
    fn exclusions_near_catalog_size_shrink_results_without_error() {
        let m = model(4, 6);
        let engine = EngineBuilder::new()
            .model(m)
            .register(BmmFactory)
            .build()
            .unwrap();
        // Exclude all but one item for user 0 and ask for top-3: only one
        // item remains eligible.
        let exclusions = ExclusionSet::from_pairs((0..5u32).map(|i| (0usize, i)));
        let response = engine
            .execute_with("bmm", &QueryRequest::top_k(3).exclude(exclusions))
            .unwrap();
        assert_eq!(response.results[0].items, vec![5]);
        assert_eq!(response.results[1].len(), 3);
    }

    #[test]
    fn plans_are_cached_per_k_and_reused() {
        let engine = engine(120, 60);
        assert_eq!(engine.planner_runs(), 0);
        let first = engine.execute(&QueryRequest::top_k(5)).unwrap();
        assert!(first.planned);
        assert_eq!(engine.planner_runs(), 1);
        let second = engine
            .execute(&QueryRequest::top_k(5).users_range(0..40))
            .unwrap();
        assert_eq!(engine.planner_runs(), 1, "same k must not re-plan");
        assert_eq!(second.backend, first.backend);
        let _ = engine.execute(&QueryRequest::top_k(2)).unwrap();
        assert_eq!(engine.planner_runs(), 2, "new k plans once");
        let plan = engine.prepare(5).unwrap();
        assert_eq!(plan.planned_k(), 5);
        // The decision record lists every registered backend, raced or not.
        assert_eq!(plan.estimates().len(), engine.backend_keys().len());
        assert!(plan.sample_size() >= 2);
    }

    #[test]
    fn plan_for_returns_the_plan_a_request_takes() {
        let engine = engine(120, 60);
        let one_user = QueryRequest::top_k(4).users(vec![7]);
        let point = engine.plan_for(&one_user).unwrap();
        assert_eq!(engine.planner_runs(), 1);
        assert_eq!(point.planned_k(), 4);
        assert!(Arc::ptr_eq(&point, &engine.plan_for(&one_user).unwrap()));
        assert_eq!(engine.planner_runs(), 1, "the point plan is cached");
        // A whole-model request takes the bulk plan, which is `prepare`'s.
        let bulk = engine.plan_for(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(engine.planner_runs(), 2);
        assert!(!Arc::ptr_eq(&point, &bulk));
        assert!(Arc::ptr_eq(&bulk, &engine.prepare(4).unwrap()));
        // An invalid request fails as `execute` fails it, and plans nothing.
        for bad in [
            QueryRequest::top_k(0),
            QueryRequest::top_k(61),
            QueryRequest::top_k(4).users(vec![120]),
            QueryRequest::top_k(4).users(Vec::<usize>::new()),
        ] {
            let err = engine.plan_for(&bad).unwrap_err();
            assert_eq!(Some(err), engine.execute(&bad).err());
        }
        assert_eq!(engine.planner_runs(), 2);
    }

    #[test]
    fn planner_reference_is_the_batch_backend_regardless_of_registration_order() {
        // A point-query backend registered first must not become the
        // timing reference: the planner times the first batch-capable
        // backend first, on the whole sample. The record stays in
        // registration order.
        let engine = EngineBuilder::new()
            .model(model(120, 60))
            .register(FexiproFactory::si())
            .register(BmmFactory)
            .optimus(tiny_optimus())
            .build()
            .unwrap();
        let plan = engine.prepare(3).unwrap();
        let names: Vec<&str> = plan.estimates().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["FEXIPRO-SI", "Blocked MM"]);
        let bmm = &plan.estimates()[1];
        assert_eq!(bmm.outcome, CandidateOutcome::Sampled);
        assert_eq!(bmm.sampled_users, plan.sample_size());
        assert!(["bmm", "fexipro-si"].contains(&plan.backend_key()));
    }

    #[test]
    fn single_backend_engine_skips_sampling() {
        let engine = EngineBuilder::new()
            .model(model(20, 30))
            .register(BmmFactory)
            .build()
            .unwrap();
        let plan = engine.prepare(4).unwrap();
        assert_eq!(plan.sample_size(), 0);
        assert_eq!(plan.backend_key(), "bmm");
        assert!(plan.estimates().is_empty());
        let response = plan.execute(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(response.results.len(), 20);
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        let engine = engine(10, 20);
        let bad = [
            QueryRequest::top_k(0),
            QueryRequest::top_k(21),
            QueryRequest::top_k(usize::MAX),
            QueryRequest::top_k(3).users(vec![10]),
            QueryRequest::top_k(3).users(vec![0, usize::MAX]),
            QueryRequest::top_k(3).users(Vec::new()),
            QueryRequest::top_k(3).users_range(7..7),
            QueryRequest::top_k(3).users_range(8..12),
        ];
        for request in &bad {
            assert!(engine.execute(request).is_err(), "{request:?}");
            assert!(engine.execute_with("bmm", request).is_err(), "{request:?}");
        }
        assert_eq!(
            engine
                .execute_with("nope", &QueryRequest::top_k(1))
                .unwrap_err(),
            MipsError::UnknownBackend { key: "nope".into() }
        );
        assert_eq!(
            engine.prepare(0).unwrap_err(),
            MipsError::InvalidK {
                k: 0,
                num_items: 20
            }
        );
    }

    #[test]
    fn swap_model_installs_a_new_epoch_and_serves_it() {
        let a = model(30, 40);
        let b = Arc::new(synth_model(&SynthConfig {
            num_users: 30,
            num_items: 40,
            num_factors: 8,
            seed: 99,
            ..SynthConfig::default()
        }));
        let engine = EngineBuilder::new()
            .model(Arc::clone(&a))
            .register(BmmFactory)
            .build()
            .unwrap();
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.swap_count(), 0);
        let on_a = engine.execute(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(on_a.epoch, 0);

        let new_epoch = engine.swap_model(Arc::clone(&b)).unwrap();
        assert_eq!(new_epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.swap_count(), 1);
        let on_b = engine.execute(&QueryRequest::top_k(4)).unwrap();
        assert_eq!(on_b.epoch, 1);

        // The swapped engine serves exactly what a fresh engine on the new
        // model serves.
        let reference = EngineBuilder::new()
            .model(b)
            .register(BmmFactory)
            .build()
            .unwrap();
        assert_eq!(
            on_b.results,
            reference.execute(&QueryRequest::top_k(4)).unwrap().results
        );
        assert_ne!(on_a.results, on_b.results, "distinct models must differ");
    }

    #[test]
    fn swap_resizes_the_model_and_requests_validate_against_the_new_shape() {
        let engine = EngineBuilder::new()
            .model(model(20, 30))
            .register(BmmFactory)
            .build()
            .unwrap();
        engine
            .execute(&QueryRequest::top_k(2).users(vec![19]))
            .unwrap();
        engine.swap_model(model(8, 12)).unwrap();
        // User 19 and k = 30 existed on epoch 0 but not on epoch 1.
        assert!(matches!(
            engine.execute(&QueryRequest::top_k(2).users(vec![19])),
            Err(MipsError::UserOutOfRange { user: 19, .. })
        ));
        assert!(matches!(
            engine.execute(&QueryRequest::top_k(30)),
            Err(MipsError::InvalidK { k: 30, .. })
        ));
        assert_eq!(
            engine
                .execute(&QueryRequest::top_k(12))
                .unwrap()
                .results
                .len(),
            8
        );
    }

    #[test]
    fn inflight_plans_keep_serving_their_epoch_bit_identically() {
        let a = model(40, 50);
        let engine = EngineBuilder::new()
            .model(Arc::clone(&a))
            .register(BmmFactory)
            .build()
            .unwrap();
        let request = QueryRequest::top_k(5);
        let plan = engine.prepare(5).unwrap();
        let before = plan.execute(&request).unwrap();
        engine.swap_model(model(40, 50)).unwrap();
        // The held plan is pinned to epoch 0: same model, same results.
        assert_eq!(plan.epoch(), 0);
        let after = plan.execute(&request).unwrap();
        assert_eq!(after.results, before.results);
        assert_eq!(after.epoch, 0);
        // A fresh execute plans on the new epoch.
        assert_eq!(engine.execute(&request).unwrap().epoch, 1);
    }

    #[test]
    fn each_epoch_plans_once_and_old_epochs_are_reclaimed() {
        let engine = engine(60, 40);
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.planner_runs(), 1);
        let old_model = engine.model();
        let weak = Arc::downgrade(&old_model);
        drop(old_model);
        engine.swap_model(model(60, 40)).unwrap();
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.planner_runs(), 2, "the new epoch plans afresh");
        // Nothing still references epoch 0: its model, solvers, and plans
        // all dropped with the epoch.
        assert!(
            weak.upgrade().is_none(),
            "old epoch must be unreachable after the swap"
        );
    }

    #[test]
    fn swap_rejects_empty_models() {
        let engine = engine(10, 10);
        let empty = Arc::new(model(10, 10).with_users(&[]));
        assert_eq!(engine.swap_model(empty).unwrap_err(), MipsError::EmptyModel);
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn host_rates_are_process_constants_every_engine_shares() {
        use crate::optimus::cost::{sparse_updates_per_second, tier_flops_per_second};
        let rates = || -> Vec<u64> {
            let tiers = std::iter::once(None).chain(ScreenTier::ALL.map(Some));
            let mut rates: Vec<f64> = tiers.map(tier_flops_per_second).collect();
            rates.push(sparse_updates_per_second());
            assert!(rates.iter().all(|&rate| rate > 0.0), "{rates:?}");
            rates.into_iter().map(f64::to_bits).collect()
        };
        let first = rates();
        assert_eq!(rates(), first, "repeated reads are bit-equal");
        // Two engines planning under Auto (the tier-rate bounds) with the
        // sparse backend registered (its gate) read the same constants.
        for _ in 0..2 {
            let engine = EngineBuilder::new()
                .model(model(60, 40))
                .with_default_backends()
                .optimus(tiny_optimus())
                .precision(Precision::Auto)
                .build()
                .unwrap();
            engine.prepare(3).unwrap();
            assert_eq!(rates(), first);
        }
    }

    #[test]
    fn forced_f32_rescore_serves_bit_identically_and_reports_precision() {
        let m = model(40, 120);
        let f64_engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(BmmFactory)
            .build()
            .unwrap();
        let f32_engine = EngineBuilder::new()
            .model(Arc::clone(&m))
            .register(BmmFactory)
            .precision(Precision::F32Rescore)
            .build()
            .unwrap();
        let request = QueryRequest::top_k(5);
        let want = f64_engine.execute(&request).unwrap();
        let got = f32_engine.execute(&request).unwrap();
        assert_eq!(want.precision, Precision::F64);
        assert_eq!(got.precision, Precision::F32Rescore);
        assert_eq!(got.backend, "Blocked MM+f32");
        for (g, w) in got.results.iter().zip(&want.results) {
            assert_eq!(g.items, w.items);
            for (a, b) in g.scores.iter().zip(&w.scores) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The plan records the effective mode too.
        assert_eq!(
            f32_engine.prepare(5).unwrap().precision(),
            Precision::F32Rescore
        );
    }

    #[test]
    fn forced_f32_rescore_on_screenless_backend_degrades_to_f64() {
        // FEXIPRO and LEMP have no screen path, MAXIMUS none in f32: the
        // request is served f64-direct and the response says so.
        for (key, name) in [
            ("fexipro-si", "FEXIPRO-SI"),
            ("lemp", "LEMP"),
            ("maximus", "Maximus"),
        ] {
            let engine = EngineBuilder::new()
                .model(model(20, 40))
                .register_arc(builtin(key).unwrap())
                .precision(Precision::F32Rescore)
                .build()
                .unwrap();
            let response = engine.execute(&QueryRequest::top_k(3)).unwrap();
            assert_eq!(response.precision, Precision::F64, "{key}");
            assert_eq!(response.backend, name);
        }
    }

    #[test]
    fn a_backend_keyed_like_a_screen_variant_never_shares_its_cache_cell() {
        // A third-party backend may register under any key — including one
        // that looks like BMM's f32 screen. Solver cache cells are keyed by
        // the typed `(key, tier)` pair, so the two never alias,
        // whichever is built first.
        struct Stub(MaximusIndex);
        impl MipsSolver for Stub {
            fn name(&self) -> &str {
                "Stub"
            }
            fn build_seconds(&self) -> f64 {
                0.0
            }
            fn batches_users(&self) -> bool {
                true
            }
            fn num_users(&self) -> usize {
                self.0.num_users()
            }
            fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
                self.0.query_subset(k, users)
            }
        }
        let engine = EngineBuilder::new()
            .model(model(12, 30))
            .register(FnFactory::new("bmm+f32", |m: &Arc<MfModel>| {
                Ok(Box::new(Stub(MaximusIndex::brute_force(Arc::clone(m)))) as Box<dyn MipsSolver>)
            }))
            .register(BmmFactory)
            .precision(Precision::F32Rescore)
            .build()
            .unwrap();
        let request = QueryRequest::top_k(3);
        for _ in 0..2 {
            let stub = engine.execute_with("bmm+f32", &request).unwrap();
            assert_eq!(stub.backend, "Stub");
            let bmm = engine.execute_with("bmm", &request).unwrap();
            assert_eq!(bmm.backend, "Blocked MM+f32");
            assert_eq!(bmm.precision, Precision::F32Rescore);
        }
    }

    #[test]
    fn auto_mode_competes_screen_variants_as_extra_candidates() {
        let engine = EngineBuilder::new()
            .model(model(60, 80))
            .with_default_backends()
            .optimus(tiny_optimus())
            .precision(Precision::Auto)
            .build()
            .unwrap();
        let plan = engine.prepare(4).unwrap();
        // 6 registry backends + BMM's two screen tiers + MAXIMUS's int8
        // one: every one is on the record, whether the race built it or its
        // tier-rate bound excluded it first. No other variant is raced.
        assert_eq!(plan.estimates().len(), engine.registry().keys().len() + 3);
        for cut in ["LEMP+f32", "LEMP+i8", "Maximus+f32"] {
            assert!(
                plan.estimates().iter().all(|e| e.name != cut),
                "{cut} raced: {:?}",
                plan.estimates()
            );
        }
        for screened in ["Blocked MM+f32", "Blocked MM+i8", "Maximus+i8"] {
            let row = plan.estimates().iter().find(|e| e.name == screened);
            let row = row.unwrap_or_else(|| panic!("{screened} missing: {:?}", plan.estimates()));
            match row.outcome {
                CandidateOutcome::NotBuilt { bound_seconds } => {
                    assert_eq!(row.sampled_users, 0, "{screened}");
                    assert!(bound_seconds > 0.0, "{screened}");
                }
                CandidateOutcome::Sampled | CandidateOutcome::DemotedWithinMargin => {
                    assert_eq!(row.sampled_users, plan.sample_size(), "{screened}");
                }
                other => panic!("{screened}: a screen variant cannot be {other:?}"),
            }
        }
        // Whatever Auto picked, results match the pure-f64 engine's winner
        // item-for-item (scores are backend-reduction-specific, so compare
        // membership here; bit-identity per backend is covered elsewhere).
        let request = QueryRequest::top_k(4);
        let auto = plan.execute(&request).unwrap();
        let f64_engine = EngineBuilder::new()
            .model(model(60, 80))
            .register(BmmFactory)
            .build()
            .unwrap();
        let want = f64_engine.execute(&request).unwrap();
        for (g, w) in auto.results.iter().zip(&want.results) {
            assert_eq!(g.items, w.items);
        }
    }

    #[test]
    fn named_dispatch_under_forced_f32_uses_the_screen_variant() {
        let engine = EngineBuilder::new()
            .model(model(30, 90))
            .with_default_backends()
            .optimus(tiny_optimus())
            .precision(Precision::F32Rescore)
            .build()
            .unwrap();
        let request = QueryRequest::top_k(3);
        // Per key: what serves under forced f32. Backends without an f32
        // variant still answer, f64-direct.
        for (key, name, precision) in [
            ("bmm", "Blocked MM+f32", Precision::F32Rescore),
            ("maximus", "Maximus", Precision::F64),
            ("lemp", "LEMP", Precision::F64),
            ("fexipro-si", "FEXIPRO-SI", Precision::F64),
        ] {
            let response = engine.execute_with(key, &request).unwrap();
            assert_eq!(response.backend, name);
            assert_eq!(response.precision, precision, "{key}");
        }
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Arc::new(engine(50, 40));
        crate::sync::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let response = engine.execute(&QueryRequest::top_k(3)).unwrap();
                    assert_eq!(response.results.len(), 50);
                });
            }
        });
        // Concurrent first touches at one k may race the planner (builds
        // install compare-and-swap style rather than convoying behind one
        // lock), but the cache settles on a single plan...
        let racers = engine.planner_runs();
        assert!((1..=4).contains(&racers), "{racers} planner runs");
        // ...so a later execute at the same k never plans again.
        engine.execute(&QueryRequest::top_k(3)).unwrap();
        assert_eq!(engine.planner_runs(), racers);
    }
}
