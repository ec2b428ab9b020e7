//! Prepared query plans: OPTIMUS as the engine's query planner.
//!
//! Planning (racing lazily built candidate backends on a user sample — see
//! the `planner` module) is expensive relative to one request, so the
//! engine runs it once per `k` and traffic class
//! ([`TrafficClass`](crate::optimus::TrafficClass)) and caches the
//! decision, with its record, in a [`PreparedPlan`]. Subsequent requests
//! through the plan — or through [`super::Engine::execute`], which caches
//! plans internally — reuse the winning backend without re-sampling.

use super::error::MipsError;
use super::request::{QueryRequest, QueryResponse};
use crate::optimus::StrategyEstimate;
use crate::precision::Precision;
use crate::solver::MipsSolver;
use crate::sync::Arc;
use mips_data::MfModel;

/// A cached planning decision: the winning backend plus the evidence the
/// planner used to pick it. A plan is sampled over the whole model and its
/// winner serves any user.
pub struct PreparedPlan {
    pub(super) model: Arc<MfModel>,
    pub(super) winner: Arc<dyn MipsSolver>,
    pub(super) backend_key: String,
    pub(super) planned_k: usize,
    pub(super) threads: usize,
    /// The model epoch this plan was sampled on. The plan pins that
    /// epoch's model and solver, so it keeps serving bit-identically after
    /// an [`Engine::swap_model`](super::Engine::swap_model) — new plans are
    /// prepared lazily on the new epoch.
    pub(super) epoch: u64,
    /// The decision record: every registered backend × competed tier in
    /// registry order (each backend followed by its screen variants), raced
    /// or excluded; empty when a lone candidate needed no sampling.
    pub(super) estimates: Vec<StrategyEstimate>,
    pub(super) sample_size: usize,
    pub(super) decision_seconds: f64,
    /// The numeric mode the winning solver actually serves through. Under
    /// [`Precision::Auto`] this records the planner's per-plan decision;
    /// under a forced mode it records the effective value (a backend
    /// without a screen path reports [`Precision::F64`] even when
    /// `F32Rescore` was requested).
    pub(super) precision: Precision,
}

impl PreparedPlan {
    /// Registry key of the backend the planner chose.
    pub fn backend_key(&self) -> &str {
        &self.backend_key
    }

    /// Display name of the chosen backend's solver.
    pub fn backend_name(&self) -> &str {
        self.winner.name()
    }

    /// The `k` the plan was sampled at. Requests with other `k` values are
    /// still served (the decision generalizes), but the estimates below
    /// were measured at this `k`.
    pub fn planned_k(&self) -> usize {
        self.planned_k
    }

    /// The planner's **decision record**: one row per registered backend
    /// (and, under `Precision::Auto`, per screen variant of it — each
    /// backend followed by its variants), in registry order, whether the
    /// race sampled it or a bound excluded it before it was built. Every
    /// row carries its estimate and a
    /// [`CandidateOutcome`](crate::optimus::CandidateOutcome) saying which.
    /// Empty when the registry held a single backend and sampling was
    /// skipped.
    pub fn estimates(&self) -> &[StrategyEstimate] {
        &self.estimates
    }

    /// Users sampled to reach the decision (0 when sampling was skipped).
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// The model epoch the plan was prepared on (and serves from).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wall-clock seconds the planning phase spent sampling and deciding;
    /// the index builds it triggered are on the record, per candidate
    /// (`estimates()[i].build_seconds`).
    pub fn decision_seconds(&self) -> f64 {
        self.decision_seconds
    }

    /// The numeric mode the plan's winner serves through — the effective
    /// (per-plan, under `Auto`) precision decision. Results are
    /// bit-identical across modes; this is a performance annotation.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The chosen backend's solver, for direct (legacy-style) access.
    pub fn solver(&self) -> &dyn MipsSolver {
        self.winner.as_ref()
    }

    /// The model the plan serves (shared with the engine that prepared it).
    pub(crate) fn model(&self) -> &Arc<MfModel> {
        &self.model
    }

    /// Serves one request with the cached winning backend — no re-planning,
    /// no re-sampling.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, MipsError> {
        request.validate(&self.model)?;
        self.execute_prevalidated(request)
    }

    /// [`PreparedPlan::execute`] for callers that already validated the
    /// request against this plan's model (avoids a second validation scan).
    pub(super) fn execute_prevalidated(
        &self,
        request: &QueryRequest,
    ) -> Result<QueryResponse, MipsError> {
        super::serve(
            &self.model,
            self.winner.as_ref(),
            self.threads,
            request,
            true,
            self.epoch,
        )
    }
}

impl std::fmt::Debug for PreparedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedPlan")
            .field("backend_key", &self.backend_key)
            .field("planned_k", &self.planned_k)
            .field("epoch", &self.epoch)
            .field("sample_size", &self.sample_size)
            .field("decision_seconds", &self.decision_seconds)
            .field("precision", &self.precision)
            .finish()
    }
}
