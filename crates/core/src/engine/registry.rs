//! The open backend registry.
//!
//! The seed design hard-coded every solver in one `match` over a closed
//! enum; adding a backend meant editing `mips-core`. The registry inverts
//! that: a backend is anything implementing
//! [`SolverFactory`], registered under a string key. The built-in solvers
//! ship as factories ([`BmmFactory`], [`MaximusFactory`], [`LempFactory`],
//! [`FexiproFactory`]), and downstream crates can register their own with
//! [`FnFactory`] or a custom type — the planner treats all of them alike.
//!
//! A factory has two hooks: [`SolverFactory::build`] over the model, and
//! [`SolverFactory::build_screen`] for the mixed-precision variant in a
//! given [`ScreenTier`] (defaulted to "no such variant"), which is derived
//! from — and shares the construction of — the plain build it is handed.

use super::error::MipsError;
use crate::adapters::{FexiproSolver, LempSolver, SparseSolver};
use crate::bmm::BmmSolver;
use crate::maximus::{MaximusConfig, MaximusIndex};
use crate::optimus::cost::{AnalyticalBmmModel, AnalyticalSparseModel};
use crate::solver::MipsSolver;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use mips_data::MfModel;
use mips_fexipro::FexiproConfig;
use mips_lemp::LempConfig;
use mips_topk::ScreenTier;
use std::collections::HashMap;

/// Builds solvers for one backend family.
///
/// Factories are cheap, immutable descriptions; index construction happens
/// in [`SolverFactory::build`] and is timed by the produced solver
/// (`MipsSolver::build_seconds`).
pub trait SolverFactory: Send + Sync {
    /// Stable registry key (`"bmm"`, `"maximus"`, `"lemp"`, …).
    fn key(&self) -> &str;

    /// Constructs a solver over `model`.
    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError>;

    /// Constructs the mixed-precision variant of this backend in `tier`
    /// **from its plain build** — scans screen in `tier` with a
    /// conservative error envelope, survivors are rescored in f64, results
    /// stay bit-identical (see [`mips_topk::screen`]).
    ///
    /// `base` is the solver this factory's own [`SolverFactory::build`]
    /// produced over the same `model` (the engine hands it over from its
    /// epoch cache; `base.downcast_ref::<T>()` recovers the concrete type).
    /// The contract is **sharing**: the variant holds whatever `base`
    /// constructed — clusterings, sorted lists, gathered item copies —
    /// behind an `Arc` and adds only the tier's mirrors, so the
    /// construction exists once per epoch however many tiers are armed, and
    /// the variant's `build_seconds` is the mirroring alone. A factory whose
    /// plain build is free may ignore `base` and build over `model`.
    ///
    /// `None` (the default) means the backend has no screen path: the
    /// engine then serves it f64-direct under every
    /// [`Precision`](crate::precision::Precision) setting. `Some` for
    /// exactly the tiers `base` lists in [`MipsSolver::screen_tiers`]. A
    /// backend whose *model* cannot be mirrored in `tier` returns a solver
    /// serving the plain f64 path instead.
    fn build_screen(
        &self,
        _base: &dyn MipsSolver,
        _model: &Arc<MfModel>,
        _tier: ScreenTier,
    ) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        None
    }
}

/// A backend config's own `validate()` verdict as the engine's typed error:
/// the invariants live on the config, the factory only relays them.
fn config_checked(key: &str, config: &str, verdict: Result<(), String>) -> Result<(), MipsError> {
    verdict.map_err(|message| MipsError::BackendBuild {
        key: key.to_string(),
        message: format!("{config}: {message}"),
    })
}

/// Recovers a factory's own concrete solver from the `base` its
/// `build_screen` was handed; a foreign solver is a wiring error.
fn own_base<'a, T: MipsSolver>(key: &str, base: &'a dyn MipsSolver) -> Result<&'a T, MipsError> {
    base.downcast_ref().ok_or_else(|| MipsError::BackendBuild {
        key: key.to_string(),
        message: format!(
            "build_screen was handed `{}`, which this factory did not build",
            base.name()
        ),
    })
}

/// Factory for the brute-force blocked matrix multiply.
#[derive(Debug, Clone, Default)]
pub struct BmmFactory;

impl SolverFactory for BmmFactory {
    fn key(&self) -> &str {
        "bmm"
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        Ok(Box::new(BmmSolver::build(Arc::clone(model))))
    }

    fn build_screen(
        &self,
        _base: &dyn MipsSolver,
        model: &Arc<MfModel>,
        tier: ScreenTier,
    ) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        // Nothing to share: the plain build is free, and the tier's mirror
        // lives on the model, so every tier reuses one rounding pass anyway.
        let plain = BmmSolver::build(Arc::clone(model));
        Some(Ok(Box::new(plain.with_screen(tier))))
    }
}

/// Factory for the MAXIMUS index with a fixed configuration.
#[derive(Debug, Clone, Default)]
pub struct MaximusFactory {
    /// Index parameters used for every build.
    pub config: MaximusConfig,
}

impl MaximusFactory {
    /// A factory with the given parameters.
    pub fn new(config: MaximusConfig) -> MaximusFactory {
        MaximusFactory { config }
    }
}

impl SolverFactory for MaximusFactory {
    fn key(&self) -> &str {
        "maximus"
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        config_checked(self.key(), "MaximusConfig", self.config.validate())?;
        Ok(Box::new(MaximusIndex::build(
            Arc::clone(model),
            &self.config,
        )))
    }

    fn build_screen(
        &self,
        base: &dyn MipsSolver,
        _model: &Arc<MfModel>,
        tier: ScreenTier,
    ) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        Some(
            own_base::<MaximusIndex>(self.key(), base)
                .map(|index| Box::new(index.with_screen(tier)) as Box<dyn MipsSolver>),
        )
    }
}

/// Factory for the LEMP baseline with a fixed configuration.
#[derive(Debug, Clone, Default)]
pub struct LempFactory {
    /// Index parameters used for every build.
    pub config: LempConfig,
}

impl LempFactory {
    /// A factory with the given parameters.
    pub fn new(config: LempConfig) -> LempFactory {
        LempFactory { config }
    }
}

impl SolverFactory for LempFactory {
    fn key(&self) -> &str {
        "lemp"
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        config_checked(self.key(), "LempConfig", self.config.validate())?;
        Ok(Box::new(LempSolver::build(Arc::clone(model), &self.config)))
    }

    fn build_screen(
        &self,
        base: &dyn MipsSolver,
        _model: &Arc<MfModel>,
        tier: ScreenTier,
    ) -> Option<Result<Box<dyn MipsSolver>, MipsError>> {
        Some(
            own_base::<LempSolver>(self.key(), base)
                .map(|solver| Box::new(solver.with_screen(tier)) as Box<dyn MipsSolver>),
        )
    }
}

/// Factory for FEXIPRO; the key distinguishes the SI and SIR presets.
#[derive(Debug, Clone)]
pub struct FexiproFactory {
    key: &'static str,
    config: FexiproConfig,
}

impl FexiproFactory {
    /// SVD + integer pruning (the paper's FEXIPRO-SI).
    pub fn si() -> FexiproFactory {
        FexiproFactory {
            key: "fexipro-si",
            config: FexiproConfig::si(),
        }
    }

    /// All pruning stages (the paper's FEXIPRO-SIR).
    pub fn sir() -> FexiproFactory {
        FexiproFactory {
            key: "fexipro-sir",
            config: FexiproConfig::sir(),
        }
    }
}

impl SolverFactory for FexiproFactory {
    fn key(&self) -> &str {
        self.key
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        Ok(Box::new(FexiproSolver::build(
            Arc::clone(model),
            &self.config,
        )))
    }
}

/// Factory for the sparse inverted-index backend — the registry's first
/// non-scan access pattern.
#[derive(Debug, Clone, Default)]
pub struct SparseFactory;

impl SolverFactory for SparseFactory {
    fn key(&self) -> &str {
        "sparse"
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        Ok(Box::new(SparseSolver::build(Arc::clone(model))))
    }
}

/// Adapts a closure into a [`SolverFactory`] — the quickest way to register
/// a custom backend.
pub struct FnFactory<F> {
    key: String,
    build: F,
}

impl<F> FnFactory<F>
where
    F: Fn(&Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> + Send + Sync,
{
    /// A factory calling `build` under the given key.
    pub fn new(key: impl Into<String>, build: F) -> FnFactory<F> {
        FnFactory {
            key: key.into(),
            build,
        }
    }
}

impl<F> SolverFactory for FnFactory<F>
where
    F: Fn(&Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> + Send + Sync,
{
    fn key(&self) -> &str {
        &self.key
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        (self.build)(model)
    }
}

/// An ordered, key-unique set of backends.
///
/// Order matters: the planner times the first batch-capable backend on the
/// whole sample before anything else, then races the rest in registration
/// order against the running leader — so conventionally BMM registers
/// first.
///
/// The registry also owns the planner's **calibration cache**: the
/// sustained kernel rate of every numeric tier and of the sparse postings
/// walk, each measured once per SIMD kernel and shared (through clones of
/// the registry, and therefore across model epochs and shards) by every plan
/// — see [`BackendRegistry::analytical_tier`].
#[derive(Clone, Default)]
pub struct BackendRegistry {
    factories: Vec<Arc<dyn SolverFactory>>,
    /// Calibrated rates per `(kernel name, what)`. Behind an `Arc` so engine
    /// builders that clone the registry keep sharing one cache.
    calibration: Arc<Mutex<HashMap<(&'static str, Calibrated), f64>>>,
    /// How many real dense-kernel calibration measurements have run (tests
    /// assert the cache actually dedupes across epochs and shards).
    calibration_runs: Arc<AtomicU64>,
    /// Sparse calibration misses, counted apart: sparse calibration only
    /// runs when a sparse backend is actually planned, and tests pin the
    /// dense counter.
    sparse_calibration_runs: Arc<AtomicU64>,
}

/// What a calibration-cache entry measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Calibrated {
    /// The dense multiply kernel of a numeric tier (`None`: f64), FLOP/s.
    Tier(Option<ScreenTier>),
    /// The sparse postings walk, updates/s.
    Sparse,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry::default()
    }

    /// The calibrated analytical BMM cost model (the f64 multiply stage) —
    /// [`BackendRegistry::analytical_tier`] of the plain tier.
    pub fn analytical_bmm(&self) -> AnalyticalBmmModel {
        self.analytical_tier(None)
    }

    /// The calibrated cost model of `tier`'s dense scan kernel (`None`: the
    /// f64 GEMM; `Some`: the screen kernel of that tier) for the **active**
    /// SIMD kernel set, measuring on first use and caching the rate per
    /// `(kernel name, tier)`.
    ///
    /// A rate calibrated under one kernel must never be reused under
    /// another (the module docs of [`crate::optimus::cost`]), so the kernel
    /// name is part of the key; within one kernel the rate is a host
    /// property, not a model property, so epochs and shards all reuse the
    /// single measurement instead of re-timing a `256³` multiply on their
    /// first plan. The ratio of two tiers' rates is the planner's bound on
    /// what a screen variant can gain over its f64 base.
    pub fn analytical_tier(&self, tier: Option<ScreenTier>) -> AnalyticalBmmModel {
        let flops_per_second =
            self.calibrated(Calibrated::Tier(tier), &self.calibration_runs, || {
                AnalyticalBmmModel::calibrate_tier(tier).flops_per_second
            });
        AnalyticalBmmModel {
            flops_per_second,
            kernel: mips_linalg::simd::active().name(),
        }
    }

    /// The cached rate of `what` under the active kernel, measured with
    /// `measure` (and counted in `runs`) on a miss.
    fn calibrated(&self, what: Calibrated, runs: &AtomicU64, measure: impl FnOnce() -> f64) -> f64 {
        let kernel = mips_linalg::simd::active().name();
        // Calibration is a few milliseconds; holding the lock dedupes
        // concurrent first callers onto one measurement.
        let mut cache = super::lock_recovering(&self.calibration);
        *cache.entry((kernel, what)).or_insert_with(|| {
            runs.fetch_add(1, Ordering::Relaxed);
            measure()
        })
    }

    /// How many dense-kernel calibration measurements
    /// [`BackendRegistry::analytical_tier`] has actually run (cache misses).
    pub fn calibration_runs(&self) -> u64 {
        self.calibration_runs.load(Ordering::Relaxed)
    }

    /// The calibrated analytical cost model of the sparse inverted-index
    /// accumulation loop, cached per kernel name like
    /// [`BackendRegistry::analytical_tier`].
    pub fn analytical_sparse(&self) -> AnalyticalSparseModel {
        let updates_per_second =
            self.calibrated(Calibrated::Sparse, &self.sparse_calibration_runs, || {
                AnalyticalSparseModel::calibrate().updates_per_second
            });
        AnalyticalSparseModel {
            updates_per_second,
            kernel: mips_linalg::simd::active().name(),
        }
    }

    /// Cache misses of [`BackendRegistry::analytical_sparse`].
    pub fn sparse_calibration_runs(&self) -> u64 {
        self.sparse_calibration_runs.load(Ordering::Relaxed)
    }

    /// The registry of all built-in backends with default parameters:
    /// `bmm`, `maximus`, `lemp`, `fexipro-si`, `fexipro-sir`, `sparse`.
    pub fn with_defaults() -> BackendRegistry {
        let mut registry = BackendRegistry::new();
        registry
            .register(Arc::new(BmmFactory))
            .and_then(|r| r.register(Arc::new(MaximusFactory::default())))
            .and_then(|r| r.register(Arc::new(LempFactory::default())))
            .and_then(|r| r.register(Arc::new(FexiproFactory::si())))
            .and_then(|r| r.register(Arc::new(FexiproFactory::sir())))
            .and_then(|r| r.register(Arc::new(SparseFactory)))
            .expect("default keys are unique");
        registry
    }

    /// Registers a backend; fails on a duplicate key.
    pub fn register(
        &mut self,
        factory: Arc<dyn SolverFactory>,
    ) -> Result<&mut BackendRegistry, MipsError> {
        if self.get(factory.key()).is_some() {
            return Err(MipsError::DuplicateBackend {
                key: factory.key().to_string(),
            });
        }
        self.factories.push(factory);
        Ok(self)
    }

    /// Looks a backend up by key.
    pub fn get(&self, key: &str) -> Option<&Arc<dyn SolverFactory>> {
        self.factories.iter().find(|f| f.key() == key)
    }

    /// Registered keys, in registration order.
    pub fn keys(&self) -> Vec<&str> {
        self.factories.iter().map(|f| f.key()).collect()
    }

    /// The factories, in registration order.
    pub fn factories(&self) -> &[Arc<dyn SolverFactory>] {
        &self.factories
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("keys", &self.keys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 12,
            num_items: 30,
            num_factors: 6,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn defaults_cover_all_builtins_in_order() {
        let registry = BackendRegistry::with_defaults();
        assert_eq!(
            registry.keys(),
            vec![
                "bmm",
                "maximus",
                "lemp",
                "fexipro-si",
                "fexipro-sir",
                "sparse"
            ]
        );
        let m = model();
        for factory in registry.factories() {
            let solver = factory.build(&m).expect("builtin builds");
            assert_eq!(solver.num_users(), 12);
            assert_eq!(solver.query_all(2).len(), 12);
        }
    }

    #[test]
    fn screen_builds_cover_the_scan_backends_and_stay_bit_identical() {
        let registry = BackendRegistry::with_defaults();
        let m = model();
        for tier in ScreenTier::ALL {
            for factory in registry.factories() {
                let key = factory.key();
                let has_screen = matches!(key, "bmm" | "maximus" | "lemp");
                let base = factory.build(&m).expect("plain build");
                assert_eq!(
                    base.screen_tiers().contains(&tier),
                    has_screen,
                    "{key} advertises what build_screen delivers"
                );
                match factory.build_screen(base.as_ref(), &m, tier) {
                    None => assert!(!has_screen, "{key} lost its {tier:?} path"),
                    Some(built) => {
                        assert!(has_screen, "{key} unexpectedly screens in {tier:?}");
                        let screened = built.expect("screen build");
                        assert_eq!(
                            screened.precision(),
                            crate::precision::Precision::of_tier(Some(tier)),
                            "{key}"
                        );
                        assert_eq!(screened.name(), format!("{}{}", base.name(), tier.suffix()));
                        let want = base.query_all(3);
                        let got = screened.query_all(3);
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g.items, w.items, "{key} {tier:?}");
                            for (a, b) in g.scores.iter().zip(&w.scores) {
                                assert_eq!(a.to_bits(), b.to_bits(), "{key} {tier:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn analytical_bmm_calibrates_once_per_kernel_and_shares_across_clones() {
        let registry = BackendRegistry::with_defaults();
        assert_eq!(registry.calibration_runs(), 0);
        let first = registry.analytical_bmm();
        assert_eq!(registry.calibration_runs(), 1);
        assert!(first.flops_per_second > 0.0);
        // Second call (and calls through a clone — the engine builder
        // clones the registry) reuse the measurement.
        let clone = registry.clone();
        let again = clone.analytical_bmm();
        assert_eq!(registry.calibration_runs(), 1);
        assert_eq!(clone.calibration_runs(), 1);
        assert_eq!(again.flops_per_second, first.flops_per_second);
        assert_eq!(again.kernel, first.kernel);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let mut registry = BackendRegistry::with_defaults();
        let err = registry.register(Arc::new(BmmFactory)).unwrap_err();
        assert_eq!(err, MipsError::DuplicateBackend { key: "bmm".into() });
    }

    #[test]
    fn fn_factory_registers_custom_backends() {
        let mut registry = BackendRegistry::new();
        registry
            .register(Arc::new(FnFactory::new(
                "custom-bmm",
                |m: &Arc<MfModel>| {
                    Ok(Box::new(crate::bmm::BmmSolver::build(Arc::clone(m)))
                        as Box<dyn MipsSolver>)
                },
            )))
            .unwrap();
        assert_eq!(registry.keys(), vec!["custom-bmm"]);
        let solver = registry.get("custom-bmm").unwrap().build(&model()).unwrap();
        assert_eq!(solver.name(), "Blocked MM");
    }
}
