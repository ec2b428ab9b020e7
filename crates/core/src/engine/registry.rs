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
//! A factory has one job, [`SolverFactory::build`]: the plain f64 solver
//! over a model. A backend's mixed-precision variants are derived from that
//! build by the solver itself ([`MipsSolver::screen_variant`]), and the
//! host's kernel rates the planner bounds candidates with are process
//! constants ([`crate::optimus::cost`]), so the registry holds its
//! factories and nothing else.

use super::error::MipsError;
use crate::adapters::{FexiproSolver, LempSolver, SparseSolver};
use crate::bmm::BmmSolver;
use crate::maximus::{MaximusConfig, MaximusIndex};
use crate::solver::MipsSolver;
use crate::sync::Arc;
use mips_data::MfModel;
use mips_fexipro::FexiproConfig;
use mips_lemp::LempConfig;

/// Builds solvers for one backend family.
///
/// Factories are cheap, immutable descriptions; index construction happens
/// in [`SolverFactory::build`] and is timed by the produced solver
/// (`MipsSolver::build_seconds`).
pub trait SolverFactory: Send + Sync {
    /// Stable registry key (`"bmm"`, `"maximus"`, `"lemp"`, …).
    fn key(&self) -> &str;

    /// Constructs the plain f64 solver over `model`; its screen variants
    /// come from it ([`MipsSolver::screen_variant`]).
    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError>;
}

/// A backend config's own `validate()` verdict as the engine's typed error:
/// the invariants live on the config, the factory only relays them.
fn config_checked(key: &str, config: &str, verdict: Result<(), String>) -> Result<(), MipsError> {
    verdict.map_err(|message| MipsError::BackendBuild {
        key: key.to_string(),
        message: format!("{config}: {message}"),
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
#[derive(Clone, Default)]
pub struct BackendRegistry {
    factories: Vec<Arc<dyn SolverFactory>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry::default()
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
    use mips_topk::ScreenTier;

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
        // The tiers each default backend offers: only those that served
        // plans. LEMP and the rest scan f64 only.
        let tiers_of = |key: &str| -> &[ScreenTier] {
            match key {
                "bmm" => &ScreenTier::ALL,
                "maximus" => &[ScreenTier::I8],
                _ => &[],
            }
        };
        let registry = BackendRegistry::with_defaults();
        let m = model();
        for factory in registry.factories() {
            let key = factory.key();
            let base = factory.build(&m).expect("plain build");
            assert_eq!(base.screen_tiers(), tiers_of(key), "{key}");
            for tier in ScreenTier::ALL {
                let has_screen = tiers_of(key).contains(&tier);
                match base.screen_variant(tier) {
                    None => assert!(!has_screen, "{key} lost its {tier:?} path"),
                    Some(screened) => {
                        assert!(has_screen, "{key} unexpectedly screens in {tier:?}");
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
