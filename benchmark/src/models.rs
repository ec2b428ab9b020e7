//! The benchmark's two model shapes and the engine/server settings every
//! workload shares. Knobs are copied from the catalog's Netflix-BPR and
//! GloVe stand-ins at four times their size; the seed is always the run's
//! `--seed`, never a catalog constant.

use optimus_maximus::core::precision::Precision;
use optimus_maximus::prelude::*;
use std::sync::Arc;

/// The k of every single-user request: the serve-burst traffic's main k and the
/// point-lookup probes'.
pub const POINT_K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 14400 × 5200 × f 50, flat item norms, loose user bundles: brute-force
    /// territory; the 2 MB item block fits in cache.
    Dense,
    /// 2800 × 22400 × f 100, direction-clustered users, skewed item norms:
    /// index territory; the 18 MB item block does not fit in L2.
    Clustered,
}

/// How one run was asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    pub trace: bool,
    /// Eighth-size models: a functional check, not a measurement.
    pub smoke: bool,
}

impl Shape {
    pub fn synth_config(self, seed: u64, smoke: bool) -> SynthConfig {
        let shrink = if smoke { 8 } else { 1 };
        match self {
            Shape::Dense => SynthConfig {
                num_users: 14400 / shrink,
                num_items: 5200 / shrink,
                num_factors: 50,
                seed,
                user_clusters: 6,
                user_spread: 1.30,
                item_norm_skew: 0.08,
                spectral_decay: 1.00,
            },
            Shape::Clustered => SynthConfig {
                num_users: 2800 / shrink,
                num_items: 22400 / shrink,
                num_factors: 100,
                seed,
                user_clusters: 10,
                user_spread: 0.28,
                item_norm_skew: 0.45,
                spectral_decay: 0.92,
            },
        }
    }
}

/// Rebuilds `model` from copies of its factor matrices, the way a loader
/// hands freshly read factors to the library. The copy is the caller's
/// input and is made before the clock starts; `MfModel::new` is timed.
pub fn fresh_copy(model: &MfModel) -> impl FnOnce() -> Arc<MfModel> {
    let (users, items) = (model.users().clone(), model.items().clone());
    let name = model.name().to_string();
    move || Arc::new(MfModel::new(name, users, items).expect("generated factors are finite"))
}

/// The engine every workload serves from: all default backends, the planner
/// free to pick the numeric tier, one serving thread.
pub fn engine_builder(model: Arc<MfModel>) -> EngineBuilder {
    EngineBuilder::new()
        .model(model)
        .with_default_backends()
        .precision(Precision::Auto)
        .threads(1)
}

/// The serving runtime of serve-burst and the probes: two shards, two workers,
/// everything else default.
pub fn server(engine: Arc<Engine>) -> Arc<MipsServer> {
    Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .shards(2)
            .workers(2)
            .build()
            .expect("server assembles"),
    )
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

/// Which backend the planner picked for each `k`, over a run's fresh
/// engines: the raw material of `optimus.plan_flips` and
/// `optimus.bmm_share`.
#[derive(Default)]
pub struct PlanLog(Vec<(usize, String)>);

impl PlanLog {
    /// Reads the cached plan for `k` off an engine that has served `k`.
    pub fn record(&mut self, engine: &Engine, k: usize) -> Arc<PreparedPlan> {
        let plan = engine.prepare(k).expect("k was already served");
        self.0.push((k, plan.backend_key().to_string()));
        plan
    }

    /// Σₖ (distinct winners at k − 1): 0 when every fresh engine agreed.
    pub fn flips(&self) -> f64 {
        let mut pairs: Vec<&(usize, String)> = self.0.iter().collect();
        pairs.sort();
        pairs.dedup();
        let mut ks: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        ks.dedup();
        (pairs.len() - ks.len()) as f64
    }

    /// Share of plans won by brute force, at any numeric tier.
    pub fn bmm_share(&self) -> f64 {
        let bmm = self
            .0
            .iter()
            .filter(|(_, key)| key.starts_with("bmm"))
            .count();
        bmm as f64 / self.0.len().max(1) as f64
    }

    /// Every recorded winner as `k=<k>:<backend>`, in the order recorded.
    fn labels(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(k, key)| format!("k={k}:{key}"))
            .collect()
    }

    /// The winners system by system.
    pub fn in_order(&self) -> String {
        self.labels().join(" ")
    }

    /// The distinct winners.
    pub fn describe(&self) -> String {
        let mut pairs = self.labels();
        pairs.sort();
        pairs.dedup();
        pairs.join(" ")
    }
}
