//! [`MipsSolver`] adapters for the LEMP, FEXIPRO, and sparse inverted-index
//! crates.
//!
//! Each index scores approximately — LEMP and FEXIPRO with the four-lane
//! `dot`, the sparse index with its postings accumulator — and finishes
//! every answer through the shared [`Shortlist`] rescore, so it returns the
//! answer [`mips_topk::exact_topk`] gives. An adapter hands the index the
//! model's item matrix and one shortlist per call.

use crate::solver::MipsSolver;
use crate::sync::Arc;
use mips_data::MfModel;
use mips_fexipro::{FexiproConfig, FexiproIndex, FexiproScratch, FexiproStats};
use mips_lemp::{LempConfig, LempIndex, QueryStats};
use mips_sparse::{InvertedIndex, SparseScratch};
use mips_topk::{Shortlist, TopKList};
use std::time::Instant;

/// LEMP behind the common solver interface.
pub struct LempSolver {
    model: Arc<MfModel>,
    index: LempIndex,
    build_seconds: f64,
}

impl LempSolver {
    /// Builds the LEMP index (bucketing + per-bucket tuning).
    pub fn build(model: Arc<MfModel>, config: &LempConfig) -> LempSolver {
        let start = Instant::now();
        let index = LempIndex::build(&model, config);
        let build_seconds = start.elapsed().as_secs_f64();
        LempSolver {
            model,
            index,
            build_seconds,
        }
    }
}

impl MipsSolver for LempSolver {
    fn name(&self) -> &str {
        "LEMP"
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        false // point queries: OPTIMUS may t-test LEMP
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let (user_rows, items) = (self.model.users(), self.model.items());
            let (mut list, mut stats) = (Shortlist::new(), QueryStats::default());
            distinct
                .iter()
                .map(|&u| {
                    let user = user_rows.row(u);
                    self.index.query_with(user, k, items, &mut list, &mut stats)
                })
                .collect()
        })
    }
}

/// FEXIPRO behind the common solver interface.
pub struct FexiproSolver {
    model: Arc<MfModel>,
    index: FexiproIndex,
    name: &'static str,
    build_seconds: f64,
}

impl FexiproSolver {
    /// Builds the FEXIPRO index (SVD, quantization); each query derives its
    /// own user-side state.
    pub fn build(model: Arc<MfModel>, config: &FexiproConfig) -> FexiproSolver {
        let start = Instant::now();
        let index = FexiproIndex::build(&model, config);
        let build_seconds = start.elapsed().as_secs_f64();
        let name = if config.enable_reduction {
            "FEXIPRO-SIR"
        } else {
            "FEXIPRO-SI"
        };
        FexiproSolver {
            model,
            index,
            name,
            build_seconds,
        }
    }
}

impl MipsSolver for FexiproSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        false // point queries: OPTIMUS may t-test FEXIPRO
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let (user_rows, items) = (self.model.users(), self.model.items());
            let mut scratch = FexiproScratch::default();
            let (mut list, mut stats) = (Shortlist::new(), FexiproStats::default());
            distinct
                .iter()
                .map(|&u| {
                    let user = user_rows.row(u);
                    self.index
                        .query(user, k, items, &mut scratch, &mut list, &mut stats)
                })
                .collect()
        })
    }
}

/// The sparse inverted-index backend behind the common solver interface —
/// the first non-scan access pattern in the registry. Exact (bit-identical
/// to BMM) via candidate screening plus canonical rescoring; see
/// [`mips_sparse`] for the pipeline and its envelope argument.
pub struct SparseSolver {
    model: Arc<MfModel>,
    index: InvertedIndex,
    build_seconds: f64,
}

impl SparseSolver {
    /// Builds the per-factor postings lists and hybrid-head dense panels.
    pub fn build(model: Arc<MfModel>) -> SparseSolver {
        let start = Instant::now();
        let index = InvertedIndex::build(model.items());
        let build_seconds = start.elapsed().as_secs_f64();
        SparseSolver {
            model,
            index,
            build_seconds,
        }
    }

    /// The wrapped index (for stats-aware benches and OPTIMUS costing).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Exact top-`k` for an ad-hoc dense query vector (not a stored user
    /// row) — the path behind [`crate::engine::Engine::execute_vector`].
    pub fn query_vector(&self, query: &[f64], k: usize) -> TopKList {
        self.index.query(query, k, self.model.items())
    }
}

impl MipsSolver for SparseSolver {
    fn name(&self) -> &str {
        "Sparse-II"
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        false // point queries: OPTIMUS may t-test the inverted index
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let items = self.model.items();
            let mut scratch = SparseScratch::new(items.rows());
            distinct
                .iter()
                .map(|&u| {
                    self.index
                        .query_with_scratch(self.model.users().row(u), k, items, &mut scratch)
                })
                .collect()
        })
    }

    fn query_vector(&self, query: &[f64], k: usize) -> Option<TopKList> {
        Some(SparseSolver::query_vector(self, query, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximus::MaximusIndex;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 20,
            num_items: 60,
            num_factors: 8,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn adapters_serve_bmm_answers_bit_for_bit() {
        let m = model();
        let bmm = MaximusIndex::brute_force(Arc::clone(&m));
        let solvers: Vec<Box<dyn MipsSolver>> = vec![
            Box::new(LempSolver::build(Arc::clone(&m), &LempConfig::default())),
            Box::new(FexiproSolver::build(Arc::clone(&m), &FexiproConfig::si())),
            Box::new(FexiproSolver::build(Arc::clone(&m), &FexiproConfig::sir())),
            Box::new(SparseSolver::build(Arc::clone(&m))),
        ];
        for k in [1, 4, 60, 61] {
            let want = bmm.query_all(k);
            for solver in &solvers {
                assert_eq!(solver.query_all(k), want, "{} k={k}", solver.name());
            }
        }
        // Ad-hoc vector queries run the sparse pipeline too.
        let sparse = SparseSolver::build(Arc::clone(&m));
        assert_eq!(sparse.name(), "Sparse-II");
        let got = sparse.query_vector(m.users().row(3), 5);
        assert_eq!(got, bmm.query_range(5, 3..4)[0]);
    }

    #[test]
    fn adapters_report_point_query_semantics() {
        let m = model();
        assert!(!LempSolver::build(Arc::clone(&m), &LempConfig::default()).batches_users());
        assert!(!SparseSolver::build(Arc::clone(&m)).batches_users());
        assert!(!FexiproSolver::build(m, &FexiproConfig::si()).batches_users());
    }

    #[test]
    fn build_time_is_recorded() {
        let m = model();
        let lemp = LempSolver::build(m, &LempConfig::default());
        assert!(lemp.build_seconds() >= 0.0);
        assert!(lemp.build_seconds() < 10.0);
    }
}
