//! The LEMP index: build, tune, query.

use crate::bucket::{build_buckets, Bucket};
use crate::config::LempConfig;
use crate::scan::{inflate, scan_bucket, RetrievalAlgo, ScanStats, UserCtx};
use crate::tuner::tune_buckets;
use mips_data::{is_tiny_row, MfModel};
use mips_linalg::{simd, Matrix};
use mips_topk::{exact_topk, Shortlist, TopKHeap, TopKList};

/// Cumulative work counters for a sequence of queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Buckets actually scanned (not skipped by the bucket norm bound).
    pub buckets_visited: u64,
    /// Buckets skipped or cut off by the global norm bound.
    pub buckets_skipped: u64,
    /// Per-item counters from the scans.
    pub scan: ScanStats,
}

/// A built LEMP index over one model's item matrix: the norm-sorted
/// buckets and their tuned retrieval algorithms.
///
/// Point-query oriented, like the original system: [`LempIndex::query`]
/// serves one user at a time (the property that lets OPTIMUS apply its
/// incremental t-test to LEMP, §IV-A). A query takes the item matrix the
/// index was built over, reads the survivors' rows from it by id for the
/// chain rescore, and returns the oracle's answer
/// ([`mips_topk::exact_topk`]).
///
/// `bounded` is `false` over a model with tiny rows
/// ([`MfModel::has_tiny_rows`]), whose norms neither the bounds nor the
/// rescore envelope can trust: every item is scored with the chain.
#[derive(Debug, Clone)]
pub struct LempIndex {
    buckets: Vec<Bucket>,
    algos: Vec<RetrievalAlgo>,
    checkpoint: usize,
    num_factors: usize,
    bounded: bool,
}

impl LempIndex {
    /// Builds the index over the model's items and tunes per-bucket
    /// retrieval on a sample of the model's users.
    ///
    /// # Panics
    /// Panics on a configuration [`LempConfig::validate`] rejects.
    pub fn build(model: &MfModel, config: &LempConfig) -> LempIndex {
        config.validate().expect("a valid LempConfig");
        let f = model.num_factors();
        let checkpoint = ((f as f64 * config.checkpoint_fraction).round() as usize).clamp(1, f);
        let buckets = build_buckets(model.items(), config.bucket_size, checkpoint);
        let algos = tune_buckets(
            &buckets,
            model.users(),
            checkpoint,
            config.tune_sample,
            config.tune_k,
            config.seed,
        );
        LempIndex {
            buckets,
            algos,
            checkpoint,
            num_factors: f,
            bounded: !model.has_tiny_rows(),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The tuned per-bucket algorithms (exposed for the ablation bench).
    pub fn algorithms(&self) -> &[RetrievalAlgo] {
        &self.algos
    }

    /// Top-k for one user vector; `items` is the matrix the index was built
    /// over.
    ///
    /// # Panics
    /// Panics if the user dimensionality does not match the index.
    pub fn query(&self, user: &[f64], k: usize, items: &Matrix<f64>) -> TopKList {
        let mut stats = QueryStats::default();
        self.query_with(user, k, items, &mut Shortlist::new(), &mut stats)
    }

    /// [`LempIndex::query`] through the caller's `list`, reused across the
    /// users of one call, accumulating work counters into `stats`. A tiny
    /// `user` ([`is_tiny_row`]), whose norm bounds nothing, scores every
    /// item with the chain.
    pub fn query_with(
        &self,
        user: &[f64],
        k: usize,
        items: &Matrix<f64>,
        list: &mut Shortlist,
        stats: &mut QueryStats,
    ) -> TopKList {
        assert_eq!(
            (user.len(), items.cols()),
            (self.num_factors, self.num_factors),
            "LempIndex::query: user dimensionality mismatch"
        );
        if !self.bounded || is_tiny_row(user) {
            stats.scan.dots_computed += items.rows() as u64;
            return exact_topk(user, items, k);
        }
        let ctx = UserCtx::new(user, self.checkpoint);
        let mut heap = TopKHeap::new(k);
        list.begin(&heap);
        for (b, bucket) in self.buckets.iter().enumerate() {
            // Buckets descend in max norm: once even the best possible score
            // in this bucket cannot reach the threshold, later buckets can't
            // either.
            if list.is_full() && inflate(ctx.norm * bucket.max_norm) < list.threshold() {
                stats.buckets_skipped += (self.buckets.len() - b) as u64;
                break;
            }
            stats.buckets_visited += 1;
            scan_bucket(self.algos[b], bucket, &ctx, list, &mut stats.scan);
        }
        list.finish(simd::active(), user, items.into(), &mut heap);
        heap.into_sorted()
    }

    /// Top-k for every user in the model, one point query at a time.
    pub fn query_all(&self, model: &MfModel, k: usize) -> Vec<TopKList> {
        let (mut list, mut stats) = (Shortlist::new(), QueryStats::default());
        let (users, items) = (model.users(), model.items());
        (0..model.num_users())
            .map(|u| self.query_with(users.row(u), k, items, &mut list, &mut stats))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_topk::exact_topk;

    fn model(skew: f64) -> MfModel {
        synth_model(&SynthConfig {
            num_users: 60,
            num_items: 400,
            num_factors: 16,
            item_norm_skew: skew,
            seed: 77,
            ..SynthConfig::default()
        })
    }

    /// The answer for user `u`.
    fn served(index: &LempIndex, m: &MfModel, u: usize, k: usize) -> TopKList {
        index.query(m.users().row(u), k, m.items())
    }

    #[test]
    fn answers_are_the_oracle_answers() {
        let m = model(0.8);
        let index = LempIndex::build(&m, &LempConfig::default());
        for k in [1usize, 5, 17] {
            for u in (0..m.num_users()).step_by(7) {
                let want = exact_topk(m.users().row(u), m.items(), k);
                assert_eq!(served(&index, &m, u, k), want, "k={k} u={u}");
            }
        }
    }

    #[test]
    fn skewed_norms_enable_bucket_skipping() {
        let m = model(1.3);
        let index = LempIndex::build(&m, &LempConfig::default());
        let (mut list, mut stats) = (Shortlist::new(), QueryStats::default());
        for u in 0..m.num_users() {
            let _ = index.query_with(m.users().row(u), 3, m.items(), &mut list, &mut stats);
        }
        assert!(
            stats.buckets_skipped > 0,
            "no buckets skipped on heavily skewed norms"
        );
        let visited_items = stats.scan.dots_computed + stats.scan.incr_pruned;
        let total_items = (m.num_items() * m.num_users()) as u64;
        assert!(
            visited_items < total_items,
            "index did no better than brute force"
        );
    }

    #[test]
    fn k_larger_than_item_count() {
        let m = synth_model(&SynthConfig {
            num_users: 3,
            num_items: 5,
            num_factors: 4,
            ..SynthConfig::default()
        });
        let index = LempIndex::build(&m, &LempConfig::default());
        let got = index.query(m.users().row(0), 50, m.items());
        assert_eq!(got.len(), 5);
        assert!(got.is_sorted());
    }

    #[test]
    fn k_zero_returns_empty() {
        let m = model(0.5);
        let index = LempIndex::build(&m, &LempConfig::default());
        assert!(index.query(m.users().row(0), 0, m.items()).is_empty());
    }

    #[test]
    fn query_all_matches_individual_queries() {
        let m = model(0.5);
        let index = LempIndex::build(&m, &LempConfig::default());
        let all = index.query_all(&m, 4);
        assert_eq!(all.len(), m.num_users());
        for u in (0..m.num_users()).step_by(11) {
            assert_eq!(all[u], served(&index, &m, u, 4));
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_wrong_width_user() {
        let m = model(0.5);
        let index = LempIndex::build(&m, &LempConfig::default());
        let _ = index.query(&[1.0, 2.0], 3, m.items());
    }

    #[test]
    fn single_bucket_configuration_works() {
        let m = model(0.5);
        let index = LempIndex::build(
            &m,
            &LempConfig {
                bucket_size: 10_000,
                ..LempConfig::default()
            },
        );
        assert_eq!(index.num_buckets(), 1);
        let want = exact_topk(m.users().row(0), m.items(), 3);
        assert_eq!(served(&index, &m, 0, 3), want);
    }
}
