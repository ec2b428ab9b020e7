//! The LEMP index: build, tune, query.

use crate::bucket::{build_buckets, Bucket};
use crate::config::LempConfig;
use crate::scan::{inflate, scan_bucket, RetrievalAlgo, ScanStats, UserCtx};
use crate::tuner::tune_buckets;
use mips_data::MfModel;
use mips_topk::{TopKHeap, TopKList};

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
/// incremental t-test to LEMP, §IV-A).
#[derive(Debug, Clone)]
pub struct LempIndex {
    buckets: Vec<Bucket>,
    algos: Vec<RetrievalAlgo>,
    checkpoint: usize,
    num_factors: usize,
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

    /// Top-k for one user vector.
    ///
    /// # Panics
    /// Panics if the user dimensionality does not match the index.
    pub fn query(&self, user: &[f64], k: usize) -> TopKList {
        let mut stats = QueryStats::default();
        self.query_with_stats(user, k, &mut stats)
    }

    /// Top-k for one user, accumulating work counters into `stats`.
    pub fn query_with_stats(&self, user: &[f64], k: usize, stats: &mut QueryStats) -> TopKList {
        assert_eq!(
            user.len(),
            self.num_factors,
            "LempIndex::query: user dimensionality mismatch"
        );
        let ctx = UserCtx::new(user, self.checkpoint);
        let mut heap = TopKHeap::new(k);
        for (b, bucket) in self.buckets.iter().enumerate() {
            // Buckets descend in max norm: once even the best possible score
            // in this bucket cannot enter the heap, later buckets can't
            // either.
            if heap.is_full() && inflate(ctx.norm * bucket.max_norm) < heap.threshold() {
                stats.buckets_skipped += (self.buckets.len() - b) as u64;
                break;
            }
            stats.buckets_visited += 1;
            scan_bucket(self.algos[b], bucket, &ctx, &mut heap, &mut stats.scan);
        }
        heap.into_sorted()
    }

    /// Top-k for every user in the model, one point query at a time.
    pub fn query_all(&self, model: &MfModel, k: usize) -> Vec<TopKList> {
        (0..model.num_users())
            .map(|u| self.query(model.users().row(u), k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_topk::{canonicalize, exact_topk};

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

    /// The canonicalized answer for user `u` — what the solver serves.
    fn served(index: &LempIndex, m: &MfModel, u: usize, k: usize) -> TopKList {
        let user = m.users().row(u);
        canonicalize(index.query(user, k), user, m.items())
    }

    #[test]
    fn canonicalized_answers_are_the_oracle_answers() {
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
        let mut stats = QueryStats::default();
        for u in 0..m.num_users() {
            let _ = index.query_with_stats(m.users().row(u), 3, &mut stats);
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
        let got = index.query(m.users().row(0), 50);
        assert_eq!(got.len(), 5);
        assert!(got.is_sorted());
    }

    #[test]
    fn k_zero_returns_empty() {
        let m = model(0.5);
        let index = LempIndex::build(&m, &LempConfig::default());
        assert!(index.query(m.users().row(0), 0).is_empty());
    }

    #[test]
    fn query_all_matches_individual_queries() {
        let m = model(0.5);
        let index = LempIndex::build(&m, &LempConfig::default());
        let all = index.query_all(&m, 4);
        assert_eq!(all.len(), m.num_users());
        for u in (0..m.num_users()).step_by(11) {
            assert_eq!(all[u], index.query(m.users().row(u), 4));
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_wrong_width_user() {
        let m = model(0.5);
        let index = LempIndex::build(&m, &LempConfig::default());
        let _ = index.query(&[1.0, 2.0], 3);
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
