//! Multi-core serving by user partitioning (the Fig. 6 experiment).
//!
//! Every solver in this repository is immutable after construction, so the
//! paper's observation applies directly: "because both indexes are
//! read-only, a simple partitioning scheme across users proves to be an
//! effective parallelization strategy". Users are split into contiguous
//! ranges, one per thread, served independently, and concatenated.
//!
//! Scratch discipline: each worker invokes the solver's `query_range` /
//! `query_subset` once for its whole chunk, and the solvers allocate their
//! GEMM/score scratch *inside* those calls — so every thread owns exactly
//! one scratch set for its entire partition, with no sharing, no locking,
//! and no per-block allocation. The SIMD kernel selection
//! ([`mips_linalg::simd::active`]) is process-wide and read-only, so all
//! workers run the same kernel set.

use crate::solver::MipsSolver;
use mips_topk::TopKList;
use std::ops::Range;

/// Splits `0..n` positions into `min(parts, n)` contiguous chunks whose
/// sizes differ by at most one (the longer ones first); `n == 0` yields no
/// chunks.
///
/// This is the partitioning rule for both the thread-per-chunk multi-core
/// path below and the [`crate::serve`] runtime's cut of a request too large
/// for one micro-batch, so the two layers agree on where boundaries fall.
pub fn chunk_bounds(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let end = start + n / parts + usize::from(i < n % parts);
            let chunk = start..end;
            start = end;
            chunk
        })
        .collect()
}

/// Serves a contiguous user range with `threads` worker threads,
/// partitioning the range evenly. `threads = 1` degenerates to a plain
/// sequential call. This is the multi-core path the engine routes through
/// when [`crate::engine::EngineOptions::threads`] exceeds one.
///
/// # Panics
/// Panics if `threads == 0` (the engine validates this at build time and
/// returns a typed error instead).
pub fn par_query_range(
    solver: &dyn MipsSolver,
    k: usize,
    users: Range<usize>,
    threads: usize,
) -> Vec<TopKList> {
    assert!(threads > 0, "par_query_range: threads must be > 0");
    let n = users.len();
    if threads == 1 || n == 0 {
        return solver.query_range(k, users);
    }
    let base = users.start;
    let mut out: Vec<TopKList> = Vec::with_capacity(n);
    crate::sync::thread::scope(|scope| {
        let handles: Vec<_> = chunk_bounds(n, threads)
            .into_iter()
            .map(|r| scope.spawn(move || solver.query_range(k, base + r.start..base + r.end)))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("worker thread panicked"));
        }
    });
    out
}

/// Serves an explicit user id list with `threads` worker threads,
/// partitioning positions evenly; results come back in input order.
///
/// Repeated ids are deduplicated *before* chunking, so a user repeated
/// across the list is queried once in total — not once per worker chunk —
/// and the result is fanned back out to every occurrence.
///
/// # Panics
/// Panics if `threads == 0` (the engine validates this at build time).
pub fn par_query_subset(
    solver: &dyn MipsSolver,
    k: usize,
    users: &[usize],
    threads: usize,
) -> Vec<TopKList> {
    assert!(threads > 0, "par_query_subset: threads must be > 0");
    if threads == 1 || users.is_empty() {
        return solver.query_subset(k, users);
    }
    crate::solver::dedup_query_subset(users, |distinct| {
        let mut out: Vec<TopKList> = Vec::with_capacity(distinct.len());
        crate::sync::thread::scope(|scope| {
            let handles: Vec<_> = chunk_bounds(distinct.len(), threads)
                .into_iter()
                .map(|r| scope.spawn(move || solver.query_subset(k, &distinct[r])))
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("worker thread panicked"));
            }
        });
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximus::{MaximusConfig, MaximusIndex};
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};

    #[test]
    fn chunk_bounds_cut_min_parts_n_balanced_chunks() {
        assert_eq!(chunk_bounds(10, 3), [0..4, 4..7, 7..10]);
        assert_eq!(chunk_bounds(9, 4), [0..3, 3..5, 5..7, 7..9]);
        assert_eq!(chunk_bounds(3, 8), [0..1, 1..2, 2..3]);
        assert_eq!(chunk_bounds(5, 0), vec![0..5]);
        assert!(chunk_bounds(0, 4).is_empty());
    }

    fn model(users: usize) -> Arc<mips_data::MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: 64,
            num_factors: 8,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn parallel_equals_sequential_for_bmm() {
        let m = model(101); // odd size: uneven final chunk
        let solver = MaximusIndex::brute_force(m);
        let seq = solver.query_all(4);
        for threads in [1usize, 2, 3, 8, 200] {
            let par = par_query_range(&solver, 4, 0..101, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_equals_sequential_for_maximus() {
        let m = model(60);
        let solver = MaximusIndex::build(
            m,
            &MaximusConfig {
                num_clusters: 3,
                block_size: 8,
                ..MaximusConfig::default()
            },
        );
        let seq = solver.query_all(5);
        let par = par_query_range(&solver, 5, 0..60, 4);
        assert_eq!(par, seq);
    }

    #[test]
    fn offset_ranges_and_subsets_match_sequential() {
        let m = model(83);
        let solver = MaximusIndex::brute_force(m);
        let seq_range = solver.query_range(3, 17..64);
        for threads in [2usize, 5, 100] {
            assert_eq!(par_query_range(&solver, 3, 17..64, threads), seq_range);
        }
        let ids: Vec<usize> = vec![5, 5, 80, 0, 41, 5, 82];
        let seq_subset = solver.query_subset(3, &ids);
        for threads in [2usize, 3, 16] {
            assert_eq!(par_query_subset(&solver, 3, &ids, threads), seq_subset);
        }
        assert!(par_query_subset(&solver, 3, &[], 4).is_empty());
        assert!(par_query_range(&solver, 3, 10..10, 4).is_empty());
    }

    #[test]
    fn repeated_ids_are_queried_once_across_chunks() {
        use crate::sync::Mutex;
        use std::collections::HashMap;

        /// Wraps a solver and counts how often each user id is queried.
        struct CountingSolver {
            inner: MaximusIndex,
            counts: Mutex<HashMap<usize, usize>>,
        }
        impl MipsSolver for CountingSolver {
            fn name(&self) -> &str {
                "counting"
            }
            fn build_seconds(&self) -> f64 {
                0.0
            }
            fn batches_users(&self) -> bool {
                true
            }
            fn num_users(&self) -> usize {
                self.inner.num_users()
            }
            fn query_range(&self, k: usize, users: std::ops::Range<usize>) -> Vec<TopKList> {
                self.inner.query_range(k, users)
            }
            fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
                let mut counts = self.counts.lock().unwrap();
                for &u in users {
                    *counts.entry(u).or_insert(0) += 1;
                }
                drop(counts);
                self.inner.query_subset(k, users)
            }
        }

        let m = model(20);
        let solver = CountingSolver {
            inner: MaximusIndex::brute_force(Arc::clone(&m)),
            counts: Mutex::new(HashMap::new()),
        };
        // User 7 repeats across what would be several chunks at 4 threads.
        let ids = [7usize, 1, 7, 2, 7, 3, 7, 4, 7, 5];
        let out = par_query_subset(&solver, 2, &ids, 4);
        assert_eq!(out.len(), ids.len());
        let expect = solver.inner.query_subset(2, &ids);
        assert_eq!(out, expect);
        let counts = solver.counts.lock().unwrap();
        assert_eq!(counts[&7], 1, "repeated user must be queried once");
        assert!(counts.values().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "threads must be > 0")]
    fn rejects_zero_threads() {
        let m = model(4);
        let solver = MaximusIndex::brute_force(m);
        let _ = par_query_range(&solver, 1, 0..4, 0);
    }
}
