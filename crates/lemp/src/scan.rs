//! Per-bucket retrieval algorithms: LENGTH and INCR.
//!
//! Both produce identical results; they differ in how much work they
//! spend deciding that an item cannot beat the current threshold. Bounds are
//! inflated by a relative epsilon before comparison so floating-point
//! rounding can never prune a true top-k item (exactness first, then speed).
//!
//! A scan offers the `dot` score of each item it cannot prune to the
//! query's [`Shortlist`] with the reassociation envelope
//! ([`mips_linalg::reassoc_envelope_parts`]) and prunes against the
//! shortlist's threshold; the query's [`Shortlist::finish`] rescores the
//! survivors with the oracle's chain.
//!
//! Every full and partial inner product here (`dot` over the bucket rows,
//! INCR's leading-coordinate partial products) runs on the
//! runtime-dispatched SIMD kernels of [`mips_linalg::simd`] — the scans get
//! AVX2/NEON FMA throughput without any per-call-site change. The
//! suffix-norm tables are built by [`suffix_norms`], one portable
//! square-then-add carry whose rounding against the exact sum is absorbed
//! by [`BOUND_EPS`], which dominates the proved bound
//! ([`mips_linalg::sumsq_reassoc_bound`]) by orders of magnitude.

use crate::bucket::Bucket;
use mips_linalg::kernels::{dot, norm2, suffix_norms};
use mips_linalg::reassoc_envelope_parts;
use mips_topk::Shortlist;

/// Relative inflation applied to every pruning bound.
///
/// Two rounding sources must stay underneath it, and both are covered by
/// *proved* bounds, not just margin:
///
/// * accumulating an `f`-term double-precision dot in any association
///   order shifts it by at most `γ_f ≈ f·2⁻⁵³` relative to the operand
///   magnitudes (Higham ch. 3) — `≤ 5.7·10⁻¹⁴` for `f = 512`;
/// * the suffix-norm tables are built by [`suffix_norms`], whose
///   square-then-add carry differs from the exact sum of squares by at most
///   [`mips_linalg::sumsq_reassoc_bound`] relative — `≤ 2.3·10⁻¹³` at
///   `n = 1024`.
///
/// `BOUND_EPS = 10⁻¹⁰` dominates both with more than two orders of
/// magnitude to spare for every feasible factor count; the
/// `bound_eps_dominates_proved_rounding_bounds` test pins the margin.
pub const BOUND_EPS: f64 = 1e-10;

/// Inflates an upper bound so rounding cannot make it under-estimate.
#[inline(always)]
pub fn inflate(bound: f64) -> f64 {
    bound + bound.abs() * BOUND_EPS
}

/// The retrieval algorithms LEMP chooses among per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalAlgo {
    /// Norm-bound scanning: stop at the first item with
    /// `‖u‖·‖i‖ < threshold` (items are norm-sorted).
    Length,
    /// LENGTH plus partial inner products over the first `cp` coordinates
    /// with a Cauchy–Schwarz bound on the suffix.
    Incr,
}

/// Per-user query state shared across buckets.
#[derive(Debug, Clone)]
pub struct UserCtx {
    /// The original user vector.
    pub user: Vec<f64>,
    /// `‖u‖`.
    pub norm: f64,
    /// `u / ‖u‖` (zeros stay zero).
    pub unit: Vec<f64>,
    /// `‖û[cp..]‖` — the user-side Cauchy–Schwarz suffix factor.
    pub unit_suffix_at_cp: f64,
    /// The INCR checkpoint used to compute `unit_suffix_at_cp`.
    pub checkpoint: usize,
    /// The reassociation envelope of this user's `dot` scores, `(rel·‖u‖,
    /// abs)`: an item of norm `‖i‖` is offered with `env = rel·‖u‖·‖i‖ +
    /// abs`.
    pub envelope: (f64, f64),
}

impl UserCtx {
    /// Prepares per-user state for a query.
    ///
    /// # Panics
    /// Panics if the checkpoint exceeds the dimensionality.
    pub fn new(user: &[f64], checkpoint: usize) -> UserCtx {
        assert!(
            checkpoint >= 1 && checkpoint <= user.len(),
            "UserCtx: checkpoint {checkpoint} out of range"
        );
        let norm = norm2(user);
        let unit: Vec<f64> = if norm > 0.0 {
            user.iter().map(|&v| v / norm).collect()
        } else {
            vec![0.0; user.len()]
        };
        let unit_suffix_at_cp = suffix_norms(&unit)[checkpoint];
        let (rel, abs) = reassoc_envelope_parts(user.len());
        UserCtx {
            user: user.to_vec(),
            norm,
            unit,
            unit_suffix_at_cp,
            checkpoint,
            envelope: (rel * norm, abs),
        }
    }

    /// Offers item `id`, row `r` of `bucket`, scored with `dot`.
    #[inline]
    fn offer(&self, bucket: &Bucket, r: usize, id: u32, list: &mut Shortlist) {
        let score = dot(&self.user, bucket.vectors.row(r));
        let (rel_u, abs) = self.envelope;
        list.offer(id, score, rel_u * bucket.norms[r] + abs);
    }
}

/// Work counters accumulated during a scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Items whose full inner product was computed.
    pub dots_computed: u64,
    /// Items skipped by the LENGTH norm bound (including break-offs).
    pub length_pruned: u64,
    /// Items skipped by the INCR partial-product bound.
    pub incr_pruned: u64,
}

impl ScanStats {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ScanStats) {
        self.dots_computed += other.dots_computed;
        self.length_pruned += other.length_pruned;
        self.incr_pruned += other.incr_pruned;
    }
}

/// Scans one bucket with the given algorithm, offering what it cannot
/// prune to `list`.
pub fn scan_bucket(
    algo: RetrievalAlgo,
    bucket: &Bucket,
    ctx: &UserCtx,
    list: &mut Shortlist,
    stats: &mut ScanStats,
) {
    match algo {
        RetrievalAlgo::Length => scan_length(bucket, ctx, list, stats),
        RetrievalAlgo::Incr => scan_incr(bucket, ctx, list, stats),
    }
}

fn scan_length(bucket: &Bucket, ctx: &UserCtx, list: &mut Shortlist, stats: &mut ScanStats) {
    for (r, &id) in bucket.ids.iter().enumerate() {
        // Items are norm-sorted: once the Cauchy–Schwarz ceiling drops below
        // the threshold, no later item in this bucket can qualify either.
        if list.is_full() && inflate(ctx.norm * bucket.norms[r]) < list.threshold() {
            stats.length_pruned += (bucket.len() - r) as u64;
            return;
        }
        ctx.offer(bucket, r, id, list);
        stats.dots_computed += 1;
    }
}

fn scan_incr(bucket: &Bucket, ctx: &UserCtx, list: &mut Shortlist, stats: &mut ScanStats) {
    let cp = ctx.checkpoint;
    for (r, &id) in bucket.ids.iter().enumerate() {
        let scale = ctx.norm * bucket.norms[r];
        if list.is_full() && inflate(scale) < list.threshold() {
            stats.length_pruned += (bucket.len() - r) as u64;
            return;
        }
        if list.is_full() {
            // Partial cosine over the leading coordinates, Cauchy–Schwarz on
            // the rest: cos(û, d̂) ≤ û[..cp]·d̂[..cp] + ‖û[cp..]‖‖d̂[cp..]‖.
            // The rounding slack must be relative to the *scale of the
            // terms* (≤ 1 for cosines), not to the bound itself — partial
            // and suffix terms can cancel to a bound near zero while each
            // carries ~ulp(1) of error.
            let partial = dot(&ctx.unit[..cp], &bucket.dirs.row(r)[..cp]);
            let cos_bound = (partial + ctx.unit_suffix_at_cp * bucket.dir_suffix_at_cp[r]).min(1.0);
            if scale * (cos_bound + BOUND_EPS) < list.threshold() {
                stats.incr_pruned += 1;
                continue;
            }
        }
        ctx.offer(bucket, r, id, list);
        stats.dots_computed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::build_buckets;
    use mips_linalg::{simd, Matrix};
    use mips_topk::{exact_topk, TopKHeap, TopKList};

    fn random_items(n: usize, f: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(n, f, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    const ALGOS: [RetrievalAlgo; 2] = [RetrievalAlgo::Length, RetrievalAlgo::Incr];

    /// The scan's answer, finished through the shortlist, and its work.
    fn run_algo(
        algo: RetrievalAlgo,
        items: &Matrix<f64>,
        user: &[f64],
        k: usize,
    ) -> (TopKList, ScanStats) {
        let cp = (items.cols() / 4).max(1);
        let buckets = build_buckets(items, 16, cp);
        let ctx = UserCtx::new(user, cp);
        let mut heap = TopKHeap::new(k);
        let mut list = Shortlist::new();
        list.begin(&heap);
        let mut stats = ScanStats::default();
        for b in &buckets {
            if list.is_full() && inflate(ctx.norm * b.max_norm) < list.threshold() {
                break;
            }
            scan_bucket(algo, b, &ctx, &mut list, &mut stats);
        }
        list.finish(simd::active(), user, items.into(), &mut heap);
        (heap.into_sorted(), stats)
    }

    #[test]
    fn both_algorithms_give_the_oracle_answer() {
        let items = random_items(120, 12, 5);
        let users = random_items(8, 12, 99);
        for k in [1usize, 3, 10] {
            for u in 0..users.rows() {
                let user = users.row(u);
                let want = exact_topk(user, &items, k);
                for algo in ALGOS {
                    let (got, _) = run_algo(algo, &items, user, k);
                    assert_eq!(got, want, "algo {algo:?} k={k} user {u}");
                }
            }
        }
    }

    #[test]
    fn pruning_algorithms_do_less_work_on_skewed_norms() {
        // Strong norm skew: a few giant items dominate every top-k. The
        // brute-force cost is |users|·|items| dots; LEMP's bucket bound plus
        // per-item pruning should eliminate the bulk of them.
        let mut items = random_items(200, 8, 3);
        for r in 0..items.rows() {
            let boost = if r < 5 { 50.0 } else { 0.1 };
            for v in items.row_mut(r) {
                *v *= boost;
            }
        }
        let users = random_items(4, 8, 17);
        let brute_force_dots = (items.rows() * users.rows()) as u64;
        let mut length_dots = 0;
        let mut incr_dots = 0;
        for u in 0..users.rows() {
            let (_, s) = run_algo(RetrievalAlgo::Length, &items, users.row(u), 3);
            length_dots += s.dots_computed;
            let (_, s) = run_algo(RetrievalAlgo::Incr, &items, users.row(u), 3);
            incr_dots += s.dots_computed;
        }
        assert!(
            length_dots < brute_force_dots / 2,
            "{length_dots} vs brute force {brute_force_dots}"
        );
        // INCR's extra partial-product filter can only reduce full dots.
        assert!(incr_dots <= length_dots, "{incr_dots} vs {length_dots}");
    }

    #[test]
    fn zero_norm_user_is_handled() {
        let items = random_items(30, 6, 8);
        let zero = vec![0.0; 6];
        let want = exact_topk(&zero, &items, 5);
        for algo in ALGOS {
            let (got, _) = run_algo(algo, &items, &zero, 5);
            assert_eq!(got, want, "algo {algo:?}");
        }
    }

    #[test]
    fn negative_thresholds_do_not_prune_wrongly() {
        // All ratings negative: bounds (≥ 0) never beat the threshold test.
        let items = random_items(40, 4, 2);
        let mut user = vec![0.0; 4];
        // A user anti-aligned with everything: flip sign of a random item.
        for (j, v) in user.iter_mut().enumerate() {
            *v = -items.get(0, j) * 3.0;
        }
        let want = exact_topk(&user, &items, 4);
        for algo in ALGOS {
            let (got, _) = run_algo(algo, &items, &user, 4);
            assert_eq!(got, want, "algo {algo:?}");
        }
    }

    #[test]
    fn bound_eps_dominates_proved_rounding_bounds() {
        // Satellite of the mixed-precision PR: the BOUND_EPS slack is not
        // an ad-hoc epsilon — it must dominate the *proved* rounding
        // bounds it absorbs, with two orders of magnitude of margin.
        // (a) any-order f64 dot accumulation: γ_f = (f·ε/2)/(1 − f·ε/2);
        // (b) the suffix-norm carry's rounding against the exact sum.
        for f in [8usize, 64, 512, 1024] {
            let eps = f64::EPSILON;
            let gamma = (f as f64 * eps / 2.0) / (1.0 - f as f64 * eps / 2.0);
            assert!(
                100.0 * gamma <= BOUND_EPS,
                "γ_{f} = {gamma} too close to BOUND_EPS"
            );
            let reassoc = mips_linalg::sumsq_reassoc_bound(f);
            assert!(
                100.0 * reassoc <= BOUND_EPS,
                "sumsq_reassoc_bound({f}) = {reassoc} too close to BOUND_EPS"
            );
        }
    }

    #[test]
    fn inflate_is_an_upper_bound_transform() {
        assert!(inflate(1.0) > 1.0);
        assert!(inflate(-1.0) > -1.0);
        assert_eq!(inflate(0.0), 0.0);
    }

    #[test]
    fn user_ctx_normalizes() {
        let ctx = UserCtx::new(&[3.0, 0.0, 0.0, 4.0], 2);
        assert!((ctx.norm - 5.0).abs() < 1e-12);
        assert!((ctx.unit[0] - 0.6).abs() < 1e-12);
        // Suffix after 2 coords: ‖(0, 0.8)‖ = 0.8.
        assert!((ctx.unit_suffix_at_cp - 0.8).abs() < 1e-12);
    }
}
