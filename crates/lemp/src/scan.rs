//! Per-bucket retrieval algorithms: LENGTH and INCR.
//!
//! Both produce identical results; they differ in how much work they
//! spend deciding that an item cannot beat the current threshold. Bounds are
//! inflated by a relative epsilon before comparison so floating-point
//! rounding can never prune a true top-k item (exactness first, then speed).
//!
//! Every full and partial inner product here (`dot` over the bucket rows,
//! INCR's leading-coordinate partial products, the suffix-norm tables built
//! through [`suffix_norms`]) runs on the runtime-dispatched SIMD kernels of
//! [`mips_linalg::simd`] — the scans get AVX2/NEON FMA throughput without
//! any per-call-site change. The suffix scan's block re-association (the one
//! kernel that is not bit-identical to scalar) is absorbed by [`BOUND_EPS`],
//! which dominates the proved re-association bound
//! ([`mips_linalg::sumsq_reassoc_bound`]) by orders of magnitude.
//!
//! When the index carries a screen-tier mirror
//! ([`crate::LempIndex::with_screen`]), a **mixed-precision screen** runs
//! just before each verification dot: the item is scored in the tier's
//! arithmetic (single-precision kernels, or exact integer dots over
//! symmetric int8 codes), the score widened by the tier's error envelope
//! ([`mips_topk::UserScreen::upper_bound`]), and the exact dot is skipped
//! when even the widened score cannot reach the heap threshold — the
//! skipped push was guaranteed to be rejected, so results stay
//! bit-identical to the pure double-precision scan.

use crate::bucket::Bucket;
use mips_linalg::kernels::{dot, norm2, suffix_norms};
use mips_topk::{ItemMirror, ScreenTier, TopKHeap, UserScreen};

/// Relative inflation applied to every pruning bound.
///
/// Two rounding sources must stay underneath it, and both are covered by
/// *proved* bounds, not just margin:
///
/// * accumulating an `f`-term double-precision dot in any association
///   order shifts it by at most `γ_f ≈ f·2⁻⁵³` relative to the operand
///   magnitudes (Higham ch. 3) — `≤ 5.7·10⁻¹⁴` for `f = 512`;
/// * the suffix-norm tables are built by [`suffix_norms`], whose blocked
///   SIMD re-association is bounded by
///   [`mips_linalg::sumsq_reassoc_bound`] — `≤ 2.3·10⁻¹³` at `n = 1024`.
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
    /// Screen state, present only via [`UserCtx::with_screen`] (and only
    /// when the user row has a usable representation in that tier).
    pub screen: Option<UserScreen>,
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
        UserCtx {
            user: user.to_vec(),
            norm,
            unit,
            unit_suffix_at_cp,
            checkpoint,
            screen: None,
        }
    }

    /// Arms the mixed-precision screen in `tier`. A user row the tier
    /// cannot represent (degenerate int8 quantization) scans unscreened —
    /// still exact, just unaccelerated. Only scans handed a mirror of the
    /// same tier actually screen.
    pub fn with_screen(mut self, tier: ScreenTier) -> UserCtx {
        self.screen = UserScreen::arm(&self.user, tier);
        self
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
    /// Items the mixed-precision screen evaluated (f32 or int8): every
    /// screen pre-score computed, whether it pruned or not.
    /// `screen_evaluated - screen_pruned` survivors went on to the exact
    /// verification dot.
    pub screen_evaluated: u64,
    /// Items whose exact verification dot (and guaranteed-rejected heap
    /// push) was skipped by the mixed-precision screen (f32 or int8).
    pub screen_pruned: u64,
}

impl ScanStats {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ScanStats) {
        self.dots_computed += other.dots_computed;
        self.length_pruned += other.length_pruned;
        self.incr_pruned += other.incr_pruned;
        self.screen_evaluated += other.screen_evaluated;
        self.screen_pruned += other.screen_pruned;
    }
}

/// Scans one bucket with the given algorithm, updating the heap in place.
/// `mirror` is the bucket's item vectors in a screen tier's storage
/// (row-aligned with [`Bucket::vectors`]), when the index serving the query
/// has one armed.
pub fn scan_bucket(
    algo: RetrievalAlgo,
    bucket: &Bucket,
    mirror: Option<&ItemMirror>,
    ctx: &UserCtx,
    heap: &mut TopKHeap,
    stats: &mut ScanStats,
) {
    let side = BucketSide { bucket, mirror };
    match algo {
        RetrievalAlgo::Length => scan_length(side, ctx, heap, stats),
        RetrievalAlgo::Incr => scan_incr(side, ctx, heap, stats),
    }
}

/// The item side of one scan: the shared bucket plus the serving index's
/// mirror of it, if any.
#[derive(Clone, Copy)]
struct BucketSide<'a> {
    bucket: &'a Bucket,
    mirror: Option<&'a ItemMirror>,
}

/// The exact verification dot and push, gated by the mixed-precision
/// screen when both sides carry the armed tier ([`UserCtx::with_screen`],
/// the mirror handed to [`scan_bucket`]).
///
/// When even the envelope-widened screen score sits strictly below the
/// heap threshold, the exact score does too, so its push would have been
/// rejected — skipping the f64 dot *and* the push leaves the heap
/// trajectory, and therefore the results, bit-identical to the pure
/// double-precision scan.
#[inline]
fn verify_and_push(
    side: BucketSide<'_>,
    ctx: &UserCtx,
    r: usize,
    id: u32,
    heap: &mut TopKHeap,
    stats: &mut ScanStats,
) {
    let bucket = side.bucket;
    if heap.is_full() {
        if let (Some(screen), Some(mirror)) = (&ctx.screen, side.mirror) {
            stats.screen_evaluated += 1;
            if screen.upper_bound(mirror, r) < heap.threshold() {
                stats.screen_pruned += 1;
                return;
            }
        }
    }
    heap.push(dot(&ctx.user, bucket.vectors.row(r)), id);
    stats.dots_computed += 1;
}

fn scan_length(side: BucketSide<'_>, ctx: &UserCtx, heap: &mut TopKHeap, stats: &mut ScanStats) {
    let bucket = side.bucket;
    for (r, &id) in bucket.ids.iter().enumerate() {
        // Items are norm-sorted: once the Cauchy–Schwarz ceiling drops below
        // the threshold, no later item in this bucket can qualify either.
        if heap.is_full() && inflate(ctx.norm * bucket.norms[r]) < heap.threshold() {
            stats.length_pruned += (bucket.len() - r) as u64;
            return;
        }
        verify_and_push(side, ctx, r, id, heap, stats);
    }
}

fn scan_incr(side: BucketSide<'_>, ctx: &UserCtx, heap: &mut TopKHeap, stats: &mut ScanStats) {
    let bucket = side.bucket;
    let cp = ctx.checkpoint;
    for (r, &id) in bucket.ids.iter().enumerate() {
        let scale = ctx.norm * bucket.norms[r];
        if heap.is_full() && inflate(scale) < heap.threshold() {
            stats.length_pruned += (bucket.len() - r) as u64;
            return;
        }
        if heap.is_full() {
            // Partial cosine over the leading coordinates, Cauchy–Schwarz on
            // the rest: cos(û, d̂) ≤ û[..cp]·d̂[..cp] + ‖û[cp..]‖‖d̂[cp..]‖.
            // The rounding slack must be relative to the *scale of the
            // terms* (≤ 1 for cosines), not to the bound itself — partial
            // and suffix terms can cancel to a bound near zero while each
            // carries ~ulp(1) of error.
            let partial = dot(&ctx.unit[..cp], &bucket.dirs.row(r)[..cp]);
            let cos_bound = (partial + ctx.unit_suffix_at_cp * bucket.dir_suffix_at_cp[r]).min(1.0);
            if scale * (cos_bound + BOUND_EPS) < heap.threshold() {
                stats.incr_pruned += 1;
                continue;
            }
        }
        verify_and_push(side, ctx, r, id, heap, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::build_buckets;
    use mips_linalg::Matrix;
    use mips_topk::{canonicalize, exact_topk, TopKList};

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

    /// The scan's answer brought to canonical scores, and the scan's work.
    fn run_algo(
        algo: RetrievalAlgo,
        items: &Matrix<f64>,
        user: &[f64],
        k: usize,
    ) -> (TopKList, ScanStats) {
        let (list, stats) = run_algo_screened(algo, items, user, k, None);
        (canonicalize(list, user, items), stats)
    }

    fn run_algo_screened(
        algo: RetrievalAlgo,
        items: &Matrix<f64>,
        user: &[f64],
        k: usize,
        tier: Option<ScreenTier>,
    ) -> (TopKList, ScanStats) {
        let cp = (items.cols() / 4).max(1);
        let buckets = build_buckets(items, 16, cp);
        let mut ctx = UserCtx::new(user, cp);
        let mut mirrors = Vec::new();
        if let Some(tier) = tier {
            let mirror = |b: &Bucket| ItemMirror::build(&b.vectors, tier).expect("usable mirror");
            mirrors = buckets.iter().map(mirror).collect();
            ctx = ctx.with_screen(tier);
        }
        let mut heap = TopKHeap::new(k);
        let mut stats = ScanStats::default();
        for (i, b) in buckets.iter().enumerate() {
            if heap.is_full() && inflate(ctx.norm * b.max_norm) < heap.threshold() {
                break;
            }
            scan_bucket(algo, b, mirrors.get(i), &ctx, &mut heap, &mut stats);
        }
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
    fn screened_scans_are_bit_identical_and_prune() {
        let items = random_items(300, 24, 11);
        let users = random_items(6, 24, 42);
        let mut pruned = [0u64; ScreenTier::ALL.len()];
        for u in 0..users.rows() {
            let user = users.row(u);
            for k in [1usize, 4, 9] {
                for algo in ALGOS {
                    let (want, _) = run_algo_screened(algo, &items, user, k, None);
                    for tier in ScreenTier::ALL {
                        let (got, stats) = run_algo_screened(algo, &items, user, k, Some(tier));
                        assert_eq!(got.items, want.items, "algo {algo:?} k={k} user {u}");
                        for (a, b) in got.scores.iter().zip(&want.scores) {
                            assert_eq!(a.to_bits(), b.to_bits(), "algo {algo:?} k={k} user {u}");
                        }
                        pruned[tier.index()] += stats.screen_pruned;
                    }
                }
            }
        }
        // Random dense scores leave most items far from the top-k
        // threshold: the screens must actually be saving exact dots.
        for tier in ScreenTier::ALL {
            assert!(
                pruned[tier.index()] > 0,
                "{tier:?} screen never pruned anything"
            );
        }
    }

    #[test]
    fn screen_without_bucket_mirror_degrades_to_plain_scan() {
        // A screened UserCtx scanning without a mirror must not change
        // behavior (the screen needs both sides): the same heap, the same
        // exact dots as the unscreened context.
        let items = random_items(80, 8, 3);
        let buckets = build_buckets(&items, 16, 2);
        let scan = |ctx: &UserCtx, algo: RetrievalAlgo| {
            let mut heap = TopKHeap::new(5);
            let mut stats = ScanStats::default();
            for b in &buckets {
                scan_bucket(algo, b, None, ctx, &mut heap, &mut stats);
            }
            (heap.into_sorted(), stats)
        };
        let plain = UserCtx::new(items.row(0), 2);
        for tier in ScreenTier::ALL {
            let ctx = plain.clone().with_screen(tier);
            assert!(ctx.screen.is_some());
            for algo in ALGOS {
                let (want, want_stats) = scan(&plain, algo);
                let (got, stats) = scan(&ctx, algo);
                assert_eq!(got, want, "{tier:?} {algo:?}");
                assert_eq!(stats, want_stats, "{tier:?} {algo:?}");
            }
        }
    }

    #[test]
    fn degenerate_user_rows_scan_unscreened_but_exact() {
        // A subnormal user row quantizes to a non-finite scale: with_screen
        // must leave the int8 screen unarmed rather than prune wrongly.
        let items = random_items(60, 6, 9);
        let user = vec![1.0e-320; 6];
        let ctx = UserCtx::new(&user, 2).with_screen(ScreenTier::I8);
        assert!(ctx.screen.is_none());
        for algo in ALGOS {
            let (want, _) = run_algo_screened(algo, &items, &user, 5, None);
            for tier in ScreenTier::ALL {
                let (got, _) = run_algo_screened(algo, &items, &user, 5, Some(tier));
                assert_eq!(got.items, want.items, "{tier:?} {algo:?}");
            }
            let (_, stats) = run_algo_screened(algo, &items, &user, 5, Some(ScreenTier::I8));
            assert_eq!(stats.screen_pruned, 0);
        }
    }

    #[test]
    fn bound_eps_dominates_proved_rounding_bounds() {
        // Satellite of the mixed-precision PR: the BOUND_EPS slack is not
        // an ad-hoc epsilon — it must dominate the *proved* rounding
        // bounds it absorbs, with two orders of magnitude of margin.
        // (a) any-order f64 dot accumulation: γ_f = (f·ε/2)/(1 − f·ε/2);
        // (b) the suffix-norm kernel's blocked re-association.
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
