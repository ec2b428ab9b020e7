//! Mixed-precision screen-then-rescore: a low-precision scan, exact f64
//! top-k.
//!
//! The fused f64 path ([`crate::fused`]) already keeps score panels
//! cache-resident; a **screen tier** ([`ScreenTier`]) shrinks the bytes the
//! scan streams — f32 halves them and doubles the SIMD lanes, int8 cuts them
//! 8× and swaps the FMA pipes for the wider integer multiply-add pipes — at
//! the price of a second (tiny) pass:
//!
//! 1. **Screen** — score every (user, item) pair in the tier's arithmetic
//!    and widen the screen score `ŝ` into `[ŝ − env, ŝ + env]`, where `env`
//!    bounds the tier's total error against the exact score `s` (so `s` is
//!    always inside the interval). A per-user bound heap retains the `k`
//!    largest *lower* bounds; any column whose *upper* bound reaches that
//!    heap's threshold is collected as a candidate.
//! 2. **Rescore** — recompute each surviving candidate's score in f64 with
//!    the GEMM per-element reduction ([`mips_linalg::simd::Kernel::dot_seq4`])
//!    and offer it to the caller's heap.
//!
//! Every tier runs the same frame — the packed GEMM driver
//! ([`mips_linalg::gemm_nt_stream_blocks`]) streams one `MC × NC` block of
//! screen scores at a time, off catalog panels packed once per model when
//! the caller has them, and each row of the block goes through the tier's
//! threshold filter and, for the lanes it flags, the offer rule. What a
//! tier *is* — its storage, pack format, register tile, offer expression
//! and filter — is [`mips_linalg::ScreenElem`]; this module is generic over
//! it and both sides of a pass arrive as [`TierView`]s of one
//! [`mips_linalg::TierRows`] store each:
//!
//! * **f32** multiplies `A₃₂·B₃₂ᵀ`; `env = f32_screen_envelope(f, ‖u‖, ‖i‖)`
//!   bounds the rounding error of the single-precision path
//!   ([`mips_linalg::f32_screen_envelope`]). A score that overflowed to a
//!   non-finite value carries no bound; the filter flags it and the column
//!   is kept unconditionally.
//! * **int8** multiplies the symmetric int8 codes
//!   ([`mips_linalg::quant::quantize_row_i8`]) into exact `i32` dots `D`
//!   and reconstructs `ŝ = D·(1/s_u)·(1/s_i)`; `env = a_u·(1/s_i) + b_u·‖i‖₁`
//!   is the per-pair quantization envelope of
//!   [`mips_linalg::i8_screen_envelope_parts`]. The integer dot is exact
//!   under every accumulation order (guarded by
//!   [`mips_linalg::I8_DOT_MAX_LEN`]), so every kernel set screens with
//!   bit-identical scores and collects the identical candidate set — the
//!   envelope covers quantization only, not kernel-dependent rounding.
//!
//! Everything around the pass — shape checks, bound-heap seeding, the offer
//! rule, the survivor filter, the rescore — exists once and is shared.
//!
//! ## Why no true top-k member can be lost
//!
//! Let `L̂` be the final threshold of a user's bound heap. Each of its `k`
//! retained entries is a lower bound of some column's exact score, so at
//! least `k` columns have exact score `≥ L̂` — hence the true k-th exact
//! score is `≥ L̂`. Every true top-k column `c` has exact score
//! `s_c ≥ kth ≥ L̂`, and its upper bound `ŝ_c + env ≥ s_c ≥ L̂`, so `c` was
//! collected (thresholds only grow during the scan, so the test it faced
//! was no stricter than `L̂`) and survives the final `hi ≥ L̂` filter. Ties
//! (`s_c` equal to the k-th score, decided by the smaller-id rule) are
//! safe for the same reason: the comparison uses `≥`, never `>`.
//!
//! **The floor.** While a user's bound heap is not yet full, each block's
//! row is first primed with a floor `θ`: the k-th largest of ≈ `2k` group
//! maxima of the row's *lower bounds* `ŝ − env` (the tier's
//! [`mips_linalg::ScreenElem::group_max`], the same operations as the
//! offer rule; a column without a bound contributes none). The row is then
//! filtered and offered against `max(bound heap threshold, θ)`. This moves
//! neither `L̂` nor the survivor set:
//!
//! * `L̂` is the k-th largest value of {seeded entries} ∪ {`lo_c` over every
//!   column with a bound}. Without a floor a column is pushed unless its
//!   `hi_c` sits below the running threshold, and then `lo_c ≤ hi_c` is
//!   below k values already held, so skipping it never changes that k-th
//!   value. With a floor, `θ` is the lower bound of k distinct columns of
//!   the block, so a column with `hi_c < θ` has `lo_c` below k lower bounds
//!   of the block — the same argument — and `θ ≤ L̂`.
//! * The survivors are the columns with `hi_c ≥ L̂` (and every column
//!   without a bound). The threshold a column faces, floor included, never
//!   exceeds `L̂`, so each of them is still collected; the final filter
//!   drops the rest as before.
//!
//! So a primed pass collects fewer candidates but rescores exactly the
//! same survivors, and every result stays bit-identical; the survivor
//! recount test in this module pins it per tier.
//!
//! Entries already present in the caller's heaps are treated as exact
//! scores from a previous phase: they seed the bound heap (an exact score
//! is its own lower bound), so the screen is exactly as selective as the
//! f64 path would have been with the same preloaded state.
//!
//! Because every reported score comes from the f64 rescore — with the same
//! reduction order as the pure-f64 GEMM path — a screened scan's results
//! are **bit-identical** to f64-direct: same scores, same ids, same
//! tie-breaks. The `exactness` driver in `mips-core` asserts this for every
//! backend's tier variants, and the `precision_identity` suite end to end.
//!
//! ## Point screens
//!
//! Index walks (MAXIMUS's list walk, LEMP's bucket scans) visit one item at
//! a time and only need a yes/no: *can this item still reach the heap
//! threshold?* They hold their tier as a run-time value, so they go through
//! the two thin wrappers here: [`ItemMirror`] is a gathered item block in
//! some tier's store and [`UserScreen`] one user's row of the same store
//! with its offer terms; [`UserScreen::upper_bound`] returns the
//! envelope-widened screen score, and the walk skips the exact dot when
//! even that sits below its threshold.

use crate::admit;
use crate::fused::ColumnIds;
use crate::heap::TopKHeap;
use mips_linalg::simd::{self, Kernel};
use mips_linalg::{
    gemm_nt_stream_blocks_with, per_tier, BlockSizes, GemmScratch, Matrix, RowBlock, ScreenElem,
    TierRows, TierView,
};

pub use mips_linalg::ScreenTier;

/// Reusable buffers for [`screen_topk_into_heaps_with`]: the per-user bound
/// heaps and candidate lists, plus the pass's GEMM scratch. Own one per
/// query loop / worker thread, like [`GemmScratch`].
#[derive(Debug)]
pub struct ScreenScratch<T: ScreenElem> {
    gemm: GemmScratch<T>,
    bound_heaps: Vec<TopKHeap>,
    candidates: Vec<Vec<(u32, f64)>>,
}

impl<T: ScreenElem> Default for ScreenScratch<T> {
    fn default() -> Self {
        ScreenScratch {
            gemm: GemmScratch::new(),
            bound_heaps: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl<T: ScreenElem> ScreenScratch<T> {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> ScreenScratch<T> {
        ScreenScratch::default()
    }
}

/// Counters describing how selective one screen pass was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Scores screened in the tier's arithmetic (`rows × cols`).
    pub screened: u64,
    /// Candidates surviving to the exact rescore.
    pub rescored: u64,
}

/// One user's side of the shared frame while a pass streams one block at
/// it: the bound heap, the candidate list, the block's floor and the
/// threshold `max(bound heap threshold, floor)` cached between pushes. For
/// every lane its tier's filter flags at that threshold, a pass calls
/// [`RowOffers::offer`] (finite score) or [`RowOffers::keep`] (no score).
struct RowOffers<'a> {
    ids: ColumnIds<'a>,
    bounds: &'a mut TopKHeap,
    candidates: &'a mut Vec<(u32, f64)>,
    floor: f64,
    threshold: f64,
}

impl<'a> RowOffers<'a> {
    fn new(
        ids: ColumnIds<'a>,
        bounds: &'a mut TopKHeap,
        candidates: &'a mut Vec<(u32, f64)>,
        floor: f64,
    ) -> RowOffers<'a> {
        let threshold = bounds.threshold().max(floor);
        RowOffers {
            ids,
            bounds,
            candidates,
            floor,
            threshold,
        }
    }

    /// The offer rule for a **finite** screen score: collect `col` when its
    /// upper bound `score + env` reaches the threshold, and raise the
    /// threshold with its lower bound.
    fn offer(&mut self, col: usize, score: f64, env: f64) {
        let hi = score + env;
        if hi >= self.threshold {
            self.candidates.push((col as u32, hi));
            self.bounds.push(score - env, self.ids.id(col));
            self.threshold = self.bounds.threshold().max(self.floor);
        }
    }

    /// The offer rule for a column whose screen score is not finite (an
    /// f32 product overflowed): no score, no bound — keep the column
    /// unconditionally (a k = 0 heap correctly collects nothing).
    fn keep(&mut self, col: usize) {
        if self.bounds.capacity() > 0 {
            self.candidates.push((col as u32, f64::INFINITY));
        }
    }
}

/// Screens `A·Bᵀ` in the tier of `users`/`items` and streams exact f64
/// rescored survivors into caller-owned heaps — same contract and output as
/// [`crate::fused::stream_topk_into_heaps`], different execution.
///
/// `users` and `items` must mirror `a64` and `b64` row for row.
///
/// # Panics
/// Panics if `heaps.len() != a.rows()`, if either side disagrees with its
/// f64 block on shape, or if a mapped id slice is shorter than `b.rows()`.
pub fn screen_topk_into_heaps<T: ScreenElem>(
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    users: TierView<'_, T>,
    items: TierView<'_, T>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut ScreenScratch<T>,
) -> ScreenStats {
    screen_topk_into_heaps_with(
        simd::active(),
        None,
        a64,
        b64,
        users,
        items,
        heaps,
        ids,
        scratch,
    )
}

/// [`screen_topk_into_heaps`] with explicit kernel set and blocking
/// parameters (`None`: the tier's default) — the forced-scalar test entry.
#[allow(clippy::too_many_arguments)]
pub fn screen_topk_into_heaps_with<T: ScreenElem>(
    kern: &Kernel,
    blocks: Option<&BlockSizes>,
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    users: TierView<'_, T>,
    items: TierView<'_, T>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut ScreenScratch<T>,
) -> ScreenStats {
    let (m, n, f) = (a64.rows(), b64.rows(), a64.cols());
    assert_eq!(heaps.len(), m, "screen_topk: one heap per query row");
    let (a, b) = (users.row_block(), items.row_block());
    assert_eq!((a.rows(), a.cols()), (m, f), "screen_topk: user side shape");
    assert_eq!((b.rows(), b.cols()), (n, f), "screen_topk: item side shape");
    if let ColumnIds::Mapped(map) = ids {
        assert!(
            map.len() >= n,
            "screen_topk: id map shorter than item count"
        );
    }

    // Per-row bound heaps: capacity k, seeded with the caller's existing
    // (exact) entries — see the module docs.
    let ScreenScratch {
        gemm,
        bound_heaps,
        candidates,
    } = scratch;
    bound_heaps.resize_with(m, || TopKHeap::new(0));
    candidates.resize_with(m, Vec::new);
    for ((heap, bounds), list) in heaps.iter().zip(&mut *bound_heaps).zip(&mut *candidates) {
        bounds.reset(heap.capacity());
        for e in heap.entries() {
            bounds.push(e.score, e.id);
        }
        list.clear();
    }

    // Screen pass: the tier's multiply, block by block; each row of a block
    // is primed with the floor of its lower bounds while its bound heap is
    // filling, then goes through the tier's filter, flagged lanes through
    // the offer rule.
    let blocks = blocks.unwrap_or(&T::BLOCKS);
    let user_terms = users.terms();
    gemm.with_maxima(|gemm, maxima| {
        gemm_nt_stream_blocks_with(
            kern,
            a,
            items.gemm_b(),
            blocks,
            gemm,
            |block, rows, cols| {
                let item_terms = items.rows(cols.clone()).terms();
                for (accs, i) in block.chunks_exact(cols.len()).zip(rows) {
                    let offer = T::offer(f, user_terms, i);
                    let floor = admit::floor(&bound_heaps[i], accs.len(), maxima, |group, out| {
                        T::group_max(kern, accs, item_terms, offer, group, out)
                    });
                    let mut row =
                        RowOffers::new(ids, &mut bound_heaps[i], &mut candidates[i], floor);
                    let mut from = 0;
                    while let Some(j) =
                        T::next_hit(kern, accs, item_terms, offer, from, row.threshold)
                    {
                        match T::bound(&offer, accs[j], item_terms, j) {
                            Some((score, env)) => row.offer(cols.start + j, score, env),
                            None => row.keep(cols.start + j),
                        }
                        from = j + 1;
                    }
                }
            },
        )
    });

    // Rescore pass: exact f64, GEMM per-element reduction, groups of four
    // so the sequential chains pipeline.
    let mut rescored = 0u64;
    for (i, heap) in heaps.iter_mut().enumerate() {
        let final_threshold = bound_heaps[i].threshold();
        let survivors = candidates[i]
            .iter()
            .filter(|&&(_, hi)| hi >= final_threshold);
        let urow = a64.row(i);
        let mut group = [0usize; 4];
        let mut filled = 0usize;
        let flush = |cols: &[usize], heap: &mut TopKHeap| {
            let pad = cols[cols.len() - 1];
            let pick = |q: usize| b64.row(*cols.get(q).unwrap_or(&pad));
            let scores = kern.dot_seq4(urow, [pick(0), pick(1), pick(2), pick(3)]);
            for (q, &col) in cols.iter().enumerate() {
                heap.push(scores[q], ids.id(col));
            }
        };
        for &(col, _) in survivors {
            group[filled] = col as usize;
            filled += 1;
            rescored += 1;
            if filled == 4 {
                flush(&group, heap);
                filled = 0;
            }
        }
        if filled > 0 {
            flush(&group[..filled], heap);
        }
    }

    ScreenStats {
        screened: (m * n) as u64,
        rescored,
    }
}

/// One user armed for point screens in tier `T`: the user's row in tier
/// storage and the offer terms that depend only on the user.
#[derive(Debug, Clone)]
pub struct ArmedUser<T: ScreenElem> {
    row: TierRows<T>,
    offer: T::Offer,
}

impl<T: ScreenElem> ArmedUser<T> {
    fn arm(user: &[f64]) -> Option<ArmedUser<T>> {
        let row = TierRows::build(RowBlock::new(user, 1, user.len()))?;
        let offer = T::offer(user.len(), row.terms(), 0);
        Some(ArmedUser { row, offer })
    }

    /// The point bound: the screen score of this user against row `row` of
    /// `items`, widened by the tier's envelope; `+∞` when the score carries
    /// no bound.
    #[inline]
    fn upper_bound(&self, items: &TierRows<T>, row: usize) -> f64 {
        let acc = T::dot(self.row.row(0), items.row(row));
        match T::bound(&self.offer, acc, items.terms(), row) {
            Some((score, env)) => score + env,
            None => f64::INFINITY,
        }
    }
}

/// A gathered item block in one tier's store, the tier chosen at run time —
/// the item side of a [`UserScreen`], row-aligned with the f64 block it
/// mirrors (a MAXIMUS cluster list, a LEMP bucket).
#[derive(Debug, Clone)]
pub enum ItemMirror {
    /// Rounded rows.
    F32(TierRows<f32>),
    /// Symmetric int8 codes.
    I8(TierRows<i8>),
}

impl From<TierRows<f32>> for ItemMirror {
    fn from(rows: TierRows<f32>) -> ItemMirror {
        ItemMirror::F32(rows)
    }
}

impl From<TierRows<i8>> for ItemMirror {
    fn from(rows: TierRows<i8>) -> ItemMirror {
        ItemMirror::I8(rows)
    }
}

impl ItemMirror {
    /// Mirrors `items` in `tier`; `None` when the tier cannot represent
    /// some row ([`TierRows::build`]).
    pub fn build(items: &Matrix<f64>, tier: ScreenTier) -> Option<ItemMirror> {
        per_tier!(tier, T => TierRows::<T>::build(items.into()).map(ItemMirror::from))
    }

    /// The tier this mirror stores.
    pub fn tier(&self) -> ScreenTier {
        match self {
            ItemMirror::F32(_) => ScreenTier::F32,
            ItemMirror::I8(_) => ScreenTier::I8,
        }
    }
}

/// One user's side of a point screen, the tier chosen at run time.
#[derive(Debug, Clone)]
pub enum UserScreen {
    /// Armed in the f32 tier.
    F32(ArmedUser<f32>),
    /// Armed in the int8 tier.
    I8(ArmedUser<i8>),
}

impl From<ArmedUser<f32>> for UserScreen {
    fn from(user: ArmedUser<f32>) -> UserScreen {
        UserScreen::F32(user)
    }
}

impl From<ArmedUser<i8>> for UserScreen {
    fn from(user: ArmedUser<i8>) -> UserScreen {
        UserScreen::I8(user)
    }
}

impl UserScreen {
    /// Prepares `user` for screening in `tier`. `None` when the user row
    /// has no usable representation there; the caller then walks
    /// unscreened: still exact, just unaccelerated.
    pub fn arm(user: &[f64], tier: ScreenTier) -> Option<UserScreen> {
        per_tier!(tier, T => ArmedUser::<T>::arm(user).map(UserScreen::from))
    }

    /// An upper bound on the exact score of this user against row `row` of
    /// `items`: the screen score widened by the tier's envelope. When it
    /// sits strictly below a full heap's threshold the exact score does
    /// too, so the exact dot *and* its guaranteed-rejected push can be
    /// skipped with the heap trajectory — and therefore the results —
    /// bit-identical.
    ///
    /// `+∞` (never prunes) when the screen score carries no bound (an f32
    /// product overflowed), or when `items` stores a different tier than
    /// this user was armed for.
    #[inline]
    pub fn upper_bound(&self, items: &ItemMirror, row: usize) -> f64 {
        match (self, items) {
            (UserScreen::F32(user), ItemMirror::F32(items)) => user.upper_bound(items, row),
            (UserScreen::I8(user), ItemMirror::I8(items)) => user.upper_bound(items, row),
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{gemm_nt_topk, stream_topk_into_heaps};
    use crate::list::TopKList;
    use mips_linalg::kernels::dot;
    use mips_linalg::PackedPanels;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn store<T: ScreenElem>(m: &Matrix<f64>) -> TierRows<T> {
        TierRows::build(m.into()).expect("test matrices store usably")
    }

    fn fresh_heaps(rows: usize, k: usize) -> Vec<TopKHeap> {
        (0..rows).map(|_| TopKHeap::new(k)).collect()
    }

    fn sorted(heaps: Vec<TopKHeap>) -> Vec<TopKList> {
        heaps.into_iter().map(TopKHeap::into_sorted).collect()
    }

    /// Every kernel set this host can run.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::scalar()];
        kernels.extend(Kernel::avx2());
        kernels.extend(Kernel::neon());
        kernels
    }

    fn screen_into(
        tier: ScreenTier,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        heaps: &mut [TopKHeap],
        ids: ColumnIds<'_>,
    ) -> ScreenStats {
        per_tier!(tier, T => screen_topk_into_heaps(
            a.into(),
            b.into(),
            store::<T>(a).view(),
            store::<T>(b).view(),
            heaps,
            ids,
            &mut ScreenScratch::new(),
        ))
    }

    fn screen_all(
        tier: ScreenTier,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        k: usize,
        ids: ColumnIds<'_>,
    ) -> (Vec<TopKHeap>, ScreenStats) {
        let mut heaps = fresh_heaps(a.rows(), k);
        let stats = screen_into(tier, a, b, &mut heaps, ids);
        (heaps, stats)
    }

    fn assert_bit_identical(
        tier: ScreenTier,
        heaps: Vec<TopKHeap>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        k: usize,
    ) {
        let want = gemm_nt_topk(a.into(), b.into(), k, &mut GemmScratch::new());
        assert_eq!(heaps.len(), want.len());
        for (heap, w) in heaps.into_iter().zip(&want) {
            let g = heap.into_sorted();
            assert_eq!(g.items, w.items, "{tier:?} k={k}");
            for (gs, ws) in g.scores.iter().zip(&w.scores) {
                assert_eq!(gs.to_bits(), ws.to_bits(), "{tier:?} k={k}");
            }
        }
    }

    #[test]
    fn screen_is_bit_identical_to_f64_direct() {
        for tier in ScreenTier::ALL {
            for &(m, n, f, k) in &[
                (1usize, 1usize, 1usize, 1usize),
                (3, 17, 7, 4),
                (9, 50, 12, 5),
                (33, 70, 31, 10),
                (5, 301, 6, 3),       // ragged against every tile shape
                (5, 4096 + 13, 6, 3), // crosses an NC panel boundary in both tiers
                (70, 40, 51, 3),      // more than one MC block; odd depth pads an int8 pair
            ] {
                let a = random_matrix(m, f, 100 + m as u64);
                let b = random_matrix(n, f, 200 + n as u64);
                let (heaps, stats) = screen_all(tier, &a, &b, k, ColumnIds::Offset(0));
                let kept = heaps.iter().map(|h| h.len() as u64).max().unwrap_or(0);
                assert_bit_identical(tier, heaps, &a, &b, k);
                assert_eq!(stats.screened, (m * n) as u64);
                assert!(stats.rescored >= kept);
                // The screen must actually save exact dots once the
                // catalog dwarfs k.
                if n >= 300 {
                    assert!(stats.rescored < stats.screened / 2, "{tier:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn adversarial_magnitudes_and_near_ties_stay_exact() {
        // Items that differ by less than any plausible screen resolution:
        // the screen cannot tell them apart, so it must rescore enough of
        // them for the exact comparison (and the id tie-break) to decide.
        let f = 24usize;
        let mut a = random_matrix(3, f, 5);
        // Amplify so absolute score gaps sit near the f32 ulp.
        for v in a.as_mut_slice() {
            *v *= 100.0;
        }
        let base = random_matrix(1, f, 7);
        let n = 40usize;
        // Tiny per-row perturbation, far below f32 resolution at this
        // magnitude; several rows are exact duplicates (r / 4).
        let near_ties = Matrix::from_fn(n, f, |r, c| base.get(0, c) + ((r / 4) as f64) * 1e-13);
        // One item with a huge outlier coordinate: its other int8 codes
        // collapse toward zero, maximizing quantization error (coarse
        // codes, wide envelopes, heavy rescoring).
        let mut outlier = near_ties.clone();
        outlier.set(n - 1, 0, 1e6);
        for tier in ScreenTier::ALL {
            for b in [&near_ties, &outlier] {
                let (heaps, _) = screen_all(tier, &a, b, 5, ColumnIds::Offset(0));
                assert_bit_identical(tier, heaps, &a, b, 5);
            }
        }
    }

    #[test]
    fn all_zero_rows_screen_cleanly() {
        // Zero users and zero items quantize to scale 1 / all-zero codes
        // (and round to exact zeros); every bound degenerates to exactly 0
        // and the rescore still reproduces the f64 ordering (ids break the
        // ties).
        let a = Matrix::<f64>::zeros(2, 6);
        let mut b = random_matrix(9, 6, 3);
        for c in 0..6 {
            b.set(4, c, 0.0);
        }
        for tier in ScreenTier::ALL {
            let (heaps, _) = screen_all(tier, &a, &b, 3, ColumnIds::Offset(0));
            assert_bit_identical(tier, heaps, &a, &b, 3);
        }
    }

    #[test]
    fn preloaded_heaps_match_the_f64_path_with_the_same_preload() {
        let a = random_matrix(2, 9, 31);
        let b = random_matrix(25, 9, 32);
        let preload = [(2.5f64, 900u32), (0.1, 901), (-3.0, 902)];
        for tier in ScreenTier::ALL {
            let mut screened = fresh_heaps(2, 4);
            let mut direct = fresh_heaps(2, 4);
            for heap in screened.iter_mut().chain(direct.iter_mut()) {
                for &(s, id) in &preload {
                    heap.push(s, id);
                }
            }
            screen_into(tier, &a, &b, &mut screened, ColumnIds::Offset(0));
            stream_topk_into_heaps(
                (&a).into(),
                (&b).into(),
                &mut direct,
                ColumnIds::Offset(0),
                &mut GemmScratch::new(),
            );
            for (s, d) in screened.into_iter().zip(direct) {
                let (s, d) = (s.into_sorted(), d.into_sorted());
                assert_eq!(s.items, d.items, "{tier:?}");
                for (gs, ws) in s.scores.iter().zip(&d.scores) {
                    assert_eq!(gs.to_bits(), ws.to_bits(), "{tier:?}");
                }
            }
        }
    }

    #[test]
    fn mapped_ids_and_k_edges() {
        let a = random_matrix(2, 5, 7);
        let b = random_matrix(4, 5, 8);
        let map = [40u32, 30, 20, 10];
        let plain = gemm_nt_topk((&a).into(), (&b).into(), 2, &mut GemmScratch::new());
        for tier in ScreenTier::ALL {
            let (heaps, _) = screen_all(tier, &a, &b, 2, ColumnIds::Mapped(&map));
            for (heap, want) in heaps.into_iter().zip(&plain) {
                let got = heap.into_sorted();
                let translated: Vec<u32> = want.items.iter().map(|&j| map[j as usize]).collect();
                assert_eq!(got.items, translated);
                assert_eq!(got.scores, want.scores);
            }

            // k = 0 collects nothing and rescores nothing.
            let (heaps, stats) = screen_all(tier, &a, &b, 0, ColumnIds::Offset(0));
            assert!(heaps.iter().all(TopKHeap::is_empty));
            assert_eq!(stats.rescored, 0);

            // k ≥ n keeps everything.
            let (heaps, stats) = screen_all(tier, &a, &b, 10, ColumnIds::Offset(0));
            assert!(heaps.iter().all(|h| h.len() == 4));
            assert_eq!(stats.rescored, 8);
        }
    }

    /// `ScreenStats::rescored` recounted naively from the module docs'
    /// definition: `L̂` is the k-th largest lower bound over every column
    /// and the seeded entries, and the survivors are the columns whose
    /// upper bound reaches it (plus every column without a bound). The
    /// floor makes the pass offer fewer columns; this pins that `L̂` and the
    /// survivor set stay where they were — at k on both sides of the
    /// floor's `width ≥ 4k` boundary (4096 is the tiers' block width, so
    /// k = 1024 primes and 1025 does not), past the catalog, and with
    /// seeds that fill part of a heap.
    fn survivors_recount<T: ScreenElem>() {
        let (m, n, f) = (4usize, 4096 + 300, 13usize);
        let a = random_matrix(m, f, 71);
        let b = random_matrix(n, f, 72);
        let (users, items) = (store::<T>(&a), store::<T>(&b));
        // The pass's own accumulators: same kernel, same blocking.
        let mut accs = vec![T::Acc::default(); m * n];
        mips_linalg::gemm_nt_into(users.row_block(0, m), items.row_block(0, n), &mut accs);
        let seeds = [(0.4f64, 90_000u32), (-0.2, 90_001)];
        for k in [1usize, 2, 10, 75, 1024, 1025, n, n + 3] {
            let mut heaps = fresh_heaps(m, k);
            for heap in &mut heaps {
                for &(score, id) in &seeds {
                    heap.push(score, id);
                }
            }
            let seeded: Vec<Vec<f64>> = heaps
                .iter()
                .map(|h| h.entries().iter().map(|e| e.score).collect())
                .collect();
            let stats = screen_topk_into_heaps(
                (&a).into(),
                (&b).into(),
                users.view(),
                items.view(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut ScreenScratch::new(),
            );
            let mut want = 0u64;
            for (r, seeded) in seeded.iter().enumerate() {
                let offer = T::offer(f, users.terms(), r);
                let bounds: Vec<Option<(f64, f64)>> = (0..n)
                    .map(|c| T::bound(&offer, accs[r * n + c], items.terms(), c))
                    .collect();
                let mut lows: Vec<f64> = bounds.iter().flatten().map(|(s, e)| s - e).collect();
                lows.extend(seeded);
                lows.sort_by(|x, y| y.total_cmp(x));
                let l_hat = lows.get(k - 1).copied().unwrap_or(f64::NEG_INFINITY);
                want += bounds
                    .iter()
                    .filter(|b| b.map_or(true, |(s, e)| s + e >= l_hat))
                    .count() as u64;
            }
            assert_eq!(stats.rescored, want, "{:?} k={k}", T::TIER);
        }
    }

    #[test]
    fn survivors_are_the_columns_whose_upper_bound_reaches_the_kth_lower_bound() {
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => survivors_recount::<T>());
        }
    }

    #[test]
    fn i8_candidate_sets_are_identical_across_kernel_sets() {
        // Stronger than the f32 screen can promise: the integer screen
        // scores are kernel-invariant, so even the *intermediate* candidate
        // counts agree between the dispatched and scalar kernels.
        let a = random_matrix(4, 19, 41);
        let b = random_matrix(60, 19, 42);
        let (users, items) = (store::<i8>(&a), store::<i8>(&b));
        let mut counts = Vec::new();
        for kern in &kernels() {
            let mut heaps = fresh_heaps(4, 6);
            let stats = screen_topk_into_heaps_with(
                kern,
                None,
                (&a).into(),
                (&b).into(),
                users.view(),
                items.view(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut ScreenScratch::new(),
            );
            counts.push(stats.rescored);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// Same candidates, same survivors, same heaps — whether the item side
    /// arrives as rows or as panels packed once, and however the multiply
    /// is blocked (tiny blocks force partial tiles, several depth passes
    /// and several row blocks per panel).
    fn prepacked_panels_and_tiny_blocks_change_nothing<T: ScreenElem>() {
        let a = random_matrix(11, 23, 51);
        let b = random_matrix(75, 23, 52);
        let tiny = BlockSizes {
            mc: 8,
            kc: 6,
            nc: 32,
        };
        let (users, items) = (store::<T>(&a), store::<T>(&b));
        let panels = PackedPanels::pack(items.row_block(0, 75));
        let run = |items: TierView<'_, T>, blocks: Option<&BlockSizes>| {
            let mut heaps = fresh_heaps(11, 5);
            let stats = screen_topk_into_heaps_with(
                simd::active(),
                blocks,
                (&a).into(),
                (&b).into(),
                users.view(),
                items,
                &mut heaps,
                ColumnIds::Offset(0),
                &mut ScreenScratch::new(),
            );
            (stats, sorted(heaps))
        };
        let tier = T::TIER;
        let want = run(items.view(), None);
        let packed = items.view().with_panels(&panels);
        assert_eq!(run(packed, None), want, "{tier:?} prepacked");
        assert_eq!(
            run(items.view(), Some(&tiny)).1,
            want.1,
            "{tier:?} tiny blocks"
        );
        let direct = gemm_nt_topk((&a).into(), (&b).into(), 5, &mut GemmScratch::new());
        assert_eq!(want.1, direct, "{tier:?} vs f64-direct");
    }

    #[test]
    fn prepacked_item_panels_screen_like_the_rows_under_tiny_blocks_too() {
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => prepacked_panels_and_tiny_blocks_change_nothing::<T>());
        }
    }

    #[test]
    fn non_finite_f32_scores_are_kept_and_rescored_under_every_kernel() {
        // Magnitudes whose f32 products overflow: the screen sees +∞, −∞
        // and NaN (∞ − ∞) scores, which carry no bound — the filter must
        // flag those lanes and the frame keep them, under the SIMD and the
        // scalar filter alike, with tying scores and mapped ids in play.
        let f = 6usize;
        let a = Matrix::from_fn(4, f, |r, c| [1.0e20, -1.0e20, 3.0, -2.0][(r + c) % 4]);
        let b = Matrix::from_fn(37, f, |r, c| match r % 5 {
            0 => [1.0e20, 1.0e20, -1.0e20][c % 3],
            1 => 1.0e19,
            _ => ((r * 7 + c * 3) % 5) as f64 - 2.0,
        });
        let map: Vec<u32> = (0..37u32).rev().collect();
        let (users, items) = (store::<f32>(&a), store::<f32>(&b));
        for k in [0usize, 1, 6, 37] {
            let mut want = fresh_heaps(4, k);
            stream_topk_into_heaps(
                (&a).into(),
                (&b).into(),
                &mut want,
                ColumnIds::Mapped(&map),
                &mut GemmScratch::new(),
            );
            let want = sorted(want);
            for kern in &kernels() {
                let mut heaps = fresh_heaps(4, k);
                let stats = screen_topk_into_heaps_with(
                    kern,
                    None,
                    (&a).into(),
                    (&b).into(),
                    users.view(),
                    items.view(),
                    &mut heaps,
                    ColumnIds::Mapped(&map),
                    &mut ScreenScratch::new(),
                );
                assert_eq!(sorted(heaps), want, "{} k={k}", kern.name());
                // Overflowed columns cannot be pruned once there is a heap
                // to fill.
                assert!(k == 0 || stats.rescored >= 4 * 8, "{} k={k}", kern.name());
                assert!(k > 0 || stats.rescored == 0);
            }
        }
    }

    /// The bound heaps and candidate lists are reset, not reallocated,
    /// between batches — at a different k and row count each time.
    fn recycled_scratch_screens_like_fresh<T: ScreenElem>() {
        let a = random_matrix(6, 9, 61);
        let b = random_matrix(50, 9, 62);
        let (users, items) = (store::<T>(&a), store::<T>(&b));
        let mut scratch = ScreenScratch::new();
        for (rows, k) in [(6usize, 4usize), (2, 9), (5, 0), (6, 1)] {
            let mut heaps = fresh_heaps(rows, k);
            screen_topk_into_heaps(
                a.row_block(0, rows),
                (&b).into(),
                users.view().rows(0..rows),
                items.view(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut scratch,
            );
            let want = gemm_nt_topk(
                a.row_block(0, rows),
                (&b).into(),
                k,
                &mut GemmScratch::new(),
            );
            assert_eq!(sorted(heaps), want, "{:?} rows {rows} k {k}", T::TIER);
        }
    }

    #[test]
    fn a_recycled_scratch_screens_like_a_fresh_one() {
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => recycled_scratch_screens_like_fresh::<T>());
        }
    }

    #[test]
    #[should_panic(expected = "one heap per query row")]
    fn rejects_mismatched_heap_count() {
        let a = random_matrix(3, 4, 1);
        let b = random_matrix(2, 4, 2);
        screen_into(
            ScreenTier::F32,
            &a,
            &b,
            &mut vec![TopKHeap::new(1); 2],
            ColumnIds::Offset(0),
        );
    }

    #[test]
    #[should_panic(expected = "item side shape")]
    fn rejects_a_side_that_does_not_mirror_its_f64_block() {
        let a = random_matrix(1, 4, 1);
        let b = random_matrix(3, 4, 2);
        screen_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            store::<i8>(&a).view(),
            store::<i8>(&b).view().rows(0..2),
            &mut [TopKHeap::new(1)],
            ColumnIds::Offset(0),
            &mut ScreenScratch::new(),
        );
    }

    #[test]
    fn user_sub_blocks_screen_like_the_rows_they_cover() {
        fn check<T: ScreenElem>() {
            let a = random_matrix(7, 9, 5);
            let b = random_matrix(40, 9, 6);
            let (users, items) = (store::<T>(&a), store::<T>(&b));
            let mut heaps = fresh_heaps(3, 4);
            screen_topk_into_heaps(
                a.row_block(2, 5),
                (&b).into(),
                users.view().rows(2..5),
                items.view(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut ScreenScratch::new(),
            );
            let want = gemm_nt_topk(a.row_block(2, 5), (&b).into(), 4, &mut GemmScratch::new());
            assert_eq!(sorted(heaps), want, "{:?}", T::TIER);
        }
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => check::<T>());
        }
    }

    #[test]
    fn point_screen_upper_bounds_dominate_the_exact_scores() {
        let items = random_matrix(80, 12, 3);
        let users = random_matrix(5, 12, 4);
        for tier in ScreenTier::ALL {
            let mirror = ItemMirror::build(&items, tier).unwrap();
            assert_eq!(mirror.tier(), tier);
            let other = ScreenTier::ALL[(tier.index() + 1) % ScreenTier::ALL.len()];
            let mismatched = ItemMirror::build(&items, other).unwrap();
            let mut tightest = f64::INFINITY;
            for user in users.iter_rows() {
                let screen = UserScreen::arm(user, tier).unwrap();
                for (r, item) in items.iter_rows().enumerate() {
                    let exact = dot(user, item);
                    let ub = screen.upper_bound(&mirror, r);
                    assert!(ub >= exact, "{tier:?} row {r}: {ub} < {exact}");
                    tightest = tightest.min(ub - exact);
                    // A mirror of another tier carries no bound.
                    assert_eq!(screen.upper_bound(&mismatched, r), f64::INFINITY);
                }
            }
            assert!(tightest.is_finite(), "{tier:?} never produced a bound");
        }
        // An overflowed f32 product screens to +∞ instead of pruning.
        let huge = Matrix::from_rows(&[vec![1.0e30, 1.0]]).unwrap();
        let mirror = ItemMirror::build(&huge, ScreenTier::F32).unwrap();
        let screen = UserScreen::arm(&[1.0e30, 1.0], ScreenTier::F32).unwrap();
        assert_eq!(screen.upper_bound(&mirror, 0), f64::INFINITY);
    }

    #[test]
    fn rows_a_tier_cannot_store_arm_and_mirror_as_none() {
        // Subnormal magnitudes break int8 quantization, values past the f32
        // range the f32 rounding; the other tier still serves each.
        let tiny = Matrix::from_rows(&[vec![1.0e-320, 0.0], vec![1.0, 2.0]]).unwrap();
        assert!(ItemMirror::build(&tiny, ScreenTier::I8).is_none());
        assert!(ItemMirror::build(&tiny, ScreenTier::F32).is_some());
        assert!(UserScreen::arm(&[1.0e-320; 6], ScreenTier::I8).is_none());
        assert!(UserScreen::arm(&[1.0e-320; 6], ScreenTier::F32).is_some());
        let huge = Matrix::from_rows(&[vec![1.0e300, 0.0]]).unwrap();
        assert!(ItemMirror::build(&huge, ScreenTier::F32).is_none());
        assert!(ItemMirror::build(&huge, ScreenTier::I8).is_some());
        assert!(UserScreen::arm(&[1.0e300, 1.0], ScreenTier::F32).is_none());
    }
}
