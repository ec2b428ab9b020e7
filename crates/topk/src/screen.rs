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
//!    and offer the screen score `ŝ` with `env`, a bound on the tier's total
//!    error against the exact score, to the user's [`Shortlist`].
//! 2. **Rescore** — [`Shortlist::finish`]: each surviving candidate is
//!    rescored in f64 with the GEMM per-element reduction and pushed into
//!    the caller's heap.
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
//! Everything around the pass — shape checks, the per-user shortlists and
//! the floor — exists once and is shared; why the shortlist's rescore
//! loses no true top-k member is argued in [`crate::canonical`].
//!
//! **The floor.** While a user's bound heap is not yet full, each block's
//! row is first primed with a floor `θ`: the k-th largest of ≈ `2k` group
//! maxima of the row's *lower bounds* `ŝ − env` (the tier's
//! [`mips_linalg::ScreenElem::group_max`], the same operations as the
//! offer rule; a column without a bound contributes none). The row is then
//! filtered and offered against `max(bound heap threshold, θ)`. This moves
//! neither `L̂`, the bound heap's final threshold, nor the survivor set:
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
//! recount test in this module pins it per tier. The floor is the one
//! thing the block screen adds to the [`Shortlist`]
//! ([`Shortlist::set_floor`]).
//!
//! The `exactness` driver in `mips-core` asserts bit-identity to f64-direct
//! for every backend's tier variants, the `precision_identity` suite end to
//! end.
//!
//! The item side need not be the whole catalog: the rescore reads each
//! column's f64 row from the catalog by its id, so a gathered subset in
//! tier storage (a part of a MAXIMUS list, packed panels plus terms,
//! under [`ColumnIds::Mapped`]) screens without an f64 copy of its own,
//! and a pass over several such parts
//! ([`screen_parts_topk_into_heaps`]) keeps each user's shortlist open
//! across them and rescores once.

use crate::admit;
use crate::canonical::Shortlist;
use crate::fused::ColumnIds;
use crate::heap::TopKHeap;
use mips_linalg::simd::{self, Kernel};
use mips_linalg::{
    gemm_nt_stream_blocks_with, BlockSizes, GemmScratch, RowBlock, ScreenElem, TierView,
};

pub use mips_linalg::ScreenTier;

/// Reusable buffers for [`screen_parts_topk_into_heaps_with`]: one [`Shortlist`]
/// per user row, plus the pass's GEMM scratch. Own one per query loop /
/// worker thread, like [`GemmScratch`].
#[derive(Debug)]
pub struct ScreenScratch<T: ScreenElem> {
    gemm: GemmScratch<T>,
    shortlists: Vec<Shortlist>,
}

impl<T: ScreenElem> Default for ScreenScratch<T> {
    fn default() -> Self {
        ScreenScratch {
            gemm: GemmScratch::new(),
            shortlists: Vec::new(),
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

/// Screens `A·Bᵀ` in the tier of `users` and the item `parts` and streams
/// exact f64 rescored survivors into caller-owned heaps — same contract
/// and output as [`crate::fused::stream_topk_into_heaps`] over the f64 rows
/// the parts mirror, different execution.
///
/// `users` must mirror `a64` row for row. `b64` is the f64 catalog the
/// ids index: column `j` of a part mirrors row `ids.id(j)` of `b64`, and
/// the rescore reads that row. A part that is the whole catalog takes
/// `ColumnIds::Offset(0)`; one gathered from it (a part of a MAXIMUS list)
/// takes its id map and needs no f64 copy of its own. Every part is
/// screened against the same user rows, and each user's [`Shortlist`]
/// stays open across them, so the survivors are rescored once, at the end
/// — exactly the survivors and heaps of one screen over the parts laid end
/// to end. Every id must name a different item.
///
/// # Panics
/// Panics if `heaps.len() != a.rows()`, if any side disagrees with `a64`
/// on width or the user side on rows, if a mapped id slice is shorter than
/// its part, or if an id lies past `b64`.
pub fn screen_parts_topk_into_heaps<T: ScreenElem>(
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    users: TierView<'_, T>,
    parts: &[(TierView<'_, T>, ColumnIds<'_>)],
    heaps: &mut [TopKHeap],
    scratch: &mut ScreenScratch<T>,
) -> ScreenStats {
    screen_parts_topk_into_heaps_with(simd::active(), None, a64, b64, users, parts, heaps, scratch)
}

/// [`screen_parts_topk_into_heaps`] with explicit kernel set and blocking
/// parameters (`None`: the tier's default) — the forced-scalar test entry.
#[allow(clippy::too_many_arguments)]
pub fn screen_parts_topk_into_heaps_with<T: ScreenElem>(
    kern: &Kernel,
    blocks: Option<&BlockSizes>,
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    users: TierView<'_, T>,
    parts: &[(TierView<'_, T>, ColumnIds<'_>)],
    heaps: &mut [TopKHeap],
    scratch: &mut ScreenScratch<T>,
) -> ScreenStats {
    let a = users.row_block();
    let (m, f) = (a64.rows(), a64.cols());
    assert_eq!(heaps.len(), m, "screen_topk: one heap per query row");
    assert_eq!((a.rows(), a.cols()), (m, f), "screen_topk: user side shape");
    for (items, ids) in parts {
        let b = items.gemm_b();
        let n = b.rows();
        assert_eq!(
            (b.cols(), b64.cols()),
            (f, f),
            "screen_topk: item side shape"
        );
        let past_catalog = match *ids {
            ColumnIds::Offset(off) => off as usize + n > b64.rows(),
            ColumnIds::Mapped(map) => {
                assert!(
                    map.len() >= n,
                    "screen_topk: id map shorter than item count"
                );
                map[..n].iter().any(|&id| id as usize >= b64.rows())
            }
        };
        assert!(!past_catalog, "screen_topk: item ids past the f64 catalog");
    }

    // One shortlist per row, seeded with the caller's existing (exact)
    // entries.
    let ScreenScratch { gemm, shortlists } = scratch;
    shortlists.resize_with(m, Shortlist::new);
    for (heap, list) in heaps.iter().zip(&mut *shortlists) {
        list.begin(heap);
    }

    // Screen pass: the tier's multiply, part by part and block by block;
    // each row of a block is primed with the floor of its lower bounds
    // while its bound heap is filling, then goes through the tier's
    // filter, flagged lanes through the offer rule.
    let blocks = blocks.unwrap_or(&T::BLOCKS);
    let user_terms = users.terms();
    let mut screened = 0;
    gemm.with_maxima(|gemm, maxima| {
        for &(items, ids) in parts {
            let b = items.gemm_b();
            screened += (m * b.rows()) as u64;
            gemm_nt_stream_blocks_with(kern, a, b, blocks, gemm, |block, rows, cols| {
                let item_terms = items.rows(cols.clone()).terms();
                for (accs, i) in block.chunks_exact(cols.len()).zip(rows) {
                    let offer = T::offer(f, user_terms, i);
                    let list = &mut shortlists[i];
                    let floor = admit::floor(list.bounds(), accs.len(), maxima, |group, out| {
                        T::group_max(kern, accs, item_terms, offer, group, out)
                    });
                    list.set_floor(floor);
                    let mut from = 0;
                    while let Some(j) =
                        T::next_hit(kern, accs, item_terms, offer, from, list.threshold())
                    {
                        let id = ids.id(cols.start + j);
                        match T::bound(&offer, accs[j], item_terms, j) {
                            Some((score, env)) => list.offer(id, score, env),
                            None => list.keep(id),
                        }
                        from = j + 1;
                    }
                }
            });
        }
    });

    // Rescore pass: each row's survivors, exact f64 from the catalog rows
    // their ids name.
    let rescored = (heaps.iter_mut().zip(&*shortlists).enumerate())
        .map(|(i, (heap, list))| list.finish(kern, a64.row(i), b64, heap))
        .sum();

    ScreenStats { screened, rescored }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{gemm_nt_topk, stream_topk_into_heaps};
    use crate::list::TopKList;
    use mips_linalg::{per_tier, Matrix, PackedPanels, TierRows};

    /// The one-part screen.
    fn screen_topk_into_heaps<T: ScreenElem>(
        a64: RowBlock<'_, f64>,
        b64: RowBlock<'_, f64>,
        users: TierView<'_, T>,
        items: TierView<'_, T>,
        heaps: &mut [TopKHeap],
        ids: ColumnIds<'_>,
        scratch: &mut ScreenScratch<T>,
    ) -> ScreenStats {
        screen_parts_topk_into_heaps(a64, b64, users, &[(items, ids)], heaps, scratch)
    }

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
        // The catalog the ids index, as a MAXIMUS list segment is gathered
        // out of the model's: row `map[j]` is row `j` of `b`, and every
        // other row would rescore to a different score.
        let catalog = Matrix::from_fn(41, 5, |r, c| {
            let column = map.iter().position(|&id| id as usize == r);
            column.map_or(9.0, |j| b.get(j, c))
        });
        let plain = gemm_nt_topk((&a).into(), (&b).into(), 2, &mut GemmScratch::new());
        for tier in ScreenTier::ALL {
            let mut heaps = fresh_heaps(2, 2);
            per_tier!(tier, T => screen_topk_into_heaps(
                (&a).into(),
                (&catalog).into(),
                store::<T>(&a).view(),
                store::<T>(&b).view(),
                &mut heaps,
                ColumnIds::Mapped(&map),
                &mut ScreenScratch::new(),
            ));
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
            let stats = screen_parts_topk_into_heaps_with(
                kern,
                None,
                (&a).into(),
                (&b).into(),
                users.view(),
                &[(items.view(), ColumnIds::Offset(0))],
                &mut heaps,
                &mut ScreenScratch::new(),
            );
            counts.push(stats.rescored);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// Same candidates, same survivors, same heaps — whether the item side
    /// arrives as rows or as panels packed once (whole, or a segment of
    /// them with only its terms beside it), and however the multiply is
    /// blocked (tiny blocks force partial tiles, several depth passes and
    /// several row blocks per panel).
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
        let run = |items: TierView<'_, T>, blocks: Option<&BlockSizes>, first: u32| {
            let mut heaps = fresh_heaps(11, 5);
            let stats = screen_parts_topk_into_heaps_with(
                simd::active(),
                blocks,
                (&a).into(),
                (&b).into(),
                users.view(),
                &[(items, ColumnIds::Offset(first))],
                &mut heaps,
                &mut ScreenScratch::new(),
            );
            (stats, sorted(heaps))
        };
        let tier = T::TIER;
        let want = run(items.view(), None, 0);
        let packed = TierView::packed((&panels).into(), items.terms());
        assert_eq!(run(packed, None, 0), want, "{tier:?} prepacked");
        assert_eq!(
            run(items.view(), Some(&tiny), 0).1,
            want.1,
            "{tier:?} tiny blocks"
        );
        let direct = gemm_nt_topk((&a).into(), (&b).into(), 5, &mut GemmScratch::new());
        assert_eq!(want.1, direct, "{tier:?} vs f64-direct");
        // Rows 32.. alone: a panel-aligned segment of the packed panels,
        // with its terms and no rows, screens like the rows it covers.
        let segment = packed.rows(32..75);
        let want = run(items.view().rows(32..75), None, 32);
        assert_eq!(run(segment, None, 32), want, "{tier:?} packed segment");
        assert_eq!(run(segment, Some(&tiny), 32).1, want.1, "{tier:?} tiny");
        let mut heaps = fresh_heaps(11, 5);
        let mut scratch = GemmScratch::new();
        let rest = b.row_block(32, 75);
        stream_topk_into_heaps(
            (&a).into(),
            rest.into(),
            &mut heaps,
            ColumnIds::Offset(32),
            &mut scratch,
        );
        assert_eq!(want.1, sorted(heaps), "{tier:?} segment vs f64-direct");
    }

    #[test]
    fn prepacked_item_panels_screen_like_the_rows_under_tiny_blocks_too() {
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => prepacked_panels_and_tiny_blocks_change_nothing::<T>());
        }
    }

    /// A screen over parts is one screen over the parts laid end to end:
    /// the same survivors, rescored once, and the same heaps, wherever the
    /// item side is cut — here each part packed on its own, as MAXIMUS
    /// packs its list, with its columns mapped to shuffled ids.
    fn parts_screen_like_the_whole<T: ScreenElem>() {
        let a = random_matrix(9, 21, 61);
        let b = random_matrix(90, 21, 62);
        let users = store::<T>(&a);
        // Column `j` of the item side is item `order[j]` (37 is prime to 90).
        let order: Vec<u32> = (0..90u32).map(|j| j * 37 % 90).collect();
        let items = store::<T>(&b).gather(order.iter().map(|&id| id as usize));
        let run = |parts: &[(TierView<'_, T>, ColumnIds<'_>)]| {
            let mut heaps = fresh_heaps(9, 7);
            let stats = screen_parts_topk_into_heaps(
                (&a).into(),
                (&b).into(),
                users.view(),
                parts,
                &mut heaps,
                &mut ScreenScratch::new(),
            );
            (stats, sorted(heaps))
        };
        let tier = T::TIER;
        let whole = run(&[(items.view(), ColumnIds::Mapped(&order))]);
        let direct = gemm_nt_topk((&a).into(), (&b).into(), 7, &mut GemmScratch::new());
        assert_eq!(whole.1, direct, "{tier:?} vs f64-direct");
        for cuts in [&[0, 16, 90][..], &[0, 32, 48, 90], &[0, 80, 90]] {
            let packed: Vec<PackedPanels<T>> = (cuts.windows(2))
                .map(|w| PackedPanels::pack(items.row_block(w[0], w[1])))
                .collect();
            let parts: Vec<(TierView<'_, T>, ColumnIds<'_>)> = (cuts.windows(2).zip(&packed))
                .map(|(w, panels)| {
                    let terms = items.view().rows(w[0]..w[1]).terms();
                    let ids = ColumnIds::Mapped(&order[w[0]..w[1]]);
                    (TierView::packed(panels.into(), terms), ids)
                })
                .collect();
            assert_eq!(run(&parts), whole, "{tier:?} cut at {cuts:?}");
        }
    }

    #[test]
    fn a_screen_over_parts_is_one_screen_over_the_whole() {
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => parts_screen_like_the_whole::<T>());
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
        // The item side walks the catalog backwards: column `j` is row
        // `36 − j`, reported under that id.
        let map: Vec<u32> = (0..37u32).rev().collect();
        let reversed: Vec<usize> = map.iter().map(|&id| id as usize).collect();
        let (users, items) = (
            store::<f32>(&a),
            store::<f32>(&b).gather(reversed.iter().copied()),
        );
        for k in [0usize, 1, 6, 37] {
            let mut want = fresh_heaps(4, k);
            stream_topk_into_heaps(
                (&a).into(),
                (&b.gather_rows(&reversed)).into(),
                &mut want,
                ColumnIds::Mapped(&map),
                &mut GemmScratch::new(),
            );
            let want = sorted(want);
            for kern in &kernels() {
                let mut heaps = fresh_heaps(4, k);
                let stats = screen_parts_topk_into_heaps_with(
                    kern,
                    None,
                    (&a).into(),
                    (&b).into(),
                    users.view(),
                    &[(items.view(), ColumnIds::Mapped(&map))],
                    &mut heaps,
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
    #[should_panic(expected = "item ids past the f64 catalog")]
    fn rejects_a_side_that_does_not_mirror_its_f64_block() {
        // Three item columns against a two-row catalog: the last column
        // has no f64 row to be rescored from.
        let a = random_matrix(1, 4, 1);
        let b = random_matrix(3, 4, 2);
        screen_topk_into_heaps(
            (&a).into(),
            b.row_block(0, 2),
            store::<i8>(&a).view(),
            store::<i8>(&b).view(),
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
}
