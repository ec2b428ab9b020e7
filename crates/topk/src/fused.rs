//! Fused GEMM→top-k: selection runs on cache-warm score panels.
//!
//! The unfused BMM pipeline materializes the whole `batch × n` score buffer,
//! then re-reads it for heap selection — a full round-trip through memory
//! for data that is consumed once and discarded. The paper's §II-B argument
//! (hardware efficiency comes from keeping the working set cache-resident)
//! applies to our own serving loop as much as to the multiply itself, so
//! this module fuses the two stages: the block-streaming GEMM driver
//! ([`mips_linalg::gemm_nt_stream_blocks`]) hands each finished `MC × NC`
//! block of scores straight to the per-row [`TopKHeap`]s while the block is
//! still resident in cache, and only one block of scores ever exists.
//!
//! Selection is a vector compare: the kernel set's threshold filter
//! ([`Kernel::next_hit_f64`]) skips four scores per instruction and the
//! scalar admission rule runs only on the lanes it flags. A row whose heap
//! is still filling first gets a **floor**: the k-th largest of ≈ `2k`
//! group maxima of its block ([`Kernel::group_max_f64`]), k real scores
//! the filter then runs against instead of `−∞` — so a fresh heap admits
//! about `2k` columns of its first block rather than `k·(1 + ln(n/k))`.
//! The rule and the argument that it keeps every heap's set are in the
//! crate's admission module; [`crate::select`] runs the same rule.
//!
//! Exactness is unaffected: the heap's `(score, id)` ordering is total, so
//! the retained top-k set is independent of the order in which columns are
//! offered and of which provably losing columns are never offered, and the
//! `_with` variants pin the micro-kernel set so the `fused_exactness`
//! property suite can compare the SIMD and forced-scalar paths bit for bit.

use crate::admit;
use crate::heap::TopKHeap;
use crate::list::TopKList;
use mips_linalg::simd::{self, Kernel};
use mips_linalg::{BlockSizes, GemmB, GemmElem, GemmScratch, RowBlock};
use std::ops::Range;

/// How panel columns map to item ids.
///
/// A scan over the catalog in its own order takes `Offset` (usually 0);
/// MAXIMUS — brute force included, its one-cluster walk — scores a
/// cluster's items in bound-sorted list order and needs each column
/// translated back to its global item id (`Mapped`).
#[derive(Debug, Clone, Copy)]
pub enum ColumnIds<'a> {
    /// Column `j` of B is item `offset + j`.
    Offset(u32),
    /// Column `j` of B is item `ids[j]`.
    Mapped(&'a [u32]),
}

impl ColumnIds<'_> {
    /// The item id of column `col`.
    #[inline(always)]
    pub(crate) fn id(self, col: usize) -> u32 {
        match self {
            ColumnIds::Offset(off) => off + col as u32,
            ColumnIds::Mapped(map) => map[col],
        }
    }
}

/// Fused `A·Bᵀ` → per-row top-k: returns one sorted [`TopKList`] per row of
/// `a`, identical to `gemm_nt` + `rows_topk` but without materializing the
/// `m × n` score buffer.
///
/// `scratch` is reused across calls; own one per query loop / worker thread.
///
/// # Panics
/// Panics if the operand widths differ.
pub fn gemm_nt_topk(
    a: RowBlock<'_, f64>,
    b: RowBlock<'_, f64>,
    k: usize,
    scratch: &mut GemmScratch<f64>,
) -> Vec<TopKList> {
    gemm_nt_topk_with(simd::active(), &f64::BLOCKS, a, b, k, scratch)
}

/// [`gemm_nt_topk`] with explicit kernel set and blocking parameters (the
/// forced-scalar / odd-blocking test entry).
pub fn gemm_nt_topk_with(
    kern: &Kernel,
    blocks: &BlockSizes,
    a: RowBlock<'_, f64>,
    b: RowBlock<'_, f64>,
    k: usize,
    scratch: &mut GemmScratch<f64>,
) -> Vec<TopKList> {
    let mut heaps: Vec<TopKHeap> = (0..a.rows()).map(|_| TopKHeap::new(k)).collect();
    let b = b.into();
    stream_topk_into_heaps_with(
        kern,
        blocks,
        a,
        b,
        &mut heaps,
        ColumnIds::Offset(0),
        scratch,
    );
    heaps.into_iter().map(TopKHeap::into_sorted).collect()
}

/// Streams `A·Bᵀ` score blocks into caller-owned heaps (one per row of `a`),
/// mapping columns to item ids via `ids`. `b` is rows or panels packed once
/// ([`mips_linalg::PackedPanels`]) — same scores either way.
///
/// The heaps may already hold entries; this is how MAXIMUS fuses its shared
/// list-prefix multiply with per-user selection and then keeps walking the
/// remainder of the list with the same heaps.
///
/// # Panics
/// Panics if `heaps.len() != a.rows()`, if a mapped id slice is shorter than
/// `b.rows()`, or if the operand widths differ.
pub fn stream_topk_into_heaps(
    a: RowBlock<'_, f64>,
    b: GemmB<'_, f64>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut GemmScratch<f64>,
) {
    stream_topk_into_heaps_with(simd::active(), &f64::BLOCKS, a, b, heaps, ids, scratch)
}

/// [`stream_topk_into_heaps`] with explicit kernel set and blocking
/// parameters.
pub fn stream_topk_into_heaps_with(
    kern: &Kernel,
    blocks: &BlockSizes,
    a: RowBlock<'_, f64>,
    b: GemmB<'_, f64>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut GemmScratch<f64>,
) {
    assert_eq!(heaps.len(), a.rows(), "stream_topk: one heap per query row");
    if let ColumnIds::Mapped(map) = ids {
        assert!(
            map.len() >= b.rows(),
            "stream_topk: id map shorter than item count"
        );
    }
    offer_blocks(kern, heaps, ids, scratch, |scratch, consumer| {
        mips_linalg::gemm_nt_stream_blocks_with(kern, a, b, blocks, scratch, consumer)
    });
}

/// [`stream_topk_into_heaps`] over items `ids` of `items` (column `j` is
/// item `ids[j]`), every score one chain read from the item's row
/// ([`mips_linalg::chain_nt_stream_blocks_with`]): nothing is packed. The
/// heaps are offered the bits a multiply over
/// [`GemmB::Gathered`]`(items, ids)` gives, by the same admission rule —
/// the path for a few query rows, whose multiply costs less than packing
/// its B side.
///
/// # Panics
/// Panics if `heaps.len() != a.rows()`, if an id is out of range, or if
/// the operand widths differ.
pub fn chain_topk_into_heaps(
    a: RowBlock<'_, f64>,
    items: RowBlock<'_, f64>,
    ids: &[u32],
    heaps: &mut [TopKHeap],
    scratch: &mut GemmScratch<f64>,
) {
    chain_topk_into_heaps_with(simd::active(), &f64::BLOCKS, a, items, ids, heaps, scratch)
}

/// [`chain_topk_into_heaps`] with explicit kernel set and blocking
/// parameters.
pub fn chain_topk_into_heaps_with(
    kern: &Kernel,
    blocks: &BlockSizes,
    a: RowBlock<'_, f64>,
    items: RowBlock<'_, f64>,
    ids: &[u32],
    heaps: &mut [TopKHeap],
    scratch: &mut GemmScratch<f64>,
) {
    assert_eq!(heaps.len(), a.rows(), "stream_topk: one heap per query row");
    let mapped = ColumnIds::Mapped(ids);
    offer_blocks(kern, heaps, mapped, scratch, |scratch, consumer| {
        mips_linalg::chain_nt_stream_blocks_with(kern, a, items, ids, blocks, scratch, consumer)
    });
}

/// Runs `drive`, a block-streaming multiply over `scratch`, offering each
/// row of every block it hands out to that row's heap.
fn offer_blocks(
    kern: &Kernel,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut GemmScratch<f64>,
    drive: impl FnOnce(&mut GemmScratch<f64>, &mut dyn FnMut(&[f64], Range<usize>, Range<usize>)),
) {
    scratch.with_maxima(|scratch, maxima| {
        drive(scratch, &mut |block, rows, cols| {
            for (scores, heap) in block.chunks_exact(cols.len()).zip(&mut heaps[rows]) {
                admit::offer_scores(kern, scores, heap, ids, cols.start, maxima);
            }
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::rows_topk;
    use mips_linalg::{gemm_nt, Matrix};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn fused_matches_unfused_reference() {
        let mut scratch = GemmScratch::new();
        for &(m, n, f, k) in &[
            (1usize, 1usize, 1usize, 1usize),
            (3, 17, 7, 4),
            (9, 50, 12, 5),
            (33, 70, 31, 10),
            (5, 2048 + 13, 6, 3), // crosses an NC panel boundary
        ] {
            let a = random_matrix(m, f, 100 + m as u64);
            let b = random_matrix(n, f, 200 + n as u64);
            let fused = gemm_nt_topk((&a).into(), (&b).into(), k, &mut scratch);
            let scores = gemm_nt(&a, &b);
            let want = rows_topk(scores.as_slice(), m, n, k);
            assert_eq!(fused, want, "m={m} n={n} f={f} k={k}");
        }
    }

    #[test]
    fn fused_k_edge_cases() {
        let a = random_matrix(4, 6, 1);
        let b = random_matrix(9, 6, 2);
        let mut scratch = GemmScratch::new();
        let zero = gemm_nt_topk((&a).into(), (&b).into(), 0, &mut scratch);
        assert!(zero.iter().all(TopKList::is_empty));
        let all = gemm_nt_topk((&a).into(), (&b).into(), 100, &mut scratch);
        assert!(all.iter().all(|l| l.len() == 9));
        // Zero-depth operands: every score is 0, ids win by tie-break.
        let a0 = Matrix::<f64>::zeros(2, 0);
        let b0 = Matrix::<f64>::zeros(3, 0);
        let lists = gemm_nt_topk((&a0).into(), (&b0).into(), 2, &mut scratch);
        assert_eq!(lists.len(), 2);
        for l in &lists {
            assert_eq!(l.items, vec![0, 1]);
            assert_eq!(l.scores, vec![0.0, 0.0]);
        }
        // No rows / no items.
        assert!(gemm_nt_topk(a.row_block(0, 0), (&b).into(), 3, &mut scratch).is_empty());
        let empty_b = gemm_nt_topk((&a).into(), b.row_block(0, 0), 3, &mut scratch);
        assert!(empty_b.iter().all(TopKList::is_empty));
    }

    #[test]
    fn mapped_ids_translate_columns() {
        let a = random_matrix(2, 5, 7);
        let b = random_matrix(4, 5, 8);
        let map = [40u32, 30, 20, 10];
        let mut heaps: Vec<TopKHeap> = (0..2).map(|_| TopKHeap::new(2)).collect();
        let mut scratch = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut heaps,
            ColumnIds::Mapped(&map),
            &mut scratch,
        );
        let mut scratch2 = GemmScratch::new();
        let plain = gemm_nt_topk((&a).into(), (&b).into(), 2, &mut scratch2);
        for (heap, want) in heaps.into_iter().zip(plain) {
            let got = heap.into_sorted();
            let translated: Vec<u32> = want.items.iter().map(|&j| map[j as usize]).collect();
            assert_eq!(got.items, translated);
            assert_eq!(got.scores, want.scores);
        }
    }

    #[test]
    fn offset_ids_shift_columns() {
        let a = random_matrix(1, 4, 3);
        let b = random_matrix(3, 4, 4);
        let mut heaps = vec![TopKHeap::new(3)];
        let mut scratch = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut heaps,
            ColumnIds::Offset(1000),
            &mut scratch,
        );
        let got = heaps.pop().unwrap().into_sorted();
        assert!(got.items.iter().all(|&id| (1000..1003).contains(&id)));
    }

    #[test]
    fn preloaded_heaps_keep_earlier_entries() {
        // MAXIMUS-style use: heaps already hold entries from a prior phase.
        let a = random_matrix(1, 3, 11);
        let b = random_matrix(2, 3, 12);
        let mut heaps = vec![TopKHeap::new(3)];
        heaps[0].push(1e9, 777); // unbeatable prior entry
        let mut scratch = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut heaps,
            ColumnIds::Offset(0),
            &mut scratch,
        );
        let got = heaps.pop().unwrap().into_sorted();
        assert_eq!(got.items[0], 777);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn tying_candidate_with_smaller_mapped_id_displaces_root() {
        // Column order ≠ id order: item id 1 arrives *after* the heap is
        // full of equal scores with larger ids. The threshold shortcut must
        // still offer it so the smaller-id tie-break can win.
        let a = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        let b = Matrix::from_vec(3, 1, vec![5.0, 5.0, 5.0]).unwrap();
        let map = [9u32, 4, 1];
        let mut heaps = vec![TopKHeap::new(2)];
        let mut scratch = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut heaps,
            ColumnIds::Mapped(&map),
            &mut scratch,
        );
        let got = heaps.pop().unwrap().into_sorted();
        assert_eq!(got.items, vec![1, 4]);
    }

    #[test]
    fn chains_fill_heaps_like_a_gathered_multiply() {
        // Rows picked by ids out of order, with ties among repeated ids,
        // past a column panel and a chain group, into heaps some of which
        // already hold entries: the chains leave every heap as a multiply
        // over the gathered rows does, ids and score bits, under the
        // scalar and the dispatched kernels.
        let tiny = BlockSizes {
            mc: 2,
            kc: 3,
            nc: 24,
        };
        let (m, n, f) = (5, 90, 13);
        let a = random_matrix(m, f, 21);
        let b = random_matrix(n, f, 22);
        let ids: Vec<u32> = (0..n as u32)
            .map(|i| (i * 53 + 7) % n as u32)
            .chain([4, 4, 17])
            .collect();
        let bits = |heaps: Vec<TopKHeap>| -> Vec<(Vec<u32>, Vec<u64>)> {
            let lists = heaps.into_iter().map(TopKHeap::into_sorted);
            lists
                .map(|l| (l.items, l.scores.iter().map(|s| s.to_bits()).collect()))
                .collect()
        };
        for kern in [Kernel::scalar(), *simd::active()] {
            for blocks in [&f64::BLOCKS, &tiny] {
                for k in [1usize, 7, 100] {
                    let fresh = || {
                        let mut heaps = vec![TopKHeap::new(k); m];
                        heaps[2].push(0.25, 3);
                        heaps
                    };
                    let (mut chained, mut multiplied) = (fresh(), fresh());
                    let mut scratch = GemmScratch::new();
                    let (a, b) = ((&a).into(), (&b).into());
                    chain_topk_into_heaps_with(
                        &kern,
                        blocks,
                        a,
                        b,
                        &ids,
                        &mut chained,
                        &mut scratch,
                    );
                    stream_topk_into_heaps_with(
                        &kern,
                        blocks,
                        a,
                        GemmB::Gathered(b, &ids),
                        &mut multiplied,
                        ColumnIds::Mapped(&ids),
                        &mut scratch,
                    );
                    assert_eq!(bits(chained), bits(multiplied), "{} k={k}", kern.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one heap per query row")]
    fn rejects_mismatched_heap_count() {
        let a = random_matrix(3, 4, 1);
        let b = random_matrix(2, 4, 2);
        let mut heaps = vec![TopKHeap::new(1); 2];
        let mut scratch = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut heaps,
            ColumnIds::Offset(0),
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "id map shorter")]
    fn rejects_short_id_map() {
        let a = random_matrix(1, 4, 1);
        let b = random_matrix(3, 4, 2);
        let mut heaps = vec![TopKHeap::new(1)];
        let mut scratch = GemmScratch::new();
        stream_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            &mut heaps,
            ColumnIds::Mapped(&[1, 2]),
            &mut scratch,
        );
    }
}
