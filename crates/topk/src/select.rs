//! Row-wise top-k selection over dense score buffers.
//!
//! This is the "select the top K items for each user (e.g., using a
//! min-heap)" phase of the BMM brute force (§II-B), over a score buffer
//! that already exists. It runs the fused path's admission rule
//! ([`crate::fused`]): the row is primed with the k-th largest of ≈ `2k`
//! group maxima, then the kernel set's threshold filter
//! ([`mips_linalg::simd::Kernel::next_hit_f64`]) drops most of it four
//! scores per compare and only the flagged lanes reach the heap.

use crate::admit;
use crate::fused::ColumnIds;
use crate::heap::TopKHeap;
use crate::list::TopKList;
use mips_linalg::simd::{self, Kernel};

/// Top-k of one score row; item ids are the column indices.
pub fn row_topk(scores: &[f64], k: usize) -> TopKList {
    row_topk_with(simd::active(), scores, k, &mut Vec::new())
}

/// [`row_topk`] on `kern`, with a reusable group-maxima buffer.
fn row_topk_with(kern: &Kernel, scores: &[f64], k: usize, maxima: &mut Vec<f64>) -> TopKList {
    let mut heap = TopKHeap::new(k);
    admit::offer_scores(kern, scores, &mut heap, ColumnIds::Offset(0), 0, maxima);
    heap.into_sorted()
}

/// Top-k of every row of a dense `rows × items` score buffer.
///
/// # Panics
/// Panics if `scores.len() != rows * items`.
pub fn rows_topk(scores: &[f64], rows: usize, items: usize, k: usize) -> Vec<TopKList> {
    assert_eq!(
        scores.len(),
        rows * items,
        "rows_topk: buffer shape mismatch"
    );
    let (kern, mut maxima) = (simd::active(), Vec::new());
    scores
        .chunks_exact(items.max(1))
        .take(rows)
        .map(|row| row_topk_with(kern, row, k, &mut maxima))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_topk_basic() {
        let scores = [0.1, 0.9, 0.5, 0.9, -1.0];
        let l = row_topk(&scores, 3);
        assert_eq!(l.items, vec![1, 3, 2]);
        assert_eq!(l.scores, vec![0.9, 0.9, 0.5]);
        assert!(l.is_sorted());
    }

    #[test]
    fn row_topk_k_larger_than_row() {
        let l = row_topk(&[2.0, 1.0], 10);
        assert_eq!(l.items, vec![0, 1]);
    }

    #[test]
    fn row_topk_k_zero_and_empty_row() {
        assert!(row_topk(&[1.0, 2.0], 0).is_empty());
        assert!(row_topk(&[], 3).is_empty());
    }

    #[test]
    fn primed_rows_keep_the_smaller_id_on_ties() {
        // Wide enough to prime at k = 2 (8 ≥ 4k); the floor is the tied 5.
        let scores = [5.0, 1.0, 5.0, 0.0, 5.0, 2.0, 3.0, 5.0];
        let l = row_topk(&scores, 2);
        assert_eq!(l.items, vec![0, 2]);
        assert_eq!(l.scores, vec![5.0, 5.0]);
    }

    #[test]
    fn rows_topk_shapes() {
        let scores = vec![1.0, 2.0, 3.0, 6.0, 5.0, 4.0];
        let lists = rows_topk(&scores, 2, 3, 2);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0].items, vec![2, 1]);
        assert_eq!(lists[1].items, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "buffer shape mismatch")]
    fn rows_topk_validates_shape() {
        let _ = rows_topk(&[1.0; 5], 2, 3, 1);
    }
}
