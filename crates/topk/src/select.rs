//! Row-wise top-k selection over dense score buffers.
//!
//! This is the "select the top K items for each user (e.g., using a
//! min-heap)" phase of the BMM brute force (§II-B). The scan skips heap
//! pushes for scores below the current threshold, which matters because the
//! threshold stabilizes quickly: for realistic rating distributions most of
//! the row is dropped four scores per compare by the kernel set's threshold
//! filter ([`mips_linalg::simd::Kernel::next_hit_f64`]).

use crate::heap::TopKHeap;
use crate::list::TopKList;
use mips_linalg::{simd, Matrix, Scalar};

/// Top-k of one score row; item ids are the column indices.
pub fn row_topk(scores: &[f64], k: usize) -> TopKList {
    row_topk_offset(scores, k, 0)
}

/// Top-k of one score row whose columns represent items
/// `id_offset..id_offset + scores.len()`.
///
/// MAXIMUS scores items in cluster-list order, and LEMP scores bucket slices;
/// the offset keeps ids global without copying.
pub fn row_topk_offset(scores: &[f64], k: usize, id_offset: u32) -> TopKList {
    let kern = simd::active();
    let mut heap = TopKHeap::new(k);
    let mut threshold = heap.threshold();
    let mut from = 0;
    // The filter flags `>=`; columns arrive in id order, so a tie with the
    // root loses and only a strictly larger score is offered.
    while let Some(j) = kern.next_hit_f64(scores, from, threshold) {
        if scores[j] > threshold || !heap.is_full() {
            heap.push(scores[j], id_offset + j as u32);
            threshold = heap.threshold();
        }
        from = j + 1;
    }
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
    scores
        .chunks_exact(items.max(1))
        .take(rows)
        .map(|row| row_topk(row, k))
        .collect()
}

/// Top-k of every row of a score matrix (e.g. the output of `U·Iᵀ`).
pub fn topk_all_rows<T: Scalar>(scores: &Matrix<T>, k: usize) -> Vec<TopKList> {
    scores
        .iter_rows()
        .map(|row| {
            let mut heap = TopKHeap::new(k);
            for (j, &s) in row.iter().enumerate() {
                heap.push(s.to_f64(), j as u32);
            }
            heap.into_sorted()
        })
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
    fn offset_shifts_ids() {
        let l = row_topk_offset(&[1.0, 3.0, 2.0], 2, 100);
        assert_eq!(l.items, vec![101, 102]);
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

    #[test]
    fn matrix_topk_matches_row_topk() {
        let m = Matrix::from_vec(2, 4, vec![4.0, 1.0, 3.0, 2.0, -1.0, -4.0, -2.0, -3.0]).unwrap();
        let lists = topk_all_rows(&m, 2);
        assert_eq!(lists[0].items, vec![0, 2]);
        assert_eq!(lists[1].items, vec![0, 2]);
        let direct = rows_topk(m.as_slice(), 2, 4, 2);
        assert_eq!(lists, direct);
    }

    #[test]
    fn matrix_topk_f32_input() {
        let m = Matrix::from_vec(1, 3, vec![1.0_f32, 5.0, 3.0]).unwrap();
        let lists = topk_all_rows(&m, 2);
        assert_eq!(lists[0].items, vec![1, 2]);
    }
}
