//! Exact inverted-index MIPS for sparse and hybrid dense–sparse catalogs.
//!
//! Every backend before this one scans items: BMM, MAXIMUS, LEMP, and
//! FEXIPRO all walk (some prefix of) every item vector per query. When the
//! catalog is sparse — bag-of-words features, learned sparse embeddings —
//! almost all of that work multiplies by zero. The inverted-index family
//! (SINDI and friends) transposes the loop: store, per *factor*, the
//! postings list of items with a nonzero coordinate there, and per query
//! touch only the postings of the query's own nonzero coordinates
//! (term-at-a-time accumulation). Work drops from `O(n·f)` to
//! `O(nnz(q) · avg postings)`.
//!
//! The catch is exactness. This repository's contract is that every backend
//! returns results **bit-identical** to the oracle,
//! [`mips_topk::exact_topk`], whose scores are single sequential FMA chains
//! over all `f` coordinates ([`mips_linalg::kernels::dot_gemm_ordered`]) —
//! the scores blocked matrix multiplication produces. A postings
//! accumulator sums a different subset in a different order, so its floats
//! can differ from the canonical chain in the last ulps. [`InvertedIndex`]
//! therefore runs the workspace's one *screen-then-rescore*,
//! [`mips_topk::Shortlist`], the same one the screen tiers and the index
//! walks use:
//!
//! 1. **Accumulate** approximate scores over the postings of every nonzero
//!    query term (plus dense column panels for the hybrid head — columns
//!    denser than [`DENSE_COLUMN_CUTOFF`] are stored contiguously and
//!    accumulated with a dense AXPY-style loop).
//! 2. **Offer** every touched item's score to the shortlist with the
//!    reassociation envelope ([`mips_linalg::reassoc_envelope_parts`]),
//!    which covers any accumulation order against the canonical chain.
//! 3. **Rescore** the survivors — the items whose upper bound reaches the
//!    `k`-th best lower bound — with the canonical chain
//!    ([`mips_topk::Shortlist::finish`]). Untouched items — no overlap with
//!    the query support — have a canonical score of *exactly* `+0.0` (every
//!    chain step is `fma(x, ±0, acc)` or `fma(0, y, acc)`, which cannot move
//!    `acc` off `+0.0` in round-to-nearest), so they are admitted as literal
//!    zeros without rescoring when the threshold allows them at all.
//!
//! The top-k heap is push-order independent, so feeding it the canonical
//! scores of a candidate superset yields the same list, bit for bit, as
//! feeding it every item — the property the identity proptests pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mips_linalg::{norm2, reassoc_envelope_parts, simd, Matrix};
use mips_topk::{Shortlist, TopKHeap, TopKList};

/// Column density above which a factor column is stored as a contiguous
/// dense panel instead of a postings list. This is the hybrid split:
/// dense-head coordinates of a hybrid catalog exceed it and get
/// cache-friendly dense accumulation, the sparse tail stays on postings.
pub const DENSE_COLUMN_CUTOFF: f64 = 0.25;

/// How one factor column is stored.
#[derive(Debug, Clone)]
enum Column {
    /// Postings span into the shared `post_items`/`post_values` arrays.
    Sparse { start: usize, end: usize },
    /// Index of a contiguous column in the dense panel.
    Dense { panel: usize },
}

/// Reusable per-query scratch: the dense accumulator, touch stamps, the
/// query's terms and the [`Shortlist`]. One instance serves any number of sequential queries
/// against the same index; allocating it once per `query_range` keeps the
/// per-user cost at `O(touched)`, not `O(n)`.
#[derive(Debug)]
pub struct SparseScratch {
    acc: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
    terms: Vec<(u32, f64)>,
    shortlist: Shortlist,
}

impl SparseScratch {
    /// Scratch sized for an index over `num_items` items.
    pub fn new(num_items: usize) -> SparseScratch {
        SparseScratch {
            acc: vec![0.0; num_items],
            stamp: vec![0; num_items],
            epoch: 0,
            touched: Vec::new(),
            terms: Vec::new(),
            shortlist: Shortlist::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: stale stamps could collide with the fresh epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The inverted index over one item matrix: per-factor postings lists,
/// dense panels for hybrid-head columns, and exact per-item norms for the
/// envelope. The index never copies item rows — exact rescoring reads them
/// from the matrix the index was built over, which callers pass back in
/// (the solver adapter owns the model; the index owns only derived state).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    num_items: usize,
    num_factors: usize,
    columns: Vec<Column>,
    post_items: Vec<u32>,
    post_values: Vec<f64>,
    panels: Vec<f64>,
    item_norms: Vec<f64>,
    max_item_norm: f64,
    postings_nnz: usize,
    num_dense_cols: usize,
}

impl InvertedIndex {
    /// Builds the index over `items` (one item vector per row).
    ///
    /// # Panics
    /// Panics on non-finite entries, or if the item count exceeds `u32`
    /// index space.
    pub fn build(items: &Matrix<f64>) -> InvertedIndex {
        let n = items.rows();
        let f = items.cols();
        assert!(
            n <= u32::MAX as usize,
            "InvertedIndex: {n} items exceed u32 index space"
        );

        // Pass 1: per-column nonzero counts decide sparse vs dense storage.
        let mut col_nnz = vec![0usize; f];
        for row in items.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                assert!(v.is_finite(), "InvertedIndex: non-finite entry");
                if v != 0.0 {
                    col_nnz[j] += 1;
                }
            }
        }
        let mut columns = Vec::with_capacity(f);
        let mut postings_nnz = 0usize;
        let mut num_dense_cols = 0usize;
        for &nnz in &col_nnz {
            let density = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
            if density > DENSE_COLUMN_CUTOFF {
                columns.push(Column::Dense {
                    panel: num_dense_cols,
                });
                num_dense_cols += 1;
            } else {
                // Span filled in pass 2; record the width for now.
                columns.push(Column::Sparse {
                    start: postings_nnz,
                    end: postings_nnz + nnz,
                });
                postings_nnz += nnz;
            }
        }

        // Pass 2: fill postings (item-ascending per column, by construction
        // of the row-major walk) and dense panels (column-major).
        let mut post_items = vec![0u32; postings_nnz];
        let mut post_values = vec![0.0f64; postings_nnz];
        let mut fill = vec![0usize; f];
        let mut panels = vec![0.0f64; num_dense_cols * n];
        for (i, row) in items.iter_rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                match columns[j] {
                    Column::Dense { panel } => panels[panel * n + i] = v,
                    Column::Sparse { start, .. } => {
                        if v != 0.0 {
                            let slot = start + fill[j];
                            post_items[slot] = i as u32;
                            post_values[slot] = v;
                            fill[j] += 1;
                        }
                    }
                }
            }
        }

        let item_norms: Vec<f64> = items.iter_rows().map(norm2).collect();
        let max_item_norm = item_norms.iter().copied().fold(0.0, f64::max);
        InvertedIndex {
            num_items: n,
            num_factors: f,
            columns,
            post_items,
            post_values,
            panels,
            item_norms,
            max_item_norm,
            postings_nnz,
            num_dense_cols,
        }
    }

    /// Items indexed.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Latent dimensionality `f`.
    pub fn num_factors(&self) -> usize {
        self.num_factors
    }

    /// Total postings entries across sparse columns.
    pub fn postings_nnz(&self) -> usize {
        self.postings_nnz
    }

    /// Columns stored as dense panels (the hybrid head).
    pub fn num_dense_cols(&self) -> usize {
        self.num_dense_cols
    }

    /// Exact top-`k` for a dense query vector, allocating fresh scratch.
    /// See [`InvertedIndex::query_with_scratch`].
    pub fn query(&self, query: &[f64], k: usize, items: &Matrix<f64>) -> TopKList {
        let mut scratch = SparseScratch::new(self.num_items);
        self.query_with_scratch(query, k, items, &mut scratch)
    }

    /// Exact top-`k` for a dense query vector, bit-identical to pushing
    /// every item's [`mips_linalg::kernels::dot_gemm_ordered`] score into a
    /// [`TopKHeap`].
    ///
    /// `items` must be the matrix the index was built over (the caller —
    /// solver adapter or engine — owns it; the index stores only derived
    /// postings).
    ///
    /// # Panics
    /// Panics if dimensions disagree with the index or the query has
    /// non-finite entries.
    pub fn query_with_scratch(
        &self,
        query: &[f64],
        k: usize,
        items: &Matrix<f64>,
        scratch: &mut SparseScratch,
    ) -> TopKList {
        assert_eq!(
            query.len(),
            self.num_factors,
            "InvertedIndex: query dimension mismatch"
        );
        assert_eq!(
            (items.rows(), items.cols()),
            (self.num_items, self.num_factors),
            "InvertedIndex: items matrix does not match the indexed shape"
        );
        assert_eq!(scratch.acc.len(), self.num_items, "scratch size mismatch");
        for &v in query {
            assert!(v.is_finite(), "InvertedIndex: non-finite query entry");
        }

        let n = self.num_items;
        let query_norm = norm2(query);

        // --- Term selection. ----------------------------------------------
        scratch.terms.clear();
        for (j, &q) in query.iter().enumerate() {
            if q != 0.0 {
                scratch.terms.push((j as u32, q));
            }
        }

        // --- Term-at-a-time accumulation. ---------------------------------
        let any_dense = scratch
            .terms
            .iter()
            .any(|&(j, _)| matches!(self.columns[j as usize], Column::Dense { .. }));
        let all_touched = any_dense;
        if all_touched {
            // A dense panel touches every item; skip stamp bookkeeping.
            scratch.acc.fill(0.0);
            for &(j, q) in &scratch.terms {
                match self.columns[j as usize] {
                    Column::Dense { panel } => {
                        let col = &self.panels[panel * n..(panel + 1) * n];
                        for (a, &v) in scratch.acc.iter_mut().zip(col) {
                            *a = q.mul_add(v, *a);
                        }
                    }
                    Column::Sparse { start, end } => {
                        for (slot, &i) in self.post_items[start..end].iter().enumerate() {
                            let v = self.post_values[start + slot];
                            scratch.acc[i as usize] = q.mul_add(v, scratch.acc[i as usize]);
                        }
                    }
                }
            }
        } else {
            let epoch = scratch.next_epoch();
            scratch.touched.clear();
            for &(j, q) in &scratch.terms {
                if let Column::Sparse { start, end } = self.columns[j as usize] {
                    for (slot, &i) in self.post_items[start..end].iter().enumerate() {
                        let v = self.post_values[start + slot];
                        let idx = i as usize;
                        if scratch.stamp[idx] != epoch {
                            scratch.stamp[idx] = epoch;
                            scratch.acc[idx] = 0.0;
                            scratch.touched.push(i);
                        }
                        scratch.acc[idx] = q.mul_add(v, scratch.acc[idx]);
                    }
                }
            }
        }

        // --- Offers and the canonical rescore of the survivors. ----------
        let (rel, abs) = reassoc_envelope_parts(self.num_factors);
        let env_rel = rel * query_norm;
        let envelope = |norm: f64| env_rel * norm + abs;
        let mut heap = TopKHeap::new(k);
        let list = &mut scratch.shortlist;
        list.begin(&heap);
        let mut offer = |i: u32| {
            let i_norm = self.item_norms[i as usize];
            list.offer(i, scratch.acc[i as usize], envelope(i_norm));
        };
        if all_touched {
            (0..n as u32).for_each(&mut offer);
        } else {
            scratch.touched.iter().copied().for_each(&mut offer);
        }
        let theta = list.threshold();
        list.finish(simd::active(), query, items.into(), &mut heap);

        // --- Untouched items. ---------------------------------------------
        // An untouched item's canonical score is exactly +0.0 (see crate
        // docs), so it enters as a literal zero. The global max-norm
        // envelope lets the whole pass be skipped once θ is safely above
        // anything untouched; a NaN envelope (a zero query against an
        // overflowed norm) proves nothing.
        let untouched_below = theta > envelope(self.max_item_norm);
        if !all_touched && !untouched_below {
            let epoch = scratch.epoch;
            for i in 0..n as u32 {
                if scratch.stamp[i as usize] != epoch {
                    heap.push(0.0, i);
                }
            }
        }

        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_topk::exact_topk;

    fn assert_bit_identical(a: &TopKList, b: &TopKList) {
        assert_eq!(a.items, b.items, "item order differs");
        let a_bits: Vec<u64> = a.scores.iter().map(|s| s.to_bits()).collect();
        let b_bits: Vec<u64> = b.scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "score bits differ");
    }

    fn toy_items() -> Matrix<f64> {
        // 6 items, 4 factors; column 0 dense, the rest sparse.
        Matrix::from_vec(
            6,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                -0.5, 1.5, 0.0, 0.0, //
                2.0, 0.0, 0.0, -1.0, //
                0.1, 0.0, 0.0, 0.0, //
                -1.0, 0.0, 3.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, // all-zero item
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_reference_on_toy_matrix_at_every_k() {
        let items = toy_items();
        let index = InvertedIndex::build(&items);
        assert_eq!(
            index.num_dense_cols(),
            2,
            "columns 0 (5/6) and 2 (2/6) are dense"
        );
        for query in [
            vec![1.0, 0.0, 0.5, 0.0],
            vec![0.0, 2.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![-1.0, 1.0, 1.0, 1.0],
        ] {
            for k in 0..=7 {
                let got = index.query(&query, k, &items);
                let want = exact_topk(&query, &items, k);
                assert_bit_identical(&got, &want);
            }
        }
    }

    #[test]
    fn untouched_items_enter_as_exact_zeros() {
        // Query supported only on factor 1 → touches item 1 alone; with
        // k=3 the zero-scoring untouched items must fill the tail in id
        // order, exactly as the dense reference produces them. Column 1 is
        // 1/6 dense, so it stays a postings list and no panel touches
        // every item.
        let items = toy_items();
        let index = InvertedIndex::build(&items);
        assert_eq!(index.num_dense_cols(), 2);
        let query = vec![0.0, 1.0, 0.0, 0.0];
        let got = index.query(&query, 3, &items);
        let want = exact_topk(&query, &items, 3);
        assert_bit_identical(&got, &want);
        assert_eq!(got.items[0], 1);
        assert_eq!(got.scores[1], 0.0);
    }

    #[test]
    fn postings_count_only_the_sparse_columns() {
        let items = toy_items();
        let index = InvertedIndex::build(&items);
        // Columns 0 (5/6) and 2 (2/6) exceed the 0.25 cutoff → dense panels.
        // Columns 1 and 3 hold 1 posting apiece.
        assert_eq!(index.num_dense_cols(), 2);
        assert_eq!(index.postings_nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn rejects_query_dim_mismatch() {
        let items = toy_items();
        let index = InvertedIndex::build(&items);
        let _ = index.query(&[1.0, 2.0], 1, &items);
    }
}
