//! The canonical answer: the one definition of an exact top-k list, and the
//! one way a scan that scores approximately reaches it.
//!
//! The contract is that a top-`k` answer is bit-identical to pushing every
//! item's [`dot_gemm_ordered`] score — the GEMM micro-kernel's per-element
//! reduction, one sequential FMA chain — through a [`TopKHeap`] (ties to
//! the smaller item id). Brute force meets it by construction;
//! [`exact_topk`] runs the definition literally and is the oracle every
//! backend is refereed against.
//!
//! Every other score is approximate — a screen tier's (f32, int8), the
//! inverted index's postings accumulator, the four-lane
//! [`dot`](mips_linalg::kernels::dot) of LEMP's and FEXIPRO's scans and of
//! MAXIMUS's §III-E new-vector walk, whose rounding can order a near-tie
//! the other way — and never enters a heap. (MAXIMUS's clustered users
//! walk their lists in block passes, which push chain scores straight
//! into their heaps or screen through the block screen.) The scan offers it, widened by an envelope that bounds its distance
//! from the chain, to a [`Shortlist`], prunes against the shortlist's
//! threshold, and ends with [`Shortlist::finish`], which rescores the
//! survivors with the chain into the scan's heap.
//!
//! **Why no true top-k item is lost.** An offer widens `ŝ` into
//! `[ŝ − env, ŝ + env] ∋ s`, the chain score. The bound heap keeps the `k`
//! largest lower bounds; an offer whose upper bound reaches its threshold
//! is a candidate. At least `k` items score at least the final threshold
//! `L̂`, so the true k-th score is `≥ L̂`, and every true top-k item `c` has
//! `ŝ_c + env ≥ s_c ≥ L̂`: it was kept (thresholds only grow) and survives
//! the final `hi ≥ L̂` filter. Comparisons use `≥`, so ties decided by the
//! smaller-id rule are safe too, and an item a scan skips because an upper
//! bound of its score sits strictly below the threshold is strictly below
//! the true k-th score. Entries already in the scan's heap are exact scores
//! of an earlier pass (MAXIMUS's earlier block passes); they seed the
//! bound heap, an exact score being its own lower bound. The heap is push-order
//! independent, so the answer is the one pushing every chain score gives.

use crate::heap::TopKHeap;
use crate::list::TopKList;
use mips_linalg::kernels::dot_gemm_ordered;
use mips_linalg::simd::Kernel;
use mips_linalg::{Matrix, RowBlock};

/// The exact top-`k` items of `items` (one item per row) for `query`:
/// every item's [`dot_gemm_ordered`] score pushed through one [`TopKHeap`].
///
/// This is the contract itself, run with no pruning — the oracle the test
/// kit compares every backend with, and the scan served where no bound
/// holds (a tiny vector, a model with tiny rows, an ad-hoc vector with no
/// point-lookup path). `k` past the item count returns every item.
///
/// # Panics
/// Panics if `query.len() != items.cols()`, or on a NaN score.
pub fn exact_topk(query: &[f64], items: &Matrix<f64>, k: usize) -> TopKList {
    let mut heap = TopKHeap::new(k);
    for (i, row) in items.iter_rows().enumerate() {
        heap.push(dot_gemm_ordered(query, row), i as u32);
    }
    heap.into_sorted()
}

/// One user's screen-then-rescore state (see the module docs): the bound
/// heap of the `k` largest lower bounds and the candidates, `(id, upper
/// bound)`. [`Shortlist::begin`] resets it for the next user and keeps its
/// allocations: own one per query loop, or one per row of a block pass.
#[derive(Debug, Clone)]
pub struct Shortlist {
    bounds: TopKHeap,
    candidates: Vec<(u32, f64)>,
    floor: f64,
    threshold: f64,
}

impl Default for Shortlist {
    fn default() -> Self {
        Shortlist {
            bounds: TopKHeap::new(0),
            candidates: Vec::new(),
            floor: f64::NEG_INFINITY,
            threshold: f64::INFINITY,
        }
    }
}

impl Shortlist {
    /// An empty shortlist; [`Shortlist::begin`] it before offering.
    pub fn new() -> Shortlist {
        Shortlist::default()
    }

    /// Starts a user whose answer goes into `heap`: the bound heap takes
    /// its capacity and entries; candidates and floor are cleared.
    pub fn begin(&mut self, heap: &TopKHeap) {
        self.bounds.reset(heap.capacity());
        for e in heap.entries() {
            self.bounds.push(e.score, e.id);
        }
        self.candidates.clear();
        self.set_floor(f64::NEG_INFINITY);
    }

    /// Raises the offer threshold to `floor` until the next call — a value
    /// the caller proves is at most the final threshold `L̂` (the block
    /// screen's floor, [`crate::screen`]), so the survivors do not change.
    pub fn set_floor(&mut self, floor: f64) {
        self.floor = floor;
        self.threshold = self.bounds.threshold().max(floor);
    }

    /// The threshold an offer's upper bound must reach: the bound heap's,
    /// or the floor if higher. A scan may skip an item whose upper bound
    /// sits strictly below it.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// `true` once `k` lower bounds are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.bounds.is_full()
    }

    /// The bound heap, for the block screen's floor.
    pub(crate) fn bounds(&self) -> &TopKHeap {
        &self.bounds
    }

    /// The offer rule for item `id` scored `score`, within `env` of its
    /// chain score: keep it when its upper bound `score + env` reaches the
    /// threshold, and raise the threshold with its lower bound. An `env`
    /// that is NaN bounds nothing, and the item is kept.
    #[inline]
    pub fn offer(&mut self, id: u32, score: f64, env: f64) {
        let hi = score + env;
        if hi >= self.threshold {
            self.candidates.push((id, hi));
            self.bounds.push(score - env, id);
            self.threshold = self.bounds.threshold().max(self.floor);
        } else if hi.is_nan() {
            self.keep(id);
        }
    }

    /// Keeps an item whose score carries no bound (an f32 product
    /// overflowed) unconditionally; `k = 0` keeps nothing.
    #[inline]
    pub fn keep(&mut self, id: u32) {
        if self.bounds.capacity() > 0 {
            self.candidates.push((id, f64::INFINITY));
        }
    }

    /// Ends the user: the candidates whose upper bound reaches the final
    /// threshold are rescored with the chain ([`Kernel::dot_seq4`], four at
    /// a time so the chains pipeline), each from row `id` of `catalog`, and
    /// pushed into `heap` — the heap [`Shortlist::begin`] was given.
    /// Returns how many were rescored.
    ///
    /// # Panics
    /// Panics if an id lies past `catalog` or `query`'s length differs
    /// from its rows'.
    pub fn finish(
        &self,
        kern: &Kernel,
        query: &[f64],
        catalog: RowBlock<'_, f64>,
        heap: &mut TopKHeap,
    ) -> u64 {
        let last = self.bounds.threshold();
        let flush = |ids: &[u32], heap: &mut TopKHeap| {
            // A ragged group pads with its last id; the extra lanes are
            // discarded.
            let pad = ids[ids.len() - 1];
            let row = |q: usize| catalog.row(*ids.get(q).unwrap_or(&pad) as usize);
            let scores = kern.dot_seq4(query, [row(0), row(1), row(2), row(3)]);
            for (&id, &score) in ids.iter().zip(&scores) {
                heap.push(score, id);
            }
        };
        let mut group = [0u32; 4];
        let (mut filled, mut rescored) = (0usize, 0u64);
        for &(id, hi) in &self.candidates {
            if hi >= last {
                group[filled] = id;
                filled += 1;
                rescored += 1;
                if filled == 4 {
                    flush(&group, heap);
                    filled = 0;
                }
            }
        }
        if filled > 0 {
            flush(&group[..filled], heap);
        }
        rescored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_linalg::kernels::{dot, norm2};
    use mips_linalg::reassoc_envelope_parts;
    use mips_linalg::simd;

    /// Seeded rows in `[-2, 2)`.
    fn rows(n: usize, f: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(n, f, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
    }

    fn bits(list: &TopKList) -> Vec<u64> {
        list.scores.iter().map(|s| s.to_bits()).collect()
    }

    /// What a `dot` scan does: offers `order`'s items of `items` with their
    /// `dot` scores and the reassociation envelope, then finishes into a
    /// fresh heap of `k`. Returns the answer and the rescore count.
    fn scan(query: &[f64], items: &Matrix<f64>, order: &[u32], k: usize) -> (TopKList, u64) {
        let (rel, abs) = reassoc_envelope_parts(query.len());
        let env_rel = rel * norm2(query);
        let mut heap = TopKHeap::new(k);
        let mut list = Shortlist::new();
        list.begin(&heap);
        for &id in order {
            let row = items.row(id as usize);
            list.offer(id, dot(query, row), env_rel * norm2(row) + abs);
        }
        let rescored = list.finish(simd::active(), query, items.into(), &mut heap);
        (heap.into_sorted(), rescored)
    }

    #[test]
    fn ragged_tails_rescore_every_survivor_with_the_chain() {
        // k = n keeps every item, so the rescore's groups of four end in
        // every ragged tail: a lone item, a full group, a group and one,
        // up to two groups and one. Offered in reverse order, the answer
        // is the oracle's list.
        for n in 1..=9 {
            let items = rows(n, 37, n as u64);
            let query = rows(1, 37, 99).into_vec();
            let order: Vec<u32> = (0..n as u32).rev().collect();
            let (got, rescored) = scan(&query, &items, &order, n);
            let want = exact_topk(&query, &items, n);
            assert_eq!(rescored, n as u64, "n = {n}");
            assert_eq!(got.items, want.items, "n = {n}");
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn survivors_are_the_candidates_whose_upper_bound_reaches_the_final_threshold() {
        // f = 1 and query 1: each chain score is the item's value. At
        // k = 1 the offers run (score ± env): 1.0 ± 0.5 is kept while the
        // heap fills, 2.0 ± 0.1 raises the threshold to 1.9, 1.85 ± 0.1
        // reaches it (hi 1.95) and 1.7 ± 0.1 does not. 1.0's upper bound
        // (1.5) misses the final 1.9, so two survive and 2.0 wins.
        let items = Matrix::from_vec(4, 1, vec![1.0, 2.0, 1.85, 1.7]).unwrap();
        let mut heap = TopKHeap::new(1);
        let mut list = Shortlist::new();
        list.begin(&heap);
        assert!(!list.is_full());
        assert_eq!(list.threshold(), f64::NEG_INFINITY);
        for (id, score, env) in [(0, 1.0, 0.5), (1, 2.0, 0.1), (2, 1.85, 0.1), (3, 1.7, 0.1)] {
            list.offer(id, score, env);
        }
        assert!(list.is_full());
        assert_eq!(list.threshold(), 1.9);
        assert_eq!(
            list.finish(simd::active(), &[1.0], (&items).into(), &mut heap),
            2
        );
        assert_eq!(heap.into_sorted(), exact_topk(&[1.0], &items, 1));
    }

    #[test]
    fn a_near_tie_the_approximate_scores_order_wrongly_is_decided_by_the_chain() {
        // With f = 1 the chain is one exact multiply, so item 1 outscores
        // item 0 by one ulp; the offers claim the opposite, as a `dot` that
        // rounded the other way would, within a one-ulp envelope.
        let above = f64::from_bits(1.0f64.to_bits() + 1);
        let ulp = above - 1.0;
        let items = Matrix::from_vec(3, 1, vec![1.0, above, -4.0]).unwrap();
        let mut heap = TopKHeap::new(1);
        let mut list = Shortlist::new();
        list.begin(&heap);
        for (id, score) in [(0, above), (1, 1.0), (2, -4.0)] {
            list.offer(id, score, ulp);
        }
        list.finish(simd::active(), &[1.0], (&items).into(), &mut heap);
        assert_eq!(heap.into_sorted(), exact_topk(&[1.0], &items, 1));
    }

    #[test]
    fn exact_ties_keep_the_smaller_id_first() {
        // Items 2 and 5 are the same vector, which outscores every other
        // row: offered in either order, the smaller id is kept at k = 1
        // and listed first at k = 2 and k = n.
        let mut items = rows(6, 4, 7);
        for id in [2, 5] {
            items.row_mut(id).copy_from_slice(&[3.0, 3.0, -3.0, 3.0]);
        }
        let query = [1.0, 0.5, -1.0, 1.0];
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]] {
            for k in [1, 2, 6] {
                let (got, _) = scan(&query, &items, &order, k);
                let want = exact_topk(&query, &items, k);
                assert_eq!((&got.items, bits(&got)), (&want.items, bits(&want)));
                assert_eq!(got.items[..k.min(2)], [2, 5][..k.min(2)], "k = {k}");
            }
        }
    }

    #[test]
    fn seeded_exact_entries_bound_the_scan_and_stay_in_the_heap() {
        // The heap enters holding two exact entries (ids past the catalog,
        // as a prefix phase's would be under its own ids): the shortlist is
        // full at once, an offer whose upper bound misses the seeded k-th
        // score is dropped, one that reaches it is rescored, and the seeded
        // entries are never rescored.
        let items = Matrix::from_vec(3, 1, vec![4.0, 6.0, 5.5]).unwrap();
        let mut heap = TopKHeap::new(2);
        heap.push(9.0, 900);
        heap.push(5.0, 901);
        let mut list = Shortlist::new();
        list.begin(&heap);
        assert!(list.is_full());
        assert_eq!(list.threshold(), 5.0);
        list.offer(0, 4.0, 0.5);
        list.offer(1, 6.0, 0.5);
        list.offer(2, 5.5, 0.5);
        assert_eq!(list.threshold(), 5.5);
        assert_eq!(
            list.finish(simd::active(), &[1.0], (&items).into(), &mut heap),
            2
        );
        let got = heap.into_sorted();
        assert_eq!((got.items, got.scores), (vec![900, 1], vec![9.0, 6.0]));
    }

    #[test]
    fn kept_and_unbounded_items_survive_every_threshold() {
        // `keep` and a NaN envelope (a zero norm times an overflowed one)
        // carry no bound: both are rescored, however high the threshold.
        let items = Matrix::from_vec(3, 1, vec![1.0, 3.0, 2.0]).unwrap();
        let mut heap = TopKHeap::new(1);
        let mut list = Shortlist::new();
        list.begin(&heap);
        list.offer(2, 100.0, 0.0);
        list.keep(0);
        list.offer(1, 0.0, f64::NAN);
        assert_eq!(
            list.finish(simd::active(), &[1.0], (&items).into(), &mut heap),
            3
        );
        assert_eq!(heap.into_sorted(), exact_topk(&[1.0], &items, 1));
        // k = 0 keeps and rescores nothing.
        let mut none = TopKHeap::new(0);
        list.begin(&none);
        list.keep(0);
        list.offer(1, 3.0, 0.0);
        assert_eq!(
            list.finish(simd::active(), &[1.0], (&items).into(), &mut none),
            0
        );
        assert!(none.is_empty());
    }

    #[test]
    fn the_oracle_clamps_k_and_breaks_ties_by_id() {
        let items = Matrix::from_vec(4, 2, vec![1.0, 0.0, 2.0, 0.0, 1.0, 0.0, -1.0, 0.0]).unwrap();
        let all = exact_topk(&[1.0, 5.0], &items, 10);
        assert_eq!(all.items, [1, 0, 2, 3]);
        assert_eq!(all.scores, [2.0, 1.0, 1.0, -1.0]);
        assert_eq!(exact_topk(&[1.0, 5.0], &items, 2).items, [1, 0]);
        assert_eq!(exact_topk(&[1.0, 5.0], &items, 0), TopKList::empty());
    }
}
