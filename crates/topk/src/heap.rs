//! A bounded min-heap over `(score, item id)` pairs.
//!
//! The heap keeps the `k` best entries seen so far; its root is the worst of
//! them, i.e. the current *admission threshold*. Index-based solvers prune by
//! comparing upper bounds against [`TopKHeap::threshold`], so the threshold
//! semantics matter:
//!
//! * capacity 0 → `+∞` (nothing can ever be admitted, prune everything),
//! * not yet full → `−∞` (everything is admitted, prune nothing),
//! * full → the smallest retained score.
//!
//! Ordering is total and deterministic: higher score wins, ties go to the
//! smaller item id. NaN scores are rejected (solver inputs are validated
//! upstream, so a NaN here is a bug worth failing loudly on).

/// One retained entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The rating `uᵀi`.
    pub score: f64,
    /// The item id.
    pub id: u32,
}

impl Entry {
    /// `true` if `self` ranks strictly better than `other`
    /// (higher score, or equal score with smaller id).
    #[inline(always)]
    pub fn beats(&self, other: &Entry) -> bool {
        self.score > other.score || (self.score == other.score && self.id < other.id)
    }
}

/// A fixed-capacity min-heap retaining the top-k `(score, id)` pairs.
#[derive(Debug, Clone)]
pub struct TopKHeap {
    k: usize,
    entries: Vec<Entry>,
}

impl TopKHeap {
    /// A heap retaining at most `k` entries.
    pub fn new(k: usize) -> Self {
        TopKHeap {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Empties the heap and sets its capacity to `k`, keeping the
    /// allocation — how per-batch scratch heaps are recycled.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.entries.clear();
        self.entries.reserve(k);
    }

    /// Capacity `k`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of retained entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when `k` entries are retained.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// The admission threshold (see module docs for the empty/partial cases).
    #[inline]
    pub fn threshold(&self) -> f64 {
        if self.k == 0 {
            f64::INFINITY
        } else if self.entries.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.entries[0].score
        }
    }

    /// Offers `(score, id)`; returns `true` if it was admitted.
    ///
    /// # Panics
    /// Panics on NaN scores.
    #[inline]
    pub fn push(&mut self, score: f64, id: u32) -> bool {
        assert!(!score.is_nan(), "TopKHeap: NaN score for item {id}");
        if self.k == 0 {
            return false;
        }
        let cand = Entry { score, id };
        if self.entries.len() < self.k {
            self.entries.push(cand);
            self.sift_up(self.entries.len() - 1);
            true
        } else if cand.beats(&self.entries[0]) {
            self.entries[0] = cand;
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    /// The worst retained entry (the root), if any.
    pub fn peek_min(&self) -> Option<Entry> {
        self.entries.first().copied()
    }

    /// The retained entries in heap (not sorted) order. The mixed-precision
    /// screen uses this to seed its lower-bound threshold from entries a
    /// previous exact phase already admitted.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Drains the heap into a list sorted best-first.
    pub fn into_sorted(self) -> crate::list::TopKList {
        let mut entries = self.entries;
        entries.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        crate::list::TopKList {
            items: entries.iter().map(|e| e.id).collect(),
            scores: entries.iter().map(|e| e.score).collect(),
        }
    }

    /// Heap order: parent is worse than (or ties with) its children.
    #[inline(always)]
    fn worse_eq(a: &Entry, b: &Entry) -> bool {
        !a.beats(b)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::worse_eq(&self.entries[parent], &self.entries[i]) {
                break;
            }
            self.entries.swap(parent, i);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            // Pick the worse child: the root must stay the worst entry.
            let worst_child = if r < n && Self::worse_eq(&self.entries[r], &self.entries[l]) {
                r
            } else {
                l
            };
            if Self::worse_eq(&self.entries[i], &self.entries[worst_child]) {
                break;
            }
            self.entries.swap(i, worst_child);
            i = worst_child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_the_k_best() {
        let mut h = TopKHeap::new(3);
        for (s, id) in [(1.0, 0), (5.0, 1), (2.0, 2), (9.0, 3), (3.0, 4), (0.5, 5)] {
            h.push(s, id);
        }
        let list = h.into_sorted();
        assert_eq!(list.items, vec![3, 1, 4]);
        assert_eq!(list.scores, vec![9.0, 5.0, 3.0]);
    }

    #[test]
    fn reset_recycles_the_heap_at_a_new_capacity() {
        let mut h = TopKHeap::new(2);
        h.push(1.0, 0);
        h.push(2.0, 1);
        h.reset(3);
        assert!(h.is_empty());
        assert_eq!(h.capacity(), 3);
        assert_eq!(h.threshold(), f64::NEG_INFINITY);
        h.reset(0);
        assert_eq!(h.threshold(), f64::INFINITY);
        assert!(!h.push(1.0, 0));
    }

    #[test]
    fn threshold_semantics() {
        let mut h = TopKHeap::new(2);
        assert_eq!(h.threshold(), f64::NEG_INFINITY);
        h.push(4.0, 0);
        assert_eq!(h.threshold(), f64::NEG_INFINITY);
        h.push(7.0, 1);
        assert_eq!(h.threshold(), 4.0);
        h.push(5.0, 2); // evicts 4.0
        assert_eq!(h.threshold(), 5.0);

        let zero = TopKHeap::new(0);
        assert_eq!(zero.threshold(), f64::INFINITY);
    }

    #[test]
    fn zero_capacity_admits_nothing() {
        let mut h = TopKHeap::new(0);
        assert!(!h.push(100.0, 1));
        assert!(h.into_sorted().items.is_empty());
    }

    #[test]
    fn ties_break_toward_smaller_id() {
        let mut h = TopKHeap::new(2);
        h.push(1.0, 5);
        h.push(1.0, 3);
        h.push(1.0, 4); // ties with the root (id 5): id 4 < 5 wins
        let list = h.into_sorted();
        assert_eq!(list.items, vec![3, 4]);

        // An equal-score, larger-id candidate must NOT displace anything.
        let mut h = TopKHeap::new(1);
        h.push(2.0, 1);
        assert!(!h.push(2.0, 9));
        assert_eq!(h.into_sorted().items, vec![1]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut h = TopKHeap::new(10);
        h.push(1.0, 0);
        h.push(2.0, 1);
        let list = h.into_sorted();
        assert_eq!(list.items, vec![1, 0]);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn negative_and_duplicate_scores() {
        let mut h = TopKHeap::new(3);
        for (s, id) in [(-5.0, 0), (-1.0, 1), (-3.0, 2), (-2.0, 3), (-1.0, 4)] {
            h.push(s, id);
        }
        let list = h.into_sorted();
        assert_eq!(list.items, vec![1, 4, 3]);
        assert_eq!(list.scores, vec![-1.0, -1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_panic() {
        let mut h = TopKHeap::new(2);
        h.push(f64::NAN, 0);
    }

    #[test]
    fn matches_sort_reference_on_many_streams() {
        // Pseudo-random streams, compared against full sort.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        for k in [1usize, 2, 5, 16] {
            for n in [1usize, 7, 50, 200] {
                let scores: Vec<f64> = (0..n).map(|_| (next() * 4.0).round() / 4.0).collect();
                let mut h = TopKHeap::new(k);
                for (id, &s) in scores.iter().enumerate() {
                    h.push(s, id as u32);
                }
                let got = h.into_sorted();

                let mut pairs: Vec<(f64, u32)> = scores
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (s, i as u32))
                    .collect();
                pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                pairs.truncate(k);
                let want_items: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                assert_eq!(got.items, want_items, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn peek_min_is_worst_retained() {
        let mut h = TopKHeap::new(3);
        assert!(h.peek_min().is_none());
        for (s, id) in [(3.0, 0), (1.0, 1), (2.0, 2), (5.0, 3)] {
            h.push(s, id);
        }
        let min = h.peek_min().unwrap();
        assert_eq!(min.score, 2.0);
        assert_eq!(min.id, 2);
    }
}
