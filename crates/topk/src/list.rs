//! The result of a top-k query for one user.

/// A top-k result sorted best-first (descending score, ascending item id on
/// ties).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopKList {
    /// Item ids, best first.
    pub items: Vec<u32>,
    /// Scores aligned with `items`.
    pub scores: Vec<f64>,
}

impl TopKList {
    /// An empty result.
    pub fn empty() -> Self {
        TopKList::default()
    }

    /// Number of results (may be less than the requested `k` when the item
    /// set is small).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no results were produced.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(item, score)` pairs best-first.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.items.iter().copied().zip(self.scores.iter().copied())
    }

    /// Checks the sorted-best-first invariant (descending scores, ids
    /// ascending within a tie). Cheap enough to assert in tests.
    pub fn is_sorted(&self) -> bool {
        self.items.len() == self.scores.len()
            && self
                .scores
                .windows(2)
                .zip(self.items.windows(2))
                .all(|(s, i)| s[0] > s[1] || (s[0] == s[1] && i[0] < i[1]))
    }

    /// Merges two lists into the top-k of their union (used when combining
    /// partial results, e.g. OPTIMUS's sampled users with the main run).
    pub fn merge(&self, other: &TopKList, k: usize) -> TopKList {
        let mut heap = crate::heap::TopKHeap::new(k);
        for (i, s) in self.iter().chain(other.iter()) {
            heap.push(s, i);
        }
        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_and_len() {
        let l = TopKList {
            items: vec![4, 2],
            scores: vec![9.0, 3.0],
        };
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
        let pairs: Vec<_> = l.iter().collect();
        assert_eq!(pairs, vec![(4, 9.0), (2, 3.0)]);
        assert!(TopKList::empty().is_empty());
    }

    #[test]
    fn sorted_invariant() {
        let good = TopKList {
            items: vec![7, 1, 3],
            scores: vec![5.0, 2.0, 2.0],
        };
        assert!(good.is_sorted());
        let bad_tie = TopKList {
            items: vec![3, 1],
            scores: vec![2.0, 2.0],
        };
        assert!(!bad_tie.is_sorted());
        let bad_order = TopKList {
            items: vec![1, 2],
            scores: vec![1.0, 3.0],
        };
        assert!(!bad_order.is_sorted());
    }

    #[test]
    fn merge_takes_union_topk() {
        let a = TopKList {
            items: vec![0, 1],
            scores: vec![5.0, 3.0],
        };
        let b = TopKList {
            items: vec![2, 3],
            scores: vec![4.0, 1.0],
        };
        let m = a.merge(&b, 3);
        assert_eq!(m.items, vec![0, 2, 1]);
        assert_eq!(m.scores, vec![5.0, 4.0, 3.0]);
    }
}
