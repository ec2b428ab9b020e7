//! The admission rule every block pass shares: a threshold filter over one
//! row of a score block, primed with a floor the block itself proves.
//!
//! A heap that is not yet full has threshold `−∞`, so a fresh row admits
//! every column the filter meets until `k` are in — about `k·(1 + ln(n/k))`
//! heap admits over a catalog in random order, each far costlier than the
//! filter compare that skips a score. Before the filter runs on such a row,
//! [`floor`] splits the row's block into ≈ `2k` contiguous groups, takes
//! each group's maximum (a kernel slot:
//! [`mips_linalg::simd::Kernel::group_max_f64`] and the screen tiers'
//! [`mips_linalg::ScreenElem::group_max`]) and selects the k-th largest of
//! those maxima as the floor `θ`. The row is then filtered and offered
//! against `max(heap threshold, θ)`.
//!
//! A group is at most [`MAX_GROUP`] columns wide, so at small k the groups
//! cover only the block's first `2k·MAX_GROUP` columns: the maxima pass
//! reads the row a second time, and past a few thousand columns that read
//! costs more than the handful of admits a higher floor would still save.
//!
//! **Why the heap ends the block holding the same set.** The `k` largest
//! group maxima belong to `k` distinct columns of the block, each scoring at
//! least `θ`. A column scoring strictly below `θ` is therefore beaten by
//! `k` columns of the block and cannot be in the top-k of heap ∪ block,
//! whatever the heap held before; a column scoring exactly `θ` is still
//! offered (the filter and the offer test are `≥`), so the smaller-id tie
//! rule decides it as before. Since the heap's `(score, id)` order is
//! total, its set after the block is the top-k of heap ∪ block either way —
//! only the number of admits changes. NaN lanes contribute no maximum, so
//! `θ` is always made of real scores.
//!
//! Priming is skipped — the plain rule, floor `−∞` — for a full heap (its
//! threshold already is a k-th score), for `k = 0`, and for a block
//! narrower than `4k` columns, where groups of at least four lanes would be
//! fewer than `k`.

use crate::fused::ColumnIds;
use crate::heap::TopKHeap;
use mips_linalg::simd::Kernel;

/// The widest group a floor takes a maximum over: sixteen 4-lane vectors.
/// On the benchmark's dense shape a cap of 64 or 128 columns keeps k = 1
/// as fast as an unprimed pass while k = 10 still gains; without a cap the
/// screens' k = 1 slowed by about 15 %.
const MAX_GROUP: usize = 64;

/// The groups a floor over `width` columns at `k` takes maxima of:
/// `(columns per group, number of groups)`, for `k ≥ 1` and `width ≥ 4k`.
///
/// ≈ `2k` groups of whole 4-lane vectors, at most [`MAX_GROUP`] columns
/// each, from the first column on. Rounding a group up to a multiple of
/// four still leaves at least k of them when `width ≥ 4k`, and so does the
/// cap (a capped group means `width > 120k`).
fn groups(width: usize, k: usize) -> (usize, usize) {
    let group = width.div_ceil(2 * k).next_multiple_of(4).min(MAX_GROUP);
    (group, width.div_ceil(group).min(2 * k))
}

/// The floor `θ` of one row of a `width`-column block about to be offered
/// to `heap` (see the module docs), or `−∞` when the row is not primed.
///
/// `group_maxima(group, out)` writes to `out[g]` the largest value (score
/// or lower bound) of the columns `g·group .. (g + 1)·group` of the row,
/// for each `g < out.len()`; `maxima` is the caller's reusable buffer.
pub(crate) fn floor(
    heap: &TopKHeap,
    width: usize,
    maxima: &mut Vec<f64>,
    group_maxima: impl FnOnce(usize, &mut [f64]),
) -> f64 {
    let k = heap.capacity();
    if k == 0 || heap.is_full() || width < 4 * k {
        return f64::NEG_INFINITY;
    }
    let (group, count) = groups(width, k);
    maxima.resize(count, f64::NEG_INFINITY);
    group_maxima(group, maxima);
    *maxima
        .select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a))
        .1
}

/// Offers one row of exact scores — block columns `first_col..`, item ids
/// by `ids` — to `heap`: the floor, then the kernel set's threshold filter,
/// and for each flagged lane the heap's own `(score, id)` rule.
///
/// Scores *equal* to the threshold are offered: with mapped ids the column
/// order is not id order, so a tying candidate may beat the root on the
/// smaller-id rule (in id order the heap simply rejects the losing tie).
pub(crate) fn offer_scores(
    kern: &Kernel,
    scores: &[f64],
    heap: &mut TopKHeap,
    ids: ColumnIds<'_>,
    first_col: usize,
    maxima: &mut Vec<f64>,
) {
    let floor = floor(heap, scores.len(), maxima, |group, out| {
        kern.group_max_f64(scores, group, out)
    });
    let mut threshold = heap.threshold().max(floor);
    let mut from = 0;
    while let Some(j) = kern.next_hit_f64(scores, from, threshold) {
        // The filter flags only lanes at or above the current threshold,
        // and NaN ones; a NaN reaches the heap (which rejects it loudly)
        // exactly when the heap is still filling.
        if scores[j] >= threshold || !heap.is_full() {
            heap.push(scores[j], ids.id(first_col + j));
            threshold = heap.threshold().max(floor);
        }
        from = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floor_of(scores: &[f64], k: usize, preload: &[(f64, u32)]) -> f64 {
        let mut heap = TopKHeap::new(k);
        for &(s, id) in preload {
            heap.push(s, id);
        }
        floor(&heap, scores.len(), &mut Vec::new(), |group, out| {
            Kernel::scalar().group_max_f64(scores, group, out)
        })
    }

    #[test]
    fn the_floor_is_the_kth_largest_group_maximum() {
        // k = 2, width 8: groups of 4 → maxima 7 and 9 → θ = 7.
        let row = [1.0, 7.0, 3.0, 0.0, 9.0, 2.0, 8.0, 5.0];
        assert_eq!(floor_of(&row, 2, &[]), 7.0);
        // k = 1 primes with the block's maximum.
        assert_eq!(floor_of(&row, 1, &[]), 9.0);
        // A partly filled heap still primes; a full one does not.
        assert_eq!(floor_of(&row, 2, &[(100.0, 50)]), 7.0);
        assert_eq!(floor_of(&row, 1, &[(100.0, 50)]), f64::NEG_INFINITY);
    }

    #[test]
    fn narrow_blocks_and_k_zero_stay_unprimed() {
        let row = [1.0, 7.0, 3.0, 0.0, 9.0, 2.0, 8.0];
        assert_eq!(floor_of(&row, 2, &[]), f64::NEG_INFINITY); // 7 < 4k
        assert_eq!(floor_of(&row, 0, &[]), f64::NEG_INFINITY);
        assert_eq!(floor_of(&[], 1, &[]), f64::NEG_INFINITY);
    }

    #[test]
    fn enough_groups_for_every_primed_width() {
        for k in 1usize..60 {
            for width in (4 * k..4 * k + 300).chain([130 * k, 4096, 8192]) {
                if width < 4 * k {
                    continue;
                }
                let (group, count) = groups(width, k);
                assert!(group % 4 == 0 && group <= MAX_GROUP, "k {k} width {width}");
                assert!((k..=2 * k).contains(&count), "k {k} width {width}");
                // Every group starts inside the block.
                assert!((count - 1) * group < width, "k {k} width {width}");
            }
        }
    }

    #[test]
    fn small_k_floors_cover_a_prefix_of_wide_blocks() {
        // k = 1 over 4096 columns: two groups of MAX_GROUP columns, so the
        // floor is the largest of the first 128 scores.
        let mut row = vec![0.0; 4096];
        row[100] = 3.0;
        row[3000] = 9.0;
        assert_eq!(floor_of(&row, 1, &[]), 3.0);
        assert_eq!(groups(4096, 1), (MAX_GROUP, 2));
        // k = 50: 100 groups of 44 columns cover the whole block.
        assert_eq!(groups(4096, 50), (44, 94));
    }

    #[test]
    fn nan_lanes_never_become_the_floor() {
        let row = [
            f64::NAN,
            2.0,
            f64::NAN,
            1.0,
            f64::NAN,
            f64::NAN,
            f64::NAN,
            f64::NAN,
        ];
        // The all-NaN group's maximum is −∞, so θ falls back to it.
        assert_eq!(floor_of(&row, 2, &[]), f64::NEG_INFINITY);
        assert_eq!(floor_of(&row, 1, &[]), 2.0);
    }

    #[test]
    fn offers_keep_the_heap_set_of_an_unprimed_pass() {
        // Ties at the floor with mapped ids in reverse order: the smaller
        // id arrives after θ is set and must still win its tie.
        let scores = [3.0, 5.0, 5.0, 1.0, 5.0, 2.0, 0.0, 4.0];
        let map: Vec<u32> = (0..8).rev().collect();
        for k in 0..=9 {
            let mut primed = TopKHeap::new(k);
            offer_scores(
                &Kernel::scalar(),
                &scores,
                &mut primed,
                ColumnIds::Mapped(&map),
                0,
                &mut Vec::new(),
            );
            let mut every = TopKHeap::new(k);
            for (j, &s) in scores.iter().enumerate() {
                every.push(s, map[j]);
            }
            assert_eq!(primed.into_sorted(), every.into_sorted(), "k {k}");
        }
    }
}
