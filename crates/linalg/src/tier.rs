//! A numeric screen tier's data format, defined once.
//!
//! [`crate::GemmElem`] says how an element type is packed and multiplied;
//! [`ScreenElem`] adds what the mixed-precision screen needs to know about
//! it: how an exact f64 row is stored in the tier (and which per-row
//! **terms** its error envelope needs), the user-side **offer** those terms
//! turn into, how one accumulator becomes a screen score and an envelope,
//! and the threshold-filter and group-maxima slots. Everything above this
//! module — the row store [`TierRows`], the block pass in
//! `mips_topk::screen`, the model-level mirrors in `mips_data` — is
//! generic over the trait, so a tier is one `GemmElem` impl, one
//! `ScreenElem` impl and one [`ScreenTier`] variant (with its arm in
//! [`crate::per_tier!`]).
//!
//! The terms are stored column-wise (one `f64` slice per term, one entry
//! per row), which is what the SIMD filters load:
//!
//! * **f32** — the rounded row and `[‖row‖₂]`, the exact f64 norm of the
//!   *original* row ([`crate::f32_screen_envelope`] is stated against the
//!   true vectors);
//! * **int8** — the symmetric codes of [`crate::quantize_row_i8`] and
//!   `[s, 1/s, ‖row‖₁]`: the user side needs the exact scale `s`, the item
//!   side multiplies by `1/s`, so both are stored rather than one re-derived
//!   from the other.

use crate::gemm::{GemmB, GemmElem, PanelView};
use crate::matrix::RowBlock;
use crate::quant::{quantize_row_i8, I8_DOT_MAX_LEN};
use crate::simd::{F32Offer, I8Offer, Kernel};
use std::fmt::Debug;
use std::ops::Range;

/// A numeric tier the scan phase can screen in before the exact f64
/// rescore. Code above the tier modules takes the tier as a value, loops
/// [`ScreenTier::ALL`], or reaches its element type through [`crate::per_tier!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScreenTier {
    /// Single precision with a rounding envelope.
    F32,
    /// Symmetric per-row int8 codes with a quantization envelope.
    I8,
}

impl ScreenTier {
    /// Every tier, in the order planners compete them and metrics render
    /// them.
    pub const ALL: [ScreenTier; 2] = [ScreenTier::F32, ScreenTier::I8];

    /// Stable short name (`"f32"`, `"i8"`): the `/metrics` lane names.
    pub const fn name(self) -> &'static str {
        match self {
            ScreenTier::F32 => "f32",
            ScreenTier::I8 => "i8",
        }
    }

    /// What a screened variant appends to its base's display name and
    /// backend key (`"+f32"`, `"+i8"`).
    pub const fn suffix(self) -> &'static str {
        match self {
            ScreenTier::F32 => "+f32",
            ScreenTier::I8 => "+i8",
        }
    }

    /// Position in [`ScreenTier::ALL`], for per-tier arrays.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Evaluates `$body` with `$T` naming the element type of the run-time
/// tier `$tier` — the one place a [`ScreenTier`] value becomes a
/// [`ScreenElem`] type. Every arm must produce the same type.
///
/// ```
/// use mips_linalg::{per_tier, ScreenElem, ScreenTier};
/// for tier in ScreenTier::ALL {
///     assert_eq!(per_tier!(tier, T => T::TIER), tier);
/// }
/// ```
#[macro_export]
macro_rules! per_tier {
    ($tier:expr, $T:ident => $body:expr) => {
        match $tier {
            $crate::ScreenTier::F32 => {
                type $T = f32;
                $body
            }
            $crate::ScreenTier::I8 => {
                type $T = i8;
                $body
            }
        }
    };
}

/// The most per-row terms any tier stores.
pub const MAX_TERMS: usize = 3;

/// The per-row terms of a block of rows: one slice per term, one entry per
/// row; slots past [`ScreenElem::TERMS`] are empty.
pub type Terms<'a> = [&'a [f64]; MAX_TERMS];

/// An element type the scan can screen in: [`GemmElem`] plus the tier's
/// storage rule, offer expression, and filter and group-maxima slots (see
/// the module docs).
pub trait ScreenElem: GemmElem + Default {
    /// The tier this element type stores.
    const TIER: ScreenTier;
    /// How many `f64` terms a stored row carries.
    const TERMS: usize;
    /// One user's side of the tier's offer expression.
    type Offer: Copy + Debug + Send + Sync;

    /// Stores the exact row `row` into `out` and returns its terms (slots
    /// past [`ScreenElem::TERMS`] unused); `None` when the tier has no
    /// usable representation of the row.
    fn store_row(row: &[f64], out: &mut [Self]) -> Option<[f64; MAX_TERMS]>;

    /// The offer terms of row `row` of `users`, over `f` factors.
    fn offer(f: usize, users: Terms<'_>, row: usize) -> Self::Offer;

    /// The screen score and envelope of accumulator `acc` against row `col`
    /// of `items`: the exact score lies in `score ± envelope`. `None` when
    /// the accumulator carries no bound and the column must be kept.
    fn bound(
        offer: &Self::Offer,
        acc: Self::Acc,
        items: Terms<'_>,
        col: usize,
    ) -> Option<(f64, f64)>;

    /// The tier's threshold filter in `kern`: the first `j ≥ from` whose
    /// upper bound is not below `threshold` (or carries no bound), if any.
    fn next_hit(
        kern: &Kernel,
        accs: &[Self::Acc],
        items: Terms<'_>,
        offer: Self::Offer,
        from: usize,
        threshold: f64,
    ) -> Option<usize>;

    /// The tier's group-maxima slot in `kern`: for each `g < out.len()`,
    /// `out[g]` is the largest lower bound `score − envelope` — evaluated
    /// in exactly the operations of [`ScreenElem::bound`] and the offer
    /// rule's subtraction — over columns `g·group .. (g + 1)·group` of
    /// `accs`. Columns without a bound contribute none; `−∞` when no column
    /// of the run has one.
    fn group_max(
        kern: &Kernel,
        accs: &[Self::Acc],
        items: Terms<'_>,
        offer: Self::Offer,
        group: usize,
        out: &mut [f64],
    );
}

impl ScreenElem for f32 {
    const TIER: ScreenTier = ScreenTier::F32;
    const TERMS: usize = 1;
    type Offer = F32Offer;

    /// Rounds to nearest; a value beyond the f32 range has no usable
    /// image. The norm is taken in f64 *before* rounding.
    fn store_row(row: &[f64], out: &mut [f32]) -> Option<[f64; MAX_TERMS]> {
        for (o, &v) in out.iter_mut().zip(row) {
            *o = v as f32;
        }
        let finite = out.iter().all(|v| v.is_finite());
        finite.then(|| [crate::norm2(row), 0.0, 0.0])
    }

    #[inline(always)]
    fn offer(f: usize, users: Terms<'_>, row: usize) -> F32Offer {
        F32Offer::for_user(f, users[0][row])
    }

    /// A product that overflowed to a non-finite score carries no bound.
    #[inline(always)]
    fn bound(offer: &F32Offer, acc: f32, items: Terms<'_>, col: usize) -> Option<(f64, f64)> {
        acc.is_finite()
            .then(|| (f64::from(acc), offer.envelope(items[0][col])))
    }

    #[inline(always)]
    fn next_hit(
        kern: &Kernel,
        accs: &[f32],
        items: Terms<'_>,
        offer: F32Offer,
        from: usize,
        threshold: f64,
    ) -> Option<usize> {
        kern.next_hit_f32(accs, items[0], offer, from, threshold)
    }

    #[inline(always)]
    fn group_max(
        kern: &Kernel,
        accs: &[f32],
        items: Terms<'_>,
        offer: F32Offer,
        group: usize,
        out: &mut [f64],
    ) {
        kern.group_max_f32(accs, items[0], offer, group, out)
    }
}

impl ScreenElem for i8 {
    const TIER: ScreenTier = ScreenTier::I8;
    const TERMS: usize = 3;
    type Offer = I8Offer;

    /// Unusable when quantization degenerates (a subnormal magnitude drives
    /// the scale to infinity, a NaN poisons the L1 norm) or the row is
    /// longer than the integer kernels' overflow cap.
    fn store_row(row: &[f64], out: &mut [i8]) -> Option<[f64; MAX_TERMS]> {
        if row.len() > I8_DOT_MAX_LEN {
            return None;
        }
        let (scale, l1) = quantize_row_i8(row, out);
        (scale.is_finite() && l1.is_finite()).then(|| [scale, 1.0 / scale, l1])
    }

    #[inline(always)]
    fn offer(f: usize, users: Terms<'_>, row: usize) -> I8Offer {
        I8Offer::for_user(f, users[0][row], users[2][row])
    }

    /// Always bounded: the integer dot is exact and the scales are finite.
    #[inline(always)]
    fn bound(offer: &I8Offer, acc: i32, items: Terms<'_>, col: usize) -> Option<(f64, f64)> {
        let inv_si = items[1][col];
        Some((
            offer.score(acc, inv_si),
            offer.envelope(inv_si, items[2][col]),
        ))
    }

    #[inline(always)]
    fn next_hit(
        kern: &Kernel,
        accs: &[i32],
        items: Terms<'_>,
        offer: I8Offer,
        from: usize,
        threshold: f64,
    ) -> Option<usize> {
        kern.next_hit_i8(accs, items[1], items[2], offer, from, threshold)
    }

    #[inline(always)]
    fn group_max(
        kern: &Kernel,
        accs: &[i32],
        items: Terms<'_>,
        offer: I8Offer,
        group: usize,
        out: &mut [f64],
    ) {
        kern.group_max_i8(accs, items[1], items[2], offer, group, out)
    }
}

/// Rows of an f64 block in tier `T`'s storage, each with its envelope
/// terms — either side of a block screen.
#[derive(Debug, Clone)]
pub struct TierRows<T: ScreenElem> {
    /// Row-major, `rows × cols`.
    data: Vec<T>,
    rows: usize,
    cols: usize,
    /// One column per term, `rows` entries each; columns past `T::TERMS`
    /// stay empty.
    terms: [Vec<f64>; MAX_TERMS],
}

impl<T: ScreenElem> TierRows<T> {
    /// An empty store sized for `rows × cols`; the caller fills it.
    fn with_capacity(rows: usize, cols: usize) -> TierRows<T> {
        let mut terms: [Vec<f64>; MAX_TERMS] = Default::default();
        for column in &mut terms[..T::TERMS] {
            column.reserve_exact(rows);
        }
        TierRows {
            data: Vec::with_capacity(rows * cols),
            rows,
            cols,
            terms,
        }
    }

    /// Stores every row of `rows` in the tier. `None` when some row has no
    /// usable representation ([`ScreenElem::store_row`]); consumers then
    /// stay on their unscreened path — still exact, just unaccelerated.
    pub fn build(rows: RowBlock<'_, f64>) -> Option<TierRows<T>> {
        let (n, f) = (rows.rows(), rows.cols());
        let mut out = TierRows::with_capacity(n, f);
        out.data.resize(n * f, T::default());
        for r in 0..n {
            let stored = T::store_row(rows.row(r), &mut out.data[r * f..(r + 1) * f])?;
            for (column, term) in out.terms.iter_mut().zip(stored).take(T::TERMS) {
                column.push(term);
            }
        }
        Some(out)
    }

    /// Rows `ids` of this store, in the order given. Each row's storage and
    /// terms travel with it, so nothing is rounded or quantized a second
    /// time and the result equals [`TierRows::build`] over the same rows of
    /// the f64 block.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    pub fn gather(&self, ids: impl ExactSizeIterator<Item = usize>) -> TierRows<T> {
        let mut out = TierRows::with_capacity(ids.len(), self.cols);
        for id in ids {
            out.data.extend_from_slice(self.row(id));
            for (column, source) in out.terms.iter_mut().zip(&self.terms).take(T::TERMS) {
                column.push(source[id]);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Factors per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` in tier storage.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Rows `start..end` in tier storage, as a GEMM operand.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn row_block(&self, start: usize, end: usize) -> RowBlock<'_, T> {
        assert!(start <= end && end <= self.rows(), "row block out of range");
        RowBlock::new(
            &self.data[start * self.cols..end * self.cols],
            end - start,
            self.cols,
        )
    }

    /// The per-row terms, one slice per term.
    #[inline(always)]
    pub fn terms(&self) -> Terms<'_> {
        std::array::from_fn(|t| self.terms[t].as_slice())
    }

    /// Every row, borrowed.
    pub fn view(&self) -> TierView<'_, T> {
        TierView {
            rows: GemmB::Rows(self.row_block(0, self.rows())),
            terms: self.terms(),
        }
    }
}

/// A borrowed block of tier rows with their terms: what a screen pass
/// takes. The rows are row storage ([`TierRows::view`]) or the same rows
/// packed once for the GEMM driver ([`TierView::packed`]); the pass then
/// packs nothing on that side. The item side needs nothing else, so a
/// packed view keeps no rows: the pass reads the codes through the
/// multiply and the terms by column.
#[derive(Debug, Clone, Copy)]
pub struct TierView<'a, T: ScreenElem> {
    rows: GemmB<'a, T>,
    terms: Terms<'a>,
}

impl<'a, T: ScreenElem> TierView<'a, T> {
    /// Packed rows and their terms, with no row storage: a screen's item
    /// side held as panels alone.
    ///
    /// # Panics
    /// Panics if a term column's length differs from the panels' rows.
    pub fn packed(panels: PanelView<'a, T>, terms: Terms<'a>) -> TierView<'a, T> {
        for column in &terms[..T::TERMS] {
            assert_eq!(column.len(), panels.rows(), "terms of a different block");
        }
        TierView {
            rows: GemmB::Packed(panels),
            terms,
        }
    }

    /// The sub-block of rows `range` — how a caller walks one borrowed side
    /// in batches or segments.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, or if the view is packed and
    /// the range does not start on a panel boundary ([`PanelView::slice`]).
    pub fn rows(self, range: Range<usize>) -> TierView<'a, T> {
        let mut terms = self.terms;
        for column in &mut terms[..T::TERMS] {
            *column = &column[range.clone()];
        }
        let rows = match self.rows {
            GemmB::Rows(rows) => {
                let f = rows.cols();
                let data = &rows.as_slice()[range.start * f..range.end * f];
                GemmB::Rows(RowBlock::new(data, range.len(), f))
            }
            GemmB::Gathered(rows, ids) => GemmB::Gathered(rows, &ids[range]),
            GemmB::Packed(panels) => GemmB::Packed(panels.slice(range)),
        };
        TierView { rows, terms }
    }

    /// The rows in tier storage — the A side of a multiply.
    ///
    /// # Panics
    /// Panics on a packed view, which holds no row storage.
    #[inline(always)]
    pub fn row_block(&self) -> RowBlock<'a, T> {
        match self.rows {
            GemmB::Rows(rows) => rows,
            GemmB::Gathered(..) | GemmB::Packed(_) => {
                panic!("a packed tier view has no row storage")
            }
        }
    }

    /// The rows as the B side of a multiply.
    pub fn gemm_b(&self) -> GemmB<'a, T> {
        self.rows
    }

    /// The per-row terms, one slice per term.
    #[inline(always)]
    pub fn terms(&self) -> Terms<'a> {
        self.terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, PackedPanels};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// A view's storage and the bits of every term column.
    fn parts<T: ScreenElem + PartialEq>(view: TierView<'_, T>) -> (Vec<T>, Vec<Vec<u64>>) {
        let bits = |column: &&[f64]| column.iter().map(|v| v.to_bits()).collect();
        (
            view.row_block().as_slice().to_vec(),
            view.terms().iter().map(bits).collect(),
        )
    }

    /// The row store pinned once, for tier `T`: a build over a matrix, a
    /// gather of a permutation (with repeats), sub-block views and 1-row
    /// builds all agree byte for byte on storage and terms.
    fn store_forms_agree<T: ScreenElem + PartialEq>() {
        let m = random_matrix(30, 11, 21);
        let built = TierRows::<T>::build((&m).into()).expect("finite rows store usably");
        assert_eq!((built.rows(), built.cols()), (30, 11));
        for column in &built.terms()[..T::TERMS] {
            assert_eq!(column.len(), 30);
        }
        assert!(built.terms()[T::TERMS..].iter().all(|c| c.is_empty()));

        let ids = [7usize, 0, 29, 7, 13];
        let gathered = built.gather(ids.iter().copied());
        let rebuilt = TierRows::<T>::build((&m.gather_rows(&ids)).into()).unwrap();
        assert_eq!(parts(gathered.view()), parts(rebuilt.view()));

        for (pos, &id) in ids.iter().enumerate() {
            // One row, built alone — how a point screen arms a user.
            let alone = TierRows::<T>::build(RowBlock::new(m.row(id), 1, 11)).unwrap();
            assert_eq!(parts(alone.view()), parts(built.view().rows(id..id + 1)));
            assert_eq!(
                parts(alone.view()),
                parts(gathered.view().rows(pos..pos + 1))
            );
            assert_eq!(alone.row(0), built.row(id));
        }
        assert_eq!(
            built.row_block(2, 5).as_slice(),
            built.view().rows(2..5).row_block().as_slice()
        );
        assert_eq!(built.view().rows(4..4).row_block().rows(), 0);

        // An empty block stores as an empty block.
        let empty = TierRows::<T>::build((&Matrix::<f64>::zeros(0, 4)).into()).unwrap();
        assert_eq!((empty.rows(), empty.cols()), (0, 4));
    }

    #[test]
    fn build_gather_and_views_agree_byte_for_byte_in_every_tier() {
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => store_forms_agree::<T>());
        }
    }

    #[test]
    fn tier_names_indices_and_element_types_follow_all() {
        for (i, tier) in ScreenTier::ALL.into_iter().enumerate() {
            assert_eq!(tier.index(), i);
            assert_eq!(tier.suffix(), format!("+{}", tier.name()));
            assert_eq!(per_tier!(tier, T => T::TIER), tier);
            assert!(per_tier!(tier, T => T::TERMS) <= MAX_TERMS);
        }
    }

    #[test]
    fn stored_rows_follow_the_shared_rounding_and_quantization_policy() {
        let m = Matrix::from_rows(&[
            vec![3.0, 4.0],
            vec![0.1, 0.0],
            vec![0.0, 0.0],
            vec![5.0, 6.0],
        ])
        .unwrap();
        let rows32 = TierRows::<f32>::build((&m).into()).unwrap();
        assert_eq!(rows32.row(1), [0.1_f32, 0.0]);
        assert_eq!(rows32.terms()[0], [5.0, 0.1, 0.0, crate::norm2(m.row(3))]);

        let rows8 = TierRows::<i8>::build((&m).into()).unwrap();
        let mut codes = [0i8; 2];
        for (r, row) in m.iter_rows().enumerate() {
            let (scale, l1) = quantize_row_i8(row, &mut codes);
            assert_eq!(rows8.row(r), codes);
            let [scales, inv_scales, l1s] = rows8.terms();
            // Both the scale and its inverse are stored, each exact.
            assert_eq!((scales[r], inv_scales[r], l1s[r]), (scale, 1.0 / scale, l1));
        }
        // [5, 6]: max-abs 6 maps to the top code.
        assert_eq!(rows8.row(3)[1], 127);
        assert_eq!(rows8.terms()[2][3], 11.0);
    }

    #[test]
    fn unusable_rows_yield_no_store() {
        // f32 overflow: unusable in f32, fine in int8 (the scale absorbs it).
        let huge = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0e300, 0.0]]).unwrap();
        assert!(TierRows::<f32>::build((&huge).into()).is_none());
        assert!(TierRows::<i8>::build((&huge).into()).is_some());
        // A subnormal max-magnitude drives 127/max_abs to infinity.
        let tiny = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0e-320, 0.0]]).unwrap();
        assert!(TierRows::<i8>::build((&tiny).into()).is_none());
        assert!(TierRows::<f32>::build((&tiny).into()).is_some());
        assert!(
            TierRows::<i8>::build(RowBlock::new(&[f64::MIN_POSITIVE / 4.0; 6], 1, 6)).is_none()
        );
        // NaN (unvalidated input) poisons the norms in both tiers.
        let nan = [1.0, f64::NAN];
        assert!(TierRows::<f32>::build(RowBlock::new(&nan, 1, 2)).is_none());
        assert!(TierRows::<i8>::build(RowBlock::new(&nan, 1, 2)).is_none());
        // Past the integer kernels' overflow cap only f32 stores.
        let wide = vec![0.5; I8_DOT_MAX_LEN + 1];
        assert!(TierRows::<i8>::build(RowBlock::new(&wide, 1, wide.len())).is_none());
        assert!(TierRows::<f32>::build(RowBlock::new(&wide, 1, wide.len())).is_some());
        let at_cap = &wide[..I8_DOT_MAX_LEN];
        assert!(TierRows::<i8>::build(RowBlock::new(at_cap, 1, at_cap.len())).is_some());
    }

    /// Each tier's reference point dot for these tests: the int8 kernel
    /// slot, and the portable f32 body the envelope tests hold to it.
    trait PointDot: ScreenElem {
        fn point_dot(x: &[Self], y: &[Self]) -> Self::Acc;
    }

    impl PointDot for i8 {
        fn point_dot(x: &[i8], y: &[i8]) -> i32 {
            crate::quant::dot_i8(x, y)
        }
    }

    impl PointDot for f32 {
        fn point_dot(x: &[f32], y: &[f32]) -> f32 {
            crate::kernels::tests::dot_scalar_f32(x, y)
        }
    }

    #[test]
    fn offers_and_bounds_contain_the_exact_score_in_every_tier() {
        fn check<T: PointDot>() {
            let (users, items) = (random_matrix(4, 12, 3), random_matrix(25, 12, 4));
            let u = TierRows::<T>::build((&users).into()).unwrap();
            let i = TierRows::<T>::build((&items).into()).unwrap();
            for a in 0..4 {
                let offer = T::offer(12, u.terms(), a);
                for b in 0..25 {
                    let exact = crate::dot(users.row(a), items.row(b));
                    let acc = T::point_dot(u.row(a), i.row(b));
                    let (score, env) = T::bound(&offer, acc, i.terms(), b).expect("finite");
                    assert!((score - exact).abs() <= env, "{:?} {a}x{b}", T::TIER);
                }
            }
        }
        for tier in ScreenTier::ALL {
            per_tier!(tier, T => check::<T>());
        }
        // An overflowed f32 product carries no bound.
        let offer = <f32 as ScreenElem>::offer(2, [&[1.0], &[], &[]], 0);
        assert!(f32::bound(&offer, f32::INFINITY, [&[1.0], &[], &[]], 0).is_none());
    }

    #[test]
    fn group_maxima_are_the_largest_lower_bounds_bound_reports() {
        fn check<T: ScreenElem>(
            accs_of: impl Fn(&TierRows<T>, &TierRows<T>, usize) -> Vec<T::Acc>,
        ) {
            let (users, items) = (random_matrix(3, 12, 5), random_matrix(37, 12, 6));
            let u = TierRows::<T>::build((&users).into()).unwrap();
            let i = TierRows::<T>::build((&items).into()).unwrap();
            for a in 0..3 {
                let offer = T::offer(12, u.terms(), a);
                let accs = accs_of(&u, &i, a);
                for group in [1usize, 4, 7, 37] {
                    let mut out = vec![0.0; 37usize.div_ceil(group)];
                    let kern = crate::simd::active();
                    T::group_max(kern, &accs, i.terms(), offer, group, &mut out);
                    for (g, &got) in out.iter().enumerate() {
                        let lows = (g * group..((g + 1) * group).min(37))
                            .filter_map(|b| T::bound(&offer, accs[b], i.terms(), b))
                            .map(|(score, env)| score - env);
                        let want = lows.fold(f64::NEG_INFINITY, f64::max);
                        assert_eq!(got, want, "{:?} user {a} group {group}", T::TIER);
                    }
                }
            }
        }
        let dots = |u: &TierRows<i8>, i: &TierRows<i8>, a: usize| {
            (0..i.rows())
                .map(|b| i8::point_dot(u.row(a), i.row(b)))
                .collect()
        };
        check::<i8>(dots);
        // Every fourth f32 accumulator overflowed: no bound, no maximum.
        check::<f32>(|u, i, a| {
            (0..i.rows())
                .map(|b| match b % 4 {
                    1 => f32::INFINITY,
                    _ => f32::point_dot(u.row(a), i.row(b)),
                })
                .collect()
        });
    }

    #[test]
    #[should_panic(expected = "terms of a different block")]
    fn panels_must_match_their_terms() {
        let m = random_matrix(6, 4, 9);
        let rows = TierRows::<f32>::build((&m).into()).unwrap();
        let panels = PackedPanels::pack(rows.row_block(0, 5));
        let _ = TierView::packed((&panels).into(), rows.terms());
    }
}
