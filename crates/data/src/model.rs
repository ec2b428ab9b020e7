//! The matrix-factorization model type consumed by every MIPS solver.

use mips_linalg::{norm2_sq, scaled_norm2, LinalgError, Matrix, ScreenElem, TierRows};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors raised when constructing a model from untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// User and item matrices disagree on the number of latent factors.
    FactorMismatch {
        /// Latent factors in the user matrix.
        user_factors: usize,
        /// Latent factors in the item matrix.
        item_factors: usize,
    },
    /// A matrix failed validation (empty or non-finite).
    InvalidMatrix(LinalgError),
    /// The largest user norm times the largest item norm is not a finite
    /// f64, so some inner product of the model can overflow — and an
    /// overflowed `+∞ + −∞` is a NaN score.
    ScoreOverflow,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::FactorMismatch {
                user_factors,
                item_factors,
            } => write!(
                f,
                "user matrix has {user_factors} factors but item matrix has {item_factors}"
            ),
            ModelError::InvalidMatrix(e) => write!(f, "invalid factor matrix: {e}"),
            ModelError::ScoreOverflow => write!(
                f,
                "the largest user and item norms multiply past the f64 range, \
                 so inner products can overflow"
            ),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::InvalidMatrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ModelError {
    fn from(e: LinalgError) -> Self {
        ModelError::InvalidMatrix(e)
    }
}

/// A trained matrix-factorization model: one `f`-dimensional vector per user
/// and per item, with predicted rating `r̂_ui = uᵀi`.
///
/// Both matrices are validated (non-empty, finite, matching width) at
/// construction, so solvers can assume well-formed input. Models are shared
/// between solvers and the optimizer via [`Arc`].
#[derive(Debug, Clone)]
pub struct MfModel {
    name: String,
    users: Matrix<f64>,
    items: Matrix<f64>,
    /// The lazily built mirrors, one slot per screen tier (see [`Mirror`]),
    /// cached for the model's lifetime like solvers and plans are cached
    /// per epoch: a swapped-in model builds each mirror at most once, and
    /// every worker serving the model shares it through the model's `Arc`.
    /// Cloning a model shares the mirrors already built (a mirror is a pure
    /// function of the factor matrices, which clones share).
    mirrors: MirrorSlots,
    /// [`MfModel::max_item_norm`], measured by [`MfModel::new`]'s range
    /// check.
    max_item_norm: f64,
    /// [`MfModel::has_tiny_rows`], scanned on first use.
    tiny_rows: OnceLock<bool>,
}

/// Whether `row` is tiny: nonzero, with its largest |factor| below
/// `2⁻⁴⁰⁰`. Its norm and suffix norms lose up to `2⁻⁵³⁷·√f` to underflow
/// (every square of a factor below `2⁻⁵¹¹` is subnormal or zero), which no
/// relative slack on a bound covers — a subnormal row's norm computes as 0
/// while its dots stay normal. A pruning index scores every item for such
/// a row ([`MfModel::has_tiny_rows`] applies the test to the model's rows).
/// Above the cutoff the loss stays far inside the indexes' `1e-10`
/// relative slack.
pub fn is_tiny_row(row: &[f64]) -> bool {
    const TINY_ROW: f64 = 3.8725919148493183e-121; // 2⁻⁴⁰⁰
    let max = row.iter().fold(0.0f64, |max, v| max.max(v.abs()));
    max > 0.0 && max < TINY_ROW
}

/// The largest Euclidean row norm of `m`, or the validation error of an
/// empty matrix or one holding a non-finite factor.
///
/// One pass of squared row norms on the SIMD dot does both jobs when every
/// square is finite — a non-finite factor makes its row's square
/// non-finite — so a well-formed matrix is read once. Otherwise the matrix
/// is validated, and then its norms are recomputed scaled
/// ([`scaled_norm2`]): the result is `+∞` only for a norm past the f64
/// range, never an overflowed square.
fn checked_max_row_norm(m: &Matrix<f64>, context: &'static str) -> Result<f64, LinalgError> {
    let mut max_sq = 0.0f64;
    let mut finite = true;
    for row in m.iter_rows() {
        let sq = norm2_sq(row);
        finite &= sq.is_finite();
        max_sq = max_sq.max(sq);
    }
    if finite && !m.is_empty() {
        return Ok(max_sq.sqrt());
    }
    m.validate(context)?;
    Ok(m.iter_rows().map(scaled_norm2).fold(0.0, f64::max))
}

/// Cauchy–Schwarz bounds every score `|uᵀi|` by `‖u‖·‖i‖`, so a finite
/// `max‖u‖·max‖i‖` means no inner product of the model overflows. A norm
/// past the f64 range is `+∞`, and `0·∞` is NaN: both fail.
fn check_score_range(max_user_norm: f64, max_item_norm: f64) -> Result<(), ModelError> {
    if (max_user_norm * max_item_norm).is_finite() {
        Ok(())
    } else {
        Err(ModelError::ScoreOverflow)
    }
}

/// A model's factor matrices in screen tier `T`'s storage — the data side
/// of the mixed-precision screen path: scan backends prune in the tier's
/// arithmetic against [`Mirror::sides`], widen every screened score by the
/// tier's envelope and rescore the survivors on the parent model's f64
/// matrices. Both sides are one [`TierRows`] store each (what a row becomes
/// in a tier, and which terms it carries, is [`mips_linalg::ScreenElem`]);
/// the terms are computed in f64 *before* rounding or quantizing, so the
/// envelope refers to the true vectors.
///
/// A mirror is unusable ([`Mirror::is_usable`]) when some row has no image
/// in the tier — a factor beyond the f32 range, an int8 scale driven to
/// infinity by a subnormal magnitude, a factor count past the integer
/// kernels' overflow cap; consumers then fall back to the pure-f64 path
/// rather than screening against garbage.
#[derive(Debug)]
pub struct Mirror<T: ScreenElem> {
    /// `(users, items)`; `None` when the model does not mirror usably.
    sides: Option<(TierRows<T>, TierRows<T>)>,
}

/// The single-precision mirror ([`MfModel::mirror32`]).
pub type Mirror32 = Mirror<f32>;

/// The int8 mirror ([`MfModel::mirror_i8`]).
pub type MirrorI8 = Mirror<i8>;

impl<T: ScreenElem> Mirror<T> {
    fn build(users: &Matrix<f64>, items: &Matrix<f64>) -> Mirror<T> {
        Mirror {
            sides: TierRows::build(users.into()).zip(TierRows::build(items.into())),
        }
    }

    /// `false` when the model has no usable image in this tier; consumers
    /// must fall back to an unscreened path.
    pub fn is_usable(&self) -> bool {
        self.sides.is_some()
    }

    /// The user and item rows in tier storage, `None` on an unusable
    /// mirror.
    pub fn sides(&self) -> Option<(&TierRows<T>, &TierRows<T>)> {
        self.sides.as_ref().map(|(users, items)| (users, items))
    }

    fn usable_sides(&self) -> (&TierRows<T>, &TierRows<T>) {
        self.sides()
            .expect("the model does not mirror usably in this tier (check is_usable)")
    }

    /// The user factor matrix in tier storage (`|U| × f`).
    ///
    /// # Panics
    /// Panics on an unusable mirror.
    pub fn users(&self) -> &TierRows<T> {
        self.usable_sides().0
    }

    /// The item factor matrix in tier storage (`|I| × f`).
    ///
    /// # Panics
    /// Panics on an unusable mirror.
    pub fn items(&self) -> &TierRows<T> {
        self.usable_sides().1
    }

    /// User row `r` in tier storage.
    ///
    /// # Panics
    /// Panics on an unusable mirror.
    pub fn user_row(&self, r: usize) -> &[T] {
        self.users().row(r)
    }

    /// Item row `r` in tier storage.
    ///
    /// # Panics
    /// Panics on an unusable mirror.
    pub fn item_row(&self, r: usize) -> &[T] {
        self.items().row(r)
    }
}

/// A model's mirror cache: one lazily filled slot per screen tier.
#[derive(Debug, Clone, Default)]
pub struct MirrorSlots {
    f32: OnceLock<Arc<Mirror<f32>>>,
    i8: OnceLock<Arc<Mirror<i8>>>,
}

/// A screen tier the model caches a mirror for: names its slot.
pub trait MirrorElem: ScreenElem {
    /// The tier's slot in a model's cache.
    fn slot(slots: &MirrorSlots) -> &OnceLock<Arc<Mirror<Self>>>;
}

impl MirrorElem for f32 {
    fn slot(slots: &MirrorSlots) -> &OnceLock<Arc<Mirror<f32>>> {
        &slots.f32
    }
}

impl MirrorElem for i8 {
    fn slot(slots: &MirrorSlots) -> &OnceLock<Arc<Mirror<i8>>> {
        &slots.i8
    }
}

impl MfModel {
    /// Builds and validates a model: non-empty, finite matrices of one
    /// width whose inner products cannot overflow (largest user norm times
    /// largest item norm is a finite f64, else [`ModelError::ScoreOverflow`]).
    /// Every model comes through here, [`MfModel::with_users`] or `Clone`,
    /// so solvers and the engine can assume well-formed factors.
    pub fn new(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> Result<Self, ModelError> {
        let max_user_norm = checked_max_row_norm(&users, "MfModel users")?;
        let max_item_norm = checked_max_row_norm(&items, "MfModel items")?;
        if users.cols() != items.cols() {
            return Err(ModelError::FactorMismatch {
                user_factors: users.cols(),
                item_factors: items.cols(),
            });
        }
        check_score_range(max_user_norm, max_item_norm)?;
        Ok(MfModel {
            name: name.into(),
            users,
            items,
            mirrors: MirrorSlots::default(),
            max_item_norm,
            tiny_rows: OnceLock::new(),
        })
    }

    /// Builds a model and wraps it in an [`Arc`] for sharing across solvers.
    pub fn new_shared(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> Result<Arc<Self>, ModelError> {
        Ok(Arc::new(Self::new(name, users, items)?))
    }

    /// Human-readable model name (e.g. `"Netflix-DSGD, f = 50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The user factor matrix (`|U| × f`).
    pub fn users(&self) -> &Matrix<f64> {
        &self.users
    }

    /// The item factor matrix (`|I| × f`).
    pub fn items(&self) -> &Matrix<f64> {
        &self.items
    }

    /// Number of users `|U|`.
    pub fn num_users(&self) -> usize {
        self.users.rows()
    }

    /// Number of items `|I|`.
    pub fn num_items(&self) -> usize {
        self.items.rows()
    }

    /// Number of latent factors `f`.
    pub fn num_factors(&self) -> usize {
        self.users.cols()
    }

    /// The largest Euclidean norm of an item vector (`+∞` only when it is
    /// past the f64 range) — what a query vector's norm is checked against
    /// before it is scored.
    pub fn max_item_norm(&self) -> f64 {
        self.max_item_norm
    }

    /// Whether some user or item row is tiny ([`is_tiny_row`]). The
    /// pruning indexes (MAXIMUS, LEMP, FEXIPRO) bound scores with row
    /// norms, so over such a model they score every item instead.
    pub fn has_tiny_rows(&self) -> bool {
        let tiny = |m: &Matrix<f64>| m.iter_rows().any(is_tiny_row);
        *self
            .tiny_rows
            .get_or_init(|| tiny(&self.users) || tiny(&self.items))
    }

    /// A copy restricted to the given users (used by OPTIMUS sampling tests).
    pub fn with_users(&self, indices: &[usize]) -> MfModel {
        MfModel {
            name: format!("{}[{} users]", self.name, indices.len()),
            users: self.users.gather_rows(indices),
            items: self.items.clone(),
            mirrors: MirrorSlots::default(),
            // Same items, same norms.
            max_item_norm: self.max_item_norm,
            tiny_rows: OnceLock::new(),
        }
    }

    /// The model's mirror in tier `T`, built on first use and cached for
    /// the model's lifetime (see [`Mirror`]). Thread-safe: concurrent first
    /// callers race to build and all observe one winner.
    pub fn mirror<T: MirrorElem>(&self) -> &Arc<Mirror<T>> {
        T::slot(&self.mirrors).get_or_init(|| Arc::new(Mirror::build(&self.users, &self.items)))
    }

    /// The single-precision mirror ([`MfModel::mirror`] of `f32`).
    pub fn mirror32(&self) -> &Arc<Mirror32> {
        self.mirror()
    }

    /// The int8 mirror ([`MfModel::mirror`] of `i8`).
    pub fn mirror_i8(&self) -> &Arc<MirrorI8> {
        self.mirror()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_linalg::dot;

    fn users2x2() -> Matrix<f64> {
        Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap()
    }

    fn items3x2() -> Matrix<f64> {
        Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = MfModel::new("test", users2x2(), items3x2()).unwrap();
        assert_eq!(m.name(), "test");
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.num_items(), 3);
        assert_eq!(m.num_factors(), 2);
        assert_eq!(dot(m.users().row(0), m.items().row(1)), 3.0);
        assert_eq!(dot(m.users().row(1), m.items().row(2)), 6.0);
    }

    #[test]
    fn rejects_factor_mismatch() {
        let users = Matrix::from_vec(2, 3, vec![0.5; 6]).unwrap();
        let err = MfModel::new("bad", users, items3x2()).unwrap_err();
        assert!(matches!(err, ModelError::FactorMismatch { .. }));
        assert!(err.to_string().contains("3 factors"));
    }

    #[test]
    fn rejects_non_finite_factors() {
        let mut users = users2x2();
        users.set(0, 0, f64::NAN);
        let err = MfModel::new("nan", users, items3x2()).unwrap_err();
        assert!(matches!(err, ModelError::InvalidMatrix(_)));
    }

    #[test]
    fn rejects_factors_whose_inner_products_overflow() {
        // 1e200·1e200 overflows: u·i₀ = +∞ + −∞ = NaN.
        let users = Matrix::from_vec(1, 2, vec![1e200, 1e200]).unwrap();
        let items = Matrix::from_vec(2, 2, vec![1e200, -1e200, 1.0, 1.0]).unwrap();
        let err = MfModel::new("huge", users, items).unwrap_err();
        assert_eq!(err, ModelError::ScoreOverflow);
        assert!(err.to_string().contains("overflow"));
        // Norms near the range's edge are fine as long as their product is.
        let small = Matrix::from_vec(1, 2, vec![1e-200, 1e-200]).unwrap();
        let big = Matrix::from_vec(1, 2, vec![3e200, -4e200]).unwrap();
        let m = MfModel::new("edge", small, big).unwrap();
        assert!((m.max_item_norm() / 5e200 - 1.0).abs() < 1e-15);
    }

    #[test]
    fn max_item_norm_is_the_largest_row_norm() {
        let m = MfModel::new("test", users2x2(), items3x2()).unwrap();
        assert!((m.max_item_norm() - 61f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.with_users(&[0]).max_item_norm(), m.max_item_norm());
    }

    #[test]
    fn rejects_empty_matrices() {
        let empty = Matrix::<f64>::zeros(0, 2);
        assert!(MfModel::new("e", empty, items3x2()).is_err());
    }

    #[test]
    fn with_users_subsets() {
        let m = MfModel::new("test", users2x2(), items3x2()).unwrap();
        let sub = m.with_users(&[1]);
        assert_eq!(sub.num_users(), 1);
        assert_eq!(sub.num_items(), 3);
        assert_eq!(dot(sub.users().row(0), sub.items().row(2)), 6.0);
    }

    #[test]
    fn shared_constructor_returns_arc() {
        let m = MfModel::new_shared("s", users2x2(), items3x2()).unwrap();
        let m2 = m.clone();
        assert_eq!(m2.num_users(), 2);
    }

    #[test]
    fn mirrors_are_lazy_shared_and_hold_both_sides_in_their_tier() {
        fn check<T: MirrorElem + PartialEq>() {
            let m = MfModel::new_shared("m", users2x2(), items3x2()).unwrap();
            let mirror = m.mirror::<T>();
            assert!(mirror.is_usable());
            let (users, items) = mirror.sides().expect("usable");
            assert_eq!((users.rows(), users.cols()), (2, 2));
            assert_eq!((items.rows(), items.cols()), (3, 2));
            // What a row becomes in the tier is the row store's business
            // (pinned in mips-linalg); the mirror holds exactly that.
            let rebuilt = TierRows::<T>::build(m.items().into()).unwrap();
            assert_eq!(mirror.item_row(2), rebuilt.row(2));
            assert_eq!(mirror.items().terms(), rebuilt.terms());
            assert_eq!(mirror.user_row(0), mirror.users().row(0));
            // Repeated calls share one build.
            assert!(Arc::ptr_eq(m.mirror::<T>(), mirror));
        }
        check::<f32>();
        check::<i8>();
        let m = MfModel::new_shared("m", users2x2(), items3x2()).unwrap();
        assert_eq!(m.mirror32().item_row(2), [5.0f32, 6.0]);
        assert_eq!(m.mirror_i8().user_row(0), [127, 0]);
    }

    #[test]
    fn rows_a_tier_cannot_store_make_the_mirror_unusable() {
        // f32 overflow.
        let users = Matrix::from_vec(1, 2, vec![1e300, 0.0]).unwrap();
        let m = MfModel::new("big", users, items3x2()).unwrap();
        assert!(!m.mirror32().is_usable());
        assert!(m.mirror32().sides().is_none());
        assert!(m.mirror_i8().is_usable());
        // A subnormal max-magnitude drives scale = 127/max_abs to infinity.
        let users = Matrix::from_vec(1, 2, vec![f64::MIN_POSITIVE / 4.0, 0.0]).unwrap();
        let m = MfModel::new("tiny", users, items3x2()).unwrap();
        assert!(!m.mirror_i8().is_usable());
        assert!(m.mirror32().is_usable());
    }

    #[test]
    fn tiny_rows_are_nonzero_rows_below_the_cutoff() {
        let with_user = |row: Vec<f64>| {
            let users = Matrix::from_vec(1, 2, row).unwrap();
            MfModel::new("m", users, items3x2())
                .unwrap()
                .has_tiny_rows()
        };
        assert!(with_user(vec![1e-310, 0.0]));
        assert!(with_user(vec![-1e-200, 1e-130]));
        assert!(!with_user(vec![0.0, 0.0]), "a zero row bounds exactly");
        assert!(
            !with_user(vec![1e-300, 1e-100]),
            "one large factor is enough"
        );
        assert!(!with_user(vec![1.0, 2.0]));
    }
}
