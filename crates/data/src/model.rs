//! The matrix-factorization model type consumed by every MIPS solver.

use mips_linalg::{
    dot, norm2, quantize_row_i8, GemmElem, LinalgError, Matrix, PackedPanels, RowBlock,
    I8_DOT_MAX_LEN,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A catalog side packed for the GEMM driver on first use and kept for its
/// owner's lifetime — the same caching discipline as the mirrors: lazy, at
/// most one build, shared by every shard and thread that reaches the
/// owner. A clone shares the cell, built or not (clones hold the same
/// rows). `builds` is the owning model's counter
/// ([`MfModel::panel_builds`]).
#[derive(Debug, Clone, Default)]
struct LazyPanels<T: GemmElem> {
    panels: Arc<OnceLock<PackedPanels<T>>>,
    builds: Arc<AtomicU64>,
}

impl<T: GemmElem> LazyPanels<T> {
    fn counted_by(builds: &Arc<AtomicU64>) -> LazyPanels<T> {
        LazyPanels {
            panels: Arc::default(),
            builds: Arc::clone(builds),
        }
    }

    fn get(&self, rows: RowBlock<'_, T>) -> &PackedPanels<T> {
        self.panels.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            PackedPanels::pack(rows)
        })
    }
}

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
    /// Whether construction ran the full matrix validation; consumers that
    /// must defend against NaN (the serving engine's model intake) skip
    /// their re-scan when this is set.
    validated: bool,
    /// The lazily built single-precision mirror (see [`Mirror32`]), cached
    /// for the model's lifetime like solvers and plans are cached per epoch:
    /// a swapped-in model builds its mirror at most once, and every shard
    /// serving the model shares it through the model's `Arc`. Cloning a
    /// model shares an already built mirror (the mirror is a pure function
    /// of the factor matrices, which clones share).
    mirror32: OnceLock<Arc<Mirror32>>,
    /// The lazily built int8 mirror (see [`MirrorI8`]); same caching and
    /// sharing discipline as `mirror32`.
    mirror_i8: OnceLock<Arc<MirrorI8>>,
    /// The item matrix packed for the GEMM driver (see
    /// [`MfModel::item_panels`]); the mirrors hold their own tiers' panels
    /// and report their builds to the same counter.
    item_panels: LazyPanels<f64>,
}

/// The single-precision mirror of a model's factor matrices, plus the exact
/// (f64) row norms the screen envelope is evaluated against.
///
/// This is the data side of the mixed-precision screen path: scan backends
/// prune in f32 against `users()`/`items()`, widen every screened score by
/// `mips_linalg::f32_screen_envelope(f, user_norms[u], item_norms[i])`, and
/// rescore the survivors on the parent model's f64 matrices. The norms are
/// computed in f64 *before* rounding, so the envelope's Cauchy–Schwarz bound
/// refers to the true vectors.
///
/// `f64 → f32` conversion rounds to nearest; values beyond f32 range become
/// infinite, in which case the mirror marks itself unusable
/// ([`Mirror32::is_usable`]) and every consumer falls back to the pure-f64
/// path rather than screening against garbage.
#[derive(Debug)]
pub struct Mirror32 {
    users: Matrix<f32>,
    items: Matrix<f32>,
    user_norms: Vec<f64>,
    item_norms: Vec<f64>,
    usable: bool,
    item_panels: LazyPanels<f32>,
}

impl Mirror32 {
    fn build(users: &Matrix<f64>, items: &Matrix<f64>, builds: &Arc<AtomicU64>) -> Mirror32 {
        let users32: Matrix<f32> = users.cast();
        let items32: Matrix<f32> = items.cast();
        let usable = users32.as_slice().iter().all(|v| v.is_finite())
            && items32.as_slice().iter().all(|v| v.is_finite());
        let row_norms = |m: &Matrix<f64>| m.iter_rows().map(norm2).collect();
        Mirror32 {
            user_norms: row_norms(users),
            item_norms: row_norms(items),
            users: users32,
            items: items32,
            usable,
            item_panels: LazyPanels::counted_by(builds),
        }
    }

    /// [`Mirror32::items`] packed for the GEMM driver: built on first use,
    /// then shared by every screen over this mirror.
    pub fn item_panels(&self) -> &PackedPanels<f32> {
        self.item_panels.get((&self.items).into())
    }

    /// The rounded user factor matrix (`|U| × f`).
    pub fn users(&self) -> &Matrix<f32> {
        &self.users
    }

    /// The rounded item factor matrix (`|I| × f`).
    pub fn items(&self) -> &Matrix<f32> {
        &self.items
    }

    /// Exact (f64) Euclidean norm of each original user row.
    pub fn user_norms(&self) -> &[f64] {
        &self.user_norms
    }

    /// Exact (f64) Euclidean norm of each original item row.
    pub fn item_norms(&self) -> &[f64] {
        &self.item_norms
    }

    /// `false` when some factor overflowed the f32 range, making the mirror
    /// unfit for screening (consumers must fall back to f64-direct).
    pub fn is_usable(&self) -> bool {
        self.usable
    }
}

/// The int8 mirror of a model's factor matrices: every row quantized
/// symmetrically to `[-127, 127]` with its own scale
/// (`mips_linalg::quant::scale_for`), plus the exact (f64) L1 norms the int8
/// screen envelope is evaluated against.
///
/// This is the data side of the int8 screen tier below the f32 one: scan
/// backends compute the *exact* integer dot `D = q(u)·q(i)` (order-invariant,
/// so bit-identical across SIMD kernels), reconstruct `ŝ = D/(s_u·s_i)`,
/// widen by `mips_linalg::i8_screen_envelope_parts` — which needs `s_u`,
/// `‖u‖₁`, `1/s_i`, and `‖i‖₁` — and rescore the survivors on the parent
/// model's f64 matrices. The L1 norms are computed in f64 *before* rounding,
/// so the envelope refers to the true vectors.
///
/// A mirror is unusable ([`MirrorI8::is_usable`]) when any row's scale is
/// non-finite (a subnormal max-magnitude drives `127/max_abs` to infinity),
/// any L1 norm is non-finite (NaN-poisoned unvalidated input), or the factor
/// count exceeds the integer kernels' i32-overflow cap
/// (`mips_linalg::I8_DOT_MAX_LEN`); consumers then fall back to the pure-f64
/// path rather than screening against garbage.
#[derive(Debug)]
pub struct MirrorI8 {
    users_q: Vec<i8>,
    items_q: Vec<i8>,
    f: usize,
    user_scales: Vec<f64>,
    item_inv_scales: Vec<f64>,
    user_l1: Vec<f64>,
    item_l1: Vec<f64>,
    usable: bool,
    item_panels: LazyPanels<i8>,
}

impl MirrorI8 {
    fn build(users: &Matrix<f64>, items: &Matrix<f64>, builds: &Arc<AtomicU64>) -> MirrorI8 {
        let f = users.cols();
        let quantize = |m: &Matrix<f64>| {
            let mut q = vec![0i8; m.rows() * f];
            let mut scales = Vec::with_capacity(m.rows());
            let mut l1 = Vec::with_capacity(m.rows());
            for (r, row) in m.iter_rows().enumerate() {
                let (s, n1) = quantize_row_i8(row, &mut q[r * f..(r + 1) * f]);
                scales.push(s);
                l1.push(n1);
            }
            (q, scales, l1)
        };
        let (users_q, user_scales, user_l1) = quantize(users);
        let (items_q, item_scales, item_l1) = quantize(items);
        let usable = f <= I8_DOT_MAX_LEN
            && user_scales
                .iter()
                .chain(&item_scales)
                .all(|s| s.is_finite())
            && user_l1.iter().chain(&item_l1).all(|n| n.is_finite());
        MirrorI8 {
            users_q,
            items_q,
            f,
            user_scales,
            item_inv_scales: item_scales.iter().map(|&s| 1.0 / s).collect(),
            user_l1,
            item_l1,
            usable,
            item_panels: LazyPanels::counted_by(builds),
        }
    }

    /// [`MirrorI8::items_q`] packed for the GEMM driver (`i16` pairs):
    /// built on first use, then shared by every screen over this mirror.
    /// Only meaningful on a usable mirror.
    pub fn item_panels(&self) -> &PackedPanels<i8> {
        let rows = self.items_q.len().checked_div(self.f).unwrap_or(0);
        self.item_panels
            .get(RowBlock::new(&self.items_q, rows, self.f))
    }

    /// Latent factors per row.
    pub fn factors(&self) -> usize {
        self.f
    }

    /// The quantized codes of user row `r`.
    pub fn user_row(&self, r: usize) -> &[i8] {
        &self.users_q[r * self.f..(r + 1) * self.f]
    }

    /// The quantized codes of item row `r`.
    pub fn item_row(&self, r: usize) -> &[i8] {
        &self.items_q[r * self.f..(r + 1) * self.f]
    }

    /// The full quantized user matrix, row-major (`|U| × f`).
    pub fn users_q(&self) -> &[i8] {
        &self.users_q
    }

    /// The full quantized item matrix, row-major (`|I| × f`).
    pub fn items_q(&self) -> &[i8] {
        &self.items_q
    }

    /// Per-user quantization scale `s_u` (codes = round(value · s_u)).
    pub fn user_scales(&self) -> &[f64] {
        &self.user_scales
    }

    /// Per-item *inverse* scale `1/s_i`, precomputed because every screened
    /// score multiplies by it.
    pub fn item_inv_scales(&self) -> &[f64] {
        &self.item_inv_scales
    }

    /// Exact (f64) L1 norm of each original user row.
    pub fn user_l1(&self) -> &[f64] {
        &self.user_l1
    }

    /// Exact (f64) L1 norm of each original item row.
    pub fn item_l1(&self) -> &[f64] {
        &self.item_l1
    }

    /// `false` when quantization degenerated (non-finite scale or L1) or the
    /// factor count exceeds the integer kernels' overflow cap; consumers
    /// must fall back to an unscreened path.
    pub fn is_usable(&self) -> bool {
        self.usable
    }
}

impl MfModel {
    /// Builds and validates a model.
    pub fn new(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> Result<Self, ModelError> {
        users.validate("MfModel users")?;
        items.validate("MfModel items")?;
        if users.cols() != items.cols() {
            return Err(ModelError::FactorMismatch {
                user_factors: users.cols(),
                item_factors: items.cols(),
            });
        }
        Ok(MfModel {
            name: name.into(),
            users,
            items,
            validated: true,
            mirror32: OnceLock::new(),
            mirror_i8: OnceLock::new(),
            item_panels: LazyPanels::default(),
        })
    }

    /// Builds a model **without** validating the matrices.
    ///
    /// For trusted zero-copy loaders (and tests of downstream validation)
    /// where re-scanning every factor at construction is unwanted. The
    /// serving engine re-checks finiteness at its model intake points
    /// (`EngineBuilder::build` and `Engine::swap_model`), so a non-finite
    /// or shape-mismatched model built this way surfaces as a typed error
    /// there rather than as silent NaN-poisoned results.
    pub fn new_unvalidated(
        name: impl Into<String>,
        users: Matrix<f64>,
        items: Matrix<f64>,
    ) -> MfModel {
        MfModel {
            name: name.into(),
            users,
            items,
            validated: false,
            mirror32: OnceLock::new(),
            mirror_i8: OnceLock::new(),
            item_panels: LazyPanels::default(),
        }
    }

    /// Whether this model was constructed through the validating path
    /// ([`MfModel::new`]/[`MfModel::new_shared`]). Models from
    /// [`MfModel::new_unvalidated`] report `false`, telling downstream
    /// intake checks (the engine's build/swap validation) to re-scan.
    pub fn is_validated(&self) -> bool {
        self.validated
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

    /// The predicted rating `uᵀi` for one user–item pair.
    pub fn predict(&self, user: usize, item: usize) -> f64 {
        dot(self.users.row(user), self.items.row(item))
    }

    /// A copy restricted to the given users (used by OPTIMUS sampling tests).
    pub fn with_users(&self, indices: &[usize]) -> MfModel {
        MfModel {
            name: format!("{}[{} users]", self.name, indices.len()),
            users: self.users.gather_rows(indices),
            items: self.items.clone(),
            // Row-gathering validated matrices cannot introduce NaN.
            validated: self.validated,
            mirror32: OnceLock::new(),
            mirror_i8: OnceLock::new(),
            // Same items, same panels.
            item_panels: self.item_panels.clone(),
        }
    }

    /// The single-precision mirror, built on first use and cached for the
    /// model's lifetime (see [`Mirror32`]). Thread-safe: concurrent first
    /// callers race to build and all observe one winner.
    pub fn mirror32(&self) -> &Arc<Mirror32> {
        let builds = &self.item_panels.builds;
        self.mirror32
            .get_or_init(|| Arc::new(Mirror32::build(&self.users, &self.items, builds)))
    }

    /// The int8 mirror, built on first use and cached for the model's
    /// lifetime (see [`MirrorI8`]). Thread-safe like [`MfModel::mirror32`].
    pub fn mirror_i8(&self) -> &Arc<MirrorI8> {
        let builds = &self.item_panels.builds;
        self.mirror_i8
            .get_or_init(|| Arc::new(MirrorI8::build(&self.users, &self.items, builds)))
    }

    /// The item matrix packed once for the GEMM driver
    /// ([`mips_linalg::PackedPanels`]): built on first use and cached for
    /// the model's lifetime like the mirrors, so brute-force scans — whole
    /// batches and single-user lookups alike — never repack the catalog.
    /// The mirrors cache their own tiers' panels
    /// ([`Mirror32::item_panels`], [`MirrorI8::item_panels`]).
    pub fn item_panels(&self) -> &PackedPanels<f64> {
        self.item_panels.get((&self.items).into())
    }

    /// How many packed-panel sets this model has built, all tiers together
    /// — at most three, however many shards and threads scan it.
    pub fn panel_builds(&self) -> u64 {
        self.item_panels.builds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(m.predict(0, 1), 3.0);
        assert_eq!(m.predict(1, 2), 6.0);
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
        assert_eq!(sub.predict(0, 2), 6.0);
    }

    #[test]
    fn shared_constructor_returns_arc() {
        let m = MfModel::new_shared("s", users2x2(), items3x2()).unwrap();
        let m2 = m.clone();
        assert_eq!(m2.num_users(), 2);
    }

    #[test]
    fn mirror32_is_lazy_shared_and_rounds_to_nearest() {
        let m = MfModel::new_shared("m", users2x2(), items3x2()).unwrap();
        let mirror = m.mirror32();
        assert!(mirror.is_usable());
        assert_eq!(mirror.users().rows(), 2);
        assert_eq!(mirror.items().rows(), 3);
        assert_eq!(mirror.items().get(2, 1), 6.0_f32);
        // Norms are the exact f64 row norms.
        assert!((mirror.item_norms()[0] - (1.0f64 + 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(mirror.user_norms().len(), 2);
        // Repeated calls share one build.
        assert!(Arc::ptr_eq(m.mirror32(), mirror));
    }

    #[test]
    fn mirror32_flags_f32_overflow_as_unusable() {
        let users = Matrix::from_vec(1, 2, vec![1e300, 0.0]).unwrap();
        let m = MfModel::new("big", users, items3x2()).unwrap();
        assert!(!m.mirror32().is_usable());
    }

    #[test]
    fn mirror_i8_is_lazy_shared_and_quantizes_per_row() {
        let m = MfModel::new_shared("m", users2x2(), items3x2()).unwrap();
        let mirror = m.mirror_i8();
        assert!(mirror.is_usable());
        assert_eq!(mirror.factors(), 2);
        // User row 0 = [1, 0]: max-abs 1 → scale 127, codes [127, 0].
        assert_eq!(mirror.user_row(0), &[127, 0]);
        assert!((mirror.user_scales()[0] - 127.0).abs() < 1e-12);
        assert!((mirror.user_l1()[0] - 1.0).abs() < 1e-12);
        // Item row 2 = [5, 6]: max-abs 6 → scale 127/6, codes round(v·s).
        let s: f64 = 127.0 / 6.0;
        assert_eq!(mirror.item_row(2), &[(5.0 * s).round() as i8, 127]);
        assert!((mirror.item_inv_scales()[2] - 6.0 / 127.0).abs() < 1e-15);
        assert!((mirror.item_l1()[2] - 11.0).abs() < 1e-12);
        assert_eq!(mirror.items_q().len(), 6);
        // Repeated calls share one build.
        assert!(Arc::ptr_eq(m.mirror_i8(), mirror));
    }

    #[test]
    fn packed_item_panels_are_built_once_per_model() {
        let m = MfModel::new_shared("m", users2x2(), items3x2()).unwrap();
        // Lazy like the mirrors: nothing is packed until a scan asks.
        assert_eq!(m.panel_builds(), 0);
        let panels = m.item_panels();
        assert_eq!((panels.rows(), panels.cols()), (3, 2));
        assert_eq!(m.panel_builds(), 1);
        // Repeated calls and threads reach the same panels.
        let from_thread = std::thread::scope(|s| {
            let lookup = s.spawn(|| m.item_panels());
            lookup.join().expect("the lookup does not panic")
        });
        assert!(std::ptr::eq(from_thread, panels));
        assert_eq!(m.panel_builds(), 1);
        // A user subset holds the same items, so it shares the f64 panels
        // instead of packing them again.
        assert!(std::ptr::eq(m.with_users(&[1]).item_panels(), panels));
        assert_eq!(m.panel_builds(), 1);
        // Each mirror packs its own tier's panels, once, on first use.
        let (p32, p8) = (m.mirror32().item_panels(), m.mirror_i8().item_panels());
        assert_eq!((p32.rows(), p8.rows()), (3, 3));
        assert!(std::ptr::eq(m.mirror32().item_panels(), p32));
        assert!(std::ptr::eq(m.mirror_i8().item_panels(), p8));
        assert_eq!(m.panel_builds(), 3);
    }

    #[test]
    fn mirror_i8_flags_subnormal_rows_as_unusable() {
        // A subnormal max-magnitude drives scale = 127/max_abs to infinity.
        let users = Matrix::from_vec(1, 2, vec![f64::MIN_POSITIVE / 4.0, 0.0]).unwrap();
        let m = MfModel::new("tiny", users, items3x2()).unwrap();
        assert!(!m.mirror_i8().is_usable());
    }

    #[test]
    fn mirror_i8_flags_nan_input_as_unusable() {
        // Unvalidated models may carry NaN; the L1 scan catches it.
        let mut users = users2x2();
        users.set(0, 0, f64::NAN);
        let m = MfModel::new_unvalidated("nan", users, items3x2());
        assert!(!m.mirror_i8().is_usable());
    }
}
