//! Dense row-major matrix storage.
//!
//! One vector per row is the natural layout for MIPS workloads: the user
//! matrix `U` is `|U| × f` and the item matrix `I` is `|I| × f`, and both the
//! GEMM kernel and the per-vector index traversals walk rows contiguously.

use crate::error::LinalgError;

/// A dense row-major matrix: `f64` for the model and every numeric
/// method, any element type for storage and views.
///
/// Invariant: `data.len() == rows * cols`, enforced by every constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Builds a matrix from a row-major buffer, validating the length.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row slices, validating that all rows agree in width.
    pub fn from_rows(rows: &[Vec<T>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty {
                context: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Row `r` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable contiguous slice.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// A contiguous sub-matrix view of rows `start..end` (zero-copy).
    ///
    /// Used by the MAXIMUS walk to multiply a contiguous user batch and by
    /// OPTIMUS to time samples without copying.
    pub fn row_block(&self, start: usize, end: usize) -> RowBlock<'_, T> {
        assert!(start <= end && end <= self.rows, "row_block out of range");
        RowBlock {
            data: &self.data[start * self.cols..end * self.cols],
            rows: end - start,
            cols: self.cols,
        }
    }

    /// Copies the given rows (by index) into a new matrix.
    ///
    /// Used for gathering sampled users and cluster members.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix<T> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "gather_rows index {i} out of range");
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// The transpose as a new matrix (blocked copy for cache friendliness).
    pub fn transpose(&self) -> Matrix<T> {
        const TILE: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            for cb in (0..self.cols).step_by(TILE) {
                for r in rb..(rb + TILE).min(self.rows) {
                    for c in cb..(cb + TILE).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl Matrix<f64> {
    /// Euclidean norm of every row.
    pub fn row_norms(&self) -> Vec<f64> {
        self.iter_rows().map(crate::kernels::norm2).collect()
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Validates that the matrix is non-empty and fully finite.
    pub fn validate(&self, context: &'static str) -> Result<(), LinalgError> {
        if self.is_empty() {
            return Err(LinalgError::Empty { context });
        }
        if !self.all_finite() {
            return Err(LinalgError::NonFinite { context });
        }
        Ok(())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::kernels::norm2(&self.data)
    }
}

/// A zero-copy view of a contiguous block of rows of a [`Matrix`].
#[derive(Debug, Clone, Copy)]
pub struct RowBlock<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
}

impl<'a, T> RowBlock<'a, T> {
    /// Wraps a raw row-major slice as a view (length must equal `rows*cols`).
    pub fn new(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "RowBlock length mismatch");
        RowBlock { data, rows, cols }
    }

    /// Number of rows in the view.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the view.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` of the view.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &'a [T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying contiguous storage.
    #[inline]
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }
}

impl<'a, T> From<&'a Matrix<T>> for RowBlock<'a, T> {
    fn from(m: &'a Matrix<T>) -> Self {
        RowBlock {
            data: &m.data,
            rows: m.rows,
            cols: m.cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        let err = Matrix::from_vec(2, 3, vec![1.0_f64; 5]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_validates_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0_f64, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
        let err = Matrix::<f64>::from_rows(&[]).unwrap_err();
        assert!(matches!(err, LinalgError::Empty { .. }));
    }

    #[test]
    fn indexing_and_rows() {
        let m = sample();
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_tiled() {
        let m = Matrix::<f64>::from_fn(70, 45, |r, c| (r * 45 + c) as f64);
        let t = m.transpose();
        for r in 0..70 {
            for c in 0..45 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn row_block_views_are_zero_copy_and_correct() {
        let m = sample();
        let b = m.row_block(1, 2);
        assert_eq!(b.rows(), 1);
        assert_eq!(b.row(0), &[4.0, 5.0, 6.0]);
        let whole: RowBlock<f64> = (&m).into();
        assert_eq!(whole.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row_block out of range")]
    fn row_block_rejects_bad_range() {
        let m = sample();
        let _ = m.row_block(1, 3);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = sample();
        let g = m.gather_rows(&[1, 0, 1]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn row_norms_match_manual() {
        let m = Matrix::from_vec(2, 2, vec![3.0_f64, 4.0, 0.0, 2.0]).unwrap();
        let norms = m.row_norms();
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert!((norms[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_nan_and_empty() {
        let mut m = sample();
        m.set(0, 0, f64::NAN);
        assert!(matches!(
            m.validate("test"),
            Err(LinalgError::NonFinite { .. })
        ));
        let empty = Matrix::<f64>::zeros(0, 4);
        assert!(matches!(
            empty.validate("test"),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn map_inplace_applies_elementwise() {
        let mut m = sample();
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.get(1, 1), 10.0);
    }
}
