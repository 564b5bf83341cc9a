//! Column-major dense matrix.
//!
//! The association scan streams over the columns of the N×M transient
//! covariate matrix `X`, computing `X_m · y`, `X_m · X_m` and `Qᵀ X_m` for
//! each variant `m`. Column-major storage makes each `X_m` a contiguous
//! `&[f64]`, which keeps the hot loops branch-free and vectorizable and lets
//! the parallel scan hand disjoint column blocks to worker threads without
//! copying.

use crate::error::LinalgError;

/// A dense, column-major, `f64` matrix.
///
/// Element `(r, c)` lives at `data[r + c * rows]`. Columns are contiguous;
/// use [`Matrix::col`] to borrow one as a slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for r in 0..rows {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_column_major(
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_column_major",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row-major data (convenient for literals in
    /// tests), transposing into the internal column-major layout.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        if r == 0 {
            return Err(LinalgError::EmptyInput { op: "from_rows" });
        }
        let c = rows[0].len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (1, c),
                    rhs: (i, row.len()),
                });
            }
        }
        Ok(Matrix::from_fn(r, c, |i, j| rows[i][j]))
    }

    /// Builds a matrix whose columns are the given slices (all the same
    /// length).
    pub fn from_cols(cols: &[&[f64]]) -> Result<Self, LinalgError> {
        let c = cols.len();
        if c == 0 {
            return Err(LinalgError::EmptyInput { op: "from_cols" });
        }
        let r = cols[0].len();
        let mut data = Vec::with_capacity(r * c);
        for (j, col) in cols.iter().enumerate() {
            if col.len() != r {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_cols",
                    lhs: (r, 1),
                    rhs: (col.len(), j),
                });
            }
            data.extend_from_slice(col);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element accessor; panics on out-of-range indices (debug-friendly —
    /// the scan kernels use slices, not this).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r + c * self.rows]
    }

    /// Element setter; panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r + c * self.rows] = v;
    }

    /// Borrows column `c` as a contiguous slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        assert!(c < self.cols, "column {c} out of range");
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutably borrows column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        assert!(c < self.cols, "column {c} out of range");
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Borrows two distinct columns mutably at once (used by in-place QR).
    pub fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b, "columns must be distinct");
        assert!(a < self.cols && b < self.cols, "column out of range");
        let n = self.rows;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * n);
            (&mut lo[a * n..(a + 1) * n], &mut hi[..n])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * n);
            let col_b = &mut lo[b * n..(b + 1) * n];
            (&mut hi[..n], col_b)
        }
    }

    /// The full column-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The full column-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Copies row `r` into a new vector.
    pub fn row(&self, r: usize) -> Vec<f64> {
        assert!(r < self.rows, "row {r} out of range");
        (0..self.cols).map(|c| self.get(r, c)).collect()
    }

    /// Returns a new matrix containing the given half-open row range.
    pub fn row_block(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        Matrix::from_fn(end - start, self.cols, |i, j| self.get(start + i, j))
    }

    /// Returns a new matrix containing the given half-open column range.
    ///
    /// Columns are contiguous, so this is a single memcpy.
    pub fn col_block(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "column range out of bounds"
        );
        Matrix {
            rows: self.rows,
            cols: end - start,
            data: self.data[start * self.rows..end * self.rows].to_vec(),
        }
    }

    /// Vertically stacks matrices (they must agree on column count).
    pub fn vstack(blocks: &[&Matrix]) -> Result<Matrix, LinalgError> {
        if blocks.is_empty() {
            return Err(LinalgError::EmptyInput { op: "vstack" });
        }
        let cols = blocks[0].cols;
        for b in blocks {
            if b.cols != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "vstack",
                    lhs: (blocks[0].rows, cols),
                    rhs: b.shape(),
                });
            }
        }
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for b in blocks {
            for c in 0..cols {
                out.col_mut(c)[offset..offset + b.rows].copy_from_slice(b.col(c));
            }
            offset += b.rows;
        }
        Ok(out)
    }

    /// Maximum absolute element-wise difference to another matrix of the
    /// same shape; `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.shape() != other.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(m.col(0), &[1.0, 3.0, 5.0]);
        assert_eq!(m.col(1), &[2.0, 4.0, 6.0]);
        assert_eq!(m.as_slice(), &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn from_cols_roundtrip() {
        let m = Matrix::from_cols(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.row(1), vec![2.0, 4.0]);
    }

    #[test]
    fn from_column_major_validates_len() {
        assert!(Matrix::from_column_major(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_column_major(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn ragged_from_rows_rejected() {
        let r0: &[f64] = &[1.0, 2.0];
        let r1: &[f64] = &[3.0];
        assert!(Matrix::from_rows(&[r0, r1]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), m.get(1, 2));
    }

    #[test]
    fn blocks_and_vstack_roundtrip() {
        let m = Matrix::from_fn(5, 2, |r, c| (r + 10 * c) as f64);
        let top = m.row_block(0, 2);
        let bot = m.row_block(2, 5);
        let back = Matrix::vstack(&[&top, &bot]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn col_block_is_contiguous_copy() {
        let m = Matrix::from_fn(3, 4, |r, c| (r + 10 * c) as f64);
        let b = m.col_block(1, 3);
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(b.col(0), m.col(1));
        assert_eq!(b.col(1), m.col(2));
    }

    #[test]
    fn vstack_shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn two_cols_mut_both_orders() {
        let mut m = Matrix::from_fn(2, 3, |r, c| (r + 10 * c) as f64);
        {
            let (a, b) = m.two_cols_mut(0, 2);
            assert_eq!(a, &[0.0, 1.0]);
            assert_eq!(b, &[20.0, 21.0]);
            a[0] = -1.0;
            b[1] = -2.0;
        }
        {
            let (b, a) = m.two_cols_mut(2, 0);
            assert_eq!(a, &[-1.0, 1.0]);
            assert_eq!(b, &[20.0, -2.0]);
        }
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(a.max_abs_diff(&b).is_none());
        let mut c = Matrix::zeros(2, 2);
        c.set(1, 1, 0.5);
        assert_eq!(a.max_abs_diff(&c), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }
}
