//! Level-1/2/3 kernels used by the scan.
//!
//! These are deliberately simple safe loops over contiguous column slices
//! that the compiler auto-vectorizes. The scan's cost is reading `X` (Eq.
//! (5) of the paper), so its K+2 dots per variant column go through one
//! tiled pass, [`scan_dots`], that reads `X` once; everything else is
//! small next to that and stays a plain loop.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use std::ops::Range;

/// Dot product of two equal-length slices.
///
/// Accumulates in four independent partial sums so the loop pipelines well
/// and the result is deterministic for a given input (unlike a parallel
/// reduction). This body is the specification of the scan's summation
/// order — lane sums by index mod 4, the tail in sequence, `(s0 + s1) +
/// (s2 + s3) + tail` — which [`scan_dots`] reproduces bit for bit and
/// every pinned scan result depends on.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..n {
        tail += a[j] * b[j];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `x · x` — the paper's `dot(x)` helper from the R demo.
#[inline]
pub fn self_dot(a: &[f64]) -> f64 {
    dot(a, a)
}

/// Adjacent columns of `X` held resident while every target streams past:
/// 4 columns × 4 lanes is the 16 sums that fit the baseline x86-64 register
/// file next to the operands. Measured, with [`ROW_CHUNK`], in DESIGN §5.1.
const PANEL: usize = 4;
/// Rows per tile: short enough that the hardware prefetcher keeps fetching
/// the next tile of each column while the k+2 passes over this one run.
const ROW_CHUNK: usize = 64;
// Tile edges must fall between `dot`'s lanes.
const _: () = assert!(ROW_CHUNK.is_multiple_of(4));

/// What [`scan_dots`] returns for columns `[lo, hi)` of `X`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanDots {
    /// `X_j · y`, one per column.
    pub xy: Vec<f64>,
    /// `X_j · X_j`, one per column.
    pub xx: Vec<f64>,
    /// `AᵀX`, k×(hi−lo).
    pub atx: Matrix,
}

/// The scan's fused product: for every column `X_j`, `j` in `[lo, hi)`,
/// the k+2 dots `X_j·y`, `X_j·X_j` and `A_i·X_j` — each the same bits as
/// the corresponding [`dot`] call — reading `X` from memory once.
///
/// This is [`ScanLanes`] over one tile of all rows, each panel finished in
/// cache. A column's values do not depend on its panel-mates, `lo`/`hi`,
/// or how callers split `[0, cols)` into blocks or threads.
pub fn scan_dots(
    y: &[f64],
    a: &Matrix,
    x: &Matrix,
    lo: usize,
    hi: usize,
) -> Result<ScanDots, LinalgError> {
    for (rows, cols) in [x.shape(), a.shape()] {
        if rows != y.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "scan_dots",
                lhs: (rows, cols),
                rhs: (y.len(), 1),
            });
        }
    }
    if lo > hi || hi > x.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "scan_dots column range",
            lhs: x.shape(),
            rhs: (lo, hi),
        });
    }
    let n = y.len();
    let body = n - n % 4;
    let (lanes, tail) = (targets(y, a, 0..body), targets(y, a, body..n));
    let mut out = ScanDots::zeros(a.cols(), hi - lo);
    let mut acc = vec![[[0.0; 4]; PANEL]; a.cols() + 2];
    for j0 in (lo..hi).step_by(PANEL) {
        let cols: [&[f64]; PANEL] = std::array::from_fn(|p| x.col((j0 + p).min(hi - 1)));
        acc.fill([[0.0; 4]; PANEL]);
        fold_panel(&cols.map(|c| &c[..body]), &lanes, &mut acc);
        for (p, col) in cols.iter().enumerate().take(hi - j0) {
            finish_column(|t| acc[t][p], &col[body..], &tail, &mut out, j0 + p - lo);
        }
    }
    Ok(out)
}

/// [`dot`]'s four lane sums of every (column, target) pair of the scan,
/// kept across row tiles so that `X` can arrive a few rows at a time.
/// Folding the lane rows in any split whose edges are multiples of 4,
/// then finishing, gives [`scan_dots`]'s bits.
#[derive(Debug, Clone)]
pub struct ScanLanes {
    k: usize,
    cols: usize,
    /// Panel `q`'s k+2 targets at `q·(k+2)..`, as [`fold_panel`] keeps them.
    lanes: Vec<[[f64; 4]; PANEL]>,
}

impl ScanLanes {
    /// Zero lane sums for `cols` columns and `k` columns of `A`.
    pub fn new(cols: usize, k: usize) -> Self {
        let lanes = vec![[[0.0; 4]; PANEL]; cols.div_ceil(PANEL) * (k + 2)];
        ScanLanes { k, cols, lanes }
    }

    /// Adds rows `rows` of every column (`x(j)`; `rows.start` and
    /// `rows.len()` are multiples of 4) against `y[rows]` and `A[rows]`.
    pub fn fold<'x>(
        &mut self,
        x: impl Fn(usize) -> &'x [f64],
        y: &[f64],
        a: &Matrix,
        rows: Range<usize>,
    ) {
        debug_assert!(rows.start.is_multiple_of(4) && rows.len().is_multiple_of(4));
        let targets = targets(y, a, rows);
        for (q, acc) in self.lanes.chunks_exact_mut(self.k + 2).enumerate() {
            let cols = std::array::from_fn(|p| x((q * PANEL + p).min(self.cols - 1)));
            fold_panel(&cols, &targets, acc);
        }
    }

    /// [`dot`]'s ending for every column: the tail rows `rows` (`x(j)`,
    /// fewer than 4) in sequence after the lanes, then the fixed combine.
    pub fn finish<'x>(
        &self,
        x: impl Fn(usize) -> &'x [f64],
        y: &[f64],
        a: &Matrix,
        rows: Range<usize>,
    ) -> ScanDots {
        let tail = targets(y, a, rows);
        let mut out = ScanDots::zeros(self.k, self.cols);
        for j in 0..self.cols {
            let acc = &self.lanes[j / PANEL * (self.k + 2)..][..self.k + 2];
            finish_column(|t| acc[t][j % PANEL], x(j), &tail, &mut out, j);
        }
        out
    }
}

/// Folds the rows of a panel (`cols[p]` has the rows of `targets`) into
/// `acc[t][p]` for target `t` (y, the column, `A_i`). A `ROW_CHUNK` tile
/// stays in L1 while every target is multiplied against it.
fn fold_panel<const P: usize>(cols: &[&[f64]; P], targets: &[&[f64]], acc: &mut [[[f64; 4]; P]]) {
    let rows = targets[0].len();
    for r0 in (0..rows).step_by(ROW_CHUNK) {
        let r1 = (r0 + ROW_CHUNK).min(rows);
        let tile = cols.map(|c| &c[r0..r1]);
        accumulate(&tile, &targets[0][r0..r1], &mut acc[0]);
        for p in 0..P {
            accumulate(&[tile[p]], tile[p], std::array::from_mut(&mut acc[1][p]));
        }
        for (i, a) in targets[1..].iter().enumerate() {
            accumulate(&tile, &a[r0..r1], &mut acc[2 + i]);
        }
    }
}

/// Column `j` of `out` from its lane sums (`sums(t)` for target `t`) and
/// its tail rows `col`: [`dot`]'s tail in sequence, then its combine.
fn finish_column(
    sums: impl Fn(usize) -> [f64; 4],
    col: &[f64],
    tail: &[&[f64]],
    out: &mut ScanDots,
    j: usize,
) {
    let finish = |lanes: [f64; 4], target: &[f64]| {
        let mut rest = 0.0;
        for (c, t) in col.iter().zip(target) {
            rest += c * t;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + rest
    };
    out.xy[j] = finish(sums(0), tail[0]);
    out.xx[j] = finish(sums(1), col);
    for (i, (o, a)) in out.atx.col_mut(j).iter_mut().zip(&tail[1..]).enumerate() {
        *o = finish(sums(2 + i), a);
    }
}

impl ScanDots {
    fn zeros(k: usize, cols: usize) -> Self {
        let (xy, xx, atx) = (vec![0.0; cols], vec![0.0; cols], Matrix::zeros(k, cols));
        ScanDots { xy, xx, atx }
    }
}

/// Rows `rows` of `y`, then of each column of `A`: every target but the
/// column itself.
fn targets<'t>(y: &'t [f64], a: &'t Matrix, rows: Range<usize>) -> Vec<&'t [f64]> {
    let columns = std::iter::once(y).chain((0..a.cols()).map(|i| a.col(i)));
    columns.map(|t| &t[rows.clone()]).collect()
}

/// `lanes[p][l] += Σ cols[p][r]·target[r]` over rows `r ≡ l (mod 4)`;
/// all slices share one length, a multiple of 4.
fn accumulate<const P: usize>(cols: &[&[f64]; P], target: &[f64], lanes: &mut [[f64; 4]; P]) {
    let mut s = *lanes;
    let (target, _) = target.as_chunks::<4>();
    let cols = cols.map(|c| c.as_chunks::<4>().0);
    // One visible length, so the indexing below compiles without checks.
    assert!(cols.iter().all(|c| c.len() == target.len()));
    for (q, t) in target.iter().enumerate() {
        for p in 0..P {
            for l in 0..4 {
                s[p][l] += cols[p][q][l] * t[l];
            }
        }
    }
    *lanes = s;
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dense matrix–vector product `A v` (`A` is rows×cols, `v` has len cols).
///
/// Walks `A` column by column (its contiguous direction) accumulating
/// `Σ_j v_j A_:,j`.
pub fn gemv(a: &Matrix, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if v.len() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemv",
            lhs: a.shape(),
            rhs: (v.len(), 1),
        });
    }
    let mut out = vec![0.0; a.rows()];
    for (j, &vj) in v.iter().enumerate() {
        if vj != 0.0 {
            axpy(vj, a.col(j), &mut out);
        }
    }
    Ok(out)
}

/// Transposed matrix–vector product `Aᵀ v` (`v` has len rows).
///
/// Each output element is a dot with a contiguous column — this is the
/// `Qᵀy` / `QᵀX_m` kernel at the heart of the scan.
pub fn gemv_t(a: &Matrix, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if v.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemv_t",
            lhs: a.shape(),
            rhs: (v.len(), 1),
        });
    }
    Ok((0..a.cols()).map(|j| dot(a.col(j), v)).collect())
}

/// `AᵀB` for column-major `A` (n×k) and `B` (n×m), producing k×m.
///
/// Every entry is a [`dot`] of two contiguous columns. Each column of `B`
/// is walked k times, once per column of `A` — fine for the small products
/// this is used for (`CᵀC`, `QᵀQ`, the rotations of the mixed model); the
/// scan's `QᵀX`, where `B` is all of `X`, goes through [`scan_dots`].
pub fn gemm_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm_at_b",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let k = a.cols();
    let m = b.cols();
    let mut out = Matrix::zeros(k, m);
    for j in 0..m {
        let bj = b.col(j);
        let oj = out.col_mut(j);
        for (i, oij) in oj.iter_mut().enumerate() {
            *oij = dot(a.col(i), bj);
        }
    }
    Ok(out)
}

/// General product `A B` (rows_a×cols_a times cols_a×cols_b).
pub fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        let bj = b.col(j);
        let oj = out.col_mut(j);
        for (l, &blj) in bj.iter().enumerate() {
            if blj != 0.0 {
                axpy(blj, a.col(l), oj);
            }
        }
    }
    Ok(out)
}

/// Frobenius norm.
pub fn frobenius_norm(a: &Matrix) -> f64 {
    self_dot(a.as_slice()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn dot_matches_naive_all_lengths() {
        // Cover every tail length of the 4-way unrolled loop.
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(approx(dot(&a, &b), naive, 1e-12), "n={n}");
        }
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn gemv_and_gemv_t_agree_with_definition() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let av = gemv(&a, &[1.0, -1.0]).unwrap();
        assert_eq!(av, vec![-1.0, -1.0, -1.0]);
        let atv = gemv_t(&a, &[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(atv, vec![-4.0, -4.0]);
    }

    #[test]
    fn gemv_shape_checked() {
        let a = Matrix::zeros(3, 2);
        assert!(gemv(&a, &[0.0; 3]).is_err());
        assert!(gemv_t(&a, &[0.0; 2]).is_err());
    }

    #[test]
    fn gemm_at_b_matches_transpose_gemm() {
        let a = Matrix::from_fn(4, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(4, 3, |r, c| (r as f64) - (c as f64));
        let fast = gemm_at_b(&a, &b).unwrap();
        let slow = gemm(&a.transpose(), &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-12);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::identity(3);
        assert!(gemm(&a, &i).unwrap().max_abs_diff(&a).unwrap() < 1e-15);
        assert!(gemm(&i, &a).unwrap().max_abs_diff(&a).unwrap() < 1e-15);
    }

    #[test]
    fn gemm_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(gemm(&a, &b).is_err());
        assert!(gemm_at_b(&a, &Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn scan_dots_shape_checked() {
        let (y, a, x) = ([0.0; 3], Matrix::zeros(3, 2), Matrix::zeros(3, 5));
        assert!(scan_dots(&y, &a, &x, 0, 5).is_ok());
        assert!(scan_dots(&y, &a, &Matrix::zeros(4, 5), 0, 5).is_err());
        assert!(scan_dots(&y, &Matrix::zeros(2, 2), &x, 0, 5).is_err());
        assert!(scan_dots(&y, &a, &x, 3, 6).is_err());
        assert!(scan_dots(&y, &a, &x, 4, 3).is_err());
    }

    #[test]
    fn frobenius_of_identity() {
        assert!(approx(frobenius_norm(&Matrix::identity(4)), 2.0, 1e-15));
    }
}
