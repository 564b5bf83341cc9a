//! The six sufficient statistics of Lemma 2.1, their per-party summands,
//! and the finalization into β̂/σ̂/t/p.
//!
//! Everything the scan reports is a function of
//!
//! ```text
//! y·y        Qᵀy·Qᵀy
//! X·y        QᵀX·Qᵀy          (per variant m)
//! X·X        QᵀX·QᵀX          (per variant m)
//! ```
//!
//! The left column decomposes orthogonally across parties; the right
//! column decomposes *after* keeping the K-vectors `Qᵀy`, `QᵀX_m` (which
//! are sums of per-party summands but whose dot products are not). This
//! module therefore exposes two layers:
//!
//! - [`SuffStats`]: the additive layer (`yy, Xy, XX, Qᵀy, QᵀX`) — what
//!   parties sum, publicly or securely;
//! - [`ScanStats`]: the reduced layer (`yy, Xy, XX, Qᵀy·Qᵀy, QᵀX·Qᵀy,
//!   QᵀX·QᵀX`) — what the strictest secure mode opens, and what
//!   [`ScanStats::finalize`] turns into results.
//!
//! [`CtStats`] is the Cᵀ-compressed variant of §5 (compress with `Cᵀ`
//! instead of `Qᵀ`): fully additive *including* the K×K Gram block, which
//! makes it composable across arriving batches — the basis of the online
//! scan.

use crate::error::CoreError;
use crate::model::ScanResult;
use dash_linalg::{
    dot, gemm_at_b, gemv_t, qr_thin, scan_dots, self_dot, solve_lower, Matrix, ScanDots,
};
use dash_stats::StudentT;

/// Relative threshold below which the covariate-adjusted variant variance
/// `X·X − QᵀX·QᵀX` is treated as zero (variant in the span of C).
const DEGENERATE_RTOL: f64 = 1e-9;

/// The additive sufficient statistics: per-party summands and their sums.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffStats {
    /// `y·y` summand.
    pub yy: f64,
    /// `X_m·y` summands, length M.
    pub xy: Vec<f64>,
    /// `X_m·X_m` summands, length M.
    pub xx: Vec<f64>,
    /// `Qᵀy` summand, length K.
    pub qty: Vec<f64>,
    /// `QᵀX` summand, K×M.
    pub qtx: Matrix,
}

impl SuffStats {
    /// Number of variants.
    pub fn n_variants(&self) -> usize {
        self.xy.len()
    }

    /// Number of permanent covariates.
    pub fn n_covariates(&self) -> usize {
        self.qty.len()
    }

    /// Computes one party's summands from its rows and its slice `Q_k` of
    /// the global orthonormal basis: the y-side dots plus the one-block
    /// case of [`VariantSummands::local`].
    ///
    /// `q` must have the same row count as `y`/`x`; K may be zero.
    pub fn local(y: &[f64], x: &Matrix, q: &Matrix) -> Result<Self, CoreError> {
        let VariantSummands { xy, xx, qtx, .. } = VariantSummands::local(y, x, q, 0, x.cols())?;
        let (yy, qty) = y_dots(y, q)?;
        Ok(SuffStats {
            yy,
            xy,
            xx,
            qty,
            qtx,
        })
    }

    /// Creates a zero accumulator with the given shape.
    pub fn zeros(m: usize, k: usize) -> Self {
        SuffStats {
            yy: 0.0,
            xy: vec![0.0; m],
            xx: vec![0.0; m],
            qty: vec![0.0; k],
            qtx: Matrix::zeros(k, m),
        }
    }

    /// Adds another party's summands.
    pub fn add_assign(&mut self, other: &SuffStats) -> Result<(), CoreError> {
        if other.n_variants() != self.n_variants() {
            return Err(CoreError::ShapeMismatch {
                what: "SuffStats::add_assign variants",
                expected: self.n_variants(),
                got: other.n_variants(),
            });
        }
        if other.n_covariates() != self.n_covariates() {
            return Err(CoreError::ShapeMismatch {
                what: "SuffStats::add_assign covariates",
                expected: self.n_covariates(),
                got: other.n_covariates(),
            });
        }
        self.yy += other.yy;
        for (a, b) in self.xy.iter_mut().zip(&other.xy) {
            *a += b;
        }
        for (a, b) in self.xx.iter_mut().zip(&other.xx) {
            *a += b;
        }
        for (a, b) in self.qty.iter_mut().zip(&other.qty) {
            *a += b;
        }
        for (a, b) in self.qtx.as_mut_slice().iter_mut().zip(other.qtx.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// Reduces the additive statistics to the opened layer: collapses the
    /// K-vectors into the three dot products of Lemma 2.1.
    pub fn reduce(&self) -> ScanStats {
        let m = self.n_variants();
        let qtyqty = self_dot(&self.qty);
        let mut qtxqty = Vec::with_capacity(m);
        let mut qtxqtx = Vec::with_capacity(m);
        for j in 0..m {
            let col = self.qtx.col(j);
            qtxqty.push(dot(col, &self.qty));
            qtxqtx.push(self_dot(col));
        }
        ScanStats {
            yy: self.yy,
            xy: self.xy.clone(),
            xx: self.xx.clone(),
            qtyqty,
            qtxqty,
            qtxqtx,
        }
    }
}

/// The block-independent y-side dots `(y·y, Qᵀy)`.
pub(crate) fn y_dots(y: &[f64], q: &Matrix) -> Result<(f64, Vec<f64>), CoreError> {
    if q.rows() != y.len() {
        return Err(CoreError::ShapeMismatch {
            what: "y_dots Q rows",
            expected: y.len(),
            got: q.rows(),
        });
    }
    Ok((self_dot(y), gemv_t(q, y)?))
}

/// The variant-side slice of [`SuffStats`] for columns `[lo, lo+len)`:
/// everything except the block-independent `yy`/`qty`. This is the unit
/// every scan computes, and the secure scan ships and aggregates — peak
/// summand memory is O(K·B) per block of B variants.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSummands {
    /// First variant index covered by this block.
    pub lo: usize,
    /// `X_m·y` summands for the block.
    pub xy: Vec<f64>,
    /// `X_m·X_m` summands for the block.
    pub xx: Vec<f64>,
    /// `QᵀX` summand columns for the block, K×len.
    pub qtx: Matrix,
}

impl VariantSummands {
    /// Number of variants in the block.
    pub fn len(&self) -> usize {
        self.xy.len()
    }

    /// True when the block covers no variants.
    pub fn is_empty(&self) -> bool {
        self.xy.is_empty()
    }

    /// Computes one party's variant-side summands for columns `[lo, hi)`
    /// directly from its rows: one [`scan_dots`] pass that reads `X` once
    /// for all K+2 dots — the one dense scan kernel, shared by the
    /// plaintext scan and the secure scan's block producer.
    ///
    /// The canonical summation order is [`dot`]'s, per (column, target)
    /// pair: four lane sums by row mod 4, then the `N mod 4` tail rows,
    /// combined `(s0 + s1) + (s2 + s3) + tail`. The kernel's column panels
    /// and row chunks only interleave independent pairs, so a column's
    /// values are the same bits whichever panel, block `[lo, hi)` or
    /// thread computed it — every pinned result depends on that.
    pub fn local(
        y: &[f64],
        x: &Matrix,
        q: &Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<Self, CoreError> {
        if x.rows() != y.len() {
            return Err(CoreError::ShapeMismatch {
                what: "VariantSummands::local X rows",
                expected: y.len(),
                got: x.rows(),
            });
        }
        if q.rows() != y.len() {
            return Err(CoreError::ShapeMismatch {
                what: "VariantSummands::local Q rows",
                expected: y.len(),
                got: q.rows(),
            });
        }
        if lo > hi || hi > x.cols() {
            return Err(CoreError::ShapeMismatch {
                what: "VariantSummands::local column range",
                expected: x.cols(),
                got: hi,
            });
        }
        let ScanDots { xy, xx, atx: qtx } = scan_dots(y, q, x, lo, hi)?;
        Ok(VariantSummands { lo, xy, xx, qtx })
    }
}

/// The reduced (openable) statistics of Lemma 2.1 and their finalization.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanStats {
    /// `y·y`.
    pub yy: f64,
    /// `X_m·y` per variant.
    pub xy: Vec<f64>,
    /// `X_m·X_m` per variant.
    pub xx: Vec<f64>,
    /// `Qᵀy·Qᵀy`.
    pub qtyqty: f64,
    /// `QᵀX_m·Qᵀy` per variant.
    pub qtxqty: Vec<f64>,
    /// `QᵀX_m·QᵀX_m` per variant.
    pub qtxqtx: Vec<f64>,
}

impl ScanStats {
    /// Applies Lemma 2.1: turns the reduced statistics into β̂, σ̂, t, p.
    ///
    /// `n` and `k` are the pooled sample count and covariate count; the
    /// residual degrees of freedom are `n − k − 1` (must be ≥ 1).
    /// Variants numerically inside the span of C produce NaN rows and are
    /// counted in [`ScanResult::n_degenerate`].
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a > b)` deliberately catches NaN
    pub fn finalize(&self, n: usize, k: usize) -> Result<ScanResult, CoreError> {
        if n <= k + 1 {
            return Err(CoreError::NotEnoughSamples { n, k });
        }
        let df = n - k - 1;
        let tdist = StudentT::new(df as f64)?;
        let m = self.xy.len();
        let yyq = self.yy - self.qtyqty;
        // A degenerate variant keeps the NaN row it starts with.
        let mut beta = vec![f64::NAN; m];
        let mut se = vec![f64::NAN; m];
        let mut t = vec![f64::NAN; m];
        let mut n_degenerate = 0;
        for j in 0..m {
            let xxq = self.xx[j] - self.qtxqtx[j];
            // Relative test: a variant is degenerate when the projection
            // removes (essentially) all of its variance, at any data
            // scale. `!(a > b)` also catches NaN.
            if !(xxq > DEGENERATE_RTOL * self.xx[j]) {
                // Variant is constant after projecting out C (or xxq is
                // NaN): the model is unidentifiable for this variant.
                n_degenerate += 1;
                continue;
            }
            let xyq = self.xy[j] - self.qtxqty[j];
            let b = xyq / xxq;
            // Round-off can push the residual variance a hair negative
            // when the fit is essentially perfect; clamp at zero.
            let sigma2 = ((yyq / xxq - b * b) / df as f64).max(0.0);
            let s = sigma2.sqrt();
            beta[j] = b;
            se[j] = s;
            t[j] = b / s; // ±inf on a perfect fit, NaN only if b == 0 too
        }
        // All M p-values in one call: the t tail is a chain of dependent
        // divisions per variant, and the slice form runs several side by
        // side (a NaN statistic has a NaN p-value).
        let mut p = vec![0.0; m];
        tdist.two_sided_p_into(&t, &mut p)?;
        Ok(ScanResult {
            beta,
            se,
            t,
            p,
            df,
            n_degenerate,
        })
    }
}

/// Cᵀ-compressed statistics (§5): like [`SuffStats`] but projected with
/// `Cᵀ` instead of `Qᵀ`, plus the K×K Gram block `CᵀC`. Every field is
/// additive across parties *and across arriving batches*, because no
/// orthonormalization has happened yet.
#[derive(Debug, Clone, PartialEq)]
pub struct CtStats {
    /// Pooled sample count contributing so far.
    pub n: usize,
    /// `y·y`.
    pub yy: f64,
    /// `X_m·y` per variant.
    pub xy: Vec<f64>,
    /// `X_m·X_m` per variant.
    pub xx: Vec<f64>,
    /// `Cᵀy`, length K.
    pub cty: Vec<f64>,
    /// `CᵀX`, K×M.
    pub ctx: Matrix,
    /// `CᵀC`, K×K.
    pub gram: Matrix,
}

impl CtStats {
    /// Computes the compressed statistics of one batch of rows.
    pub fn local(y: &[f64], x: &Matrix, c: &Matrix) -> Result<Self, CoreError> {
        if x.rows() != y.len() || c.rows() != y.len() {
            return Err(CoreError::ShapeMismatch {
                what: "CtStats::local rows",
                expected: y.len(),
                got: if x.rows() != y.len() {
                    x.rows()
                } else {
                    c.rows()
                },
            });
        }
        let yy = self_dot(y);
        let cty = gemv_t(c, y)?;
        let ScanDots { xy, xx, atx: ctx } = scan_dots(y, c, x, 0, x.cols())?;
        let gram = gemm_at_b(c, c)?;
        Ok(CtStats {
            n: y.len(),
            yy,
            xy,
            xx,
            cty,
            ctx,
            gram,
        })
    }

    /// Zero accumulator.
    pub fn zeros(m: usize, k: usize) -> Self {
        CtStats {
            n: 0,
            yy: 0.0,
            xy: vec![0.0; m],
            xx: vec![0.0; m],
            cty: vec![0.0; k],
            ctx: Matrix::zeros(k, m),
            gram: Matrix::zeros(k, k),
        }
    }

    /// Merges another batch.
    pub fn add_assign(&mut self, other: &CtStats) -> Result<(), CoreError> {
        if other.xy.len() != self.xy.len() {
            return Err(CoreError::ShapeMismatch {
                what: "CtStats::add_assign variants",
                expected: self.xy.len(),
                got: other.xy.len(),
            });
        }
        if other.cty.len() != self.cty.len() {
            return Err(CoreError::ShapeMismatch {
                what: "CtStats::add_assign covariates",
                expected: self.cty.len(),
                got: other.cty.len(),
            });
        }
        self.n += other.n;
        self.yy += other.yy;
        for (a, b) in self.xy.iter_mut().zip(&other.xy) {
            *a += b;
        }
        for (a, b) in self.xx.iter_mut().zip(&other.xx) {
            *a += b;
        }
        for (a, b) in self.cty.iter_mut().zip(&other.cty) {
            *a += b;
        }
        for (a, b) in self.ctx.as_mut_slice().iter_mut().zip(other.ctx.as_slice()) {
            *a += b;
        }
        for (a, b) in self
            .gram
            .as_mut_slice()
            .iter_mut()
            .zip(other.gram.as_slice())
        {
            *a += b;
        }
        Ok(())
    }

    /// Converts to the Qᵀ layer: `R = chol(CᵀC)`, `Qᵀy = R⁻ᵀ·Cᵀy`,
    /// `QᵀX = R⁻ᵀ·CᵀX`.
    ///
    /// K = 0 passes through with empty projections.
    pub fn to_scan_stats(&self) -> Result<ScanStats, CoreError> {
        let k = self.cty.len();
        let m = self.xy.len();
        if k == 0 {
            return Ok(ScanStats {
                yy: self.yy,
                xy: self.xy.clone(),
                xx: self.xx.clone(),
                qtyqty: 0.0,
                qtxqty: vec![0.0; m],
                qtxqtx: vec![0.0; m],
            });
        }
        let r = dash_linalg::cholesky_upper(&self.gram)?;
        let rt = r.transpose(); // lower triangular
        let qty = solve_lower(&rt, &self.cty)?;
        let qtyqty = self_dot(&qty);
        let mut qtxqty = Vec::with_capacity(m);
        let mut qtxqtx = Vec::with_capacity(m);
        for j in 0..m {
            let qtx_col = solve_lower(&rt, self.ctx.col(j))?;
            qtxqty.push(dot(&qtx_col, &qty));
            qtxqtx.push(self_dot(&qtx_col));
        }
        Ok(ScanStats {
            yy: self.yy,
            xy: self.xy.clone(),
            xx: self.xx.clone(),
            qtyqty,
            qtxqty,
            qtxqtx,
        })
    }

    /// Finalizes directly (convenience: `to_scan_stats` + Lemma 2.1 with
    /// this accumulator's own `n`).
    pub fn finalize(&self, k: usize) -> Result<ScanResult, CoreError> {
        self.to_scan_stats()?.finalize(self.n, k)
    }
}

/// Computes `Q` for pooled single-machine data via thin QR (step 1 of the
/// paper's algorithm). Returns an N×0 matrix when K = 0.
pub fn orthonormal_basis(c: &Matrix) -> Result<Matrix, CoreError> {
    if c.cols() == 0 {
        return Ok(Matrix::zeros(c.rows(), 0));
    }
    Ok(qr_thin(c)?.q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, m: usize, k: usize, seed: u64) -> (Vec<f64>, Matrix, Matrix) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Matrix::from_fn(n, m, |_, _| next());
        let c = Matrix::from_fn(n, k, |_, _| next());
        (y, x, c)
    }

    #[test]
    fn local_matches_definitions() {
        let (y, x, c) = toy(20, 3, 2, 1);
        let q = orthonormal_basis(&c).unwrap();
        let s = SuffStats::local(&y, &x, &q).unwrap();
        assert!((s.yy - self_dot(&y)).abs() < 1e-12);
        for j in 0..3 {
            assert!((s.xy[j] - dot(x.col(j), &y)).abs() < 1e-12);
            assert!((s.xx[j] - self_dot(x.col(j))).abs() < 1e-12);
        }
        assert_eq!(s.qty.len(), 2);
        assert_eq!(s.qtx.shape(), (2, 3));
    }

    #[test]
    fn summands_add_to_pooled() {
        // Split rows into two "parties" that share the pooled Q; summands
        // must sum to the pooled statistics (the §3 decomposition).
        let (y, x, c) = toy(30, 4, 2, 3);
        let q = orthonormal_basis(&c).unwrap();
        let pooled = SuffStats::local(&y, &x, &q).unwrap();

        let cut = 13;
        let sa = SuffStats::local(&y[..cut], &x.row_block(0, cut), &q.row_block(0, cut)).unwrap();
        let sb = SuffStats::local(&y[cut..], &x.row_block(cut, 30), &q.row_block(cut, 30)).unwrap();
        let mut sum = sa.clone();
        sum.add_assign(&sb).unwrap();
        assert!((sum.yy - pooled.yy).abs() < 1e-10);
        for j in 0..4 {
            assert!((sum.xy[j] - pooled.xy[j]).abs() < 1e-10);
            assert!((sum.xx[j] - pooled.xx[j]).abs() < 1e-10);
        }
        assert!(sum.qtx.max_abs_diff(&pooled.qtx).unwrap() < 1e-10);
    }

    #[test]
    fn variant_summands_invariant_to_block_cuts() {
        // 11 columns: two full kernel panels and three leftovers, so the
        // cuts below start and end inside, on and across panel boundaries.
        let (y, x, c) = toy(18, 11, 2, 9);
        let q = orthonormal_basis(&c).unwrap();
        let full = SuffStats::local(&y, &x, &q).unwrap();
        for (lo, hi) in [
            (0, 11),
            (0, 3),
            (3, 7),
            (2, 2),
            (6, 7),
            (1, 10),
            (4, 8),
            (5, 11),
        ] {
            let block = VariantSummands::local(&y, &x, &q, lo, hi).unwrap();
            assert_eq!((block.lo, block.len()), (lo, hi - lo));
            // Bit-identical, not merely close: every scan path depends on
            // a column's dots not caring which block it was computed in.
            for j in lo..hi {
                assert_eq!(block.xy[j - lo].to_bits(), full.xy[j].to_bits());
                assert_eq!(block.xx[j - lo].to_bits(), full.xx[j].to_bits());
                assert_eq!(
                    block.qtx.col(j - lo),
                    full.qtx.col(j),
                    "[{lo}, {hi}) col {j}"
                );
            }
        }
        let shape_err = |r: Result<VariantSummands, CoreError>, what| {
            assert!(matches!(r, Err(CoreError::ShapeMismatch { what: w, .. }) if w == what));
        };
        let col_range = "VariantSummands::local column range";
        shape_err(VariantSummands::local(&y, &x, &q, 3, 12), col_range);
        shape_err(VariantSummands::local(&y, &x, &q, 5, 3), col_range);
        shape_err(
            VariantSummands::local(&y[..17], &x, &q, 0, 11),
            "VariantSummands::local X rows",
        );
        shape_err(
            VariantSummands::local(&y, &x, &q.row_block(0, 17), 0, 11),
            "VariantSummands::local Q rows",
        );
    }

    #[test]
    fn add_assign_shape_checked() {
        let mut a = SuffStats::zeros(3, 2);
        let b = SuffStats::zeros(4, 2);
        assert!(a.add_assign(&b).is_err());
        let c = SuffStats::zeros(3, 1);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn finalize_simple_regression_known_answer() {
        // y = 2x (exact), no covariates: beta = 2, residual 0.
        let x_col = vec![1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x_col.iter().map(|v| 2.0 * v).collect();
        let x = Matrix::from_cols(&[&x_col]).unwrap();
        let q = Matrix::zeros(4, 0);
        let s = SuffStats::local(&y, &x, &q).unwrap();
        let res = s.reduce().finalize(4, 0).unwrap();
        assert!((res.beta[0] - 2.0).abs() < 1e-12);
        assert!(res.se[0] < 1e-9);
        assert_eq!(res.df, 3);
    }

    #[test]
    fn finalize_detects_degenerate_variant() {
        // Variant equal to the covariate: projected variance 0 → NaN.
        let c_col = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = vec![0.1, 0.4, 0.2, 0.5, 0.3];
        let x = Matrix::from_cols(&[&c_col, &[1.0, 0.0, 1.0, 0.0, 1.0]]).unwrap();
        let c = Matrix::from_cols(&[&c_col]).unwrap();
        let q = orthonormal_basis(&c).unwrap();
        let s = SuffStats::local(&y, &x, &q).unwrap();
        let res = s.reduce().finalize(5, 1).unwrap();
        assert_eq!(res.n_degenerate, 1);
        assert!(res.beta[0].is_nan());
        assert!(res.beta[1].is_finite());
    }

    /// `ScanStats::finalize` as it was before the p-values moved to one
    /// slice call, kept word for word: a push per variant and the scalar
    /// `two_sided_p`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn finalize_by_pushing(stats: &ScanStats, n: usize, k: usize) -> ScanResult {
        let df = n - k - 1;
        let tdist = StudentT::new(df as f64).unwrap();
        let m = stats.xy.len();
        let yyq = stats.yy - stats.qtyqty;
        let mut beta = Vec::with_capacity(m);
        let mut se = Vec::with_capacity(m);
        let mut t = Vec::with_capacity(m);
        let mut p = Vec::with_capacity(m);
        let mut n_degenerate = 0;
        for j in 0..m {
            let xxq = stats.xx[j] - stats.qtxqtx[j];
            if !(xxq > DEGENERATE_RTOL * stats.xx[j]) {
                n_degenerate += 1;
                beta.push(f64::NAN);
                se.push(f64::NAN);
                t.push(f64::NAN);
                p.push(f64::NAN);
                continue;
            }
            let xyq = stats.xy[j] - stats.qtxqty[j];
            let b = xyq / xxq;
            let sigma2 = ((yyq / xxq - b * b) / df as f64).max(0.0);
            let s = sigma2.sqrt();
            let tstat = b / s;
            beta.push(b);
            se.push(s);
            t.push(tstat);
            p.push(tdist.two_sided_p(tstat));
        }
        ScanResult {
            beta,
            se,
            t,
            p,
            df,
            n_degenerate,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn finalize_equals_the_push_loop_it_replaced() {
        // 37 ordinary variants, then rows a scan does meet: a variant in
        // the span of C (degenerate), a NaN one, a perfect fit either sign
        // (t = ±inf, p = 0) and a 0/0 statistic (t and p NaN, not
        // degenerate).
        let (y, x, c) = toy(40, 37, 2, 5);
        let q = orthonormal_basis(&c).unwrap();
        let mut stats = SuffStats::local(&y, &x, &q).unwrap().reduce();
        let yyq = stats.yy - stats.qtyqty;
        for (xy, xx, qtxqty, qtxqtx) in [
            (1.0, 4.0, 0.5, 4.0),
            (f64::NAN, f64::NAN, 0.0, 0.0),
            (yyq, yyq, 0.0, 0.0),
            (-yyq, yyq, 0.0, 0.0),
        ] {
            stats.xy.push(xy);
            stats.xx.push(xx);
            stats.qtxqty.push(qtxqty);
            stats.qtxqtx.push(qtxqtx);
        }
        let got = stats.finalize(40, 2).unwrap();
        let want = finalize_by_pushing(&stats, 40, 2);
        assert_eq!(bits(&got.beta), bits(&want.beta));
        assert_eq!(bits(&got.se), bits(&want.se));
        assert_eq!(bits(&got.t), bits(&want.t));
        assert_eq!(bits(&got.p), bits(&want.p));
        assert_eq!((got.df, got.n_degenerate), (want.df, want.n_degenerate));
        assert_eq!(got.n_degenerate, 2);
        assert!(got.p[37].is_nan() && got.p[38].is_nan());
        assert_eq!((got.t[39], got.p[39]), (f64::INFINITY, 0.0));
        assert_eq!((got.t[40], got.p[40]), (f64::NEG_INFINITY, 0.0));

        let zero = ScanStats {
            yy: 0.0,
            xy: vec![0.0; 3],
            xx: vec![1.0, 2.0, 3.0],
            qtyqty: 0.0,
            qtxqty: vec![0.0; 3],
            qtxqtx: vec![0.0; 3],
        };
        let got = zero.finalize(10, 0).unwrap();
        let want = finalize_by_pushing(&zero, 10, 0);
        assert_eq!(bits(&got.t), bits(&want.t));
        assert_eq!(bits(&got.p), bits(&want.p));
        assert_eq!(got.n_degenerate, 0);
        assert!(got.t.iter().chain(&got.p).all(|v| v.is_nan()));
    }

    #[test]
    fn a_t_tail_that_does_not_converge_is_an_error_not_a_panic() {
        // At df ≈ 3·10¹¹ the incomplete-beta continued fraction never meets
        // its stopping rule for some |t| (dash-stats holds this one). A
        // scan gets a structured error; it used to be an `expect`.
        let df = 316_227_766_017usize;
        let t = 1.73406705;
        // One variant with β̂ = 1 and σ̂ = 1/t: yy/xx − 1 = df/t².
        let stats = ScanStats {
            yy: 1.0 + df as f64 / (t * t),
            xy: vec![1.0],
            xx: vec![1.0],
            qtyqty: 0.0,
            qtxqty: vec![0.0],
            qtxqtx: vec![0.0],
        };
        let err = stats.finalize(df + 1, 0).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Stats(dash_stats::StatsError::NoConvergence { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn finalize_requires_df() {
        let s = SuffStats::zeros(1, 2);
        assert!(matches!(
            s.reduce().finalize(3, 2),
            Err(CoreError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn ct_stats_match_q_stats() {
        let (y, x, c) = toy(25, 4, 3, 11);
        let q = orthonormal_basis(&c).unwrap();
        let via_q = SuffStats::local(&y, &x, &q).unwrap().reduce();
        let via_ct = CtStats::local(&y, &x, &c).unwrap().to_scan_stats().unwrap();
        assert!((via_q.qtyqty - via_ct.qtyqty).abs() < 1e-8);
        for j in 0..4 {
            assert!((via_q.qtxqty[j] - via_ct.qtxqty[j]).abs() < 1e-8, "j={j}");
            assert!((via_q.qtxqtx[j] - via_ct.qtxqtx[j]).abs() < 1e-8, "j={j}");
        }
    }

    #[test]
    fn ct_stats_local_is_bit_equal_to_gemm_composition() {
        // `CtStats::local` used to be `gemm_at_b(C, X)` plus a `dot` pass
        // per column for xy/xx; the fused kernel must give those bits.
        for (n, m, k) in [(25, 4, 3), (67, 9, 2), (130, 6, 0)] {
            let (y, x, c) = toy(n, m, k, 21);
            let stats = CtStats::local(&y, &x, &c).unwrap();
            assert_eq!(stats.ctx, gemm_at_b(&c, &x).unwrap(), "n={n} m={m} k={k}");
            for j in 0..m {
                assert_eq!(stats.xy[j].to_bits(), dot(x.col(j), &y).to_bits());
                assert_eq!(stats.xx[j].to_bits(), self_dot(x.col(j)).to_bits());
            }
        }
    }

    #[test]
    fn ct_stats_compose_across_batches() {
        let (y, x, c) = toy(40, 3, 2, 13);
        let full = CtStats::local(&y, &x, &c).unwrap();
        let mut acc = CtStats::zeros(3, 2);
        for (lo, hi) in [(0, 11), (11, 25), (25, 40)] {
            let b = CtStats::local(&y[lo..hi], &x.row_block(lo, hi), &c.row_block(lo, hi)).unwrap();
            acc.add_assign(&b).unwrap();
        }
        assert_eq!(acc.n, 40);
        assert!((acc.yy - full.yy).abs() < 1e-10);
        assert!(acc.gram.max_abs_diff(&full.gram).unwrap() < 1e-10);
        assert!(acc.ctx.max_abs_diff(&full.ctx).unwrap() < 1e-10);
        // Finalization agrees too.
        let a = acc.finalize(2).unwrap();
        let f = full.finalize(2).unwrap();
        assert!(a.max_rel_diff(&f).unwrap() < 1e-9);
    }

    #[test]
    fn k_zero_passthrough() {
        let (y, x, _) = toy(12, 2, 1, 17);
        let c0 = Matrix::zeros(12, 0);
        let stats = CtStats::local(&y, &x, &c0).unwrap();
        let scan = stats.to_scan_stats().unwrap();
        assert_eq!(scan.qtyqty, 0.0);
        let res = scan.finalize(12, 0).unwrap();
        assert_eq!(res.df, 11);
    }
}
