//! Data model: one party's rows, and scan results.

use crate::error::CoreError;
use dash_linalg::{center_columns, center_vector, Matrix};

/// One party's private slice of the study: `N_k` samples with a response
/// `y`, transient covariates `X` (N_k×M, tested one at a time) and
/// permanent covariates `C` (N_k×K).
///
/// In the single-party (pooled) setting this is simply "the dataset".
#[derive(Debug, Clone, PartialEq)]
pub struct PartyData {
    y: Vec<f64>,
    x: Matrix,
    c: Matrix,
}

impl PartyData {
    /// Validates shapes: `y.len() == x.rows() == c.rows()`.
    ///
    /// K = 0 (no permanent covariates) is allowed — the scan then reduces
    /// to per-variant regression through the origin; pre-center `y` and
    /// `X` to emulate an intercept, per the paper's §3 remark.
    pub fn new(y: Vec<f64>, x: Matrix, c: Matrix) -> Result<Self, CoreError> {
        if x.rows() != y.len() {
            return Err(CoreError::ShapeMismatch {
                what: "X rows vs y length",
                expected: y.len(),
                got: x.rows(),
            });
        }
        if c.rows() != y.len() {
            return Err(CoreError::ShapeMismatch {
                what: "C rows vs y length",
                expected: y.len(),
                got: c.rows(),
            });
        }
        Ok(PartyData { y, x, c })
    }

    /// Number of samples `N_k` this party holds.
    pub fn n_samples(&self) -> usize {
        self.y.len()
    }

    /// Number of transient covariates (variants) M.
    pub fn n_variants(&self) -> usize {
        self.x.cols()
    }

    /// Number of permanent covariates K.
    pub fn n_covariates(&self) -> usize {
        self.c.cols()
    }

    /// The response vector.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// The transient covariate matrix.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The permanent covariate matrix.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Mean-centers `y` and every column of `C` *within this party*.
    ///
    /// Per §3: adding one intercept indicator per party (P batch-effect
    /// covariates) is equivalent to each party centering independently —
    /// this method is that equivalence, and it keeps `C` full-rank where
    /// explicit per-party indicator columns would not be.
    pub fn center_for_party_intercepts(&mut self) {
        center_vector(&mut self.y);
        center_columns(&mut self.c);
    }

    /// Mean-centers `y`, `C` **and** every variant column within this
    /// party (used when the transient covariates should also absorb the
    /// per-party intercept).
    pub fn center_all(&mut self) {
        self.center_for_party_intercepts();
        center_columns(&mut self.x);
    }
}

/// Checks a set of parties for mutual consistency and returns
/// `(N_total, M, K)`.
pub fn validate_parties(parties: &[PartyData]) -> Result<(usize, usize, usize), CoreError> {
    let first = parties.first().ok_or(CoreError::NoParties)?;
    let m = first.n_variants();
    let k = first.n_covariates();
    let mut n = 0;
    for (i, p) in parties.iter().enumerate() {
        if p.n_variants() != m {
            return Err(CoreError::PartiesInconsistent {
                what: "variant count M",
                party: i,
                expected: m,
                got: p.n_variants(),
            });
        }
        if p.n_covariates() != k {
            return Err(CoreError::PartiesInconsistent {
                what: "covariate count K",
                party: i,
                expected: k,
                got: p.n_covariates(),
            });
        }
        n += p.n_samples();
    }
    if n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    Ok((n, m, k))
}

/// Stacks all parties' rows into one pooled dataset — the (insecure)
/// reference the secure protocol must match exactly.
pub fn pool_parties(parties: &[PartyData]) -> Result<PartyData, CoreError> {
    let (_n, _m, _k) = validate_parties(parties)?;
    let mut y = Vec::new();
    for p in parties {
        y.extend_from_slice(&p.y);
    }
    let xs: Vec<&Matrix> = parties.iter().map(|p| &p.x).collect();
    let cs: Vec<&Matrix> = parties.iter().map(|p| &p.c).collect();
    let x = Matrix::vstack(&xs)?;
    let c = Matrix::vstack(&cs)?;
    PartyData::new(y, x, c)
}

/// Per-variant scan output: effect sizes, standard errors, t-statistics
/// and two-sided p-values, as in the paper's R demo data frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Effect estimates β̂, one per variant.
    pub beta: Vec<f64>,
    /// Standard errors σ̂ of the estimates.
    pub se: Vec<f64>,
    /// t-statistics β̂/σ̂.
    pub t: Vec<f64>,
    /// Two-sided p-values against t(df).
    pub p: Vec<f64>,
    /// Residual degrees of freedom `N − K − 1`.
    pub df: usize,
    /// Number of variants whose statistics are NaN because the variant is
    /// (numerically) in the span of the permanent covariates.
    pub n_degenerate: usize,
}

impl ScanResult {
    /// Number of variants.
    pub fn len(&self) -> usize {
        self.beta.len()
    }

    /// True when the scan covered no variants.
    pub fn is_empty(&self) -> bool {
        self.beta.is_empty()
    }

    /// Indices of variants significant at `alpha` (two-sided).
    pub fn hits(&self, alpha: f64) -> Vec<usize> {
        self.p
            .iter()
            .enumerate()
            .filter(|(_, &p)| p < alpha)
            .map(|(i, _)| i)
            .collect()
    }

    /// Largest relative difference of β̂, σ̂, t and p against another
    /// result (the `all.equal` of the paper's R demo); `None` when the
    /// lengths differ. NaN entries must match in position.
    pub fn max_rel_diff(&self, other: &ScanResult) -> Option<f64> {
        if self.len() != other.len() {
            return None;
        }
        let mut worst = 0.0f64;
        let mut cmp = |a: &[f64], b: &[f64]| {
            for (x, y) in a.iter().zip(b) {
                if x.is_nan() != y.is_nan() {
                    worst = f64::INFINITY;
                } else if !x.is_nan() {
                    worst = worst.max((x - y).abs() / (1.0 + x.abs().max(y.abs())));
                }
            }
        };
        cmp(&self.beta, &other.beta);
        cmp(&self.se, &other.se);
        cmp(&self.t, &other.t);
        cmp(&self.p, &other.p);
        Some(worst)
    }
}

/// What a scan's report states, folded a block of rows at a time, so it
/// is O(1) whatever M is.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanSummary {
    /// Rows folded so far.
    pub rows: usize,
    /// Residual degrees of freedom `N − K − 1`.
    pub df: usize,
    /// Rows with p < 5·10⁻⁸ (genome-wide).
    pub genome_wide: usize,
    /// Rows with p < 10⁻⁵ (suggestive).
    pub suggestive: usize,
    /// `(variant, β̂, p)` of the first row with the least finite p.
    pub top: Option<(usize, f64, f64)>,
    /// Rows whose statistics are NaN.
    pub n_degenerate: usize,
}

impl ScanSummary {
    /// The summary of a whole result.
    pub fn of(res: &ScanResult) -> Self {
        let mut s = ScanSummary {
            df: res.df,
            ..Self::default()
        };
        s.add(res);
        s
    }

    /// Folds in the next rows, which follow every row folded so far.
    pub fn add(&mut self, rows: &ScanResult) {
        for (j, (&beta, &p)) in rows.beta.iter().zip(&rows.p).enumerate() {
            self.genome_wide += usize::from(p < 5e-8);
            self.suggestive += usize::from(p < 1e-5);
            if p.is_finite() && self.top.is_none_or(|(_, _, best)| p < best) {
                self.top = Some((self.rows + j, beta, p));
            }
        }
        self.rows += rows.len();
        self.n_degenerate += rows.n_degenerate;
    }
}

/// Where a scan's finalized rows go, a block at a time as each block's
/// round closes, so a party need not hold all M of them.
pub trait RowSink {
    /// Takes the rows of variants `first..`, which follow every row pushed
    /// before.
    fn push(&mut self, first: usize, rows: &ScanResult) -> Result<(), CoreError>;

    /// Makes every pushed row durable and returns the sink's length, where
    /// a resumed run picks up. A sink holding its rows in memory cannot.
    fn durable(&mut self) -> Result<u64, CoreError> {
        Err(in_memory())
    }

    /// Drops whatever follows `len`, a length `durable` returned in an
    /// interrupted run, and continues from there.
    fn resume(&mut self, _len: u64) -> Result<(), CoreError> {
        Err(in_memory())
    }
}

fn in_memory() -> CoreError {
    let what = "an in-memory result cannot be made durable; write the rows to a file";
    CoreError::Checkpoint { what: what.into() }
}

/// The in-memory sink: the rows are appended to the result.
impl RowSink for ScanResult {
    fn push(&mut self, _first: usize, rows: &ScanResult) -> Result<(), CoreError> {
        self.beta.extend_from_slice(&rows.beta);
        self.se.extend_from_slice(&rows.se);
        self.t.extend_from_slice(&rows.t);
        self.p.extend_from_slice(&rows.p);
        self.df = rows.df;
        self.n_degenerate += rows.n_degenerate;
        Ok(())
    }
}

/// The sink of a run that reports only its summary: it keeps nothing, so
/// it is durable at length 0 and resumes anywhere.
pub struct NoRows;

impl RowSink for NoRows {
    fn push(&mut self, _first: usize, _rows: &ScanResult) -> Result<(), CoreError> {
        Ok(())
    }
    fn durable(&mut self) -> Result<u64, CoreError> {
        Ok(0)
    }
    fn resume(&mut self, _len: u64) -> Result<(), CoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_party(n: usize, m: usize, k: usize, seed: f64) -> PartyData {
        let y: Vec<f64> = (0..n).map(|i| ((i as f64) + seed).sin()).collect();
        let x = Matrix::from_fn(n, m, |r, c| ((r * m + c) as f64 + seed).cos());
        let c = Matrix::from_fn(n, k, |r, c| ((r + c * 31) as f64 * 0.7 + seed).sin());
        PartyData::new(y, x, c).unwrap()
    }

    #[test]
    fn shape_validation() {
        let y = vec![1.0, 2.0];
        let x = Matrix::zeros(3, 2);
        let c = Matrix::zeros(2, 1);
        assert!(matches!(
            PartyData::new(y.clone(), x, c.clone()),
            Err(CoreError::ShapeMismatch { .. })
        ));
        let x2 = Matrix::zeros(2, 2);
        let c_bad = Matrix::zeros(3, 1);
        assert!(PartyData::new(y.clone(), x2.clone(), c_bad).is_err());
        assert!(PartyData::new(y, x2, c).is_ok());
    }

    #[test]
    fn accessors() {
        let p = toy_party(10, 4, 2, 0.0);
        assert_eq!(p.n_samples(), 10);
        assert_eq!(p.n_variants(), 4);
        assert_eq!(p.n_covariates(), 2);
    }

    #[test]
    fn validate_rejects_inconsistent_m_and_k() {
        let a = toy_party(10, 4, 2, 0.0);
        let b = toy_party(8, 5, 2, 1.0);
        assert!(matches!(
            validate_parties(&[a.clone(), b]),
            Err(CoreError::PartiesInconsistent {
                what: "variant count M",
                ..
            })
        ));
        let c = toy_party(8, 4, 3, 1.0);
        assert!(matches!(
            validate_parties(&[a, c]),
            Err(CoreError::PartiesInconsistent {
                what: "covariate count K",
                ..
            })
        ));
    }

    #[test]
    fn validate_requires_enough_samples() {
        let tiny = toy_party(3, 2, 2, 0.0); // N = 3, K = 2 → df = 0
        assert!(matches!(
            validate_parties(&[tiny]),
            Err(CoreError::NotEnoughSamples { .. })
        ));
        assert!(matches!(validate_parties(&[]), Err(CoreError::NoParties)));
    }

    #[test]
    fn pool_stacks_in_order() {
        let a = toy_party(3, 2, 1, 0.0);
        let b = toy_party(4, 2, 1, 1.0);
        let pooled = pool_parties(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(pooled.n_samples(), 7);
        assert_eq!(pooled.y()[..3], a.y()[..]);
        assert_eq!(pooled.y()[3..], b.y()[..]);
        assert_eq!(pooled.x().get(3, 1), b.x().get(0, 1));
        assert_eq!(pooled.c().get(2, 0), a.c().get(2, 0));
    }

    #[test]
    fn centering_for_party_intercepts() {
        let mut p = toy_party(9, 2, 2, 0.5);
        p.center_for_party_intercepts();
        assert!(p.y().iter().sum::<f64>().abs() < 1e-12);
        for j in 0..2 {
            assert!(p.c().col(j).iter().sum::<f64>().abs() < 1e-12);
        }
        // X untouched by the party-intercept variant.
        let x_sum: f64 = p.x().col(0).iter().sum();
        assert!(x_sum.abs() > 1e-9);
        p.center_all();
        assert!(p.x().col(0).iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn scan_result_hits_and_diff() {
        let r1 = ScanResult {
            beta: vec![1.0, 2.0],
            se: vec![0.1, 0.2],
            t: vec![10.0, 10.0],
            p: vec![1e-9, 0.5],
            df: 10,
            n_degenerate: 0,
        };
        assert_eq!(r1.hits(1e-3), vec![0]);
        let mut r2 = r1.clone();
        r2.beta[1] = 2.0 + 3e-7;
        let d = r1.max_rel_diff(&r2).unwrap();
        assert!(d > 0.0 && d < 1e-6);
        let short = ScanResult {
            beta: vec![1.0],
            se: vec![0.1],
            t: vec![10.0],
            p: vec![1e-9],
            df: 10,
            n_degenerate: 0,
        };
        assert!(r1.max_rel_diff(&short).is_none());
    }

    #[test]
    fn nan_mismatch_is_infinite_diff() {
        let r1 = ScanResult {
            beta: vec![f64::NAN],
            se: vec![f64::NAN],
            t: vec![f64::NAN],
            p: vec![f64::NAN],
            df: 5,
            n_degenerate: 1,
        };
        let r2 = ScanResult {
            beta: vec![1.0],
            se: vec![1.0],
            t: vec![1.0],
            p: vec![1.0],
            df: 5,
            n_degenerate: 0,
        };
        assert_eq!(r1.max_rel_diff(&r2), Some(f64::INFINITY));
        assert_eq!(r1.max_rel_diff(&r1.clone()), Some(0.0));
    }
}
