//! Multiple transient covariates per test (§5): joint F-tests.
//!
//! §5: "This approach efficiently generalizes to the case of multiple
//! transient covariants (such as interaction terms)". Instead of one
//! column per test, each test m supplies a block `X_m` of q columns
//! (e.g. a variant and its variant×environment interaction); the null
//! `β_m = 0 ∈ ℝ^q` is tested with an F(q, N−K−q) statistic.
//!
//! The same sufficient-statistic structure applies blockwise: with
//! residualized quantities
//!
//! ```text
//! A_m = X_mᵀX_m − (QᵀX_m)ᵀ(QᵀX_m)   (q×q)
//! b_m = X_mᵀy  − (QᵀX_m)ᵀ(Qᵀy)     (q)
//! r²  = y·y − Qᵀy·Qᵀy
//! ```
//!
//! the joint estimate is `β̂_m = A_m⁻¹ b_m`, the model sum of squares is
//! `b_mᵀβ̂_m`, and `F = (b_mᵀβ̂_m / q) / ((r² − b_mᵀβ̂_m)/(N−K−q))`.
//! Everything is built from the same per-party summands as the scalar
//! scan (`X·y`, Gram blocks, `QᵀX`), so the secure aggregation carries
//! over unchanged; this module implements the plaintext evaluation.

use crate::error::CoreError;
use crate::model::PartyData;
use crate::suffstats::orthonormal_basis;
use dash_linalg::{
    cholesky_upper, dot, gemm_at_b, gemv_t, self_dot, solve_lower, solve_upper, Matrix,
};
use dash_stats::FDistribution;

/// One joint test: a named set of transient covariate columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransientBlock {
    /// Label carried into reports.
    pub name: String,
    /// Column indices of X tested jointly.
    pub columns: Vec<usize>,
}

/// Result of one joint block test.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTestResult {
    /// Joint effect estimates, one per block column.
    pub beta: Vec<f64>,
    /// The F statistic.
    pub f: f64,
    /// P-value against F(q, N−K−q).
    pub p: f64,
    /// Numerator degrees of freedom (block size q).
    pub df1: usize,
    /// Denominator degrees of freedom (N−K−q).
    pub df2: usize,
}

/// Tests each block of transient covariates jointly against the null
/// that all of its coefficients are zero, adjusting for `C`.
///
/// Blocks whose residualized Gram is singular (columns collinear with
/// each other or with C) yield NaN results rather than errors, matching
/// the scalar scan's degenerate-variant convention.
pub fn block_scan(
    data: &PartyData,
    blocks: &[TransientBlock],
) -> Result<Vec<BlockTestResult>, CoreError> {
    let n = data.n_samples();
    let k = data.n_covariates();
    if blocks.is_empty() {
        return Err(CoreError::BadConfig {
            what: "at least one transient block is required",
        });
    }
    for b in blocks {
        if b.columns.is_empty() {
            return Err(CoreError::BadConfig {
                what: "transient block with no columns",
            });
        }
        for &c in &b.columns {
            if c >= data.n_variants() {
                return Err(CoreError::ShapeMismatch {
                    what: "transient block column index",
                    expected: data.n_variants(),
                    got: c,
                });
            }
        }
    }
    let max_q = blocks.iter().map(|b| b.columns.len()).max().unwrap_or(0);
    if n <= k + max_q {
        return Err(CoreError::NotEnoughSamples { n, k: k + max_q });
    }

    let q_basis = orthonormal_basis(data.c())?;
    let y = data.y();
    let yy = self_dot(y);
    let qty = gemv_t(&q_basis, y)?;
    let r2 = yy - self_dot(&qty);

    let mut out = Vec::with_capacity(blocks.len());
    for block in blocks {
        let q = block.columns.len();
        // Materialize the block's columns once.
        let cols: Vec<&[f64]> = block.columns.iter().map(|&c| data.x().col(c)).collect();
        let xb = Matrix::from_cols(&cols)?;
        // Residualized Gram and cross-products.
        let qtx = gemm_at_b(&q_basis, &xb)?; // K×q
        let mut a = gemm_at_b(&xb, &xb)?; // q×q
        for i in 0..q {
            for j in 0..q {
                let v = a.get(i, j) - dot(qtx.col(i), qtx.col(j));
                a.set(i, j, v);
            }
        }
        let mut b_vec = Vec::with_capacity(q);
        for (i, col) in cols.iter().enumerate().take(q) {
            b_vec.push(dot(col, y) - dot(qtx.col(i), &qty));
        }
        // Solve A β = b via Cholesky; singular ⇒ degenerate block.
        let result = match cholesky_upper(&a) {
            Ok(u) => {
                let z = solve_lower(&u.transpose(), &b_vec)?;
                let beta = solve_upper(&u, &z)?;
                let model_ss: f64 = b_vec.iter().zip(&beta).map(|(bi, be)| bi * be).sum();
                let df2 = n - k - q;
                let resid_ss = (r2 - model_ss).max(0.0);
                let f_stat = if resid_ss > 0.0 {
                    (model_ss / q as f64) / (resid_ss / df2 as f64)
                } else {
                    f64::INFINITY
                };
                let p = if f_stat.is_finite() {
                    FDistribution::new(q as f64, df2 as f64)?.sf(f_stat)
                } else {
                    0.0
                };
                BlockTestResult {
                    beta,
                    f: f_stat,
                    p,
                    df1: q,
                    df2,
                }
            }
            Err(_) => BlockTestResult {
                beta: vec![f64::NAN; q],
                f: f64::NAN,
                p: f64::NAN,
                df1: q,
                df2: n - k - q,
            },
        };
        out.push(result);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::associate;

    fn gen_data(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(77);
        let mut next = move || {
            let mut acc = 0.0;
            for _ in 0..4 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (s >> 11) as f64 / (1u64 << 53) as f64;
            }
            (acc - 2.0) * (3.0f64).sqrt()
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Matrix::from_fn(n, m, |_, _| next());
        let c = Matrix::from_fn(n, k, |_, _| next());
        PartyData::new(y, x, c).unwrap()
    }

    fn block(name: &str, columns: Vec<usize>) -> TransientBlock {
        TransientBlock {
            name: name.to_string(),
            columns,
        }
    }

    #[test]
    fn single_column_block_matches_t_squared() {
        // F(1, d) of a one-column block equals t² of the scalar scan,
        // with identical p-values.
        let data = gen_data(60, 4, 2, 1);
        let scalar = associate(&data).unwrap();
        let blocks: Vec<TransientBlock> =
            (0..4).map(|j| block(&format!("v{j}"), vec![j])).collect();
        let joint = block_scan(&data, &blocks).unwrap();
        for (j, jb) in joint.iter().enumerate().take(4) {
            assert!(
                (jb.f - scalar.t[j] * scalar.t[j]).abs() < 1e-8 * (1.0 + jb.f.abs()),
                "j={j}: F {} vs t² {}",
                jb.f,
                scalar.t[j] * scalar.t[j]
            );
            assert!((joint[j].p - scalar.p[j]).abs() < 1e-9, "j={j}");
            assert!((joint[j].beta[0] - scalar.beta[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn joint_signal_detected() {
        // Signal split between two columns: jointly strong.
        let mut data = gen_data(300, 5, 1, 3);
        let x0: Vec<f64> = data.x().col(0).to_vec();
        let x1: Vec<f64> = data.x().col(1).to_vec();
        let y: Vec<f64> = data
            .y()
            .iter()
            .enumerate()
            .map(|(i, e)| 0.3 * x0[i] + 0.3 * x1[i] + e)
            .collect();
        data = PartyData::new(y, data.x().clone(), data.c().clone()).unwrap();
        let res = block_scan(
            &data,
            &[block("pair", vec![0, 1]), block("null", vec![2, 3])],
        )
        .unwrap();
        assert!(res[0].p < 1e-8, "joint p = {}", res[0].p);
        assert!(res[1].p > 1e-4, "null p = {}", res[1].p);
        assert_eq!(res[0].df1, 2);
        assert_eq!(res[0].df2, 300 - 1 - 2);
    }

    #[test]
    fn collinear_block_is_nan() {
        let n = 30;
        let base = gen_data(n, 1, 1, 5);
        // Duplicate a column within a block.
        let col: Vec<f64> = base.x().col(0).to_vec();
        let x = Matrix::from_cols(&[&col, &col]).unwrap();
        let data = PartyData::new(base.y().to_vec(), x, base.c().clone()).unwrap();
        let res = block_scan(&data, &[block("dup", vec![0, 1])]).unwrap();
        assert!(res[0].f.is_nan());
        assert!(res[0].beta.iter().all(|b| b.is_nan()));
    }

    #[test]
    fn validation_errors() {
        let data = gen_data(20, 3, 1, 7);
        assert!(block_scan(&data, &[]).is_err());
        assert!(block_scan(&data, &[block("e", vec![])]).is_err());
        assert!(block_scan(&data, &[block("oob", vec![5])]).is_err());
        // q too large for N (needs N > K + q = 4).
        let tiny = gen_data(4, 3, 1, 8);
        assert!(block_scan(&tiny, &[block("big", vec![0, 1, 2])]).is_err());
    }

    #[test]
    fn perfect_fit_gives_infinite_f() {
        // y exactly in the span of the block: residual 0 → F = ∞, p = 0.
        let n = 20;
        let base = gen_data(n, 2, 0, 9);
        let x0: Vec<f64> = base.x().col(0).to_vec();
        let y: Vec<f64> = x0.iter().map(|v| 2.0 * v).collect();
        let data = PartyData::new(y, base.x().clone(), base.c().clone()).unwrap();
        let res = block_scan(&data, &[block("exact", vec![0])]).unwrap();
        assert!(res[0].f.is_infinite() || res[0].f > 1e10);
        assert!(res[0].p < 1e-12);
    }
}
