//! Multiple phenotypes (§5).
//!
//! Biobanks and eQTL studies test each variant against many responses.
//! The expensive per-variant work — `X·X` and `QᵀX` — does not depend on
//! the phenotype, so a T-phenotype scan costs one `QᵀX` pass plus T cheap
//! y-side passes, not T full scans.

use crate::error::CoreError;
use crate::model::ScanResult;
use crate::suffstats::{orthonormal_basis, ScanStats};
use dash_linalg::{dot, gemm_at_b, gemv_t, self_dot, Matrix};

/// Scans every column of `ys` (N×T) against every column of `x` (N×M),
/// adjusting for `c` (N×K). Returns one [`ScanResult`] per phenotype.
pub fn multi_phenotype_scan(
    ys: &Matrix,
    x: &Matrix,
    c: &Matrix,
) -> Result<Vec<ScanResult>, CoreError> {
    let n = x.rows();
    if ys.rows() != n || c.rows() != n {
        return Err(CoreError::ShapeMismatch {
            what: "multi_phenotype_scan rows",
            expected: n,
            got: if ys.rows() != n { ys.rows() } else { c.rows() },
        });
    }
    let k = c.cols();
    if n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    let m = x.cols();
    let t = ys.cols();
    if t == 0 {
        return Ok(Vec::new());
    }
    // Phenotype-independent work, done once.
    let q = orthonormal_basis(c)?;
    let qtx = gemm_at_b(&q, x)?; // K×M
    let mut xx = Vec::with_capacity(m);
    let mut qtxqtx = Vec::with_capacity(m);
    for j in 0..m {
        xx.push(self_dot(x.col(j)));
        qtxqtx.push(self_dot(qtx.col(j)));
    }
    // Per-phenotype y-side work.
    let mut out = Vec::with_capacity(t);
    for ti in 0..t {
        let y = ys.col(ti);
        let yy = self_dot(y);
        let qty = gemv_t(&q, y)?;
        let qtyqty = self_dot(&qty);
        let mut xy = Vec::with_capacity(m);
        let mut qtxqty = Vec::with_capacity(m);
        for j in 0..m {
            xy.push(dot(x.col(j), y));
            qtxqty.push(dot(qtx.col(j), &qty));
        }
        out.push(
            ScanStats {
                yy,
                xy,
                xx: xx.clone(),
                qtyqty,
                qtxqty,
                qtxqtx: qtxqtx.clone(),
            }
            .finalize(n, k)?,
        );
    }
    Ok(out)
}

/// One party's data for a multi-phenotype study: T responses per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPartyData {
    /// Responses, N_k×T.
    pub ys: Matrix,
    /// Transient covariates, N_k×M.
    pub x: Matrix,
    /// Permanent covariates, N_k×K.
    pub c: Matrix,
}

impl MultiPartyData {
    /// Validates row consistency.
    pub fn new(ys: Matrix, x: Matrix, c: Matrix) -> Result<Self, CoreError> {
        if x.rows() != ys.rows() || c.rows() != ys.rows() {
            return Err(CoreError::ShapeMismatch {
                what: "MultiPartyData rows",
                expected: ys.rows(),
                got: if x.rows() != ys.rows() {
                    x.rows()
                } else {
                    c.rows()
                },
            });
        }
        Ok(MultiPartyData { ys, x, c })
    }
}

/// Secure multi-party, multi-phenotype scan (§5: "multiple phenotypes
/// (such as with biobanks or eQTL studies)").
///
/// The phenotype-independent statistics (`X·X`, `QᵀX`) are aggregated
/// once and shared across all T phenotypes, so the marginal cost of an
/// extra phenotype is one M-vector (`X·y_t`) plus one K-vector — not a
/// full rerun. Aggregation uses the masked secure sum (the paper-default
/// rung); only aggregates open. Any other `cfg.aggregation` is refused
/// with [`CoreError::BadConfig`].
pub fn secure_multi_phenotype_scan(
    parties: &[MultiPartyData],
    cfg: &crate::secure::SecureScanConfig,
) -> Result<Vec<ScanResult>, CoreError> {
    use crate::secure::run_in_process;
    use dash_mpc::protocol::masked::masked_sum_f64;

    cfg.require_masked_prg()?;
    let first = parties.first().ok_or(CoreError::NoParties)?;
    let m = first.x.cols();
    let k = first.c.cols();
    let t_count = first.ys.cols();
    for (i, p) in parties.iter().enumerate() {
        if p.x.cols() != m || p.c.cols() != k || p.ys.cols() != t_count {
            return Err(CoreError::PartiesInconsistent {
                what: "multi-phenotype shapes",
                party: i,
                expected: m,
                got: p.x.cols(),
            });
        }
    }
    if t_count == 0 {
        return Ok(Vec::new());
    }
    let codec = cfg.ring_codec()?;

    let run = |ctx: &mut dash_mpc::PartyCtx,
               data: &MultiPartyData|
     -> Result<Vec<ScanResult>, CoreError> {
        // Steps 0-1: pooled N, shared R and private Q rows.
        let (n_total, _r, q) =
            crate::secure::protocol::count_and_rfactor(ctx, data.ys.rows(), &data.c, cfg)?;
        // Phase 2: one flat payload carrying the shared X-side statistics
        // plus T phenotype-side blocks.
        let qtx = gemm_at_b(&q, &data.x)?;
        let mut payload = Vec::with_capacity(m * 2 + k * m + t_count * (1 + m + k));
        for j in 0..m {
            payload.push(self_dot(data.x.col(j)));
        }
        payload.extend_from_slice(qtx.as_slice());
        for ti in 0..t_count {
            let y = data.ys.col(ti);
            payload.push(self_dot(y));
            for j in 0..m {
                payload.push(dot(data.x.col(j), y));
            }
            payload.extend_from_slice(&gemv_t(&q, y)?);
        }
        let total = masked_sum_f64(
            ctx,
            &codec,
            &payload,
            "aggregate multi-phenotype statistics",
        )?;
        // Unpack and finalize per phenotype.
        let xx = total[..m].to_vec();
        let qtx_total = Matrix::from_column_major(k, m, total[m..m + k * m].to_vec())?;
        let mut qtxqtx = Vec::with_capacity(m);
        for j in 0..m {
            qtxqtx.push(self_dot(qtx_total.col(j)));
        }
        let mut out = Vec::with_capacity(t_count);
        let mut off = m + k * m;
        for _ti in 0..t_count {
            let yy = total[off];
            let xy = total[off + 1..off + 1 + m].to_vec();
            let qty = &total[off + 1 + m..off + 1 + m + k];
            off += 1 + m + k;
            let qtyqty = self_dot(qty);
            let mut qtxqty = Vec::with_capacity(m);
            for j in 0..m {
                qtxqty.push(dot(qtx_total.col(j), qty));
            }
            out.push(
                crate::suffstats::ScanStats {
                    yy,
                    xy,
                    xx: xx.clone(),
                    qtyqty,
                    qtxqty,
                    qtxqtx: qtxqtx.clone(),
                }
                .finalize(n_total, k)?,
            );
        }
        Ok(out)
    };
    let (results, _stats, _audit) = run_in_process(parties, cfg.seed, &cfg.net_options(), run)?;
    results.into_iter().next().ok_or(CoreError::NoParties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PartyData;
    use crate::scan::associate;

    fn gen(n: usize, m: usize, k: usize, t: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(23);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let ys = Matrix::from_fn(n, t, |_, _| next());
        let x = Matrix::from_fn(n, m, |_, _| next());
        let c = Matrix::from_fn(n, k, |_, _| next());
        (ys, x, c)
    }

    #[test]
    fn each_phenotype_matches_standalone_scan() {
        let (ys, x, c) = gen(40, 5, 2, 3, 1);
        let multi = multi_phenotype_scan(&ys, &x, &c).unwrap();
        assert_eq!(multi.len(), 3);
        for (ti, result) in multi.iter().enumerate() {
            let single =
                associate(&PartyData::new(ys.col(ti).to_vec(), x.clone(), c.clone()).unwrap())
                    .unwrap();
            let d = result.max_rel_diff(&single).unwrap();
            assert!(d < 1e-11, "phenotype {ti}: diff {d}");
        }
    }

    #[test]
    fn zero_phenotypes() {
        let (_, x, c) = gen(10, 2, 1, 1, 2);
        let ys = Matrix::zeros(10, 0);
        assert!(multi_phenotype_scan(&ys, &x, &c).unwrap().is_empty());
    }

    #[test]
    fn shape_checked() {
        let (ys, x, c) = gen(10, 2, 1, 2, 3);
        let bad_c = Matrix::zeros(9, 1);
        assert!(multi_phenotype_scan(&ys, &x, &bad_c).is_err());
        let bad_y = Matrix::zeros(9, 2);
        assert!(multi_phenotype_scan(&bad_y, &x, &c).is_err());
    }

    #[test]
    fn secure_multi_matches_pooled_per_phenotype() {
        let (ys1, x1, c1) = gen(25, 6, 2, 3, 10);
        let (ys2, x2, c2) = gen(35, 6, 2, 3, 11);
        let parties = vec![
            MultiPartyData::new(ys1.clone(), x1.clone(), c1.clone()).unwrap(),
            MultiPartyData::new(ys2.clone(), x2.clone(), c2.clone()).unwrap(),
        ];
        let cfg = crate::secure::SecureScanConfig::paper_default(17);
        let secure = secure_multi_phenotype_scan(&parties, &cfg).unwrap();
        assert_eq!(secure.len(), 3);
        // Pooled plaintext reference per phenotype.
        let x = Matrix::vstack(&[&x1, &x2]).unwrap();
        let c = Matrix::vstack(&[&c1, &c2]).unwrap();
        for (ti, result) in secure.iter().enumerate() {
            let mut y = ys1.col(ti).to_vec();
            y.extend_from_slice(ys2.col(ti));
            let reference = associate(&PartyData::new(y, x.clone(), c.clone()).unwrap()).unwrap();
            let d = result.max_rel_diff(&reference).unwrap();
            assert!(d < 1e-6, "phenotype {ti}: diff {d}");
        }
    }

    #[test]
    fn secure_multi_validates_shapes() {
        let (ys1, x1, c1) = gen(20, 4, 1, 2, 12);
        let (ys2, x2, _) = gen(20, 4, 1, 2, 13);
        let bad_c = Matrix::zeros(20, 2);
        let parties = vec![
            MultiPartyData::new(ys1, x1, c1).unwrap(),
            MultiPartyData::new(ys2, x2, bad_c).unwrap(),
        ];
        let cfg = crate::secure::SecureScanConfig::paper_default(1);
        assert!(matches!(
            secure_multi_phenotype_scan(&parties, &cfg),
            Err(CoreError::PartiesInconsistent { .. })
        ));
        assert!(matches!(
            secure_multi_phenotype_scan(&[], &cfg),
            Err(CoreError::NoParties)
        ));
    }

    #[test]
    fn secure_multi_refuses_an_aggregation_it_does_not_run() {
        let parties: Vec<MultiPartyData> = [14, 15]
            .iter()
            .map(|&seed| {
                let (ys, x, c) = gen(20, 4, 1, 2, seed);
                MultiPartyData::new(ys, x, c).unwrap()
            })
            .collect();
        let paper = crate::secure::SecureScanConfig::paper_default(2);
        let star = crate::secure::SecureScanConfig {
            aggregation: crate::secure::AggregationMode::MaskedStar,
            ..paper
        };
        let max = crate::secure::SecureScanConfig::max_security(2);
        for cfg in [max, star] {
            assert!(matches!(
                secure_multi_phenotype_scan(&parties, &cfg),
                Err(CoreError::BadConfig { .. })
            ));
        }
        assert!(secure_multi_phenotype_scan(&parties, &paper).is_ok());
    }

    #[test]
    fn multi_party_data_row_check() {
        let ys = Matrix::zeros(5, 2);
        let x = Matrix::zeros(6, 3);
        let c = Matrix::zeros(5, 1);
        assert!(MultiPartyData::new(ys.clone(), x, c.clone()).is_err());
        assert!(MultiPartyData::new(ys, Matrix::zeros(5, 3), Matrix::zeros(4, 1)).is_err());
    }

    #[test]
    fn correlated_phenotypes_share_hits() {
        // Phenotypes 0 and 1 both driven by variant 2.
        let (mut ys, x, c) = gen(300, 6, 1, 2, 4);
        let x2: Vec<f64> = x.col(2).to_vec();
        for ti in 0..2 {
            let col = ys.col_mut(ti);
            for (v, xv) in col.iter_mut().zip(&x2) {
                *v += 0.9 * xv;
            }
        }
        let multi = multi_phenotype_scan(&ys, &x, &c).unwrap();
        assert!(multi[0].p[2] < 1e-8);
        assert!(multi[1].p[2] < 1e-8);
    }
}
