//! Multiple phenotypes (§5).
//!
//! Biobanks and eQTL studies test each variant against many responses.
//! The expensive per-variant work — `X·X` and `QᵀX` — does not depend on
//! the phenotype, so a T-phenotype scan reads `X` in one [`scan_dots`]
//! pass for `QᵀX` and one per block of phenotypes for their `X·y_t`, not
//! in T full scans.

use crate::error::CoreError;
use crate::model::ScanResult;
use crate::suffstats::{orthonormal_basis, ScanStats};
use dash_linalg::{gemv_t, scan_dots, self_dot, Matrix, ScanDots};

/// Scans every column of `ys` (N×T) against every column of `x` (N×M),
/// adjusting for `c` (N×K). Returns one [`ScanResult`] per phenotype.
pub fn multi_phenotype_scan(
    ys: &Matrix,
    x: &Matrix,
    c: &Matrix,
) -> Result<Vec<ScanResult>, CoreError> {
    let (n, k) = (ys.rows(), c.cols());
    let mut out = Vec::with_capacity(ys.cols());
    each_phenotype(ys, x, c, |stats| {
        out.push(stats.finalize(n, k)?);
        Ok(())
    })?;
    Ok(out)
}

/// Calls `each` with every column of `ys`'s reduced [`ScanStats`] against
/// `x`, adjusting for `c`, in order: the one pass behind
/// [`multi_phenotype_scan`], for callers that keep less of each scan.
pub(crate) fn each_phenotype(
    ys: &Matrix,
    x: &Matrix,
    c: &Matrix,
    mut each: impl FnMut(ScanStats) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    check_rows("multi_phenotype_scan rows", ys, x, c)?;
    let (n, k) = (ys.rows(), c.cols());
    if n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    if ys.cols() == 0 {
        return Ok(());
    }
    let q = orthonormal_basis(c)?;
    let ScanDots { xx, atx: qtx, .. } = scan_dots(ys.col(0), &q, x, 0, x.cols())?;
    each_xy(ys, x, |y, xy| {
        let qty = gemv_t(&q, y)?;
        let stats = ScanStats::from_sums(self_dot(y), xy, xx.clone(), &qty, &qtx);
        each(stats)
    })
}

/// Checks that `ys`, `x` and `c` hold one row per sample.
fn check_rows(what: &'static str, ys: &Matrix, x: &Matrix, c: &Matrix) -> Result<(), CoreError> {
    let n = ys.rows();
    match [x.rows(), c.rows()].into_iter().find(|&rows| rows != n) {
        Some(got) => Err(CoreError::ShapeMismatch {
            what,
            expected: n,
            got,
        }),
        None => Ok(()),
    }
}

/// Phenotypes per [`scan_dots`] pass over `X`: each pass holds a copy of
/// this many columns of `ys` and their `YᵀX` block, not all T of them.
const PHENOTYPES_PER_PASS: usize = 64;

/// Calls `each(y_t, X·y_t)` for every phenotype `t` in order. One
/// [`scan_dots`] pass per [`PHENOTYPES_PER_PASS`] phenotypes forms their
/// `X·y` as targets, so `X` is read once per block, not once per phenotype.
fn each_xy(
    ys: &Matrix,
    x: &Matrix,
    mut each: impl FnMut(&[f64], Vec<f64>) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    for t0 in (0..ys.cols()).step_by(PHENOTYPES_PER_PASS) {
        let block = ys.col_block(t0, ys.cols().min(t0 + PHENOTYPES_PER_PASS));
        let ytx = scan_dots(block.col(0), &block, x, 0, x.cols())?.atx;
        for t in 0..block.cols() {
            each(block.col(t), ytx.row(t))?;
        }
    }
    Ok(())
}

/// One party's summands of a T-phenotype scan (T ≥ 1), flat for the
/// masked sum: `X·X` (M) and `QᵀX` (K×M) once, then per phenotype `y·y`,
/// `X·y` (M) and `Qᵀy` (K).
fn payload(ys: &Matrix, x: &Matrix, q: &Matrix) -> Result<Vec<f64>, CoreError> {
    let ScanDots { xx, atx: qtx, .. } = scan_dots(ys.col(0), q, x, 0, x.cols())?;
    let mut out = xx;
    out.extend_from_slice(qtx.as_slice());
    each_xy(ys, x, |y, xy| {
        out.push(self_dot(y));
        out.extend(xy);
        out.extend(gemv_t(q, y)?);
        Ok(())
    })?;
    Ok(out)
}

/// Finalizes each phenotype of a sum of [`payload`]s over `n` samples:
/// `X·X` and `QᵀX` are shared, and each phenotype reduces with them
/// through [`ScanStats::from_sums`].
fn unpack(
    total: &[f64],
    m: usize,
    k: usize,
    t: usize,
    n: usize,
) -> Result<Vec<ScanResult>, CoreError> {
    let expected = m + k * m + t * (1 + m + k);
    if total.len() != expected {
        return Err(CoreError::ShapeMismatch {
            what: "multi-phenotype statistics",
            expected,
            got: total.len(),
        });
    }
    let (xx, rest) = total.split_at(m);
    let (qtx, phenotypes) = rest.split_at(k * m);
    let qtx = Matrix::from_column_major(k, m, qtx.to_vec())?;
    phenotypes
        .chunks_exact(1 + m + k)
        .map(|p| {
            let (yy, xy, qty) = (p[0], &p[1..=m], &p[1 + m..]);
            ScanStats::from_sums(yy, xy.to_vec(), xx.to_vec(), qty, &qtx).finalize(n, k)
        })
        .collect()
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
        check_rows("MultiPartyData rows", &ys, &x, &c)?;
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
/// rung) of every party's flat summands; only aggregates open. Any other
/// `cfg.aggregation` is refused with [`CoreError::BadConfig`].
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
    for (party, p) in parties.iter().enumerate() {
        for (what, expected, got) in [
            ("variant count M", m, p.x.cols()),
            ("covariate count K", k, p.c.cols()),
            ("phenotype count T", t_count, p.ys.cols()),
        ] {
            if got != expected {
                return Err(CoreError::PartiesInconsistent {
                    what,
                    party,
                    expected,
                    got,
                });
            }
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
        let own = payload(&data.ys, &data.x, &q)?;
        let label = "aggregate multi-phenotype statistics";
        let total = masked_sum_f64(ctx, &codec, &own, label)?;
        unpack(&total, m, k, t_count, n_total)
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

    /// Phenotypes past the first [`PHENOTYPES_PER_PASS`] take further
    /// passes, the last one short; every phenotype keeps the bits of its
    /// own scan, plaintext and secure.
    #[test]
    fn phenotype_blocks_keep_the_bits_of_single_scans() {
        let bits = |r: &ScanResult| -> Vec<u64> {
            [&r.beta, &r.se, &r.t, &r.p]
                .iter()
                .flat_map(|v| v.iter().map(|x| x.to_bits()))
                .collect()
        };
        let t = PHENOTYPES_PER_PASS + 3;
        let (ys, x, c) = gen(30, 4, 2, t, 5);
        let multi = multi_phenotype_scan(&ys, &x, &c).unwrap();
        assert_eq!(multi.len(), t);
        for (ti, result) in multi.iter().enumerate() {
            let data = PartyData::new(ys.col(ti).to_vec(), x.clone(), c.clone()).unwrap();
            assert_eq!(
                bits(result),
                bits(&associate(&data).unwrap()),
                "phenotype {ti}"
            );
        }

        let (ys2, x2, c2) = gen(20, 4, 2, t, 6);
        let parties = [
            MultiPartyData::new(ys, x, c).unwrap(),
            MultiPartyData::new(ys2, x2, c2).unwrap(),
        ];
        let cfg = crate::secure::SecureScanConfig::paper_default(9);
        let secure = secure_multi_phenotype_scan(&parties, &cfg).unwrap();
        assert_eq!(secure.len(), t);
        for ti in [0, PHENOTYPES_PER_PASS - 1, PHENOTYPES_PER_PASS, t - 1] {
            let single: Vec<PartyData> = parties
                .iter()
                .map(|p| PartyData::new(p.ys.col(ti).to_vec(), p.x.clone(), p.c.clone()).unwrap())
                .collect();
            let want = crate::secure::secure_scan(&single, &cfg).unwrap().result;
            assert_eq!(bits(&secure[ti]), bits(&want), "secure phenotype {ti}");
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
        assert_eq!(
            secure_multi_phenotype_scan(&parties, &cfg),
            Err(CoreError::PartiesInconsistent {
                what: "covariate count K",
                party: 1,
                expected: 1,
                got: 2,
            })
        );
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
