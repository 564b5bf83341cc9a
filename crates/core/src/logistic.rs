//! Case/control scans: logistic-regression score tests.
//!
//! The paper treats quantitative phenotypes; real GWAS are often binary
//! (disease status). The standard fast method — fit the *null* logistic
//! model `y ~ C` once, then score-test each variant — has exactly the
//! additive-summand structure DASH exploits:
//!
//! - the null fit's IRLS iterations need only the K×K and K aggregates
//!   `CᵀWC`, `Cᵀ(y−μ)` (W = diag(μ(1−μ))), so each iteration is one
//!   O(K²) secure sum;
//! - the per-variant score statistic
//!   `U_m = X_mᵀ(y−μ)`,
//!   `V_m = X_mᵀWX_m − (X_mᵀWC)(CᵀWC)⁻¹(CᵀWX_m)`
//!   needs the additive aggregates `Xᵀ(y−μ)` (M), `diag(XᵀWX)` (M) and
//!   `XᵀWC` (M×K) — one O(M·K) secure sum, the same footprint as the
//!   linear scan.
//!
//! Under the null, `U²/V ~ χ²(1)`; the signed `z = U/√V` plays the role
//! of the linear scan's t.

use crate::error::CoreError;
use crate::model::{validate_parties, PartyData};
use crate::secure::{run_in_process, NetworkReport, SecureScanConfig};
use dash_linalg::{cholesky_upper, dot, solve_lower, solve_upper, Matrix};
use dash_mpc::protocol::masked::{masked_sum_f64, masked_sum_ring};
use dash_mpc::{PartyCtx, R64};
use dash_stats::{ChiSquared, StatsError};

/// IRLS iteration cap for the null model.
const MAX_IRLS_ITER: usize = 30;
/// Convergence threshold on the Newton step's max-norm.
const IRLS_TOL: f64 = 1e-10;
/// Relative threshold below which the score variance counts as zero.
const DEGENERATE_RTOL: f64 = 1e-9;

/// The fitted null model `y ~ C` (shared across parties: β is a function
/// of aggregates only).
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticNull {
    /// Coefficients of the permanent covariates.
    pub beta: Vec<f64>,
    /// IRLS iterations used.
    pub iterations: usize,
}

/// Per-variant score-test results.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreScanResult {
    /// Score statistics `U_m = X_mᵀ(y−μ)`.
    pub u: Vec<f64>,
    /// Score variances `V_m`.
    pub v: Vec<f64>,
    /// Signed z-statistics `U/√V`.
    pub z: Vec<f64>,
    /// Two-sided p-values from χ²(1) on `z²`.
    pub p: Vec<f64>,
    /// Variants with (numerically) zero score variance.
    pub n_degenerate: usize,
}

impl ScoreScanResult {
    /// Number of variants.
    pub fn len(&self) -> usize {
        self.u.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.u.is_empty()
    }

    /// Indices with p below `alpha`.
    pub fn hits(&self, alpha: f64) -> Vec<usize> {
        self.p
            .iter()
            .enumerate()
            .filter(|(_, &p)| p < alpha)
            .map(|(i, _)| i)
            .collect()
    }

    /// Largest relative z difference vs another result (NaNs must match).
    pub fn max_rel_diff(&self, other: &ScoreScanResult) -> Option<f64> {
        if self.len() != other.len() {
            return None;
        }
        let mut worst = 0.0f64;
        for (a, b) in self.z.iter().zip(&other.z) {
            if a.is_nan() != b.is_nan() {
                return Some(f64::INFINITY);
            }
            if !a.is_nan() {
                worst = worst.max((a - b).abs() / (1.0 + a.abs().max(b.abs())));
            }
        }
        Some(worst)
    }
}

/// Checks that a response is strictly 0/1.
fn validate_binary(y: &[f64]) -> Result<(), CoreError> {
    if y.iter().any(|&v| v != 0.0 && v != 1.0) {
        return Err(CoreError::BadConfig {
            what: "logistic scan requires a 0/1 response",
        });
    }
    Ok(())
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// One party's IRLS summands at the current β: `(CᵀWC, Cᵀ(y−μ))`.
fn irls_summands(y: &[f64], c: &Matrix, beta: &[f64]) -> (Matrix, Vec<f64>) {
    let n = y.len();
    let k = c.cols();
    let mut ctwc = Matrix::zeros(k, k);
    let mut score = vec![0.0; k];
    for (i, &yi) in y.iter().enumerate().take(n) {
        let mut eta = 0.0;
        for (j, &bj) in beta.iter().enumerate().take(k) {
            eta += c.get(i, j) * bj;
        }
        let mu = sigmoid(eta);
        let w = mu * (1.0 - mu);
        let r = yi - mu;
        for (j, sj) in score.iter_mut().enumerate().take(k) {
            let cij = c.get(i, j);
            *sj += cij * r;
            for l in j..k {
                let v = ctwc.get(j, l) + w * cij * c.get(i, l);
                ctwc.set(j, l, v);
                if l != j {
                    ctwc.set(l, j, v);
                }
            }
        }
    }
    (ctwc, score)
}

/// Solves `CᵀWC · step = score` via Cholesky.
fn newton_step(ctwc: &Matrix, score: &[f64]) -> Result<Vec<f64>, CoreError> {
    let u = cholesky_upper(ctwc)?;
    let z = solve_lower(&u.transpose(), score)?;
    Ok(solve_upper(&u, &z)?)
}

/// Fits the null logistic model `y ~ C` by IRLS on pooled data.
///
/// `C` should contain an intercept column (or centered data); K = 0 is
/// allowed and yields the empty model (μ = ½ everywhere).
pub fn fit_null_logistic(y: &[f64], c: &Matrix) -> Result<LogisticNull, CoreError> {
    validate_binary(y)?;
    if c.rows() != y.len() {
        return Err(CoreError::ShapeMismatch {
            what: "logistic null model rows",
            expected: y.len(),
            got: c.rows(),
        });
    }
    let k = c.cols();
    let mut beta = vec![0.0; k];
    if k == 0 {
        return Ok(LogisticNull {
            beta,
            iterations: 0,
        });
    }
    for it in 1..=MAX_IRLS_ITER {
        let (ctwc, score) = irls_summands(y, c, &beta);
        let step = newton_step(&ctwc, &score)?;
        let max_step = step.iter().fold(0.0f64, |a, &s| a.max(s.abs()));
        for (b, s) in beta.iter_mut().zip(&step) {
            *b += s;
        }
        if max_step < IRLS_TOL {
            return Ok(LogisticNull {
                beta,
                iterations: it,
            });
        }
    }
    Err(CoreError::Stats(StatsError::NoConvergence {
        what: "logistic IRLS (separation or extreme covariates?)",
        value: MAX_IRLS_ITER as f64,
    }))
}

/// The additive per-variant score summands at a fitted null model.
struct ScoreSummands {
    /// `X_mᵀ(y−μ)` per variant.
    xr: Vec<f64>,
    /// `X_mᵀWX_m` per variant.
    xwx: Vec<f64>,
    /// `XᵀWC`, K×M (column m = `CᵀW X_m`).
    xwc: Matrix,
    /// `CᵀWC` (for the projection term).
    ctwc: Matrix,
}

fn score_summands(y: &[f64], x: &Matrix, c: &Matrix, beta: &[f64]) -> ScoreSummands {
    let n = y.len();
    let m = x.cols();
    let k = c.cols();
    // Per-sample weights and residuals.
    let mut w = vec![0.0; n];
    let mut r = vec![0.0; n];
    for i in 0..n {
        let mut eta = 0.0;
        for (j, &bj) in beta.iter().enumerate().take(k) {
            eta += c.get(i, j) * bj;
        }
        let mu = sigmoid(eta);
        w[i] = mu * (1.0 - mu);
        r[i] = y[i] - mu;
    }
    let mut xr = Vec::with_capacity(m);
    let mut xwx = Vec::with_capacity(m);
    let mut xwc = Matrix::zeros(k, m);
    // Precompute W-scaled covariates once: (WC)ᵢⱼ = wᵢ·Cᵢⱼ.
    let mut wc = c.clone();
    for j in 0..k {
        for (v, wi) in wc.col_mut(j).iter_mut().zip(&w) {
            *v *= wi;
        }
    }
    for mi in 0..m {
        let col = x.col(mi);
        xr.push(dot(col, &r));
        let mut s = 0.0;
        for (xi, wi) in col.iter().zip(&w) {
            s += xi * xi * wi;
        }
        xwx.push(s);
        let dst = xwc.col_mut(mi);
        for (j, d) in dst.iter_mut().enumerate().take(k) {
            *d = dot(wc.col(j), col);
        }
    }
    let (ctwc, _) = irls_summands(y, c, beta);
    ScoreSummands { xr, xwx, xwc, ctwc }
}

/// Finalizes opened aggregates into score statistics.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a > b)` deliberately catches NaN
fn finalize_scores(
    xr: &[f64],
    xwx: &[f64],
    xwc: &Matrix,
    ctwc: &Matrix,
) -> Result<ScoreScanResult, CoreError> {
    let m = xr.len();
    let k = ctwc.rows();
    let chi1 = ChiSquared::new(1.0)?;
    let chol = if k > 0 {
        Some(cholesky_upper(ctwc)?)
    } else {
        None
    };
    let mut u_out = Vec::with_capacity(m);
    let mut v_out = Vec::with_capacity(m);
    let mut z_out = Vec::with_capacity(m);
    let mut p_out = Vec::with_capacity(m);
    let mut n_degenerate = 0;
    for mi in 0..m {
        let u_stat = xr[mi];
        let proj = match &chol {
            Some(uch) => {
                let b = xwc.col(mi);
                let z = solve_lower(&uch.transpose(), b)?;
                dot(&z, &z)
            }
            None => 0.0,
        };
        let v_stat = xwx[mi] - proj;
        if !(v_stat > DEGENERATE_RTOL * xwx[mi]) {
            n_degenerate += 1;
            u_out.push(u_stat);
            v_out.push(f64::NAN);
            z_out.push(f64::NAN);
            p_out.push(f64::NAN);
            continue;
        }
        let z = u_stat / v_stat.sqrt();
        u_out.push(u_stat);
        v_out.push(v_stat);
        z_out.push(z);
        p_out.push(chi1.sf(z * z));
    }
    Ok(ScoreScanResult {
        u: u_out,
        v: v_out,
        z: z_out,
        p: p_out,
        n_degenerate,
    })
}

/// Plaintext (pooled) logistic score scan.
pub fn logistic_score_scan(data: &PartyData) -> Result<ScoreScanResult, CoreError> {
    let null = fit_null_logistic(data.y(), data.c())?;
    let s = score_summands(data.y(), data.x(), data.c(), &null.beta);
    finalize_scores(&s.xr, &s.xwx, &s.xwc, &s.ctwc)
}

/// Secure multi-party logistic score scan.
///
/// Communication: one O(K²) masked sum per IRLS iteration (the iteration
/// count is data-dependent but identical at every party, since the stop
/// rule reads only aggregates), plus one O(M·K) masked sum for the score
/// layer. Disclosed: the aggregate IRLS statistics per iteration and the
/// aggregate score summands — never per-party values. Any aggregation
/// but [`AggregationMode::MaskedPrg`] is refused with
/// [`CoreError::BadConfig`].
///
/// [`AggregationMode::MaskedPrg`]: crate::secure::AggregationMode::MaskedPrg
pub fn secure_logistic_scan(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
) -> Result<(ScoreScanResult, NetworkReport), CoreError> {
    cfg.require_masked_prg()?;
    let (_n, m, k) = validate_parties(parties)?;
    for p in parties {
        validate_binary(p.y())?;
    }
    let codec = cfg.ring_codec()?;

    let (results, stats, _audit) =
        run_in_process(parties, cfg.seed, &cfg.net_options(), |ctx, data| {
            party_logistic(ctx, data, m, k, &codec)
        })?;
    let first = results.into_iter().next().ok_or(CoreError::NoParties)?;
    Ok((first, NetworkReport::from_stats(&stats)))
}

fn party_logistic(
    ctx: &mut PartyCtx,
    data: &PartyData,
    m: usize,
    k: usize,
    codec: &dash_mpc::FixedPointCodec,
) -> Result<ScoreScanResult, CoreError> {
    // Pooled N (reported in the audit log; also sanity-checks liveness).
    let _n_total =
        masked_sum_ring(ctx, &[R64(data.n_samples() as u64)], "total sample count N")?[0].0;

    // Null-model IRLS on aggregates.
    let mut beta = vec![0.0; k];
    let mut iterations = 0;
    if k > 0 {
        loop {
            iterations += 1;
            let (ctwc_k, score_k) = irls_summands(data.y(), data.c(), &beta);
            let mut payload = ctwc_k.as_slice().to_vec();
            payload.extend_from_slice(&score_k);
            let total = masked_sum_f64(ctx, codec, &payload, "IRLS aggregates CᵀWC, Cᵀ(y−μ)")?;
            let ctwc = Matrix::from_column_major(k, k, total[..k * k].to_vec())?;
            let score = &total[k * k..];
            let step = newton_step(&ctwc, score)?;
            let max_step = step.iter().fold(0.0f64, |a, &s| a.max(s.abs()));
            for (b, s) in beta.iter_mut().zip(&step) {
                *b += s;
            }
            if max_step < IRLS_TOL {
                break;
            }
            if iterations >= MAX_IRLS_ITER {
                return Err(CoreError::Stats(StatsError::NoConvergence {
                    what: "secure logistic IRLS",
                    value: MAX_IRLS_ITER as f64,
                }));
            }
        }
    }

    // Score layer: one masked sum of [Xᵀ(y−μ), diag(XᵀWX), XᵀWC, CᵀWC].
    let s = score_summands(data.y(), data.x(), data.c(), &beta);
    let mut payload = Vec::with_capacity(2 * m + k * m + k * k);
    payload.extend_from_slice(&s.xr);
    payload.extend_from_slice(&s.xwx);
    payload.extend_from_slice(s.xwc.as_slice());
    payload.extend_from_slice(s.ctwc.as_slice());
    let total = masked_sum_f64(
        ctx,
        codec,
        &payload,
        "aggregate score statistics Xᵀ(y−μ), diag(XᵀWX), XᵀWC, CᵀWC",
    )?;
    let xr = &total[..m];
    let xwx = &total[m..2 * m];
    let xwc = Matrix::from_column_major(k, m, total[2 * m..2 * m + k * m].to_vec())?;
    let ctwc = Matrix::from_column_major(k, k, total[2 * m + k * m..].to_vec())?;
    finalize_scores(xr, xwx, &xwc, &ctwc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pool_parties;
    use crate::secure::AggregationMode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Binary-response dataset: logit(μ) = γ·C₀ + planted variant
    /// effects; C includes an intercept column.
    fn gen_binary(n: usize, m: usize, effects: &[(usize, f64)], seed: u64) -> PartyData {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, m, |_, _| {
            // Standardized-ish genotype stand-in.
            rng.gen_range(-1.0f64..1.0)
        });
        let cov: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let ones = vec![1.0; n];
        let c = Matrix::from_cols(&[&ones, &cov]).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let mut eta = -0.2 + 0.5 * cov[i];
                for &(j, b) in effects {
                    eta += b * x.get(i, j);
                }
                (rng.gen::<f64>() < sigmoid(eta)) as u64 as f64
            })
            .collect();
        PartyData::new(y, x, c).unwrap()
    }

    #[test]
    fn non_binary_response_rejected() {
        let data = gen_binary(20, 2, &[], 1);
        let y_bad: Vec<f64> = data.y().iter().map(|v| v + 0.5).collect();
        let bad = PartyData::new(y_bad, data.x().clone(), data.c().clone()).unwrap();
        assert!(matches!(
            logistic_score_scan(&bad),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn null_fit_matches_prevalence_for_intercept_only() {
        // Intercept-only model: μ̂ = case fraction, β = logit(μ̂).
        let data = gen_binary(400, 1, &[], 2);
        let ones = Matrix::from_cols(&[&vec![1.0; 400]]).unwrap();
        let null = fit_null_logistic(data.y(), &ones).unwrap();
        let prev: f64 = data.y().iter().sum::<f64>() / 400.0;
        let expect = (prev / (1.0 - prev)).ln();
        assert!(
            (null.beta[0] - expect).abs() < 1e-8,
            "{} vs {expect}",
            null.beta[0]
        );
        assert!(null.iterations >= 2);
    }

    #[test]
    fn calibrated_under_null() {
        let data = gen_binary(500, 200, &[], 3);
        let res = logistic_score_scan(&data).unwrap();
        let frac = res.hits(0.05).len() as f64 / 200.0;
        assert!((0.0..0.12).contains(&frac), "5% bucket: {frac}");
        let lambda = dash_gwas_lambda(&res.p);
        assert!((0.75..1.25).contains(&lambda), "lambda {lambda}");
    }

    /// Local copy of lambda_GC to avoid a dev-dependency cycle with
    /// dash-gwas.
    fn dash_gwas_lambda(p: &[f64]) -> f64 {
        let chi = ChiSquared::new(1.0).unwrap();
        let mut stats: Vec<f64> = p
            .iter()
            .filter(|v| v.is_finite() && **v > 0.0)
            .map(|&v| chi.quantile(1.0 - v).unwrap())
            .collect();
        stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        stats[stats.len() / 2] / chi.quantile(0.5).unwrap()
    }

    #[test]
    fn planted_effect_detected_with_correct_sign() {
        let data = gen_binary(800, 10, &[(4, 0.9)], 4);
        let res = logistic_score_scan(&data).unwrap();
        assert!(res.p[4] < 1e-6, "p[4] = {}", res.p[4]);
        assert!(res.z[4] > 0.0, "sign should match the planted +0.9");
        let best = res
            .p
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 4);
    }

    #[test]
    fn degenerate_variant_flagged() {
        let data = gen_binary(60, 2, &[], 5);
        // Replace variant 1 with all zeros.
        let mut x = data.x().clone();
        for v in x.col_mut(1) {
            *v = 0.0;
        }
        let d = PartyData::new(data.y().to_vec(), x, data.c().clone()).unwrap();
        let res = logistic_score_scan(&d).unwrap();
        assert_eq!(res.n_degenerate, 1);
        assert!(res.z[1].is_nan());
        assert!(res.z[0].is_finite());
    }

    #[test]
    fn secure_equals_pooled_plaintext() {
        let pooled_data = gen_binary(300, 12, &[(0, 0.8)], 3);
        // Split into three parties.
        let cuts = [0usize, 90, 200, 300];
        let parties: Vec<PartyData> = cuts
            .windows(2)
            .map(|w| {
                PartyData::new(
                    pooled_data.y()[w[0]..w[1]].to_vec(),
                    pooled_data.x().row_block(w[0], w[1]),
                    pooled_data.c().row_block(w[0], w[1]),
                )
                .unwrap()
            })
            .collect();
        let reference = logistic_score_scan(&pool_parties(&parties).unwrap()).unwrap();
        let (secure, report) =
            secure_logistic_scan(&parties, &SecureScanConfig::paper_default(6)).unwrap();
        let d = secure.max_rel_diff(&reference).unwrap();
        assert!(d < 1e-6, "secure vs plaintext z diff: {d}");
        assert!(report.total_bytes > 0);
        // The planted hit survives end to end.
        assert!(secure.p[0] < 1e-4);
    }

    #[test]
    fn secure_logistic_refuses_an_aggregation_it_does_not_run() {
        let pooled = gen_binary(80, 4, &[], 8);
        let parties: Vec<PartyData> = [(0, 30), (30, 80)]
            .iter()
            .map(|&(lo, hi)| {
                let y = pooled.y()[lo..hi].to_vec();
                let (x, c) = (pooled.x().row_block(lo, hi), pooled.c().row_block(lo, hi));
                PartyData::new(y, x, c).unwrap()
            })
            .collect();
        let star = SecureScanConfig {
            aggregation: AggregationMode::MaskedStar,
            ..SecureScanConfig::paper_default(8)
        };
        for cfg in [SecureScanConfig::max_security(8), star] {
            assert!(matches!(
                secure_logistic_scan(&parties, &cfg),
                Err(CoreError::BadConfig { .. })
            ));
        }
        assert!(secure_logistic_scan(&parties, &SecureScanConfig::paper_default(8)).is_ok());
    }

    #[test]
    fn secure_communication_independent_of_n() {
        // Duplicating every row doubles all aggregates uniformly, so the
        // IRLS trajectory — and hence the message count — is identical;
        // total bytes must not move at 4x the sample count.
        let base = gen_binary(80, 6, &[], 7);
        let duplicate = |times: usize| -> Vec<PartyData> {
            let n = base.n_samples();
            let mut y = Vec::with_capacity(n * times);
            let mut x = Matrix::zeros(n * times, 6);
            let mut c = Matrix::zeros(n * times, 2);
            for t in 0..times {
                for i in 0..n {
                    y.push(base.y()[i]);
                    for j in 0..6 {
                        x.set(t * n + i, j, base.x().get(i, j));
                    }
                    for j in 0..2 {
                        c.set(t * n + i, j, base.c().get(i, j));
                    }
                }
            }
            let full = PartyData::new(y, x, c).unwrap();
            let half = full.n_samples() / 2;
            vec![
                PartyData::new(
                    full.y()[..half].to_vec(),
                    full.x().row_block(0, half),
                    full.c().row_block(0, half),
                )
                .unwrap(),
                PartyData::new(
                    full.y()[half..].to_vec(),
                    full.x().row_block(half, full.n_samples()),
                    full.c().row_block(half, full.n_samples()),
                )
                .unwrap(),
            ]
        };
        let cfg = SecureScanConfig::paper_default(9);
        let (_r1, rep1) = secure_logistic_scan(&duplicate(1), &cfg).unwrap();
        let (_r2, rep2) = secure_logistic_scan(&duplicate(4), &cfg).unwrap();
        // Fixed-point rounding near the IRLS stop rule may shift the
        // iteration count by one; allow up to two iterations' worth of
        // K-sized messages, but nothing that scales with N (one extra
        // sample would add ≥ 8 bytes·M if traffic leaked rows).
        let per_iteration = 2 * (12 + 8 * (2 * 2 + 2)) as u64; // 2 msgs of k²+k f64s
        let diff = rep1.total_bytes.abs_diff(rep2.total_bytes);
        assert!(
            diff <= 2 * per_iteration,
            "traffic grew with N: {} vs {} (diff {diff})",
            rep1.total_bytes,
            rep2.total_bytes
        );
    }

    #[test]
    fn score_and_wald_agree_on_moderate_signal() {
        // The score z and a full-fit Wald z are asymptotically equivalent;
        // check rank agreement on a moderate effect.
        let data = gen_binary(600, 5, &[(2, 0.5)], 10);
        let res = logistic_score_scan(&data).unwrap();
        // Full logistic fit for variant 2 via IRLS on [X_2 | C].
        let cols: Vec<&[f64]> = vec![data.x().col(2), data.c().col(0), data.c().col(1)];
        let design = Matrix::from_cols(&cols).unwrap();
        let full = fit_null_logistic(data.y(), &design).unwrap();
        // Wald z = β̂ / se(β̂) with se from the information matrix.
        let (info, _) = irls_summands(data.y(), &design, &full.beta);
        let u = cholesky_upper(&info).unwrap();
        let inv_col = {
            let mut e0 = vec![0.0; 3];
            e0[0] = 1.0;
            let z = solve_lower(&u.transpose(), &e0).unwrap();
            solve_upper(&u, &z).unwrap()
        };
        let wald_z = full.beta[0] / inv_col[0].sqrt();
        assert!(
            (res.z[2] - wald_z).abs() < 0.15 * (1.0 + wald_z.abs()),
            "score {} vs wald {wald_z}",
            res.z[2]
        );
    }
}
