//! Secure multi-party PCA of the variant covariance — the companion
//! piece the paper's preface calls out.
//!
//! The preface motivates DASH with secure GWAS, noting that principal
//! components are needed as covariates "to control for confounding by
//! ancestry" and citing secure-PCA work. This module closes that loop
//! inside DASH's own toolbox: distributed **subspace iteration** on the
//! M×M variant covariance `Σ = Σ_k X_kᵀX_k`, using the same secure-sum
//! protocol as the scan. Per iteration each party computes
//! `S_k = X_kᵀ(X_k V)` locally — O(N_k·M·R) flops — and only the M×R
//! aggregate `ΣV` is opened; communication is O(M·R) per iteration,
//! independent of N, matching the scan's communication discipline.
//!
//! Outputs: the shared variant **loadings** (aggregate-level, public by
//! design — they play the role of the paper's shared Q), the
//! eigenvalues, and each party's **private PC scores** `X_k·V`, ready to
//! be appended to that party's covariates `C_k` for a
//! structure-corrected scan. No party's rows or per-party Gram ever
//! open.

use crate::error::CoreError;
use crate::model::{validate_parties, PartyData};
use crate::secure::{run_in_process, NetworkReport, SecureScanConfig};
use dash_linalg::{gemm_at_b, ops::gemm, qr_thin, symmetric_eigen, Matrix};
use dash_mpc::net::NetOptions;
use dash_mpc::prg::Prg;
use dash_mpc::protocol::masked::masked_sum_f64;
use dash_mpc::PartyCtx;

/// Configuration of a secure PCA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcaConfig {
    /// Number of leading components R.
    pub components: usize,
    /// Subspace iterations (each costs one secure sum of M·R values).
    /// 15–30 is ample when the leading eigengaps are real (ancestry).
    pub iterations: usize,
    /// Fractional bits for the secure sums.
    pub ring_frac_bits: u32,
    /// Center variant columns to their *global* means first (the means
    /// are obtained by one extra secure sum and are aggregate-level).
    /// PCA on uncentered data mostly recovers the mean direction; leave
    /// this on unless the inputs are already globally centered.
    pub center_columns: bool,
    /// Master seed: drives the shared random start and all protocol
    /// randomness.
    pub seed: u64,
}

impl Default for PcaConfig {
    fn default() -> Self {
        PcaConfig {
            components: 4,
            iterations: 20,
            ring_frac_bits: 28,
            center_columns: true,
            seed: 0x9CA0,
        }
    }
}

/// Result of a secure PCA run.
#[derive(Debug, Clone)]
pub struct SecurePcaOutput {
    /// M×R variant loadings with orthonormal columns (sign-fixed:
    /// largest-magnitude entry of each column is positive).
    pub loadings: Matrix,
    /// Eigenvalues of `Σ_k X_kᵀX_k` for the retained components,
    /// descending.
    pub eigenvalues: Vec<f64>,
    /// Each party's private PC scores `X_k · loadings` (N_k×R), in party
    /// order — these never crossed the network.
    pub scores: Vec<Matrix>,
    /// Communication accounting.
    pub network: NetworkReport,
}

/// Runs secure distributed PCA over the parties' variant matrices.
pub fn secure_pca(parties: &[PartyData], cfg: &PcaConfig) -> Result<SecurePcaOutput, CoreError> {
    let (_n, m, _k) = validate_parties(parties)?;
    if cfg.components == 0 || cfg.components > m {
        return Err(CoreError::BadConfig {
            what: "components must be in 1..=M",
        });
    }
    if cfg.iterations == 0 {
        return Err(CoreError::BadConfig {
            what: "iterations must be >= 1",
        });
    }
    let scan_cfg = SecureScanConfig {
        ring_frac_bits: cfg.ring_frac_bits,
        seed: cfg.seed,
        ..SecureScanConfig::default()
    };
    let codec = scan_cfg.ring_codec()?;
    let r = cfg.components;

    // `PcaConfig` carries no transport settings, so the run uses the
    // default deadline and retry policy with no fault plan.
    let (results, stats, _audit) =
        run_in_process(parties, cfg.seed, &NetOptions::default(), |ctx, data| {
            party_pca(ctx, data.x(), m, r, cfg, &codec)
        })?;
    let mut iter = results.into_iter();
    let (loadings, eigenvalues, score0) = iter.next().ok_or(CoreError::NoParties)?;
    let mut scores = vec![score0];
    for (l, _e, s) in iter {
        debug_assert!(l.max_abs_diff(&loadings).unwrap_or(f64::INFINITY) < 1e-9);
        scores.push(s);
    }
    Ok(SecurePcaOutput {
        loadings,
        eigenvalues,
        scores,
        network: NetworkReport::from_stats(&stats),
    })
}

/// One party's view of the subspace iteration.
fn party_pca(
    ctx: &mut PartyCtx,
    x: &Matrix,
    m: usize,
    r: usize,
    cfg: &PcaConfig,
    codec: &dash_mpc::FixedPointCodec,
) -> Result<(Matrix, Vec<f64>, Matrix), CoreError> {
    // Optional global centering: one secure sum opens [N, column sums]
    // (aggregates), from which every party centers its own rows.
    let x_centered;
    let x: &Matrix = if cfg.center_columns {
        let mut payload = Vec::with_capacity(1 + m);
        payload.push(x.rows() as f64);
        for j in 0..m {
            payload.push(x.col(j).iter().sum());
        }
        let total = masked_sum_f64(ctx, codec, &payload, "PCA global column means")?;
        let n_total = total[0].max(1.0);
        let mut xc = x.clone();
        for j in 0..m {
            let mean = total[1 + j] / n_total;
            for v in xc.col_mut(j) {
                *v -= mean;
            }
        }
        x_centered = xc;
        &x_centered
    } else {
        x
    };

    // Shared random start: every party derives the same M×R block and
    // orthonormalizes it identically.
    let mut prg = Prg::from_seed(Prg::derive_seed(cfg.seed, 0x9CA0));
    let start = Matrix::from_fn(m, r, |_, _| prg.next_f64() * 2.0 - 1.0);
    let mut v = qr_thin(&start)?.q;

    for _ in 0..cfg.iterations {
        // Local: S_k = X_kᵀ (X_k V); aggregate: Σ V.
        let t = gemm(x, &v)?; // N_k × R
        let s = gemm_at_b(x, &t)?; // M × R
        let total = masked_sum_f64(ctx, codec, s.as_slice(), "PCA iterate Σ·V")?;
        let w = Matrix::from_column_major(m, r, total)?;
        v = qr_thin(&w)?.q;
    }
    // Rayleigh quotients: diag(Vᵀ Σ V), via one more secure sum of the
    // R×R projected Gram.
    let t = gemm(x, &v)?;
    let proj = gemm_at_b(&t, &t)?; // R×R party summand of VᵀΣV
    let total = masked_sum_f64(ctx, codec, proj.as_slice(), "PCA projected covariance VᵀΣV")?;
    let proj_total = Matrix::from_column_major(r, r, total)?;
    // Rotate V into the eigenbasis of the projected covariance so the
    // columns are individual eigenvector estimates in descending order.
    let eig = symmetric_eigen(&proj_total)?;
    let mut v = gemm(&v, &eig.vectors)?;
    let eigenvalues = eig.values;
    fix_signs(&mut v);
    let scores = gemm(x, &v)?;
    Ok((v, eigenvalues, scores))
}

/// Deterministic sign convention: the largest-|entry| of each column is
/// made positive (eigenvectors are only defined up to sign).
fn fix_signs(v: &mut Matrix) {
    for j in 0..v.cols() {
        let col = v.col_mut(j);
        let mut best = 0usize;
        for (i, val) in col.iter().enumerate() {
            if val.abs() > col[best].abs() {
                best = i;
            }
        }
        if col[best] < 0.0 {
            for val in col.iter_mut() {
                *val = -*val;
            }
        }
    }
}

/// Plaintext reference: top-R eigenpairs of the pooled, column-centered
/// variant covariance `XᵀX` by dense symmetric eigendecomposition
/// (O(M³) — for tests and small M only). Centering matches
/// [`PcaConfig::center_columns`]'s default.
pub fn plaintext_pca(x: &Matrix, r: usize) -> Result<(Matrix, Vec<f64>), CoreError> {
    if r == 0 || r > x.cols() {
        return Err(CoreError::BadConfig {
            what: "components must be in 1..=M",
        });
    }
    let mut xc = x.clone();
    dash_linalg::center_columns(&mut xc);
    let gram = gemm_at_b(&xc, &xc)?;
    let eig = symmetric_eigen(&gram)?;
    let mut loadings = Matrix::zeros(x.cols(), r);
    for j in 0..r {
        loadings.col_mut(j).copy_from_slice(eig.vectors.col(j));
    }
    fix_signs(&mut loadings);
    Ok((loadings, eig.values[..r].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_linalg::self_dot;

    /// Parties with a strong planted 1-D variant-space structure plus
    /// noise, so the top eigengap is unambiguous.
    fn structured_parties(sizes: &[usize], m: usize, seed: u64) -> Vec<PartyData> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        // Shared direction in variant space.
        let dir: Vec<f64> = (0..m).map(|j| ((j as f64) * 0.7).sin()).collect();
        sizes
            .iter()
            .map(|&n| {
                let x = Matrix::from_fn(n, m, |i, j| {
                    let _ = i;
                    next() + 3.0 * next().signum() * dir[j] * 0.0 // placeholder replaced below
                });
                // Build rows = alpha_i * dir + noise.
                let x = {
                    let mut xm = x;
                    for i in 0..n {
                        let alpha = 4.0 * next();
                        for (j, &dj) in dir.iter().enumerate().take(m) {
                            let v = xm.get(i, j) * 0.5 + alpha * dj;
                            xm.set(i, j, v);
                        }
                    }
                    xm
                };
                let y: Vec<f64> = (0..n).map(|_| next()).collect();
                let c = Matrix::from_fn(n, 1, |_, _| next());
                PartyData::new(y, x, c).unwrap()
            })
            .collect()
    }

    #[test]
    fn secure_pca_matches_plaintext_eigen() {
        let parties = structured_parties(&[30, 40], 24, 1);
        let pooled = crate::model::pool_parties(&parties).unwrap();
        let (ref_loadings, ref_vals) = plaintext_pca(pooled.x(), 3).unwrap();
        let cfg = PcaConfig {
            components: 3,
            iterations: 40,
            seed: 1,
            ..Default::default()
        };
        let out = secure_pca(&parties, &cfg).unwrap();
        // Eigenvalues agree.
        for (a, b) in out.eigenvalues.iter().zip(&ref_vals) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Leading loading vector aligns (|cos| ≈ 1 with matched signs).
        let dot: f64 = out
            .loadings
            .col(0)
            .iter()
            .zip(ref_loadings.col(0))
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot > 0.999, "leading component alignment {dot}");
    }

    #[test]
    fn loadings_orthonormal_and_values_descending() {
        let parties = structured_parties(&[25, 25, 25], 16, 2);
        let cfg = PcaConfig {
            components: 4,
            iterations: 25,
            seed: 2,
            ..Default::default()
        };
        let out = secure_pca(&parties, &cfg).unwrap();
        let vtv = gemm_at_b(&out.loadings, &out.loadings).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(4)).unwrap() < 1e-8);
        for w in out.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }

    #[test]
    fn scores_are_local_projections() {
        let parties = structured_parties(&[20, 30], 12, 3);
        let cfg = PcaConfig {
            components: 2,
            iterations: 20,
            seed: 3,
            // Uncentered so scores are plain projections of the raw X.
            center_columns: false,
            ..Default::default()
        };
        let out = secure_pca(&parties, &cfg).unwrap();
        for (p, score) in parties.iter().zip(&out.scores) {
            let expect = gemm(p.x(), &out.loadings).unwrap();
            assert!(score.max_abs_diff(&expect).unwrap() < 1e-9);
            assert_eq!(score.shape(), (p.n_samples(), 2));
        }
    }

    #[test]
    fn communication_independent_of_n() {
        let cfg = PcaConfig {
            components: 2,
            iterations: 5,
            seed: 4,
            ..Default::default()
        };
        let small = structured_parties(&[10, 10], 16, 4);
        let large = structured_parties(&[80, 80], 16, 5);
        let b1 = secure_pca(&small, &cfg).unwrap().network.total_bytes;
        let b2 = secure_pca(&large, &cfg).unwrap().network.total_bytes;
        assert_eq!(b1, b2);
    }

    #[test]
    fn variance_explained_dominates_with_planted_structure() {
        let parties = structured_parties(&[60, 60], 20, 6);
        let cfg = PcaConfig {
            components: 3,
            iterations: 30,
            seed: 6,
            ..Default::default()
        };
        let out = secure_pca(&parties, &cfg).unwrap();
        // The planted direction carries far more variance than the rest.
        assert!(
            out.eigenvalues[0] > 3.0 * out.eigenvalues[1],
            "eigengap too small: {:?}",
            &out.eigenvalues
        );
        // Scores along PC1 have much larger norm than along PC2.
        let s = &out.scores[0];
        let n1 = self_dot(s.col(0));
        let n2 = self_dot(s.col(1));
        assert!(n1 > 3.0 * n2);
    }

    #[test]
    fn config_validation() {
        let parties = structured_parties(&[10, 10], 8, 7);
        let bad = PcaConfig {
            components: 0,
            ..Default::default()
        };
        assert!(secure_pca(&parties, &bad).is_err());
        let bad = PcaConfig {
            components: 9,
            ..Default::default()
        };
        assert!(secure_pca(&parties, &bad).is_err());
        let bad = PcaConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(secure_pca(&parties, &bad).is_err());
        assert!(plaintext_pca(&Matrix::zeros(4, 3), 0).is_err());
        assert!(plaintext_pca(&Matrix::zeros(4, 3), 4).is_err());
    }
}
