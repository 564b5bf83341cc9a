//! E9 (extension) — secure multi-party PCA for ancestry correction.
//!
//! The paper's preface: secure GWAS needs "principal components analysis
//! securely at scale in order to control for confounding by ancestry",
//! and combines a secure-PCA result with DASH. This experiment closes
//! the loop inside DASH's own toolbox: distributed subspace iteration on
//! the variant covariance using the same masked secure sums, O(M·R) per
//! iteration.
//!
//! Workload: two admixed cohorts with *within-party* ancestry gradients
//! (per-party intercepts cannot fix those) and an ancestry-linked
//! phenotype. Panels:
//!
//! 1. PCA quality: secure loadings vs plaintext eigendecomposition; the
//!    top PC score recovers each sample's true admixture coefficient.
//! 2. Calibration: naive scan (inflated) vs scan with secure-PCA scores
//!    appended to C (calibrated), at unchanged power on planted causals.
//! 3. Cost: bytes per iteration, independence from N.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_bytes, Table};
use dash_core::model::{pool_parties, PartyData};
use dash_core::pca::{plaintext_pca, secure_pca, PcaConfig};
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, SecureScanConfig};
use dash_gwas::power::{evaluate_scan, lambda_gc};
use dash_gwas::structure::{simulate_admixed_cohorts, AdmixedSimConfig};
use dash_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = AdmixedSimConfig {
        party_sizes: vec![500, 500],
        n_variants: 400,
        party_alpha_ranges: vec![(0.0, 0.8), (0.2, 1.0)],
        divergence: 0.3,
        ancestry_effect: 1.5,
        n_causal: 5,
        heritability: 0.2,
        k_covariates: 1,
    };
    let mut rng = StdRng::seed_from_u64(31);
    let sim = simulate_admixed_cohorts(&cfg, &mut rng).unwrap();
    println!(
        "E9: secure PCA — 2 admixed cohorts (500 + 500), M = 400, ancestry effect 1.5, 5 causal variants\n"
    );

    // ---- Panel 1: PCA quality ----
    let pca_cfg = PcaConfig {
        components: 2,
        iterations: 25,
        seed: 31,
    };
    let pca = secure_pca(&sim.parties, &pca_cfg).unwrap();
    let pooled = pool_parties(&sim.parties).unwrap();
    let (ref_loadings, ref_vals) = plaintext_pca(pooled.x(), 2).unwrap();
    let align: f64 = pca
        .loadings
        .col(0)
        .iter()
        .zip(ref_loadings.col(0))
        .map(|(a, b)| a * b)
        .sum();
    println!("PCA quality:");
    println!(
        "  eigenvalues (secure)    : {:.1}, {:.1}",
        pca.eigenvalues[0], pca.eigenvalues[1]
    );
    println!(
        "  eigenvalues (plaintext) : {:.1}, {:.1}",
        ref_vals[0], ref_vals[1]
    );
    println!("  PC1 loading alignment   : |cos| = {:.6}", align.abs());
    // PC1 score vs true admixture coefficient.
    let mut corr_num = 0.0;
    let mut va = 0.0;
    let mut vs = 0.0;
    let (mut sa, mut ss, mut n_tot) = (0.0, 0.0, 0usize);
    for (scores, alphas) in pca.scores.iter().zip(&sim.alphas) {
        for (s, &a) in scores.col(0).iter().zip(alphas) {
            sa += a;
            ss += s;
            n_tot += 1;
        }
    }
    let (ma, ms) = (sa / n_tot as f64, ss / n_tot as f64);
    for (scores, alphas) in pca.scores.iter().zip(&sim.alphas) {
        for (s, &a) in scores.col(0).iter().zip(alphas) {
            corr_num += (a - ma) * (s - ms);
            va += (a - ma) * (a - ma);
            vs += (s - ms) * (s - ms);
        }
    }
    let corr = corr_num / (va * vs).sqrt();
    println!(
        "  corr(PC1 score, true admixture alpha): {:.4}  (sign-free: {:.4})\n",
        corr,
        corr.abs()
    );

    // ---- Panel 2: calibration and power ----
    // Every analysis includes an intercept; they differ only in the
    // ancestry correction.
    println!("Scan calibration (lambda over non-causal variants, alpha = 1e-3):");
    let mut t = Table::new(&["analysis", "lambda_GC", "FPR", "power"]);
    let score_stats = |res: &dash_core::model::ScanResult| {
        let null_ps: Vec<f64> = res
            .p
            .iter()
            .enumerate()
            .filter(|(j, _)| !sim.causal.contains(j))
            .map(|(_, &p)| p)
            .collect();
        let rep = evaluate_scan(&res.p, &sim.causal, 1e-3);
        (lambda_gc(&null_ps), rep.false_positive_rate, rep.power)
    };
    /// Rebuilds a party with covariates = [intercept | base C | extra].
    fn with_covariates(pd: &PartyData, extra: Option<&Matrix>) -> PartyData {
        let n = pd.n_samples();
        let mut cols: Vec<Vec<f64>> = vec![vec![1.0; n]];
        for j in 0..pd.c().cols() {
            cols.push(pd.c().col(j).to_vec());
        }
        if let Some(e) = extra {
            for j in 0..e.cols() {
                cols.push(e.col(j).to_vec());
            }
        }
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        PartyData::new(
            pd.y().to_vec(),
            pd.x().clone(),
            Matrix::from_cols(&refs).unwrap(),
        )
        .unwrap()
    }
    // (a) intercept only: ancestry uncorrected.
    let naive_parties: Vec<PartyData> = sim
        .parties
        .iter()
        .map(|pd| with_covariates(pd, None))
        .collect();
    let naive = associate(&pool_parties(&naive_parties).unwrap()).unwrap();
    let (l, f, p) = score_stats(&naive);
    t.row(vec![
        "intercept only (naive)".into(),
        format!("{l:.2}"),
        format!("{f:.4}"),
        format!("{p:.2}"),
    ]);
    // (b) per-party centering (between-party structure only — cannot
    //     absorb the within-party admixture gradient).
    let centered: Vec<PartyData> = sim
        .parties
        .iter()
        .map(|pd| {
            let mut c = with_covariates(pd, None);
            c.center_all();
            c
        })
        .collect();
    let cent = associate(&pool_parties(&centered).unwrap()).unwrap();
    let (l, f, p) = score_stats(&cent);
    t.row(vec![
        "per-party centering only".into(),
        format!("{l:.2}"),
        format!("{f:.4}"),
        format!("{p:.2}"),
    ]);
    // (c) intercept + secure-PCA scores, analyzed by the secure scan.
    let corrected: Vec<PartyData> = sim
        .parties
        .iter()
        .zip(&pca.scores)
        .map(|(pd, scores)| with_covariates(pd, Some(scores)))
        .collect();
    let secure = secure_scan(&corrected, &SecureScanConfig::paper_default(31)).unwrap();
    let (l, f, p) = score_stats(&secure.result);
    t.row(vec![
        "secure PCA covariates + secure scan".into(),
        format!("{l:.2}"),
        format!("{f:.4}"),
        format!("{p:.2}"),
    ]);
    t.print();

    // ---- Panel 3: cost ----
    println!("\nPCA communication (M = 400, R = 2, 25 iterations + means + Rayleigh):");
    println!("  total bytes : {}", fmt_bytes(pca.network.total_bytes));
    println!(
        "  per iterate : ~{}",
        fmt_bytes(pca.network.total_bytes / (pca_cfg.iterations as u64 + 2))
    );
    let big_n = AdmixedSimConfig {
        party_sizes: vec![1500, 1500],
        ..cfg.clone()
    };
    let mut rng2 = StdRng::seed_from_u64(32);
    let sim_big = simulate_admixed_cohorts(&big_n, &mut rng2).unwrap();
    let pca_big = secure_pca(&sim_big.parties, &pca_cfg).unwrap();
    println!(
        "  at 3x the samples: {} (unchanged — O(M·R) per round, independent of N)",
        fmt_bytes(pca_big.network.total_bytes)
    );
    println!("\nThe secure scan plus secure PCA reproduce, inside one toolbox, the");
    println!("preface's full pipeline: ancestry control without sharing a single genome.");
}
