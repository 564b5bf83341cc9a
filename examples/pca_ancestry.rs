//! Secure PCA → ancestry covariates → secure scan: the preface's full
//! pipeline in one program.
//!
//! Two admixed cohorts share no rows, yet jointly (1) estimate the top
//! principal components of their combined genotype covariance, (2) keep
//! each sample's PC *scores* private, and (3) run the association scan
//! with those scores as covariates — eliminating ancestry confounding
//! that per-party intercepts cannot touch.
//!
//! Run with: `cargo run --release --example pca_ancestry`

use dash_core::model::{pool_parties, PartyData};
use dash_core::pca::{secure_pca, PcaConfig};
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, SecureScanConfig};
use dash_gwas::power::lambda_gc;
use dash_gwas::structure::{simulate_admixed_cohorts, AdmixedSimConfig};
use dash_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Null phenotype driven only by ancestry: any "hit" is a false
    // positive.
    let cfg = AdmixedSimConfig {
        party_sizes: vec![600, 600],
        n_variants: 300,
        party_alpha_ranges: vec![(0.0, 0.9), (0.1, 1.0)],
        divergence: 0.3,
        ancestry_effect: 1.2,
        n_causal: 0,
        heritability: 0.0,
        k_covariates: 0,
    };
    let mut rng = StdRng::seed_from_u64(404);
    let sim = simulate_admixed_cohorts(&cfg, &mut rng).unwrap();

    // Step 1: secure PCA (2 components, ~20 rounds of O(M·R) traffic).
    let pca = secure_pca(
        &sim.parties,
        &PcaConfig {
            components: 2,
            iterations: 20,
            seed: 404,
        },
    )
    .unwrap();
    println!(
        "secure PCA: eigenvalues {:.0} / {:.0}, traffic {} bytes",
        pca.eigenvalues[0], pca.eigenvalues[1], pca.network.total_bytes
    );

    // Step 2: each party privately appends [intercept | its own scores].
    let with_pcs: Vec<PartyData> = sim
        .parties
        .iter()
        .zip(&pca.scores)
        .map(|(pd, scores)| {
            let n = pd.n_samples();
            let ones = vec![1.0; n];
            let c = Matrix::from_cols(&[&ones, scores.col(0), scores.col(1)]).unwrap();
            PartyData::new(pd.y().to_vec(), pd.x().clone(), c).unwrap()
        })
        .collect();
    // Baseline: intercept only.
    let intercept_only: Vec<PartyData> = sim
        .parties
        .iter()
        .map(|pd| {
            let ones = vec![1.0; pd.n_samples()];
            let c = Matrix::from_cols(&[&ones]).unwrap();
            PartyData::new(pd.y().to_vec(), pd.x().clone(), c).unwrap()
        })
        .collect();

    // Step 3: scans.
    let naive = associate(&pool_parties(&intercept_only).unwrap()).unwrap();
    let corrected = secure_scan(&with_pcs, &SecureScanConfig::paper_default(404)).unwrap();

    let l_naive = lambda_gc(&naive.p);
    let l_fixed = lambda_gc(&corrected.result.p);
    println!("lambda_GC without PCs : {l_naive:.2}   (all 300 variants are null!)");
    println!("lambda_GC with    PCs : {l_fixed:.2}");
    println!(
        "false hits at p<1e-4  : {} -> {}",
        naive.hits(1e-4).len(),
        corrected.result.hits(1e-4).len()
    );
    assert!(l_naive > 1.5, "confounding should inflate the naive scan");
    assert!(l_fixed < 1.3, "PCs should restore calibration");
    println!("\nOK: ancestry confounding removed without sharing a single genome or PC score.");
}
