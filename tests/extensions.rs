//! Integration tests for the beyond-the-paper extensions: secure PCA,
//! permutation testing, logistic case/control scans, joint F-blocks and
//! the star aggregation topology — exercised across crate boundaries on
//! simulated GWAS workloads.

use dash_core::block::{block_scan, TransientBlock};
use dash_core::logistic::{logistic_score_scan, secure_logistic_scan};
use dash_core::model::{pool_parties, PartyData};
use dash_core::pca::{plaintext_pca, secure_pca, PcaConfig};
use dash_core::permutation::permutation_scan;
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, AggregationMode, SecureScanConfig};
use dash_gwas::genotype::simulate_genotypes;
use dash_gwas::standardize::impute_and_standardize;
use dash_gwas::structure::{simulate_admixed_cohorts, AdmixedSimConfig};
use dash_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn secure_pca_then_secure_scan_pipeline() {
    let cfg = AdmixedSimConfig {
        party_sizes: vec![300, 300],
        n_variants: 250,
        party_alpha_ranges: vec![(0.0, 0.9), (0.1, 1.0)],
        divergence: 0.35,
        ancestry_effect: 1.5,
        n_causal: 0,
        heritability: 0.0,
        k_covariates: 0,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let sim = simulate_admixed_cohorts(&cfg, &mut rng).unwrap();

    let pca = secure_pca(
        &sim.parties,
        &PcaConfig {
            components: 2,
            iterations: 20,
            seed: 5,
        },
    )
    .unwrap();
    // Loadings agree with the pooled plaintext eigendecomposition.
    let pooled = pool_parties(&sim.parties).unwrap();
    let (ref_loadings, _) = plaintext_pca(pooled.x(), 2).unwrap();
    let cos: f64 = pca
        .loadings
        .col(0)
        .iter()
        .zip(ref_loadings.col(0))
        .map(|(a, b)| a * b)
        .sum();
    assert!(cos.abs() > 0.999, "PC1 alignment {cos}");

    // Scores de-confound the scan.
    let corrected: Vec<PartyData> = sim
        .parties
        .iter()
        .zip(&pca.scores)
        .map(|(pd, sc)| {
            let ones = vec![1.0; pd.n_samples()];
            let c = Matrix::from_cols(&[&ones, sc.col(0), sc.col(1)]).unwrap();
            PartyData::new(pd.y().to_vec(), pd.x().clone(), c).unwrap()
        })
        .collect();
    let out = secure_scan(&corrected, &SecureScanConfig::paper_default(5)).unwrap();
    let lambda = dash_gwas::power::lambda_gc(&out.result.p);
    // Baseline for comparison: intercept-only scan on the same data.
    let naive_parties: Vec<PartyData> = sim
        .parties
        .iter()
        .map(|pd| {
            let ones = vec![1.0; pd.n_samples()];
            let c = Matrix::from_cols(&[&ones]).unwrap();
            PartyData::new(pd.y().to_vec(), pd.x().clone(), c).unwrap()
        })
        .collect();
    let naive = associate(&pool_parties(&naive_parties).unwrap()).unwrap();
    let lambda_naive = dash_gwas::power::lambda_gc(&naive.p);
    // The PC estimate carries sampling noise at moderate M, so demand a large
    // improvement over the confounded baseline rather than perfection.
    assert!(
        lambda_naive > 2.0,
        "construction should confound: {lambda_naive}"
    );
    assert!(
        lambda < 0.5 * lambda_naive && lambda < 1.6,
        "lambda {lambda} (naive {lambda_naive})"
    );
}

#[test]
fn permutation_confirms_parametric_hit_on_genotypes() {
    let mut rng = StdRng::seed_from_u64(6);
    let n = 300;
    let g = simulate_genotypes(n, 40, &Default::default(), &mut rng).unwrap();
    let x = impute_and_standardize(&g);
    let y: Vec<f64> = (0..n)
        .map(|i| 0.6 * x.get(i, 13) + dash_gwas::pheno::sample_standard_normal(&mut rng))
        .collect();
    let c = Matrix::from_cols(&[&vec![1.0; n]]).unwrap();
    let data = PartyData::new(y, x, c).unwrap();
    let res = permutation_scan(&data, 199, &mut rng).unwrap();
    // Parametric and empirical agree on the hit.
    assert!(res.observed.p[13] < 1e-8);
    assert!(res.maxt_p[13] < 0.01, "adjusted p {}", res.maxt_p[13]);
    // And on the nulls: no other variant survives.
    for j in (0..40).filter(|&j| j != 13) {
        assert!(res.maxt_p[j] > 0.05, "variant {j} false positive");
    }
}

#[test]
fn secure_logistic_on_simulated_genotypes() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut parties = Vec::new();
    for &n in &[220usize, 280] {
        let g = simulate_genotypes(n, 60, &Default::default(), &mut rng).unwrap();
        let x = impute_and_standardize(&g);
        let ones = vec![1.0; n];
        let c = Matrix::from_cols(&[&ones]).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let eta = -0.2 + 0.8 * x.get(i, 30);
                (rng.gen::<f64>() < 1.0 / (1.0 + (-eta as f64).exp())) as u64 as f64
            })
            .collect();
        parties.push(PartyData::new(y, x, c).unwrap());
    }
    let reference = logistic_score_scan(&pool_parties(&parties).unwrap()).unwrap();
    let (secure, _rep) =
        secure_logistic_scan(&parties, &SecureScanConfig::paper_default(7)).unwrap();
    assert!(secure.max_rel_diff(&reference).unwrap() < 1e-6);
    assert!(secure.p[30] < 1e-4, "p[30] = {}", secure.p[30]);
}

#[test]
fn block_f_test_beats_scalar_scan_on_split_signal() {
    // Signal split across 3 variants of one block.
    let mut rng = StdRng::seed_from_u64(8);
    let n = 400;
    let g = simulate_genotypes(n, 30, &Default::default(), &mut rng).unwrap();
    let x = impute_and_standardize(&g);
    let y: Vec<f64> = (0..n)
        .map(|i| {
            0.2 * (x.get(i, 0) + x.get(i, 1) + x.get(i, 2))
                + dash_gwas::pheno::sample_standard_normal(&mut rng)
        })
        .collect();
    let c = Matrix::from_cols(&[&vec![1.0; n]]).unwrap();
    let data = PartyData::new(y, x, c).unwrap();
    let blocks = vec![
        TransientBlock::new("signal", vec![0, 1, 2]),
        TransientBlock::new("null", vec![10, 11, 12]),
    ];
    let joint = block_scan(&data, &blocks).unwrap();
    assert!(joint[0].p < 1e-6, "signal block p {}", joint[0].p);
    assert!(joint[1].p > 1e-3, "null block p {}", joint[1].p);
    // The joint block test is more significant than the best scalar test
    // within the block (signal is split).
    let scalar = associate(&data).unwrap();
    let best_scalar = scalar.p[..3].iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        joint[0].p < best_scalar,
        "joint {} vs best scalar {best_scalar}",
        joint[0].p
    );
}

#[test]
fn star_topology_matches_all_to_all_on_real_workload() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut parties = Vec::new();
    for &n in &[60usize, 80, 70, 90] {
        let g = simulate_genotypes(n, 50, &Default::default(), &mut rng).unwrap();
        let x = impute_and_standardize(&g);
        let y = dash_gwas::pheno::normal_vec(n, &mut rng);
        let c = dash_gwas::pheno::normal_matrix(n, 2, &mut rng);
        parties.push(PartyData::new(y, x, c).unwrap());
    }
    let full = secure_scan(
        &parties,
        &SecureScanConfig {
            aggregation: AggregationMode::MaskedPrg,
            seed: 9,
            ..SecureScanConfig::default()
        },
    )
    .unwrap();
    let star = secure_scan(
        &parties,
        &SecureScanConfig {
            aggregation: AggregationMode::MaskedStar,
            seed: 9,
            ..SecureScanConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        star.result.beta, full.result.beta,
        "topology must not change results"
    );
    assert!(star.network.total_bytes < full.network.total_bytes);
    // P = 4: all-to-all ships P(P−1) copies, star ships 2(P−1).
    let ratio = full.network.total_bytes as f64 / star.network.total_bytes as f64;
    assert!((1.8..2.3).contains(&ratio), "ratio {ratio}");
}
