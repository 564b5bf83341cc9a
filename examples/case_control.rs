//! Secure case/control GWAS: logistic score tests across parties.
//!
//! Two hospitals hold disease status (0/1) plus genotypes. The logistic
//! null model is fitted jointly by IRLS over K-sized secure sums, then
//! every variant gets a score test from one O(M·K) secure sum — binary
//! traits at the same communication footprint as the linear scan.
//!
//! Run with: `cargo run --release --example case_control`

use dash_core::logistic::{logistic_score_scan, secure_logistic_scan};
use dash_core::model::{pool_parties, PartyData};
use dash_core::secure::SecureScanConfig;
use dash_gwas::genotype::simulate_genotypes;
use dash_gwas::standardize::impute_and_standardize;
use dash_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1717);
    let m = 500;
    let causal = 250usize;
    let odds = 0.45; // log-odds per genotype SD at the causal variant

    let mut hospitals = Vec::new();
    for &n in &[700usize, 900] {
        let g = simulate_genotypes(n, m, &Default::default(), &mut rng).unwrap();
        let x = impute_and_standardize(&g);
        let age: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let ones = vec![1.0; n];
        let c = Matrix::from_cols(&[&ones, &age]).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let eta = -0.5 + 0.4 * age[i] + odds * x.get(i, causal);
                (rng.gen::<f64>() < sigmoid(eta)) as u64 as f64
            })
            .collect();
        hospitals.push(PartyData::new(y, x, c).unwrap());
    }
    let cases: f64 = hospitals.iter().flat_map(|h| h.y()).sum();
    let total: usize = hospitals.iter().map(|h| h.n_samples()).sum();
    println!("two hospitals, {total} samples ({cases:.0} cases), M = {m} variants\n");

    let (secure, report) =
        secure_logistic_scan(&hospitals, &SecureScanConfig::paper_default(1717)).unwrap();
    println!(
        "secure logistic scan: {} bytes total ({} msgs)",
        report.total_bytes, report.total_messages
    );

    // Matches the pooled plaintext score scan.
    let reference = logistic_score_scan(&pool_parties(&hospitals).unwrap()).unwrap();
    let d = secure.max_rel_diff(&reference).unwrap();
    println!("max rel z diff vs pooled plaintext: {d:.2e}");
    assert!(d < 1e-6);

    // The planted variant tops the scan.
    let best = secure
        .p
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    println!(
        "\ntop hit: variant {best} (z = {:+.2}, p = {:.2e}){}",
        secure.z[best],
        secure.p[best],
        if best == causal { "   <- planted" } else { "" }
    );
    assert_eq!(best, causal);
    assert!(secure.p[causal] < 1e-6);
    assert!(secure.z[causal] > 0.0);
    println!("\nOK: binary-trait GWAS across hospitals without pooling records.");
}
