//! E1 — §4 R demo reproduction.
//!
//! The paper's only end-to-end evaluation: with N = (1000, 2000, 1500),
//! M = 10000, K = 3 standard-normal data, the multi-party scheme must
//! reproduce the pooled per-variant `lm()` fit exactly (`all.equal`
//! returns TRUE). This binary runs:
//!
//! 1. the pooled plaintext scan (Lemma 2.1) vs. per-variant OLS on a
//!    prefix of variants (the R demo checks M0 = 5; we check 50);
//! 2. the secure multi-party scan in every mode combination vs. the
//!    pooled plaintext scan over all M = 10000 variants;
//!
//! and prints the max relative differences — the Rust analogue of
//! `all.equal(df[1:M0,], df2)`.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_sci, Table};
use dash_bench::workloads::r_demo_parties;
use dash_core::model::pool_parties;
use dash_core::scan::{associate, per_variant_ols};
use dash_core::secure::{secure_scan, AggregationMode, RFactorMode, SecureScanConfig};

fn main() {
    let m = 10_000;
    let m0 = 50; // per-variant OLS prefix (R demo uses 5)
    println!("E1: R-demo reproduction — N = (1000, 2000, 1500), M = {m}, K = 3\n");
    let parties = r_demo_parties(m, 0);
    let pooled = pool_parties(&parties).unwrap();
    let fast = associate(&pooled).unwrap();

    // Oracle: per-variant lm() on the first m0 variants.
    let prefix = dash_core::model::PartyData::new(
        pooled.y().to_vec(),
        pooled.x().col_block(0, m0),
        pooled.c().clone(),
    )
    .unwrap();
    let oracle = per_variant_ols(&prefix).unwrap();
    let fast_prefix = associate(&prefix).unwrap();
    let scan_vs_lm = fast_prefix.max_rel_diff(&oracle).unwrap();
    println!(
        "Lemma 2.1 scan vs per-variant OLS (first {m0} variants): max rel diff = {}",
        fmt_sci(scan_vs_lm)
    );
    println!(
        "  -> all.equal analogue: {}\n",
        if scan_vs_lm < 1e-8 { "TRUE" } else { "FALSE" }
    );

    // Secure multi-party scan, full mode matrix.
    let mut table = Table::new(&[
        "R-factor mode",
        "aggregation mode",
        "max rel diff vs pooled",
        "per-party scalars leaked",
        "equal (tol 1e-6)",
    ]);
    for rf in [
        RFactorMode::PublicStack,
        RFactorMode::PairwiseTree,
        RFactorMode::GramAggregate,
    ] {
        for agg in [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ] {
            let cfg = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 0,
                ..SecureScanConfig::default()
            };
            let out = secure_scan(&parties, &cfg).unwrap();
            let diff = out.result.max_rel_diff(&fast).unwrap();
            let leaked: usize = out
                .disclosures
                .iter()
                .filter(|d| d.source_party.is_some())
                .map(|d| d.scalars)
                .sum();
            table.row(vec![
                format!("{rf:?}"),
                format!("{agg:?}"),
                fmt_sci(diff),
                leaked.to_string(),
                if diff < 1e-6 { "TRUE" } else { "FALSE" }.to_string(),
            ]);
        }
    }
    table.print();

    // Show the first rows like the R demo's data frame.
    println!("\nFirst 5 variants (pooled plaintext scan):");
    let mut head = Table::new(&["variant", "beta", "sigma", "tstat", "pval"]);
    for j in 0..5 {
        head.row(vec![
            j.to_string(),
            format!("{:.6}", fast.beta[j]),
            format!("{:.6}", fast.se[j]),
            format!("{:.4}", fast.t[j]),
            fmt_sci(fast.p[j]),
        ]);
    }
    head.print();
    println!("\ndf = {} (N - K - 1 = 4500 - 3 - 1)", fast.df);
}
