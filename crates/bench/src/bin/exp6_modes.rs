//! E6 — the security-mode ladder (footnote 3 + the §3 parenthetical).
//!
//! For every (R-factor mode × aggregation mode) combination, reports what
//! the run *actually disclosed* (from the audit log), what it cost in
//! bytes and simulated network time, and that correctness is unaffected.
//! This is the quantified version of the paper's "for greater security,
//! one could …" remarks.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_bytes, fmt_sci, fmt_seconds, Table};
use dash_bench::workloads::normal_parties;
use dash_core::model::pool_parties;
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, AggregationMode, RFactorMode, SecureScanConfig};

fn main() {
    let m = 4096;
    let k = 4;
    for p in [3usize, 8] {
        let sizes = vec![300; p];
        println!(
            "E6: security ladder — P = {p}, N = {} per party, M = {m}, K = {k}\n",
            300
        );
        let parties = normal_parties(&sizes, m, k, 11);
        let reference = associate(&pool_parties(&parties).unwrap()).unwrap();
        let mut t = Table::new(&[
            "R-factor / aggregation",
            "per-party scalars opened",
            "aggregate scalars opened",
            "total bytes",
            "WAN time",
            "max rel diff",
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
                    seed: 11,
                    ..SecureScanConfig::default()
                };
                let out = secure_scan(&parties, &cfg).unwrap();
                let per_party: usize = out
                    .disclosures
                    .iter()
                    .filter(|d| d.source_party.is_some())
                    .map(|d| d.scalars)
                    .sum();
                let aggregate: usize = out
                    .disclosures
                    .iter()
                    .filter(|d| d.source_party.is_none())
                    .map(|d| d.scalars)
                    .sum();
                t.row(vec![
                    format!("{rf:?} / {agg:?}"),
                    per_party.to_string(),
                    aggregate.to_string(),
                    fmt_bytes(out.network.total_bytes),
                    fmt_seconds(out.network.wan_seconds),
                    fmt_sci(out.result.max_rel_diff(&reference).unwrap()),
                ]);
            }
        }
        t.print();
        println!();
    }
    println!("Reading the ladder: climbing from PublicStack/Public to");
    println!("GramAggregate/BeaverDots drives per-party disclosure to zero while");
    println!("correctness is preserved; the cost is a constant factor in bytes and");
    println!("the Beaver rounds. The aggregate column shrinks too: BeaverDots opens");
    println!("3 projected dot products per variant instead of the K-vector QᵀX.");
}
