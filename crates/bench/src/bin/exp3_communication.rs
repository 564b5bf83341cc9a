//! E3 — the communication claim of §3.
//!
//! "Securely determine β̂ and σ̂ … while communicating only O(M) bits
//! inter-party. Note that O(M) is best possible since all parties must
//! receive the results." This binary measures exact bytes on the
//! simulated network and shows: linear growth in M, *zero* growth in N,
//! and the per-mode constants (including the O(P²) all-to-all factor).

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_bytes, Table};
use dash_bench::workloads::normal_parties;
use dash_core::secure::{secure_scan, AggregationMode, NetworkReport, SecureScanConfig};

fn run_bytes(sizes: &[usize], m: usize, agg: AggregationMode) -> NetworkReport {
    let parties = normal_parties(sizes, m, 3, 7);
    let cfg = SecureScanConfig {
        aggregation: agg,
        seed: 7,
        ..SecureScanConfig::default()
    };
    let out = secure_scan(&parties, &cfg).unwrap();
    out.network
}

fn main() {
    println!("E3: inter-party communication is O(M), independent of N\n");

    // --- M sweep at fixed N ---
    println!("M sweep (P = 3, N = 300 per party, MaskedPrg):");
    let mut t = Table::new(&["M", "total bytes", "bytes / M", "max party out"]);
    for m in [512usize, 1024, 2048, 4096, 8192, 16384] {
        let net = run_bytes(&[300, 300, 300], m, AggregationMode::MaskedPrg);
        t.row(vec![
            m.to_string(),
            fmt_bytes(net.total_bytes),
            format!("{:.1}", net.total_bytes as f64 / m as f64),
            fmt_bytes(net.max_party_bytes),
        ]);
    }
    t.print();

    // --- N sweep at fixed M ---
    println!("\nN sweep (P = 3, M = 4096, MaskedPrg) — bytes must not move:");
    let mut t = Table::new(&["N per party", "total bytes"]);
    for n in [50usize, 200, 800, 3200] {
        let net = run_bytes(&[n, n, n], 4096, AggregationMode::MaskedPrg);
        t.row(vec![n.to_string(), fmt_bytes(net.total_bytes)]);
    }
    t.print();

    // --- P sweep ---
    println!("\nP sweep (N = 200 per party, M = 4096, MaskedPrg) — all-to-all gives O(P^2·M) total, O(P·M) per party:");
    let mut t = Table::new(&["P", "total bytes", "max party out"]);
    for p in [2usize, 3, 4, 6, 8] {
        let sizes = vec![200; p];
        let net = run_bytes(&sizes, 4096, AggregationMode::MaskedPrg);
        t.row(vec![
            p.to_string(),
            fmt_bytes(net.total_bytes),
            fmt_bytes(net.max_party_bytes),
        ]);
    }
    t.print();

    // --- per-mode constants ---
    println!("\nAggregation-mode constants (P = 3, N = 300, M = 4096, K = 3):");
    let mut t = Table::new(&[
        "mode",
        "total bytes",
        "words per variant (total)",
        "retries",
        "timeouts",
    ]);
    for agg in [
        AggregationMode::Public,
        AggregationMode::MaskedPrg,
        AggregationMode::MaskedStar,
        AggregationMode::BeaverDots,
    ] {
        let net = run_bytes(&[300, 300, 300], 4096, agg);
        t.row(vec![
            format!("{agg:?}"),
            fmt_bytes(net.total_bytes),
            format!("{:.1}", net.total_bytes as f64 / 8.0 / 4096.0),
            net.total_retries.to_string(),
            net.total_timeouts.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nEvery mode is O(M) in M and O(1) in N — the §3 claim. Retry and \
         timeout counts are zero on this healthy in-process network; nonzero \
         values would flag a faulty network."
    );
}
