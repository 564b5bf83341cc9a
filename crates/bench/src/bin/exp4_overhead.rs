//! E4 — the title claim: secure multi-party regression "at plaintext
//! speed".
//!
//! Per-party compute in the secure protocol is the same local scan each
//! party would run anyway, plus fixed-point encoding and O(M)-sized
//! aggregation; the paper claims "essentially the same efficiency as
//! plaintext computation". This binary measures, at the R-demo shape:
//!
//! - the pooled plaintext scan (what a single trusted curator would run);
//! - end-to-end secure runs per aggregation mode (all P parties computing
//!   concurrently in one process — compute overhead shows up directly);
//! - the simulated LAN/WAN network time from the exact byte/message
//!   counters, reported separately (the in-process run has no real wire).

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_seconds, Table};
use dash_bench::timing::time_median;
use dash_bench::workloads::r_demo_parties;
use dash_core::model::pool_parties;
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, AggregationMode, SecureScanConfig};

fn main() {
    println!("E4: secure scan vs plaintext scan (\"plaintext speed\")\n");
    for m in [2048usize, 8192, 32768] {
        let parties = r_demo_parties(m, 1);
        let pooled = pool_parties(&parties).unwrap();
        let (plain, _) = time_median(3, || associate(&pooled).unwrap());
        println!(
            "M = {m} (N = 4500, K = 3, P = 3). Pooled plaintext scan: {}",
            fmt_seconds(plain.median_s)
        );
        let mut t = Table::new(&[
            "aggregation mode",
            "secure wall clock",
            "overhead vs plaintext",
            "LAN net time",
            "WAN net time",
            "retries/timeouts",
        ]);
        for agg in [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ] {
            let cfg = SecureScanConfig {
                aggregation: agg,
                seed: 1,
                ..SecureScanConfig::default()
            };
            let (timed, out) = time_median(3, || secure_scan(&parties, &cfg).unwrap());
            t.row(vec![
                format!("{agg:?}"),
                fmt_seconds(timed.median_s),
                format!("{:.2}x", timed.median_s / plain.median_s),
                fmt_seconds(out.network.lan_seconds),
                fmt_seconds(out.network.wan_seconds),
                format!(
                    "{}/{}",
                    out.network.total_retries, out.network.total_timeouts
                ),
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "The secure wall clock includes all P parties' local scans running \
         concurrently plus protocol work; overhead factors near 1 (and well \
         below P) support the title claim. WAN time is dominated by the O(M) \
         transfer itself — the floor any scheme pays to deliver results."
    );
}
