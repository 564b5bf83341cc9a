//! E10 (ablation) — design-choice sweeps called out in DESIGN.md §5.
//!
//! 1. **Fixed-point precision**: accuracy of the secure scan vs the
//!    fractional-bit budget of the ring codec (and the field codec for
//!    the Beaver mode). Shows where the defaults (28 / 26) sit: far past
//!    the knee, with headroom before overflow.
//! 2. **Aggregation topology**: all-to-all vs star masked sums — total
//!    bytes, the busiest party's bytes and messages as P grows.
//! 3. **R-combination strategy**: direct stacked QR vs binary-tree TSQR
//!    vs Gram+Cholesky — numerical agreement and per-party cost.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_bytes, fmt_sci, Table};
use dash_bench::workloads::normal_parties;
use dash_core::model::pool_parties;
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, AggregationMode, SecureScanConfig};
use dash_linalg::{cholesky_upper, gemm_at_b, qr_r_factor, tsqr_r, Matrix};

fn main() {
    precision_panel();
    topology_panel();
    rfactor_panel();
}

fn precision_panel() {
    println!("E10.1: fixed-point precision vs accuracy (P = 3, N = 900, M = 512, K = 3)\n");
    let parties = normal_parties(&[300, 300, 300], 512, 3, 77);
    let reference = associate(&pool_parties(&parties).unwrap()).unwrap();
    let mut t = Table::new(&[
        "ring frac bits",
        "MaskedPrg max rel diff",
        "BeaverDots max rel diff",
    ]);
    for bits in [8u32, 12, 16, 20, 24, 28, 32, 40] {
        let masked = SecureScanConfig {
            aggregation: AggregationMode::MaskedPrg,
            ring_frac_bits: bits,
            seed: 77,
            ..SecureScanConfig::default()
        };
        let dm = secure_scan(&parties, &masked)
            .map(|o| o.result.max_rel_diff(&reference).unwrap())
            .map(fmt_sci)
            .unwrap_or_else(|e| format!("error: {e}"));
        let beaver = SecureScanConfig {
            aggregation: AggregationMode::BeaverDots,
            ring_frac_bits: bits,
            seed: 77,
            ..SecureScanConfig::default()
        };
        let db = secure_scan(&parties, &beaver)
            .map(|o| o.result.max_rel_diff(&reference).unwrap())
            .map(fmt_sci)
            .unwrap_or_else(|e| format!("error: {e}"));
        t.row(vec![bits.to_string(), dm, db]);
    }
    t.print();
    println!("\nMaskedPrg accuracy improves ~4x per 2 ring bits until f64 round-off");
    println!("dominates; the default 28 bits sits at ~1e-10. BeaverDots plateaus at");
    println!("~3e-8: past 20 ring bits its error is set by the *field* codec's 26");
    println!("fractional bits (the Beaver products), not the ring sums.\n");
}

fn topology_panel() {
    println!("E10.2: masked-sum topology — all-to-all vs star (M = 4096, K = 3)\n");
    let mut t = Table::new(&[
        "P",
        "all-to-all bytes",
        "star bytes",
        "all-to-all busiest party",
        "star busiest party",
        "all-to-all msgs",
        "star msgs",
    ]);
    for p in [2usize, 4, 8, 12] {
        let parties = normal_parties(&vec![100; p], 4096, 3, 5);
        let run = |agg| {
            let cfg = SecureScanConfig {
                aggregation: agg,
                seed: 5,
                ..SecureScanConfig::default()
            };
            secure_scan(&parties, &cfg).unwrap().network
        };
        let full = run(AggregationMode::MaskedPrg);
        let star = run(AggregationMode::MaskedStar);
        t.row(vec![
            p.to_string(),
            fmt_bytes(full.total_bytes),
            fmt_bytes(star.total_bytes),
            fmt_bytes(full.max_party_bytes),
            fmt_bytes(star.max_party_bytes),
            full.total_messages.to_string(),
            star.total_messages.to_string(),
        ]);
    }
    t.print();
    println!("\nStar turns O(P²·M) total traffic into O(P·M), but its busiest party");
    println!("does not shrink: the aggregator still sends (P-1)·M words, exactly what");
    println!("each party sends in the all-to-all. The win is aggregate bandwidth (cloud");
    println!("egress cost); the star's second hop, which sets its latency, is not");
    println!("measured here.\n");
}

fn rfactor_panel() {
    println!("E10.3: R-combination strategies (8 blocks of 500 x K)\n");
    let mut t = Table::new(&["K", "tree vs direct", "gram+chol vs direct"]);
    for k in [2usize, 4, 8, 16] {
        let blocks: Vec<Matrix> = (0..8)
            .map(|i| {
                let p = normal_parties(&[500], 1, k, 100 + i as u64).pop().unwrap();
                p.c().clone()
            })
            .collect();
        let refs: Vec<&Matrix> = blocks.iter().collect();
        let pooled = Matrix::vstack(&refs).unwrap();
        let direct = qr_r_factor(&pooled).unwrap();
        let tree = tsqr_r(&blocks).unwrap();
        let mut gram = Matrix::zeros(k, k);
        for b in &blocks {
            let g = gemm_at_b(b, b).unwrap();
            for (acc, v) in gram.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *acc += v;
            }
        }
        let chol = cholesky_upper(&gram).unwrap();
        let scale = 1.0 + dash_linalg::frobenius_norm(&direct);
        t.row(vec![
            k.to_string(),
            fmt_sci(tree.max_abs_diff(&direct).unwrap() / scale),
            fmt_sci(chol.max_abs_diff(&direct).unwrap() / scale),
        ]);
    }
    t.print();
    println!("\nAll three agree to near machine precision on well-conditioned");
    println!("covariates. Gram+Cholesky squares the condition number, so for nearly");
    println!("collinear C it loses half the digits QR keeps — why the default mode");
    println!("uses QR on stacked factors and Gram mode exists for its stricter");
    println!("leakage profile, not its numerics.");
}
