//! Observability round trip: run a blocked secure scan with tracing on,
//! read the per-party metrics, and check the mirror invariants that make
//! the trace trustworthy.
//!
//! The `TraceHandle` is threaded through the transport and every
//! protocol phase; its byte counters are written at the same single
//! accounting point as `NetworkStats`, so the trace is not a second
//! bookkeeping system that can drift — it *is* the transport's numbers,
//! viewed per party. Same story for disclosure: `opened_scalars` counts
//! the words the opening primitives actually revealed, which must match
//! what the disclosure log claims.
//!
//! Run with: `cargo run --release --example traced_scan`

use dash_core::model::PartyData;
use dash_core::secure::{
    secure_scan_traced_with, AggregationMode, RFactorMode, SecureScanConfig, TraceCounter,
    TraceHandle,
};
use dash_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Three banks, one blocked max-security scan.
    let mut rng = StdRng::seed_from_u64(99);
    let (m, k) = (24usize, 2usize);
    let parties: Vec<PartyData> = [120usize, 150, 90]
        .iter()
        .map(|&n| {
            let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let x = Matrix::from_fn(n, m, |_, _| rng.gen::<f64>() - 0.5);
            let c = Matrix::from_fn(n, k, |_, _| rng.gen::<f64>() - 0.5);
            PartyData::new(y, x, c).expect("consistent shapes")
        })
        .collect();
    let cfg = SecureScanConfig {
        rfactor: RFactorMode::GramAggregate,
        aggregation: AggregationMode::BeaverDots,
        block_size: Some(8),
        seed: 4,
        ..SecureScanConfig::default()
    };

    let trace = TraceHandle::enabled(parties.len());
    let out = secure_scan_traced_with(&parties, &cfg, trace.clone()).expect("scan succeeds");

    println!("{}", trace.summary());

    // Invariant 1: the trace mirrors the transport exactly.
    let sent = trace.counter_total(TraceCounter::BytesSent);
    assert_eq!(sent, out.network.total_bytes);
    println!(
        "mirror check: trace says {sent} bytes, NetworkStats says {} — equal",
        out.network.total_bytes
    );

    // Invariant 2: claimed disclosures == observed opened words.
    let claimed: u64 = out.disclosures.iter().map(|d| d.scalars as u64).sum();
    let observed = trace.counter_total(TraceCounter::OpenedScalars);
    assert_eq!(claimed, observed);
    println!("disclosure check: {claimed} scalars claimed, {observed} observed — equal");

    // The JSON export feeds dashboards or `dash trace check`.
    let json = trace.export_json();
    println!(
        "\ndash-trace/1 export: {} bytes, first line: {}",
        json.len(),
        json.lines().next().unwrap_or_default()
    );
}
