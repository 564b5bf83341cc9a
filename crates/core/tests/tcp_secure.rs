//! The real-socket transport must be **indistinguishable** from the
//! in-process mpsc network at the protocol level: bit-identical scan
//! results, identical `NetworkStats` totals (both paths record at the
//! same sender-side accounting point) and identical disclosure logs —
//! healthy or under the deterministic fault-injection matrix
//! (duplicates, reorders, transient send failures, delays), since
//! [`dash_mpc::FaultyTransport`] wraps either transport through the same
//! frame methods of `Transport`, with the same fate hashes.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::{
    secure_scan, secure_scan_tcp_local_traced, AggregationMode, RFactorMode, SecureScanConfig,
    SecureScanOutput, TraceHandle,
};
use dash_core::ScanResult;
use dash_linalg::Matrix;
use dash_mpc::transport::FaultPlan;

fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    sizes
        .iter()
        .map(|&n| {
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = Matrix::from_fn(n, m, |_, _| next());
            let c = Matrix::from_fn(n, k, |_, _| next());
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

/// Bitwise equality, treating NaN (degenerate variants) as equal to
/// itself — `assert_eq!` on f64 would reject NaN == NaN.
fn assert_bits_eq(got: &ScanResult, want: &ScanResult, what: &str) {
    assert_eq!(got.df, want.df, "{what}: df");
    assert_eq!(got.n_degenerate, want.n_degenerate, "{what}: n_degenerate");
    for (name, g, w) in [
        ("beta", &got.beta, &want.beta),
        ("se", &got.se, &want.se),
        ("t", &got.t, &want.t),
        ("p", &got.p, &want.p),
    ] {
        assert_eq!(g.len(), w.len(), "{what}: {name} length");
        for (j, (a, b)) in g.iter().zip(w.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}[{j}] {a} vs {b}");
        }
    }
}

/// Disclosure log as a sorted multiset — threads append concurrently in
/// both paths, so only the content (not the interleaving) is pinned.
fn sorted_disclosures(out: &SecureScanOutput) -> Vec<(Option<usize>, String, usize)> {
    let mut v: Vec<_> = out
        .disclosures
        .iter()
        .map(|d| (d.source_party, d.label.clone(), d.scalars))
        .collect();
    v.sort();
    v
}

/// Runs both paths under one configuration and asserts full equivalence:
/// results, traffic accounting, per-block attribution, disclosures.
fn assert_tcp_matches_inprocess(parties: &[PartyData], cfg: &SecureScanConfig, what: &str) {
    let mpsc =
        secure_scan(parties, cfg).unwrap_or_else(|e| panic!("{what}: mpsc path failed: {e:?}"));
    let tcp = secure_scan_tcp_local_traced(parties, cfg, TraceHandle::disabled())
        .unwrap_or_else(|e| panic!("{what}: tcp path failed: {e:?}"));
    assert_bits_eq(&tcp.result, &mpsc.result, what);
    assert_eq!(tcp.network, mpsc.network, "{what}: network report");
    assert_eq!(
        tcp.per_block_bytes, mpsc.per_block_bytes,
        "{what}: per-block bytes"
    );
    assert_eq!(tcp.n_parties, mpsc.n_parties, "{what}: party count");
    assert_eq!(
        sorted_disclosures(&tcp),
        sorted_disclosures(&mpsc),
        "{what}: disclosure log"
    );
}

#[test]
fn tcp_matches_inprocess_across_aggregation_modes() {
    let parties = gen_parties(&[7, 5, 6], 4, 2, 0xA11CE);
    for agg in [
        AggregationMode::Public,
        AggregationMode::MaskedPrg,
        AggregationMode::MaskedStar,
        AggregationMode::BeaverDots,
    ] {
        let cfg = SecureScanConfig {
            aggregation: agg,
            seed: 0xBEEF,
            ..SecureScanConfig::default()
        };
        assert_tcp_matches_inprocess(&parties, &cfg, &format!("{agg:?}"));
    }
}

#[test]
fn tcp_matches_inprocess_strict_ladder_and_blocked() {
    let parties = gen_parties(&[8, 6], 5, 2, 0x5EED);
    // Strictest rung: aggregate-only R + Beaver dot products.
    let strict = SecureScanConfig {
        rfactor: RFactorMode::GramAggregate,
        aggregation: AggregationMode::BeaverDots,
        seed: 42,
        ..SecureScanConfig::default()
    };
    assert_tcp_matches_inprocess(&parties, &strict, "gram+beaver");
    // Blocked pipeline: per-block tag attribution must agree too.
    let blocked = SecureScanConfig {
        aggregation: AggregationMode::MaskedPrg,
        block_size: Some(2),
        threads: 2,
        seed: 43,
        ..SecureScanConfig::default()
    };
    assert_tcp_matches_inprocess(&parties, &blocked, "blocked");
}

#[test]
fn tcp_matches_inprocess_under_fault_matrix() {
    // The deterministic fault plans (pure fate hashes of seed × link ×
    // message index) drive identical fault sequences over mpsc and TCP,
    // so even the faulted runs must agree exactly — including retry
    // counters.
    let parties = gen_parties(&[6, 5, 7], 3, 2, 0xFA117);
    let profiles: [(&str, FaultPlan); 4] = [
        (
            "dup",
            FaultPlan {
                seed: 3,
                dup_prob: 0.5,
                ..FaultPlan::default()
            },
        ),
        (
            "reorder",
            FaultPlan {
                seed: 5,
                reorder_prob: 0.5,
                ..FaultPlan::default()
            },
        ),
        (
            "transient",
            FaultPlan {
                seed: 7,
                transient_prob: 0.5,
                ..FaultPlan::default()
            },
        ),
        (
            "delay",
            FaultPlan {
                seed: 9,
                delay_prob: 0.3,
                ..FaultPlan::default()
            },
        ),
    ];
    for (name, plan) in profiles {
        for agg in [AggregationMode::MaskedPrg, AggregationMode::BeaverDots] {
            let cfg = SecureScanConfig {
                aggregation: agg,
                faults: Some(plan),
                seed: 0xD15EA5E,
                ..SecureScanConfig::default()
            };
            assert_tcp_matches_inprocess(&parties, &cfg, &format!("{name}/{agg:?}"));
        }
    }
}

#[test]
fn tcp_fails_structurally_under_message_loss() {
    // Heavy loss with a short deadline: both paths must fail with a
    // structured transport error (never hang, never panic). The exact
    // variant each party observes first is scheduling-dependent, so only
    // the structural outcome is pinned.
    let parties = gen_parties(&[6, 5], 3, 2, 0xDEAD);
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::MaskedPrg,
        faults: Some(FaultPlan {
            seed: 1,
            drop_prob: 0.7,
            ..FaultPlan::default()
        }),
        deadline_ms: 400,
        max_retries: 1,
        seed: 77,
        ..SecureScanConfig::default()
    };
    let started = std::time::Instant::now();
    let mpsc = secure_scan(&parties, &cfg);
    let tcp = secure_scan_tcp_local_traced(&parties, &cfg, TraceHandle::disabled());
    assert!(mpsc.is_err(), "mpsc path must fail under heavy loss");
    assert!(tcp.is_err(), "tcp path must fail under heavy loss");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "structured failure must beat the deadline bound, not hang"
    );
}
