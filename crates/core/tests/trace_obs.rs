//! Observability contract of the secure scan: the trace mirror must
//! agree **exactly** with the transport's own accounting, the span tree
//! must reflect the protocol structure, and — the disclosure-size
//! invariant — the [`DisclosureLog`]'s claimed scalar counts must equal
//! the number of opened words the trace observed at the protocol's
//! opening sites. A mismatch in either direction means the audit log is
//! lying about what left the parties' machines.
//!
//! These tests exercise the *blocked* pipeline (the production path) in
//! the Beaver and the masked modes.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::{
    secure_scan, secure_scan_traced_with, AggregationMode, RFactorMode, SecureScanConfig,
    TraceCounter, TraceHandle,
};
use dash_linalg::Matrix;

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

/// Fully-secure modes: every disclosure flows through an instrumented
/// opening site (masked sums, Beaver openings), so the
/// audit log's claims and the trace's observed counts must coincide.
const SECURE_AGG: [AggregationMode; 3] = [
    AggregationMode::MaskedPrg,
    AggregationMode::MaskedStar,
    AggregationMode::BeaverDots,
];

/// Disclosure-size verification: for every fully-secure mode on the
/// blocked path, the scalars the [`DisclosureLog`] *claims* were opened
/// equal the opened-word count the trace *observed* at the protocol's
/// opening sites.
#[test]
fn disclosure_log_matches_trace_observed_openings() {
    let parties = gen_parties(&[14, 19, 12], 6, 2, 41);
    for agg in SECURE_AGG {
        let cfg = SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: agg,
            block_size: Some(2),
            seed: 23,
            ..SecureScanConfig::default()
        };
        let trace = TraceHandle::enabled(parties.len());
        let out = secure_scan_traced_with(&parties, &cfg, trace.clone()).unwrap();
        let claimed: u64 = out.disclosures.iter().map(|d| d.scalars as u64).sum();
        let observed = trace.counter_total(TraceCounter::OpenedScalars);
        assert!(claimed > 0, "{agg:?}: a scan must disclose something");
        assert_eq!(
            claimed, observed,
            "{agg:?}: disclosure log claims {claimed} opened scalars but the \
             trace observed {observed}"
        );
    }
}

/// The trace's per-party byte/message counters must equal the
/// transport's own [`NetworkStats`] totals exactly — the mirror lives at
/// the single accounting point, so any divergence is a wiring bug.
#[test]
fn trace_totals_match_network_report_exactly() {
    let parties = gen_parties(&[16, 13, 18], 5, 2, 7);
    let cfg = SecureScanConfig {
        rfactor: RFactorMode::GramAggregate,
        aggregation: AggregationMode::BeaverDots,
        block_size: Some(2),
        seed: 11,
        ..SecureScanConfig::default()
    };
    let trace = TraceHandle::enabled(parties.len());
    let out = secure_scan_traced_with(&parties, &cfg, trace.clone()).unwrap();
    let sent = trace.counter_total(TraceCounter::BytesSent);
    let received = trace.counter_total(TraceCounter::BytesReceived);
    assert_eq!(sent, out.network.total_bytes, "trace sent vs report");
    assert_eq!(
        received, out.network.total_bytes,
        "trace received vs report"
    );
    assert_eq!(
        trace.counter_total(TraceCounter::MessagesSent),
        out.network.total_messages,
        "trace messages vs report"
    );
    assert_eq!(
        trace.counter_total(TraceCounter::Retries),
        out.network.total_retries
    );
    assert_eq!(
        trace.counter_total(TraceCounter::Timeouts),
        out.network.total_timeouts
    );
    let max_sent = (0..parties.len())
        .map(|p| trace.counter(p, TraceCounter::BytesSent))
        .max()
        .unwrap();
    assert_eq!(max_sent, out.network.max_party_bytes, "per-party maximum");
}

/// The mirror equalities hold in the masked mode too, and the per-block
/// partition leaves the unscoped phases their own bytes.
#[test]
fn trace_matches_stats_in_a_masked_blocked_run() {
    let parties = gen_parties(&[12, 15], 4, 1, 77);
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::MaskedPrg,
        block_size: Some(2),
        seed: 5,
        ..SecureScanConfig::default()
    };
    let trace = TraceHandle::enabled(parties.len());
    let out = secure_scan_traced_with(&parties, &cfg, trace.clone()).unwrap();
    assert_eq!(
        trace.counter_total(TraceCounter::BytesSent),
        out.network.total_bytes,
        "byte mirror"
    );
    assert_eq!(
        trace.counter_total(TraceCounter::Retries),
        out.network.total_retries,
        "retry mirror"
    );
    // Block rounds plus unscoped traffic account for every byte.
    assert!(
        out.per_block_bytes.iter().sum::<u64>() < out.network.total_bytes,
        "unscoped phases also move bytes"
    );
}

/// The span tree reflects the protocol structure: every party records
/// one `scan` root, the three phase spans beneath it, and one `block`
/// span per variant block, each wrapping a `round:secure` span.
#[test]
fn span_tree_reflects_blocked_protocol_structure() {
    let m = 6;
    let block = 2;
    let parties = gen_parties(&[10, 12, 9], m, 2, 3);
    let cfg = SecureScanConfig {
        rfactor: RFactorMode::GramAggregate,
        aggregation: AggregationMode::MaskedStar,
        block_size: Some(block),
        seed: 2,
        ..SecureScanConfig::default()
    };
    let trace = TraceHandle::enabled(parties.len());
    secure_scan_traced_with(&parties, &cfg, trace.clone()).unwrap();
    assert_eq!(trace.dropped_spans(), 0, "default capacity must suffice");
    let spans = trace.spans();
    let n_blocks = m.div_ceil(block) as u64;
    for p in 0..parties.len() {
        let mine: Vec<_> = spans.iter().filter(|s| s.party == p).collect();
        let count = |name: &str| mine.iter().filter(|s| s.name == name).count() as u64;
        assert_eq!(count("scan"), 1, "party {p}: one scan root");
        assert_eq!(count("phase:count"), 1, "party {p}");
        assert_eq!(count("phase:rfactor"), 1, "party {p}");
        assert_eq!(count("phase:aggregate"), 1, "party {p}");
        assert_eq!(count("block"), n_blocks, "party {p}: one span per block");
        assert_eq!(count("round:secure"), n_blocks, "party {p}");
        for s in &mine {
            assert!(s.end_ns >= s.start_ns, "span {}: monotone", s.name);
            if s.name == "scan" {
                assert_eq!(s.depth, 0, "scan is the root span");
            } else {
                assert!(s.depth >= 1, "span {} nests under scan", s.name);
            }
        }
        // Block spans carry their block index, in order.
        let blocks: Vec<u64> = mine
            .iter()
            .filter(|s| s.name == "block")
            .map(|s| s.index.unwrap())
            .collect();
        assert_eq!(blocks, (0..n_blocks).collect::<Vec<_>>(), "party {p}");
    }
}

/// A disabled handle changes nothing: same results bit for bit, no
/// recorded spans, and `secure_scan` itself equals the traced variant.
#[test]
fn disabled_trace_is_transparent() {
    let parties = gen_parties(&[11, 14], 4, 1, 19);
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::BeaverDots,
        rfactor: RFactorMode::GramAggregate,
        block_size: Some(3),
        seed: 13,
        ..SecureScanConfig::default()
    };
    let plain = secure_scan(&parties, &cfg).unwrap();
    let disabled = TraceHandle::disabled();
    let traced = secure_scan_traced_with(&parties, &cfg, disabled.clone()).unwrap();
    assert!(!disabled.is_enabled());
    assert!(disabled.spans().is_empty());
    assert_eq!(disabled.counter_total(TraceCounter::BytesSent), 0);
    assert_eq!(plain.network.total_bytes, traced.network.total_bytes);
    for (a, b) in plain.result.beta.iter().zip(traced.result.beta.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The exported JSON is well-formed enough to round-trip the headline
/// numbers: schema tag, party count, and the byte totals embedded in the
/// counters section match the live handle.
#[test]
fn json_export_carries_exact_byte_totals() {
    let parties = gen_parties(&[9, 10], 3, 1, 29);
    let cfg = SecureScanConfig {
        block_size: Some(2),
        seed: 31,
        ..SecureScanConfig::default()
    };
    let trace = TraceHandle::enabled(parties.len());
    let out = secure_scan_traced_with(&parties, &cfg, trace.clone()).unwrap();
    let json = trace.export_json();
    assert!(json.contains("\"schema\": \"dash-trace/1\""));
    assert!(json.contains("\"n_parties\": 2"));
    // Every per-party sent-byte figure appears verbatim in the export,
    // and their sum is the network report total.
    let mut sum = 0;
    for p in 0..parties.len() {
        let sent = trace.counter(p, TraceCounter::BytesSent);
        assert!(
            json.contains(&format!("\"bytes_sent\": {sent}")),
            "party {p} sent bytes missing from export"
        );
        sum += sent;
    }
    assert_eq!(sum, out.network.total_bytes);
}
