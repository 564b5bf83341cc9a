//! The real-socket transport must be **indistinguishable** from the
//! in-process mpsc network at the protocol level: bit-identical scan
//! results, identical `NetworkStats` totals (both paths record at the
//! same sender-side accounting point) and identical disclosure logs —
//! healthy, or with a supervised link torn mid-scan by a
//! [`ChaosProxy`] and recovered by reconnect and replay.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::{
    secure_scan, secure_scan_party_with, secure_scan_tcp_local_traced, AggregationMode,
    RFactorMode, SecureScanConfig, SecureScanOutput, TraceHandle,
};
use dash_core::{CoreError, ScanResult};
use dash_linalg::Matrix;
use dash_mpc::{
    ChaosMode, ChaosPolicy, ChaosProxy, LinkSupervision, MpcError, NetworkStats, TcpConfig,
    TcpTransport,
};
use std::net::{Ipv4Addr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Runs a two-party scan with one supervised TCP process per party
/// (threads here), party 1 dialing party 0 through a [`ChaosProxy`] — the
/// layout of the proxy's own link tests. Returns each party's outcome,
/// the proxy (for its connection count) and the wall time.
fn proxied_party_scan(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
    mode: ChaosMode,
    policy: ChaosPolicy,
) -> (
    Vec<Result<SecureScanOutput, CoreError>>,
    ChaosProxy,
    Duration,
) {
    let sup = LinkSupervision {
        heartbeat_interval: Duration::from_millis(20),
        liveness_deadline: Duration::from_secs(1),
        reconnect_window: Duration::from_secs(2),
        reconnect_backoff: Duration::from_millis(20),
        replay_capacity: 4096,
    };
    let tcp = TcpConfig {
        run_id: cfg.seed,
        connect_timeout: Duration::from_secs(2),
        connect_retries: 40,
        connect_backoff: Duration::from_millis(10),
        accept_timeout: Duration::from_secs(10),
        jitter_seed: cfg.seed,
        supervision: Some(sup),
    };
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap())
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let proxy = ChaosProxy::start(addrs[0], mode, policy).unwrap();
    // Only dialers of party 0 read peers[0], so party 1 alone goes
    // through the proxy.
    let views = [addrs.clone(), vec![proxy.local_addr(), addrs[1]]];
    let started = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(&views)
            .zip(parties)
            .enumerate()
            .map(|(id, ((listener, peers), data))| {
                scope.spawn(move || {
                    let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                    let transport = TcpTransport::connect(id, listener, peers, tcp, stats)?;
                    secure_scan_party_with(data, cfg, transport)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (outcomes, proxy, started.elapsed())
}

#[test]
fn scan_over_a_link_torn_mid_scan_matches_inprocess() {
    // The first connection is reset after 3000 forwarded bytes — past
    // the handshake, well inside the scan's block rounds. Reconnect and
    // replay must make the cut invisible: same bits, same accounting.
    let parties = gen_parties(&[9, 8], 120, 2, 0x7EA2);
    for agg in [AggregationMode::MaskedPrg, AggregationMode::BeaverDots] {
        let cfg = SecureScanConfig {
            aggregation: agg,
            block_size: Some(16),
            seed: 0xC4A05,
            ..SecureScanConfig::default()
        };
        let want = secure_scan(&parties, &cfg).unwrap();
        let (outcomes, proxy, _) = proxied_party_scan(
            &parties,
            &cfg,
            ChaosMode::RstAfterBytes(3000),
            ChaosPolicy::FirstConnectionOnly,
        );
        let outs: Vec<SecureScanOutput> = outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|e| panic!("{agg:?}: party failed: {e}")))
            .collect();
        assert!(proxy.connections() >= 2, "{agg:?}: the cut never fired");
        proxy.stop();
        for out in &outs {
            assert_bits_eq(&out.result, &want.result, &format!("{agg:?}"));
        }
        // Each process counts its own outbound traffic; replayed frames
        // are not counted twice.
        let sum = |f: fn(&SecureScanOutput) -> u64| outs.iter().map(f).sum::<u64>();
        assert_eq!(sum(|o| o.network.total_bytes), want.network.total_bytes);
        assert_eq!(
            sum(|o| o.network.total_messages),
            want.network.total_messages
        );
        let mut union: Vec<_> = outs.iter().flat_map(sorted_disclosures).collect();
        union.sort();
        assert_eq!(union, sorted_disclosures(&want), "{agg:?}: disclosures");
    }
}

#[test]
fn scan_over_a_partition_longer_than_the_reconnect_window_fails_structurally() {
    // The link is cut mid-scan and every re-dial is black-holed far past
    // the 2 s reconnect window: the run must end in a structured
    // PeerCrashed verdict, not a hang or a deadline-length wait.
    let parties = gen_parties(&[9, 8], 120, 2, 0xDEAD);
    let cfg = SecureScanConfig {
        block_size: Some(16),
        seed: 77,
        ..SecureScanConfig::default()
    };
    let (outcomes, proxy, waited) = proxied_party_scan(
        &parties,
        &cfg,
        ChaosMode::PartitionAfterBytes {
            bytes: 3000,
            window: Duration::from_secs(120),
        },
        ChaosPolicy::EveryConnection,
    );
    proxy.stop();
    assert!(waited < Duration::from_secs(30), "verdict took {waited:?}");
    assert!(
        outcomes.iter().all(Result::is_err),
        "a party finished across a dead link"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, Err(CoreError::Mpc(MpcError::PeerCrashed { .. })))),
        "wanted a PeerCrashed verdict, got {outcomes:?}"
    );
}
