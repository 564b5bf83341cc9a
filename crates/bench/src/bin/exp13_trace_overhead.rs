//! E13 — observability overhead of the per-party trace layer.
//!
//! The `dash-obs` `TraceHandle` is threaded through the transport and
//! every protocol phase, so its *disabled* path must be near-free: each
//! call is an `Option<Arc<_>>` check that immediately returns. This
//! binary pins that claim two ways:
//!
//! - **Micro**: the measured cost of a disabled `add` call and of a
//!   disabled span's open + drop, each the fastest of several tight
//!   loops over `black_box`ed arguments.
//! - **Analytic**: one enabled run counts the trace events a real
//!   blocked secure scan emits; transport mirror calls and protocol
//!   counters are charged at the `add` cost and spans at the span-pair
//!   cost, and the sum is taken as a fraction of the fastest disabled
//!   scan (host load can only add time, so the fastest run is the one
//!   nearest the scan's own cost). The run **asserts** this fraction
//!   stays under 2% — the acceptance criterion for keeping the handle
//!   always-threaded instead of feature-gated.
//!
//! The cost of an *enabled* handle is the benchmark record's
//! `obs.trace_overhead_frac`, not this binary's.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_seconds, Table};
use dash_bench::timing::time_median;
use dash_bench::workloads::normal_parties;
use dash_core::secure::{secure_scan_traced_with, SecureScanConfig, TraceCounter, TraceHandle};
use std::hint::black_box;
use std::time::Instant;

/// Disabled scans timed; the denominator is the fastest.
const SCANS: usize = 7;
/// Tight loops per micro cost; the cost is the fastest loop's.
const LOOPS: usize = 5;
/// Calls per loop.
const REPS: u64 = 10_000_000;

/// Nanoseconds per call of `f`: the fastest of `LOOPS` loops of `REPS`.
fn min_ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    (0..LOOPS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..REPS {
                f(i);
            }
            t0.elapsed().as_secs_f64() * 1e9 / REPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let (m, k) = (1024usize, 8usize);
    let sizes = [800usize, 800, 800];
    let parties = normal_parties(&sizes, m, k, 13);
    let cfg = SecureScanConfig {
        seed: 13,
        block_size: Some(128),
        ..SecureScanConfig::default()
    };
    println!(
        "E13: trace-layer overhead (N = {}, M = {m}, K = {k}, P = {}, MaskedPrg, \
         blocked B = 128)\n",
        sizes.iter().sum::<usize>(),
        sizes.len()
    );

    // The fastest scan with the handle disabled: the denominator.
    let (t_off, out) = time_median(SCANS, || {
        secure_scan_traced_with(&parties, &cfg, TraceHandle::disabled()).unwrap()
    });

    // Count the trace events one real scan emits: every recorded frame
    // hits the transport mirror once, every span is an open + a drop,
    // and the protocol layers add triple/opened-scalar counts.
    let probe = TraceHandle::enabled(parties.len());
    let probed = secure_scan_traced_with(&parties, &cfg, probe.clone()).unwrap();
    let mirror_calls = probed.network.total_messages
        + probed.network.total_retries
        + probed.network.total_timeouts;
    let spans = probe.spans().len() as u64;
    // Upper-bound protocol counter calls by the recorded totals (each
    // call adds at least 1).
    let protocol_calls = probe.counter_total(TraceCounter::TriplesConsumed)
        + probe.counter_total(TraceCounter::OpenedScalars);

    // Micro cost of one disabled call (counter add and span round trip).
    let disabled = TraceHandle::disabled();
    let add_ns = min_ns_per_call(|i| {
        disabled.add(black_box(0), TraceCounter::BytesSent, black_box(i));
    });
    let span_ns = min_ns_per_call(|i| {
        let _g = disabled.span_at(black_box(0), "bench", black_box(i));
    });
    let charged_ns = (mirror_calls + protocol_calls) as f64 * add_ns + spans as f64 * span_ns;
    let analytic_overhead = charged_ns * 1e-9 / t_off.min_s;

    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec![
        format!("fastest of {SCANS} scans, trace disabled"),
        format!(
            "{} (median {})",
            fmt_seconds(t_off.min_s),
            fmt_seconds(t_off.median_s)
        ),
    ]);
    t.row(vec![
        "trace events per scan".into(),
        format!("{mirror_calls} mirror + {protocol_calls} protocol adds, {spans} spans"),
    ]);
    t.row(vec![
        format!("disabled add / span-pair cost (fastest of {LOOPS} loops)"),
        format!("{add_ns:.2} ns / {span_ns:.2} ns"),
    ]);
    t.row(vec![
        "analytic disabled overhead".into(),
        format!("{:.4}%", analytic_overhead * 100.0),
    ]);
    t.print();

    assert!(
        analytic_overhead < 0.02,
        "disabled trace overhead {:.4}% breaches the 2% budget",
        analytic_overhead * 100.0
    );
    // Sanity: the traced run really observed the scan it timed.
    assert_eq!(
        probe.counter_total(TraceCounter::BytesSent),
        probed.network.total_bytes
    );
    assert!(out.result.len() == m);
    println!(
        "\nDisabled-handle calls cost ~{add_ns:.1} ns (add) and ~{span_ns:.1} ns (span); \
         per scan that is {:.4}% of the fastest {} scan — inside the 2% budget, so \
         the handle stays threaded unconditionally (no feature gate).",
        analytic_overhead * 100.0,
        fmt_seconds(t_off.min_s)
    );
}
