//! E13 — observability overhead of the per-party trace layer.
//!
//! The `dash-obs` `TraceHandle` is threaded through the transport and
//! every protocol phase, so its *disabled* path must be near-free: each
//! call is an `Option<Arc<_>>` check that immediately returns. This
//! binary pins that claim two ways:
//!
//! - **Micro**: the measured cost of a disabled `add`/`span` call, from
//!   a tight loop over `black_box`ed arguments.
//! - **Analytic**: one enabled run counts how many trace events a real
//!   blocked secure scan emits (transport mirror calls, spans, protocol
//!   counters); multiplying by the micro cost bounds the disabled-mode
//!   overhead as a fraction of the scan's wall clock. The run **asserts**
//!   this fraction stays under 2% — the acceptance criterion for keeping
//!   the handle always-threaded instead of feature-gated.
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

    // The scan median with the handle disabled: the denominator.
    let (t_off, out) = time_median(3, || {
        secure_scan_traced_with(&parties, &cfg, TraceHandle::disabled()).unwrap()
    });

    // Count the trace events one real scan emits: every recorded frame
    // hits the transport mirror once, every span costs an open + a drop,
    // and the protocol layers add triple/opened-scalar counts.
    let probe = TraceHandle::enabled(parties.len());
    let probed = secure_scan_traced_with(&parties, &cfg, probe.clone()).unwrap();
    let mirror_calls = probed.network.total_messages
        + probed.network.total_retries
        + probed.network.total_timeouts;
    let span_ops = 2 * probe.spans().len() as u64;
    // Upper-bound protocol counter calls by the recorded totals (each
    // call adds at least 1).
    let protocol_calls = probe.counter_total(TraceCounter::TriplesConsumed)
        + probe.counter_total(TraceCounter::OpenedScalars);
    let events = mirror_calls + span_ops + protocol_calls;

    // Micro cost of one disabled call (counter add and span round trip).
    let disabled = TraceHandle::disabled();
    const REPS: u64 = 10_000_000;
    let t0 = Instant::now();
    for i in 0..REPS {
        disabled.add(black_box(0), TraceCounter::BytesSent, black_box(i));
    }
    let add_ns = t0.elapsed().as_secs_f64() * 1e9 / REPS as f64;
    let t0 = Instant::now();
    for i in 0..REPS {
        let _g = disabled.span_at(black_box(0), "bench", black_box(i));
    }
    let span_ns = t0.elapsed().as_secs_f64() * 1e9 / REPS as f64;
    let per_op_ns = add_ns.max(span_ns);
    let analytic_overhead = events as f64 * per_op_ns * 1e-9 / t_off.median_s;

    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec![
        "scan median, trace disabled".into(),
        fmt_seconds(t_off.median_s),
    ]);
    t.row(vec![
        "trace events per scan".into(),
        format!(
            "{events} ({mirror_calls} mirror + {span_ops} span ops + {protocol_calls} protocol)"
        ),
    ]);
    t.row(vec![
        "disabled add / span-pair cost".into(),
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
        "\nDisabled-handle calls cost ~{per_op_ns:.1} ns; at {events} events per scan \
         that is {:.4}% of the {} scan — far inside the 2% budget, so the \
         handle stays threaded unconditionally (no feature gate).",
        analytic_overhead * 100.0,
        fmt_seconds(t_off.median_s)
    );
}
