//! E14 — timing-leak detection for the R64 share arithmetic.
//!
//! The `constant-time` lint (dash-analyze) proves the arithmetic source
//! is branch-free; this experiment checks the compiled code on the host
//! CPU agrees, using the dudect fixed-vs-random two-class protocol (see
//! `dash_bench::dudect`). Every Z₂⁶⁴ operation the protocols run — add,
//! sub, mul, negation, signed encode, and the Beaver share combination
//! `z + d·b + e·a` — is measured with a worst-case fixed class against a
//! uniform random class; a Welch t-test over the interleaved timings must
//! stay below the threshold.
//!
//! A deliberately branchy **positive control** runs alongside: if the
//! harness cannot drive the control's |t| above the threshold, the run's
//! negative results are vacuous and the table says so.
//!
//! Environment knobs (all optional):
//!
//! - `DASH_TIMING_SAMPLES`   — timed batches per op (default 20000).
//! - `DASH_TIMING_THRESHOLD` — |t| gate (default 4.5, the dudect value).
//! - `DASH_TIMING_ENFORCE=1` — exit nonzero when any real op exceeds the
//!   threshold (the check.sh smoke mode sets this).
//! - `DASH_TIMING_ENFORCE_CONTROL=1` — additionally require the positive
//!   control to *exceed* the threshold (off by default: a loaded CI box
//!   can legitimately drown the control in noise).

use dash_bench::dudect::{measure_binary, TimingReport};
use dash_bench::table::Table;
use dash_mpc::R64;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// One measured operation: name, worst-case fixed inputs, the op itself.
struct OpRow {
    name: &'static str,
    report: TimingReport,
}

fn main() {
    let samples = env_usize("DASH_TIMING_SAMPLES", 20_000);
    let threshold = env_f64("DASH_TIMING_THRESHOLD", 4.5);
    let enforce = env_flag("DASH_TIMING_ENFORCE");
    let enforce_control = env_flag("DASH_TIMING_ENFORCE_CONTROL");
    let mut rng = StdRng::seed_from_u64(14);

    println!(
        "E14: dudect timing-leak scan of R64 arithmetic \
         (samples = {samples}, batch = {}, threshold |t| = {threshold})\n",
        dash_bench::dudect::BATCH
    );

    // Worst cases: all-ones words carry through every bit, zero is what an
    // early-out multiplier or a naive negation would special-case, and
    // i64::MIN is the sign path's extreme.
    let words = |r: &mut StdRng| (r.next_u64(), r.next_u64());
    // The Beaver combination's public half: an opened `d`, `e` and the
    // party's `c` share, fixed so the two secret operands `a`, `b` are
    // what the classes vary.
    let (z, d, e) = (R64(0x0123_4567_89AB_CDEF), R64(u64::MAX), R64(1 << 63));

    let rows = vec![
        OpRow {
            name: "r64_add",
            report: measure_binary(samples, &mut rng, (u64::MAX, u64::MAX), words, |a, b| {
                (R64(a) + R64(b)).0
            }),
        },
        OpRow {
            name: "r64_sub",
            report: measure_binary(samples, &mut rng, (0, u64::MAX), words, |a, b| {
                (R64(a) - R64(b)).0
            }),
        },
        OpRow {
            name: "r64_mul",
            report: measure_binary(samples, &mut rng, (0, 0), words, |a, b| (R64(a) * R64(b)).0),
        },
        OpRow {
            name: "r64_neg",
            report: measure_binary(samples, &mut rng, (0, 0), words, |a, _| (-R64(a)).0),
        },
        OpRow {
            name: "r64_from_i64",
            report: measure_binary(samples, &mut rng, (i64::MIN as u64, 0), words, |a, _| {
                R64::from_i64(a as i64).0
            }),
        },
        OpRow {
            name: "beaver_combine",
            report: measure_binary(samples, &mut rng, (0, 0), words, |a, b| {
                (z + d * R64(b) + e * R64(a)).0
            }),
        },
    ];

    // Positive control: a blatant secret-dependent branch. The fixed
    // class (even input) always takes the slow path; random inputs take
    // it half the time. A working harness must flag this.
    let control = measure_binary(
        samples,
        &mut rng,
        (0, 0),
        |r| (r.next_u64(), 0),
        |a, _| {
            let mut acc = a;
            if a & 1 == 0 {
                for i in 0..32 {
                    acc = acc.wrapping_mul(0x9E37_79B9).rotate_left(i % 7);
                }
            }
            acc
        },
    );

    let mut table = Table::new(&[
        "op",
        "|t| cropped",
        "t raw",
        "n fixed",
        "n random",
        "verdict",
    ]);
    let mut leaks = Vec::new();
    for row in &rows {
        let stat = row.report.statistic();
        let verdict = if stat <= threshold { "ok" } else { "LEAK?" };
        if stat > threshold {
            leaks.push(row.name);
        }
        table.row(vec![
            row.name.to_string(),
            format!("{stat:.2}"),
            format!("{:.2}", row.report.t_raw),
            row.report.n_fixed.to_string(),
            row.report.n_random.to_string(),
            verdict.to_string(),
        ]);
    }
    let control_stat = control.statistic();
    let control_ok = control_stat > threshold;
    table.row(vec![
        "leaky_control".to_string(),
        format!("{control_stat:.2}"),
        format!("{:.2}", control.t_raw),
        control.n_fixed.to_string(),
        control.n_random.to_string(),
        if control_ok {
            "detected (harness live)".to_string()
        } else {
            "NOT detected (noisy host?)".to_string()
        },
    ]);
    table.print();

    println!(
        "\nAll real ops must stay at |t| <= {threshold}; the control must exceed it \
         for the negatives to mean anything."
    );

    let mut failed = false;
    if !leaks.is_empty() {
        eprintln!("** timing leak suspected in: {leaks:?}");
        failed = enforce;
    }
    if !control_ok {
        eprintln!("** positive control below threshold — run is inconclusive on this host");
        if enforce_control {
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
