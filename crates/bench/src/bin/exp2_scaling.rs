//! E2 — complexity claims of §2, Eq. (4)/(5).
//!
//! The scan costs `O(NK² + NKM/C)`; for constant K it is `O(NM/C)` —
//! the cost of reading the data. This binary sweeps N, M, K and the
//! thread count C and reports wall-clock medians plus the derived
//! element throughput `N·M / seconds`, which stays roughly flat along the
//! N and M sweeps if the claim holds, and the speedup along the C sweep.
//!
//! Every row also states the bound the paper's "cost of reading the data"
//! sets: the time this host takes to stream that row's own `X` once (an
//! integer sum over its 8·N·M bytes, wherever in the memory hierarchy a
//! buffer of that size lives), and the share of the scan that bound
//! accounts for.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_seconds, Table};
use dash_bench::timing::time_median;
use dash_bench::workloads::normal_single;
use dash_core::model::PartyData;
use dash_core::scan::{associate, associate_parallel};

/// Median seconds to read `data`'s `X` once: a wrapping integer sum the
/// compiler vectorises, so it runs as fast as memory delivers the words.
fn read_x_once_s(data: &PartyData) -> f64 {
    let x = data.x().as_slice();
    let (timed, _) = time_median(3, || {
        x.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()))
    });
    timed.median_s
}

/// One sweep row: the label, the median scan time, `derived(median)`, the
/// one-pass bound, and the share of the scan that bound accounts for.
fn scan_row(label: usize, data: &PartyData, derived: impl FnOnce(f64) -> String) -> Vec<String> {
    let (timed, _) = time_median(3, || associate(data).unwrap());
    let bound = read_x_once_s(data);
    vec![
        label.to_string(),
        fmt_seconds(timed.median_s),
        derived(timed.median_s),
        fmt_seconds(bound),
        format!("{:.2}", bound / timed.median_s),
    ]
}

fn main() {
    println!("E2: scan complexity — Eq. (4)/(5): O(NK^2 + NKM/C)\n");
    let throughput = [
        "median",
        "throughput (elems/s)",
        "read X once",
        "bound/median",
    ];

    // --- N sweep (M, K fixed) ---
    println!("N sweep (M = 4096, K = 4, 1 thread):");
    let mut t = Table::new(&[&["N"], &throughput[..]].concat());
    for n in [1000usize, 2000, 4000, 8000, 16000] {
        let data = normal_single(n, 4096, 4, 42);
        t.row(scan_row(n, &data, |s| {
            format!("{:.2e}", (n * 4096) as f64 / s)
        }));
    }
    t.print();

    // --- M sweep (N, K fixed) ---
    println!("\nM sweep (N = 4000, K = 4, 1 thread):");
    let mut t = Table::new(&[&["M"], &throughput[..]].concat());
    for m in [1024usize, 2048, 4096, 8192, 16384, 32768] {
        let data = normal_single(4000, m, 4, 43);
        t.row(scan_row(m, &data, |s| {
            format!("{:.2e}", (4000 * m) as f64 / s)
        }));
    }
    t.print();

    // --- K sweep (N, M fixed) ---
    println!(
        "\nK sweep (N = 4000, M = 4096, 1 thread) — cost grows ~linearly in K (the NKM term):"
    );
    let mut t = Table::new(&[
        "K",
        "median",
        "per-K cost vs K=1",
        "read X once",
        "bound/median",
    ]);
    let mut base = None;
    for k in [1usize, 2, 4, 8, 16, 24] {
        let data = normal_single(4000, 4096, k, 44);
        t.row(scan_row(k, &data, |s| {
            format!("{:.2}x", s / *base.get_or_insert(s))
        }));
    }
    t.print();

    // --- thread sweep ---
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    println!("\nthread sweep (N = 4000, M = 16384, K = 4; host has {cores} cores —");
    println!("on a single-core host the sweep measures threading overhead only):");
    let data = normal_single(4000, 16384, 4, 45);
    let (serial, _) = time_median(3, || associate(&data).unwrap());
    let mut t = Table::new(&["threads", "median", "speedup vs serial scan"]);
    for c in [1usize, 2, 4, 8, 16] {
        let (timed, _) = time_median(3, || associate_parallel(&data, c).unwrap());
        t.row(vec![
            c.to_string(),
            fmt_seconds(timed.median_s),
            format!("{:.2}x", serial.median_s / timed.median_s),
        ]);
    }
    t.print();
    println!(
        "\n(serial associate at the same size: {}; one thread reads this X once in {})",
        fmt_seconds(serial.median_s),
        fmt_seconds(read_x_once_s(&data))
    );
}
