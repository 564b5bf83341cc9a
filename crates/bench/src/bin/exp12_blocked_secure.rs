//! E12 — block size and threads in the secure-scan pipeline.
//!
//! The secure scan aggregates the y-side statistics once, then walks the
//! variants in blocks of B columns: peak summand memory is O(K·B) (two
//! blocks in flight), block b+1's local compute overlaps block b's secure
//! round, and each block's columns can be split over worker threads.
//! `--block-size off` is the one-block case B = M. Results are the same
//! bits for every row (asserted below on every run).
//!
//! This binary sweeps the block size at a mid-sized shape and reports:
//!
//! - wall clock per block size and thread count, relative to one block;
//! - the analytic per-party summand-memory bound each configuration
//!   implies;
//! - the per-block traffic accounting (rounds × bytes).

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_bench::table::{fmt_bytes, fmt_seconds, Table};
use dash_bench::timing::time_median;
use dash_bench::workloads::normal_parties;
use dash_core::secure::{secure_scan, SecureScanConfig};

fn main() {
    let (m, k) = (4096usize, 8usize);
    let sizes = [1500usize, 1500, 1500];
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "E12: blocked secure-scan pipeline (N = {}, M = {m}, K = {k}, P = {}, \
         MaskedPrg, {cores} host cores)\n",
        sizes.iter().sum::<usize>(),
        sizes.len()
    );
    let parties = normal_parties(&sizes, m, k, 12);
    let base = SecureScanConfig {
        seed: 12,
        ..SecureScanConfig::default()
    };

    let mut t = Table::new(&[
        "configuration",
        "wall clock",
        "vs one block",
        "block rounds",
        "block-round traffic",
        "peak summand memory/party",
    ]);
    let mut one_block: Option<(f64, Vec<f64>)> = None;
    for block in [None, Some(1024usize), Some(256)] {
        for threads in [1usize, 2, 4] {
            let cfg = SecureScanConfig {
                block_size: block,
                threads,
                ..base
            };
            let (timed, out) = time_median(3, || secure_scan(&parties, &cfg).unwrap());
            let (one_s, one_beta) =
                one_block.get_or_insert_with(|| (timed.median_s, out.result.beta.clone()));
            // Bit-identity is part of the experiment's claim; NaN-safe
            // compare via bits.
            for (a, b) in out.result.beta.iter().zip(one_beta.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "block size changed the bits");
            }
            // Per-party peak summand floats: xy + xx + qtx for two blocks
            // in flight (one, when a single block covers all M).
            let width = block.unwrap_or(m);
            let in_flight = if width >= m { 1 } else { 2 };
            let mem = in_flight * (2 * width + k * width) * 8;
            t.row(vec![
                match block {
                    None => format!("B = M (block-size off), threads = {threads}"),
                    Some(b) => format!("B = {b}, threads = {threads}"),
                },
                fmt_seconds(timed.median_s),
                format!("{:.2}x", timed.median_s / *one_s),
                format!("{}", out.per_block_bytes.len()),
                fmt_bytes(out.per_block_bytes.iter().sum::<u64>()),
                fmt_bytes(mem as u64),
            ]);
        }
    }
    t.print();
    println!(
        "\nEvery row reproduced the same results bit for bit, with the \
         summand working set bounded by the block size. Block compute \
         dominates at this shape and overlaps the secure rounds; --threads \
         splits it over workers, which can only help up to the host's core \
         count ({cores} here)."
    );
}
