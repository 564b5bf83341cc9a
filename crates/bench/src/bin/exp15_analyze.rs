//! E15 — analyzer runtime over the full workspace.
//!
//! `dash-analyze` runs a real recursive-descent parser and a
//! field-sensitive, closure-aware cross-function fixpoint (DESIGN.md §7).
//! That precision is only affordable if the gate stays interactive: it
//! runs on every `scripts/check.sh` invocation and in CI, so this
//! experiment pins the median full-workspace analysis under a hard
//! wall-clock budget. The run **asserts** the budget — a parser or
//! fixpoint regression that makes the gate sluggish fails the experiment
//! suite, not just developer patience.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_analyze::analyze_workspace;
use dash_bench::table::{fmt_seconds, Table};
use dash_bench::timing::time_median;
use std::path::{Path, PathBuf};

/// Hard wall-clock budget for one full-workspace analysis (median
/// of 5 runs). The hand-rolled lexer/parser clocks in far below this on
/// commodity hardware; the slack absorbs noisy shared CI machines.
const BUDGET_S: f64 = 1.5;

/// Walks up from the cwd to the workspace root; falls back to the
/// compile-time manifest location so `cargo run` works from anywhere.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root above crates/bench")
        .to_path_buf()
}

/// Counts `.rs` files and source lines under `crates/`, skipping build
/// output, to put the timings in throughput terms.
fn workspace_stats(root: &Path) -> (usize, usize) {
    let (mut files, mut lines) = (0usize, 0usize);
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(src) = std::fs::read_to_string(&path) {
                    files += 1;
                    lines += src.lines().count();
                }
            }
        }
    }
    (files, lines)
}

fn main() {
    let root = find_root();
    let (files, lines) = workspace_stats(&root);
    println!(
        "E15: analyzer runtime (workspace at {}, {files} .rs files, {lines} lines)\n",
        root.display()
    );

    let (t, report) = time_median(5, || analyze_workspace(&root).unwrap());
    let klines_per_s = lines as f64 / t.median_s / 1e3;

    let mut table = Table::new(&["quantity", "value"]);
    table.row(vec![
        "workspace analysis (median of 5)".into(),
        fmt_seconds(t.median_s),
    ]);
    table.row(vec![
        "throughput".into(),
        format!("{klines_per_s:.0} klines/s"),
    ]);
    table.row(vec!["findings".into(), report.findings.len().to_string()]);
    table.row(vec![
        "covered".into(),
        format!("{} functions in {} files", report.functions, report.files),
    ]);
    table.row(vec!["budget".into(), fmt_seconds(BUDGET_S)]);
    table.print();

    assert!(
        t.median_s < BUDGET_S,
        "workspace analysis took {} — breaches the {} gate budget",
        fmt_seconds(t.median_s),
        fmt_seconds(BUDGET_S)
    );
    println!(
        "\nThe analyzer covers the workspace in {} ({klines_per_s:.0} klines/s), inside the \
         {} budget — precise enough to gate every check.sh run without a cache.",
        fmt_seconds(t.median_s),
        fmt_seconds(BUDGET_S)
    );
}
