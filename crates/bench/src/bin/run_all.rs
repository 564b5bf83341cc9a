//! Runs every experiment binary in sequence, separated by banners — the
//! one-command reproduction of EXPERIMENTS.md.
//!
//! Each experiment is an independent binary; this runner invokes their
//! `main` logic in-process by shelling out to the sibling executables,
//! so a crash in one experiment doesn't lose the others' output.

// Experiment/bench binaries may abort on broken preconditions: an unwrap
// here fails the run loudly instead of printing a wrong table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp1_correctness",
    "exp2_scaling",
    "exp3_communication",
    "exp5_meta_power",
    "exp6_modes",
    "exp7_sparsity",
    "exp8_generalizations",
    "exp9_pca",
    "exp10_ablation",
    "exp11_logistic",
    "exp13_trace_overhead",
    "exp14_timing",
    "exp15_analyze",
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin directory");
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n{}", "=".repeat(72));
        println!("== {exp}");
        println!("{}", "=".repeat(72));
        let path = bin_dir.join(exp);
        match Command::new(&path).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("** {exp} exited with {status}");
                failures.push(*exp);
            }
            Err(e) => {
                eprintln!(
                    "** could not launch {} ({e}); build it with `cargo build --release -p dash-bench`",
                    path.display()
                );
                failures.push(*exp);
            }
        }
    }
    println!("\n{}", "=".repeat(72));
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
