//! The smoke run, as `run.sh --smoke` does it: build `dash`, run every
//! workload on tiny shapes end to end and traced — three-process and
//! checkpoint runs included — and read the result line.

use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn smoke_run_passes_and_reports_every_workload() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench.parent().expect("benchmark/ sits in the repo");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let built = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dash-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .status()
        .expect("run cargo");
    assert!(built.success(), "building dash failed");
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);

    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dash-benchmark"))
        .arg("--smoke")
        .env("DASH_BIN", target.join("release/dash"))
        .env("DASH_BENCH_DIR", bench)
        .output()
        .expect("run dash-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The issue's 15 s, with room for a debug build of the benchmark.
    assert!(
        started.elapsed().as_secs() < 60,
        "smoke run took {:?}",
        started.elapsed()
    );

    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for name in [
        "rdemo.setup_s",
        "rdemo.checkpoint.party_wall_s",
        "widek.party_peak_rss_mb",
        "widek.trace.secure_party.kernel_frac",
        "thin.checkpoint.saves",
        "thin.secure.span.round_secure_s",
    ] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
    // 2048 variants in blocks of 128: one save after y and one per block.
    assert!(
        last.contains("\"thin.checkpoint.saves\": {\"value\": 17, "),
        "{last}"
    );
    assert!(
        !bench.join("data").exists(),
        "generated data was left behind"
    );
    assert!(bench.join("out/record.json").is_file());
}
