//! End-to-end acceptance test for the multi-process TCP deployment:
//! three real `dash party` OS processes over loopback must produce
//! results bit-identical to one `dash secure-scan` process, with the
//! per-party traffic totals summing to the in-process total and the
//! per-party disclosure logs unioning to the in-process log.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DASH: &str = env!("CARGO_BIN_EXE_dash");
const SEED: &str = "99";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dash_tcp_party_{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `dash` to completion (no watchdog needed for local commands).
fn dash(args: &[&str]) -> String {
    let out = Command::new(DASH).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "dash {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Waits for `child` with a deadline, killing it on expiry.
fn wait_with_watchdog(child: &mut Child, deadline: Duration, what: &str) -> bool {
    let start = Instant::now();
    loop {
        match child.try_wait().unwrap() {
            Some(status) => return status.success(),
            None if start.elapsed() > deadline => {
                child.kill().ok();
                child.wait().ok();
                panic!("{what}: party process hung past {deadline:?}");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The `N` from this tool's "traffic: N bytes total, …" report line.
fn traffic_bytes(text: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with("traffic:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no traffic line in:\n{text}"))
}

/// The indented entries under "disclosure log:", as a sorted multiset.
fn disclosure_multiset(text: &str) -> Vec<String> {
    let mut entries = Vec::new();
    let mut in_log = false;
    for line in text.lines() {
        if line == "disclosure log:" {
            in_log = true;
        } else if in_log {
            if let Some(entry) = line.strip_prefix("  ") {
                entries.push(entry.to_string());
            } else {
                in_log = false;
            }
        }
    }
    entries.sort();
    entries
}

/// Three `dash party` processes against one `dash secure-scan`, both
/// given `mode_args`: same TSV bytes everywhere, traffic totals that sum,
/// disclosure logs that union. Returns the single process's report.
fn three_processes_match_one(tag: &str, mode_args: &[&str]) -> String {
    let dir = tmp_dir(tag);
    dash(&[
        "simulate",
        "--out",
        dir.to_str().unwrap(),
        "--samples",
        "20,25,15",
        "--variants",
        "12",
        "--covariates",
        "2",
        "--seed",
        "5",
    ]);

    // Reserve three loopback ports, then free them for the parties.
    let holders: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers = holders
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect::<Vec<_>>()
        .join(",");
    drop(holders);

    let spawn_party = |i: usize| -> Child {
        Command::new(DASH)
            .args([
                "party",
                "--id",
                &i.to_string(),
                "--peers",
                &peers,
                "--dir",
                dir.join(format!("party{i}")).to_str().unwrap(),
                "--seed",
                SEED,
                "--out",
                dir.join(format!("res{i}.tsv")).to_str().unwrap(),
            ])
            .args(mode_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let mut children: Vec<Child> = (0..3).map(spawn_party).collect();

    // Drain stdout concurrently so a party can't block on a full pipe.
    let readers: Vec<_> = children
        .iter_mut()
        .map(|c| {
            let mut stdout = c.stdout.take().unwrap();
            std::thread::spawn(move || {
                use std::io::Read;
                let mut text = String::new();
                stdout.read_to_string(&mut text).unwrap();
                text
            })
        })
        .collect();
    for (i, child) in children.iter_mut().enumerate() {
        assert!(
            wait_with_watchdog(child, Duration::from_secs(120), &format!("party {i}")),
            "party {i} exited nonzero"
        );
    }
    let outputs: Vec<String> = readers.into_iter().map(|r| r.join().unwrap()).collect();

    // Reference run: same workload, same seed, one process.
    let ref_out = dir.join("ref.tsv");
    let mut ref_args = vec![
        "secure-scan",
        "--dir",
        dir.to_str().unwrap(),
        "--seed",
        SEED,
    ];
    ref_args.extend(["--out", ref_out.to_str().unwrap()]);
    ref_args.extend(mode_args);
    let ref_text = dash(&ref_args);

    // Bit-identical result files at every party and vs the reference.
    let want = std::fs::read_to_string(dir.join("ref.tsv")).unwrap();
    assert!(!want.is_empty());
    for i in 0..3 {
        let got = std::fs::read_to_string(dir.join(format!("res{i}.tsv"))).unwrap();
        assert_eq!(got, want, "party {i} results differ from secure-scan");
    }

    // Each process reports its own outbound bytes; the three partition
    // the in-process total exactly (same sender-side accounting point).
    let per_party: u64 = outputs.iter().map(|t| traffic_bytes(t)).sum();
    assert_eq!(per_party, traffic_bytes(&ref_text), "traffic totals");

    // Each party logs what it opened; the union is the shared log.
    let mut union: Vec<String> = outputs
        .iter()
        .flat_map(|t| disclosure_multiset(t))
        .collect();
    union.sort();
    assert_eq!(union, disclosure_multiset(&ref_text), "disclosure logs");

    std::fs::remove_dir_all(&dir).ok();
    ref_text
}

#[test]
fn three_party_processes_match_single_process_scan() {
    three_processes_match_one("e2e", &[]);
}

/// The strict rung as real processes: every process runs the dealer
/// stream itself and keeps its own slice, and 12 variants in blocks of 5
/// make that stream cross two block boundaries.
#[test]
fn three_party_processes_match_single_process_scan_in_max_mode() {
    let report = three_processes_match_one("e2e_max", &["--mode", "max", "--block-size", "5"]);
    assert!(report.contains("3 blocks of <= 5 variants"), "{report}");
}

#[test]
fn party_rejects_wrong_run_id() {
    // A party from a different run must be refused at the handshake —
    // fast, structured, before any protocol data flows.
    let dir = tmp_dir("runid");
    dash(&[
        "simulate",
        "--out",
        dir.to_str().unwrap(),
        "--samples",
        "8,9",
        "--variants",
        "4",
        "--causal",
        "2",
        "--seed",
        "6",
    ]);
    let holders: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers = holders
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect::<Vec<_>>()
        .join(",");
    drop(holders);

    let spawn = |i: usize, run_id: &str| -> Child {
        Command::new(DASH)
            .args([
                "party",
                "--id",
                &i.to_string(),
                "--peers",
                &peers,
                "--dir",
                dir.join(format!("party{i}")).to_str().unwrap(),
                "--seed",
                SEED,
                "--run-id",
                run_id,
                "--connect-retries",
                "5",
                "--accept-timeout-ms",
                "10000",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let mut a = spawn(0, "111");
    let mut b = spawn(1, "222");
    let ok_a = wait_with_watchdog(&mut a, Duration::from_secs(60), "party 0");
    let ok_b = wait_with_watchdog(&mut b, Duration::from_secs(60), "party 1");
    assert!(
        !ok_a && !ok_b,
        "mismatched run ids must fail both parties (got {ok_a}/{ok_b})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Guard for the helper itself: the reference parsers must agree with
/// the real report format (a silent format drift would turn the main
/// assertions vacuous).
#[test]
fn report_parsers_see_real_output() {
    let dir = tmp_dir("fmt");
    dash(&[
        "simulate",
        "--out",
        dir.to_str().unwrap(),
        "--samples",
        "8,9",
        "--variants",
        "4",
        "--causal",
        "2",
        "--seed",
        "6",
    ]);
    let text = dash(&[
        "secure-scan",
        "--dir",
        dir.to_str().unwrap(),
        "--seed",
        SEED,
    ]);
    assert!(traffic_bytes(&text) > 0);
    assert!(
        !disclosure_multiset(&text).is_empty(),
        "default mode disclosures expected:\n{text}"
    );
    let _ = Path::new(DASH);
    std::fs::remove_dir_all(&dir).ok();
}
