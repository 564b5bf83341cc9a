//! Crash-recovery acceptance for the multi-process deployment: one
//! `dash party` process dies the way `kill -9` kills it (no unwinding,
//! no flush) right after a block boundary's checkpoint became durable,
//! is restarted with `--resume`, and the fleet's final result TSVs,
//! traffic totals and disclosure multisets must be byte-identical to an
//! uninterrupted run of the same workload and seed.
//!
//! The crashed party's results file ends past what its checkpoint counts
//! (the state a crash between the file's fsync and the checkpoint's
//! rename leaves); the resume cuts it back.
//!
//! Also covers the unrecoverable paths: a crashed peer that never comes
//! back must fail the survivors with a structured liveness error inside
//! the reconnect window (never a hang), a resume under a different
//! protocol seed must be refused as belonging to a different run, and a
//! results file shorter than its checkpoint records, or missing, is
//! refused by name.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const DASH: &str = env!("CARGO_BIN_EXE_dash");
const SEED: &str = "99";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dash_crash_resume_{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `dash` to completion (local commands need no watchdog).
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

/// Waits for `child` with a deadline, killing it on expiry. Returns the
/// exit status so callers can assert on crash vs clean exit.
fn wait_with_watchdog(child: &mut Child, deadline: Duration, what: &str) -> ExitStatus {
    let start = Instant::now();
    loop {
        match child.try_wait().unwrap() {
            Some(status) => return status,
            None if start.elapsed() > deadline => {
                child.kill().ok();
                child.wait().ok();
                panic!("{what}: party process hung past {deadline:?}");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Reserves `n` distinct loopback ports and frees them for the parties.
fn reserve_peers(n: usize) -> String {
    let holders: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers = holders
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect::<Vec<_>>()
        .join(",");
    drop(holders);
    peers
}

/// Drains a child's stdout on a thread so a full pipe can't block it.
fn drain_stdout(child: &mut Child) -> std::thread::JoinHandle<String> {
    let mut stdout = child.stdout.take().unwrap();
    std::thread::spawn(move || {
        use std::io::Read;
        let mut text = String::new();
        stdout.read_to_string(&mut text).ok();
        text
    })
}

/// The `N` from the "traffic: N bytes total, …" report line.
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

/// Spawns one checkpointed `dash party` process with extra flags.
fn spawn_party_seeded(
    dir: &std::path::Path,
    peers: &str,
    i: usize,
    seed: &str,
    extra: &[&str],
) -> Child {
    let ckpt = dir.join("ckpt");
    let mut args: Vec<String> = [
        "party",
        "--id",
        &i.to_string(),
        "--peers",
        peers,
        "--dir",
        dir.join(format!("party{i}")).to_str().unwrap(),
        "--seed",
        seed,
        "--block-size",
        "4",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--out",
        dir.join(format!("res{i}.tsv")).to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    Command::new(DASH)
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

fn spawn_party(dir: &std::path::Path, peers: &str, i: usize, extra: &[&str]) -> Child {
    spawn_party_seeded(dir, peers, i, SEED, extra)
}

/// The tentpole's acceptance test: SIGKILL-equivalent crash of one
/// party after block 0's checkpoint is durable, restart with --resume
/// inside the survivors' reconnect window, and the fleet must finish
/// with output byte-identical to an uninterrupted run.
#[test]
fn killed_party_resumes_bit_identical() {
    let dir = tmp_dir("kill");
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
    let peers = reserve_peers(3);

    // Party 2 is the victim: it dials everyone and accepts nobody, so
    // its listening port is guaranteed rebindable after the abort.
    let mut p0 = spawn_party(&dir, &peers, 0, &[]);
    let mut p1 = spawn_party(&dir, &peers, 1, &[]);
    let mut victim = spawn_party(&dir, &peers, 2, &["--crash-after-block", "0"]);
    let out0 = drain_stdout(&mut p0);
    let out1 = drain_stdout(&mut p1);
    let _victim_out = drain_stdout(&mut victim);

    let crash = wait_with_watchdog(&mut victim, Duration::from_secs(120), "victim");
    assert!(
        !crash.success(),
        "the --crash-after-block party must die mid-run, got {crash:?}"
    );

    // Rows the checkpoint does not count, one whole and one cut short,
    // as a crash after the file's fsync and before the checkpoint's
    // rename leaves them.
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("res2.tsv"))
        .unwrap()
        .write_all(b"4\t0.5\t0.25\t2\t0.05\n5\t-0.125\t0.")
        .unwrap();

    // Restart the victim from its checkpoint while the survivors are
    // still inside their reconnect window.
    let mut revived = spawn_party(&dir, &peers, 2, &["--resume", "true"]);
    let out2 = drain_stdout(&mut revived);
    for (child, what) in [(&mut p0, "party 0"), (&mut p1, "party 1")] {
        let status = wait_with_watchdog(child, Duration::from_secs(120), what);
        assert!(status.success(), "{what} exited nonzero: {status:?}");
    }
    let status = wait_with_watchdog(&mut revived, Duration::from_secs(120), "revived party 2");
    assert!(status.success(), "resumed party failed: {status:?}");

    let outputs = [
        out0.join().unwrap(),
        out1.join().unwrap(),
        out2.join().unwrap(),
    ];
    assert!(
        outputs[2].contains("resuming from block 1"),
        "revived party must resume past the durable block:\n{}",
        outputs[2]
    );

    // Reference: the same workload, seed and block size, uninterrupted.
    let ref_text = dash(&[
        "secure-scan",
        "--dir",
        dir.to_str().unwrap(),
        "--seed",
        SEED,
        "--block-size",
        "4",
        "--out",
        dir.join("ref.tsv").to_str().unwrap(),
    ]);

    // Bit-identical result files at every party, including the one that
    // lived through a crash.
    let want = std::fs::read_to_string(dir.join("ref.tsv")).unwrap();
    assert!(!want.is_empty());
    for i in 0..3 {
        let got = std::fs::read_to_string(dir.join(format!("res{i}.tsv"))).unwrap();
        assert_eq!(got, want, "party {i} results differ from uninterrupted run");
    }

    // The revived process restores the crashed one's traffic snapshot,
    // replayed frames bypass accounting, and resumed blocks are sent
    // exactly once — so the three reports still partition the
    // uninterrupted total exactly.
    let per_party: u64 = outputs.iter().map(|t| traffic_bytes(t)).sum();
    assert_eq!(per_party, traffic_bytes(&ref_text), "traffic totals");

    // The disclosure union must equal the uninterrupted log: nothing
    // re-opened during recovery, nothing lost in the crash.
    let mut union: Vec<String> = outputs
        .iter()
        .flat_map(|t| disclosure_multiset(t))
        .collect();
    union.sort();
    assert_eq!(union, disclosure_multiset(&ref_text), "disclosure logs");

    std::fs::remove_dir_all(&dir).ok();
}

/// A peer that crashes and never comes back must fail the survivor with
/// a structured liveness verdict once the reconnect window closes —
/// bounded time, named peer, no hang.
#[test]
fn unresumed_crash_fails_survivors_structurally() {
    let dir = tmp_dir("norecover");
    dash(&[
        "simulate",
        "--out",
        dir.to_str().unwrap(),
        "--samples",
        "8,9",
        "--variants",
        "8",
        "--causal",
        "2",
        "--covariates",
        "2",
        "--seed",
        "6",
    ]);
    let peers = reserve_peers(2);
    let windows = [
        "--heartbeat-ms",
        "100",
        "--liveness-timeout-ms",
        "1500",
        "--reconnect-window-ms",
        "1500",
    ];
    let mut extra0 = windows.to_vec();
    extra0.extend(["--deadline-ms", "30000"]);
    let mut extra1 = windows.to_vec();
    extra1.extend(["--crash-after-block", "0"]);

    let mut survivor = spawn_party(&dir, &peers, 0, &extra0);
    let mut victim = spawn_party(&dir, &peers, 1, &extra1);
    let _out0 = drain_stdout(&mut survivor);
    let _out1 = drain_stdout(&mut victim);
    let mut err0 = survivor.stderr.take().unwrap();

    let crash = wait_with_watchdog(&mut victim, Duration::from_secs(120), "victim");
    assert!(!crash.success(), "victim must crash, got {crash:?}");

    // No restart: the survivor must give up on its own, well before its
    // 30 s receive deadline, and name the dead peer.
    let status = wait_with_watchdog(&mut survivor, Duration::from_secs(60), "survivor");
    assert!(
        !status.success(),
        "survivor must fail once the reconnect window closes"
    );
    let mut stderr = String::new();
    use std::io::Read;
    err0.read_to_string(&mut stderr).ok();
    assert!(
        stderr.contains("party 1 is dead"),
        "expected a structured liveness verdict, got:\n{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming under a different protocol seed is a different run: the
/// fingerprint check must refuse the checkpoint with a structured
/// error instead of producing silently wrong results.
#[test]
fn resume_with_wrong_seed_is_refused() {
    let dir = tmp_dir("wrongseed");
    dash(&[
        "simulate",
        "--out",
        dir.to_str().unwrap(),
        "--samples",
        "8,9",
        "--variants",
        "8",
        "--causal",
        "2",
        "--covariates",
        "2",
        "--seed",
        "7",
    ]);

    // A clean checkpointed run leaves complete checkpoints behind.
    let peers = reserve_peers(2);
    let mut a = spawn_party(&dir, &peers, 0, &[]);
    let mut b = spawn_party(&dir, &peers, 1, &[]);
    let _oa = drain_stdout(&mut a);
    let _ob = drain_stdout(&mut b);
    for (child, what) in [(&mut a, "party 0"), (&mut b, "party 1")] {
        let status = wait_with_watchdog(child, Duration::from_secs(120), what);
        assert!(status.success(), "{what} exited nonzero: {status:?}");
    }

    // Both parties restart with --resume but a different seed (and thus
    // a matching hello run id between them, so the handshake itself
    // succeeds — the *checkpoint* must be what refuses them).
    let peers = reserve_peers(2);
    let extra = ["--resume", "true"];
    let mut a = spawn_party_seeded(&dir, &peers, 0, "123", &extra);
    let mut b = spawn_party_seeded(&dir, &peers, 1, "123", &extra);
    let _oa = drain_stdout(&mut a);
    let _ob = drain_stdout(&mut b);
    let mut err_a = a.stderr.take().unwrap();
    let sa = wait_with_watchdog(&mut a, Duration::from_secs(120), "party 0");
    let sb = wait_with_watchdog(&mut b, Duration::from_secs(120), "party 1");
    assert!(
        !sa.success() && !sb.success(),
        "resume under a different seed must be refused at both parties"
    );
    let mut stderr = String::new();
    use std::io::Read;
    err_a.read_to_string(&mut stderr).ok();
    assert!(
        stderr.contains("different run"),
        "expected the fingerprint refusal, got:\n{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A resume whose results file holds fewer bytes than its checkpoint
/// records, or is gone, is refused with a structured error that names
/// the file — never continued into a table with rows missing.
#[test]
fn resume_with_a_short_or_missing_results_file_is_refused() {
    let dir = tmp_dir("shortfile");
    dash(&[
        "simulate",
        "--out",
        dir.to_str().unwrap(),
        "--samples",
        "8,9",
        "--variants",
        "8",
        "--causal",
        "2",
        "--covariates",
        "2",
        "--seed",
        "8",
    ]);
    let peers = reserve_peers(2);
    let mut a = spawn_party(&dir, &peers, 0, &[]);
    let mut b = spawn_party(&dir, &peers, 1, &[]);
    let _oa = drain_stdout(&mut a);
    let _ob = drain_stdout(&mut b);
    for (child, what) in [(&mut a, "party 0"), (&mut b, "party 1")] {
        let status = wait_with_watchdog(child, Duration::from_secs(120), what);
        assert!(status.success(), "{what} exited nonzero: {status:?}");
    }
    let stderr_of = |child: &mut Child| {
        let mut text = String::new();
        use std::io::Read;
        child.stderr.take().unwrap().read_to_string(&mut text).ok();
        text
    };

    // One byte short at party 0: refused once the checkpoint is read.
    let res0 = dir.join("res0.tsv");
    let len = std::fs::metadata(&res0).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&res0)
        .unwrap()
        .set_len(len - 1)
        .unwrap();
    let peers = reserve_peers(2);
    let resume = ["--resume", "true"];
    let mut a = spawn_party(&dir, &peers, 0, &resume);
    let mut b = spawn_party(&dir, &peers, 1, &resume);
    let _oa = drain_stdout(&mut a);
    let _ob = drain_stdout(&mut b);
    let status = wait_with_watchdog(&mut a, Duration::from_secs(120), "party 0");
    wait_with_watchdog(&mut b, Duration::from_secs(120), "party 1");
    assert!(!status.success(), "party 0 resumed a short results file");
    let stderr = stderr_of(&mut a);
    assert!(
        stderr.contains(&format!("result file {} holds", res0.display())),
        "{stderr}"
    );

    // Missing at party 1: refused before it dials anyone.
    let res1 = dir.join("res1.tsv");
    std::fs::remove_file(&res1).unwrap();
    let mut b = spawn_party(&dir, &reserve_peers(2), 1, &resume);
    let status = wait_with_watchdog(&mut b, Duration::from_secs(60), "party 1");
    assert!(
        !status.success(),
        "party 1 resumed without its results file"
    );
    let stderr = stderr_of(&mut b);
    assert!(
        stderr.contains(&format!(
            "result file {} cannot be reopened",
            res1.display()
        )),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
