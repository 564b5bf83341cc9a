//! `dash party` — one protocol party as its own OS process over TCP.
//!
//! Where `dash secure-scan` simulates every party inside one process
//! (threads over in-memory channels), `dash party` runs exactly one
//! party against real sockets: launch P processes — one per data owner,
//! on one machine or several — pointing each at its own data directory
//! and the shared ordered peer list. The protocol, seeds, and framing
//! are identical, so the results are bit-identical to the in-process
//! run with the same `--seed`.
//!
//! ```text
//! dash party --id 0 --peers 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 \
//!            --dir workload/party0 --out party0.tsv &
//! dash party --id 1 --peers ... --dir workload/party1 --out party1.tsv &
//! dash party --id 2 --peers ... --dir workload/party2 --out party2.tsv
//! ```

use crate::args::Flags;
use crate::commands::{load_party_dir, ScanFlags};
use crate::error::CliError;
use dash_core::secure::checkpoint::{self, CheckpointPolicy};
use dash_core::secure::{secure_scan_party_checkpointed, secure_scan_party_with};
use dash_core::CoreError;
use dash_mpc::net::NetworkStats;
use dash_mpc::tcp::{LinkSupervision, TcpConfig, TcpTransport};
use dash_mpc::transport::Transport;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
dash party — run ONE party of the secure scan as its own process (TCP)

REQUIRED:
    --id K          this party's index, 0-based, into the peer list
    --peers LIST    comma-separated ordered addresses of ALL parties
                    (host:port; entry K is this party's own address)
    --dir DIR       this party's data directory with y.tsv / x.tsv / c.tsv

OPTIONS:
    --listen ADDR   bind address [default: the peer list's entry K]
    --mode MODE     security mode: public | default | star | tree | max
                    [default: default]
    --out FILE      write results TSV here
    --seed S        protocol seed — must match at every party [default: 42]
    --run-id R      handshake run identifier; rejects peers from a
                    different run [default: the protocol seed]
    --audit BOOL    print the disclosure log (true/false) [default: true]

OBSERVABILITY:
    --trace-out FILE  write a dash-trace/1 JSON trace for this party
    --metrics BOOL    print the per-party metrics summary [default: false]

BLOCKED PIPELINE:
    --block-size B  variant block size, or 'off' for one block of all
                    variants [default: 4096]
    --threads T     worker threads for block compute, >= 1 [default: 1]

TRANSPORT:
    --deadline-ms N         per-receive deadline in ms [default: 60000]
    --connect-timeout-ms N  per-attempt dial/hello timeout in ms [default: 2000]
    --connect-retries N     dial attempts per lower-id peer [default: 30]
    --accept-timeout-ms N   total wait for higher-id peers to dial in, and for
                            a dialed peer's hello reply, in ms [default: 30000]

SUPERVISION & CRASH RECOVERY:
    --supervise BOOL        idle-link heartbeats, slow-vs-dead liveness
                            verdicts and bounded reconnect [default: true]
    --heartbeat-ms N        idle-link heartbeat interval [default: 250]
    --liveness-timeout-ms N silence before a peer is declared dead
                            [default: 15000]
    --reconnect-window-ms N total time a broken link may spend
                            reconnecting [default: 15000]
    --checkpoint-dir DIR    persist resumable protocol state to
                            DIR/party-K.ckpt at every block boundary
                            (needs --supervise true)
    --resume BOOL           rejoin an interrupted run from the checkpoint
                            in --checkpoint-dir [default: false]";

/// Parses the full ordered `host:port,host:port,…` peer list.
fn parse_peers(raw: &str) -> Result<Vec<SocketAddr>, CliError> {
    raw.split(',')
        .map(|tok| {
            tok.trim().parse().map_err(|_| CliError::BadValue {
                flag: "--peers".into(),
                value: tok.trim().to_string(),
                expected: "a socket address (host:port)",
            })
        })
        .collect()
}

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, USAGE)?;
    let id_raw = flags.required("id", USAGE)?;
    let id: usize = id_raw.parse().map_err(|_| CliError::BadValue {
        flag: "--id".into(),
        value: id_raw,
        expected: "a 0-based party index",
    })?;
    let peers = parse_peers(&flags.required("peers", USAGE)?)?;
    let dir = PathBuf::from(flags.required("dir", USAGE)?);
    let scan = ScanFlags::parse(&flags)?;
    let run_id = flags.parse_or("run-id", scan.seed, "an integer run identifier")?;
    let connect_timeout_ms = flags.parse_or("connect-timeout-ms", 2_000u64, "milliseconds")?;
    let connect_retries = flags.parse_or("connect-retries", 30u32, "an attempt count")?;
    let accept_timeout_ms = flags.parse_or("accept-timeout-ms", 30_000u64, "milliseconds")?;
    let listen = flags.optional("listen");
    let supervise = flags.parse_or("supervise", true, "true or false")?;
    let heartbeat_ms = flags.parse_or("heartbeat-ms", 250u64, "milliseconds")?;
    let liveness_timeout_ms = flags.parse_or("liveness-timeout-ms", 15_000u64, "milliseconds")?;
    let reconnect_window_ms = flags.parse_or("reconnect-window-ms", 15_000u64, "milliseconds")?;
    let checkpoint_dir = flags.optional("checkpoint-dir").map(PathBuf::from);
    let resume = flags.parse_or("resume", false, "true or false")?;
    // Undocumented crash-injection hook for the recovery test matrix:
    // abort the process right after block N's checkpoint is durable.
    let crash_after_block = match flags.optional("crash-after-block") {
        None => None,
        Some(raw) => Some(raw.parse::<u32>().map_err(|_| CliError::BadValue {
            flag: "--crash-after-block".into(),
            value: raw,
            expected: "a 0-based block index",
        })?),
    };
    flags.reject_unknown(USAGE)?;

    if checkpoint_dir.is_some() && !supervise {
        return Err(CliError::BadValue {
            flag: "--checkpoint-dir".into(),
            value: "with --supervise false".into(),
            expected: "supervision enabled (checkpoints resume through the supervised link state)",
        });
    }
    if resume && checkpoint_dir.is_none() {
        return Err(CliError::BadValue {
            flag: "--resume".into(),
            value: "true".into(),
            expected: "--checkpoint-dir pointing at the interrupted run's checkpoints",
        });
    }

    let n = peers.len();
    if id >= n {
        return Err(CliError::BadValue {
            flag: "--id".into(),
            value: id.to_string(),
            expected: "an index into the --peers list",
        });
    }
    if n < 2 {
        return Err(CliError::BadValue {
            flag: "--peers".into(),
            value: n.to_string(),
            expected: "at least two party addresses",
        });
    }

    let cfg = scan.config()?;
    let trace = scan.trace(n);
    let stats = Arc::new(NetworkStats::with_trace(n, trace.clone()));
    let own = listen.as_deref().unwrap_or("");
    let bind_addr = if own.is_empty() {
        peers.get(id).map(|a| a.to_string()).unwrap_or_default()
    } else {
        own.to_string()
    };
    let listener = TcpListener::bind(&bind_addr)?;
    writeln!(
        out,
        "party {id} of {n} listening on {} (run id {run_id})",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or(bind_addr),
    )?;
    out.flush()?;
    // Loaded only now, with the listener bound: peers that finish parsing
    // first queue their dials in the accept backlog instead of spending
    // --connect-retries while a large cohort is still being read.
    let data = load_party_dir(&dir)?;

    let tcp_cfg = TcpConfig {
        run_id,
        connect_timeout: Duration::from_millis(connect_timeout_ms),
        connect_retries,
        accept_timeout: Duration::from_millis(accept_timeout_ms),
        supervision: supervise.then(|| LinkSupervision {
            heartbeat_interval: Duration::from_millis(heartbeat_ms),
            liveness_deadline: Duration::from_millis(liveness_timeout_ms),
            reconnect_window: Duration::from_millis(reconnect_window_ms),
            ..LinkSupervision::default()
        }),
        ..TcpConfig::default()
    };

    // When resuming, the checkpoint must be loaded *before* connecting:
    // the hello handshake carries its per-link receive cursors so
    // surviving peers replay exactly the frames this process lost.
    let loaded = if resume {
        let dir = checkpoint_dir
            .as_deref()
            .unwrap_or(std::path::Path::new("."));
        Some(Box::new(checkpoint::load(&checkpoint::checkpoint_path(
            dir, id,
        ))?))
    } else {
        None
    };
    let resume_state = loaded.as_ref().and_then(|c| c.links.clone());
    if resume {
        writeln!(
            out,
            "party {id}: resuming from block {}",
            loaded.as_ref().map(|c| c.next_block).unwrap_or(0)
        )?;
        out.flush()?;
    }
    let transport =
        TcpTransport::connect_resume(id, listener, &peers, tcp_cfg, stats, resume_state)
            .map_err(|e| CliError::Core(CoreError::Mpc(e)))?;
    writeln!(out, "party {id}: all {n} parties connected")?;
    out.flush()?;

    let output = match checkpoint_dir {
        Some(dir) => {
            // Advertise the durable receive cursors immediately (zeros on
            // a fresh run, the checkpoint's on resume) so peers never
            // prune replay frames this process could still re-request
            // after a crash.
            let durable = loaded
                .as_ref()
                .and_then(|c| c.links.as_ref().map(|l| l.recv_next.clone()))
                .unwrap_or_else(|| vec![0; n]);
            transport.note_durable(&durable);
            let policy = CheckpointPolicy {
                dir,
                resume_from: loaded,
                crash_after_block,
            };
            secure_scan_party_checkpointed(&data, &cfg, transport, &policy)?
        }
        None => secure_scan_party_with(&data, &cfg, transport)?,
    };
    scan.report(out, &output, &trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bad_id_and_peer_list_rejected() {
        let mut buf = Vec::new();
        let err = run(
            &argv(&[
                "--id",
                "3",
                "--peers",
                "127.0.0.1:1,127.0.0.1:2",
                "--dir",
                "x",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--id"), "{err}");
        let err = run(
            &argv(&["--id", "0", "--peers", "127.0.0.1:1", "--dir", "x"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--peers"), "{err}");
        let err = run(
            &argv(&["--id", "0", "--peers", "not-an-addr", "--dir", "x"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("socket address"), "{err}");
    }

    #[test]
    fn missing_required_flags_show_usage() {
        let mut buf = Vec::new();
        let err = run(&argv(&[]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("--id"), "{err}");
    }

    /// Regression (dial race): the listener must be bound and announced
    /// before the cohort is parsed, so peers' dials queue in the accept
    /// backlog meanwhile. A malformed `x.tsv` makes the load fail; the
    /// `listening on` line must already have been printed.
    #[test]
    fn listens_before_loading_the_cohort() {
        let dir = tmp_dir("party_listen_first");
        write_party(&dir, &toy_party(6, 2, 1, 5));
        std::fs::write(dir.join("x.tsv"), "1.0\tnot-a-number\n").unwrap();
        let mut buf = Vec::new();
        let err = run(
            &argv(&[
                "--id",
                "0",
                "--peers",
                "127.0.0.1:0,127.0.0.1:1",
                "--dir",
                dir.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("party 0 of 2 listening on"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Full in-test run: three `run()` calls on three threads over real
    /// loopback sockets must agree bit-for-bit with the in-process scan.
    #[test]
    fn three_parties_over_loopback_match_inprocess() {
        let dir = tmp_dir("party_cmd");
        let datasets = [
            toy_party(14, 4, 2, 21),
            toy_party(11, 4, 2, 22),
            toy_party(9, 4, 2, 23),
        ];
        for (i, p) in datasets.iter().enumerate() {
            write_party(&dir.join(format!("party{i}")), p);
        }
        // Reserve three distinct loopback ports, then release them for
        // the parties to bind (the race window is negligible in tests).
        let holders: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers = holders
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect::<Vec<_>>()
            .join(",");
        drop(holders);

        let outputs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let dir = dir.clone();
                    let peers = peers.clone();
                    s.spawn(move || {
                        let res_file = dir.join(format!("res{i}.tsv"));
                        let mut buf = Vec::new();
                        run(
                            &argv(&[
                                "--id",
                                &i.to_string(),
                                "--peers",
                                &peers,
                                "--dir",
                                dir.join(format!("party{i}")).to_str().unwrap(),
                                "--seed",
                                "99",
                                "--audit",
                                "false",
                                "--out",
                                res_file.to_str().unwrap(),
                            ]),
                            &mut buf,
                        )
                        .unwrap();
                        String::from_utf8(buf).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, text) in outputs.iter().enumerate() {
            assert!(
                text.contains("secure scan over 3 parties"),
                "party {i}: {text}"
            );
        }

        // Reference: the in-process path with the same seed.
        let cfg = dash_core::secure::SecureScanConfig {
            block_size: Some(4096),
            ..dash_core::secure::SecureScanConfig::paper_default(99)
        };
        let reference = dash_core::secure_scan(&datasets, &cfg).unwrap();
        let ref_file = dir.join("ref.tsv");
        dash_gwas::io::write_scan_tsv(&ref_file, &reference.result).unwrap();
        let want = std::fs::read_to_string(&ref_file).unwrap();
        for i in 0..3 {
            let got = std::fs::read_to_string(dir.join(format!("res{i}.tsv"))).unwrap();
            assert_eq!(got, want, "party {i} results differ from in-process run");
        }
        // Each party reports its own outbound traffic; together the three
        // processes account for exactly the in-process total.
        let sent: u64 = outputs
            .iter()
            .map(|text| {
                text.lines()
                    .find(|l| l.starts_with("traffic:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap()
            })
            .sum();
        assert_eq!(sent, reference.network.total_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
