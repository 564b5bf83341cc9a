//! Checkpoint/resume at the library level: a checkpointed run must be
//! indistinguishable from a plain run (checkpoint writes are pure
//! observers), the files it leaves must be loadable and complete, and a
//! full-fleet resume from those files must reproduce the same output —
//! results, traffic accounting, disclosures — without re-running any
//! completed round. Each party's rows go to a file of raw row bits, a
//! sink that is durable the way the CLI's result TSV is. The harsher single-party `kill -9` mid-run path is
//! covered end-to-end by the `dash` CLI crash/resume test, which spawns
//! real processes.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::checkpoint::{self, CheckpointPolicy};
use dash_core::secure::{
    secure_scan, secure_scan_party_into, AggregationMode, SecureScanConfig, SecureScanOutput,
};
use dash_core::{CoreError, RowSink, ScanResult, ScanSummary};
use dash_linalg::Matrix;
use dash_mpc::tcp::{LinkSupervision, TcpConfig, TcpTransport};
use dash_mpc::{MpcError, NetworkStats};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A row sink over a file of row bits (β̂, σ̂, t, p; 32 B a row): rows are
/// appended as pushed, `durable` is an fsync, `resume` a truncation.
struct BitsFile {
    file: File,
    len: u64,
}

impl BitsFile {
    fn open(path: &Path, fresh: bool) -> BitsFile {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(fresh)
            .open(path)
            .unwrap();
        let len = file.metadata().unwrap().len();
        BitsFile { file, len }
    }
}

impl RowSink for BitsFile {
    fn push(&mut self, _first: usize, rows: &ScanResult) -> Result<(), CoreError> {
        let mut bytes = Vec::with_capacity(32 * rows.len());
        for j in 0..rows.len() {
            for v in [rows.beta[j], rows.se[j], rows.t[j], rows.p[j]] {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        self.file.write_all(&bytes).unwrap();
        self.len += bytes.len() as u64;
        Ok(())
    }
    fn durable(&mut self) -> Result<u64, CoreError> {
        self.file.sync_data().unwrap();
        Ok(self.len)
    }
    fn resume(&mut self, len: u64) -> Result<(), CoreError> {
        assert!(
            len <= self.len,
            "the file is shorter than the checkpoint says"
        );
        self.file.set_len(len).unwrap();
        self.len = self.file.seek(SeekFrom::Start(len)).unwrap();
        Ok(())
    }
}

/// The rows a [`BitsFile`] holds, with the run's `df`.
fn read_rows(path: &Path, df: usize) -> ScanResult {
    let bytes = std::fs::read(path).unwrap();
    let mut cols: [Vec<f64>; 4] = Default::default();
    for (i, word) in bytes.chunks_exact(8).enumerate() {
        cols[i % 4].push(f64::from_bits(u64::from_le_bytes(word.try_into().unwrap())));
    }
    let [beta, se, t, p] = cols;
    let n_degenerate = beta.iter().filter(|b| b.is_nan()).count();
    ScanResult {
        beta,
        se,
        t,
        p,
        df,
        n_degenerate,
    }
}

fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    sizes
        .iter()
        .map(|&n| {
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = Matrix::from_fn(n, m, |_, _| next());
            let c = Matrix::from_fn(n, k, |_, _| next());
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dash_ckpt_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs every party of a checkpointed scan on its own thread with its
/// own stats sink, transport and rows file `dir/rows<i>` — the
/// in-process stand-in for one OS process per party. With `resume`, each
/// party loads its checkpoint from `dir` and rejoins through
/// `connect_resume`. Each output's result is the rows its file holds.
fn run_tcp_checkpointed(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
    dir: &Path,
    resume: bool,
) -> Vec<Result<SecureScanOutput, CoreError>> {
    run_tcp_checkpointed_with(parties, cfg, dir, resume, LinkSupervision::default(), None)
}

/// A [`BitsFile`] that fails every push from variant `fail_at` on, the
/// way a result file on a full disk does.
struct FailingFrom {
    rows: BitsFile,
    fail_at: usize,
}

impl RowSink for FailingFrom {
    fn push(&mut self, first: usize, rows: &ScanResult) -> Result<(), CoreError> {
        if first >= self.fail_at {
            return Err(CoreError::Sink {
                what: "no space left for the rows".to_string(),
            });
        }
        self.rows.push(first, rows)
    }
    fn durable(&mut self) -> Result<u64, CoreError> {
        self.rows.durable()
    }
    fn resume(&mut self, len: u64) -> Result<(), CoreError> {
        self.rows.resume(len)
    }
}

/// [`run_tcp_checkpointed`] under `supervision`, with `failing =
/// Some((party, variant))` giving that party a sink that fails from that
/// variant's rows on.
fn run_tcp_checkpointed_with(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
    dir: &Path,
    resume: bool,
    supervision: LinkSupervision,
    failing: Option<(usize, usize)>,
) -> Vec<Result<SecureScanOutput, CoreError>> {
    let p = parties.len();
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(l.local_addr().unwrap());
        listeners.push(l);
    }
    // Checkpoints need the supervised transport: only it keeps the
    // replay buffers and cursors a resume reconciles against.
    let tcp_cfg = TcpConfig {
        run_id: cfg.seed,
        supervision: Some(supervision),
        ..TcpConfig::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let addrs = &addrs;
                scope.spawn(move || -> Result<SecureScanOutput, CoreError> {
                    let resume_from = if resume {
                        Some(Box::new(checkpoint::load(&checkpoint::checkpoint_path(
                            dir, i,
                        ))?))
                    } else {
                        None
                    };
                    let rs = resume_from.as_ref().and_then(|c| c.links.clone());
                    let stats = Arc::new(NetworkStats::with_trace(
                        p,
                        dash_core::TraceHandle::disabled(),
                    ));
                    let tcp = TcpTransport::connect_resume(i, listener, addrs, tcp_cfg, stats, rs)
                        .map_err(CoreError::Mpc)?;
                    let policy = CheckpointPolicy {
                        dir: dir.to_path_buf(),
                        resume_from,
                        crash_after_block: None,
                    };
                    let rows = dir.join(format!("rows{i}"));
                    let file = BitsFile::open(&rows, !resume);
                    let mut sink: Box<dyn RowSink> = match failing {
                        Some((party, fail_at)) if party == i => Box::new(FailingFrom {
                            rows: file,
                            fail_at,
                        }),
                        _ => Box::new(file),
                    };
                    let out =
                        secure_scan_party_into(&parties[i], cfg, tcp, &mut *sink, Some(&policy))?;
                    Ok(out.map(|s: ScanSummary| read_rows(&rows, s.df)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn sorted_disclosures(outs: &[SecureScanOutput]) -> Vec<(Option<usize>, String, usize)> {
    let mut v: Vec<_> = outs
        .iter()
        .flat_map(|o| o.disclosures.iter())
        .map(|d| (d.source_party, d.label.clone(), d.scalars))
        .collect();
    v.sort();
    v
}

#[test]
fn checkpointed_run_matches_plain_run_and_leaves_complete_checkpoints() {
    // Three blocks of 2, then `None`: one block of all 6 variants.
    for (block_size, final_boundary) in [(Some(2), 3), (None, 1)] {
        checkpointed_run_matches_plain_run(block_size, final_boundary);
    }
}

fn checkpointed_run_matches_plain_run(block_size: Option<usize>, final_boundary: u32) {
    let parties = gen_parties(&[9, 7, 8], 6, 2, 0xC0FFEE);
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::MaskedPrg,
        block_size,
        seed: 0x5AFE,
        ..SecureScanConfig::default()
    };
    let dir = temp_dir(&format!("clean{final_boundary}"));
    let reference = secure_scan(&parties, &cfg).unwrap();
    let outs: Vec<_> = run_tcp_checkpointed(&parties, &cfg, &dir, false)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();

    // Checkpointing is a pure observer: bit-identical results, and the
    // per-process outbound traffic sums to the shared-network total.
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(
            o.result, reference.result,
            "party {i} diverged from the plain run"
        );
    }
    let summed: u64 = outs.iter().map(|o| o.network.total_bytes).sum();
    assert_eq!(summed, reference.network.total_bytes, "traffic total");
    assert_eq!(
        sorted_disclosures(&outs),
        {
            let mut v: Vec<_> = reference
                .disclosures
                .iter()
                .map(|d| (d.source_party, d.label.clone(), d.scalars))
                .collect();
            v.sort();
            v
        },
        "disclosure multiset"
    );

    // Every party left a complete, loadable checkpoint at the final
    // boundary.
    for i in 0..parties.len() {
        let cp = checkpoint::load(&checkpoint::checkpoint_path(&dir, i)).unwrap();
        assert_eq!(cp.next_block, final_boundary, "party {i} final boundary");
        assert_eq!(cp.fingerprint.party, i as u64);
        assert_eq!(cp.fingerprint.seed, cfg.seed);
        assert!(cp.links.is_some(), "TCP runs must persist link cursors");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_fleet_resume_reproduces_identical_output() {
    for block_size in [Some(2), None] {
        full_fleet_resume(block_size);
    }
}

fn full_fleet_resume(block_size: Option<usize>) {
    let parties = gen_parties(&[8, 6, 7], 5, 2, 0xFEED);
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::MaskedStar,
        block_size,
        seed: 0xACE,
        ..SecureScanConfig::default()
    };
    let dir = temp_dir(&format!("fleet{}", block_size.unwrap_or(0)));
    let first: Vec<_> = run_tcp_checkpointed(&parties, &cfg, &dir, false)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();

    // Kill the whole fleet (here: let it finish and drop every socket),
    // then restart all parties from their checkpoints. The resumed run
    // must restore to the same final state: identical results, traffic
    // totals, and disclosure multiset — with no protocol round re-run.
    let resumed: Vec<_> = run_tcp_checkpointed(&parties, &cfg, &dir, true)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    for (i, (a, b)) in first.iter().zip(&resumed).enumerate() {
        assert_eq!(a.result, b.result, "party {i} result");
        assert_eq!(a.network, b.network, "party {i} network report");
        assert_eq!(a.per_block_bytes, b.per_block_bytes, "party {i} blocks");
    }
    assert_eq!(
        sorted_disclosures(&first),
        sorted_disclosures(&resumed),
        "disclosure multiset"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A fleet whose parties stopped a block apart resumes bit-identically.
/// Party 1's rows sink fails on block 1's rows, after that block's round
/// has closed, so its last checkpoint says block 1. Its peers checkpoint
/// block 1 and then wait in block 2 until its silence ends them, so theirs
/// say block 2. On resume, party 1 re-runs block 1 against its peers'
/// checkpointed replay backlog, the only copy of their block-1 frames
/// left, while they wait in block 2.
///
/// The first run's 3 s liveness deadline and reconnect window are what
/// end the survivors once party 1 is gone. Before party 1's sink fails,
/// a link falls silent only if a party thread stalls for 3 s, not for a
/// scheduling hiccup of a loaded host. The resumed run keeps the default
/// supervision.
#[test]
fn a_fleet_whose_parties_are_a_block_apart_resumes_bit_identically() {
    let parties = gen_parties(&[9, 8, 10], 6, 2, 0xA9A27);
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::MaskedPrg,
        block_size: Some(2),
        seed: 0xB10C,
        ..SecureScanConfig::default()
    };
    let reference = secure_scan(&parties, &cfg).unwrap();
    let short = LinkSupervision {
        heartbeat_interval: Duration::from_millis(100),
        liveness_deadline: Duration::from_secs(3),
        reconnect_window: Duration::from_secs(3),
    };
    let dir = temp_dir("apart");
    let failed = run_tcp_checkpointed_with(&parties, &cfg, &dir, false, short, Some((1, 2)));
    for (i, r) in failed.iter().enumerate() {
        match (i, r) {
            (1, Err(CoreError::Sink { .. })) => {}
            (0 | 2, Err(CoreError::Mpc(MpcError::PeerCrashed { peer: 1, .. }))) => {}
            other => panic!("party {i}: unexpected outcome {other:?}"),
        }
    }
    let next_block: Vec<u32> = (0..parties.len())
        .map(|i| {
            let cp = checkpoint::load(&checkpoint::checkpoint_path(&dir, i)).unwrap();
            cp.next_block
        })
        .collect();
    assert_eq!(next_block, [2, 1, 2], "checkpointed resume blocks");

    let resumed: Vec<_> =
        run_tcp_checkpointed_with(&parties, &cfg, &dir, true, LinkSupervision::default(), None)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
    for (i, o) in resumed.iter().enumerate() {
        assert_eq!(o.result, reference.result, "party {i} rows");
    }
    let summed = |f: fn(&SecureScanOutput) -> u64| resumed.iter().map(f).sum::<u64>();
    assert_eq!(
        (
            summed(|o| o.network.total_bytes),
            summed(|o| o.network.total_messages)
        ),
        (
            reference.network.total_bytes,
            reference.network.total_messages
        ),
        "summed traffic"
    );
    assert_eq!(
        sorted_disclosures(&resumed),
        sorted_disclosures(std::slice::from_ref(&reference)),
        "disclosure multiset"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint must count exactly the rows of the blocks before its
/// boundary: one row short, the resume is refused rather than run into
/// a result with a variant missing.
#[test]
fn a_checkpoint_missing_a_row_is_refused() {
    let parties = gen_parties(&[8, 7], 5, 1, 0xD0);
    let cfg = SecureScanConfig {
        block_size: Some(2),
        seed: 31,
        ..SecureScanConfig::default()
    };
    let dir = temp_dir("short_rows");
    run_tcp_checkpointed(&parties, &cfg, &dir, false)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    for i in 0..parties.len() {
        let path = checkpoint::checkpoint_path(&dir, i);
        let mut cp = checkpoint::load(&path).unwrap();
        assert_eq!(
            (cp.summary.rows, cp.sink_len),
            (5, 5 * 32),
            "party {i}: the final checkpoint counts every row"
        );
        cp.summary.rows -= 1;
        checkpoint::save(&path, &cp).unwrap();
    }
    for r in run_tcp_checkpointed(&parties, &cfg, &dir, true) {
        match r {
            Err(CoreError::Checkpoint { what }) => assert!(what.contains("rows"), "{what}"),
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsupported_configurations_fail_structurally() {
    let parties = gen_parties(&[6, 6], 2, 1, 0xBAD);
    let dir = temp_dir("guards");

    // Beaver mode: the y aggregate stays secret-shared; persisting it
    // would write share material to disk.
    let beaver = SecureScanConfig {
        aggregation: AggregationMode::BeaverDots,
        block_size: Some(1),
        seed: 7,
        ..SecureScanConfig::default()
    };
    for r in run_tcp_checkpointed(&parties, &beaver, &dir, false) {
        match r {
            Err(CoreError::Checkpoint { what }) => {
                assert!(what.contains("Beaver"), "{what}")
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    // An in-memory result cannot be made durable: refused before any
    // round, the way Beaver mode is.
    let in_memory = SecureScanConfig {
        block_size: Some(1),
        seed: 7,
        ..SecureScanConfig::default()
    };
    let (listeners, addrs): (Vec<_>, Vec<_>) = (0..2)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let a = l.local_addr().unwrap();
            (l, a)
        })
        .unzip();
    let tcp_cfg = TcpConfig {
        run_id: 7,
        supervision: Some(LinkSupervision::default()),
        ..TcpConfig::default()
    };
    std::thread::scope(|scope| {
        for (i, listener) in listeners.into_iter().enumerate() {
            let (addrs, parties, dir) = (&addrs, &parties, &dir);
            scope.spawn(move || {
                let stats = Arc::new(NetworkStats::with_trace(
                    2,
                    dash_core::TraceHandle::disabled(),
                ));
                let tcp = TcpTransport::connect(i, listener, addrs, tcp_cfg, stats).unwrap();
                let policy = CheckpointPolicy {
                    dir: dir.clone(),
                    ..CheckpointPolicy::default()
                };
                let mut result = ScanResult {
                    beta: vec![],
                    se: vec![],
                    t: vec![],
                    p: vec![],
                    df: 0,
                    n_degenerate: 0,
                };
                match secure_scan_party_into(
                    &parties[i],
                    &in_memory,
                    tcp,
                    &mut result,
                    Some(&policy),
                ) {
                    Err(CoreError::Checkpoint { what }) => {
                        assert!(what.contains("in-memory"), "{what}")
                    }
                    other => panic!("expected Checkpoint error, got {other:?}"),
                }
            });
        }
    });

    // A checkpoint from a different run (different seed) must be
    // rejected by its fingerprint, not silently diverge.
    let good = SecureScanConfig {
        block_size: Some(1),
        seed: 21,
        ..SecureScanConfig::default()
    };
    run_tcp_checkpointed(&parties, &good, &dir, false)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let assert_refused = |cfg: &SecureScanConfig| {
        for r in run_tcp_checkpointed(&parties, cfg, &dir, true) {
            match r {
                Err(CoreError::Checkpoint { what }) => {
                    assert!(what.contains("different run"), "{what}")
                }
                other => panic!("expected fingerprint mismatch, got {other:?}"),
            }
        }
    };
    assert_refused(&SecureScanConfig { seed: 22, ..good });

    // Retired code stays retired: aggregation code 1 named the deleted
    // share-based rung. A checkpoint carrying it matches no surviving
    // rung's fingerprint, so it is refused — never resumed under another.
    for i in 0..parties.len() {
        let path = checkpoint::checkpoint_path(&dir, i);
        let mut cp = checkpoint::load(&path).unwrap();
        cp.fingerprint.aggregation = 1;
        checkpoint::save(&path, &cp).unwrap();
    }
    for aggregation in [
        AggregationMode::Public,
        AggregationMode::MaskedPrg,
        AggregationMode::MaskedStar,
    ] {
        assert_refused(&SecureScanConfig {
            aggregation,
            ..good
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}
