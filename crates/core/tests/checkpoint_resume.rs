//! Checkpoint/resume at the library level: a checkpointed run must be
//! indistinguishable from a plain run (checkpoint writes are pure
//! observers), the files it leaves must be loadable and complete, and a
//! full-fleet resume from those files must reproduce the same output —
//! results, traffic accounting, disclosures — without re-running any
//! completed round. The harsher single-party `kill -9` mid-run path is
//! covered end-to-end by the `dash` CLI crash/resume test, which spawns
//! real processes.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::checkpoint::{self, CheckpointPolicy};
use dash_core::secure::{
    secure_scan, secure_scan_party_checkpointed, AggregationMode, SecureScanConfig,
    SecureScanOutput,
};
use dash_core::CoreError;
use dash_linalg::Matrix;
use dash_mpc::tcp::{LinkSupervision, TcpConfig, TcpTransport};
use dash_mpc::NetworkStats;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
/// own stats sink and transport — the in-process stand-in for one OS
/// process per party. With `resume`, each party loads its checkpoint
/// from `dir` and rejoins through `connect_resume`.
fn run_tcp_checkpointed(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
    dir: &Path,
    resume: bool,
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
        supervision: Some(LinkSupervision::default()),
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
                    secure_scan_party_checkpointed(&parties[i], cfg, tcp, &policy)
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

/// A checkpoint must hold exactly the rows of the blocks before its
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
            cp.rows.len(),
            5,
            "party {i}: the final checkpoint holds every row"
        );
        for v in [
            &mut cp.rows.beta,
            &mut cp.rows.se,
            &mut cp.rows.t,
            &mut cp.rows.p,
        ] {
            v.pop();
        }
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
