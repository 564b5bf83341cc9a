//! The full per-party protocol: QR phase → private Q rows → summands →
//! aggregation → Lemma 2.1.
//!
//! Phase 2 has one shape: round 0 aggregates the block-independent y-side
//! statistics under ordinary protocol tags, then the variants are walked
//! in blocks of `block_size` columns (`None` ⇒ one block of M). Each
//! block runs its own secure round inside a [block-scoped tag
//! range](dash_mpc::net::BLOCK_TAG_BASE), while a producer thread
//! computes the *next* block's local summands concurrently (optionally
//! splitting each block's columns over `threads` workers). Peak summand
//! memory is O(K·B), and results are the same bits for every block size.

use crate::error::CoreError;
use crate::model::ScanResult;
use crate::scan::parallel::variant_summands;
use crate::secure::aggregate::YAggregate;
use crate::secure::checkpoint::{self, Checkpoint, CheckpointPolicy, Fingerprint};
use crate::secure::triples::TripleFeed;
use crate::secure::{
    aggregate, rfactor, AggregationMode, RFactorMode, SecureScanConfig, SummandSource,
};
use crate::suffstats::{ScanStats, VariantSummands};

use dash_linalg::{invert_upper, ops::gemm, Matrix};
use dash_mpc::protocol::masked::masked_sum_ring;
use dash_mpc::{CtxState, PartyCtx, R64};
use std::path::PathBuf;
use std::sync::mpsc;

/// Executes the secure scan from one party's perspective (SPMD — every
/// party runs this same function over the shared network). Generic over
/// the party's storage via [`SummandSource`].
///
/// With `policy`, the protocol state is persisted after the y round and
/// after every block, and — when `policy.resume_from` is set — the run
/// rejoins an interrupted one at its last durable block boundary instead
/// of starting over. Checkpointing needs a non-Beaver aggregation mode
/// and a transport with durable link identity (TCP);
/// anything else is a structured [`CoreError::Checkpoint`], never a
/// silently unusable checkpoint.
pub(crate) fn party_protocol_with<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
    policy: Option<&CheckpointPolicy>,
) -> Result<ScanResult, CoreError> {
    let m = data.n_variants();
    let k = data.covariates().cols();
    let block_size = cfg.block_size.unwrap_or(m);
    let Some(policy) = policy else {
        let _scan_span = ctx.trace_span("scan");
        let (n_total, _r, q_k) = count_and_rfactor(ctx, data.n_samples(), data.covariates(), cfg)?;
        return blocked_core(
            ctx, data, &q_k, n_total, block_size, cfg, triples, None, None,
        );
    };

    let (path, fingerprint) = checkpoint_target(ctx, cfg, policy, m, k, block_size)?;
    let _scan_span = ctx.trace_span("scan");
    let (n_total, r, q_k, resume) = match policy.resume_from.as_deref() {
        None => {
            let (n_total, r, q_k) =
                count_and_rfactor(ctx, data.n_samples(), data.covariates(), cfg)?;
            (n_total, r, q_k, None)
        }
        Some(cp) => {
            let (n_total, r, q_k, seed) = restore(ctx, data, cp, &fingerprint)?;
            (n_total, r, q_k, Some(seed))
        }
    };
    let saver = Saver {
        path,
        fingerprint,
        n_total: n_total as u64,
        r: r.as_slice().to_vec(),
        crash_after_block: policy.crash_after_block,
    };
    blocked_core(
        ctx,
        data,
        &q_k,
        n_total,
        block_size,
        cfg,
        triples,
        Some(&saver),
        resume,
    )
}

/// Steps 0 and 1, for every workload that starts with them: the pooled
/// sample count (needed by everyone for the degrees of freedom, summed
/// securely so individual cohort sizes stay private), the combined R
/// factor of the covariate rows `c`, and this party's private rows
/// `Q_k = C_k R⁻¹` (`n_samples`×0 when K = 0).
pub(crate) fn count_and_rfactor(
    ctx: &mut PartyCtx,
    n_samples: usize,
    c: &Matrix,
    cfg: &SecureScanConfig,
) -> Result<(usize, Matrix, Matrix), CoreError> {
    let k = c.cols();
    let n_total = {
        let _span = ctx.trace_span("phase:count");
        let own = [R64(n_samples as u64)];
        let total = masked_sum_ring(ctx, &own, "total sample count N")?;
        total
            .first()
            .map(|r| r.0 as usize)
            .ok_or(CoreError::ShapeMismatch {
                what: "aggregated sample count",
                expected: 1,
                got: 0,
            })?
    };
    if n_total <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n: n_total, k });
    }
    let _rfactor_span = ctx.trace_span("phase:rfactor");
    let r = rfactor::combine_r(ctx, c, cfg)?;
    let q_k = private_q(n_samples, c, &r)?;
    Ok((n_total, r, q_k))
}

/// The run's variant blocks as column ranges `[lo, hi)`, in order.
fn blocks(m: usize, block_size: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    let size = block_size.max(1);
    (0..m.div_ceil(size)).map(move |b| (b * size, ((b + 1) * size).min(m)))
}

/// Triples each Beaver round consumes — one dealer batch per entry: one
/// for the y round's `Qᵀy·Qᵀy`, then two per variant of each block.
pub(crate) fn triple_counts(m: usize, block_size: Option<usize>) -> impl Iterator<Item = usize> {
    let per_block = blocks(m, block_size.unwrap_or(m)).map(|(lo, hi)| 2 * (hi - lo));
    std::iter::once(1).chain(per_block)
}

fn private_q(n_samples: usize, c: &Matrix, r: &Matrix) -> Result<Matrix, CoreError> {
    if c.cols() == 0 {
        return Ok(Matrix::zeros(n_samples, 0));
    }
    Ok(gemm(c, &invert_upper(r)?)?)
}

fn ckpt_err(what: impl Into<String>) -> CoreError {
    CoreError::Checkpoint { what: what.into() }
}

/// Stable on-disk discriminants of the mode ladder (new modes append —
/// renumbering would invalidate every existing checkpoint). Aggregation
/// code 1 is retired with the share-based rung it named and is never
/// reused: a checkpoint carrying it fails the fingerprint comparison in
/// `restore`.
fn mode_codes(cfg: &SecureScanConfig) -> (u8, u8) {
    let rf = match cfg.rfactor {
        RFactorMode::PublicStack => 0,
        RFactorMode::PairwiseTree => 1,
        RFactorMode::GramAggregate => 2,
    };
    let agg = match cfg.aggregation {
        AggregationMode::Public => 0,
        AggregationMode::MaskedPrg => 2,
        AggregationMode::MaskedStar => 3,
        AggregationMode::BeaverDots => 4,
    };
    (rf, agg)
}

/// Block-boundary checkpoint writer for one party run.
struct Saver {
    path: PathBuf,
    fingerprint: Fingerprint,
    n_total: u64,
    /// Combined R factor, column-major K×K.
    r: Vec<f64>,
    crash_after_block: Option<u32>,
}

impl Saver {
    /// Persists the protocol state at a block boundary (`next_block` is
    /// the first block the resumed run would still execute), then tells
    /// the transport the just-fsynced receive cursors are durable so
    /// peers may prune their replay buffers up to them.
    #[allow(clippy::too_many_arguments)]
    fn save_boundary(
        &self,
        ctx: &PartyCtx,
        next_block: u32,
        head: &YAggregate,
        xy: &[f64],
        xx: &[f64],
        qtxqty: &[f64],
        qtxqtx: &[f64],
    ) -> Result<(), CoreError> {
        let YAggregate::Opened { yy, qty } = head else {
            return Err(ckpt_err(
                "cannot checkpoint a secret-shared y aggregate (Beaver mode)",
            ));
        };
        let state = ctx.protocol_state()?;
        let links = ctx.endpoint().link_snapshot();
        let snapshot = Checkpoint {
            fingerprint: self.fingerprint,
            n_total: self.n_total,
            next_block,
            rng: state.rng,
            pair_prgs: state.pair_prgs,
            tag_counter: state.tag_counter,
            r: self.r.clone(),
            yy: *yy,
            qty: qty.clone(),
            xy: xy.to_vec(),
            xx: xx.to_vec(),
            qtxqty: qtxqty.to_vec(),
            qtxqtx: qtxqtx.to_vec(),
            disclosures: ctx.audit().entries(),
            stats: ctx.endpoint().stats().snapshot(),
            links,
        };
        checkpoint::save(&self.path, &snapshot)?;
        if let Some(l) = &snapshot.links {
            ctx.endpoint().note_durable(&l.recv_next);
        }
        Ok(())
    }
}

/// Accumulator state a resumed run starts from instead of executing the
/// y round and blocks `< start_block`.
struct ResumeSeed {
    head: YAggregate,
    xy: Vec<f64>,
    xx: Vec<f64>,
    qtxqty: Vec<f64>,
    qtxqtx: Vec<f64>,
    start_block: u32,
}

/// Checks that this run can be checkpointed at all and returns where its
/// checkpoints go and the fingerprint that ties them to this run.
fn checkpoint_target(
    ctx: &PartyCtx,
    cfg: &SecureScanConfig,
    policy: &CheckpointPolicy,
    m: usize,
    k: usize,
    block_size: usize,
) -> Result<(PathBuf, Fingerprint), CoreError> {
    if cfg.aggregation == AggregationMode::BeaverDots {
        return Err(ckpt_err(
            "checkpointing is unsupported in Beaver mode: the y aggregate stays \
             secret-shared across blocks and share material must not be persisted",
        ));
    }
    if ctx.endpoint().link_snapshot().is_none() {
        return Err(ckpt_err(
            "transport has no durable link identity to checkpoint; run over TCP",
        ));
    }
    std::fs::create_dir_all(&policy.dir)
        .map_err(|e| ckpt_err(format!("create {}: {e}", policy.dir.display())))?;
    let (rf, agg) = mode_codes(cfg);
    let fingerprint = Fingerprint {
        seed: cfg.seed,
        party: ctx.id() as u64,
        n_parties: ctx.n_parties() as u64,
        m: m as u64,
        k: k as u64,
        rfactor: rf,
        aggregation: agg,
        ring_frac_bits: cfg.ring_frac_bits,
        field_frac_bits: cfg.field_frac_bits,
        block_size: block_size as u64,
    };
    Ok((
        checkpoint::checkpoint_path(&policy.dir, ctx.id()),
        fingerprint,
    ))
}

/// Validates a loaded checkpoint against this run and puts the party back
/// at its block boundary: returns `(N, R, Q_k, seed)` in place of steps 0
/// and 1, which never re-run — so nothing re-opens.
fn restore<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    cp: &Checkpoint,
    fingerprint: &Fingerprint,
) -> Result<(usize, Matrix, Matrix, ResumeSeed), CoreError> {
    let m = data.n_variants();
    let k = data.covariates().cols();
    if cp.fingerprint != *fingerprint {
        return Err(ckpt_err(format!(
            "checkpoint belongs to a different run: saved {:?}, this run is {:?}",
            cp.fingerprint, fingerprint
        )));
    }
    let n_total = usize::try_from(cp.n_total)
        .map_err(|_| ckpt_err("checkpointed sample count overflows usize"))?;
    if n_total <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n: n_total, k });
    }
    if cp.r.len() != k * k {
        return Err(ckpt_err("checkpointed R factor has the wrong shape"));
    }
    for (name, v) in [
        ("qty", &cp.qty),
        ("xy", &cp.xy),
        ("xx", &cp.xx),
        ("qtxqty", &cp.qtxqty),
        ("qtxqtx", &cp.qtxqtx),
    ] {
        let want = if name == "qty" { k } else { m };
        if v.len() != want {
            return Err(ckpt_err(format!(
                "checkpointed {name} has length {}, expected {want}",
                v.len()
            )));
        }
    }
    // Deterministic state back first: randomness, tags, the audit log,
    // and the traffic counters — so everything recorded from here on
    // continues the interrupted run exactly.
    ctx.restore_protocol_state(&CtxState {
        rng: cp.rng,
        pair_prgs: cp.pair_prgs.clone(),
        tag_counter: cp.tag_counter,
    })?;
    ctx.audit().restore(cp.disclosures.clone());
    ctx.endpoint().stats().restore_snapshot(&cp.stats)?;
    let r = Matrix::from_column_major(k, k, cp.r.clone())?;
    let q_k = private_q(data.n_samples(), data.covariates(), &r)?;
    let seed = ResumeSeed {
        head: YAggregate::Opened {
            yy: cp.yy,
            qty: cp.qty.clone(),
        },
        xy: cp.xy.clone(),
        xx: cp.xx.clone(),
        qtxqty: cp.qtxqty.clone(),
        qtxqtx: cp.qtxqtx.clone(),
        start_block: cp.next_block,
    };
    Ok((n_total, r, q_k, seed))
}

/// Phase 2 (see the module docs): local summands (storage-specific),
/// secure aggregation, finalization.
///
/// A producer thread computes block b+1's summands while the protocol
/// thread runs block b's secure round; a rendezvous channel of depth 1
/// bounds in-flight summand memory to two blocks.
///
/// With `saver`, the protocol state is persisted at every block boundary
/// (after the y round and after each block); with `resume`, the y round
/// and blocks `< start_block` are skipped and their results taken from
/// the checkpoint instead — the remainder of the run is bit-identical to
/// an uninterrupted one because all randomness, tags, and cursors were
/// restored to the boundary state.
#[allow(clippy::too_many_arguments)]
fn blocked_core<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    q_k: &Matrix,
    n_total: usize,
    block_size: usize,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
    saver: Option<&Saver>,
    resume: Option<ResumeSeed>,
) -> Result<ScanResult, CoreError> {
    let _agg_span = ctx.trace_span("phase:aggregate");
    let m = data.n_variants();
    let k = q_k.cols();
    let n_blocks = blocks(m, block_size).len();

    let (head, mut xy, mut xx, mut qtxqty, mut qtxqtx, start_block) = match resume {
        None => {
            // Round 0, under ordinary protocol tags: the y-side
            // statistics.
            let y_span = ctx.trace_span("round:y");
            let (yy_local, qty_local) = data.y_summands(q_k)?;
            let head = aggregate::aggregate_y(ctx, yy_local, &qty_local, m, cfg, triples)?;
            drop(y_span);
            let zero = vec![0.0; m];
            if let Some(s) = saver {
                s.save_boundary(ctx, 0, &head, &zero, &zero, &zero, &zero)?;
            }
            (head, zero.clone(), zero.clone(), zero.clone(), zero, 0)
        }
        Some(seed) => {
            let start = seed.start_block as usize;
            if start > n_blocks {
                return Err(ckpt_err(format!(
                    "checkpoint resumes at block {start} but this run has only {n_blocks} blocks"
                )));
            }
            (seed.head, seed.xy, seed.xx, seed.qtxqty, seed.qtxqtx, start)
        }
    };

    std::thread::scope(|scope| -> Result<(), CoreError> {
        let (tx, rx) = mpsc::sync_channel::<Result<VariantSummands, CoreError>>(1);
        let threads = cfg.threads;
        let producer = scope.spawn(move || {
            for (lo, hi) in blocks(m, block_size).skip(start_block) {
                let res = variant_summands(data, q_k, lo, hi, threads);
                let stop = res.is_err();
                if tx.send(res).is_err() || stop {
                    break;
                }
            }
        });
        let mut consume = || -> Result<(), CoreError> {
            for b in start_block..n_blocks {
                let summ = rx.recv().map_err(|_| CoreError::WorkerPanicked {
                    reason: "block producer exited without delivering a block".to_string(),
                })??;
                // Each block's secure round runs inside its own tag range,
                // so its traffic is attributed to the block and cannot
                // collide with neighbouring rounds even though parties may
                // momentarily be in different blocks.
                let _block_span = ctx.trace_span_at("block", b as u64);
                ctx.enter_block(b as u32).map_err(CoreError::from)?;
                let round_span = ctx.trace_span("round:secure");
                let agg = aggregate::aggregate_block(ctx, &summ, &head, cfg, triples);
                drop(round_span);
                ctx.exit_block().map_err(CoreError::from)?;
                let agg = agg?;
                let (lo, len) = (summ.lo, summ.len());
                xy[lo..lo + len].copy_from_slice(&agg.xy);
                xx[lo..lo + len].copy_from_slice(&agg.xx);
                qtxqty[lo..lo + len].copy_from_slice(&agg.qtxqty);
                qtxqtx[lo..lo + len].copy_from_slice(&agg.qtxqtx);
                if let Some(s) = saver {
                    s.save_boundary(ctx, (b + 1) as u32, &head, &xy, &xx, &qtxqty, &qtxqtx)?;
                    if s.crash_after_block == Some(b as u32) {
                        // The crash-injection hook: die the way kill -9
                        // does — no unwinding, no Drop, no flush — right
                        // after the block's checkpoint became durable.
                        std::process::abort();
                    }
                }
            }
            Ok(())
        };
        let res = consume();
        // Dropping the receiver unblocks a producer stuck on a full
        // channel before we join it; a producer panic outranks whatever
        // error made us bail.
        drop(rx);
        if let Err(payload) = producer.join() {
            return Err(CoreError::worker_panicked(payload.as_ref()));
        }
        res
    })?;

    let (yy, qtyqty) = head.y_stats();
    ScanStats {
        yy,
        xy,
        xx,
        qtyqty,
        qtxqty,
        qtxqtx,
    }
    .finalize(n_total, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{pool_parties, PartyData};
    use crate::scan::{associate, per_variant_ols};
    use crate::secure::{secure_scan, AggregationMode, RFactorMode};
    use dash_linalg::Matrix;

    fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            let mut acc = 0.0;
            for _ in 0..4 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (s >> 11) as f64 / (1u64 << 53) as f64;
            }
            (acc - 2.0) * (3.0f64).sqrt()
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

    /// Retired code stays retired: the four surviving rungs keep their
    /// on-disk discriminants, and 1 (the share-based rung) is not handed
    /// to anything else.
    #[test]
    fn mode_codes_keep_their_on_disk_values() {
        let code = |aggregation| {
            mode_codes(&SecureScanConfig {
                aggregation,
                ..SecureScanConfig::default()
            })
            .1
        };
        assert_eq!(code(AggregationMode::Public), 0);
        assert_eq!(code(AggregationMode::MaskedPrg), 2);
        assert_eq!(code(AggregationMode::MaskedStar), 3);
        assert_eq!(code(AggregationMode::BeaverDots), 4);
    }

    /// The central correctness claim: the secure multi-party scan equals
    /// the pooled plaintext scan (and hence pooled per-variant OLS), for
    /// every combination of modes.
    #[test]
    fn all_mode_combinations_match_pooled_scan() {
        let parties = gen_parties(&[15, 22, 18], 6, 3, 77);
        let pooled = pool_parties(&parties).unwrap();
        let reference = associate(&pooled).unwrap();
        for rf in [
            RFactorMode::PublicStack,
            RFactorMode::PairwiseTree,
            RFactorMode::GramAggregate,
        ] {
            for agg in [
                AggregationMode::Public,
                AggregationMode::MaskedPrg,
                AggregationMode::MaskedStar,
                AggregationMode::BeaverDots,
            ] {
                let cfg = SecureScanConfig {
                    rfactor: rf,
                    aggregation: agg,
                    seed: 5,
                    ..SecureScanConfig::default()
                };
                let out = secure_scan(&parties, &cfg).unwrap();
                let d = out.result.max_rel_diff(&reference).unwrap();
                assert!(d < 2e-5, "{rf:?}/{agg:?}: max rel diff {d}");
            }
        }
    }

    #[test]
    fn secure_scan_matches_naive_ols_tightly_in_default_mode() {
        let parties = gen_parties(&[30, 25], 5, 2, 99);
        let pooled = pool_parties(&parties).unwrap();
        let oracle = per_variant_ols(&pooled).unwrap();
        let out = secure_scan(&parties, &SecureScanConfig::paper_default(11)).unwrap();
        let d = out.result.max_rel_diff(&oracle).unwrap();
        assert!(d < 1e-6, "max rel diff vs lm(): {d}");
    }

    #[test]
    fn leakage_ladder_ordering() {
        let parties = gen_parties(&[12, 12, 12], 3, 2, 13);
        let leak_of = |rf, agg| {
            let cfg = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 9,
                ..SecureScanConfig::default()
            };
            let out = secure_scan(&parties, &cfg).unwrap();
            out.disclosures
                .iter()
                .filter(|d| d.source_party.is_some())
                .map(|d| d.scalars)
                .sum::<usize>()
        };
        let public = leak_of(RFactorMode::PublicStack, AggregationMode::Public);
        let default = leak_of(RFactorMode::PublicStack, AggregationMode::MaskedPrg);
        let tree = leak_of(RFactorMode::PairwiseTree, AggregationMode::MaskedPrg);
        let strict = leak_of(RFactorMode::GramAggregate, AggregationMode::BeaverDots);
        assert!(public > default, "public {public} vs default {default}");
        assert!(default >= tree, "default {default} vs tree {tree}");
        assert_eq!(strict, 0, "strict mode must leak nothing per-party");
    }

    #[test]
    fn single_party_degenerates_to_plain_scan() {
        let parties = gen_parties(&[40], 4, 2, 31);
        let reference = associate(&parties[0]).unwrap();
        let out = secure_scan(&parties, &SecureScanConfig::default()).unwrap();
        assert!(out.result.max_rel_diff(&reference).unwrap() < 1e-7);
        assert_eq!(out.n_parties, 1);
    }

    #[test]
    fn communication_independent_of_n() {
        // The headline claim: bytes do not grow with sample count.
        let small = gen_parties(&[20, 20], 8, 2, 1);
        let large = gen_parties(&[200, 200], 8, 2, 2);
        let cfg = SecureScanConfig::paper_default(3);
        let b_small = secure_scan(&small, &cfg).unwrap().network.total_bytes;
        let b_large = secure_scan(&large, &cfg).unwrap().network.total_bytes;
        assert_eq!(b_small, b_large, "traffic must not depend on N");
    }

    #[test]
    fn communication_linear_in_m() {
        let m8 = gen_parties(&[30, 30], 8, 2, 4);
        let m16 = gen_parties(&[30, 30], 16, 2, 5);
        let cfg = SecureScanConfig::paper_default(6);
        let b8 = secure_scan(&m8, &cfg).unwrap().network.total_bytes;
        let b16 = secure_scan(&m16, &cfg).unwrap().network.total_bytes;
        let ratio = b16 as f64 / b8 as f64;
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn collinear_pooled_covariates_detected() {
        // Two identical covariate columns across all parties.
        let mut parties = gen_parties(&[10, 10], 2, 2, 8);
        parties = parties
            .into_iter()
            .map(|p| {
                let col: Vec<f64> = p.c().col(0).to_vec();
                let c = Matrix::from_cols(&[&col, &col]).unwrap();
                PartyData::new(p.y().to_vec(), p.x().clone(), c).unwrap()
            })
            .collect();
        let err = secure_scan(&parties, &SecureScanConfig::default()).unwrap_err();
        assert_eq!(err, CoreError::CollinearCovariates);
    }

    #[test]
    fn k_zero_end_to_end() {
        let parties = gen_parties(&[15, 15], 3, 0, 12);
        let pooled = pool_parties(&parties).unwrap();
        let reference = associate(&pooled).unwrap();
        for agg in [AggregationMode::MaskedPrg, AggregationMode::BeaverDots] {
            let cfg = SecureScanConfig {
                aggregation: agg,
                seed: 2,
                ..SecureScanConfig::default()
            };
            let out = secure_scan(&parties, &cfg).unwrap();
            assert!(
                out.result.max_rel_diff(&reference).unwrap() < 1e-6,
                "{agg:?}"
            );
        }
    }
}
