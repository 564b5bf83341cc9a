//! The full per-party protocol: QR phase → private Q rows → summands →
//! aggregation → Lemma 2.1.
//!
//! Phase 2 has one shape: round 0 aggregates the block-independent y-side
//! statistics under ordinary protocol tags, then the variants are walked
//! in blocks of `block_size` columns (`None` ⇒ one block of M). Each
//! block runs its own secure round inside a [block-scoped tag
//! range](dash_mpc::tags::BLOCK_TAG_BASE), while a producer thread
//! computes the *next* block's local summands concurrently (optionally
//! splitting each block's columns over `threads` workers). A block's
//! rows are final as soon as its round closes: it is finalized on its
//! own, folded into the run's [`ScanSummary`] and handed to the run's
//! [`RowSink`], so neither summands (O(K·B)) nor rows need grow with M.
//! Results are the same bits for every block size (finalization is per
//! variant).
//! Every party digests each block's opened statistics; only a party with
//! a sink — a lone party, or party 0 of an in-process run — also
//! finalizes them into rows.

use crate::error::CoreError;
use crate::model::{RowSink, ScanSummary};
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

/// One party's scan: the summary of the rows it finalized (none without
/// a sink) and its digest of what it opened.
pub(crate) struct PartyScan {
    pub(crate) summary: ScanSummary,
    pub(crate) digest: u64,
}

/// Executes the secure scan from one party's perspective (SPMD — every
/// party runs this same function over the shared network). Generic over
/// the party's storage via [`SummandSource`]; rows only with a `sink`.
///
/// With `policy`, the protocol state is persisted after the y round and
/// after every block, and — when `policy.resume_from` is set — the run
/// rejoins an interrupted one at its last durable block boundary instead
/// of starting over. Checkpointing needs a non-Beaver aggregation mode,
/// a transport with durable link identity (TCP) and a sink that can make
/// its rows durable; anything else is a structured
/// [`CoreError::Checkpoint`], never a silently unusable checkpoint.
pub(crate) fn party_protocol_with<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
    policy: Option<&CheckpointPolicy>,
    mut sink: Option<&mut dyn RowSink>,
) -> Result<PartyScan, CoreError> {
    let m = data.n_variants();
    let k = data.covariates().cols();
    let block_size = cfg.block_size.unwrap_or(m);
    let Some(policy) = policy else {
        let _scan_span = ctx.trace_span("scan");
        let (n_total, _r, q_k) = count_and_rfactor(ctx, data.n_samples(), data.covariates(), cfg)?;
        return blocked_core(
            ctx, data, &q_k, n_total, block_size, cfg, triples, None, None, sink,
        );
    };

    let (path, fingerprint) =
        checkpoint_target(ctx, cfg, policy, m, k, block_size, sink.as_deref_mut())?;
    let _scan_span = ctx.trace_span("scan");
    let (n_total, r, q_k, resume) = match policy.resume_from.as_deref() {
        None => {
            let (n_total, r, q_k) =
                count_and_rfactor(ctx, data.n_samples(), data.covariates(), cfg)?;
            (n_total, r, q_k, None)
        }
        Some(cp) => {
            let (n_total, r, q_k, resumed) =
                restore(ctx, data, cp, &fingerprint, sink.as_deref_mut())?;
            (n_total, r, q_k, Some(resumed))
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
        sink,
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
        let own = [R64::from(n_samples as u64)];
        let total = masked_sum_ring(ctx, &own, "total sample count N")?;
        total
            .first()
            .map(|&n| n as usize)
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

/// Where a run continues once the y round is behind it: the opened y
/// aggregate, the summary of the rows before the next block, and that
/// block.
type Resumed = (YAggregate, ScanSummary, usize);

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
    /// the first block the resumed run would still execute, `summary`
    /// that of the rows before it): first the sink's rows, then the
    /// checkpoint that records how long they are. Then it tells the
    /// transport the just-fsynced receive cursors are durable so peers
    /// may prune their replay buffers up to them.
    fn save_boundary(
        &self,
        ctx: &PartyCtx,
        next_block: u32,
        head: &YAggregate,
        summary: &ScanSummary,
        sink: Option<&mut (dyn RowSink + '_)>,
    ) -> Result<(), CoreError> {
        let YAggregate::Opened { yy, qty } = head else {
            return Err(ckpt_err(
                "cannot checkpoint a secret-shared y aggregate (Beaver mode)",
            ));
        };
        let sink_len = sink.map_or(Ok(0), RowSink::durable)?;
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
            sink_len,
            summary: *summary,
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

/// Checks that this run can be checkpointed at all and returns where its
/// checkpoints go and the fingerprint that ties them to this run.
fn checkpoint_target(
    ctx: &PartyCtx,
    cfg: &SecureScanConfig,
    policy: &CheckpointPolicy,
    m: usize,
    k: usize,
    block_size: usize,
    sink: Option<&mut (dyn RowSink + '_)>,
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
    if let Some(sink) = sink {
        sink.durable()?;
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
/// at its block boundary: returns `(N, R, Q_k)` and where to continue in
/// place of steps 0 and 1 and the y round, which never re-run — so
/// nothing re-opens — and of the blocks whose rows the sink already
/// holds, once it has dropped whatever it took after the checkpoint.
fn restore<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    cp: &Checkpoint,
    fingerprint: &Fingerprint,
    sink: Option<&mut (dyn RowSink + '_)>,
) -> Result<(usize, Matrix, Matrix, Resumed), CoreError> {
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
    if cp.qty.len() != k {
        return Err(ckpt_err(format!(
            "checkpointed qty has length {}, expected {k}",
            cp.qty.len()
        )));
    }
    let block_size = fingerprint.block_size as usize;
    let (next_block, n_blocks) = (cp.next_block as usize, blocks(m, block_size).len());
    if next_block > n_blocks {
        return Err(ckpt_err(format!(
            "checkpoint resumes at block {next_block} but this run has only {n_blocks} blocks"
        )));
    }
    // The rows of exactly the blocks before `next_block`, so the run
    // picks up where they end.
    let done = next_block.saturating_mul(block_size).min(m);
    let summary = cp.summary;
    if summary.rows != done || summary.n_degenerate > done {
        return Err(ckpt_err(format!(
            "checkpointed summary counts {} rows and {} degenerate, expected {done} rows \
             for the blocks before block {next_block}",
            summary.rows, summary.n_degenerate
        )));
    }
    if let Some(sink) = sink {
        sink.resume(cp.sink_len)?;
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
    let head = YAggregate::Opened {
        yy: cp.yy,
        qty: cp.qty.clone(),
    };
    Ok((n_total, r, q_k, (head, summary, next_block)))
}

/// Folds a block's opened statistics into the running digest `h`, a
/// rotate–xor–multiply step per `f64` bit pattern (NaN matches itself): a
/// bijection of `h`, so runs that differ in one opened word never agree.
fn digest_block(mut h: u64, s: &ScanStats) -> u64 {
    for words in [&[s.yy, s.qtyqty][..], &s.xy, &s.xx, &s.qtxqty, &s.qtxqtx] {
        for w in words {
            h = (h.rotate_left(5) ^ w.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    h
}

/// Phase 2 (see the module docs): local summands (storage-specific),
/// secure aggregation, finalization — block by block.
///
/// A producer thread computes block b+1's summands while the protocol
/// thread runs block b's secure round; a rendezvous channel of depth 1
/// bounds in-flight summand memory to two blocks. Each block's opened
/// statistics are digested, and — with a `sink` — finalized as soon as
/// its round closes, folded into the summary and pushed to the sink;
/// nothing of the block is kept.
///
/// With `saver`, the protocol state is persisted at every block boundary
/// (after the y round and after each block); with `resume`, the y round
/// and the blocks before its `next_block` are skipped — the remainder of
/// the run is bit-identical to an uninterrupted one because all
/// randomness, tags, and cursors were restored to the boundary state.
#[allow(
    clippy::too_many_arguments,
    reason = "every secure entry point funnels into this one driver; a struct of its inputs would only rename them"
)]
fn blocked_core<S: SummandSource>(
    ctx: &mut PartyCtx,
    data: &S,
    q_k: &Matrix,
    n_total: usize,
    block_size: usize,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
    saver: Option<&Saver>,
    resume: Option<Resumed>,
    mut sink: Option<&mut dyn RowSink>,
) -> Result<PartyScan, CoreError> {
    let _agg_span = ctx.trace_span("phase:aggregate");
    let m = data.n_variants();
    let k = q_k.cols();

    let (head, mut summary, start_block) = match resume {
        Some(resumed) => resumed,
        None => {
            // Round 0, under ordinary protocol tags: the y-side
            // statistics.
            let y_span = ctx.trace_span("round:y");
            let (yy_local, qty_local) = data.y_summands(q_k)?;
            let head = aggregate::aggregate_y(ctx, yy_local, &qty_local, m, cfg, triples)?;
            drop(y_span);
            let summary = ScanSummary {
                df: n_total.saturating_sub(k + 1),
                ..ScanSummary::default()
            };
            if let Some(s) = saver {
                s.save_boundary(ctx, 0, &head, &summary, sink.as_deref_mut())?;
            }
            (head, summary, 0)
        }
    };
    let mut digest = n_total as u64; // N was opened too

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
            for (b, (lo, _)) in blocks(m, block_size).enumerate().skip(start_block) {
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
                let stats = aggregate::aggregate_block(ctx, &summ, &head, cfg, triples);
                drop(round_span);
                ctx.exit_block().map_err(CoreError::from)?;
                let stats = stats?;
                digest = digest_block(digest, &stats);
                if let Some(sink) = sink.as_deref_mut() {
                    let rows = stats.finalize(n_total, k)?;
                    summary.add(&rows);
                    sink.push(lo, &rows)?;
                }
                if let Some(s) = saver {
                    s.save_boundary(ctx, (b + 1) as u32, &head, &summary, sink.as_deref_mut())?;
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
    Ok(PartyScan { summary, digest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{pool_parties, PartyData};
    use crate::scan::{associate, per_variant_ols};
    use crate::secure::{all_parties, run_scan, secure_scan, AggregationMode, RFactorMode};
    use dash_linalg::Matrix;
    use dash_obs::TraceHandle;

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

    /// The in-process seam: party 0 alone finalizes — parties 1 and 2 hand
    /// back no rows and reserve none — and every party's digest of what it
    /// opened is party 0's, in every aggregation mode and block size.
    #[test]
    fn only_party_zero_finalizes_and_every_digest_agrees() {
        let m = 7;
        let parties = gen_parties(&[15, 22, 18], m, 2, 41);
        for aggregation in [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ] {
            for block_size in [Some(1), Some(3), None] {
                let cfg = SecureScanConfig {
                    aggregation,
                    block_size,
                    seed: 17,
                    ..SecureScanConfig::default()
                };
                let what = format!("{aggregation:?}, B = {block_size:?}");
                let mut seen = Vec::new();
                let out = run_scan(&parties, None, &cfg, |slots| {
                    let parts = all_parties(&parties, &cfg, TraceHandle::disabled(), None, slots)?;
                    seen = parts
                        .0
                        .iter()
                        .map(|(rows, digest)| (rows.len(), rows.beta.capacity(), *digest))
                        .collect();
                    Ok(parts)
                })
                .unwrap();
                assert_eq!(out.result.len(), m, "{what}");
                assert_eq!(seen.len(), 3, "{what}");
                assert_eq!(seen[0].0, m, "{what}: party 0's rows");
                for (party, &(len, cap, digest)) in seen.iter().enumerate().skip(1) {
                    assert_eq!((len, cap), (0, 0), "{what}: party {party} kept rows");
                    assert_eq!(digest, seen[0].2, "{what}: party {party}'s digest");
                }
            }
        }
    }

    /// The digest reads bits: NaN statistics digest like themselves, and
    /// one flipped bit in any opened statistic moves it.
    #[test]
    fn digest_matches_nan_and_moves_on_any_flipped_bit() {
        let stats = ScanStats {
            yy: 2.0,
            xy: vec![f64::NAN, 1.0],
            xx: vec![0.5, 3.0],
            qtyqty: 1.0,
            qtxqty: vec![f64::NAN, 0.25],
            qtxqtx: vec![0.0, -1.0],
        };
        let base = digest_block(5, &stats);
        assert_eq!(digest_block(5, &stats.clone()), base);
        let words: [fn(&mut ScanStats) -> &mut f64; 6] = [
            |s| &mut s.yy,
            |s| &mut s.qtyqty,
            |s| &mut s.xy[0],
            |s| &mut s.xx[1],
            |s| &mut s.qtxqty[1],
            |s| &mut s.qtxqtx[0],
        ];
        for (i, word) in words.iter().enumerate() {
            for bit in [0, 31, 52, 63] {
                let mut flipped = stats.clone();
                let w = word(&mut flipped);
                *w = f64::from_bits(w.to_bits() ^ (1 << bit));
                assert_ne!(digest_block(5, &flipped), base, "word {i}, bit {bit}");
            }
        }
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
