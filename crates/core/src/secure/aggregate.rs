//! Phase 2 of the secure scan: aggregating the six statistics — the
//! y-side pair `(y·y, Qᵀy)` once (`aggregate_y`), then the variant-side
//! statistics one block at a time (`aggregate_block`).
//!
//! All four modes produce the same statistics (up to fixed-point rounding
//! far below f64 noise); they differ in what crosses the wire and what
//! opens. See the table in [`crate::secure`].

use crate::error::CoreError;
use crate::secure::triples::TripleFeed;
use crate::secure::wire::all_gather_f64;
use crate::secure::{AggregationMode, SecureScanConfig};
use crate::suffstats::VariantSummands;
use dash_linalg::{dot, self_dot, Matrix};
use dash_mpc::field::F61;
use dash_mpc::protocol::beaver::{beaver_inner_batch, open_field};
use dash_mpc::protocol::masked::{masked_sum_f64, masked_sum_star_f64};
use dash_mpc::{MpcError, PartyCtx, Secret};
use dash_obs::Counter;

/// Structured shape error for opened aggregate vectors that arrive with
/// fewer entries than the protocol's declared layout.
fn shape(what: &'static str, expected: usize, got: usize) -> CoreError {
    CoreError::ShapeMismatch {
        what,
        expected,
        got,
    }
}

/// The y-side aggregate of round 0: everything the per-block rounds need
/// from the block-independent statistics.
pub(crate) enum YAggregate {
    /// The aggregate `Qᵀy` opened (every mode except Beaver).
    Opened { yy: f64, qty: Vec<f64> },
    /// `Qᵀy` still secret-shared (Beaver mode): each party keeps its
    /// normalized additive share and only `Qᵀy·Qᵀy` has opened.
    BeaverShared {
        yy: f64,
        qty_share: Secret<Vec<F61>>,
        qtyqty: f64,
    },
}

impl YAggregate {
    /// `(y·y, Qᵀy·Qᵀy)` — the block-independent scalars of Lemma 2.1.
    pub(crate) fn y_stats(&self) -> (f64, f64) {
        match self {
            YAggregate::Opened { yy, qty } => (*yy, self_dot(qty)),
            YAggregate::BeaverShared { yy, qtyqty, .. } => (*yy, *qtyqty),
        }
    }
}

/// The per-variant aggregates of one variant block.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlockAggregate {
    pub xy: Vec<f64>,
    pub xx: Vec<f64>,
    pub qtxqty: Vec<f64>,
    pub qtxqtx: Vec<f64>,
}

/// Sums the gathered vectors element-wise in party order, starting from
/// zero. The order is fixed so `Public` sums are the same bits for every
/// block size.
fn sum_gathered(gathered: Vec<Vec<f64>>, len: usize) -> Result<Vec<f64>, CoreError> {
    let mut total = vec![0.0; len];
    for v in gathered {
        if v.len() != len {
            return Err(CoreError::ShapeMismatch {
                what: "gathered summand vector length",
                expected: len,
                got: v.len(),
            });
        }
        for (a, b) in total.iter_mut().zip(&v) {
            *a += b;
        }
    }
    Ok(total)
}

/// Round 0: aggregates the block-independent y-side summands
/// `(y·y, Qᵀy)` under the configured mode.
///
/// `m` is the total variant count — `Public` mode ("sharing them to
/// sum": everyone broadcasts raw summands, so every party's local
/// statistics leak) records its one disclosure entry per party here,
/// sized for the *full* summand vector.
///
/// Beaver mode, the strictest: `Qᵀy` and `QᵀX` stay secret-shared (each
/// party's summand *is* an additive share of the aggregate, masked by the
/// dealer's uniform triples during the openings); only the dot products
/// open. The left-hand sum `y·y` opens first and the shared vector is
/// normalized by `1/√(y·y)` (per block: `1/√(X·X_m)`) before encoding, so
/// every shared quantity has norm ≤ 1 per party. That keeps all Beaver
/// products within the Mersenne field's fixed-point headroom for any data
/// scale, and the opened products are rescaled exactly afterwards. This
/// round consumes the dealer's first batch, of one triple, for the
/// `(Qᵀy, Qᵀy)` product; each block round consumes one batch of two per
/// variant in ascending order, so the triple a product meets does not
/// depend on the block size.
pub(crate) fn aggregate_y(
    ctx: &mut PartyCtx,
    yy: f64,
    qty: &[f64],
    m: usize,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
) -> Result<YAggregate, CoreError> {
    let k = qty.len();
    let mut flat = Vec::with_capacity(1 + k);
    flat.push(yy);
    flat.extend_from_slice(qty);
    let opened = match cfg.aggregation {
        AggregationMode::Public => {
            // Recorded once for the whole run: this round sends the
            // 1 + k y-side scalars, and the per-block rounds send the
            // remaining m·(2 + k) — together the full summand vector.
            let full_count = 1 + 2 * m + k + k * m;
            debug_assert_eq!(
                full_count,
                flat.len() + m * (2 + k),
                "Public disclosure accounting out of sync with the y-round payload"
            );
            ctx.audit().record_party(
                ctx.id(),
                format!("party {} raw statistic summands", ctx.id()),
                full_count,
            );
            let tag = ctx.fresh_tag();
            let gathered = all_gather_f64(ctx, tag, &flat)?;
            sum_gathered(gathered, flat.len())?
        }
        AggregationMode::MaskedPrg => {
            masked_sum_f64(ctx, &cfg.ring_codec()?, &flat, "aggregate y·y, Qᵀy")?
        }
        AggregationMode::MaskedStar => {
            masked_sum_star_f64(ctx, &cfg.ring_codec()?, &flat, "aggregate y·y, Qᵀy")?
        }
        AggregationMode::BeaverDots => {
            let opened = masked_sum_f64(ctx, &cfg.ring_codec()?, &[yy], "aggregate y·y")?;
            let yy_total = *opened
                .first()
                .ok_or_else(|| shape("aggregated y·y", 1, 0))?;
            if k == 0 {
                return Ok(YAggregate::BeaverShared {
                    yy: yy_total,
                    qty_share: Secret::new(Vec::new()),
                    qtyqty: 0.0,
                });
            }
            let field_codec = cfg.field_codec()?;
            let y_scale = safe_inv_sqrt(yy_total);
            let qty_scaled: Vec<f64> = qty.iter().map(|v| v * y_scale).collect();
            let qty_share = Secret::new(field_codec.encode_field_vec(&qty_scaled)?);
            let batch = triples.take(1)?;
            ctx.trace_add(Counter::TriplesConsumed, 1);
            let product_shares = beaver_inner_batch(ctx, &qty_share, &qty_share, &batch)?;
            let opened = open_field(
                ctx,
                &product_shares,
                Some("projected response dot product (Qᵀy·Qᵀy)"),
            )?;
            let qtyqty = field_codec.decode_field_product(
                *opened
                    .first()
                    .ok_or_else(|| shape("opened Qᵀy·Qᵀy product", 1, 0))?,
            ) * yy_total;
            return Ok(YAggregate::BeaverShared {
                yy: yy_total,
                qty_share,
                qtyqty,
            });
        }
    };
    let (yy_total, qty_total) = opened
        .split_first()
        .ok_or_else(|| shape("aggregated y-side statistics", 1 + k, 0))?;
    Ok(YAggregate::Opened {
        yy: *yy_total,
        qty: qty_total.to_vec(),
    })
}

/// One per-block round: aggregates the variant-side summands of `block`
/// and reduces them against the y-side aggregate from [`aggregate_y`].
///
/// Element-wise, every secure sum here opens a value that does not depend
/// on the block size (fixed-point sums are exact and PRG masks cancel
/// exactly, regardless of how the vector is split across rounds), and
/// Beaver triples are consumed two per variant in ascending order — so
/// the returned aggregates are the same bits for every way of cutting
/// the variants into blocks.
pub(crate) fn aggregate_block(
    ctx: &mut PartyCtx,
    block: &VariantSummands,
    head: &YAggregate,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
) -> Result<BlockAggregate, CoreError> {
    let len = block.len();
    let k = block.qtx.rows();
    let qty = match head {
        YAggregate::Opened { qty, .. } => qty,
        YAggregate::BeaverShared { yy, qty_share, .. } => {
            return beaver_block(ctx, block, *yy, qty_share, cfg, triples)
        }
    };
    let mut flat = Vec::with_capacity(2 * len + k * len);
    flat.extend_from_slice(&block.xy);
    flat.extend_from_slice(&block.xx);
    flat.extend_from_slice(block.qtx.as_slice());
    let total = match cfg.aggregation {
        AggregationMode::Public => {
            // dash-analyze::allow(disclosure-completeness): the per-party
            // disclosure for the *whole* summand vector is recorded once in
            // `aggregate_y` (sized 1 + 2m + k + km); recording again per
            // block would double-count the same opening.
            let tag = ctx.fresh_tag();
            let gathered = all_gather_f64(ctx, tag, &flat)?;
            sum_gathered(gathered, flat.len())?
        }
        AggregationMode::MaskedPrg => masked_sum_f64(
            ctx,
            &cfg.ring_codec()?,
            &flat,
            "aggregate variant-block statistics",
        )?,
        AggregationMode::MaskedStar => masked_sum_star_f64(
            ctx,
            &cfg.ring_codec()?,
            &flat,
            "aggregate variant-block statistics",
        )?,
        AggregationMode::BeaverDots => {
            // The Beaver y round never opens `Qᵀy`.
            return Err(CoreError::from(MpcError::Protocol {
                what: "blocked Beaver round given an opened y-aggregate",
            }));
        }
    };
    let xy = total[..len].to_vec();
    let xx = total[len..2 * len].to_vec();
    let qtx = Matrix::from_column_major(k, len, total[2 * len..].to_vec())?;
    let mut qtxqty = Vec::with_capacity(len);
    let mut qtxqtx = Vec::with_capacity(len);
    for j in 0..len {
        // Same `dot`/`self_dot` reduction as `SuffStats::reduce`.
        let col = qtx.col(j);
        qtxqty.push(dot(col, qty));
        qtxqtx.push(self_dot(col));
    }
    Ok(BlockAggregate {
        xy,
        xx,
        qtxqty,
        qtxqtx,
    })
}

/// The Beaver block round: `X·y, X·X` open through a secure sum; `QᵀX`
/// stays shared, and against the shared, `1/√yy`-normalized `Qᵀy` the
/// round's batch of `2·len` triples opens two dot products per variant.
fn beaver_block(
    ctx: &mut PartyCtx,
    block: &VariantSummands,
    yy: f64,
    qty_share: &Secret<Vec<F61>>,
    cfg: &SecureScanConfig,
    triples: &mut TripleFeed,
) -> Result<BlockAggregate, CoreError> {
    let len = block.len();
    let k = block.qtx.rows();
    let mut left = Vec::with_capacity(2 * len);
    left.extend_from_slice(&block.xy);
    left.extend_from_slice(&block.xx);
    let left_total = masked_sum_f64(ctx, &cfg.ring_codec()?, &left, "aggregate X·y, X·X")?;
    let xy = left_total[..len].to_vec();
    let xx = left_total[len..].to_vec();
    if k == 0 {
        return Ok(BlockAggregate {
            xy,
            xx,
            qtxqty: vec![0.0; len],
            qtxqtx: vec![0.0; len],
        });
    }
    let field_codec = cfg.field_codec()?;
    // QᵀX, each column scaled by 1/√(X·X_j), encoded in one pass; then the
    // products `(QᵀX_j, Qᵀy)`, `(QᵀX_j, QᵀX_j)` laid out like their batch.
    let mut scaled = block.qtx.as_slice().to_vec();
    for (col, &xxj) in scaled.chunks_exact_mut(k).zip(&xx) {
        let s = safe_inv_sqrt(xxj);
        col.iter_mut().for_each(|v| *v *= s);
    }
    let qtx = field_codec.encode_field_vec(&scaled)?;
    let mut xs = Vec::with_capacity(2 * k * len);
    for col in qtx.chunks_exact(k) {
        xs.extend_from_slice(col);
        xs.extend_from_slice(col);
    }
    let ys = qty_share.clone().map(|qty| {
        let mut ys = Vec::with_capacity(2 * k * len);
        for col in qtx.chunks_exact(k) {
            ys.extend_from_slice(&qty);
            ys.extend_from_slice(col);
        }
        ys
    });
    let batch = triples.take(2 * len)?;
    ctx.trace_add(Counter::TriplesConsumed, 2 * len as u64);
    let product_shares = beaver_inner_batch(ctx, &Secret::new(xs), &ys, &batch)?;
    let opened = open_field(
        ctx,
        &product_shares,
        Some("per-variant projected dot products (QᵀX·Qᵀy, QᵀX·QᵀX)"),
    )?;
    let mut products = opened.iter();
    let mut qtxqty = Vec::with_capacity(len);
    let mut qtxqtx = Vec::with_capacity(len);
    for &xxj in &xx {
        let (Some(&d1), Some(&d2)) = (products.next(), products.next()) else {
            return Err(shape("opened block Beaver products", 2 * len, opened.len()));
        };
        qtxqty
            .push(field_codec.decode_field_product(d1) * xxj.max(0.0).sqrt() * yy.max(0.0).sqrt());
        qtxqtx.push(field_codec.decode_field_product(d2) * xxj);
    }
    Ok(BlockAggregate {
        xy,
        xx,
        qtxqty,
        qtxqtx,
    })
}

/// `1/√v` with a zero guard: an all-zero variant (or response) maps to
/// scale 0, making its projections 0 and the variant degenerate — exactly
/// the right downstream behaviour.
fn safe_inv_sqrt(v: f64) -> f64 {
    if v > f64::MIN_POSITIVE {
        v.sqrt().recip()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::protocol::triple_counts;
    use crate::secure::triples::{deal_alongside, FeedSlots};
    use crate::suffstats::{orthonormal_basis, y_dots, ScanStats, SuffStats};
    use dash_mpc::dealer::TrustedDealer;
    use dash_mpc::net::{NetOptions, Network};
    use dash_obs::TraceHandle;

    /// Builds P party datasets plus the pooled reduced statistics they
    /// must reproduce.
    fn setup(
        p: usize,
        n_each: usize,
        m: usize,
        k: usize,
    ) -> (Vec<(Vec<f64>, Matrix, Matrix)>, ScanStats) {
        let mut s = 0xABCDu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut parties = Vec::new();
        for _ in 0..p {
            let y: Vec<f64> = (0..n_each).map(|_| next()).collect();
            let x = Matrix::from_fn(n_each, m, |_, _| next());
            let c = Matrix::from_fn(n_each, k, |_, _| next());
            parties.push((y, x, c));
        }
        // Pooled reference.
        let ys: Vec<f64> = parties.iter().flat_map(|(y, _, _)| y.clone()).collect();
        let xs: Vec<&Matrix> = parties.iter().map(|(_, x, _)| x).collect();
        let cs: Vec<&Matrix> = parties.iter().map(|(_, _, c)| c).collect();
        let x = Matrix::vstack(&xs).unwrap();
        let c = Matrix::vstack(&cs).unwrap();
        let q = orthonormal_basis(&c).unwrap();
        let pooled = SuffStats::local(&ys, &x, &q).unwrap().reduce();
        (parties, pooled)
    }

    /// Per-party Q rows from the pooled C (shared R factor).
    fn party_qs(parties: &[(Vec<f64>, Matrix, Matrix)]) -> Vec<Matrix> {
        let cs: Vec<&Matrix> = parties.iter().map(|(_, _, c)| c).collect();
        let c = Matrix::vstack(&cs).unwrap();
        if c.cols() == 0 {
            return parties
                .iter()
                .map(|(y, _, _)| Matrix::zeros(y.len(), 0))
                .collect();
        }
        let r = dash_linalg::qr_r_factor(&c).unwrap();
        let rinv = dash_linalg::invert_upper(&r).unwrap();
        parties
            .iter()
            .map(|(_, _, ck)| dash_linalg::ops::gemm(ck, &rinv).unwrap())
            .collect()
    }

    /// The y round, then the variants in blocks of 3.
    fn aggregate_all(
        ctx: &mut PartyCtx,
        y: &[f64],
        x: &Matrix,
        q: &Matrix,
        cfg: &SecureScanConfig,
        triples: &mut TripleFeed,
    ) -> Result<ScanStats, CoreError> {
        let m = x.cols();
        let (yy, qty) = y_dots(y, q)?;
        let head = aggregate_y(ctx, yy, &qty, m, cfg, triples)?;
        let (yy, qtyqty) = head.y_stats();
        let mut stats = ScanStats {
            yy,
            qtyqty,
            xy: Vec::new(),
            xx: Vec::new(),
            qtxqty: Vec::new(),
            qtxqtx: Vec::new(),
        };
        for lo in (0..m).step_by(3) {
            let block = VariantSummands::local(y, x, q, lo, (lo + 3).min(m))?;
            let agg = aggregate_block(ctx, &block, &head, cfg, triples)?;
            stats.xy.extend(agg.xy);
            stats.xx.extend(agg.xx);
            stats.qtxqty.extend(agg.qtxqty);
            stats.qtxqtx.extend(agg.qtxqtx);
        }
        Ok(stats)
    }

    /// `aggregate_all` at every party, next to a dealer dealing `counts`
    /// when the mode has one; the parties' outcomes and what they shared.
    fn run_parties(
        mode: AggregationMode,
        parties: &[(Vec<f64>, Matrix, Matrix)],
        counts: Vec<usize>,
        trace: TraceHandle,
    ) -> (Vec<Result<ScanStats, CoreError>>, usize) {
        let (p, k) = (parties.len(), parties[0].2.cols());
        let qs = party_qs(parties);
        let cfg = SecureScanConfig {
            aggregation: mode,
            ..SecureScanConfig::default()
        };
        let opts = NetOptions {
            trace,
            ..NetOptions::default()
        };
        let run = |slots: &FeedSlots| {
            Ok(Network::run_parties_detailed_with(p, 21, &opts, |ctx| {
                let (y, x, _) = &parties[ctx.id()];
                let mut feed = TripleFeed::take_from(slots, ctx.id());
                aggregate_all(ctx, y, x, &qs[ctx.id()], &cfg, &mut feed)
            })?)
        };
        let (results, _stats, audit) = if mode == AggregationMode::BeaverDots && k > 0 {
            let mut dealer = TrustedDealer::new(p, 5).unwrap();
            let deal = |count| dealer.deal_inners(k, count);
            deal_alongside(deal, counts.into_iter(), (p, None), run).unwrap()
        } else {
            run(&[]).unwrap()
        };
        (
            results.into_iter().map(Result::unwrap).collect(),
            audit.per_party_disclosures(),
        )
    }

    fn run_mode(
        mode: AggregationMode,
        p: usize,
        m: usize,
        k: usize,
    ) -> (ScanStats, ScanStats, usize) {
        let (parties, pooled) = setup(p, 12, m, k);
        let counts = triple_counts(m, Some(3)).collect();
        let (results, leaks) = run_parties(mode, &parties, counts, TraceHandle::disabled());
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        // All parties agree exactly.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        (results.into_iter().next().unwrap(), pooled, leaks)
    }

    fn assert_stats_close(got: &ScanStats, want: &ScanStats, tol: f64) {
        let rel = |a: f64, b: f64| (a - b).abs() / (1.0 + a.abs().max(b.abs()));
        assert!(rel(got.yy, want.yy) < tol, "yy: {} vs {}", got.yy, want.yy);
        assert!(rel(got.qtyqty, want.qtyqty) < tol, "qtyqty");
        for j in 0..want.xy.len() {
            assert!(rel(got.xy[j], want.xy[j]) < tol, "xy[{j}]");
            assert!(rel(got.xx[j], want.xx[j]) < tol, "xx[{j}]");
            assert!(rel(got.qtxqty[j], want.qtxqty[j]) < tol, "qtxqty[{j}]");
            assert!(rel(got.qtxqtx[j], want.qtxqtx[j]) < tol, "qtxqtx[{j}]");
        }
    }

    #[test]
    fn public_mode_matches_pooled() {
        let (got, want, leaks) = run_mode(AggregationMode::Public, 3, 4, 2);
        assert_stats_close(&got, &want, 1e-10);
        assert_eq!(leaks, 3); // every party's summands leaked
    }

    #[test]
    fn masked_mode_matches_pooled() {
        let (got, want, leaks) = run_mode(AggregationMode::MaskedPrg, 4, 5, 3);
        assert_stats_close(&got, &want, 1e-6);
        assert_eq!(leaks, 0);
    }

    #[test]
    fn masked_star_mode_matches_pooled() {
        let (got, want, leaks) = run_mode(AggregationMode::MaskedStar, 4, 5, 3);
        assert_stats_close(&got, &want, 1e-6);
        assert_eq!(leaks, 0);
    }

    #[test]
    fn beaver_mode_matches_pooled() {
        let (got, want, leaks) = run_mode(AggregationMode::BeaverDots, 3, 4, 2);
        assert_stats_close(&got, &want, 1e-5);
        assert_eq!(leaks, 0);
    }

    #[test]
    fn beaver_mode_k_zero() {
        let (got, want, _) = run_mode(AggregationMode::BeaverDots, 2, 3, 0);
        assert_stats_close(&got, &want, 1e-6);
        assert_eq!(got.qtyqty, 0.0);
    }

    #[test]
    fn beaver_without_triples_errors() {
        let (parties, _) = setup(2, 10, 2, 1);
        let qs = party_qs(&parties);
        let cfg = SecureScanConfig {
            aggregation: AggregationMode::BeaverDots,
            ..SecureScanConfig::default()
        };
        let results = Network::run_parties(2, 1, |ctx| {
            let (y, x, _) = &parties[ctx.id()];
            aggregate_all(
                ctx,
                y,
                x,
                &qs[ctx.id()],
                &cfg,
                &mut TripleFeed::take_from(&[], 0),
            )
            .err()
        });
        let none = MpcError::DealerExhausted {
            wanted: 1,
            available: 0,
        };
        for r in results {
            assert_eq!(r, Some(CoreError::Mpc(none.clone())));
        }
    }

    #[test]
    fn a_short_dealer_fails_the_block_before_anything_is_consumed() {
        // The y round's batch of one, then a block batch one triple short
        // of the 2·3 the first block of three variants needs.
        let (parties, _) = setup(2, 12, 4, 2);
        let trace = TraceHandle::enabled(2);
        let (results, _) = run_parties(
            AggregationMode::BeaverDots,
            &parties,
            vec![1, 5, 2],
            trace.clone(),
        );
        let short = MpcError::DealerExhausted {
            wanted: 6,
            available: 5,
        };
        for (id, r) in results.into_iter().enumerate() {
            assert_eq!(r, Err(CoreError::Mpc(short.clone())));
            assert_eq!(trace.counter(id, Counter::TriplesConsumed), 1);
        }
    }

    #[test]
    fn safe_inv_sqrt_guards() {
        assert_eq!(safe_inv_sqrt(0.0), 0.0);
        assert_eq!(safe_inv_sqrt(-1.0), 0.0);
        assert!((safe_inv_sqrt(4.0) - 0.5).abs() < 1e-15);
    }
}
