//! Phase 1 of the secure scan: obtaining the combined R factor.
//!
//! Mathematical basis (§3): if `C = [C_1; …; C_P]` row-blocked across
//! parties and `C_k = Q_k' R_k` are local thin QRs, then the stacked
//! `S = [R_1; …; R_P]` has the same R factor as `C`. So `R` — and from it
//! each party's `Q_k = C_k R⁻¹` — is computable from K×K summaries alone.
//! The three modes differ only in *who sees which* K×K summary.

use crate::error::CoreError;
use crate::secure::wire::{all_gather_f64, broadcast_f64, recv_f64, send_f64};
use crate::secure::{RFactorMode, SecureScanConfig};
use dash_linalg::{cholesky_upper, combine_r_factors, gemm_at_b, qr_r_factor, Matrix};
use dash_mpc::protocol::masked::masked_sum_f64;
use dash_mpc::PartyCtx;

/// Number of genuinely distinct scalars in a K×K upper-triangular factor.
fn triangle_scalars(k: usize) -> usize {
    k * (k + 1) / 2
}

/// Flattens a K×K upper-triangular factor into its `k(k+1)/2` meaningful
/// entries (columns in order, each truncated at the diagonal).
///
/// Every R exchanged in this module travels packed, so the word count on
/// the wire equals the scalar count recorded in the disclosure log — the
/// audit matches the transcript by construction instead of counting `k²`
/// words of which `k(k−1)/2` are structural zeros.
fn pack_upper(r: &Matrix) -> Result<Vec<f64>, CoreError> {
    let k = r.cols();
    let mut out = Vec::with_capacity(triangle_scalars(k));
    for j in 0..k {
        let col = r.col(j);
        let head = col.get(..=j).ok_or(CoreError::ShapeMismatch {
            what: "upper-triangular factor column",
            expected: j + 1,
            got: col.len(),
        })?;
        debug_assert!(
            col.get(j + 1..)
                .is_some_and(|below| below.iter().all(|&v| v == 0.0)),
            "R factor has nonzero entries below the diagonal"
        );
        out.extend_from_slice(head);
    }
    debug_assert_eq!(out.len(), triangle_scalars(k));
    Ok(out)
}

/// Inverse of [`pack_upper`]: rebuilds the K×K matrix with explicit zeros
/// below the diagonal. Rejects payloads of the wrong length.
fn unpack_upper(k: usize, flat: &[f64]) -> Result<Matrix, CoreError> {
    if flat.len() != triangle_scalars(k) {
        return Err(CoreError::ShapeMismatch {
            what: "packed upper-triangular factor",
            expected: triangle_scalars(k),
            got: flat.len(),
        });
    }
    let mut m = Matrix::zeros(k, k);
    let mut off = 0;
    for j in 0..k {
        let src = flat.get(off..off + j + 1).ok_or(CoreError::ShapeMismatch {
            what: "packed upper-triangular factor column",
            expected: off + j + 1,
            got: flat.len(),
        })?;
        let dst = m.col_mut(j).get_mut(..=j).ok_or(CoreError::ShapeMismatch {
            what: "unpacked factor column",
            expected: j + 1,
            got: 0,
        })?;
        dst.copy_from_slice(src);
        off += j + 1;
    }
    Ok(m)
}

/// This party's K×K local R factor. A party with fewer rows than K pads
/// its block with zero rows first — zero rows leave `C_kᵀC_k` unchanged,
/// so the stacked-R identity of §3 is unaffected and even a single-sample
/// party can participate.
fn local_r(c: &Matrix) -> Result<Matrix, CoreError> {
    let k = c.cols();
    if c.rows() >= k {
        return Ok(qr_r_factor(c)?);
    }
    let padded = Matrix::vstack(&[c, &Matrix::zeros(k - c.rows(), k)])?;
    Ok(qr_r_factor(&padded)?)
}

/// Runs the configured R-combination protocol and returns the combined
/// K×K factor (empty for K = 0).
pub(crate) fn combine_r(
    ctx: &mut PartyCtx,
    c: &Matrix,
    cfg: &SecureScanConfig,
) -> Result<Matrix, CoreError> {
    let k = c.cols();
    if k == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    match cfg.rfactor {
        RFactorMode::PublicStack => public_stack(ctx, c, k),
        RFactorMode::PairwiseTree => pairwise_tree(ctx, c, k),
        RFactorMode::GramAggregate => gram_aggregate(ctx, c, k, cfg),
    }
}

/// Every party broadcasts its `R_k`; everyone stacks them in party order
/// and refactors.
fn public_stack(ctx: &mut PartyCtx, c: &Matrix, k: usize) -> Result<Matrix, CoreError> {
    let r_local = local_r(c)?;
    let packed = pack_upper(&r_local)?;
    debug_assert_eq!(packed.len(), triangle_scalars(k));
    ctx.audit().record_party(
        ctx.id(),
        format!("party {} local R factor", ctx.id()),
        packed.len(),
    );
    let tag = ctx.fresh_tag();
    let gathered = all_gather_f64(ctx, tag, &packed)?;
    let blocks: Vec<Matrix> = gathered
        .into_iter()
        .map(|flat| unpack_upper(k, &flat))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&Matrix> = blocks.iter().collect();
    let stacked = Matrix::vstack(&refs)?;
    Ok(qr_r_factor(&stacked)?)
}

/// Footnote-3 binary tree: at level `g = 1, 2, 4, …` parties whose id is
/// an odd multiple of `g` send their current combined factor to the party
/// `g` below them, which absorbs it. Party 0 ends with the full `R` and
/// broadcasts it.
fn pairwise_tree(ctx: &mut PartyCtx, c: &Matrix, k: usize) -> Result<Matrix, CoreError> {
    let n = ctx.n_parties();
    let me = ctx.id();
    let mut r = local_r(c)?;
    let mut gap = 1;
    let mut active = true;
    while gap < n {
        if active {
            if me % (2 * gap) == gap {
                // Send my subtree's combined factor to the parent.
                let parent = me - gap;
                let tag = tree_tag(ctx, gap);
                let packed = pack_upper(&r)?;
                debug_assert_eq!(packed.len(), triangle_scalars(k));
                send_f64(ctx, parent, tag, &packed)?;
                ctx.audit().record_party(
                    me,
                    format!("subtree R at party {me} (tree gap {gap}, sent to party {parent})"),
                    packed.len(),
                );
                active = false;
            } else if me.is_multiple_of(2 * gap) && me + gap < n {
                let child = me + gap;
                let tag = tree_tag(ctx, gap);
                let flat = recv_f64(ctx, child, tag)?;
                let r_child = unpack_upper(k, &flat)?;
                r = combine_r_factors(&r, &r_child)?;
            } else {
                // No partner at this level; keep the tag counter moving in
                // lockstep with everyone else.
                let _ = tree_tag(ctx, gap);
            }
        } else {
            let _ = tree_tag(ctx, gap);
        }
        gap *= 2;
    }
    // Root broadcasts the final factor (an all-party aggregate).
    let tag = ctx.fresh_tag();
    let combined = if me == 0 {
        let packed = pack_upper(&r)?;
        debug_assert_eq!(packed.len(), triangle_scalars(k));
        broadcast_f64(ctx, tag, &packed)?;
        ctx.audit()
            .record_aggregate("combined R factor of pooled C", packed.len());
        r
    } else {
        unpack_upper(k, &recv_f64(ctx, 0, tag)?)?
    };
    Ok(combined)
}

/// Every party calls this exactly once per level so tags stay aligned.
fn tree_tag(ctx: &mut PartyCtx, _gap: usize) -> u32 {
    ctx.fresh_tag()
}

/// Secure-sum the K×K Gram summands `C_kᵀC_k`; only the pooled `CᵀC`
/// opens, and `R = chol(CᵀC)` by the positive-diagonal convention.
fn gram_aggregate(
    ctx: &mut PartyCtx,
    c: &Matrix,
    k: usize,
    cfg: &SecureScanConfig,
) -> Result<Matrix, CoreError> {
    let gram_local = gemm_at_b(c, c)?;
    let codec = cfg.ring_codec()?;
    let total = masked_sum_f64(
        ctx,
        &codec,
        gram_local.as_slice(),
        "aggregate Gram matrix CᵀC",
    )?;
    let gram = Matrix::from_column_major(k, k, total)?;
    Ok(cholesky_upper(&gram)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_mpc::net::{NetOptions, Network};

    fn rand_block(n: usize, k: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        Matrix::from_fn(n, k, |_, _| next())
    }

    fn run_mode(mode: RFactorMode, n_parties: usize, k: usize) -> (Vec<Matrix>, Matrix, usize) {
        let blocks: Vec<Matrix> = (0..n_parties)
            .map(|i| rand_block(10 + 3 * i, k, 100 + i as u64))
            .collect();
        let refs: Vec<&Matrix> = blocks.iter().collect();
        let pooled = Matrix::vstack(&refs).unwrap();
        let expect = qr_r_factor(&pooled).unwrap();
        let cfg = SecureScanConfig {
            rfactor: mode,
            ..SecureScanConfig::default()
        };
        let (results, _stats, audit) =
            Network::run_parties_detailed_with(n_parties, 7, &NetOptions::default(), |ctx| {
                combine_r(ctx, &blocks[ctx.id()], &cfg).unwrap()
            })
            .unwrap();
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        (results, expect, audit.per_party_disclosures())
    }

    #[test]
    fn public_stack_matches_pooled_qr() {
        for p in [2, 3, 5] {
            let (results, expect, leaks) = run_mode(RFactorMode::PublicStack, p, 3);
            for r in &results {
                assert!(
                    r.max_abs_diff(&expect).unwrap() < 1e-10,
                    "p={p}: diff {}",
                    r.max_abs_diff(&expect).unwrap()
                );
            }
            // Every party's own R_k leaks.
            assert_eq!(leaks, p, "p={p}");
        }
    }

    #[test]
    fn pairwise_tree_matches_pooled_qr() {
        for p in [2, 3, 4, 6, 7] {
            let (results, expect, leaks) = run_mode(RFactorMode::PairwiseTree, p, 2);
            for r in &results {
                assert!(
                    r.max_abs_diff(&expect).unwrap() < 1e-10,
                    "p={p}: diff {}",
                    r.max_abs_diff(&expect).unwrap()
                );
            }
            // Only non-root parties disclose, each exactly once (to its
            // parent).
            assert_eq!(leaks, p - 1, "p={p}");
        }
    }

    #[test]
    fn gram_aggregate_matches_pooled_qr_with_no_party_leaks() {
        for p in [2, 3, 4] {
            let (results, expect, leaks) = run_mode(RFactorMode::GramAggregate, p, 3);
            for r in &results {
                assert!(
                    r.max_abs_diff(&expect).unwrap() < 1e-5,
                    "p={p}: diff {}",
                    r.max_abs_diff(&expect).unwrap()
                );
            }
            assert_eq!(leaks, 0, "p={p}: gram mode must not leak per-party data");
        }
    }

    #[test]
    fn tiny_party_participates_via_zero_padding() {
        // One party has a single row (fewer than K = 3); padding keeps
        // the stacked identity exact in every mode.
        let blocks = [rand_block(1, 3, 400), rand_block(20, 3, 401)];
        let refs: Vec<&Matrix> = blocks.iter().collect();
        let expect = qr_r_factor(&Matrix::vstack(&refs).unwrap()).unwrap();
        for mode in [
            RFactorMode::PublicStack,
            RFactorMode::PairwiseTree,
            RFactorMode::GramAggregate,
        ] {
            let cfg = SecureScanConfig {
                rfactor: mode,
                ..SecureScanConfig::default()
            };
            let results =
                Network::run_parties(2, 3, |ctx| combine_r(ctx, &blocks[ctx.id()], &cfg).unwrap());
            for r in &results {
                assert!(
                    r.max_abs_diff(&expect).unwrap() < 1e-5,
                    "{mode:?}: diff {}",
                    r.max_abs_diff(&expect).unwrap()
                );
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip_and_shape_check() {
        let c = rand_block(9, 4, 77);
        let r = qr_r_factor(&c).unwrap();
        let packed = pack_upper(&r).unwrap();
        assert_eq!(packed.len(), triangle_scalars(4));
        let back = unpack_upper(4, &packed).unwrap();
        assert_eq!(back.max_abs_diff(&r).unwrap(), 0.0);
        // Wrong payload length is a structured error, not a panic.
        assert!(matches!(
            unpack_upper(4, &packed[..packed.len() - 1]),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn k_zero_is_empty() {
        let cfg = SecureScanConfig::default();
        let results = Network::run_parties(2, 1, |ctx| {
            let c = Matrix::zeros(5, 0);
            combine_r(ctx, &c, &cfg).unwrap().shape()
        });
        assert_eq!(results[0], (0, 0));
    }

    #[test]
    fn single_party_all_modes() {
        for mode in [
            RFactorMode::PublicStack,
            RFactorMode::PairwiseTree,
            RFactorMode::GramAggregate,
        ] {
            let block = rand_block(12, 3, 5);
            let expect = qr_r_factor(&block).unwrap();
            let cfg = SecureScanConfig {
                rfactor: mode,
                ..SecureScanConfig::default()
            };
            let results = Network::run_parties(1, 3, |ctx| combine_r(ctx, &block, &cfg).unwrap());
            assert!(results[0].max_abs_diff(&expect).unwrap() < 1e-6, "{mode:?}");
        }
    }
}
