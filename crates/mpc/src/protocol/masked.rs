//! PRG-correlated masked sum.
//!
//! The share-based sum sends every input twice (shares, then partials).
//! When the parties already hold pairwise shared seeds, each pair `{i, j}`
//! can expand the same pseudo-random mask vector `m_{ij}`; party `min`
//! *adds* it and party `max` *subtracts* it, so the masks cancel in the
//! total. Each party then broadcasts a single masked vector — one round,
//! `(n−1)·len` words per party — and sums what it receives.
//!
//! Privacy: a party's broadcast value is its input plus a PRG mask
//! unknown to any single observer (for n ≥ 3, every pair mask is secret
//! from the third party; for n = 2 the peer learns the input exactly as it
//! would from the total anyway). This is the same correlated-masking idea
//! as practical secure-aggregation systems, minus dropout handling, which
//! an in-process simulation cannot exercise.

use crate::error::MpcError;
use crate::fixed::FixedPointCodec;
use crate::party::PartyCtx;
use crate::ring::R64;
use crate::secret::Secret;

/// Securely sums each coordinate of `values` across all parties using
/// pairwise-correlated masks; every party learns only the totals.
pub fn masked_sum_ring(
    ctx: &mut PartyCtx,
    values: &[R64],
    label: &str,
) -> Result<Vec<R64>, MpcError> {
    let n = ctx.n_parties();
    let me = ctx.id();
    if n == 1 {
        return Ok(ctx.open_local(Secret::new(values.to_vec()), Some(label)));
    }
    // Apply pairwise masks. Both endpoints of a pair draw the same stream;
    // iteration order differs per party but streams are per-pair, so each
    // pair advances its PRG exactly once per invocation on both sides.
    // The pads come out of the PRG wrapped and are applied in place — the
    // masked buffer is publishable, the pads themselves never unwrap.
    let mut masked = values.to_vec();
    for j in 0..n {
        if j == me {
            continue;
        }
        let pad = ctx.pair_prg_mut(j)?.mask_ring_vec(values.len());
        pad.pad_into(&mut masked, me < j)?;
    }
    // One broadcast round; masks cancel in the sum. The total opens
    // through the audited path (recorded once, by party 0).
    let tag = ctx.fresh_tag();
    ctx.open_sum_ring(tag, &Secret::new(masked), Some(label))
}

/// Star-topology masked sum: masked values flow to one aggregator
/// (party 0), which sums and broadcasts the total.
///
/// Total traffic drops from the all-to-all `P(P−1)·len` words to
/// `2(P−1)·len`, at the cost of one extra hop of latency and a bandwidth
/// hotspot at the aggregator. Privacy is unchanged: the aggregator sees
/// only PRG-masked values (for P ≥ 3 every pairwise mask is unknown to
/// it), and the masks cancel in the sum exactly as in
/// [`masked_sum_ring`].
pub fn masked_sum_star_ring(
    ctx: &mut PartyCtx,
    values: &[R64],
    label: &str,
) -> Result<Vec<R64>, MpcError> {
    let n = ctx.n_parties();
    let me = ctx.id();
    if n == 1 {
        return Ok(ctx.open_local(Secret::new(values.to_vec()), Some(label)));
    }
    let mut masked = values.to_vec();
    for j in 0..n {
        if j == me {
            continue;
        }
        let pad = ctx.pair_prg_mut(j)?.mask_ring_vec(values.len());
        pad.pad_into(&mut masked, me < j)?;
    }
    let tag_up = ctx.fresh_tag();
    let tag_down = ctx.fresh_tag();
    if me == 0 {
        // Aggregate and broadcast. Until the last leaf's contribution is
        // folded in, the accumulator is still a masked partial — it stays
        // wrapped and only the final total goes through the audited open.
        let mut total = Secret::new(masked);
        for j in 1..n {
            let v = ctx.recv_ring_secret(j, tag_up)?;
            total.add_assign_secret(&v)?;
        }
        let total = ctx.open_local(total, Some(label));
        ctx.broadcast_ring(tag_down, &total)?;
        Ok(total)
    } else {
        ctx.send_ring(0, tag_up, &masked)?;
        // The aggregator already recorded this total; what arrives here is
        // the published aggregate, not a secret.
        ctx.recv_ring(0, tag_down)
    }
}

/// Fixed-point wrapper over [`masked_sum_star_ring`].
pub fn masked_sum_star_f64(
    ctx: &mut PartyCtx,
    codec: &FixedPointCodec,
    values: &[f64],
    label: &str,
) -> Result<Vec<f64>, MpcError> {
    let encoded = codec.encode_ring_vec(values)?;
    let total = masked_sum_star_ring(ctx, &encoded, label)?;
    Ok(codec.decode_ring_vec(&total))
}

/// Fixed-point wrapper over [`masked_sum_ring`].
pub fn masked_sum_f64(
    ctx: &mut PartyCtx,
    codec: &FixedPointCodec,
    values: &[f64],
    label: &str,
) -> Result<Vec<f64>, MpcError> {
    let encoded = codec.encode_ring_vec(values)?;
    let total = masked_sum_ring(ctx, &encoded, label)?;
    Ok(codec.decode_ring_vec(&total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetOptions, Network};
    use crate::protocol::sum::secure_sum_ring;

    #[test]
    fn totals_correct_all_party_counts() {
        for n in 1..=6usize {
            let results = Network::run_parties(n, 77, move |ctx| {
                let me = ctx.id() as i64;
                let mine = vec![R64::from_i64(me * me), R64::from_i64(-me)];
                masked_sum_ring(ctx, &mine, "sq").unwrap()
            });
            let sq: i64 = (0..n as i64).map(|i| i * i).sum();
            let lin: i64 = -(0..n as i64).sum::<i64>();
            for r in &results {
                assert_eq!(r[0].as_i64(), sq, "n={n}");
                assert_eq!(r[1].as_i64(), lin, "n={n}");
            }
        }
    }

    #[test]
    fn agrees_with_share_based_sum() {
        let via_masked = Network::run_parties(4, 5, |ctx| {
            let mine = vec![R64(ctx.id() as u64 * 1000 + 1)];
            masked_sum_ring(ctx, &mine, "m").unwrap()
        });
        let via_shares = Network::run_parties(4, 5, |ctx| {
            let mine = vec![R64(ctx.id() as u64 * 1000 + 1)];
            secure_sum_ring(ctx, &mine, "s").unwrap()
        });
        assert_eq!(via_masked[0], via_shares[0]);
    }

    #[test]
    fn broadcast_values_are_masked() {
        // No party's broadcast equals its raw input (overwhelmingly
        // likely): capture what each party would have sent by recomputing.
        let results = Network::run_parties(3, 123, |ctx| {
            let mine = vec![R64(42)]; // same raw input for everyone
            let total = masked_sum_ring(ctx, &mine, "x").unwrap();
            total[0]
        });
        // Total = 3 * 42.
        assert!(results.iter().all(|&t| t == R64(126)));
    }

    #[test]
    fn cheaper_than_share_based() {
        let masked_bytes = {
            let (slots, stats, _a) =
                Network::run_parties_detailed_with(4, 3, &NetOptions::default(), |ctx| {
                    masked_sum_ring(ctx, &vec![R64(1); 512], "m").unwrap()
                })
                .unwrap();
            assert!(slots.iter().all(Result::is_ok), "{slots:?}");
            stats.total_bytes()
        };
        let share_bytes = {
            let (slots, stats, _a) =
                Network::run_parties_detailed_with(4, 3, &NetOptions::default(), |ctx| {
                    secure_sum_ring(ctx, &vec![R64(1); 512], "s").unwrap()
                })
                .unwrap();
            assert!(slots.iter().all(Result::is_ok), "{slots:?}");
            stats.total_bytes()
        };
        assert!(
            (masked_bytes as f64) < 0.6 * share_bytes as f64,
            "masked {masked_bytes} vs shares {share_bytes}"
        );
    }

    #[test]
    fn repeated_invocations_stay_synchronized() {
        // Pairwise PRGs must advance identically across calls.
        let results = Network::run_parties(3, 8, |ctx| {
            let a = masked_sum_ring(ctx, &[R64(ctx.id() as u64)], "a").unwrap();
            let b = masked_sum_ring(ctx, &[R64(10 + ctx.id() as u64)], "b").unwrap();
            (a[0], b[0])
        });
        for &(a, b) in &results {
            assert_eq!(a, R64(3));
            assert_eq!(b, R64(33));
        }
    }

    #[test]
    fn star_matches_all_to_all() {
        for n in 1..=5usize {
            let star = Network::run_parties(n, 50, move |ctx| {
                let mine = vec![R64::from_i64(ctx.id() as i64 * 3 - 1)];
                masked_sum_star_ring(ctx, &mine, "star").unwrap()
            });
            let full = Network::run_parties(n, 50, move |ctx| {
                let mine = vec![R64::from_i64(ctx.id() as i64 * 3 - 1)];
                masked_sum_ring(ctx, &mine, "full").unwrap()
            });
            for (a, b) in star.iter().zip(&full) {
                assert_eq!(a, b, "n={n}");
            }
        }
    }

    #[test]
    fn star_total_traffic_is_linear_in_p() {
        let bytes = |n: usize| {
            let (slots, stats, _a) =
                Network::run_parties_detailed_with(n, 51, &NetOptions::default(), move |ctx| {
                    masked_sum_star_ring(ctx, &vec![R64(1); 256], "s").unwrap()
                })
                .unwrap();
            assert!(slots.iter().all(Result::is_ok), "{slots:?}");
            stats.total_bytes()
        };
        // 2(P−1) transfers of the vector: P = 5 should be exactly 2x P = 3.
        let b3 = bytes(3);
        let b5 = bytes(5);
        assert_eq!(b5, 2 * b3, "b3 = {b3}, b5 = {b5}");
        // And strictly cheaper than all-to-all at P = 5.
        let (slots, stats, _a) =
            Network::run_parties_detailed_with(5, 51, &NetOptions::default(), |ctx| {
                masked_sum_ring(ctx, &vec![R64(1); 256], "f").unwrap()
            })
            .unwrap();
        assert!(slots.iter().all(Result::is_ok), "{slots:?}");
        assert!(b5 < stats.total_bytes() / 2);
    }

    #[test]
    fn star_f64_wrapper_and_length_check() {
        let results = Network::run_parties(3, 52, |ctx| {
            let codec = FixedPointCodec::default();
            masked_sum_star_f64(ctx, &codec, &[1.5, -0.25], "w").unwrap()
        });
        for r in results {
            assert!((r[0] - 4.5).abs() < 1e-8);
            assert!((r[1] + 0.75).abs() < 1e-8);
        }
    }

    #[test]
    fn f64_wrapper() {
        let results = Network::run_parties(3, 6, |ctx| {
            let codec = FixedPointCodec::default();
            masked_sum_f64(ctx, &codec, &[0.5 * (ctx.id() as f64 + 1.0)], "w").unwrap()
        });
        for r in results {
            assert!((r[0] - 3.0).abs() < 1e-8);
        }
    }

    #[test]
    fn empty_and_single_party() {
        let r = Network::run_parties(1, 1, |ctx| masked_sum_ring(ctx, &[R64(7)], "solo").unwrap());
        assert_eq!(r[0], vec![R64(7)]);
        let r = Network::run_parties(3, 1, |ctx| masked_sum_ring(ctx, &[], "none").unwrap());
        assert!(r[0].is_empty());
    }
}
