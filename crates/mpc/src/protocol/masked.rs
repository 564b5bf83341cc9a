//! PRG-correlated masked sum — the "SMC sum protocol which only reveals
//! the overall sum" of the paper's §3, in its two topologies.
//!
//! The parties hold pairwise shared seeds, so each pair `{i, j}` expands
//! the same pseudo-random mask vector `m_{ij}`; party `min` *adds* it and
//! party `max` *subtracts* it, and the masks cancel in the total. Mesh
//! ([`masked_sum_ring`]): each party broadcasts its one masked vector —
//! one round, `(n−1)·len` words per party — and sums what it receives.
//! Star ([`masked_sum_star_ring`]): the masked vectors flow to party 0,
//! which broadcasts the total — two hops, `2(n−1)·len` words in all.
//!
//! Privacy: a party's broadcast value is its input plus a PRG mask
//! unknown to any single observer (for n ≥ 3, every pair mask is secret
//! from the third party; for n = 2 the peer learns the input exactly as it
//! would from the total anyway). This is the same correlated-masking idea
//! as practical secure-aggregation systems, minus dropout handling, which
//! an in-process simulation cannot exercise.

use crate::error::MpcError;
use crate::fixed::FixedPointCodec;
use crate::party::{Opening, PartyCtx};
use crate::ring::R64;
use crate::secret::Secret;

/// Securely sums each coordinate of `values` across all parties using
/// pairwise-correlated masks; every party learns only the totals. They
/// come back opened, as public integers (the words of the ring totals).
pub fn masked_sum_ring(
    ctx: &mut PartyCtx,
    values: &[R64],
    label: &str,
) -> Result<Vec<u64>, MpcError> {
    let n = ctx.n_parties();
    let me = ctx.id();
    if n == 1 {
        return Ok(words(ctx.open_local(
            Secret::new(values.to_vec()),
            Opening::Disclosed(label),
        )));
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
    Ok(words(ctx.open_sum(
        &Secret::new(masked),
        Opening::Disclosed(label),
    )?))
}

/// The words of an opened total: public, so they leave the crate as
/// integers (in place: `R64` and `u64` share a layout).
fn words(opened: Vec<R64>) -> Vec<u64> {
    opened.into_iter().map(R64::declassify).collect()
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
) -> Result<Vec<u64>, MpcError> {
    let n = ctx.n_parties();
    let me = ctx.id();
    if n == 1 {
        return Ok(words(ctx.open_local(
            Secret::new(values.to_vec()),
            Opening::Disclosed(label),
        )));
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
            let v = ctx.recv_secret(j, tag_up)?;
            total.add_assign_secret(&v)?;
        }
        let total = ctx.open_local(total, Opening::Disclosed(label));
        ctx.broadcast(tag_down, &total)?;
        Ok(words(total))
    } else {
        ctx.send(0, tag_up, &masked)?;
        // The aggregator already recorded this total; what arrives here is
        // the published aggregate, not a secret.
        ctx.recv_words(0, tag_down)
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
    Ok(decode(codec, total))
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
    Ok(decode(codec, total))
}

/// Decodes opened total words, as [`FixedPointCodec::decode_ring_vec`]
/// decodes their elements. The f64 wrappers go through the public ring
/// sums, so each topology has one entry point.
fn decode(codec: &FixedPointCodec, total: Vec<u64>) -> Vec<f64> {
    total
        .into_iter()
        .map(|w| codec.decode_ring(R64::from(w)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetOptions, Network, HEADER_BYTES};

    type RingSum = fn(&mut PartyCtx, &[R64], &str) -> Result<Vec<u64>, MpcError>;
    type F64Sum = fn(&mut PartyCtx, &FixedPointCodec, &[f64], &str) -> Result<Vec<f64>, MpcError>;

    /// Both members of the family: what is asserted about "a secure sum"
    /// below is asserted of each.
    const RING: [(&str, RingSum); 2] = [("mesh", masked_sum_ring), ("star", masked_sum_star_ring)];
    const F64: [(&str, F64Sum); 2] = [("mesh", masked_sum_f64), ("star", masked_sum_star_f64)];

    #[test]
    fn totals_correct_all_party_counts() {
        for (name, sum) in RING {
            for n in 1..=6usize {
                let results = Network::run_parties(n, 77, move |ctx| {
                    let me = ctx.id() as i64;
                    let mine = vec![
                        R64::from_i64(me * me),
                        R64::from_i64(-me),
                        R64::from(100 * (me as u64 + 1)),
                    ];
                    sum(ctx, &mine, "sq").unwrap()
                });
                let sq: i64 = (0..n as i64).map(|i| i * i).sum();
                let lin: i64 = -(0..n as i64).sum::<i64>();
                let hundreds: u64 = (1..=n as u64).map(|i| 100 * i).sum();
                for r in &results {
                    assert_eq!(r[0] as i64, sq, "{name} n={n}");
                    assert_eq!(r[1] as i64, lin, "{name} n={n}");
                    assert_eq!(r[2], hundreds, "{name} n={n}");
                }
            }
        }
    }

    #[test]
    fn broadcast_values_are_masked() {
        // No party's broadcast equals its raw input (overwhelmingly
        // likely): capture what each party would have sent by recomputing.
        let results = Network::run_parties(3, 123, |ctx| {
            let mine = vec![R64::from(42)]; // same raw input for everyone
            let total = masked_sum_ring(ctx, &mine, "x").unwrap();
            total[0]
        });
        // Total = 3 * 42.
        assert!(results.iter().all(|&t| t == 126));
    }

    #[test]
    fn disclosure_recorded_once() {
        // One aggregate entry, recorded by party 0 alone, its scalar
        // count taken from the opened value.
        for (name, sum) in RING {
            let (slots, _stats, audit) =
                Network::run_parties_detailed_with(3, 1, &NetOptions::default(), move |ctx| {
                    sum(ctx, &[R64::from(1), R64::from(2)], "aggregate pair").unwrap()
                })
                .unwrap();
            assert!(slots.iter().all(Result::is_ok), "{name}: {slots:?}");
            let entries = audit.entries();
            assert_eq!(entries.len(), 1, "{name}");
            assert_eq!(entries[0].label, "aggregate pair");
            assert_eq!(entries[0].scalars, 2);
            assert_eq!(entries[0].source_party, None);
            assert_eq!(audit.per_party_disclosures(), 0);
        }
    }

    #[test]
    fn traffic_is_exact_linear_in_len_and_independent_of_the_secret() {
        // Mesh: every party sends its masked vector to every other,
        // P(P−1) frames; star: P−1 up, P−1 down. Each frame is the header
        // plus 8 bytes per word, whatever the words are.
        let traffic = |sum: RingSum, p: usize, len: usize, secret: u64| {
            let (slots, stats, _a) =
                Network::run_parties_detailed_with(p, 3, &NetOptions::default(), move |ctx| {
                    sum(ctx, &vec![R64::from(secret ^ ctx.id() as u64); len], "t").unwrap()
                })
                .unwrap();
            assert!(slots.iter().all(Result::is_ok), "{slots:?}");
            (stats.total_messages(), stats.total_bytes())
        };
        for p in [2usize, 4, 5] {
            let family: [(&str, RingSum, usize); 2] = [
                ("mesh", masked_sum_ring, p * (p - 1)),
                ("star", masked_sum_star_ring, 2 * (p - 1)),
            ];
            for (name, sum, frames) in family {
                let frames = frames as u64;
                for len in [0usize, 100, 200, 512] {
                    let expect = (frames, frames * (HEADER_BYTES + 8 * len as u64));
                    assert_eq!(traffic(sum, p, len, 1), expect, "{name} p={p} len={len}");
                    assert_eq!(traffic(sum, p, len, u64::MAX), expect, "{name} p={p}");
                }
            }
        }
    }

    #[test]
    fn repeated_invocations_stay_synchronized() {
        // Pairwise PRGs must advance identically across calls.
        for (name, sum) in RING {
            let results = Network::run_parties(3, 8, move |ctx| {
                let a = sum(ctx, &[R64::from(ctx.id() as u64)], "a").unwrap();
                let b = sum(ctx, &[R64::from(10 + ctx.id() as u64)], "b").unwrap();
                (a[0], b[0])
            });
            for &(a, b) in &results {
                assert_eq!(a, 3, "{name}");
                assert_eq!(b, 33, "{name}");
            }
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
    fn f64_wrappers_and_precision() {
        let inputs = [1.25f64, -7.5, 3.0625];
        let expect: f64 = inputs.iter().sum();
        for (name, sum) in F64 {
            let results = Network::run_parties(3, 9, move |ctx| {
                let codec = FixedPointCodec::new(32).unwrap();
                sum(ctx, &codec, &[inputs[ctx.id()], -0.25], "w").unwrap()
            });
            for r in results {
                assert!((r[0] - expect).abs() < 1e-8, "{name}");
                assert!((r[1] + 0.75).abs() < 1e-8, "{name}");
            }
        }
    }

    #[test]
    fn overflow_rejected_before_sending() {
        for (name, sum) in F64 {
            let (slots, stats, _a) =
                Network::run_parties_detailed_with(2, 2, &NetOptions::default(), move |ctx| {
                    let codec = FixedPointCodec::new(40).unwrap();
                    // Way beyond 2^22 integer range at 40 fractional bits.
                    sum(ctx, &codec, &[1e12], "x")
                })
                .unwrap();
            for r in slots {
                assert!(
                    matches!(r, Ok(Err(MpcError::FixedPointOverflow { .. }))),
                    "{name}: {r:?}"
                );
            }
            assert_eq!(
                stats.total_messages(),
                0,
                "{name}: a frame left before the error"
            );
        }
    }

    #[test]
    fn empty_and_single_party() {
        for (name, sum) in RING {
            // A lone party's "sum" is its own data, opened through the
            // audited path all the same.
            let (slots, stats, audit) =
                Network::run_parties_detailed_with(1, 1, &NetOptions::default(), move |ctx| {
                    sum(ctx, &[R64::from(7)], "solo").unwrap()
                })
                .unwrap();
            assert_eq!(slots, vec![Ok(vec![7])], "{name}");
            assert_eq!(stats.total_messages(), 0);
            assert_eq!(audit.entries().len(), 1, "{name}");
            let r = Network::run_parties(3, 1, move |ctx| sum(ctx, &[], "none").unwrap());
            assert!(r.iter().all(Vec::is_empty), "{name}");
        }
    }
}
