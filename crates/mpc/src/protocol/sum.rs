//! Share-based secure sum.
//!
//! The canonical "SMC sum protocol which only reveals the overall sum"
//! from §3 of the paper:
//!
//! 1. every party splits its input vector into n additive shares and sends
//!    the j-th share vector to party j (keeping its own);
//! 2. every party sums the share vectors it holds into a partial sum;
//! 3. partial sums are exchanged and added — the result is the total, and
//!    nothing else is learned: each party saw only uniformly random shares
//!    and partials that are uniform conditioned on the total.
//!
//! Communication per party: `2(n−1)·len` words over two rounds.

use crate::error::MpcError;
use crate::fixed::FixedPointCodec;
use crate::party::PartyCtx;
use crate::ring::R64;
use crate::secret::Secret;
use crate::share::share_ring_vec;

/// Securely sums each coordinate of `values` across all parties; every
/// party learns the totals and nothing else.
///
/// `label` names the opened aggregate in the disclosure log (recorded once
/// by party 0, with the scalar count derived from the opened total itself
/// inside [`Secret::open_via`]).
pub fn secure_sum_ring(
    ctx: &mut PartyCtx,
    values: &[R64],
    label: &str,
) -> Result<Vec<R64>, MpcError> {
    let n = ctx.n_parties();
    let me = ctx.id();
    if n == 1 {
        // Degenerate single party: the "sum" is its own data; still open
        // through the audited path so leakage accounting stays honest.
        return Ok(ctx.open_local(Secret::new(values.to_vec()), Some(label)));
    }
    // Round 1: distribute shares. Each share vector is secret material
    // from the moment it is drawn; the wire helpers keep it wrapped.
    let tag_shares = ctx.fresh_tag();
    let share_vecs = share_ring_vec(values, n, ctx.rng_mut());
    for (j, sv) in share_vecs.iter().enumerate() {
        if j != me {
            ctx.send_ring_secret(j, tag_shares, sv)?;
        }
    }
    let mut partial = share_vecs.into_iter().nth(me).ok_or(MpcError::Protocol {
        what: "secure_sum_ring: own share vector missing",
    })?;
    for j in 0..n {
        if j == me {
            continue;
        }
        let sv = ctx.recv_ring_secret(j, tag_shares)?;
        partial.add_assign_secret(&sv)?;
    }
    // Round 2: open the partial sums through the audited path.
    let tag_open = ctx.fresh_tag();
    ctx.open_sum_ring(tag_open, &partial, Some(label))
}

/// Fixed-point wrapper: encodes `values`, runs [`secure_sum_ring`], and
/// decodes the totals.
///
/// Encoding errors (overflow, NaN) surface before any message is sent.
pub fn secure_sum_f64(
    ctx: &mut PartyCtx,
    codec: &FixedPointCodec,
    values: &[f64],
    label: &str,
) -> Result<Vec<f64>, MpcError> {
    let encoded = codec.encode_ring_vec(values)?;
    let total = secure_sum_ring(ctx, &encoded, label)?;
    Ok(codec.decode_ring_vec(&total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetOptions, Network};

    #[test]
    fn totals_correct_all_party_counts() {
        for n in 1..=5usize {
            let results = Network::run_parties(n, 42, move |ctx| {
                let me = ctx.id() as u64;
                let mine = vec![
                    R64(me + 1),
                    R64(100 * (me + 1)),
                    R64::from_i64(-(me as i64)),
                ];
                secure_sum_ring(ctx, &mine, "test total").unwrap()
            });
            let expect_0: u64 = (1..=n as u64).sum();
            let expect_1: u64 = 100 * expect_0;
            let expect_2: i64 = -((0..n as i64).sum::<i64>());
            for r in &results {
                assert_eq!(r[0], R64(expect_0), "n={n}");
                assert_eq!(r[1], R64(expect_1), "n={n}");
                assert_eq!(r[2].as_i64(), expect_2, "n={n}");
            }
        }
    }

    #[test]
    fn f64_wrapper_and_precision() {
        let inputs = [1.25f64, -7.5, 3.0625];
        let results = Network::run_parties(3, 9, |ctx| {
            let codec = FixedPointCodec::new(32).unwrap();
            let mine = vec![inputs[ctx.id()]];
            secure_sum_f64(ctx, &codec, &mine, "x").unwrap()
        });
        let expect: f64 = inputs.iter().sum();
        for r in results {
            assert!((r[0] - expect).abs() < 1e-8);
        }
    }

    #[test]
    fn disclosure_recorded_once() {
        let (slots, _stats, audit) =
            Network::run_parties_detailed_with(3, 1, &NetOptions::default(), |ctx| {
                secure_sum_ring(ctx, &[R64(1), R64(2)], "aggregate pair").unwrap()
            })
            .unwrap();
        assert!(slots.iter().all(Result::is_ok), "{slots:?}");
        let entries = audit.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].label, "aggregate pair");
        assert_eq!(entries[0].scalars, 2);
        assert_eq!(entries[0].source_party, None);
        assert_eq!(audit.per_party_disclosures(), 0);
    }

    #[test]
    fn communication_is_linear_in_len_and_independent_of_secret() {
        let bytes_for = |len: usize| {
            let (slots, stats, _a) =
                Network::run_parties_detailed_with(3, 4, &NetOptions::default(), move |ctx| {
                    let mine = vec![R64(ctx.id() as u64); len];
                    secure_sum_ring(ctx, &mine, "x").unwrap()
                })
                .unwrap();
            assert!(slots.iter().all(Result::is_ok), "{slots:?}");
            stats.total_bytes()
        };
        let b100 = bytes_for(100);
        let b200 = bytes_for(200);
        // Doubling the vector roughly doubles traffic (headers amortized).
        let ratio = b200 as f64 / b100 as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn empty_vector_is_fine() {
        let results = Network::run_parties(3, 2, |ctx| secure_sum_ring(ctx, &[], "empty").unwrap());
        for r in results {
            assert!(r.is_empty());
        }
    }

    #[test]
    fn overflow_rejected_before_sending() {
        let results = Network::run_parties(2, 2, |ctx| {
            let codec = FixedPointCodec::new(40).unwrap();
            // Way beyond 2^22 integer range at 40 fractional bits.
            secure_sum_f64(ctx, &codec, &[1e12], "x")
        });
        for r in results {
            assert!(matches!(r, Err(MpcError::FixedPointOverflow { .. })));
        }
    }

    #[test]
    fn single_party_identity() {
        let results =
            Network::run_parties(1, 2, |ctx| secure_sum_ring(ctx, &[R64(5)], "solo").unwrap());
        assert_eq!(results[0], vec![R64(5)]);
    }
}
