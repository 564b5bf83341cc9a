//! Beaver-triple inner products on secret shares.
//!
//! This powers the paper's strictest mode ("use a more sophisticated SMC
//! algorithm to only share the three right-hand quantities"): the K-vector
//! summands `Qᵀy` and `QᵀX_m` stay secret-shared — a party's summand *is*
//! its additive share of the aggregate — and only the final dot products
//! `Qᵀy·Qᵀy`, `QᵀX_m·Qᵀy`, `QᵀX_m·QᵀX_m` are ever opened.
//!
//! Protocol (per inner product, inputs shared over F_{2⁶¹−1}): with a
//! preprocessed vector triple `(a⃗, b⃗, c = a⃗·b⃗)`, parties open the masked
//! differences `d⃗ = x⃗ − a⃗` and `e⃗ = y⃗ − b⃗` (uniform, reveal nothing) and
//! output the share `z = c + d⃗·⟨b⃗⟩ + e⃗·⟨a⃗⟩ (+ d⃗·e⃗ at party 0)`, which
//! reconstructs to `x⃗·y⃗`. [`beaver_inner_batch`] is the one product: a
//! whole batch of length-L dots costs one round of `2L` opened masked
//! words each, concatenated into a single opening. One inner product is a
//! batch of one; a scalar product is an inner product of length 1.
//!
//! Every share, triple and intermediate result here travels wrapped in
//! [`Secret`]; the only unwrap points are the audited
//! [`crate::party::PartyCtx::open_sum`] openings behind [`open_field`].

use crate::dealer::InnerTriple;
use crate::error::MpcError;
use crate::field::F61;
use crate::party::PartyCtx;
use crate::secret::Secret;

/// One `(xs, ys)` operand pair for [`beaver_inner_batch`]: borrowed,
/// wrapped share vectors of equal length.
pub type SecretVecPair<'a> = (&'a Secret<Vec<F61>>, &'a Secret<Vec<F61>>);

/// Opens a vector of shared field elements: everyone broadcasts shares and
/// sums. With `Some(label)` the total is a disclosure, recorded by party 0
/// with the count taken from the opened value itself; with `None` the
/// total is a uniform one-time-pad difference (not a disclosure).
pub fn open_field(
    ctx: &mut PartyCtx,
    shares: &Secret<Vec<F61>>,
    disclosed_as: Option<&str>,
) -> Result<Vec<F61>, MpcError> {
    let tag = ctx.fresh_tag();
    ctx.open_sum(tag, shares, disclosed_as)
}

/// Batched inner products: evaluates many length-L dots in **one**
/// communication round by concatenating every pair's masked differences
/// into a single opening.
///
/// `pairs[i]` is `(xs_i, ys_i)`; `triples` must supply one inner-product
/// triple of matching length per pair. Returns one (wrapped) share per
/// pair.
///
/// This is what makes the strictest scan mode round-efficient: 2M+1 dot
/// products cost one masked opening plus one result opening instead of
/// 2M+1 sequential rounds — on a WAN, the difference between seconds and
/// hours.
pub fn beaver_inner_batch(
    ctx: &mut PartyCtx,
    pairs: &[SecretVecPair<'_>],
    triples: &[Secret<InnerTriple>],
) -> Result<Secret<Vec<F61>>, MpcError> {
    if triples.len() != pairs.len() {
        return Err(MpcError::LengthMismatch {
            what: "beaver_inner_batch triples",
            expected: pairs.len(),
            got: triples.len(),
        });
    }
    // Concatenate [xs_i − a_i ; ys_i − b_i] for all i.
    let total_len: usize = pairs.iter().map(|(x, _)| 2 * x.scalar_count()).sum();
    let mut pads = Vec::with_capacity(total_len);
    for ((xs, ys), tr) in pairs.iter().zip(triples.iter()) {
        let len = xs.scalar_count();
        if ys.scalar_count() != len {
            return Err(MpcError::LengthMismatch {
                what: "beaver_inner_batch operands",
                expected: len,
                got: ys.scalar_count(),
            });
        }
        if tr.vec_len() != len {
            return Err(MpcError::LengthMismatch {
                what: "beaver_inner_batch triple length",
                expected: len,
                got: tr.vec_len(),
            });
        }
        let t = tr.expose();
        pads.extend(xs.expose().iter().zip(&t.a).map(|(&x, &a)| x - a));
        pads.extend(ys.expose().iter().zip(&t.b).map(|(&y, &b)| y - b));
    }
    // dash-analyze::allow(disclosure-completeness): the concatenated
    // per-pair differences are uniform one-time-pad values; opening them
    // reveals nothing, so no disclosure entry is due here.
    let opened = open_field(ctx, &Secret::new(pads), None)?;
    // Reassemble shares.
    let mut out = Vec::with_capacity(pairs.len());
    let mut off = 0;
    let leader = ctx.id() == 0;
    for ((xs, _), tr) in pairs.iter().zip(triples.iter()) {
        let len = xs.scalar_count();
        let t = tr.expose();
        let de = opened.get(off..off + 2 * len).ok_or(MpcError::Protocol {
            what: "beaver_inner_batch: opened buffer shorter than its declared shape",
        })?;
        let (d, e) = de.split_at(len);
        off += 2 * len;
        let mut z = t.c;
        for ((&dv, &ev), (&av, &bv)) in d.iter().zip(e).zip(t.a.iter().zip(&t.b)) {
            z += dv * bv + ev * av;
        }
        if leader {
            for (&dv, &ev) in d.iter().zip(e) {
                z += dv * ev;
            }
        }
        out.push(z);
    }
    Ok(Secret::new(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::DisclosureLog;
    use crate::dealer::{PartyTriples, TrustedDealer};
    use crate::fixed::FixedPointCodec;
    use crate::net::{NetOptions, Network};
    use parking_lot::Mutex;

    /// Runs `f` at every party with its slice of `deal_inners(len, count)`
    /// (threads take their own bundle at startup); returns the results and
    /// the shared disclosure log.
    fn with_triples<T: Send>(
        n: usize,
        (len, count): (usize, usize),
        f: impl Fn(&mut PartyCtx, &mut PartyTriples) -> T + Sync,
    ) -> (Vec<T>, DisclosureLog) {
        let slots: Vec<Mutex<Option<PartyTriples>>> = TrustedDealer::new(n, 31)
            .unwrap()
            .deal_inners(len, count)
            .into_iter()
            .map(|b| Mutex::new(Some(b)))
            .collect();
        let (results, _stats, audit) =
            Network::run_parties_detailed_with(n, 32, &NetOptions::default(), |ctx| {
                let mut mine = slots[ctx.id()].lock().take().expect("bundle taken once");
                f(ctx, &mut mine)
            })
            .unwrap();
        (results.into_iter().map(Result::unwrap).collect(), audit)
    }

    /// Party `id`'s additive share of pair `p`'s operands — its own clear
    /// summand, the way the scan shares `Qᵀy` and `QᵀX`.
    fn summands(id: usize, p: usize, len: usize) -> (Vec<f64>, Vec<f64>) {
        let xs = (0..len)
            .map(|i| (p * len + i) as f64 * 0.25 - 1.0 + id as f64 * 0.125)
            .collect();
        let ys = (0..len)
            .map(|i| 1.5 - (p + i) as f64 * 0.5 - id as f64 * 0.375)
            .collect();
        (xs, ys)
    }

    /// The clear reference: `(Σ_id xs) · (Σ_id ys)` for pair `p`.
    fn expected_dot(n: usize, p: usize, len: usize) -> f64 {
        (0..len)
            .map(|i| {
                let x: f64 = (0..n).map(|id| summands(id, p, len).0[i]).sum();
                let y: f64 = (0..n).map(|id| summands(id, p, len).1[i]).sum();
                x * y
            })
            .sum()
    }

    fn encoded(codec: &FixedPointCodec, v: &[f64]) -> Secret<Vec<F61>> {
        Secret::new(codec.encode_field_vec(v).unwrap())
    }

    #[test]
    fn open_reconstructs_and_records_once() {
        let (results, audit) = with_triples(3, (0, 0), |ctx, _| {
            let share = Secret::new(vec![F61::from_i64((ctx.id() as i64 + 1) * 7)]);
            open_field(ctx, &share, Some("sum of shares")).unwrap()[0].as_i64()
        });
        assert_eq!(results, vec![7 + 14 + 21; 3]);
        let entries = audit.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].scalars, entries[0].source_party), (1, None));
    }

    #[test]
    fn inner_product_correct() {
        // A single inner product is a batch of one.
        let (n, len) = (4, 8);
        let codec = FixedPointCodec::new(20).unwrap();
        let (results, _) = with_triples(n, (len, 1), |ctx, triples| {
            let (xs, ys) = summands(ctx.id(), 0, len);
            let (xs, ys) = (encoded(&codec, &xs), encoded(&codec, &ys));
            let t = triples.next_inner().unwrap();
            let z = beaver_inner_batch(ctx, &[(&xs, &ys)], &[t]).unwrap();
            let opened = open_field(ctx, &z, Some("dot")).unwrap();
            codec.decode_field_product(opened[0])
        });
        let expect = expected_dot(n, 0, len);
        for r in results {
            assert!((r - expect).abs() < 1e-3, "r={r} expect={expect}");
        }
    }

    #[test]
    fn masked_openings_reveal_nothing_recognizable() {
        // The d = x − a opening inside the product must not equal the raw
        // input (a is uniform). Party 0 holds x, party 1 a zero share.
        let x_clear = F61::from_i64(5);
        let (results, audit) = with_triples(2, (1, 1), |ctx, triples| {
            let x = if ctx.id() == 0 { x_clear } else { F61::ZERO };
            let t = triples.next_inner().unwrap();
            let pad = Secret::new(x).zip_with(t, |x, t| vec![x - t.a[0]]);
            open_field(ctx, &pad, None).unwrap()[0]
        });
        assert_eq!(results[0], results[1]);
        assert_ne!(results[0], x_clear, "mask failed to hide the input");
        // A pad opening is not a disclosure.
        assert!(audit.entries().is_empty());
    }

    #[test]
    fn a_batch_equals_its_pairs_one_at_a_time() {
        let (n, len, n_pairs) = (3, 5, 4);
        let codec = FixedPointCodec::new(20).unwrap();
        let (results, _) = with_triples(n, (len, 2 * n_pairs), |ctx, triples| {
            let share_pairs: Vec<_> = (0..n_pairs)
                .map(|p| {
                    let (xs, ys) = summands(ctx.id(), p, len);
                    (encoded(&codec, &xs), encoded(&codec, &ys))
                })
                .collect();
            // One round per pair.
            let mut seq = Vec::new();
            for (xs, ys) in &share_pairs {
                let t = triples.next_inner().unwrap();
                let z = beaver_inner_batch(ctx, &[(xs, ys)], &[t]).unwrap();
                seq.push(open_field(ctx, &z, None).unwrap()[0]);
            }
            // One round for all of them, on fresh triples.
            let batch_triples: Vec<Secret<InnerTriple>> = (0..n_pairs)
                .map(|_| triples.next_inner().unwrap())
                .collect();
            let pair_refs: Vec<SecretVecPair<'_>> =
                share_pairs.iter().map(|(x, y)| (x, y)).collect();
            let batch = beaver_inner_batch(ctx, &pair_refs, &batch_triples).unwrap();
            (seq, open_field(ctx, &batch, None).unwrap())
        });
        for (seq_open, batch_open) in results {
            for (p, (s, b)) in seq_open.iter().zip(&batch_open).enumerate() {
                let expect = expected_dot(n, p, len);
                assert!((codec.decode_field_product(*s) - expect).abs() < 1e-3);
                assert_eq!(s, b, "pair {p}: batch disagrees with one at a time");
            }
        }
    }

    #[test]
    fn batch_shape_errors() {
        let (results, _) = with_triples(2, (3, 2), |ctx, triples| {
            let t = triples.next_inner().unwrap();
            let xs = Secret::new(vec![F61::ONE; 3]);
            let ys = Secret::new(vec![F61::ONE; 3]);
            // Wrong triple count.
            let r1 =
                beaver_inner_batch(ctx, &[(&xs, &ys), (&xs, &ys)], std::slice::from_ref(&t)).err();
            // Mismatched operand lengths.
            let short = Secret::new(vec![F61::ONE; 2]);
            let r2 = beaver_inner_batch(ctx, &[(&xs, &short)], std::slice::from_ref(&t)).err();
            // Triple dealt for another length.
            let r3 = beaver_inner_batch(ctx, &[(&short, &short)], &[t]).err();
            [r1, r2, r3]
        });
        for r in results.into_iter().flatten() {
            assert!(matches!(r, Some(MpcError::LengthMismatch { .. })), "{r:?}");
        }
    }
}
