//! Beaver-triple inner products on secret shares.
//!
//! This powers the paper's strictest mode ("use a more sophisticated SMC
//! algorithm to only share the three right-hand quantities"): the K-vector
//! summands `Qᵀy` and `QᵀX_m` stay secret-shared — a party's summand *is*
//! its additive share of the aggregate — and only the final dot products
//! `Qᵀy·Qᵀy`, `QᵀX_m·Qᵀy`, `QᵀX_m·QᵀX_m` are ever opened.
//!
//! Protocol (per inner product, inputs shared over Z₂⁶⁴): with a
//! preprocessed vector triple `(a⃗, b⃗, c = a⃗·b⃗)`, parties open the masked
//! differences `d⃗ = x⃗ − a⃗` and `e⃗ = y⃗ − b⃗` (uniform in the ring, so they
//! reveal nothing) and output the share `z = c + d⃗·⟨b⃗⟩ + e⃗·⟨a⃗⟩ (+ d⃗·e⃗ at
//! party 0)`, which reconstructs to `x⃗·y⃗`. Nothing divides or inverts, so
//! a ring is enough; [`crate::fixed`] states when the opened product
//! decodes exactly. [`beaver_inner_batch`] is the one product: a
//! whole batch of length-L dots costs one round of `2L` opened masked
//! words each, concatenated into a single opening, against one flat
//! [`TripleBatch`] and two flat operand vectors of the same shape. One
//! inner product is a batch of one; a scalar product is an inner product
//! of length 1.
//!
//! Every share, triple and intermediate result here travels wrapped in
//! [`Secret`]; the only unwrap points are the audited
//! [`PartyCtx::open_sum`] openings.

use crate::dealer::TripleBatch;
use crate::error::MpcError;
use crate::party::PartyCtx;
use crate::ring::R64;
use crate::secret::Secret;

/// Batched inner products: evaluates many length-L dots in **one**
/// communication round by concatenating every product's masked
/// differences into a single opening — 2M+1 dot products cost one masked
/// and one result opening per block instead of 2M+1 sequential rounds.
///
/// `xs` and `ys` are laid out like the batch's `a` and `b` regions
/// (product `i` at row `i` of [`TripleBatch::rows`]), so both must hold
/// `count × len` shares; anything else is a [`MpcError::LengthMismatch`]
/// before a word is sent. Returns one (wrapped) share per product. An
/// empty batch, or one of empty vectors (every product the empty dot),
/// still runs its opening, of zero words: every party stays on one tag.
pub fn beaver_inner_batch(
    ctx: &mut PartyCtx,
    xs: &Secret<Vec<R64>>,
    ys: &Secret<Vec<R64>>,
    triples: &Secret<TripleBatch>,
) -> Result<Secret<Vec<R64>>, MpcError> {
    let t = triples.expose();
    let (a, b, c) = t.parts();
    for (what, operand) in [
        ("beaver_inner_batch xs vs batch", xs),
        ("beaver_inner_batch ys vs batch", ys),
    ] {
        if operand.scalar_count() != a.len() {
            return Err(MpcError::LengthMismatch {
                what,
                expected: a.len(),
                got: operand.scalar_count(),
            });
        }
    }
    // Per product, [x⃗ − a⃗ ; y⃗ − b⃗].
    let mut pads = Vec::with_capacity(2 * a.len());
    let operands = t.rows(xs.expose()).zip(t.rows(ys.expose()));
    for ((x, y), (a, b)) in operands.zip(t.rows(a).zip(t.rows(b))) {
        pads.extend(x.iter().zip(a).map(|(&x, &a)| x - a));
        pads.extend(y.iter().zip(b).map(|(&y, &b)| y - b));
    }
    // dash-analyze::allow(disclosure-completeness): the concatenated
    // per-product differences are uniform one-time-pad values; opening
    // them reveals nothing, so no disclosure entry is due here.
    let opened = ctx.open_sum(&Secret::new(pads), None)?;
    if opened.len() != 2 * a.len() {
        return Err(MpcError::Protocol {
            what: "beaver_inner_batch: opened buffer differs from its declared shape",
        });
    }
    // Reassemble shares.
    let leader = ctx.id() == 0;
    let mut out = Vec::with_capacity(c.len());
    let mut rest = opened.as_slice();
    for ((a, b), &ci) in t.rows(a).zip(t.rows(b)).zip(c) {
        let (d, tail) = rest.split_at(a.len());
        let (e, tail) = tail.split_at(b.len());
        rest = tail;
        let mut z = ci;
        for ((&dv, &ev), (&av, &bv)) in d.iter().zip(e).zip(a.iter().zip(b)) {
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
    use crate::dealer::TrustedDealer;
    use crate::fixed::FixedPointCodec;
    use crate::net::{NetOptions, Network};
    use parking_lot::Mutex;

    /// Runs `f` at every party with its slice of each `deal_inners(len,
    /// count)` batch in `shapes`, in order (threads take their own bundle
    /// at startup); returns the results and the shared disclosure log.
    fn with_triples<T: Send>(
        n: usize,
        shapes: &[(usize, usize)],
        f: impl Fn(&mut PartyCtx, Vec<Secret<TripleBatch>>) -> T + Sync,
    ) -> (Vec<T>, DisclosureLog) {
        let mut dealer = TrustedDealer::new(n, 31).unwrap();
        let mut slots: Vec<Vec<Secret<TripleBatch>>> = vec![Vec::new(); n];
        for &(len, count) in shapes {
            for (slot, batch) in slots.iter_mut().zip(dealer.deal_inners(len, count)) {
                slot.push(batch);
            }
        }
        let slots: Vec<_> = slots.into_iter().map(|b| Mutex::new(Some(b))).collect();
        let (results, _stats, audit) =
            Network::run_parties_detailed_with(n, 32, &NetOptions::default(), |ctx| {
                let mine = slots[ctx.id()].lock().take().expect("bundle taken once");
                f(ctx, mine)
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

    /// Party `id`'s flat, encoded operands for pairs `pairs`.
    fn operands(
        codec: &FixedPointCodec,
        id: usize,
        pairs: std::ops::Range<usize>,
        len: usize,
    ) -> (Secret<Vec<R64>>, Secret<Vec<R64>>) {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for p in pairs {
            let (x, y) = summands(id, p, len);
            xs.extend(x);
            ys.extend(y);
        }
        let encoded = |v: &[f64]| Secret::new(codec.encode_field_vec(v).unwrap());
        (encoded(&xs), encoded(&ys))
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

    #[test]
    fn open_reconstructs_and_records_once() {
        let (results, audit) = with_triples(3, &[], |ctx, _| {
            let share = Secret::new(vec![R64::from_i64((ctx.id() as i64 + 1) * 7)]);
            ctx.open_sum(&share, Some("sum of shares")).unwrap()[0].as_i64()
        });
        assert_eq!(results, vec![7 + 14 + 21; 3]);
        let entries = audit.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].scalars, entries[0].source_party), (1, None));
    }

    #[test]
    fn inner_product_correct() {
        // A single inner product is a batch of one; one party is a valid
        // party count (its share of every triple is the triple).
        let len = 8;
        let codec = FixedPointCodec::new(20).unwrap();
        for n in [1, 4] {
            let (results, _) = with_triples(n, &[(len, 1)], |ctx, triples| {
                let (xs, ys) = operands(&codec, ctx.id(), 0..1, len);
                let z = beaver_inner_batch(ctx, &xs, &ys, &triples[0]).unwrap();
                let opened = ctx.open_sum(&z, Some("dot")).unwrap();
                codec.decode_product(opened[0])
            });
            let expect = expected_dot(n, 0, len);
            for r in results {
                assert!((r - expect).abs() < 1e-3, "n={n} r={r} expect={expect}");
            }
        }
    }

    #[test]
    fn products_decode_exactly_up_to_the_ring_bound() {
        // The bound is |Σ x·y|·2^{2f} < 2^63 (`crate::fixed`). At f = 20,
        // x = y = 1024 encodes to 2^30 and multiplies to 2^60, which a
        // 61-bit modulus would wrap. 2^11 − 2^−10 multiplies to just under
        // 2^62. Two parties hold half of x each.
        let codec = FixedPointCodec::new(20).unwrap();
        for x in [1024.0, 2048.0 - 1.0 / 1024.0] {
            let (results, _) = with_triples(2, &[(1, 1)], |ctx, triples| {
                let half = Secret::new(codec.encode_field_vec(&[x / 2.0]).unwrap());
                let z = beaver_inner_batch(ctx, &half, &half, &triples[0]).unwrap();
                codec.decode_product(ctx.open_sum(&z, Some("product")).unwrap()[0])
            });
            assert_eq!(results, vec![x * x; 2], "x = {x}");
        }
    }

    #[test]
    fn masked_openings_reveal_nothing_recognizable() {
        // The d = x − a opening inside the product must not equal the raw
        // input (a is uniform). Party 0 holds x, party 1 a zero share.
        let x_clear = R64::from_i64(5);
        let (results, audit) = with_triples(2, &[(1, 1)], |ctx, mut triples| {
            let x = if ctx.id() == 0 { x_clear } else { R64::ZERO };
            let t = triples.remove(0);
            let pad = t.map(|t| vec![x - t.parts().0[0]]);
            ctx.open_sum(&pad, None).unwrap()[0]
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
        let mut shapes = vec![(len, 1); n_pairs];
        shapes.push((len, n_pairs));
        let (results, _) = with_triples(n, &shapes, |ctx, triples| {
            // One round per pair.
            let mut seq = Vec::new();
            for (p, t) in triples[..n_pairs].iter().enumerate() {
                let (xs, ys) = operands(&codec, ctx.id(), p..p + 1, len);
                let z = beaver_inner_batch(ctx, &xs, &ys, t).unwrap();
                seq.push(ctx.open_sum(&z, None).unwrap()[0]);
            }
            // One round for all of them, on fresh triples.
            let (xs, ys) = operands(&codec, ctx.id(), 0..n_pairs, len);
            let batch = beaver_inner_batch(ctx, &xs, &ys, &triples[n_pairs]).unwrap();
            (seq, ctx.open_sum(&batch, None).unwrap())
        });
        for (seq_open, batch_open) in results {
            assert_eq!(batch_open.len(), n_pairs);
            for (p, (s, b)) in seq_open.iter().zip(&batch_open).enumerate() {
                let expect = expected_dot(n, p, len);
                assert!((codec.decode_product(*s) - expect).abs() < 1e-3);
                assert_eq!(s, b, "pair {p}: batch disagrees with one at a time");
            }
        }
    }

    #[test]
    fn batch_shape_errors() {
        let (results, _) = with_triples(2, &[(3, 2)], |ctx, triples| {
            let t = &triples[0];
            let full = Secret::new(vec![R64::ONE; 6]);
            // One product's worth of operands against a batch of two, a
            // short ys, and operands for another vector length: each a
            // structured error before anything is sent, never an index
            // panic.
            let one = Secret::new(vec![R64::ONE; 3]);
            let long = Secret::new(vec![R64::ONE; 8]);
            [
                beaver_inner_batch(ctx, &one, &one, t).err(),
                beaver_inner_batch(ctx, &full, &one, t).err(),
                beaver_inner_batch(ctx, &long, &long, t).err(),
            ]
        });
        for r in results.into_iter().flatten() {
            assert!(matches!(r, Some(MpcError::LengthMismatch { .. })), "{r:?}");
        }
    }

    #[test]
    fn degenerate_batches_run_an_empty_round() {
        // count == 0: no products. len == 0 (K = 0): every product is the
        // empty dot, whose shares are the batch's shares of c = 0.
        let (results, audit) = with_triples(3, &[(4, 0), (0, 5)], |ctx, triples| {
            let none = Secret::new(Vec::new());
            let empty = beaver_inner_batch(ctx, &none, &none, &triples[0]).unwrap();
            let dots = beaver_inner_batch(ctx, &none, &none, &triples[1]).unwrap();
            (
                empty.scalar_count(),
                ctx.open_sum(&dots, None).unwrap(),
                ctx.fresh_tag(),
            )
        });
        for (empty, dots, tag) in &results {
            assert_eq!(*empty, 0);
            assert_eq!(dots, &vec![R64::ZERO; 5]);
            assert_eq!(*tag, results[0].2, "parties left on different tags");
        }
        assert!(audit.entries().is_empty());
    }
}
