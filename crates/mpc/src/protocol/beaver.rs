//! Beaver products on secret shares, each operand masked once.
//!
//! This powers the paper's strictest mode ("use a more sophisticated SMC
//! algorithm to only share the three right-hand quantities"): the K-vector
//! summands `Qᵀy` and `QᵀX_j` stay secret-shared — a party's summand *is*
//! its additive share of the aggregate — and only the final dot products
//! `Qᵀy·Qᵀy`, `QᵀX_j·Qᵀy`, `QᵀX_j·QᵀX_j` are ever opened.
//!
//! Protocol (inputs shared over Z₂⁶⁴), against the dealer's run mask `b⃗`
//! and one projection `(a⃗_j, c_j = a⃗_j·b⃗, s_j = a⃗_j·a⃗_j)` per variant
//! ([`crate::dealer`]). Every opened difference is uniform in the ring, so
//! it reveals nothing.
//!
//! - [`open_mask`], once per run: open `e⃗ = y⃗ − b⃗`; the share of `y⃗·y⃗`
//!   is `b⃗·b⃗ + 2·e⃗·⟨b⃗⟩ (+ e⃗·e⃗ at party 0)`.
//! - [`project`], per block: open `d⃗_j = x⃗_j − a⃗_j` for every variant,
//!   one opening of `count × K` words; the shares of `x⃗_j·y⃗` and
//!   `x⃗_j·x⃗_j` are `c_j + d⃗_j·⟨b⃗⟩ + e⃗·⟨a⃗_j⟩ (+ d⃗_j·e⃗ at party 0)` and
//!   `s_j + 2·d⃗_j·⟨a⃗_j⟩ (+ d⃗_j·d⃗_j at party 0)`.
//!
//! These reconstruct to the exact ring products, the same words generic
//! inner-product triples give, at a quarter of their opened pad words:
//! `x⃗_j` is masked once for both its products, and `y⃗` once per run.
//! Nothing divides or inverts, so a ring is enough; [`crate::fixed`]
//! states when an opened product decodes exactly.
//!
//! Every share and intermediate result here travels wrapped in
//! [`Secret`]; the only unwrap points are the audited
//! [`PartyCtx::open_sum`] openings.

use crate::dealer::ProjectionBatch;
use crate::error::MpcError;
use crate::party::{Opening, PartyCtx};
use crate::ring::R64;
use crate::secret::Secret;

/// The run-constant operand `y⃗` after [`open_mask`]: its opened
/// difference `e⃗ = y⃗ − b⃗` from the run's mask, and this party's share of
/// `b⃗`.
pub struct MaskedOperand {
    e: Vec<R64>,
    b: Secret<Vec<R64>>,
}

/// `x − a` word by word, opened as one pad: a uniform one-time-pad value,
/// so no disclosure entry is due. The opening must come back in `x`'s
/// shape.
fn open_difference(ctx: &mut PartyCtx, x: &[R64], a: &[R64]) -> Result<Vec<R64>, MpcError> {
    let pads = x.iter().zip(a).map(|(&x, &a)| x - a).collect();
    let opened = ctx.open_sum(&Secret::new(pads), Opening::Pad)?;
    if opened.len() != x.len() {
        return Err(MpcError::Protocol {
            what: "beaver: opened pad differs from its declared shape",
        });
    }
    Ok(opened)
}

/// Opens the run-constant operand `y` against the run's `mask` (the
/// dealer's batch of one, whose `a⃗` is `b⃗`) in one round of K pad words.
/// Returns `y` masked for every later [`project`] call, and this party's
/// share of `y⃗·y⃗` (one word). A `y` of another length than the mask, or
/// a mask batch of other than one, is a [`MpcError::LengthMismatch`]
/// before a word is sent.
pub fn open_mask(
    ctx: &mut PartyCtx,
    y: &Secret<Vec<R64>>,
    mask: &Secret<ProjectionBatch>,
) -> Result<(MaskedOperand, Secret<Vec<R64>>), MpcError> {
    let t = mask.expose();
    let (b, _, bb) = t.parts();
    for (what, expected, got) in [
        ("open_mask: mask batch count", 1, bb.len()),
        ("open_mask: y vs mask", b.len(), y.scalar_count()),
    ] {
        if got != expected {
            return Err(MpcError::LengthMismatch {
                what,
                expected,
                got,
            });
        }
    }
    let e = open_difference(ctx, y.expose(), b)?;
    let eb = R64::dot(&e, b);
    let mut z = R64::sum(bb) + eb + eb;
    if ctx.id() == 0 {
        z += R64::dot(&e, &e);
    }
    let y = MaskedOperand {
        e,
        b: Secret::new(b.to_vec()),
    };
    Ok((y, Secret::new(vec![z])))
}

/// The two products of every operand in `xs` with the masked `y` and with
/// itself, in **one** round: the batch's `count × K` differences open as
/// a single pad.
///
/// `xs` is laid out like the batch's `a` region (operand `j` at row `j`
/// of [`ProjectionBatch::rows`]), so it must hold `count × K` shares, and
/// `y` must be of length K; anything else is a
/// [`MpcError::LengthMismatch`] before a word is sent. Returns the shares
/// `[x⃗_0·y⃗, x⃗_0·x⃗_0, x⃗_1·y⃗, …]`, wrapped. An empty batch, or one of
/// empty vectors (every product the empty dot), still runs its opening,
/// of zero words: every party stays on one tag.
pub fn project(
    ctx: &mut PartyCtx,
    xs: &Secret<Vec<R64>>,
    y: &MaskedOperand,
    batch: &Secret<ProjectionBatch>,
) -> Result<Secret<Vec<R64>>, MpcError> {
    let t = batch.expose();
    let (a, c, s) = t.parts();
    for (what, expected, got) in [
        ("project: xs vs batch", a.len(), xs.scalar_count()),
        ("project: y vs batch", t.dim(), y.e.len()),
    ] {
        if got != expected {
            return Err(MpcError::LengthMismatch {
                what,
                expected,
                got,
            });
        }
    }
    let opened = open_difference(ctx, xs.expose(), a)?;
    let (e, b) = (y.e.as_slice(), y.b.expose().as_slice());
    let leader = ctx.id() == 0;
    let mut out = Vec::with_capacity(2 * c.len());
    for ((d, a), (&c, &s)) in t.rows(&opened).zip(t.rows(a)).zip(c.iter().zip(s)) {
        let da = R64::dot(d, a);
        let mut xy = c + R64::dot(d, b) + R64::dot(e, a);
        let mut xx = s + da + da;
        if leader {
            xy += R64::dot(d, e);
            xx += R64::dot(d, d);
        }
        out.push(xy);
        out.push(xx);
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

    /// Runs `f` at every party with its slice of the run's mask (of length
    /// `len`) and of each `deal_projections(count)` batch in `counts`, in
    /// order (threads take their own bundle at startup); returns the
    /// results and the shared disclosure log.
    fn with_mask<T: Send>(
        n: usize,
        len: usize,
        counts: &[usize],
        f: impl Fn(&mut PartyCtx, Vec<Secret<ProjectionBatch>>) -> T + Sync,
    ) -> (Vec<T>, DisclosureLog) {
        let mut dealer = TrustedDealer::new(n, 31).unwrap();
        let mut slots: Vec<Vec<Secret<ProjectionBatch>>> = vec![Vec::new(); n];
        let mask = dealer.deal_mask(len);
        let batches = counts.iter().map(|&count| dealer.deal_projections(count));
        for dealt in std::iter::once(mask).chain(batches) {
            for (slot, batch) in slots.iter_mut().zip(dealt) {
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

    /// Party `id`'s additive share of operand `p` (`p = 0` is `y`) — its
    /// own clear summand, the way the scan shares `Qᵀy` and `QᵀX`.
    fn summand(id: usize, p: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 1.5 - (p * len + i) as f64 * 0.25 + id as f64 * 0.125)
            .collect()
    }

    /// Party `id`'s encoded share of the operands `ps`, flat.
    fn operands(
        codec: &FixedPointCodec,
        id: usize,
        ps: std::ops::Range<usize>,
        len: usize,
    ) -> Secret<Vec<R64>> {
        let flat: Vec<f64> = ps.flat_map(|p| summand(id, p, len)).collect();
        Secret::new(codec.encode_field_vec(&flat).unwrap())
    }

    /// The clear reference: `(Σ_id x_p) · (Σ_id x_q)`.
    fn expected_dot(n: usize, (p, q): (usize, usize), len: usize) -> f64 {
        let total = |p| -> Vec<f64> {
            (0..len)
                .map(|i| (0..n).map(|id| summand(id, p, len)[i]).sum())
                .collect()
        };
        total(p).iter().zip(total(q)).map(|(x, y)| x * y).sum()
    }

    /// Opens `y·y` and the products of operands `1..=count` against `y`,
    /// decoded, at every party.
    fn products(n: usize, len: usize, count: usize) -> Vec<Vec<f64>> {
        let codec = FixedPointCodec::new(20).unwrap();
        let (results, audit) = with_mask(n, len, &[count], |ctx, batches| {
            let y = operands(&codec, ctx.id(), 0..1, len);
            let (y, yy) = open_mask(ctx, &y, &batches[0]).unwrap();
            let xs = operands(&codec, ctx.id(), 1..count + 1, len);
            let z = project(ctx, &xs, &y, &batches[1]).unwrap();
            let mut opened = ctx.open_sum(&yy, Opening::Disclosed("yy")).unwrap();
            opened.extend(ctx.open_sum(&z, Opening::Disclosed("dots")).unwrap());
            opened
                .into_iter()
                .map(|v| codec.decode_product(v))
                .collect()
        });
        // Two disclosures; the pads record none.
        assert_eq!(audit.entries().len(), 2);
        results
    }

    #[test]
    fn open_reconstructs_and_records_once() {
        let (results, audit) = with_mask(3, 0, &[], |ctx, _| {
            let share = Secret::new(vec![R64::from_i64((ctx.id() as i64 + 1) * 7)]);
            ctx.open_sum(&share, Opening::Disclosed("sum of shares"))
                .unwrap()[0]
                .declassify() as i64
        });
        assert_eq!(results, vec![7 + 14 + 21; 3]);
        let entries = audit.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].scalars, entries[0].source_party), (1, None));
    }

    #[test]
    fn products_are_correct() {
        // One party is a valid party count (its share of every mask is
        // the mask).
        for n in [1, 2, 4] {
            let (len, count) = (8, 3);
            for got in products(n, len, count) {
                let mut want = vec![expected_dot(n, (0, 0), len)];
                for j in 1..=count {
                    want.push(expected_dot(n, (j, 0), len));
                    want.push(expected_dot(n, (j, j), len));
                }
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-3, "n={n} got={g} want={w}");
                }
            }
        }
    }

    #[test]
    fn products_decode_exactly_up_to_the_ring_bound() {
        // The bound is |Σ x·y|·2^{2f} < 2^63 (`crate::fixed`). At f = 20,
        // x = y = 1024 encodes to 2^30 and multiplies to 2^60, which a
        // 61-bit modulus would wrap. 2^11 − 2^−10 multiplies to just under
        // 2^62. Two parties hold half of x each, as y and as the operand.
        let codec = FixedPointCodec::new(20).unwrap();
        for x in [1024.0, 2048.0 - 1.0 / 1024.0] {
            let (results, _) = with_mask(2, 1, &[1], |ctx, batches| {
                let half = Secret::new(codec.encode_field_vec(&[x / 2.0]).unwrap());
                let (y, yy) = open_mask(ctx, &half, &batches[0]).unwrap();
                let z = project(ctx, &half, &y, &batches[1]).unwrap();
                let mut opened = ctx.open_sum(&yy, Opening::Disclosed("y·y")).unwrap();
                opened.extend(ctx.open_sum(&z, Opening::Disclosed("x·y, x·x")).unwrap());
                opened
                    .into_iter()
                    .map(|v| codec.decode_product(v))
                    .collect::<Vec<_>>()
            });
            assert_eq!(results, vec![vec![x * x; 3]; 2], "x = {x}");
        }
    }

    #[test]
    fn masked_openings_reveal_nothing_recognizable() {
        // The e = y − b opening must not equal the raw input (b is
        // uniform). Party 0 holds y, party 1 a zero share.
        let y_clear = R64::from_i64(5);
        let (results, audit) = with_mask(2, 1, &[], |ctx, batches| {
            let y = if ctx.id() == 0 { y_clear } else { R64::ZERO };
            let (y, _) = open_mask(ctx, &Secret::new(vec![y]), &batches[0]).unwrap();
            y.e[0].declassify()
        });
        assert_eq!(results[0], results[1]);
        assert_ne!(
            results[0],
            y_clear.declassify(),
            "mask failed to hide the input"
        );
        // A pad opening is not a disclosure.
        assert!(audit.entries().is_empty());
    }

    #[test]
    fn a_batch_equals_its_operands_one_at_a_time() {
        let (n, len, count) = (3, 5, 4);
        let codec = FixedPointCodec::new(20).unwrap();
        let mut counts = vec![1; count];
        counts.push(count);
        let (results, _) = with_mask(n, len, &counts, |ctx, batches| {
            let y = operands(&codec, ctx.id(), 0..1, len);
            let (y, _) = open_mask(ctx, &y, &batches[0]).unwrap();
            // One round per operand.
            let mut seq = Vec::new();
            for (j, t) in batches[1..=count].iter().enumerate() {
                let xs = operands(&codec, ctx.id(), j + 1..j + 2, len);
                let z = project(ctx, &xs, &y, t).unwrap();
                seq.extend(ctx.open_sum(&z, Opening::Pad).unwrap());
            }
            // One round for all of them, on fresh projections.
            let xs = operands(&codec, ctx.id(), 1..count + 1, len);
            let batch = project(ctx, &xs, &y, &batches[count + 1]).unwrap();
            (seq, ctx.open_sum(&batch, Opening::Pad).unwrap())
        });
        for (seq, batch) in results {
            assert_eq!(batch.len(), 2 * count);
            assert_eq!(crate::ring::words(&seq), crate::ring::words(&batch));
        }
    }

    #[test]
    fn shape_errors() {
        let (results, _) = with_mask(2, 3, &[2], |ctx, batches| {
            let (mask, t) = (&batches[0], &batches[1]);
            let ones = |n| Secret::new(vec![R64::ONE; n]);
            // A y of another length, the projections for a mask, xs for
            // one operand against a batch of two, xs for another length,
            // and a y of another K: each a structured error before
            // anything is sent, never an index panic.
            let short_y = open_mask(ctx, &ones(2), mask).err();
            let not_a_mask = open_mask(ctx, &ones(3), t).err();
            let (y, _) = open_mask(ctx, &ones(3), mask).unwrap();
            let other_k = MaskedOperand {
                e: vec![R64::ONE; 2],
                b: ones(2),
            };
            [
                short_y,
                not_a_mask,
                project(ctx, &ones(3), &y, t).err(),
                project(ctx, &ones(8), &y, t).err(),
                project(ctx, &ones(6), &other_k, t).err(),
            ]
        });
        for r in results.into_iter().flatten() {
            assert!(matches!(r, Some(MpcError::LengthMismatch { .. })), "{r:?}");
        }
    }

    #[test]
    fn degenerate_batches_run_an_empty_round() {
        // count == 0: no products. len == 0 (K = 0): every product is the
        // empty dot, whose shares are the batch's shares of c = s = 0.
        let (results, audit) = with_mask(3, 0, &[0, 5], |ctx, batches| {
            let none = Secret::new(Vec::new());
            let (y, yy) = open_mask(ctx, &none, &batches[0]).unwrap();
            let empty = project(ctx, &none, &y, &batches[1]).unwrap();
            let dots = project(ctx, &none, &y, &batches[2]).unwrap();
            (
                empty.scalar_count(),
                ctx.open_sum(&yy, Opening::Pad).unwrap(),
                ctx.open_sum(&dots, Opening::Pad).unwrap(),
                ctx.fresh_tag(),
            )
        });
        for (empty, yy, dots, tag) in &results {
            assert_eq!(*empty, 0);
            assert_eq!(crate::ring::words(yy), [0]);
            assert_eq!(crate::ring::words(dots), [0; 10]);
            assert_eq!(*tag, results[0].3, "parties left on different tags");
        }
        assert!(audit.entries().is_empty());
    }
}
