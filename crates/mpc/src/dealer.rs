//! Trusted dealer for Beaver preprocessing.
//!
//! The Beaver mode needs correlated randomness that is independent of the
//! parties' inputs: inner-product triples `(a⃗, b⃗, c = a⃗·b⃗)`, additively
//! shared across the parties — one triple kind, because the one Beaver
//! product a scan runs is the batched inner product (a scalar product
//! would be a triple of length 1). A trusted dealer is the standard
//! "offline phase" abstraction for semi-honest protocols (in production it
//! would be replaced by OT- or HE-based preprocessing; the *online*
//! protocol — and hence the communication the experiments measure — is
//! identical either way, so the substitution preserves the behaviour the
//! paper cares about).
//!
//! Sharing is additive n-of-n over Z₂⁶⁴ — n−1 uniform draws, and the
//! value minus their sum — and happens only here: a scan's own inputs are
//! never re-shared, a party's summand already *is* its share of the
//! aggregate. The unit of dealing is the [`TripleBatch`], all the triples
//! of one Beaver round flat in one allocation per party; consecutive
//! [`TrustedDealer::deal_inners`] calls continue one PRG stream, so a
//! run's triples are the same words however they are cut into batches.

use crate::error::MpcError;
use crate::prg::Prg;
use crate::ring::R64;
use crate::secret::{ScalarCount, Secret};
use std::fmt;
use std::slice::IterMut;

/// One party's shares of a batch of `count` inner-product triples over
/// vectors of length `len`, structure-of-arrays in one arena.
#[derive(Clone, PartialEq, Eq)]
pub struct TripleBatch {
    len: usize,
    count: usize,
    /// The `a⃗` shares (`count × len`, triple after triple), then the `b⃗`
    /// shares (same shape), then the `count` shares of `c`.
    words: Vec<R64>,
}

impl fmt::Debug for TripleBatch {
    // Triple shares are secret material: print the batch shape, never the
    // values, even in panic messages or test diagnostics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (len, count) = (self.len, self.count);
        write!(
            f,
            "TripleBatch {{ len: {len}, count: {count}, <shares redacted> }}"
        )
    }
}

impl TripleBatch {
    /// Cuts a `count × len` region — `a`, `b`, or an operand laid out like
    /// them — into `count` per-triple vectors (empty if `len == 0`, or past
    /// the end of a region that is too short).
    pub fn rows<'a>(&self, region: &'a [R64]) -> impl Iterator<Item = &'a [R64]> {
        let len = self.len;
        (0..self.count).map(move |i| region.get(i * len..(i + 1) * len).unwrap_or(&[]))
    }

    /// The regions `(a, b, c)`: `a` and `b` hold `count × len` shares
    /// (cut per triple by [`TripleBatch::rows`]), `c` holds `count`.
    pub fn parts(&self) -> (&[R64], &[R64], &[R64]) {
        let (a, rest) = self.words.split_at(self.count * self.len);
        let (b, c) = rest.split_at(self.count * self.len);
        (a, b, c)
    }
}

impl ScalarCount for TripleBatch {
    fn scalar_count(&self) -> usize {
        self.words.len()
    }
}

impl Secret<TripleBatch> {
    /// Number of triples in the wrapped batch (public shape metadata —
    /// the protocols exchange counts in the clear anyway).
    pub fn count(&self) -> usize {
        self.expose().count
    }
}

/// Writes `v` to the cursor's next slot.
fn put(cursor: &mut IterMut<'_, R64>, v: R64) {
    cursor.take(1).for_each(|slot| *slot = v);
}

/// Splits `x` into one additive share per cursor and writes each to its
/// cursor's next slot: fresh uniform draws for all but the last party,
/// which takes `x` minus their sum.
fn share_into(x: R64, prg: &mut Prg, cursors: &mut [IterMut<'_, R64>]) {
    let (free, last) = cursors.split_at_mut(cursors.len().saturating_sub(1));
    let mut acc = R64::ZERO;
    for cursor in free {
        let s = prg.next_ring();
        acc += s;
        put(cursor, s);
    }
    for cursor in last {
        put(cursor, x - acc);
    }
}

/// The dealer itself: a seeded generator of shared correlated randomness.
#[derive(Debug)]
pub struct TrustedDealer {
    n: usize,
    prg: Prg,
}

impl TrustedDealer {
    /// Creates a dealer for `n ≥ 1` parties.
    pub fn new(n: usize, seed: u64) -> Result<Self, MpcError> {
        if n == 0 {
            return Err(MpcError::BadPartyCount {
                n_parties: 0,
                min: 1,
            });
        }
        Ok(TrustedDealer {
            n,
            prg: Prg::from_seed(Prg::derive_seed(seed, 0xDEA1)),
        })
    }

    /// Deals one batch of `count` inner-product triples over vectors of
    /// length `len`; returns each party's [`TripleBatch`], in party order,
    /// wrapped — triple shares are secret from the moment they exist.
    ///
    /// Every word is a uniform [`R64`], one `next_ring` draw each, and
    /// `c` is the wrapping multiply-add of `a⃗` and `b⃗` in Z₂⁶⁴.
    /// Draw order per triple: `a⃗`, `b⃗`, then for each element the n−1
    /// free shares of `a_i` and of `b_i`, then those of `c`; each share
    /// goes straight to its slot in its party's arena, so a call allocates
    /// the same number of times whatever `count` is. `len == 0` deals
    /// shares of `c = 0` only; `count == 0` draws nothing.
    pub fn deal_inners(&mut self, len: usize, count: usize) -> Vec<Secret<TripleBatch>> {
        let words = vec![R64::ZERO; count * (2 * len + 1)];
        let mut out = vec![TripleBatch { len, count, words }; self.n];
        // One write cursor per party and region: each region fills front
        // to back in draw order.
        let (mut cur_a, mut cur_b, mut cur_c) = (Vec::new(), Vec::new(), Vec::new());
        for batch in &mut out {
            let (a, rest) = batch.words.split_at_mut(count * len);
            let (b, c) = rest.split_at_mut(count * len);
            cur_a.push(a.iter_mut());
            cur_b.push(b.iter_mut());
            cur_c.push(c.iter_mut());
        }
        let (mut a, mut b) = (vec![R64::ZERO; len], vec![R64::ZERO; len]);
        for _ in 0..count {
            a.fill_with(|| self.prg.next_ring());
            b.fill_with(|| self.prg.next_ring());
            let c = a
                .iter()
                .zip(&b)
                .fold(R64::ZERO, |acc, (&x, &y)| acc + x * y);
            for (&ai, &bi) in a.iter().zip(&b) {
                share_into(ai, &mut self.prg, &mut cur_a);
                share_into(bi, &mut self.prg, &mut cur_b);
            }
            share_into(c, &mut self.prg, &mut cur_c);
        }
        out.into_iter().map(Secret::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::DisclosureLog;
    use crate::secret::OpenMode;

    /// One party's triple in the layout this module replaced.
    type RefTriple = (Vec<R64>, Vec<R64>, R64);

    /// The per-element dealer this module replaced, kept as the oracle:
    /// one `Vec` per vector, per share column and per split value.
    fn share_ring(x: R64, n: usize, prg: &mut Prg) -> Vec<R64> {
        let mut out: Vec<R64> = (0..n - 1).map(|_| prg.next_ring()).collect();
        out.push(x - R64::sum(&out));
        out
    }

    fn deal_reference(prg: &mut Prg, n: usize, len: usize, count: usize) -> Vec<Vec<RefTriple>> {
        let mut out: Vec<Vec<RefTriple>> = vec![Vec::new(); n];
        for _ in 0..count {
            let a: Vec<R64> = (0..len).map(|_| prg.next_ring()).collect();
            let b: Vec<R64> = (0..len).map(|_| prg.next_ring()).collect();
            let c = a
                .iter()
                .zip(&b)
                .fold(R64::ZERO, |acc, (&x, &y)| acc + x * y);
            let mut shares_a = vec![Vec::new(); n];
            let mut shares_b = vec![Vec::new(); n];
            for (&ai, &bi) in a.iter().zip(&b) {
                for (dst, s) in shares_a.iter_mut().zip(share_ring(ai, n, prg)) {
                    dst.push(s);
                }
                for (dst, s) in shares_b.iter_mut().zip(share_ring(bi, n, prg)) {
                    dst.push(s);
                }
            }
            let sc = share_ring(c, n, prg);
            for (dst, ((a, b), c)) in out
                .iter_mut()
                .zip(shares_a.into_iter().zip(shares_b).zip(sc))
            {
                dst.push((a, b, c));
            }
        }
        out
    }

    fn opened(batches: Vec<Secret<TripleBatch>>) -> Vec<TripleBatch> {
        let log = DisclosureLog::new();
        batches
            .into_iter()
            .map(|b| b.open_via(&log, OpenMode::Pad))
            .collect()
    }

    /// The flat batches in the oracle's layout.
    fn as_reference(batches: &[TripleBatch]) -> Vec<Vec<RefTriple>> {
        batches
            .iter()
            .map(|t| {
                let (a, b, c) = t.parts();
                t.rows(a)
                    .zip(t.rows(b))
                    .zip(c)
                    .map(|((a, b), &c)| (a.to_vec(), b.to_vec(), c))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn zero_parties_rejected() {
        assert!(TrustedDealer::new(0, 1).is_err());
    }

    #[test]
    fn flat_dealer_equals_the_per_element_oracle_word_for_word() {
        for n in 1..=5 {
            for len in 0..=8 {
                let mut flat = TrustedDealer::new(n, 77).unwrap();
                let mut oracle = TrustedDealer::new(n, 77).unwrap();
                // Two calls on each side: the second continues the stream.
                for count in [3, 2] {
                    let got = opened(flat.deal_inners(len, count));
                    let want = deal_reference(&mut oracle.prg, n, len, count);
                    assert_eq!(as_reference(&got), want, "n={n} len={len}");
                    for t in &got {
                        assert_eq!(t.parts().2.len(), count);
                        assert_eq!(t.scalar_count(), count * (2 * len + 1));
                    }
                }
                assert_eq!(flat.prg.state(), oracle.prg.state(), "n={n} len={len}");
            }
        }
    }

    #[test]
    fn one_call_equals_the_same_triples_dealt_in_two() {
        let (n, len, first, second) = (3, 4, 5, 7);
        let mut whole = TrustedDealer::new(n, 12).unwrap();
        let mut split = TrustedDealer::new(n, 12).unwrap();
        let all = as_reference(&opened(whole.deal_inners(len, first + second)));
        let head = as_reference(&opened(split.deal_inners(len, first)));
        let tail = as_reference(&opened(split.deal_inners(len, second)));
        for ((all, head), tail) in all.iter().zip(head).zip(tail) {
            assert_eq!(all, &[head, tail].concat());
        }
        assert_eq!(whole.prg.state(), split.prg.state());
    }

    #[test]
    fn inner_triples_satisfy_relation() {
        for n in [1, 4] {
            let mut d = TrustedDealer::new(n, 9).unwrap();
            let batches = opened(d.deal_inners(6, 3));
            assert_eq!(batches.len(), n);
            for i in 0..3 {
                // Reconstruct a⃗, b⃗ element-wise and c.
                let mut dot = R64::ZERO;
                for j in 6 * i..6 * (i + 1) {
                    let aj = R64::sum(batches.iter().map(|t| t.parts().0[j]));
                    let bj = R64::sum(batches.iter().map(|t| t.parts().1[j]));
                    dot += aj * bj;
                }
                assert_eq!(dot, R64::sum(batches.iter().map(|t| t.parts().2[i])));
            }
        }
    }

    #[test]
    fn degenerate_shapes_deal_empty_or_scalar_batches() {
        let mut d = TrustedDealer::new(3, 4).unwrap();
        let before = d.prg.state();
        for t in opened(d.deal_inners(5, 0)) {
            assert_eq!((t.parts().2.len(), t.scalar_count()), (0, 0));
        }
        assert_eq!(d.prg.state(), before, "an empty batch draws nothing");
        // K = 0: every triple is a sharing of the empty dot product.
        let batches = opened(d.deal_inners(0, 4));
        assert!(batches[0].rows(batches[0].parts().0).all(<[R64]>::is_empty));
        for i in 0..4 {
            assert_eq!(R64::sum(batches.iter().map(|t| t.parts().2[i])), R64::ZERO);
        }
    }

    #[test]
    fn shares_differ_across_parties() {
        let mut d = TrustedDealer::new(3, 11).unwrap();
        let batches = opened(d.deal_inners(2, 1));
        assert_ne!(batches[0], batches[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let deal = |seed| {
            let mut d = TrustedDealer::new(2, seed).unwrap();
            d.deal_inners(3, 1).remove(0)
        };
        assert_eq!(deal(5), deal(5));
        assert_ne!(deal(5), deal(6));
    }

    #[test]
    fn debug_prints_shape_only() {
        let mut d = TrustedDealer::new(2, 8).unwrap();
        let t = opened(d.deal_inners(3, 2)).remove(0);
        assert_eq!(
            format!("{t:?}"),
            "TripleBatch { len: 3, count: 2, <shares redacted> }"
        );
    }
}
