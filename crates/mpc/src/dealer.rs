//! Trusted dealer for Beaver preprocessing.
//!
//! The Beaver mode needs correlated randomness that is independent of the
//! parties' inputs, additively shared across the parties. A scan's
//! products all have one shape: every variant's `QᵀX_j` meets the one
//! run-constant `Qᵀy`, and itself. So the dealer masks each operand once:
//!
//! - **the run's mask** ([`TrustedDealer::deal_mask`]): a uniform `b⃗` of
//!   length K for `Qᵀy`, with `b⃗·b⃗`;
//! - **projections** ([`TrustedDealer::deal_projections`]): per variant a
//!   uniform `a⃗_j` of length K, with `c_j = a⃗_j·b⃗` and `s_j = a⃗_j·a⃗_j`
//!   against the run's mask.
//!
//! Both come as a [`ProjectionBatch`] — the mask is the batch of one
//! whose `a⃗` is `b⃗` — flat in one allocation per party. Consecutive
//! calls continue one PRG stream, so a run's material is the same words
//! however its projections are cut into batches.
//!
//! A trusted dealer is the standard "offline phase" abstraction for
//! semi-honest protocols (in production it would be replaced by OT- or
//! HE-based preprocessing; the *online* protocol — and hence the
//! communication the experiments measure — is identical either way, so
//! the substitution preserves the behaviour the paper cares about).
//!
//! Sharing is additive n-of-n over Z₂⁶⁴ — n−1 uniform draws, and the
//! value minus their sum — and happens only here: a scan's own inputs are
//! never re-shared, a party's summand already *is* its share of the
//! aggregate. [`TrustedDealer::deal_inners`] still deals generic
//! inner-product triples `(a⃗, b⃗, c = a⃗·b⃗)` as a [`TripleBatch`]; no
//! scan runs them.

use crate::error::MpcError;
use crate::prg::Prg;
use crate::ring::R64;
use crate::secret::{ScalarCount, Secret};
use std::fmt;
use std::slice::IterMut;

/// One party's shares of a batch of `count` inner-product triples over
/// vectors of length `len`, structure-of-arrays in one arena.
#[derive(Clone)]
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

impl ScalarCount for TripleBatch {
    fn scalar_count(&self) -> usize {
        self.words.len()
    }
}

/// One party's shares of `count` projection masks of length `len` against
/// the run's mask `b⃗`, structure-of-arrays in one arena.
#[derive(Clone)]
pub struct ProjectionBatch {
    len: usize,
    count: usize,
    /// The `a⃗` shares (`count × len`, projection after projection), then
    /// the `count` shares of `c = a⃗·b⃗`, then the `count` of `s = a⃗·a⃗`.
    words: Vec<R64>,
}

impl fmt::Debug for ProjectionBatch {
    // Mask shares are secret material: print the batch shape only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (len, count) = (self.len, self.count);
        write!(
            f,
            "ProjectionBatch {{ len: {len}, count: {count}, <shares redacted> }}"
        )
    }
}

impl ProjectionBatch {
    /// Cuts a `count × len` region — `a`, or an operand laid out like it —
    /// into `count` per-projection vectors (empty if `len == 0`, or past
    /// the end of a region that is too short).
    pub fn rows<'a>(&self, region: &'a [R64]) -> impl Iterator<Item = &'a [R64]> {
        let len = self.len;
        (0..self.count).map(move |i| region.get(i * len..(i + 1) * len).unwrap_or(&[]))
    }

    /// The regions `(a, c, s)`: `a` holds `count × len` shares (cut per
    /// projection by [`ProjectionBatch::rows`]), `c` and `s` hold `count`.
    pub fn parts(&self) -> (&[R64], &[R64], &[R64]) {
        let (a, rest) = self.words.split_at(self.count * self.len);
        let (c, s) = rest.split_at(self.count);
        (a, c, s)
    }

    /// The length of every vector, the mask's: K.
    pub fn dim(&self) -> usize {
        self.len
    }
}

impl ScalarCount for ProjectionBatch {
    fn scalar_count(&self) -> usize {
        self.words.len()
    }
}

impl Secret<ProjectionBatch> {
    /// Number of projections in the wrapped batch (public shape metadata
    /// — the protocols exchange counts in the clear anyway).
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
    /// The run's mask `b⃗` in the clear (empty until
    /// [`TrustedDealer::deal_mask`]): every projection is dealt against it.
    mask: Vec<R64>,
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
            mask: Vec::new(),
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
            let c = R64::dot(&a, &b);
            for (&ai, &bi) in a.iter().zip(&b) {
                share_into(ai, &mut self.prg, &mut cur_a);
                share_into(bi, &mut self.prg, &mut cur_b);
            }
            share_into(c, &mut self.prg, &mut cur_c);
        }
        out.into_iter().map(Secret::new).collect()
    }

    /// Draws the run's mask: a uniform `b⃗` of length `len`, which every
    /// later [`TrustedDealer::deal_projections`] call is dealt against.
    /// Returns each party's shares of it as a [`ProjectionBatch`] of one
    /// whose `a⃗` is `b⃗` (so `c = s = b⃗·b⃗`), in party order, wrapped.
    pub fn deal_mask(&mut self, len: usize) -> Vec<Secret<ProjectionBatch>> {
        self.mask = (0..len).map(|_| self.prg.next_ring()).collect();
        self.deal_batch(1, false)
    }

    /// Deals `count` projections against the run's mask: per projection a
    /// uniform `a⃗` of the mask's length, `c = a⃗·b⃗` and `s = a⃗·a⃗`. Returns
    /// each party's [`ProjectionBatch`], in party order, wrapped.
    ///
    /// Draw order per projection: `a⃗`, then for each element the n−1 free
    /// shares of `a_i`, then those of `c`, then of `s`; each share goes
    /// straight to its slot in its party's arena, so a call allocates the
    /// same number of times whatever `count` is. Before any mask, or with
    /// a mask of length 0, every projection shares `c = s = 0`;
    /// `count == 0` draws nothing.
    pub fn deal_projections(&mut self, count: usize) -> Vec<Secret<ProjectionBatch>> {
        self.deal_batch(count, true)
    }

    /// Shares `count` projections against the mask; each `a⃗` is `fresh`
    /// uniform draws, or else the mask itself.
    fn deal_batch(&mut self, count: usize, fresh: bool) -> Vec<Secret<ProjectionBatch>> {
        let len = self.mask.len();
        let words = vec![R64::ZERO; count * (len + 2)];
        let mut out = vec![ProjectionBatch { len, count, words }; self.n];
        let (mut cur_a, mut cur_c, mut cur_s) = (Vec::new(), Vec::new(), Vec::new());
        for batch in &mut out {
            let (a, rest) = batch.words.split_at_mut(count * len);
            let (c, s) = rest.split_at_mut(count);
            cur_a.push(a.iter_mut());
            cur_c.push(c.iter_mut());
            cur_s.push(s.iter_mut());
        }
        let mut a = self.mask.clone();
        for _ in 0..count {
            if fresh {
                a.fill_with(|| self.prg.next_ring());
            }
            let (c, s) = (R64::dot(&a, &self.mask), R64::dot(&a, &a));
            for &ai in &a {
                share_into(ai, &mut self.prg, &mut cur_a);
            }
            share_into(c, &mut self.prg, &mut cur_c);
            share_into(s, &mut self.prg, &mut cur_s);
        }
        out.into_iter().map(Secret::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::DisclosureLog;
    use crate::ring::words;
    use crate::secret::OpenMode;

    /// One party's triple in the layout this module replaced, as words.
    type RefTriple = (Vec<u64>, Vec<u64>, u64);

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
            let c = R64::dot(&a, &b);
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
                dst.push((words(&a), words(&b), c.declassify()));
            }
        }
        out
    }

    fn opened<T: ScalarCount>(batches: Vec<Secret<T>>) -> Vec<T> {
        let log = DisclosureLog::new();
        batches
            .into_iter()
            .map(|b| b.open_via(&log, OpenMode::Pad))
            .collect()
    }

    /// The flat triple batches in the oracle's layout.
    fn as_reference(batches: &[TripleBatch]) -> Vec<Vec<RefTriple>> {
        batches
            .iter()
            .map(|t| {
                let (ab, c) = t.words.split_at(2 * t.count * t.len);
                let (a, b) = ab.split_at(t.count * t.len);
                (0..t.count)
                    .map(|i| {
                        let row = |r: &[R64]| r[i * t.len..(i + 1) * t.len].to_vec();
                        (words(&row(a)), words(&row(b)), c[i].declassify())
                    })
                    .collect()
            })
            .collect()
    }

    /// Every party's projections reconstructed: `(a⃗, c, s)` per projection.
    fn reconstructed(batches: &[ProjectionBatch]) -> Vec<(Vec<R64>, R64, R64)> {
        let total = |region: fn(&ProjectionBatch) -> &[R64], i| {
            R64::sum(batches.iter().map(|t| region(t)[i]))
        };
        let (len, count) = (batches[0].len, batches[0].count);
        (0..count)
            .map(|j| {
                let a = (j * len..(j + 1) * len).map(|i| total(|t| t.parts().0, i));
                (
                    a.collect(),
                    total(|t| t.parts().1, j),
                    total(|t| t.parts().2, j),
                )
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
                        assert_eq!(t.scalar_count(), count * (2 * len + 1));
                    }
                }
                assert_eq!(flat.prg.state(), oracle.prg.state(), "n={n} len={len}");
            }
        }
    }

    #[test]
    fn projections_satisfy_their_relations_against_the_mask() {
        for n in [1, 2, 4] {
            for len in [0, 1, 3, 6] {
                let mut d = TrustedDealer::new(n, 9).unwrap();
                let mask = reconstructed(&opened(d.deal_mask(len)));
                let [(b, bc, bb)] = mask.as_slice() else {
                    panic!("the mask is a batch of one");
                };
                assert_eq!(b.len(), len);
                assert_eq!(words(b), words(&d.mask), "a⃗ of the mask batch is b⃗");
                assert_eq!(words(&[*bc, *bb]), words(&[R64::dot(b, b); 2]));
                let batches = opened(d.deal_projections(5));
                assert!(batches.iter().all(|t| t.dim() == len));
                let projections = reconstructed(&batches);
                assert_eq!(projections.len(), 5);
                for (a, c, s) in projections {
                    assert_eq!(words(&[c, s]), words(&[R64::dot(&a, b), R64::dot(&a, &a)]));
                }
            }
        }
    }

    #[test]
    fn one_call_equals_the_same_material_dealt_in_two() {
        let (n, len, first, second) = (3, 4, 5, 7);
        let mut whole = TrustedDealer::new(n, 12).unwrap();
        let mut split = TrustedDealer::new(n, 12).unwrap();
        let all = as_reference(&opened(whole.deal_inners(len, first + second)));
        let head = as_reference(&opened(split.deal_inners(len, first)));
        let tail = as_reference(&opened(split.deal_inners(len, second)));
        for ((all, head), tail) in all.iter().zip(head).zip(tail) {
            assert_eq!(all, &[head, tail].concat());
        }
        whole.deal_mask(len);
        split.deal_mask(len);
        let all = opened(whole.deal_projections(first + second));
        let (head, tail) = (
            opened(split.deal_projections(first)),
            opened(split.deal_projections(second)),
        );
        for ((all, head), tail) in all.iter().zip(&head).zip(&tail) {
            let (wa, wc, ws) = all.parts();
            let ((ha, hc, hs), (ta, tc, ts)) = (head.parts(), tail.parts());
            assert_eq!(words(wa), words(&[ha, ta].concat()));
            assert_eq!(words(wc), words(&[hc, tc].concat()));
            assert_eq!(words(ws), words(&[hs, ts].concat()));
        }
        assert_eq!(whole.prg.state(), split.prg.state());
    }

    #[test]
    fn degenerate_shapes_deal_empty_or_scalar_batches() {
        let mut d = TrustedDealer::new(3, 4).unwrap();
        let before = d.prg.state();
        for t in opened(d.deal_inners(5, 0)) {
            assert_eq!(t.scalar_count(), 0);
        }
        for t in opened(d.deal_projections(0)) {
            assert_eq!(t.scalar_count(), 0);
        }
        assert_eq!(d.prg.state(), before, "an empty batch draws nothing");
        // K = 0, and no mask yet: every triple and projection shares the
        // empty dot product.
        let batches = opened(d.deal_inners(0, 4));
        assert!(batches.iter().all(|t| t.scalar_count() == 4));
        for i in 0..4 {
            let c = R64::sum(batches.iter().map(|t| t.words[i]));
            assert_eq!(c.declassify(), 0);
        }
        for (a, c, s) in reconstructed(&opened(d.deal_projections(4))) {
            assert_eq!((a.len(), words(&[c, s])), (0, vec![0, 0]));
        }
    }

    #[test]
    fn shares_differ_across_parties() {
        let mut d = TrustedDealer::new(3, 11).unwrap();
        let batches = opened(d.deal_inners(2, 1));
        assert_ne!(words(&batches[0].words), words(&batches[1].words));
        let batches = opened(d.deal_mask(2));
        assert_ne!(words(&batches[0].words), words(&batches[1].words));
    }

    #[test]
    fn deterministic_given_seed() {
        let deal = |seed| {
            let mut d = TrustedDealer::new(2, seed).unwrap();
            let triple = opened(d.deal_inners(3, 1)).remove(0).words;
            d.deal_mask(3);
            [triple, opened(d.deal_projections(2)).remove(0).words].map(|w| words(&w))
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
        d.deal_mask(3);
        let p = opened(d.deal_projections(2)).remove(0);
        assert_eq!(
            format!("{p:?}"),
            "ProjectionBatch { len: 3, count: 2, <shares redacted> }"
        );
    }
}
