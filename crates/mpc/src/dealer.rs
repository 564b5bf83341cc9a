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

use crate::error::MpcError;
use crate::field::F61;
use crate::prg::Prg;
use crate::secret::Secret;
use crate::share::share_field;
use std::collections::VecDeque;
use std::fmt;

/// One party's share of an inner-product triple over vectors of a fixed
/// length.
#[derive(Clone, PartialEq, Eq)]
pub struct InnerTriple {
    /// Share of the masking vector `a⃗`.
    pub a: Vec<F61>,
    /// Share of the masking vector `b⃗`.
    pub b: Vec<F61>,
    /// Share of the scalar `c = a⃗·b⃗`.
    pub c: F61,
}

impl fmt::Debug for InnerTriple {
    // Triple shares are secret material: never print the values, even in
    // panic messages or test diagnostics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InnerTriple {{ len: {}, <shares redacted> }}",
            self.a.len()
        )
    }
}

/// The queue of preprocessed triples handed to one party before the
/// online phase.
#[derive(Clone, Default)]
pub struct PartyTriples {
    inners: VecDeque<InnerTriple>,
}

impl fmt::Debug for PartyTriples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PartyTriples {{ inners: {}, <shares redacted> }}",
            self.inners.len()
        )
    }
}

impl PartyTriples {
    /// Takes the next triple, wrapped: triple shares are secret from the
    /// moment they leave the queue.
    pub fn next_inner(&mut self) -> Result<Secret<InnerTriple>, MpcError> {
        self.inners
            .pop_front()
            .map(Secret::new)
            .ok_or(MpcError::DealerExhausted {
                what: "inner-product triples",
            })
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

    /// Deals `count` inner-product triples over vectors of length `len`;
    /// returns one [`PartyTriples`] per party.
    pub fn deal_inners(&mut self, len: usize, count: usize) -> Vec<PartyTriples> {
        let mut out: Vec<PartyTriples> = (0..self.n).map(|_| PartyTriples::default()).collect();
        for _ in 0..count {
            let a: Vec<F61> = self.prg.field_vec(len);
            let b: Vec<F61> = self.prg.field_vec(len);
            let c = a
                .iter()
                .zip(&b)
                .fold(F61::ZERO, |acc, (&x, &y)| acc + x * y);
            let mut shares_a: Vec<Vec<F61>> =
                (0..self.n).map(|_| Vec::with_capacity(len)).collect();
            let mut shares_b: Vec<Vec<F61>> =
                (0..self.n).map(|_| Vec::with_capacity(len)).collect();
            for (&ai, &bi) in a.iter().zip(&b) {
                for (dst, s) in shares_a
                    .iter_mut()
                    .zip(share_field(ai, self.n, &mut self.prg).into_inner())
                {
                    dst.push(s);
                }
                for (dst, s) in shares_b
                    .iter_mut()
                    .zip(share_field(bi, self.n, &mut self.prg).into_inner())
                {
                    dst.push(s);
                }
            }
            let sc = share_field(c, self.n, &mut self.prg).into_inner();
            for (dst, ((a, b), c)) in out
                .iter_mut()
                .zip(shares_a.into_iter().zip(shares_b).zip(sc))
            {
                dst.inners.push_back(InnerTriple { a, b, c });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::reconstruct_field_iter;

    #[test]
    fn zero_parties_rejected() {
        assert!(TrustedDealer::new(0, 1).is_err());
    }

    #[test]
    fn inner_triples_satisfy_relation() {
        let mut d = TrustedDealer::new(4, 9).unwrap();
        let mut per_party = d.deal_inners(6, 3);
        for _ in 0..3 {
            let trs: Vec<InnerTriple> = per_party
                .iter_mut()
                .map(|p| p.next_inner().unwrap().into_inner())
                .collect();
            let len = trs[0].a.len();
            assert_eq!(len, 6);
            // Reconstruct a, b element-wise and c.
            let mut dot = F61::ZERO;
            for i in 0..len {
                let ai = reconstruct_field_iter(trs.iter().map(|t| t.a[i]));
                let bi = reconstruct_field_iter(trs.iter().map(|t| t.b[i]));
                dot += ai * bi;
            }
            let c = reconstruct_field_iter(trs.iter().map(|t| t.c));
            assert_eq!(dot, c);
        }
        // Exhaustion reported, at every party alike.
        for p in &mut per_party {
            assert!(matches!(
                p.next_inner(),
                Err(MpcError::DealerExhausted { .. })
            ));
        }
    }

    #[test]
    fn shares_differ_across_parties() {
        let mut d = TrustedDealer::new(3, 11).unwrap();
        let mut pp = d.deal_inners(2, 1);
        let t0 = pp[0].next_inner().unwrap().into_inner();
        let t1 = pp[1].next_inner().unwrap().into_inner();
        assert_ne!(t0, t1);
    }

    #[test]
    fn deterministic_given_seed() {
        let deal = |seed| {
            let mut d = TrustedDealer::new(2, seed).unwrap();
            let mut pp = d.deal_inners(3, 1);
            pp[0].next_inner().unwrap().into_inner()
        };
        assert_eq!(deal(5), deal(5));
        assert_ne!(deal(5), deal(6));
    }
}
