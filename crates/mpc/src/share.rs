//! Additive n-of-n secret sharing over F_{2⁶¹−1}.
//!
//! `share_field(x)` produces n shares that sum to `x`; any n−1 of them
//! are jointly uniform, so nothing short of the full set reveals anything
//! about `x`. The one caller is the [dealer](crate::dealer), which splits
//! triples this way; a scan's own inputs are never re-shared — each
//! party's summand already *is* its additive share of the aggregate.
//!
//! Shares come back wrapped in [`Secret`]: a share is secret material
//! from the moment it exists. The `reconstruct_*` inverses are the
//! test-side counterparts that recombine a complete share set.

use crate::field::F61;
use crate::prg::Prg;
use crate::secret::Secret;

/// Splits a field element into `n` additive shares (one per recipient).
///
/// Panics in debug builds if `n == 0`; the dealer guarantees `n ≥ 1`.
pub fn share_field(x: F61, n: usize, prg: &mut Prg) -> Secret<Vec<F61>> {
    debug_assert!(n >= 1, "cannot share into zero shares");
    let mut out = Vec::with_capacity(n);
    let mut acc = F61::ZERO;
    for _ in 0..n - 1 {
        let s = prg.next_field();
        acc += s;
        out.push(s);
    }
    out.push(x - acc);
    Secret::new(out)
}

/// Recombines a complete field share set (a full set is by definition no
/// longer hiding).
pub fn reconstruct_field(shares: &Secret<Vec<F61>>) -> F61 {
    F61::sum(shares.expose())
}

/// Recombines field shares streamed from an iterator — for callers that
/// hold shares scattered across structures (e.g. one per triple) and
/// would otherwise collect a `Vec` just to sum it.
pub fn reconstruct_field_iter<I>(shares: I) -> F61
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<F61>,
{
    F61::sum(shares)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_share_reconstruct_roundtrip() {
        let mut prg = Prg::from_seed(2);
        for &v in &[0i64, 1, -1, 1 << 58, -(1 << 58)] {
            for n in 1..=5 {
                let x = F61::from_i64(v);
                let shares = share_field(x, n, &mut prg);
                assert_eq!(shares.scalar_count(), n);
                assert_eq!(reconstruct_field(&shares), x, "v={v} n={n}");
            }
        }
    }

    #[test]
    fn iterator_reconstruction_matches_slice_reconstruction() {
        let mut prg = Prg::from_seed(11);
        let y = F61::from_i64(424242);
        let shares = share_field(y, 4, &mut prg);
        assert_eq!(reconstruct_field_iter(shares.expose().iter()), y);
        // Streaming from a mapped iterator — the use case that would
        // otherwise force an intermediate Vec.
        let pairs: Vec<(F61, F61)> = shares.expose().iter().map(|&s| (s, s)).collect();
        assert_eq!(reconstruct_field_iter(pairs.iter().map(|p| p.0)), y);
    }

    #[test]
    fn single_share_is_value() {
        let mut prg = Prg::from_seed(3);
        let y = F61::new(777);
        assert_eq!(share_field(y, 1, &mut prg).into_inner(), vec![y]);
    }

    #[test]
    fn shares_look_random() {
        // A fixed value shared twice gives unrelated share sets.
        let mut prg = Prg::from_seed(4);
        let x = F61::new(42);
        let s1 = share_field(x, 3, &mut prg).into_inner();
        let s2 = share_field(x, 3, &mut prg).into_inner();
        assert_ne!(s1, s2);
        // No individual share equals the secret (overwhelmingly likely).
        assert!(s1.iter().filter(|&&s| s == x).count() <= 1);
    }

    #[test]
    fn shares_debug_redacted() {
        let mut prg = Prg::from_seed(8);
        let shares = share_field(F61::new(0xDEAD), 3, &mut prg);
        assert_eq!(format!("{shares:?}"), "Secret { <redacted> }");
    }
}
