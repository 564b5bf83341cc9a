//! The ring Z₂⁶⁴ — wrapping 64-bit arithmetic, the crate's one
//! arithmetic domain.
//!
//! A value plus a uniform element of Z₂⁶⁴ is uniform, and sums and
//! products wrap exactly, so pairwise masks hide each summand and cancel
//! in the total without error, and a Beaver opening `x − a` against a
//! uniform `a` reveals nothing. The masked secure sums
//! ([`crate::protocol::masked`]) and the Beaver inner products
//! ([`crate::protocol::beaver`]) both operate on [`R64`] elements; the
//! fixed-point codec ([`crate::fixed`]) maps statistics into and out of
//! the ring. Neither protocol divides or inverts, so no field is needed.
//!
//! # Constant time
//!
//! The type states it. The word is private to this module, and an
//! element is not `PartialEq`, `PartialOrd` or `Div`, so outside this
//! file no code can compare, divide, match on or index by an element:
//! each is a build error. What an element offers is ring arithmetic,
//! `wrapping_*` on `u64`, straight-line machine code with no
//! data-dependent branch or memory access. This file is the one place
//! that sees the word, and `scripts/check.sh`'s seeded stage holds its
//! non-test code to no branch, comparison, `/` or `%`; E14
//! (`exp14_timing`) times the compiled arithmetic.
//!
//! # Privacy
//!
//! Elements are built with `R64::from(u64)` or [`R64::from_i64`]. A word
//! leaves an element only through `declassify`, which is private to the
//! crate and has three callers: the wire encode (`PartyCtx::send`), the
//! opened totals of the masked sums (which leave dash-mpc as `u64`s) and
//! the fixed-point decode. `{:?}` prints `R64(<redacted>)`, so a derived
//! `Debug` on a struct of elements prints no word, and there is no
//! `Display`.

use std::borrow::Borrow;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An element of Z₂⁶⁴. All arithmetic wraps. The one element type that
/// travels: one `u64` word on the wire, for sums and Beaver products
/// alike.
///
/// The word is private to this module:
///
/// ```compile_fail
/// let _ = dash_mpc::R64::from(7).0;
/// ```
///
/// no two elements compare:
///
/// ```compile_fail
/// let _ = dash_mpc::R64::from(7) == dash_mpc::R64::ZERO;
/// ```
///
/// and no element is `Display`:
///
/// ```compile_fail
/// let _ = format!("{}", dash_mpc::R64::ZERO);
/// ```
///
/// Its `Debug` is redacted:
///
/// ```
/// assert_eq!(format!("{:?}", dash_mpc::R64::from(7)), "R64(<redacted>)");
/// ```
#[derive(Clone, Copy, Default)]
pub struct R64(u64);

/// Redacted, as [`crate::Secret`]'s: an element is a share, a mask or a
/// masked value until an opening says otherwise.
impl std::fmt::Debug for R64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("R64(<redacted>)")
    }
}

impl From<u64> for R64 {
    /// The element whose word is `w`.
    #[inline]
    fn from(w: u64) -> R64 {
        R64(w)
    }
}

impl R64 {
    /// The additive identity.
    pub const ZERO: R64 = R64(0);
    /// The multiplicative identity.
    pub const ONE: R64 = R64(1);

    /// The element's word: the one way out of the type. Its callers are
    /// the wire encode, the opened totals and the fixed-point decode;
    /// `scripts/check.sh` fails if any other file calls it.
    #[inline]
    pub(crate) fn declassify(self) -> u64 {
        self.0
    }

    /// Builds a ring element from a signed integer.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        R64(v as u64)
    }

    /// Sums ring elements from any iterator (of values or references)
    /// without forcing callers to collect into a slice first.
    pub fn sum<I>(elems: I) -> R64
    where
        I: IntoIterator,
        I::Item: Borrow<R64>,
    {
        elems
            .into_iter()
            .fold(R64::ZERO, |acc, e| acc + *e.borrow())
    }
}

impl std::iter::Sum for R64 {
    fn sum<I: Iterator<Item = R64>>(iter: I) -> R64 {
        R64::sum(iter)
    }
}

impl<'a> std::iter::Sum<&'a R64> for R64 {
    fn sum<I: Iterator<Item = &'a R64>>(iter: I) -> R64 {
        R64::sum(iter)
    }
}

impl Add for R64 {
    type Output = R64;
    #[inline]
    fn add(self, rhs: R64) -> R64 {
        R64(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for R64 {
    #[inline]
    fn add_assign(&mut self, rhs: R64) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for R64 {
    type Output = R64;
    #[inline]
    fn sub(self, rhs: R64) -> R64 {
        R64(self.0.wrapping_sub(rhs.0))
    }
}

impl SubAssign for R64 {
    #[inline]
    fn sub_assign(&mut self, rhs: R64) {
        self.0 = self.0.wrapping_sub(rhs.0);
    }
}

impl Neg for R64 {
    type Output = R64;
    #[inline]
    fn neg(self) -> R64 {
        R64(self.0.wrapping_neg())
    }
}

impl Mul for R64 {
    type Output = R64;
    #[inline]
    fn mul(self, rhs: R64) -> R64 {
        R64(self.0.wrapping_mul(rhs.0))
    }
}

/// Element-wise in-place addition of two ring vectors.
pub fn add_assign_vec(acc: &mut [R64], rhs: &[R64]) {
    debug_assert_eq!(acc.len(), rhs.len());
    for (a, b) in acc.iter_mut().zip(rhs) {
        *a += *b;
    }
}

/// Element-wise in-place subtraction of two ring vectors.
pub fn sub_assign_vec(acc: &mut [R64], rhs: &[R64]) {
    debug_assert_eq!(acc.len(), rhs.len());
    for (a, b) in acc.iter_mut().zip(rhs) {
        *a -= *b;
    }
}

#[cfg(test)]
/// The words of a slice of elements: how the crate's unit tests compare
/// elements, which have no `==`.
pub(crate) fn words(v: &[R64]) -> Vec<u64> {
    v.iter().map(|e| e.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_addition() {
        assert_eq!((R64(u64::MAX) + R64(1)).0, 0);
        assert_eq!((R64(5) + R64(7)).0, 12);
    }

    #[test]
    fn subtraction_inverse_of_addition() {
        let a = R64(0xDEADBEEF12345678);
        let b = R64(0x0123456789ABCDEF);
        assert_eq!((a + b - b).0, a.0);
        assert_eq!(((a - b) + b).0, a.0);
    }

    #[test]
    fn negation() {
        let a = R64(42);
        assert_eq!((a + (-a)).0, 0);
        assert_eq!((-R64::ZERO).0, 0);
    }

    #[test]
    fn signed_roundtrip() {
        for &v in &[0i64, 1, -1, i64::MAX, i64::MIN, -123456789] {
            assert_eq!(R64::from_i64(v).declassify() as i64, v);
        }
    }

    #[test]
    fn signed_addition_consistent() {
        // Ring addition of encoded signed values equals signed addition
        // (mod 2^64 two's complement).
        let a = R64::from_i64(-1000);
        let b = R64::from_i64(400);
        assert_eq!((a + b).declassify() as i64, -600);
    }

    #[test]
    fn sum_accepts_slices_and_iterators() {
        let v = [R64(1), R64(2), R64::from_i64(-3)];
        assert_eq!(R64::sum(v.as_slice()).0, 0);
        assert_eq!(R64::sum(v.iter().copied()).0, 0);
        assert_eq!(R64::sum(std::iter::empty::<R64>()).0, 0);
        assert_eq!(v.iter().sum::<R64>().0, 0);
        assert_eq!(v.iter().copied().sum::<R64>().0, 0);
    }

    #[test]
    fn vector_ops() {
        let mut acc = vec![R64(1), R64(2)];
        add_assign_vec(&mut acc, &[R64(10), R64(20)]);
        assert_eq!(words(&acc), [11, 22]);
        sub_assign_vec(&mut acc, &[R64(1), R64(2)]);
        assert_eq!(words(&acc), [10, 20]);
    }

    #[test]
    fn multiplication_wraps() {
        assert_eq!((R64(1 << 32) * R64(1 << 32)).0, 0);
        assert_eq!((R64(3) * R64(7)).0, 21);
    }
}
