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
//! All ring arithmetic is `wrapping_*` on `u64` — straight-line machine
//! code with no data-dependent branches or memory accesses, audited by
//! the `constant-time` dash-analyze lint and timed by E14
//! (`exp14_timing`). Comparisons are provided only as mask-returning
//! `ct_eq` (plus `ct_select`) so this crate never needs `==`/`<` on
//! share words.
//!
//! # Privacy
//!
//! The word is private to this crate. Elements are built with
//! `R64::from(u64)` or [`R64::from_i64`], and nothing outside dash-mpc
//! reads a word back: an opened total leaves as a public integer (the
//! masked sums return `u64`s) or through the fixed-point codec. `{:?}`
//! prints `R64(<redacted>)`, so a derived `Debug` on a struct of elements
//! prints no word, and there is no `Display`.

use crate::ctime;
use std::borrow::Borrow;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An element of Z₂⁶⁴. All arithmetic wraps. The one element type that
/// travels: one `u64` word on the wire, for sums and Beaver products
/// alike.
///
/// The word is private to dash-mpc:
///
/// ```compile_fail
/// let _ = dash_mpc::R64::from(7).0;
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
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct R64(pub(crate) u64);

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

    /// Reinterprets the ring element as a signed two's-complement integer
    /// (how the fixed-point decoder recovers negative values).
    #[inline]
    pub(crate) fn as_i64(self) -> i64 {
        self.0 as i64
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

    /// Constant-time equality: all-ones if equal, zero otherwise.
    #[inline]
    pub(crate) fn ct_eq(self, other: R64) -> u64 {
        ctime::eq_mask(self.0, other.0)
    }

    /// Constant-time select: `a` where `mask` is all-ones, `b` where zero.
    #[inline]
    pub(crate) fn ct_select(mask: u64, a: R64, b: R64) -> R64 {
        R64(ctime::select(mask, a.0, b.0))
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
mod tests {
    use super::*;

    #[test]
    fn wrapping_addition() {
        assert_eq!(R64(u64::MAX) + R64(1), R64(0));
        assert_eq!(R64(5) + R64(7), R64(12));
    }

    #[test]
    fn subtraction_inverse_of_addition() {
        let a = R64(0xDEADBEEF12345678);
        let b = R64(0x0123456789ABCDEF);
        assert_eq!(a + b - b, a);
        assert_eq!((a - b) + b, a);
    }

    #[test]
    fn negation() {
        let a = R64(42);
        assert_eq!(a + (-a), R64::ZERO);
        assert_eq!(-R64::ZERO, R64::ZERO);
    }

    #[test]
    fn signed_roundtrip() {
        for &v in &[0i64, 1, -1, i64::MAX, i64::MIN, -123456789] {
            assert_eq!(R64::from_i64(v).as_i64(), v);
        }
    }

    #[test]
    fn signed_addition_consistent() {
        // Ring addition of encoded signed values equals signed addition
        // (mod 2^64 two's complement).
        let a = R64::from_i64(-1000);
        let b = R64::from_i64(400);
        assert_eq!((a + b).as_i64(), -600);
    }

    #[test]
    fn sum_accepts_slices_and_iterators() {
        let v = [R64(1), R64(2), R64::from_i64(-3)];
        assert_eq!(R64::sum(v.as_slice()), R64::ZERO);
        assert_eq!(R64::sum(v.iter().copied()), R64::ZERO);
        assert_eq!(R64::sum(std::iter::empty::<R64>()), R64::ZERO);
        assert_eq!(v.iter().sum::<R64>(), R64::ZERO);
        assert_eq!(v.iter().copied().sum::<R64>(), R64::ZERO);
    }

    #[test]
    fn ct_eq_and_select() {
        let a = R64(0xDEAD);
        let b = R64(0xBEEF);
        assert_eq!(a.ct_eq(a), u64::MAX);
        assert_eq!(a.ct_eq(b), 0);
        assert_eq!(R64::ct_select(u64::MAX, a, b), a);
        assert_eq!(R64::ct_select(0, a, b), b);
    }

    #[test]
    fn vector_ops() {
        let mut acc = vec![R64(1), R64(2)];
        add_assign_vec(&mut acc, &[R64(10), R64(20)]);
        assert_eq!(acc, vec![R64(11), R64(22)]);
        sub_assign_vec(&mut acc, &[R64(1), R64(2)]);
        assert_eq!(acc, vec![R64(10), R64(20)]);
    }

    #[test]
    fn multiplication_wraps() {
        assert_eq!(R64(1 << 32) * R64(1 << 32), R64(0));
        assert_eq!(R64(3) * R64(7), R64(21));
    }
}
