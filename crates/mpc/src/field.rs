//! The Mersenne prime field F_p with p = 2⁶¹ − 1.
//!
//! The Beaver-triple mode multiplies secret-shared values, which needs a
//! field (so masked differences `x − a` are uniformly distributed and
//! inverses exist for test tooling). p = 2⁶¹ − 1 is chosen because the
//! product of two reduced elements fits in a `u128` and reduction is two
//! shifts and an add — no Montgomery machinery required.
//!
//! # Constant time
//!
//! Every operation that can see share material — construction, `Add`,
//! `Sub`, `Neg`, `Mul`, `from_i64`/`as_i64`, `pow`, the reductions — is
//! branch-free: conditional subtracts and sign handling are done with the
//! masks from [`crate::ctime`], so execution time and memory access
//! pattern do not depend on element values. The `constant-time`
//! dash-analyze lint denies secret-dependent `if`/`match`/comparisons in
//! this module, and the E14 timing harness (`exp14_timing`) checks the
//! property empirically. The one exception is [`F61::inverse`]: deciding
//! invertibility is inherently a branch on the value, and it exists for
//! dealer/test tooling where the operand is not a live share.

use crate::ctime;
use std::borrow::Borrow;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// The modulus 2⁶¹ − 1 (a Mersenne prime).
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of F_{2⁶¹−1}, kept reduced to `0..MODULUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F61(u64);

impl F61 {
    /// The additive identity.
    pub const ZERO: F61 = F61(0);
    /// The multiplicative identity.
    pub const ONE: F61 = F61(1);

    /// Creates an element, reducing mod p.
    #[inline]
    pub fn new(v: u64) -> Self {
        F61(reduce64(v))
    }

    /// The canonical representative in `0..MODULUS`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Maps a signed integer into the field (negative values wrap to
    /// `p − |v|`), without branching on the sign.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        let mask = (v >> 63) as u64; // arithmetic shift: 0 or all-ones
                                     // Two's-complement |v| via xor/subtract (handles i64::MIN too).
        let abs = ((v as u64) ^ mask).wrapping_sub(mask);
        let r = reduce64(abs);
        let negated = (MODULUS - r) & ctime::nonzero_mask(r);
        F61(ctime::select(mask, negated, r))
    }

    /// Interprets the element as a signed integer in `(−p/2, p/2]` —
    /// the inverse of [`F61::from_i64`] for in-range values. Branch-free:
    /// the half-range test is a mask, not a comparison jump.
    #[inline]
    pub fn as_i64(self) -> i64 {
        let high = ctime::lt_mask(MODULUS >> 1, self.0); // v > p/2
        ctime::select(high, self.0.wrapping_sub(MODULUS), self.0) as i64
    }

    /// Modular exponentiation by squaring with a fixed-length ladder.
    ///
    /// The loop always runs 64 iterations and folds each exponent bit in
    /// with a mask select, so the running time is independent of both the
    /// base and the exponent's bit pattern. (Fermat inversion uses the
    /// *public* exponent p − 2, which needs 61 of the 64 iterations; the
    /// full word is processed so arbitrary `u64` exponents stay correct.)
    pub fn pow(self, e: u64) -> F61 {
        let mut base = self;
        let mut acc = F61::ONE;
        let mut bits = e;
        for _ in 0..u64::BITS {
            let take = (bits & 1).wrapping_neg(); // all-ones iff bit set
            let stepped = acc * base;
            acc = F61(ctime::select(take, stepped.0, acc.0));
            base = base * base;
            bits >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem; `None` for zero.
    ///
    /// Not constant time: the zero test is a real branch. This is dealer
    /// and test tooling — the exponent p − 2 is public and the operand is
    /// never a live share.
    // dash-analyze::allow(constant-time): invertibility is a publicly
    // observable Option; inverse() is dealer/test tooling, never applied to
    // live shares.
    pub fn inverse(self) -> Option<F61> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(MODULUS - 2))
        }
    }

    /// Sums field elements from any iterator (of values or references)
    /// without forcing callers to collect into a slice first.
    pub fn sum<I>(elems: I) -> F61
    where
        I: IntoIterator,
        I::Item: Borrow<F61>,
    {
        elems
            .into_iter()
            .fold(F61::ZERO, |acc, e| acc + *e.borrow())
    }

    /// Constant-time equality: all-ones if equal, zero otherwise. The
    /// result is a mask (not a `bool`) so callers can keep composing
    /// branch-free.
    #[inline]
    pub fn ct_eq(self, other: F61) -> u64 {
        ctime::eq_mask(self.0, other.0)
    }

    /// Constant-time select: `a` where `mask` is all-ones, `b` where zero.
    #[inline]
    pub fn ct_select(mask: u64, a: F61, b: F61) -> F61 {
        F61(ctime::select(mask, a.0, b.0))
    }
}

impl crate::party::Element for F61 {
    const EXCHANGE_SUM: &'static str = "exchange_sum_field";
    #[inline]
    fn to_word(self) -> u64 {
        self.0
    }
    /// Received words are reduced mod p, exactly as [`F61::new`] does.
    #[inline]
    fn from_word(word: u64) -> Self {
        F61::new(word)
    }
}

impl std::iter::Sum for F61 {
    fn sum<I: Iterator<Item = F61>>(iter: I) -> F61 {
        F61::sum(iter)
    }
}

impl<'a> std::iter::Sum<&'a F61> for F61 {
    fn sum<I: Iterator<Item = &'a F61>>(iter: I) -> F61 {
        F61::sum(iter)
    }
}

/// Subtracts MODULUS iff `v >= MODULUS`, as a mask select. Correct for
/// `v < 2·MODULUS` (one conditional subtract reaches canonical form).
#[inline]
fn reduce_once(v: u64) -> u64 {
    v.wrapping_sub(MODULUS & ctime::ge_mask(v, MODULUS))
}

/// Reduces a u64 mod 2⁶¹ − 1, branch-free.
#[inline]
fn reduce64(v: u64) -> u64 {
    // v = hi·2^61 + lo ≡ hi + lo (mod p); after the fold the value is at
    // most MODULUS + 7 < 2·MODULUS, so one masked subtract finishes.
    reduce_once((v >> 61) + (v & MODULUS))
}

/// Reduces a u128 product mod 2⁶¹ − 1, branch-free.
#[inline]
fn reduce128(v: u128) -> u64 {
    // Split into 61-bit limbs: v = a·2^122 + b·2^61 + c ≡ a + b + c.
    let lo = (v as u64) & MODULUS;
    let mid = ((v >> 61) as u64) & MODULUS;
    let hi = (v >> 122) as u64; // < 2^6
    reduce64(reduce64(lo + mid) + hi)
}

impl Add for F61 {
    type Output = F61;
    #[inline]
    fn add(self, rhs: F61) -> F61 {
        // s ≤ 2(p−1) < 2^62, no overflow; one masked subtract reduces.
        F61(reduce_once(self.0 + rhs.0))
    }
}

impl AddAssign for F61 {
    #[inline]
    fn add_assign(&mut self, rhs: F61) {
        *self = *self + rhs;
    }
}

impl Sub for F61 {
    type Output = F61;
    #[inline]
    // The `&` is the branch-free correction mask, not a typo for `-`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: F61) -> F61 {
        // Add MODULUS back exactly when the subtraction borrowed.
        let d = self.0.wrapping_sub(rhs.0);
        F61(d.wrapping_add(MODULUS & ctime::lt_mask(self.0, rhs.0)))
    }
}

impl SubAssign for F61 {
    #[inline]
    fn sub_assign(&mut self, rhs: F61) {
        *self = *self - rhs;
    }
}

impl Neg for F61 {
    type Output = F61;
    #[inline]
    fn neg(self) -> F61 {
        // MODULUS − v, masked to zero when v is zero so the result stays
        // canonical (−0 must be 0, not MODULUS) without branching.
        F61((MODULUS - self.0) & ctime::nonzero_mask(self.0))
    }
}

impl Mul for F61 {
    type Output = F61;
    #[inline]
    fn mul(self, rhs: F61) -> F61 {
        F61(reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(F61::new(MODULUS), F61::ZERO);
        assert_eq!(F61::new(MODULUS + 5).value(), 5);
        assert_eq!(F61::new(u64::MAX).value(), u64::MAX % MODULUS);
    }

    #[test]
    fn additive_group_laws() {
        let a = F61::new(0x1234_5678_9ABC_DEF0);
        let b = F61::new(0x0FED_CBA9_8765_4321);
        assert_eq!(a + b, b + a);
        assert_eq!(a + F61::ZERO, a);
        assert_eq!(a + (-a), F61::ZERO);
        assert_eq!(a - b + b, a);
    }

    #[test]
    fn subtraction_borrows_correctly() {
        let small = F61::new(3);
        let big = F61::new(10);
        assert_eq!((small - big).value(), MODULUS - 7);
        assert_eq!((small - big) + big, small);
    }

    #[test]
    fn negation_of_zero_stays_canonical() {
        // The branchless neg must not produce the non-canonical MODULUS
        // representative for zero.
        assert_eq!(-F61::ZERO, F61::ZERO);
        assert_eq!((-F61::ZERO).value(), 0);
        assert_eq!(-F61::new(MODULUS), F61::ZERO);
        assert_eq!((F61::new(5) + (-F61::new(5))).value(), 0);
    }

    #[test]
    fn multiplication_against_u128_reference() {
        let pairs = [
            (1u64, 1u64),
            (MODULUS - 1, MODULUS - 1),
            (0x1FFF_FFFF_FFFF_FFFF, 0x1234_5678),
            (987654321, 123456789),
        ];
        for &(x, y) in &pairs {
            let expect = ((x as u128 * y as u128) % MODULUS as u128) as u64;
            assert_eq!((F61::new(x) * F61::new(y)).value(), expect, "{x} * {y}");
        }
    }

    #[test]
    fn fermat_inverse() {
        for &v in &[1u64, 2, 3, 1 << 60, MODULUS - 1, 9999999967] {
            let x = F61::new(v);
            let inv = x.inverse().unwrap();
            assert_eq!(x * inv, F61::ONE, "v={v}");
        }
        assert!(F61::ZERO.inverse().is_none());
    }

    #[test]
    fn pow_edge_cases() {
        let x = F61::new(12345);
        assert_eq!(x.pow(0), F61::ONE);
        assert_eq!(x.pow(1), x);
        assert_eq!(x.pow(2), x * x);
        // Fermat: x^(p−1) = 1.
        assert_eq!(x.pow(MODULUS - 1), F61::ONE);
        // Exponents above the modulus order still fold correctly through
        // the full 64-iteration ladder.
        assert_eq!(x.pow(u64::MAX), x.pow(u64::MAX % (MODULUS - 1)));
    }

    #[test]
    fn signed_roundtrip() {
        for &v in &[0i64, 1, -1, 1 << 59, -(1 << 59), 424242, -987654321] {
            assert_eq!(F61::from_i64(v).as_i64(), v, "v={v}");
        }
    }

    #[test]
    fn signed_arithmetic_consistent() {
        let a = F61::from_i64(-5000);
        let b = F61::from_i64(1200);
        assert_eq!((a + b).as_i64(), -3800);
        assert_eq!((a * b).as_i64(), -6_000_000);
    }

    #[test]
    fn sum_accepts_slices_and_iterators() {
        let v = [F61::from_i64(7), F61::from_i64(-3), F61::from_i64(-4)];
        assert_eq!(F61::sum(v.as_slice()), F61::ZERO);
        assert_eq!(F61::sum(v.iter().copied()), F61::ZERO);
        assert_eq!(F61::sum(std::iter::empty::<F61>()), F61::ZERO);
        assert_eq!(v.iter().sum::<F61>(), F61::ZERO);
        assert_eq!(v.iter().copied().sum::<F61>(), F61::ZERO);
    }

    #[test]
    fn ct_eq_and_select() {
        let a = F61::new(77);
        let b = F61::new(78);
        assert_eq!(a.ct_eq(a), u64::MAX);
        assert_eq!(a.ct_eq(b), 0);
        assert_eq!(F61::ct_select(u64::MAX, a, b), a);
        assert_eq!(F61::ct_select(0, a, b), b);
        // Non-canonical inputs reduce before comparison.
        assert_eq!(F61::new(MODULUS).ct_eq(F61::ZERO), u64::MAX);
    }

    #[test]
    fn distributivity() {
        let a = F61::new(0x0123_4567_89AB_CDEF % MODULUS);
        let b = F61::new(0x1111_2222_3333_4444 % MODULUS);
        let c = F61::new(0x0FFF_EEEE_DDDD_CCCC % MODULUS);
        assert_eq!(a * (b + c), a * b + a * c);
    }

    /// The pre-constant-time implementations, kept verbatim as the
    /// behavioral reference the branchless versions must match bit for
    /// bit. These branch freely — that is the point.
    mod reference {
        use super::super::MODULUS;

        pub fn reduce64(v: u64) -> u64 {
            let folded = (v >> 61) + (v & MODULUS);
            if folded >= MODULUS {
                folded - MODULUS
            } else {
                folded
            }
        }

        pub fn reduce128(v: u128) -> u64 {
            (v % MODULUS as u128) as u64
        }

        pub fn add(a: u64, b: u64) -> u64 {
            let s = a + b;
            if s >= MODULUS {
                s - MODULUS
            } else {
                s
            }
        }

        pub fn sub(a: u64, b: u64) -> u64 {
            let s = a.wrapping_sub(b);
            if a < b {
                s.wrapping_add(MODULUS)
            } else {
                s
            }
        }

        pub fn neg(v: u64) -> u64 {
            if v == 0 {
                v
            } else {
                MODULUS - v
            }
        }

        pub fn from_i64(v: i64) -> u64 {
            if v >= 0 {
                reduce64(v as u64)
            } else {
                neg(reduce64(v.unsigned_abs()))
            }
        }

        pub fn as_i64(v: u64) -> i64 {
            if v > MODULUS / 2 {
                -((MODULUS - v) as i64)
            } else {
                v as i64
            }
        }

        pub fn pow(base: u64, mut e: u64) -> u64 {
            let mut b = base;
            let mut acc = 1u64;
            while e > 0 {
                if e & 1 == 1 {
                    acc = reduce128(acc as u128 * b as u128);
                }
                b = reduce128(b as u128 * b as u128);
                e >>= 1;
            }
            acc
        }
    }

    mod ct_matches_reference {
        use super::super::*;
        use super::reference;
        use proptest::prelude::*;

        const EDGE_U64: [u64; 8] = [
            0,
            1,
            MODULUS - 1,
            MODULUS,
            MODULUS + 1,
            1 << 62,
            u64::MAX - 1,
            u64::MAX,
        ];

        #[test]
        fn reduce64_edges() {
            for &v in &EDGE_U64 {
                assert_eq!(F61::new(v).value(), reference::reduce64(v), "v={v}");
                assert_eq!(F61::new(v).value(), v % MODULUS, "v={v}");
            }
        }

        #[test]
        fn signed_edges() {
            for &v in &[0i64, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1] {
                assert_eq!(F61::from_i64(v).value(), reference::from_i64(v), "v={v}");
            }
            for &v in &EDGE_U64 {
                assert_eq!(F61(v % MODULUS).as_i64(), reference::as_i64(v % MODULUS));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn reduce64_agrees(v in any::<u64>()) {
                prop_assert_eq!(F61::new(v).value(), reference::reduce64(v));
            }

            #[test]
            fn reduce128_agrees(hi in any::<u64>(), lo in any::<u64>()) {
                let v = ((hi as u128) << 64) | lo as u128;
                prop_assert_eq!(super::super::reduce128(v), reference::reduce128(v));
            }

            #[test]
            fn add_agrees(a in 0u64..MODULUS, b in 0u64..MODULUS) {
                prop_assert_eq!((F61(a) + F61(b)).value(), reference::add(a, b));
            }

            #[test]
            fn sub_agrees(a in 0u64..MODULUS, b in 0u64..MODULUS) {
                prop_assert_eq!((F61(a) - F61(b)).value(), reference::sub(a, b));
            }

            #[test]
            fn neg_agrees(v in 0u64..MODULUS) {
                prop_assert_eq!((-F61(v)).value(), reference::neg(v));
            }

            #[test]
            fn from_i64_agrees(v in any::<i64>()) {
                prop_assert_eq!(F61::from_i64(v).value(), reference::from_i64(v));
            }

            #[test]
            fn as_i64_agrees(v in 0u64..MODULUS) {
                prop_assert_eq!(F61(v).as_i64(), reference::as_i64(v));
            }

            #[test]
            fn pow_agrees(base in 0u64..MODULUS, e in any::<u64>()) {
                prop_assert_eq!(F61(base).pow(e).value(), reference::pow(base, e));
            }

            #[test]
            fn mul_agrees(a in 0u64..MODULUS, b in 0u64..MODULUS) {
                prop_assert_eq!(
                    (F61(a) * F61(b)).value(),
                    reference::reduce128(a as u128 * b as u128)
                );
            }
        }
    }
}
