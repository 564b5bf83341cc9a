//! Branch-free word-level primitives for constant-time share arithmetic.
//!
//! Every mask-producing helper here returns either `0` or `u64::MAX`
//! ("all-ones"), so callers combine results with `&`/`|`/`^` instead of
//! branching. The compiled code for each helper is a short straight-line
//! sequence of adds, subtracts, shifts and bitwise ops — no data-dependent
//! jumps, no data-dependent memory addresses — which is the property the
//! `constant-time` dash-analyze lint pins for the arithmetic modules and
//! the E14 dudect harness measures empirically.
//!
//! All helpers are total over the full `u64` range: no sign trick that
//! would only be valid below 2⁶³.

/// All-ones if `v != 0`, else zero.
#[inline]
pub const fn nonzero_mask(v: u64) -> u64 {
    // v | −v has its top bit set exactly when v is nonzero.
    ((v | v.wrapping_neg()) >> 63).wrapping_neg()
}

/// All-ones if `a == b`, else zero.
#[inline]
pub const fn eq_mask(a: u64, b: u64) -> u64 {
    !nonzero_mask(a ^ b)
}

/// Selects `a` where `mask` is all-ones and `b` where it is zero.
///
/// `mask` must be `0` or `u64::MAX`; any other value blends bits.
#[inline]
pub const fn select(mask: u64, a: u64, b: u64) -> u64 {
    b ^ (mask & (a ^ b))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: [u64; 8] = [
        0,
        1,
        2,
        (1 << 63) - 1,
        1 << 63,
        (1 << 63) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[test]
    fn nonzero_mask_is_all_or_nothing() {
        assert_eq!(nonzero_mask(0), 0);
        for &v in &EDGES[1..] {
            assert_eq!(nonzero_mask(v), u64::MAX, "v={v}");
        }
    }

    #[test]
    fn eq_mask_matches_operator() {
        for &a in &EDGES {
            for &b in &EDGES {
                let expect = if a == b { u64::MAX } else { 0 };
                assert_eq!(eq_mask(a, b), expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn select_picks_by_mask() {
        assert_eq!(select(u64::MAX, 7, 9), 7);
        assert_eq!(select(0, 7, 9), 9);
        assert_eq!(select(u64::MAX, u64::MAX, 0), u64::MAX);
        assert_eq!(select(0, u64::MAX, 0), 0);
    }
}
