//! The cell writer's fast path: the bytes `{}` writes for an `f64`,
//! without going through `core::fmt` (DESIGN §5.5).
//!
//! `{}` spells a finite `f64` as the shortest decimal that reads back to
//! the same bits, in positional notation, with the digit nearest the
//! value, and a tie between two nearest goes up. For a normal `|v| < 2⁵³`
//! those digits come from the `e2 < 0` half of Ryu (Adams, PLDI 2018):
//! the interval of decimals that round to `v` is scaled by a power of five
//! so that its bounds are integers, and digits are dropped from the value
//! and both bounds while the bounds still differ. Reference Ryu breaks an
//! exact tie to the even digit; here it goes up, as `{}` does. Every
//! other value is not this path's: `push` declines it and the caller asks
//! `{}`.

/// Bits each power of five is normalised to.
const POW5_BITS: i32 = 125;

/// 5⁰ ..= 5³²⁵: the smallest normal needs 5³²⁵ (`-e2` = 1076).
const POW5_COUNT: usize = 326;

/// `5^i` normalised to its top 125 bits (truncated where it is wider),
/// built at compile time.
static POW5: [u128; POW5_COUNT] = pow5_table();

/// Multiplies a 12-limb (768-bit) integer by five, one step per entry:
/// 5³²⁵ is 755 bits wide.
const fn pow5_table() -> [u128; POW5_COUNT] {
    let mut limbs = [0u64; 12];
    limbs[0] = 1;
    let mut table = [0u128; POW5_COUNT];
    let mut i = 0;
    while i < POW5_COUNT {
        let mut top = limbs.len() - 1;
        while limbs[top] == 0 {
            top -= 1;
        }
        let width = 64 * top as i32 + 64 - limbs[top].leading_zeros() as i32;
        let shift = width - POW5_BITS;
        table[i] = if shift <= 0 {
            (limbs[0] as u128 | (limbs[1] as u128) << 64) << -shift
        } else {
            let (word, bit) = (shift as usize / 64, shift as u32 % 64);
            let low = (limbs[word] as u128 | (limbs[word + 1] as u128) << 64) >> bit;
            let high = if bit == 0 {
                0
            } else {
                (limbs[word + 2] as u128) << (128 - bit)
            };
            (low | high) & ((1 << POW5_BITS) - 1)
        };
        let mut carry = 0u128;
        let mut k = 0;
        while k < limbs.len() {
            let product = limbs[k] as u128 * 5 + carry;
            limbs[k] = product as u64;
            carry = product >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

/// "00" "01" … "99".
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// The decimal digits of `n`, right-aligned in `scratch`: returns where
/// they start.
fn digits(mut n: u64, scratch: &mut [u8; 20]) -> usize {
    let mut at = scratch.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        scratch[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        scratch[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        scratch[at] = b'0' + n as u8;
    }
    at
}

/// Appends the decimal digits of `n`, as `{}` writes an integer.
pub(super) fn push_integer(out: &mut Vec<u8>, n: u64) {
    let mut scratch = [0u8; 20];
    let at = digits(n, &mut scratch);
    out.extend_from_slice(&scratch[at..]);
}

/// Appends what `{}` writes for `v` and returns true when `v` is a normal
/// `f64` below 2⁵³ in magnitude; otherwise appends nothing and returns
/// false.
pub(super) fn push(out: &mut Vec<u8>, v: f64) -> bool {
    let bits = v.to_bits();
    let biased = (bits >> 52) as u32 & 0x7ff;
    // Normal is a biased exponent of 1 or more; below 2⁵³ is 1075 or less.
    if biased.wrapping_sub(1) >= 1075 {
        return false;
    }
    let fraction = bits & ((1 << 52) - 1);
    let e2 = biased as i32 - 1077;
    let (decimal, exp10) = shortest(fraction | 1 << 52, fraction != 0 || biased == 1, e2);
    let mut scratch = [0u8; 20];
    let at = digits(decimal, &mut scratch);
    let digits = &scratch[at..];
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    // `{}` is positional: all the digits and `exp10` zeros, the digits
    // split by the point, or "0.", `-point` zeros and the digits.
    let point = digits.len() as i32 + exp10;
    if exp10 >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + exp10 as usize, b'0');
    } else if point > 0 {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    }
    true
}

/// The shortest `(d, e)` with `d·10^e` inside the rounding interval of
/// `m2·2^(e2+2)`, the nearest such `d` and ties up, for `-1076 ≤ e2 ≤ -2`.
/// `wide_below` is false only where the gap to the next smaller `f64` is
/// half the gap above (`m2` a power of two, not the smallest normal).
fn shortest(m2: u64, wide_below: bool, e2: i32) -> (u64, i32) {
    let even = m2 & 1 == 0;
    let minus_e2 = e2.unsigned_abs();
    // q = ⌊log₁₀ 5^-e2⌋ − 1 and ⌈log₂ 5^i⌉, by Ryu's fixed-point logs.
    let q = ((minus_e2 * 732_923) >> 20) - 1;
    let i = minus_e2 - q;
    let width = ((i * 1_217_359) >> 19) as i32 + 1;
    let shift = (q as i32 - (width - POW5_BITS) - 64) as u32;
    let pow5 = POW5[i as usize];
    let scaled = |m: u64| {
        let low = u128::from(pow5 as u64) * u128::from(m);
        let high = (pow5 >> 64) * u128::from(m);
        (((low >> 64) + high) >> shift) as u64
    };
    let mut vr = scaled(4 * m2);
    let mut vp = scaled(4 * m2 + 2);
    let mut vm = scaled(4 * m2 - 1 - u64::from(wide_below));
    // For q ≤ 1 the scaling divides by 2^q at most, so `vp` and a wide
    // `vm` lose nothing: an included lower bound is then a candidate
    // while every digit dropped from it is 0, and an excluded upper bound
    // is one too many.
    let mut vm_exact = q <= 1 && even && wide_below;
    if q <= 1 && !even {
        vp -= 1;
    }
    let mut removed = 0;
    let mut last = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // A lower bound still exact is the shortest candidate with its zeros
    // dropped.
    while vm_exact && vm % 10 == 0 {
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // Up past the lower bound when it is excluded, and up on the digits
    // dropped from `vr` when they are half or more (`{}` rounds ties up).
    let up = (vr == vm && !vm_exact) || last >= 5;
    (vr + u64::from(up), q as i32 + e2 + removed)
}

#[cfg(test)]
mod tests {
    use super::super::{TextOut, LONGEST_CELL};
    use super::*;
    use proptest::prelude::ProptestConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Write as _;

    /// The cell writer and `{}`, each with a buffer it reuses.
    struct Differential {
        text: TextOut<std::io::Sink>,
        fast: Vec<u8>,
        want: String,
    }

    impl Differential {
        fn new() -> Self {
            let text = TextOut::new(std::io::sink());
            Differential {
                text,
                fast: Vec::new(),
                want: String::new(),
            }
        }

        /// `v` through the cell writer is `{}` byte for byte (NaN is
        /// "NaN"); the fast path takes exactly the normal values below
        /// 2⁵³, and a cell it writes is at most 20 bytes besides the zeros
        /// that lead a fraction (a sign, "0." and 17 digits), so at most
        /// 25 down to 10⁻⁶.
        fn check(&mut self, v: f64) {
            self.fast.clear();
            let fast = push(&mut self.fast, v);
            self.text.buf.clear();
            self.text.cell(v);
            self.want.clear();
            if v.is_nan() {
                self.want.push_str("NaN");
            } else {
                write!(self.want, "{v}").unwrap();
            }
            let (got, want) = (&self.text.buf, &self.want);
            assert!(
                *got == want.as_bytes(),
                "{v:e} ({:#018x}): wrote {:?}, `{{}}` writes {want:?}",
                v.to_bits(),
                String::from_utf8_lossy(got),
            );
            assert_eq!(fast, v.is_normal() && v.abs() < 2f64.powi(53), "{v:e}");
            assert!(got.len() <= LONGEST_CELL, "{v:e}");
            if fast {
                assert!(self.fast == *got, "{v:e}: push and cell disagree");
                let digits = want.trim_start_matches('-');
                let zeros = digits
                    .strip_prefix("0.")
                    .map_or(0, |f| f.len() - f.trim_start_matches('0').len());
                assert!(got.len() <= 20 + zeros, "{v:e}: {want}");
                assert!(got.len() <= 25 || v.abs() < 1e-6, "{v:e}: {want}");
            } else {
                assert!(self.fast.is_empty(), "{v:e}: declined but wrote");
            }
        }
    }

    /// One ulp either side of `v` and `v` itself.
    fn with_neighbours(v: f64) -> [f64; 3] {
        let bits = v.to_bits();
        [f64::from_bits(bits - 1), v, f64::from_bits(bits + 1)]
    }

    /// The fast path against `{}`: random bit patterns, exponent-uniform
    /// normals, powers of two and of ten with their neighbours, small
    /// integers and fractions, exact ties (k + ¼, ½, ¾ for 2⁵⁰ ≤ k < 2⁵¹,
    /// where two 17-digit spellings are equally near and `{}` takes the
    /// upper) and the edges of the fast path's domain. DASH_FMT_CASES
    /// bounds each random family (default 20,000; `scripts/check.sh` runs
    /// 10⁷).
    #[test]
    fn shortest_digits_equal_display_byte_for_byte() {
        let cases = ProptestConfig::with_cases_env(20_000, "DASH_FMT_CASES").cases;
        let mut rng = StdRng::seed_from_u64(42);
        let mut diff = Differential::new();
        let mut check = |v: f64| diff.check(v);
        for _ in 0..cases {
            check(f64::from_bits(rng.gen::<u64>()));
            let sign = u64::from(rng.gen::<bool>()) << 63;
            let exponent = rng.gen_range(1..2047u64) << 52;
            check(f64::from_bits(sign | exponent | rng.gen::<u64>() >> 12));
            let k = rng.gen_range(1u64 << 50..1 << 51) as f64;
            let tie = [0.25, 0.5, 0.75][rng.gen_range(0..3usize)];
            check(f64::from_bits(sign | (k + tie).to_bits()));
        }
        let powers_of_two = (0..52).map(|k| f64::from_bits(1 << k));
        let powers_of_two = powers_of_two.chain((1..2047).map(|e| f64::from_bits(e << 52)));
        let powers_of_ten = (-323..=308).map(|k| format!("1e{k}").parse().unwrap());
        for v in powers_of_two.chain(powers_of_ten).flat_map(with_neighbours) {
            check(v);
        }
        for k in 0..=2_000 {
            check(k as f64);
            check(k as f64 / 1000.0);
            check(1.0 / k as f64);
        }
        for k in [1u64 << 50, (1 << 51) - 1] {
            for tie in [0.25, 0.5, 0.75] {
                check(k as f64 + tie);
            }
        }
        let edges = [2f64.powi(53), f64::MIN_POSITIVE, f64::MAX, f64::EPSILON];
        for v in edges.into_iter().flat_map(with_neighbours) {
            check(v);
            check(-v);
        }
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            check(v);
        }
        // The longest cell there is, which `ROW_ROOM` is sized from.
        let longest = -f64::from_bits(1);
        check(longest);
        assert_eq!(format!("{longest}").len(), LONGEST_CELL);
        // −1699035690989648.25: textbook Ryu writes …648.2, the even digit.
        let tie = -(1699035690989648.0 + 0.25);
        assert_eq!(format!("{tie}"), "-1699035690989648.3");
        check(tie);
    }

    /// The const-built table against 5^i computed the other way, where
    /// u128 holds it, and its normalisation everywhere.
    #[test]
    fn powers_of_five_are_normalised_to_125_bits() {
        for (i, &p) in POW5.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros(), POW5_BITS as u32, "5^{i}");
            if let Some(exact) = 5u128.checked_pow(i as u32) {
                assert_eq!(p, exact << exact.leading_zeros() >> 3, "5^{i}");
            }
        }
    }

    #[test]
    fn integers_are_written_as_display_writes_them() {
        let mut rng = StdRng::seed_from_u64(1);
        let powers = (0..20).flat_map(|k| {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1]
        });
        let random = (0..10_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32));
        for n in powers.chain(random).chain([0, u64::MAX]) {
            let mut out = Vec::new();
            push_integer(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }
}
