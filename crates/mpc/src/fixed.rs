//! Fixed-point encoding of `f64` statistics into ring elements.
//!
//! Every party computes its local summands (dot products, Gram entries) in
//! ordinary `f64`, then encodes them as integers `round(x · 2^f)` for the
//! secure aggregation. Because only *sums across parties* happen inside the
//! protocols, the encoding error per opened value is at most
//! `P · 2^{−f−1}` — far below the f64 round-off already present in the
//! plaintext pipeline for the default `f = 32`.
//!
//! Range checking is strict: a value whose magnitude cannot be represented
//! returns [`MpcError::FixedPointOverflow`] instead of silently wrapping,
//! because a wrapped statistic would corrupt downstream β̂/σ̂ invisibly.
//!
//! # The Beaver product bound
//!
//! A Beaver product opens at scale 2^{2f}, with no truncation inside the
//! protocol. Let X⃗ and Y⃗ be the operand encodings summed over the parties
//! (each party encodes its own share), standing for x⃗ = X⃗/2^f and
//! y⃗ = Y⃗/2^f. The opened word is Σ X·Y mod 2⁶⁴, and
//! [`FixedPointCodec::decode_product`] returns Σ X·Y / 2^{2f} (the integer
//! rounded once to `f64`) **iff |Σ x·y|·2^{2f} < 2⁶³**. Past that the
//! word wraps, and the product decodes with the wrong sign. This is the
//! one exactness bound of the Beaver path; the scans meet it by
//! normalising every shared vector to norm ≤ 1 before encoding.

use crate::error::MpcError;
use crate::ring::R64;

/// A fixed-point codec with a configurable number of fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointCodec {
    frac_bits: u32,
}

impl FixedPointCodec {
    /// Maximum supported fractional bits for the ring codec.
    pub const MAX_FRAC_BITS: u32 = 52;

    /// Creates a codec; `frac_bits` must be in `1..=52` (beyond 52 the
    /// scale exceeds f64's integer-exact range and rounding is
    /// meaningless).
    pub fn new(frac_bits: u32) -> Result<Self, MpcError> {
        if frac_bits == 0 || frac_bits > Self::MAX_FRAC_BITS {
            return Err(MpcError::BadFracBits {
                frac_bits,
                max: Self::MAX_FRAC_BITS,
            });
        }
        Ok(FixedPointCodec { frac_bits })
    }

    /// The scale factor 2^f.
    pub fn scale(&self) -> f64 {
        (self.frac_bits as f64).exp2()
    }

    /// Largest encodable magnitude for the Z₂⁶⁴ ring codec.
    ///
    /// A factor-of-two headroom below 2⁶³/2^f is reserved so that sums over
    /// a realistic number of parties cannot wrap: the *decoded sum* must
    /// stay below 2⁶³/2^f, and per-value limits of half that allow the
    /// caller to be sloppy about party counts up to 2.
    /// Stricter callers can check [`FixedPointCodec::sum_capacity`].
    pub fn max_abs_ring(&self) -> f64 {
        (62.0 - self.frac_bits as f64).exp2()
    }

    /// Largest magnitude one party's Beaver operand share may have:
    /// 2^{59−f}. It is a range check on each input share; whether an
    /// opened product decodes exactly is the module's product bound.
    pub fn max_abs_operand(&self) -> f64 {
        (59.0 - self.frac_bits as f64).exp2()
    }

    /// How large the *sum* of encoded values may grow (ring codec) before
    /// two's-complement decoding becomes ambiguous.
    pub fn sum_capacity(&self) -> f64 {
        (63.0 - self.frac_bits as f64).exp2()
    }

    /// Scales and rounds, rejecting non-finite input and magnitudes above
    /// `max_abs`. The boundary is deliberately *inclusive*: every
    /// `max_abs` used by this codec is a power of two `2^(k−f)` with
    /// `k ≤ 62 < 64`, so `x.abs() == max_abs` scales to exactly `2^k` —
    /// integer-exact in `f64`, unchanged by `round()`, and within the
    /// `k`-bit budget. Rounding therefore cannot push an accepted value
    /// past the budget; the round-trip proptests in `tests/props.rs` pin
    /// `±max_abs` exactly.
    ///
    /// `scale` is [`FixedPointCodec::scale`]: a parameter so that the slice
    /// encoders pay its `exp2`, and `max_abs`'s, once per slice.
    fn to_scaled_i64(self, x: f64, scale: f64, max_abs: f64) -> Result<i64, MpcError> {
        if !x.is_finite() {
            return Err(MpcError::NotFinite { value: x });
        }
        if x.abs() > max_abs {
            return Err(MpcError::FixedPointOverflow {
                value: x,
                max_abs,
                frac_bits: self.frac_bits,
            });
        }
        Ok((x * scale).round() as i64)
    }

    /// Decodes a ring element (interpreting it as two's-complement).
    pub fn decode_ring(&self, v: R64) -> f64 {
        v.declassify() as i64 as f64 / self.scale()
    }

    /// Encodes a slice into the ring.
    pub fn encode_ring_vec(&self, xs: &[f64]) -> Result<Vec<R64>, MpcError> {
        let (scale, max_abs) = (self.scale(), self.max_abs_ring());
        xs.iter()
            .map(|&x| self.to_scaled_i64(x, scale, max_abs).map(R64::from_i64))
            .collect()
    }

    /// Decodes a slice of ring elements.
    pub fn decode_ring_vec(&self, vs: &[R64]) -> Vec<f64> {
        vs.iter().map(|&v| self.decode_ring(v)).collect()
    }

    /// Encodes a slice of Beaver operand shares into the ring, each
    /// bounded by [`FixedPointCodec::max_abs_operand`]. "Field" in the
    /// name means the Beaver-operand codec; the words are ring elements,
    /// and [`FixedPointCodec::decode_ring`] inverts them.
    pub fn encode_field_vec(&self, xs: &[f64]) -> Result<Vec<R64>, MpcError> {
        let (scale, max_abs) = (self.scale(), self.max_abs_operand());
        xs.iter()
            .map(|&x| self.to_scaled_i64(x, scale, max_abs).map(R64::from_i64))
            .collect()
    }

    /// Decodes an opened Beaver product, a ring element at scale 2^{2f}
    /// (two's-complement). Exact iff the module's product bound holds.
    pub fn decode_product(&self, v: R64) -> f64 {
        v.declassify() as i64 as f64 / (self.scale() * self.scale())
    }
}

impl Default for FixedPointCodec {
    /// 32 fractional bits: ±2³⁰ range in the ring, 2⁻³² resolution —
    /// comfortable for every statistic the scan aggregates.
    fn default() -> Self {
        FixedPointCodec { frac_bits: 32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(FixedPointCodec::new(0).is_err());
        assert!(FixedPointCodec::new(53).is_err());
        assert!(FixedPointCodec::new(1).is_ok());
        assert!(FixedPointCodec::new(52).is_ok());
    }

    #[test]
    fn ring_roundtrip_precision() {
        let c = FixedPointCodec::new(32).unwrap();
        for &x in &[
            0.0,
            1.0,
            -1.0,
            std::f64::consts::PI,
            -std::f64::consts::E,
            1e6,
            -99999.125,
        ] {
            let back = c.decode_ring(c.encode_ring_vec(&[x]).unwrap()[0]);
            assert!((back - x).abs() <= 1.0 / c.scale(), "x={x} back={back}");
        }
    }

    #[test]
    fn ring_sum_homomorphism() {
        let c = FixedPointCodec::new(32).unwrap();
        let xs = [1.5, -2.25, 100.0625, -0.0009765625];
        let encoded = c.encode_ring_vec(&xs).unwrap();
        let sum = R64::sum(&encoded);
        let expect: f64 = xs.iter().sum();
        assert!((c.decode_ring(sum) - expect).abs() < 4.0 / c.scale());
    }

    #[test]
    fn ring_overflow_rejected() {
        let c = FixedPointCodec::new(32).unwrap();
        assert!(matches!(
            c.encode_ring_vec(&[1e200]),
            Err(MpcError::FixedPointOverflow { .. })
        ));
        assert!(c.encode_ring_vec(&[c.max_abs_ring() * 1.01]).is_err());
        assert!(c.encode_ring_vec(&[c.max_abs_ring() * 0.99]).is_ok());
    }

    #[test]
    fn non_finite_rejected() {
        let c = FixedPointCodec::default();
        assert!(matches!(
            c.encode_ring_vec(&[f64::NAN]),
            Err(MpcError::NotFinite { .. })
        ));
        assert!(c.encode_ring_vec(&[f64::INFINITY]).is_err());
        assert!(c.encode_field_vec(&[f64::NEG_INFINITY]).is_err());
    }

    #[test]
    fn operand_roundtrip_and_negatives() {
        let c = FixedPointCodec::new(20).unwrap();
        let xs = [0.0, 0.5, -0.5, 123.456, -9876.5];
        let back = c.decode_ring_vec(&c.encode_field_vec(&xs).unwrap());
        for (x, b) in xs.iter().zip(back) {
            assert!((b - x).abs() <= 1.0 / c.scale(), "x={x}");
        }
    }

    #[test]
    fn product_decoding() {
        // Product of two encoded values carries scale 2^{2f}.
        let c = FixedPointCodec::new(20).unwrap();
        let (a, b) = (12.5, -3.25);
        let e = c.encode_field_vec(&[a, b]).unwrap();
        let prod = c.decode_product(e[0] * e[1]);
        assert!((prod - a * b).abs() < 1e-4, "prod={prod}");
    }

    #[test]
    fn inner_product_decoding() {
        let c = FixedPointCodec::new(20).unwrap();
        let xs = [1.5, -2.0, 0.75];
        let ys = [4.0, 0.5, -8.0];
        let ex = c.encode_field_vec(&xs).unwrap();
        let ey = c.encode_field_vec(&ys).unwrap();
        let acc = ex.iter().zip(&ey).map(|(&x, &y)| x * y).sum::<R64>();
        let expect: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        assert!((c.decode_product(acc) - expect).abs() < 1e-4);
    }

    #[test]
    fn vector_roundtrips() {
        let c = FixedPointCodec::default();
        let xs = vec![0.25, -0.75, 42.0];
        let enc = c.encode_ring_vec(&xs).unwrap();
        let dec = c.decode_ring_vec(&enc);
        for (a, b) in xs.iter().zip(&dec) {
            assert!((a - b).abs() < 1e-9);
        }
        let encf = c.encode_field_vec(&xs).unwrap();
        for (a, &b) in xs.iter().zip(&encf) {
            assert!((a - c.decode_ring(b)).abs() < 1e-9);
        }
    }

    #[test]
    fn boundary_magnitudes_roundtrip_exactly() {
        // x.abs() == max_abs is accepted and scales to an exact power of
        // two, so encode/decode is lossless right at the boundary — for
        // every legal frac_bits setting, ring and Beaver operand alike.
        for f in 1..=FixedPointCodec::MAX_FRAC_BITS {
            let c = FixedPointCodec::new(f).unwrap();
            let mr = c.max_abs_ring();
            let mo = c.max_abs_operand();
            let back = c.decode_ring_vec(&c.encode_ring_vec(&[mr, -mr]).unwrap());
            assert_eq!(back, [mr, -mr], "f={f}");
            let back = c.decode_ring_vec(&c.encode_field_vec(&[mo, -mo]).unwrap());
            assert_eq!(back, [mo, -mo], "f={f}");
        }
    }

    #[test]
    fn just_above_boundary_rejected() {
        for f in [1, 20, 32, 52] {
            let c = FixedPointCodec::new(f).unwrap();
            let ring_above = c.max_abs_ring() * (1.0 + 1e-9);
            assert!(ring_above > c.max_abs_ring());
            assert!(c.encode_ring_vec(&[ring_above]).is_err(), "f={f}");
            assert!(c.encode_ring_vec(&[-ring_above]).is_err(), "f={f}");
            let operand_above = c.max_abs_operand() * (1.0 + 1e-9);
            assert!(c.encode_field_vec(&[operand_above]).is_err(), "f={f}");
            assert!(c.encode_field_vec(&[-operand_above]).is_err(), "f={f}");
        }
    }

    #[test]
    fn capacity_relations() {
        let c = FixedPointCodec::new(32).unwrap();
        assert!(c.max_abs_ring() * 2.0 <= c.sum_capacity());
        assert!(c.max_abs_operand() < c.max_abs_ring());
    }
}
