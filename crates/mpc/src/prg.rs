//! Deterministic pseudo-random generation for masks and dealer shares.
//!
//! The correlated-mask secure sum needs streams of uniform ring elements
//! that two parties can reproduce from a shared seed, and the dealer needs
//! uniform ring elements for its triples and their shares. Both draw
//! [`R64`] words, one `u64` each, with no rejection step. The generator
//! underneath is the vendored `rand` shim's `StdRng`: xoshiro256\*\*
//! seeded through SplitMix64 — fast, linear and **not** cryptographically
//! strong. Anyone who learns a seed or one state recomputes the stream.
//! Replacing it with a ChaCha stream is ROADMAP's key-material item (c).

use crate::ring::R64;
use crate::secret::Secret;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded PRG producing uniform ring elements.
///
/// Two parties constructing `Prg::from_seed(s)` with the same seed draw
/// identical streams — the basis of the pairwise-mask protocol.
#[derive(Clone)]
pub struct Prg {
    rng: StdRng,
}

impl std::fmt::Debug for Prg {
    // The internal state determines every future mask; printing it would
    // leak the pads, so the Debug form is deliberately opaque.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Prg { <state redacted> }")
    }
}

impl Prg {
    /// Creates a PRG from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Prg {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Captures the raw generator state for a protocol checkpoint. The
    /// snapshot determines every future mask, so it is exactly as
    /// sensitive as the seed: checkpoint files embedding it must be
    /// protected like the party's private inputs.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a PRG from a [`Prg::state`] snapshot; the resumed stream
    /// continues exactly where the snapshot was taken, which is what lets
    /// a resumed party re-derive bit-identical shares and pads.
    pub fn from_state(s: [u64; 4]) -> Self {
        Prg {
            rng: StdRng::from_state(s),
        }
    }

    /// Derives a sub-seed for a labelled purpose, so independent streams
    /// can be split off one master seed without correlation.
    pub fn derive_seed(master: u64, label: u64) -> u64 {
        // SplitMix64 finalizer over master ^ rotated label: cheap,
        // well-dispersed, and stable across platforms.
        let mut z = master ^ label.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next uniform 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Next uniform ring element.
    #[inline]
    pub fn next_ring(&mut self) -> R64 {
        R64(self.next_u64())
    }

    /// Fills a vector with uniform ring elements.
    pub fn ring_vec(&mut self, len: usize) -> Vec<R64> {
        (0..len).map(|_| self.next_ring()).collect()
    }

    /// Draws a correlated pad for the masked-sum protocols. The pad is a
    /// one-time key: it is secret material from the moment it is drawn,
    /// so it comes out wrapped and is applied via [`Secret::pad_into`]
    /// without ever existing as a bare vector at the call site.
    pub fn mask_ring_vec(&mut self, len: usize) -> Secret<Vec<R64>> {
        Secret::new(self.ring_vec(len))
    }

    /// Uniform f64 in [0, 1) — used by simulators layered on this PRG.
    pub fn next_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prg::from_seed(42);
        let mut b = Prg::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.ring_vec(16), b.ring_vec(16));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::from_seed(1);
        let mut b = Prg::from_seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_seed_is_stable_and_disperses() {
        let s1 = Prg::derive_seed(7, 0);
        let s2 = Prg::derive_seed(7, 0);
        assert_eq!(s1, s2);
        assert_ne!(Prg::derive_seed(7, 0), Prg::derive_seed(7, 1));
        assert_ne!(Prg::derive_seed(7, 0), Prg::derive_seed(8, 0));
    }

    #[test]
    fn state_snapshot_resumes_identically() {
        let mut a = Prg::from_seed(77);
        a.ring_vec(9);
        let snap = a.state();
        let mut b = Prg::from_state(snap);
        for _ in 0..32 {
            assert_eq!(a.next_ring(), b.next_ring());
        }
    }

    #[test]
    fn rough_uniformity_of_ring_high_bit() {
        // The top bit should be set about half the time.
        let mut p = Prg::from_seed(99);
        let ones = (0..4000).filter(|_| p.next_ring().0 >> 63 == 1).count();
        assert!((1700..2300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut p = Prg::from_seed(5);
        for _ in 0..100 {
            let x = p.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
