//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the `rand` 0.8 API it actually uses:
//! [`RngCore`], [`Rng`] (`gen`, `gen_range`, `gen_bool`), [`SeedableRng`]
//! (`seed_from_u64`), and [`rngs::StdRng`].
//!
//! `StdRng` here is xoshiro256** seeded through SplitMix64 — a fast,
//! well-tested generator that is more than adequate for simulation and
//! testing. It is **not** the cryptographically strong ChaCha generator
//! the real `rand` ships; the one security-sensitive consumer in this
//! workspace (`dash-mpc`'s share/mask PRG) documents that a deployment
//! must swap in a cryptographic PRG. Streams are deterministic per seed
//! and stable across platforms, which is what the experiments need.

/// Low-level uniform word generation.
pub trait RngCore {
    /// Next uniform 32-bit word.
    fn next_u32(&mut self) -> u32;
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }
}

/// Types that can be sampled uniformly from an RNG (the role of
/// `Standard: Distribution<T>` in the real crate).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    /// Uniform in [0, 1) with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Ranges that `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Multiply-shift bounded sampling; bias is < 2^-64 per draw,
                // far below anything the simulations can detect.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as Standard>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                // The upper endpoint has measure zero; treating the
                // inclusive range like the half-open one is exact enough
                // for floats.
                let u = <$t as Standard>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
float_range!(f64);

/// High-level sampling helpers, auto-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
    /// Uniform value in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seeding, reduced to the one constructor the workspace uses.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (see crate docs for the
    /// caveat versus the real `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Captures the raw xoshiro256** state so a generator can be
        /// persisted and later resumed mid-stream (checkpoint/restore).
        /// The state fully determines every future draw, so callers that
        /// treat the stream as secret must protect the snapshot the same
        /// way they protect the seed.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a [`StdRng::state`] snapshot; the
        /// resumed stream continues exactly where the snapshot was taken.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the 64-bit seed into full state, as
            // recommended by the xoshiro authors.
            let mut z = seed;
            let mut next = move || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn state_roundtrip_resumes_mid_stream() {
        let mut a = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            a.next_u64();
        }
        let snap = a.state();
        let tail_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut b = StdRng::from_state(snap);
        let tail_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(tail_a, tail_b);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let f = rng.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let i = rng.gen_range(1usize..=6);
            assert!((1..=6).contains(&i));
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_handles_ragged_tail() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }
}
