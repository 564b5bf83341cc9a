//! Value-generation strategies (no shrinking).

use crate::test_runner::TestRng;
use core::marker::PhantomData;
use core::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
///
/// Unlike the real proptest, a strategy here is just a sampler: it draws
/// a value directly from the deterministic [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then uses it to pick the next strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}
impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as i64
    }
}
impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`crate::any`].
pub struct Any<T>(pub(crate) PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
float_strategy!(f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// Sizes accepted by [`vec()`]: a fixed length or a length range.
pub trait SizeRange {
    fn sample_len(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn sample_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        Strategy::sample(self, rng)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        Strategy::sample(self, rng)
    }
}

/// `proptest::collection::vec` — a vector of values from `element`.
pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

/// See [`vec()`].
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.len.sample_len(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

/// Boxes a strategy, pinning its value type (helper for `prop_oneof!`
/// so type inference never sees an unconstrained trait object).
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Uniform choice between boxed strategies (the `prop_oneof!` macro).
pub fn one_of<T>(arms: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    OneOf { arms }
}

/// See [`one_of`].
pub struct OneOf<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let idx = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[idx].sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::deterministic("strategy::tests", 0)
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (3usize..9).sample(&mut r);
            assert!((3..9).contains(&v));
            let f = (-2.0f64..2.0).sample(&mut r);
            assert!((-2.0..2.0).contains(&f));
            let i = (1usize..=4).sample(&mut r);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn vec_lengths_respected() {
        let mut r = rng();
        for _ in 0..100 {
            let v = vec(0.0f64..1.0, 2..5).sample(&mut r);
            assert!((2..5).contains(&v.len()));
            let w = vec(0u64..10, 7usize).sample(&mut r);
            assert_eq!(w.len(), 7);
        }
    }

    #[test]
    fn map_flat_map_compose() {
        let mut r = rng();
        let s = (1usize..4)
            .prop_flat_map(|n| vec(0.0f64..1.0, n))
            .prop_map(|v| v.len());
        for _ in 0..50 {
            let n = s.sample(&mut r);
            assert!((1..4).contains(&n));
        }
    }

    #[test]
    fn tuples_and_one_of() {
        let mut r = rng();
        let (a, b) = (0u64..4, -1.0f64..1.0).sample(&mut r);
        assert!(a < 4 && (-1.0..1.0).contains(&b));
        let s = one_of::<f64>(vec![Box::new(0.0f64..1.0), Box::new(10.0f64..11.0)]);
        let mut low = false;
        let mut high = false;
        for _ in 0..200 {
            let v = s.sample(&mut r);
            if v < 1.0 {
                low = true;
            } else {
                assert!((10.0..11.0).contains(&v));
                high = true;
            }
        }
        assert!(low && high);
    }
}
