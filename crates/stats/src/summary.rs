//! Streaming summary statistics (Welford's algorithm).
//!
//! Used throughout the experiment harness (timing distributions, power
//! estimates) and by the online scan to sanity-check incoming batches.

/// Numerically stable streaming mean/variance accumulator.
///
/// Welford's recurrence avoids the catastrophic cancellation of the naive
/// `E[X²] − E[X]²` formula, which matters when summarizing values with a
/// large common offset (e.g. nanosecond timestamps).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every value of a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merges another accumulator (parallel Welford / Chan's formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; NaN with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn known_small_sample() {
        let mut w = Welford::new();
        w.extend(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(w.count(), 8);
        assert!(close(w.mean(), 5.0, 1e-15));
        assert!(close(w.variance(), 32.0 / 7.0, 1e-14));
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn empty_and_single() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        let mut w1 = Welford::new();
        w1.push(3.0);
        assert_eq!(w1.mean(), 3.0);
        assert!(w1.variance().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut seq = Welford::new();
        seq.extend(&xs);
        let mut a = Welford::new();
        let mut b = Welford::new();
        a.extend(&xs[..37]);
        b.extend(&xs[37..]);
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!(close(a.mean(), seq.mean(), 1e-12));
        assert!(close(a.variance(), seq.variance(), 1e-12));
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.extend(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn large_offset_stability() {
        // Mean 1e9 with tiny variance — the naive formula would lose it.
        let mut w = Welford::new();
        for i in 0..1000 {
            w.push(1e9 + (i % 2) as f64);
        }
        assert!(close(w.mean(), 1e9 + 0.5, 1e-15));
        assert!(close(w.variance(), 0.25 * 1000.0 / 999.0, 1e-9));
    }
}
