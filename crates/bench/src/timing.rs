//! Wall-clock timing helpers for the experiment binaries.
//!
//! `benchmark/` is the committed, layer-by-layer record; the `exp*`
//! binaries need only honest medians of a handful of repetitions, with a
//! warmup run to populate caches and page in the data.

use std::time::Instant;

/// A timed measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Median wall-clock seconds over the measured repetitions.
    pub median_s: f64,
    /// Minimum observed seconds.
    pub min_s: f64,
    /// Maximum observed seconds.
    pub max_s: f64,
    /// Number of measured repetitions.
    pub reps: usize,
}

/// Runs `f` once for warmup and `reps` times for measurement; returns the
/// median/min/max. The closure's result is returned from the last run so
/// the compiler cannot elide the work.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (Timed, T) {
    assert!(reps >= 1, "need at least one repetition");
    let _warm = f();
    let mut samples = Vec::with_capacity(reps);
    let t0 = Instant::now();
    let mut last = f();
    samples.push(t0.elapsed().as_secs_f64());
    for _ in 1..reps {
        let t0 = Instant::now();
        last = f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    let median_s = if reps % 2 == 1 {
        samples[reps / 2]
    } else {
        0.5 * (samples[reps / 2 - 1] + samples[reps / 2])
    };
    (
        Timed {
            median_s,
            min_s: samples[0],
            max_s: samples[reps - 1],
            reps,
        },
        last,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_returns_value() {
        let (t, v) = time_median(3, || std::hint::black_box((0..10_000).sum::<u64>()));
        assert_eq!(v, 49_995_000);
        assert_eq!(t.reps, 3);
        assert!(t.min_s <= t.median_s && t.median_s <= t.max_s);
        assert!(t.min_s >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_reps_panics() {
        let _ = time_median(0, || ());
    }
}
