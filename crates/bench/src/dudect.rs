//! Dudect-style timing-leak detection for the share arithmetic.
//!
//! The `constant-time` lint proves the *source* is branch-free; this
//! module checks the *machine* agrees. Following the dudect methodology
//! (Reparaz, Balasch, Verbauwhede, DATE 2017), an operation is driven
//! with two input classes — one **fixed** (a worst-case constant) and one
//! **random** — in a randomly interleaved schedule, each measurement
//! timing a small batch of iterations. A Welch t-test then asks whether
//! the two timing distributions share a mean: for a constant-time
//! operation |t| stays small (the classic dudect threshold is ~4.5);
//! a data-dependent branch or table lookup drives |t| into the tens.
//!
//! Timing noise on a preemptive OS is heavily right-skewed (interrupts,
//! migrations), so alongside the raw t the report includes a **cropped**
//! t computed after discarding the slowest tail above a pooled
//! percentile — the standard dudect post-processing that sharpens the
//! signal without biasing either class (the threshold is computed from
//! the pooled samples, never per class).
//!
//! The clock is `rdtsc` on x86-64 and a monotonic [`Instant`] elsewhere;
//! batching (default 64 ops per sample) keeps either clock's granularity
//! well below the effect size.

use rand::rngs::StdRng;
use rand::RngCore;
use std::hint::black_box;
use std::time::Instant;

/// Cycle (or nanosecond) stamp for one batch boundary.
#[cfg(target_arch = "x86_64")]
fn stamp() -> u64 {
    // SAFETY: RDTSC has no side effects and is available on every x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn stamp() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    let nanos = epoch.elapsed().as_nanos();
    // Truncation is harmless: only *differences* between nearby stamps
    // are used, and a u64 of nanoseconds spans centuries.
    nanos as u64
}

// Keep the unused import warning away on x86-64 builds.
#[cfg(target_arch = "x86_64")]
const _: fn() -> Instant = Instant::now;

/// Welch's unequal-variance t-statistic between two samples, with n−1
/// (sample) variance. Returns 0 when either sample is degenerate (fewer
/// than two points or zero pooled variance) — a degenerate measurement
/// must read as "no evidence of a leak", not as infinity.
pub fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < 2 || b.len() < 2 {
        return 0.0;
    }
    let (ma, va) = mean_var(a);
    let (mb, vb) = mean_var(b);
    let denom = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (ma - mb) / denom
    }
}

fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Discards the slow tail above the pooled `pct` percentile (0 < pct ≤ 1)
/// of both samples and returns the cropped pair. The threshold comes from
/// the *pooled* distribution so the crop cannot itself bias one class.
pub fn crop_tail(a: &[f64], b: &[f64], pct: f64) -> (Vec<f64>, Vec<f64>) {
    let mut pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    if pooled.is_empty() {
        return (Vec::new(), Vec::new());
    }
    pooled.sort_by(f64::total_cmp);
    let idx = (((pooled.len() as f64) * pct) as usize)
        .saturating_sub(1)
        .min(pooled.len() - 1);
    let thr = pooled[idx];
    let keep = |xs: &[f64]| {
        xs.iter()
            .copied()
            .filter(|&x| x <= thr)
            .collect::<Vec<f64>>()
    };
    (keep(a), keep(b))
}

/// Outcome of one two-class measurement.
#[derive(Debug, Clone, Copy)]
pub struct TimingReport {
    /// Welch t over all samples.
    pub t_raw: f64,
    /// Welch t after cropping the pooled slow tail at the 95th percentile.
    pub t_cropped: f64,
    /// Measurements taken in the fixed class.
    pub n_fixed: usize,
    /// Measurements taken in the random class.
    pub n_random: usize,
}

impl TimingReport {
    /// The statistic the gate judges: the cropped t, which is robust to
    /// scheduler noise. The raw t is reported for context.
    pub fn statistic(&self) -> f64 {
        self.t_cropped.abs()
    }
}

/// Operations per timed sample. Batching amortizes clock granularity and
/// the measurement loop's own overhead across many executions.
pub const BATCH: usize = 64;

/// Runs the dudect protocol for a binary operation: `samples` timed
/// batches over a pre-generated, randomly interleaved schedule of fixed
/// and random inputs. All input generation happens **before** the first
/// timestamp — the random class draws during the measurement loop would
/// otherwise perturb caches and pipelines asymmetrically and show up as
/// a spurious class difference. Returns the two-class report.
pub fn measure_binary<Op, T>(
    samples: usize,
    rng: &mut StdRng,
    fixed: (u64, u64),
    mut random: impl FnMut(&mut StdRng) -> (u64, u64),
    mut op: Op,
) -> TimingReport
where
    Op: FnMut(u64, u64) -> T,
{
    let schedule: Vec<(bool, u64, u64)> = (0..samples)
        .map(|_| {
            let is_fixed = rng.next_u64() & 1 == 0;
            // Drawn for both classes so the generator stream is identical
            // regardless of the coin.
            let (ra, rb) = random(rng);
            if is_fixed {
                (true, fixed.0, fixed.1)
            } else {
                (false, ra, rb)
            }
        })
        .collect();
    let mut fixed_times = Vec::with_capacity(samples / 2 + 1);
    let mut random_times = Vec::with_capacity(samples / 2 + 1);
    // Warmup: populate caches and branch predictors outside the record.
    for _ in 0..BATCH {
        black_box(op(black_box(fixed.0), black_box(fixed.1)));
    }
    for &(is_fixed, a, b) in &schedule {
        let t0 = stamp();
        for _ in 0..BATCH {
            black_box(op(black_box(a), black_box(b)));
        }
        let dt = stamp().wrapping_sub(t0);
        if is_fixed {
            fixed_times.push(dt as f64);
        } else {
            random_times.push(dt as f64);
        }
    }
    let t_raw = welch_t(&fixed_times, &random_times);
    let (ca, cb) = crop_tail(&fixed_times, &random_times, 0.95);
    TimingReport {
        t_raw,
        t_cropped: welch_t(&ca, &cb),
        n_fixed: fixed_times.len(),
        n_random: random_times.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn welch_t_zero_for_identical_samples() {
        let a = [5.0, 6.0, 7.0, 8.0];
        assert_eq!(welch_t(&a, &a), 0.0);
    }

    #[test]
    fn welch_t_detects_a_shift() {
        let a: Vec<f64> = (0..200).map(|i| 100.0 + f64::from(i % 5)).collect();
        let b: Vec<f64> = (0..200).map(|i| 150.0 + f64::from(i % 5)).collect();
        assert!(welch_t(&a, &b).abs() > 10.0);
    }

    #[test]
    fn welch_t_degenerate_inputs_read_as_no_leak() {
        assert_eq!(welch_t(&[1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(welch_t(&[4.0, 4.0], &[4.0, 4.0]), 0.0);
    }

    #[test]
    fn crop_removes_only_the_pooled_slow_tail() {
        let a = [1.0, 2.0, 3.0, 1000.0];
        let b = [1.5, 2.5, 3.5, 2000.0];
        let (ca, cb) = crop_tail(&a, &b, 0.75);
        assert!(ca.iter().all(|&x| x < 1000.0));
        assert!(cb.iter().all(|&x| x < 1000.0));
        assert!(!ca.is_empty() && !cb.is_empty());
    }

    #[test]
    fn crop_outliers_rescue_the_t() {
        // Same mean in both classes, but one class caught two scheduler
        // spikes: raw t is inflated, cropped t collapses.
        let mut a: Vec<f64> = (0..100).map(|i| 50.0 + f64::from(i % 3)).collect();
        let b: Vec<f64> = (0..100).map(|i| 50.0 + f64::from(i % 3)).collect();
        a[0] = 50_000.0;
        a[1] = 80_000.0;
        let raw = welch_t(&a, &b).abs();
        let (ca, cb) = crop_tail(&a, &b, 0.95);
        let cropped = welch_t(&ca, &cb).abs();
        assert!(cropped < raw, "crop must reduce outlier influence");
        assert!(cropped < 1.0, "identical distributions after crop");
    }

    #[test]
    fn measure_splits_classes_and_returns_finite_t() {
        let mut rng = StdRng::seed_from_u64(11);
        let rep = measure_binary(
            400,
            &mut rng,
            (3, 4),
            |r| (r.next_u64(), r.next_u64()),
            |a, b| a.wrapping_mul(b),
        );
        assert_eq!(rep.n_fixed + rep.n_random, 400);
        assert!(rep.n_fixed > 100 && rep.n_random > 100, "coin flip balance");
        assert!(rep.t_raw.is_finite() && rep.t_cropped.is_finite());
    }

    #[test]
    fn harness_detects_a_gross_artificial_leak() {
        // Positive control for the *harness logic* (not the CPU): an op
        // whose work depends blatantly on the input class must produce a
        // large |t|. The fixed class takes the slow path every time.
        let mut rng = StdRng::seed_from_u64(12);
        let rep = measure_binary(
            2_000,
            &mut rng,
            (0, 0),
            |r| (r.next_u64() | 1, 0),
            |a, _| {
                let mut acc = a;
                if a & 1 == 0 {
                    for i in 0..64 {
                        acc = acc.wrapping_mul(0x9E37_79B9).rotate_left(i % 7);
                    }
                }
                acc
            },
        );
        assert!(
            rep.statistic() > 4.5,
            "gross leak must exceed the dudect threshold, got {}",
            rep.statistic()
        );
    }
}
