//! Special functions: log-gamma, regularized incomplete gamma and beta,
//! and the error function.
//!
//! These are the numerical kernels behind every distribution in this crate.
//! Implementations follow the classic series / continued-fraction splits
//! (Numerical Recipes style) with f64-tight tolerances; accuracy is
//! validated in the tests against closed forms and high-precision reference
//! values, including the deep tails needed for genome-wide significance
//! (p ≈ 5·10⁻⁸).

use crate::error::StatsError;
use std::array::from_fn;

/// Machine-level convergence tolerance for the iterative evaluations.
const EPS: f64 = 3.0e-16;
/// A number near the smallest representable normal, used to guard
/// continued-fraction denominators.
const FPMIN: f64 = 1.0e-300;
/// Iteration cap for series/continued fractions.
const ITMAX: usize = 500;

/// Natural log of the gamma function for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients), accurate to ~1e-14
/// relative over the positive axis.
#[allow(clippy::excessive_precision)] // coefficients kept as published
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9 (Godfrey / numerical.recipes lineage).
    const COEFFS: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the Lanczos sum in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a,x)/Γ(a)`.
///
/// `P(a, ·)` is the CDF of the Gamma(a, 1) distribution; the χ² CDF and the
/// error function are special cases.
pub fn reg_inc_gamma_p(a: f64, x: f64) -> Result<f64, StatsError> {
    if a <= 0.0 {
        return Err(StatsError::DomainError {
            what: "reg_inc_gamma_p (shape a)",
            value: a,
        });
    }
    if x < 0.0 {
        return Err(StatsError::DomainError {
            what: "reg_inc_gamma_p (x)",
            value: x,
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        Ok(1.0 - gamma_cf(a, x)?)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// Evaluated directly by continued fraction in the upper region so tail
/// probabilities keep full relative accuracy (no catastrophic `1 − P`).
pub fn reg_inc_gamma_q(a: f64, x: f64) -> Result<f64, StatsError> {
    if a <= 0.0 {
        return Err(StatsError::DomainError {
            what: "reg_inc_gamma_q (shape a)",
            value: a,
        });
    }
    if x < 0.0 {
        return Err(StatsError::DomainError {
            what: "reg_inc_gamma_q (x)",
            value: x,
        });
    }
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_series(a, x)?)
    } else {
        gamma_cf(a, x)
    }
}

/// Series expansion of P(a, x), valid and fast for x < a + 1.
fn gamma_series(a: f64, x: f64) -> Result<f64, StatsError> {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..ITMAX {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            let ln_pre = -x + a * x.ln() - ln_gamma(a);
            return Ok((sum * ln_pre.exp()).clamp(0.0, 1.0));
        }
    }
    Err(StatsError::NoConvergence {
        what: "incomplete gamma series",
        value: x,
    })
}

/// Lentz continued fraction for Q(a, x), valid and fast for x ≥ a + 1.
fn gamma_cf(a: f64, x: f64) -> Result<f64, StatsError> {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=ITMAX {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            let ln_pre = -x + a * x.ln() - ln_gamma(a);
            return Ok((h * ln_pre.exp()).clamp(0.0, 1.0));
        }
    }
    Err(StatsError::NoConvergence {
        what: "incomplete gamma continued fraction",
        value: x,
    })
}

/// The error function, via `erf(x) = P(1/2, x²)` for `x ≥ 0` and odd
/// symmetry.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    reg_inc_gamma_p(0.5, x * x).expect("P(1/2, x^2) is always in domain")
}

/// The complementary error function with full relative accuracy in the
/// tail (evaluated as `Q(1/2, x²)`, not `1 − erf`).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    reg_inc_gamma_q(0.5, x * x).expect("Q(1/2, x^2) is always in domain")
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// This is the CDF of the Beta(a, b) distribution and the workhorse behind
/// the Student-t and F distributions. Uses the standard symmetry split and
/// Lentz's continued fraction.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> Result<f64, StatsError> {
    if a <= 0.0 {
        return Err(StatsError::DomainError {
            what: "reg_inc_beta (a)",
            value: a,
        });
    }
    if b <= 0.0 {
        return Err(StatsError::DomainError {
            what: "reg_inc_beta (b)",
            value: b,
        });
    }
    reg_inc_beta_normalised(a, b, x, ln_beta_normaliser(a, b))
}

/// `−ln B(a, b)`: the part of [`reg_inc_beta`] that does not depend on `x`.
pub(crate) fn ln_beta_normaliser(a: f64, b: f64) -> f64 {
    ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
}

/// [`reg_inc_beta`] for positive `a`, `b` given `ln_norm =
/// ln_beta_normaliser(a, b)`, so a caller with fixed shapes (a t
/// distribution evaluated once per variant) pays the three `ln_gamma`
/// calls once. The sum continues left to right from `ln_norm`, which keeps
/// the result the same bits as the one-shot evaluation.
pub(crate) fn reg_inc_beta_normalised(
    a: f64,
    b: f64,
    x: f64,
    ln_norm: f64,
) -> Result<f64, StatsError> {
    let mut x = [x];
    reg_inc_beta_normalised_in_place(a, b, ln_norm, &mut x)?;
    Ok(x[0])
}

/// Continued fractions evaluated in lock step (DESIGN §5.3 has the sweep).
const LANES: usize = 4;

/// [`reg_inc_beta_normalised`] over a slice: every `x[i]` is replaced by
/// `I_{x[i]}(a, b)`, the bits the scalar call gives. On an error the slice
/// holds an unspecified mix of arguments and results.
///
/// A continued fraction is one chain of dependent divisions, so it is run
/// `LANES` arguments at a time. The two sides of the symmetry split differ
/// in iteration count by a factor of about five; each side therefore
/// collects its own group and runs it when full, and what is left at the
/// end runs as groups of one through the same body.
pub(crate) fn reg_inc_beta_normalised_in_place(
    a: f64,
    b: f64,
    ln_norm: f64,
    x: &mut [f64],
) -> Result<(), StatsError> {
    // The continued fraction converges rapidly for x < (a+1)/(a+b+2).
    let split = (a + 1.0) / (a + b + 2.0);
    let mut pending = [[0usize; LANES]; 2];
    let mut filled = [0usize; 2];
    for i in 0..x.len() {
        let xi = x[i];
        if !(0.0..=1.0).contains(&xi) {
            return Err(StatsError::DomainError {
                what: "reg_inc_beta (x)",
                value: xi,
            });
        }
        if xi == 0.0 || xi == 1.0 {
            continue; // I_0 = 0 and I_1 = 1: the argument is the answer.
        }
        let side = usize::from(xi >= split);
        pending[side][filled[side]] = i;
        filled[side] += 1;
        if filled[side] == LANES {
            inc_beta_group(a, b, ln_norm, side == 1, pending[side], x)?;
            filled[side] = 0;
        }
    }
    for side in 0..2 {
        for &i in &pending[side][..filled[side]] {
            inc_beta_group(a, b, ln_norm, side == 1, [i], x)?;
        }
    }
    Ok(())
}

/// Replaces `x[at[l]]` by `I_x(a, b)` for `L` arguments strictly inside
/// (0, 1) that all lie on one side of the symmetry split: `swapped` says
/// they are evaluated as `1 − I_{1−x}(b, a)`.
fn inc_beta_group<const L: usize>(
    a: f64,
    b: f64,
    ln_norm: f64,
    swapped: bool,
    at: [usize; L],
    x: &mut [f64],
) -> Result<(), StatsError> {
    let xs = at.map(|i| x[i]);
    let h = if swapped {
        beta_cf(b, a, xs.map(|x| 1.0 - x), ITMAX)?
    } else {
        beta_cf(a, b, xs, ITMAX)?
    };
    for l in 0..L {
        let ln_front = ln_norm + a * xs[l].ln() + b * (1.0 - xs[l]).ln();
        let front = ln_front.exp();
        x[at[l]] = if swapped {
            (1.0 - front * h[l] / b).clamp(0.0, 1.0)
        } else {
            (front * h[l] / a).clamp(0.0, 1.0)
        };
    }
    Ok(())
}

/// Lentz continued fraction for the incomplete beta function, for `L`
/// arguments with shared shapes in lock step.
///
/// Each lane runs exactly the scalar recurrence and its `h` is taken at the
/// step its own `del` first comes within `EPS` of one; lanes past that step
/// keep iterating until the last lane is done and are ignored. A lane still
/// live after `max_steps` steps (`ITMAX`, except in the test that measures
/// the headroom) fails the group.
fn beta_cf<const L: usize>(
    a: f64,
    b: f64,
    x: [f64; L],
    max_steps: usize,
) -> Result<[f64; L], StatsError> {
    // Lentz's guard against a vanishing denominator, one test for all
    // lanes: it almost never fires, and a predicted branch, unlike a
    // per-lane select, adds nothing to the chain of divisions.
    let guard = |v: [f64; L]| {
        if v.iter().any(|v| v.abs() < FPMIN) {
            std::hint::cold_path();
            v.map(|v| if v.abs() < FPMIN { FPMIN } else { v })
        } else {
            v
        }
    };
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = [1.0; L];
    let mut d = guard(x.map(|x| 1.0 - qab * x / qap)).map(|d| 1.0 / d);
    let mut h = d;
    let mut out = [0.0; L];
    let mut live = [true; L];
    for m in 1..=max_steps {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = x.map(|x| m * (b - m) * x / ((qam + m2) * (a + m2)));
        d = guard(from_fn(|l| 1.0 + aa[l] * d[l])).map(|d| 1.0 / d);
        c = guard(from_fn(|l| 1.0 + aa[l] / c[l]));
        h = from_fn(|l| h[l] * (d[l] * c[l]));
        // Odd step.
        let aa = x.map(|x| -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)));
        d = guard(from_fn(|l| 1.0 + aa[l] * d[l])).map(|d| 1.0 / d);
        c = guard(from_fn(|l| 1.0 + aa[l] / c[l]));
        let del: [f64; L] = from_fn(|l| d[l] * c[l]);
        h = from_fn(|l| h[l] * del[l]);
        for l in 0..L {
            if live[l] && (del[l] - 1.0).abs() < EPS {
                out[l] = h[l];
                live[l] = false;
            }
        }
        if live == [false; L] {
            return Ok(out);
        }
    }
    let stuck = live
        .iter()
        .position(|&live| live)
        .expect("the loop returns once no lane is live");
    Err(StatsError::NoConvergence {
        what: "incomplete beta continued fraction",
        value: x[stuck],
    })
}

/// The scalar evaluation this module had before [`beta_cf`] ran lanes in
/// lock step, kept word for word: every slice and lane path must give
/// these bits or this error.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{StatsError, EPS, FPMIN, ITMAX};

    pub(crate) fn reg_inc_beta_normalised(
        a: f64,
        b: f64,
        x: f64,
        ln_norm: f64,
    ) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&x) {
            return Err(StatsError::DomainError {
                what: "reg_inc_beta (x)",
                value: x,
            });
        }
        if x == 0.0 {
            return Ok(0.0);
        }
        if x == 1.0 {
            return Ok(1.0);
        }
        let ln_front = ln_norm + a * x.ln() + b * (1.0 - x).ln();
        let front = ln_front.exp();
        // The continued fraction converges rapidly for x < (a+1)/(a+b+2).
        if x < (a + 1.0) / (a + b + 2.0) {
            Ok((front * beta_cf(a, b, x)? / a).clamp(0.0, 1.0))
        } else {
            Ok((1.0 - front * beta_cf(b, a, 1.0 - x)? / b).clamp(0.0, 1.0))
        }
    }

    /// Lentz continued fraction for the incomplete beta function.
    fn beta_cf(a: f64, b: f64, x: f64) -> Result<f64, StatsError> {
        let qab = a + b;
        let qap = a + 1.0;
        let qam = a - 1.0;
        let mut c = 1.0;
        let mut d = 1.0 - qab * x / qap;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        d = 1.0 / d;
        let mut h = d;
        for m in 1..=ITMAX {
            let m = m as f64;
            let m2 = 2.0 * m;
            // Even step.
            let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            h *= d * c;
            // Odd step.
            let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < EPS {
                return Ok(h);
            }
        }
        Err(StatsError::NoConvergence {
            what: "incomplete beta continued fraction",
            value: x,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_close(a: f64, b: f64, rtol: f64) -> bool {
        (a - b).abs() <= rtol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(
                rel_close(ln_gamma(n as f64), fact.ln(), 1e-13),
                "n={n}: {} vs {}",
                ln_gamma(n as f64),
                fact.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        assert!(rel_close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-14
        ));
        // Γ(3/2) = √π / 2.
        assert!(rel_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-13
        ));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln Γ(x) + ln x across scales, including the
        // reflection region x < 0.5.
        for &x in &[0.1, 0.3, 0.7, 1.3, 2.7, 10.2, 123.4, 5000.5] {
            assert!(
                rel_close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-12),
                "x={x}"
            );
        }
    }

    #[test]
    fn erf_reference_values() {
        assert!(rel_close(erf(1.0), 0.842_700_792_949_714_9, 1e-12));
        assert!(rel_close(erf(0.5), 0.520_499_877_813_046_5, 1e-12));
        assert_eq!(erf(0.0), 0.0);
        assert!(rel_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12));
    }

    #[test]
    fn erfc_tail_accuracy() {
        // Deep-tail values where 1 - erf(x) would lose all precision.
        assert!(rel_close(erfc(2.0), 4.677_734_981_063_127e-3, 1e-11));
        assert!(rel_close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-11));
        assert!(rel_close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-10));
        // Symmetry erfc(-x) = 2 - erfc(x).
        assert!(rel_close(erfc(-1.0), 2.0 - erfc(1.0), 1e-15));
    }

    #[test]
    fn erf_erfc_complementarity_midrange() {
        for &x in &[0.0, 0.2, 0.7, 1.1, 1.9] {
            assert!(rel_close(erf(x) + erfc(x), 1.0, 1e-13), "x={x}");
        }
    }

    #[test]
    fn inc_gamma_exponential_special_case() {
        // P(1, x) = 1 - exp(-x) exactly.
        for &x in &[0.1, 0.5, 1.0, 2.5, 10.0] {
            let p = reg_inc_gamma_p(1.0, x).unwrap();
            assert!(rel_close(p, 1.0 - (-x).exp(), 1e-13), "x={x}");
        }
    }

    #[test]
    fn inc_gamma_p_q_sum_to_one() {
        for &a in &[0.5, 1.0, 3.7, 20.0] {
            for &x in &[0.01, 0.5, a, a + 5.0, 4.0 * a] {
                let p = reg_inc_gamma_p(a, x).unwrap();
                let q = reg_inc_gamma_q(a, x).unwrap();
                assert!(rel_close(p + q, 1.0, 1e-12), "a={a} x={x}");
            }
        }
    }

    #[test]
    fn inc_gamma_boundaries() {
        assert_eq!(reg_inc_gamma_p(2.0, 0.0).unwrap(), 0.0);
        assert_eq!(reg_inc_gamma_q(2.0, 0.0).unwrap(), 1.0);
        assert!(reg_inc_gamma_p(0.0, 1.0).is_err());
        assert!(reg_inc_gamma_p(1.0, -1.0).is_err());
        assert!(reg_inc_gamma_q(-1.0, 1.0).is_err());
    }

    #[test]
    fn inc_beta_closed_forms() {
        // I_x(1, 1) = x (uniform CDF).
        for &x in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            assert!(rel_close(reg_inc_beta(1.0, 1.0, x).unwrap(), x, 1e-13));
        }
        // I_x(2, 2) = x²(3 − 2x).
        for &x in &[0.1, 0.5, 0.8] {
            assert!(rel_close(
                reg_inc_beta(2.0, 2.0, x).unwrap(),
                x * x * (3.0 - 2.0 * x),
                1e-12
            ));
        }
        // I_0.5(2, 3) = 11/16.
        assert!(rel_close(
            reg_inc_beta(2.0, 3.0, 0.5).unwrap(),
            0.6875,
            1e-12
        ));
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a, b) = 1 − I_{1−x}(b, a).
        for &(a, b) in &[(0.5, 0.5), (2.0, 5.0), (7.3, 1.2)] {
            for &x in &[0.05, 0.3, 0.77] {
                let lhs = reg_inc_beta(a, b, x).unwrap();
                let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
                assert!(rel_close(lhs, rhs, 1e-11), "a={a} b={b} x={x}");
            }
        }
    }

    #[test]
    fn inc_beta_domain_checked() {
        assert!(reg_inc_beta(0.0, 1.0, 0.5).is_err());
        assert!(reg_inc_beta(1.0, -2.0, 0.5).is_err());
        assert!(reg_inc_beta(1.0, 1.0, 1.5).is_err());
        assert!(reg_inc_beta(1.0, 1.0, -0.1).is_err());
    }

    #[test]
    fn inc_beta_monotone_in_x() {
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let v = reg_inc_beta(3.0, 2.0, x).unwrap();
            assert!(v >= prev - 1e-15, "not monotone at x={x}");
            prev = v;
        }
        assert!(rel_close(prev, 1.0, 1e-13));
    }

    /// Shapes the F and t distributions ask for, and a few they do not.
    const SHAPES: [(f64, f64); 9] = [
        (0.5, 0.5),
        (1.0, 1.0),
        (46.0, 0.5),
        (0.5, 46.0),
        (1.5, 20.0),
        (3.7, 1.2),
        (2.0, 2248.0),
        (2248.0, 0.5),
        (5e6, 0.5),
    ];

    /// `x` on both sides of the symmetry split and one ulp either side of
    /// it, the two ends, and both deep tails.
    fn arguments(a: f64, b: f64) -> Vec<f64> {
        let split = (a + 1.0) / (a + b + 2.0);
        let mut xs: Vec<f64> = (0..=200).map(|i| i as f64 / 200.0).collect();
        xs.extend([
            split,
            f64::from_bits(split.to_bits() - 1),
            f64::from_bits(split.to_bits() + 1),
            f64::MIN_POSITIVE,
            5e-324,
            1e-300,
            1e-17,
            1.0 - f64::EPSILON / 2.0,
        ]);
        xs
    }

    /// The value's bits or the error, comparable where a NaN is carried.
    fn same_outcome(got: Result<f64, StatsError>, want: Result<f64, StatsError>, ctx: &str) {
        let show = |r: Result<f64, StatsError>| format!("{:x?}", r.map(f64::to_bits));
        assert_eq!(show(got), show(want), "{ctx}");
    }

    #[test]
    fn a_group_of_one_keeps_the_scalar_bits() {
        // `reg_inc_beta` (what F and χ² callers use) is now a slice of one
        // run by the lane body with L = 1.
        for (a, b) in SHAPES {
            let ln_norm = ln_beta_normaliser(a, b);
            for x in arguments(a, b).into_iter().chain([-0.1, 1.5, f64::NAN]) {
                same_outcome(
                    reg_inc_beta(a, b, x),
                    oracle::reg_inc_beta_normalised(a, b, x, ln_norm),
                    &format!("a={a} b={b} x={x:e}"),
                );
            }
        }
    }

    /// Every element of `xs` through the slice path equals the oracle.
    fn check_slice(a: f64, b: f64, xs: &[f64]) {
        let ln_norm = ln_beta_normaliser(a, b);
        let mut got = xs.to_vec();
        reg_inc_beta_normalised_in_place(a, b, ln_norm, &mut got).unwrap();
        for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
            same_outcome(
                Ok(g),
                oracle::reg_inc_beta_normalised(a, b, x, ln_norm),
                &format!("a={a} b={b} len={} i={i} x={x:e}", xs.len()),
            );
        }
    }

    #[test]
    fn a_slice_equals_the_scalar_whatever_its_length_and_order() {
        for (a, b) in SHAPES {
            let all = arguments(a, b);
            check_slice(a, b, &all);
            let split = (a + 1.0) / (a + b + 2.0);
            let inside = |x: &&f64| **x > 0.0 && **x < 1.0;
            // Few steps (far below the split), many (just below it), and
            // the other side of the split.
            let quick: Vec<f64> = all
                .iter()
                .filter(inside)
                .filter(|x| **x < 0.1 * split)
                .copied()
                .collect();
            let slow: Vec<f64> = all
                .iter()
                .filter(inside)
                .filter(|x| **x > 0.8 * split && **x < split)
                .copied()
                .collect();
            let other: Vec<f64> = all
                .iter()
                .filter(inside)
                .filter(|x| **x >= split)
                .copied()
                .collect();
            for len in (0..=2 * LANES + 1).chain([1023, 1024, 1025]) {
                let cycle =
                    |v: &[f64]| -> Vec<f64> { v.iter().cycle().take(len).copied().collect() };
                check_slice(a, b, &cycle(&quick));
                check_slice(a, b, &cycle(&slow));
                check_slice(a, b, &cycle(&other));
                // One slow lane in each position of a group of quick ones: a
                // lane that converges first must keep its own h.
                for at in 0..LANES {
                    let mixed: Vec<f64> = (0..len)
                        .map(|i| {
                            if i % LANES == at {
                                slow[i % slow.len()]
                            } else {
                                quick[i % quick.len()]
                            }
                        })
                        .collect();
                    check_slice(a, b, &mixed);
                }
            }
        }
    }

    #[test]
    fn a_slice_with_a_bad_argument_is_that_domain_error() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            for at in 0..6 {
                let mut xs = [0.3, 0.9, 0.2, 0.99, 0.5, 0.1];
                xs[at] = bad;
                let err = reg_inc_beta_normalised_in_place(2.0, 3.0, 0.0, &mut xs).unwrap_err();
                match err {
                    StatsError::DomainError { what, value } => {
                        assert_eq!(what, "reg_inc_beta (x)");
                        assert_eq!(value.to_bits(), bad.to_bits());
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn continued_fraction_headroom_for_every_df_a_scan_can_hold() {
        // The t tail is I_x(df/2, ½) at x = df/(df+t²). Over df up to 1e10
        // (a column of that many samples is 80 GB) and t from 1e-3 to 60 in
        // steps of 1 %, no fraction needs 128 of the `ITMAX` = 500 steps.
        // The slow ones sit at the symmetry split, |t| ≈ 1.7–2.3; a search
        // of 2·10⁶ values of t there finds at most 100 steps for these df.
        // Above df ≈ 3·10¹⁰ the stopping rule is inside rounding noise and
        // some t do exhaust `ITMAX` (`StudentT`'s tests hold one): 20 and
        // 11 of 60,000 steps across |t| in [1.7, 2.3] at 3e11 and 1e12.
        // There a slice of p-values still gets an answer.
        let dfs = [
            1.0, 2.5, 92.0, 4496.0, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 3e11, 1e12,
        ];
        for df in dfs {
            let (a, b) = (df / 2.0, 0.5);
            let split = (a + 1.0) / (a + b + 2.0);
            let mut ts: Vec<f64> = std::iter::successors(Some(1e-3), |t| Some(t * 1.01))
                .take_while(|&t| t <= 60.0)
                .collect();
            if df > 1e10 {
                ts.extend((0..60_000).map(|i| 1.7 + 1e-5 * f64::from(i)));
            }
            for &t in ts.iter().filter(|_| df <= 1e10) {
                let x = df / (df + t * t);
                if x > 0.0 && x < 1.0 {
                    let h = if x < split {
                        beta_cf(a, b, [x], 127)
                    } else {
                        beta_cf(b, a, [1.0 - x], 127)
                    };
                    assert!(h.is_ok(), "df={df} t={t}: {h:?}");
                }
            }
            let mut p = vec![0.0; ts.len()];
            let got = crate::tdist::StudentT::new(df)
                .unwrap()
                .two_sided_p_into(&ts, &mut p);
            assert_eq!(got, Ok(()), "df={df}");
            assert!(p.iter().all(|p| (0.0..=1.0).contains(p)), "df={df}");
        }
    }
}
