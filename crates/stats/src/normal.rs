//! The normal distribution.

use crate::error::StatsError;
use crate::special::{erf, erfc};

/// A normal distribution with the given mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution; `sd` must be positive and finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self, StatsError> {
        if !(sd > 0.0 && sd.is_finite() && mean.is_finite()) {
            return Err(StatsError::InvalidParameter {
                what: "normal standard deviation",
                value: sd,
            });
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal N(0, 1).
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Survival function `P(X > x)`, accurate deep into the upper tail.
    pub fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    /// Quantile (inverse CDF).
    ///
    /// Acklam's rational approximation (~1.15e-9 relative) refined with one
    /// Halley step against the exact CDF, giving close to full f64
    /// precision. `p` must be strictly inside (0, 1).
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::DomainError {
                what: "normal quantile (p)",
                value: p,
            });
        }
        let z = acklam(p);
        // Halley refinement: full precision even in the far tails.
        let std = Normal::standard();
        let e = std.cdf(z) - p;
        let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * z * z).exp();
        let z = z - u / (1.0 + z * u / 2.0);
        Ok(self.mean + self.sd * z)
    }
}

/// Acklam's inverse-normal rational approximation.
#[allow(clippy::excessive_precision)] // coefficients kept as published
fn acklam(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_validates() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(2.0, 3.0).is_ok());
    }

    #[test]
    fn standard_cdf_reference() {
        let n = Normal::standard();
        assert!(close(n.cdf(0.0), 0.5, 1e-15));
        assert!(close(n.cdf(1.959963984540054), 0.975, 1e-12));
        assert!(close(n.cdf(-1.959963984540054), 0.025, 1e-12));
        assert!(close(n.cdf(1.0), 0.841344746068543, 1e-12));
    }

    #[test]
    fn sf_tail_accuracy() {
        let n = Normal::standard();
        // P(Z > 6) ≈ 9.865876450377018e-10; 1 - cdf would lose everything.
        assert!(close(n.sf(6.0), 9.865876450377018e-10, 1e-9));
        assert!(close(n.sf(0.0), 0.5, 1e-15));
    }

    #[test]
    fn pdf_peak_and_symmetry() {
        let n = Normal::standard();
        assert!(close(n.pdf(0.0), 0.3989422804014327, 1e-13));
        assert!(close(n.pdf(1.3), n.pdf(-1.3), 1e-15));
        let shifted = Normal::new(5.0, 2.0).unwrap();
        assert!(close(shifted.pdf(5.0), 0.3989422804014327 / 2.0, 1e-13));
    }

    #[test]
    fn quantile_roundtrip() {
        let n = Normal::standard();
        for &p in &[1e-12, 5e-8, 2.5e-8, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-10] {
            let z = n.quantile(p).unwrap();
            assert!(close(n.cdf(z), p, 1e-9), "p={p} z={z} cdf={}", n.cdf(z));
        }
    }

    #[test]
    fn quantile_known_values() {
        let n = Normal::standard();
        assert!(close(n.quantile(0.975).unwrap(), 1.959963984540054, 1e-10));
        assert!(n.quantile(0.5).unwrap().abs() < 1e-12);
    }

    #[test]
    fn quantile_domain() {
        let n = Normal::standard();
        assert!(n.quantile(0.0).is_err());
        assert!(n.quantile(1.0).is_err());
        assert!(n.quantile(-0.5).is_err());
    }

    #[test]
    fn location_scale() {
        let n = Normal::new(10.0, 3.0).unwrap();
        let s = Normal::standard();
        assert!(close(n.cdf(13.0), s.cdf(1.0), 1e-14));
        assert!(close(
            n.quantile(0.975).unwrap(),
            10.0 + 3.0 * 1.959963984540054,
            1e-10
        ));
    }
}
