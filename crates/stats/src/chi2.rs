//! The chi-squared distribution.
//!
//! Used by the meta-analysis baseline: Cochran's heterogeneity statistic Q
//! is χ²(P−1)-distributed under effect homogeneity across the P parties.

use crate::error::StatsError;
use crate::special::{reg_inc_gamma_p, reg_inc_gamma_q};

/// A chi-squared distribution with `k` degrees of freedom (any positive
/// real).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates the distribution; `k` must be positive and finite.
    pub fn new(k: f64) -> Result<Self, StatsError> {
        if !(k > 0.0 && k.is_finite()) {
            return Err(StatsError::InvalidParameter {
                what: "chi-squared degrees of freedom",
                value: k,
            });
        }
        Ok(ChiSquared { k })
    }

    /// Cumulative distribution function `P(X ≤ x)`; zero for `x ≤ 0`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        reg_inc_gamma_p(self.k / 2.0, x / 2.0).expect("positive shape and x")
    }

    /// Survival function `P(X > x)` with full tail accuracy.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        reg_inc_gamma_q(self.k / 2.0, x / 2.0).expect("positive shape and x")
    }

    /// Quantile by bisection on the monotone CDF.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::DomainError {
                what: "chi-squared quantile (p)",
                value: p,
            });
        }
        let mut lo = 0.0;
        let mut hi = self.k.max(1.0);
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::Normal;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_validates() {
        assert!(ChiSquared::new(0.0).is_err());
        assert!(ChiSquared::new(-2.0).is_err());
        assert!(ChiSquared::new(2.5).is_ok());
    }

    #[test]
    fn df2_is_exponential() {
        // χ²(2) has CDF 1 − e^{−x/2} exactly.
        let c = ChiSquared::new(2.0).unwrap();
        for &x in &[0.1, 1.0, 2.0, 7.5] {
            assert!(close(c.cdf(x), 1.0 - (-x / 2.0).exp(), 1e-13), "x={x}");
        }
    }

    #[test]
    fn df4_closed_form() {
        // χ²(4): CDF = 1 − e^{−x/2}(1 + x/2).
        let c = ChiSquared::new(4.0).unwrap();
        for &x in &[0.5f64, 2.0, 9.0] {
            let exact = 1.0 - (-x / 2.0).exp() * (1.0 + x / 2.0);
            assert!(close(c.cdf(x), exact, 1e-13), "x={x}");
        }
    }

    #[test]
    fn df1_matches_squared_normal() {
        // χ²(1) CDF(x) = 2Φ(√x) − 1.
        let c = ChiSquared::new(1.0).unwrap();
        let n = Normal::standard();
        for &x in &[0.2f64, 1.0, 3.84, 10.0] {
            let exact = 2.0 * n.cdf(x.sqrt()) - 1.0;
            assert!(close(c.cdf(x), exact, 1e-12), "x={x}");
        }
    }

    #[test]
    fn known_critical_value() {
        // χ²_{0.95, 1} = 1.96²-ish: 3.841458820694124.
        let c = ChiSquared::new(1.0).unwrap();
        assert!(close(c.quantile(0.95).unwrap(), 3.841458820694124, 1e-9));
    }

    #[test]
    fn cdf_sf_complement() {
        let c = ChiSquared::new(7.0).unwrap();
        for &x in &[0.5, 3.0, 12.0] {
            assert!(close(c.cdf(x) + c.sf(x), 1.0, 1e-12));
        }
    }

    #[test]
    fn sf_tail_accuracy() {
        // Large deviations keep relative accuracy.
        let c = ChiSquared::new(2.0).unwrap();
        assert!(close(c.sf(80.0), (-40.0f64).exp(), 1e-10));
    }

    #[test]
    fn negative_argument_boundaries() {
        let c = ChiSquared::new(3.0).unwrap();
        assert_eq!(c.cdf(-1.0), 0.0);
        assert_eq!(c.sf(-1.0), 1.0);
        assert_eq!(c.cdf(0.0), 0.0);
    }

    #[test]
    fn quantile_roundtrip() {
        let c = ChiSquared::new(5.0).unwrap();
        for &p in &[0.01, 0.3, 0.5, 0.95, 0.999] {
            let q = c.quantile(p).unwrap();
            assert!(close(c.cdf(q), p, 1e-9), "p={p}");
        }
        assert!(c.quantile(0.0).is_err());
        assert!(c.quantile(1.0).is_err());
    }
}
