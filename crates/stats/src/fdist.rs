//! The F distribution.
//!
//! Used by the multi-transient-covariate generalization (§5): testing a
//! block of q transient covariates jointly yields an F(q, N−K−q) statistic.

use crate::error::StatsError;
use crate::special::reg_inc_beta;

/// An F distribution with `d1` numerator and `d2` denominator degrees of
/// freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FDistribution {
    d1: f64,
    d2: f64,
}

impl FDistribution {
    /// Creates the distribution; both degrees of freedom must be positive
    /// and finite.
    pub fn new(d1: f64, d2: f64) -> Result<Self, StatsError> {
        if !(d1 > 0.0 && d1.is_finite()) {
            return Err(StatsError::InvalidParameter {
                what: "F numerator degrees of freedom",
                value: d1,
            });
        }
        if !(d2 > 0.0 && d2.is_finite()) {
            return Err(StatsError::InvalidParameter {
                what: "F denominator degrees of freedom",
                value: d2,
            });
        }
        Ok(FDistribution { d1, d2 })
    }

    /// Cumulative distribution function; zero for `x ≤ 0`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = self.d1 * x / (self.d1 * x + self.d2);
        reg_inc_beta(self.d1 / 2.0, self.d2 / 2.0, z).expect("z in [0,1] with positive shapes")
    }

    /// Survival function `P(F > x)`, evaluated via the complementary
    /// incomplete beta for tail accuracy.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        let z = self.d2 / (self.d1 * x + self.d2);
        reg_inc_beta(self.d2 / 2.0, self.d1 / 2.0, z).expect("z in [0,1] with positive shapes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdist::StudentT;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_validates() {
        assert!(FDistribution::new(0.0, 5.0).is_err());
        assert!(FDistribution::new(5.0, -1.0).is_err());
        assert!(FDistribution::new(2.0, 10.0).is_ok());
    }

    #[test]
    fn f_1_d2_is_t_squared() {
        // If T ~ t(d2) then T² ~ F(1, d2): P(F ≤ x) = P(|T| ≤ √x).
        let d2 = 9.0;
        let f = FDistribution::new(1.0, d2).unwrap();
        let t = StudentT::new(d2).unwrap();
        for &x in &[0.25f64, 1.0, 4.0, 9.0] {
            let via_t = 1.0 - t.two_sided_p(x.sqrt());
            assert!(close(f.cdf(x), via_t, 1e-11), "x={x}");
        }
    }

    #[test]
    fn cdf_sf_complement() {
        let f = FDistribution::new(3.0, 12.0).unwrap();
        for &x in &[0.2, 1.0, 2.5, 8.0] {
            assert!(close(f.cdf(x) + f.sf(x), 1.0, 1e-12));
        }
    }

    #[test]
    fn boundaries() {
        let f = FDistribution::new(2.0, 2.0).unwrap();
        assert_eq!(f.cdf(0.0), 0.0);
        assert_eq!(f.cdf(-1.0), 0.0);
        assert_eq!(f.sf(0.0), 1.0);
    }

    #[test]
    fn f_2_2_closed_form() {
        // F(2,2) has CDF x/(1+x).
        let f = FDistribution::new(2.0, 2.0).unwrap();
        for &x in &[0.1, 1.0, 5.0] {
            assert!(close(f.cdf(x), x / (1.0 + x), 1e-12), "x={x}");
        }
    }

    #[test]
    fn monotone() {
        let f = FDistribution::new(4.0, 7.0).unwrap();
        let mut prev = 0.0;
        for i in 1..50 {
            let v = f.cdf(i as f64 * 0.2);
            assert!(v >= prev);
            prev = v;
        }
    }
}
