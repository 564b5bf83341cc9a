//! Student's t distribution.
//!
//! The paper's Lemma 2.1 yields, for each variant m, a statistic
//! `t = β̂/σ̂` that is t-distributed with `N − K − 1` degrees of freedom
//! under the null `β_m = 0`. This module turns those statistics into the
//! one- and two-sided p-values the R demo computes with `pt`.

use crate::error::StatsError;
use crate::normal::Normal;
use crate::special::{ln_beta_normaliser, ln_gamma, reg_inc_beta_normalised};

/// Student's t distribution with `df` degrees of freedom (not necessarily
/// integral).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    df: f64,
    /// `−ln B(ν/2, ½)`: the tail's normaliser, fixed by `df`, so a scan
    /// pays its three `ln_gamma` calls once and not per variant.
    ln_tail_norm: f64,
}

impl StudentT {
    /// Creates the distribution; `df` must be positive and finite.
    pub fn new(df: f64) -> Result<Self, StatsError> {
        if !(df > 0.0 && df.is_finite()) {
            return Err(StatsError::InvalidParameter {
                what: "t degrees of freedom",
                value: df,
            });
        }
        Ok(StudentT {
            df,
            ln_tail_norm: ln_beta_normaliser(df / 2.0, 0.5),
        })
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Probability density at `t`.
    pub fn pdf(&self, t: f64) -> f64 {
        let v = self.df;
        let ln_c =
            ln_gamma((v + 1.0) / 2.0) - ln_gamma(v / 2.0) - 0.5 * (v * std::f64::consts::PI).ln();
        (ln_c - 0.5 * (v + 1.0) * (1.0 + t * t / v).ln()).exp()
    }

    /// Cumulative distribution function `P(T ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        let p_tail = self.sf_abs(t.abs());
        if t >= 0.0 {
            1.0 - p_tail
        } else {
            p_tail
        }
    }

    /// Survival function `P(T > t)`.
    pub fn sf(&self, t: f64) -> f64 {
        let p_tail = self.sf_abs(t.abs());
        if t >= 0.0 {
            p_tail
        } else {
            1.0 - p_tail
        }
    }

    /// One-sided tail `P(T > |t|)`, evaluated with full relative accuracy:
    /// `½ I_x(ν/2, ½)` with `x = ν/(ν + t²)`.
    fn sf_abs(&self, t_abs: f64) -> f64 {
        debug_assert!(t_abs >= 0.0);
        let v = self.df;
        let x = v / (v + t_abs * t_abs);
        0.5 * reg_inc_beta_normalised(v / 2.0, 0.5, x, self.ln_tail_norm)
            .expect("x = v/(v+t^2) is always in [0,1] and shapes are positive")
    }

    /// Two-sided p-value `P(|T| ≥ |t|) = 2·pt(−|t|, df)` — exactly what the
    /// paper's R demo computes.
    pub fn two_sided_p(&self, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        (2.0 * self.sf_abs(t.abs())).min(1.0)
    }

    /// Quantile (inverse CDF) by monotone bisection refined with Newton
    /// steps. `p` must be strictly inside (0, 1).
    ///
    /// Used for critical values in power analyses (e.g. `t_{1−α/2, df}`),
    /// not in the per-variant hot path.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::DomainError {
                what: "t quantile (p)",
                value: p,
            });
        }
        if (p - 0.5).abs() < 1e-300 {
            return Ok(0.0);
        }
        // Start from the normal quantile (exact as df → ∞), then bracket.
        let z0 = Normal::standard().quantile(p)?;
        let mut lo = z0 - 1.0;
        let mut hi = z0 + 1.0;
        // Heavy tails: widen geometrically until bracketed.
        for _ in 0..200 {
            if self.cdf(lo) <= p {
                break;
            }
            lo = lo * 2.0 - 1.0;
        }
        for _ in 0..200 {
            if self.cdf(hi) >= p {
                break;
            }
            hi = hi * 2.0 + 1.0;
        }
        let mut x = 0.5 * (lo + hi);
        for _ in 0..200 {
            let f = self.cdf(x) - p;
            if f > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            // Newton step when it stays inside the bracket, else bisect.
            let d = self.pdf(x);
            let newton = if d > 0.0 { x - f / d } else { f64::NAN };
            x = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo).abs() < 1e-14 * (1.0 + x.abs()) {
                break;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::reg_inc_beta;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_validates() {
        assert!(StudentT::new(0.0).is_err());
        assert!(StudentT::new(-3.0).is_err());
        assert!(StudentT::new(f64::INFINITY).is_err());
        assert!(StudentT::new(4496.0).is_ok());
    }

    #[test]
    fn df_one_is_cauchy() {
        // Closed form: F(t) = 1/2 + atan(t)/π.
        let t1 = StudentT::new(1.0).unwrap();
        for &t in &[-5.0f64, -1.0, 0.0, 0.3, 2.0, 40.0] {
            let exact = 0.5 + t.atan() / std::f64::consts::PI;
            assert!(close(t1.cdf(t), exact, 1e-12), "t={t}");
        }
    }

    #[test]
    fn df_two_closed_form() {
        // Closed form: F(t) = 1/2 + t / (2 √(2 + t²)).
        let t2 = StudentT::new(2.0).unwrap();
        for &t in &[-3.0f64, -0.5, 0.0, 1.0, 10.0] {
            let exact = 0.5 + t / (2.0 * (2.0 + t * t).sqrt());
            assert!(close(t2.cdf(t), exact, 1e-12), "t={t}");
        }
    }

    #[test]
    fn large_df_approaches_normal() {
        let t = StudentT::new(1e7).unwrap();
        let n = Normal::standard();
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.0] {
            assert!((t.cdf(x) - n.cdf(x)).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn known_quantile_df10() {
        // t_{0.95,10} and t_{0.975,10} (R: qt(0.95,10), qt(0.975,10)).
        let t = StudentT::new(10.0).unwrap();
        assert!(close(t.quantile(0.95).unwrap(), 1.8124611228107335, 1e-8));
        assert!(close(t.quantile(0.975).unwrap(), 2.2281388519649385, 1e-8));
    }

    #[test]
    fn symmetry() {
        let t = StudentT::new(7.0).unwrap();
        for &x in &[0.1, 1.0, 2.5] {
            assert!(close(t.cdf(-x), 1.0 - t.cdf(x), 1e-13));
            assert!(close(t.pdf(-x), t.pdf(x), 1e-13));
        }
    }

    #[test]
    fn two_sided_p_matches_r_demo_formula() {
        // 2 * pt(-|t|, df) — compare against cdf-based evaluation.
        let t = StudentT::new(4496.0).unwrap();
        for &x in &[0.0, 0.5, 2.0, 5.0] {
            let direct = t.two_sided_p(x);
            let via_cdf = 2.0 * t.cdf(-x.abs());
            assert!(close(direct, via_cdf, 1e-10), "x={x}");
        }
        assert!(close(t.two_sided_p(0.0), 1.0, 1e-14));
    }

    #[test]
    fn cached_normaliser_gives_the_one_shot_bits() {
        // The normaliser computed in `new` must leave every p-value the
        // bits `reg_inc_beta` gives when it recomputes it per call.
        for &df in &[1.0, 2.5, 93.0, 4496.0, 1e7] {
            let t = StudentT::new(df).unwrap();
            for i in 0..400 {
                let x = (i as f64 - 200.0) * 0.173;
                let one_shot = (2.0
                    * (0.5 * reg_inc_beta(df / 2.0, 0.5, df / (df + x * x)).unwrap()))
                .min(1.0);
                assert_eq!(
                    t.two_sided_p(x).to_bits(),
                    one_shot.to_bits(),
                    "df={df} t={x}"
                );
            }
        }
    }

    #[test]
    fn deep_tail_has_relative_accuracy() {
        // For large df the t tail approaches the normal tail; at t=6 the
        // p-value is ~1e-9 and must not collapse to 0 or 1-eps artifacts.
        let t = StudentT::new(100000.0).unwrap();
        let p = t.two_sided_p(6.0);
        assert!(p > 1e-10 && p < 1e-8, "p={p}");
    }

    #[test]
    fn quantile_cdf_roundtrip() {
        let t = StudentT::new(5.0).unwrap();
        for &p in &[1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6] {
            let q = t.quantile(p).unwrap();
            assert!(close(t.cdf(q), p, 1e-9), "p={p} q={q}");
        }
    }

    #[test]
    fn quantile_domain() {
        let t = StudentT::new(3.0).unwrap();
        assert!(t.quantile(0.0).is_err());
        assert!(t.quantile(1.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_cdf_increment() {
        // Crude trapezoid check that pdf is consistent with cdf.
        let t = StudentT::new(8.0).unwrap();
        let (a, b) = (0.3, 0.9);
        let steps = 2000;
        let h = (b - a) / steps as f64;
        let mut integral = 0.5 * (t.pdf(a) + t.pdf(b));
        for i in 1..steps {
            integral += t.pdf(a + i as f64 * h);
        }
        integral *= h;
        assert!(close(integral, t.cdf(b) - t.cdf(a), 1e-6));
    }

    #[test]
    fn nan_statistic_propagates() {
        let t = StudentT::new(10.0).unwrap();
        assert!(t.two_sided_p(f64::NAN).is_nan());
    }
}
