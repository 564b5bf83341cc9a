//! Student's t distribution.
//!
//! The paper's Lemma 2.1 yields, for each variant m, a statistic
//! `t = β̂/σ̂` that is t-distributed with `N − K − 1` degrees of freedom
//! under the null `β_m = 0`. This module turns those statistics into the
//! one- and two-sided p-values the R demo computes with `pt`.

use crate::error::StatsError;
use crate::normal::Normal;
use crate::special::{ln_beta_normaliser, ln_gamma, reg_inc_beta_normalised_in_place};

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
        let mut tail = [t_abs];
        // Of the three ways the evaluation can fail, x = ν/(ν+t²) in [0, 1]
        // rules out the domain error on x and `new` the one on the shapes.
        // The third, `NoConvergence`, takes 500 steps of the continued
        // fraction: for ν ≤ 1e10 none takes 128 (special.rs,
        // `continued_fraction_headroom_for_every_df_a_scan_can_hold`). It is
        // reachable above ν ≈ 3e10, where a scan gets it as an error from
        // `two_sided_p_into`.
        self.sf_abs_in_place(&mut tail)
            .expect("x is in [0,1], the shapes are positive, df is below ~3e10");
        tail[0]
    }

    /// Replaces every `|t|` of the slice by its [`sf_abs`](Self::sf_abs).
    fn sf_abs_in_place(&self, t_abs: &mut [f64]) -> Result<(), StatsError> {
        let v = self.df;
        for t in t_abs.iter_mut() {
            debug_assert!(*t >= 0.0);
            *t = v / (v + *t * *t);
        }
        reg_inc_beta_normalised_in_place(v / 2.0, 0.5, self.ln_tail_norm, t_abs)?;
        for tail in t_abs.iter_mut() {
            *tail *= 0.5;
        }
        Ok(())
    }

    /// Two-sided p-value `P(|T| ≥ |t|) = 2·pt(−|t|, df)` — exactly what the
    /// paper's R demo computes.
    ///
    /// # Panics
    /// For `df` above about 3e10 and some `|t|` near 1.7–2.3, where the
    /// continued fraction does not converge;
    /// [`two_sided_p_into`](Self::two_sided_p_into) returns that as an error.
    pub fn two_sided_p(&self, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        (2.0 * self.sf_abs(t.abs())).min(1.0)
    }

    /// [`two_sided_p`](Self::two_sided_p) of every `t[i]` into `out[i]`:
    /// the same bits, with the tails of the slice evaluated several at a
    /// time (see `reg_inc_beta_normalised_in_place`).
    ///
    /// The only error is [`StatsError::NoConvergence`], and only for `df`
    /// above about 3e10; `out` is then unspecified.
    ///
    /// # Panics
    /// When the slices differ in length.
    pub fn two_sided_p_into(&self, t: &[f64], out: &mut [f64]) -> Result<(), StatsError> {
        assert_eq!(t.len(), out.len(), "one p-value per statistic");
        for (p, &t) in out.iter_mut().zip(t) {
            // A NaN statistic rides along as t = 0, the cheapest tail.
            *p = if t.is_nan() { 0.0 } else { t.abs() };
        }
        self.sf_abs_in_place(out)?;
        for (p, &t) in out.iter_mut().zip(t) {
            *p = if t.is_nan() {
                f64::NAN
            } else {
                (2.0 * *p).min(1.0)
            };
        }
        Ok(())
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
    use crate::special::{oracle, reg_inc_beta};
    use proptest::prelude::*;

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

    /// `two_sided_p` through the scalar evaluation `special.rs` keeps as
    /// its oracle.
    fn oracle_p(df: f64, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        let x = df / (df + t.abs() * t.abs());
        let tail =
            oracle::reg_inc_beta_normalised(df / 2.0, 0.5, x, ln_beta_normaliser(df / 2.0, 0.5));
        (2.0 * (0.5 * tail.unwrap())).min(1.0)
    }

    fn assert_slice_equals_oracle(df: f64, t: &[f64]) {
        let dist = StudentT::new(df).unwrap();
        let mut p = vec![-1.0; t.len()];
        dist.two_sided_p_into(t, &mut p).unwrap();
        for (i, (&t, &p)) in t.iter().zip(&p).enumerate() {
            let want = oracle_p(df, t);
            assert_eq!(
                p.to_bits(),
                want.to_bits(),
                "df={df} i={i} t={t:e}: {p:e} vs {want:e}"
            );
            assert_eq!(
                dist.two_sided_p(t).to_bits(),
                want.to_bits(),
                "df={df} t={t:e}"
            );
        }
    }

    const DFS: [f64; 6] = [1.0, 2.5, 92.0, 93.0, 4496.0, 1e7];

    /// Statistics no scan should meet and every scan eventually does, plus
    /// the |t| at which `x = ν/(ν+t²)` crosses the symmetry split, a few
    /// ulps either side.
    fn awkward(df: f64) -> Vec<f64> {
        let split = (df / 2.0 + 1.0) / (df / 2.0 + 2.5);
        let at_split = (df * (1.0 - split) / split).sqrt();
        let mut t = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e200,
            -1e200,
            1e-200,
            -1e-200,
            5e-324,
            -2.2e-308,
            1e-9,
            30.0,
            -30.0,
            1.5e154,
        ];
        for k in -4i64..=4 {
            let near = f64::from_bits((at_split.to_bits() as i64 + k) as u64);
            t.extend([near, -near]);
        }
        t
    }

    #[test]
    fn a_slice_of_p_values_equals_the_scalar_oracle_bit_for_bit() {
        for df in DFS {
            let mut t = awkward(df);
            t.extend((0..400).map(|i| (i as f64 - 200.0) * 0.0473));
            assert_slice_equals_oracle(df, &t);
            // Every length around a lane group, NaN first and last.
            for len in 0..=9 {
                assert_slice_equals_oracle(df, &t[..len]);
                assert_slice_equals_oracle(df, &t[t.len() - len..]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64, "DASH_PVALUE_CASES"))]

        /// Any mix of central, tail and awkward statistics in any order and
        /// length: the slice gives the oracle's bits.
        #[test]
        fn any_slice_of_p_values_equals_the_scalar_oracle(
            df in prop_oneof![Just(1.0), Just(2.5), Just(92.0), Just(93.0), Just(4496.0), Just(1e7)],
            picks in proptest::collection::vec((0u8..10, -1.0f64..1.0, 0usize..64), 0..200),
        ) {
            let awkward = awkward(df);
            let t: Vec<f64> = picks
                .into_iter()
                .map(|(kind, u, i)| match kind {
                    0 => awkward[i % awkward.len()],
                    1..=2 => 1.7 + 40.0 * u,   // tails, either sign
                    3 => 2.0 * u,              // around the split
                    _ => 4.0 * u * u * u,      // the bulk of a null scan
                })
                .collect();
            assert_slice_equals_oracle(df, &t);
        }
    }

    #[test]
    fn a_fraction_that_does_not_converge_is_an_error_from_the_slice() {
        // Above df ≈ 3e10 the stopping rule of the continued fraction sits
        // inside rounding noise and some |t| never meet it. The oracle
        // agrees: this is the evaluation's envelope, not the lanes'.
        let df = 316_227_766_017.0;
        let t = 1.73406705;
        let x = df / (df + t * t);
        let ln_norm = ln_beta_normaliser(df / 2.0, 0.5);
        let want = oracle::reg_inc_beta_normalised(df / 2.0, 0.5, x, ln_norm).unwrap_err();
        assert!(matches!(want, StatsError::NoConvergence { .. }), "{want:?}");
        let dist = StudentT::new(df).unwrap();
        for at in 0..5 {
            let mut ts = [0.3, -2.5, 1.1, 7.0, 0.0];
            ts[at] = t;
            let got = dist.two_sided_p_into(&ts, &mut [0.0; 5]).unwrap_err();
            assert_eq!(got, want);
        }
    }
}
