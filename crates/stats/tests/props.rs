//! Property-based tests for the statistics substrate.

use dash_stats::{
    erf, erfc, fixed_effect_meta, ln_gamma, reg_inc_beta, reg_inc_gamma_p, reg_inc_gamma_q,
    ChiSquared, FDistribution, Normal, StudentT,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ln_gamma_recurrence_holds(x in 0.05f64..500.0) {
        // ln Γ(x+1) = ln Γ(x) + ln x.
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()), "x={x}");
    }

    #[test]
    fn erf_is_odd_and_bounded(x in -6.0f64..6.0) {
        let v = erf(x);
        prop_assert!((-1.0..=1.0).contains(&v));
        prop_assert!((erf(-x) + v).abs() < 1e-14);
        prop_assert!((v + erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erf_monotone(a in -5.0f64..5.0, d in 0.001f64..2.0) {
        prop_assert!(erf(a + d) >= erf(a));
    }

    #[test]
    fn inc_gamma_complementarity(a in 0.05f64..50.0, x in 0.0f64..200.0) {
        let p = reg_inc_gamma_p(a, x).unwrap();
        let q = reg_inc_gamma_q(a, x).unwrap();
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + q - 1.0).abs() < 1e-10, "a={a} x={x}: p+q = {}", p + q);
    }

    #[test]
    fn inc_beta_symmetry(a in 0.1f64..20.0, b in 0.1f64..20.0, x in 0.0f64..1.0) {
        let lhs = reg_inc_beta(a, b, x).unwrap();
        let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-9, "a={a} b={b} x={x}");
        prop_assert!((0.0..=1.0).contains(&lhs));
    }

    #[test]
    fn normal_quantile_inverts_cdf(p in 1e-10f64..1.0) {
        prop_assume!(p < 1.0 - 1e-10);
        let n = Normal::standard();
        let z = n.quantile(p).unwrap();
        prop_assert!((n.cdf(z) - p).abs() < 1e-8 * (1.0 + 1.0 / p.min(1.0 - p)).min(1e6));
    }

    #[test]
    fn t_cdf_monotone_and_symmetric(df in 1.0f64..200.0, t in -30.0f64..30.0) {
        let d = StudentT::new(df).unwrap();
        prop_assert!((d.cdf(t) + d.cdf(-t) - 1.0).abs() < 1e-10);
        prop_assert!(d.cdf(t + 0.1) >= d.cdf(t));
        let p = d.two_sided_p(t);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn t_tail_dominates_normal(df in 1.0f64..50.0, t in 0.5f64..8.0) {
        // Student t has heavier tails than the normal for any finite df.
        let tp = StudentT::new(df).unwrap().sf(t);
        let np = Normal::standard().sf(t);
        prop_assert!(tp >= np - 1e-12, "df={df} t={t}: {tp} < {np}");
    }

    #[test]
    fn chi2_additivity_of_means(k1 in 0.5f64..30.0, x in 0.0f64..100.0) {
        // CDF is monotone in df for fixed x: more df → smaller CDF.
        let c1 = ChiSquared::new(k1).unwrap();
        let c2 = ChiSquared::new(k1 + 1.0).unwrap();
        prop_assert!(c1.cdf(x) >= c2.cdf(x) - 1e-12);
    }

    #[test]
    fn f_dist_reciprocal_symmetry(d1 in 1.0f64..30.0, d2 in 1.0f64..30.0, x in 0.01f64..20.0) {
        // P(F(d1,d2) ≤ x) = P(F(d2,d1) ≥ 1/x).
        let f12 = FDistribution::new(d1, d2).unwrap();
        let f21 = FDistribution::new(d2, d1).unwrap();
        let lhs = f12.cdf(x);
        let rhs = f21.sf(1.0 / x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "d1={d1} d2={d2} x={x}");
    }

    #[test]
    fn meta_pooled_estimate_bounded_by_inputs(
        studies in proptest::collection::vec((-5.0f64..5.0, 0.01f64..3.0), 1..10),
    ) {
        let r = fixed_effect_meta(&studies).unwrap();
        let lo = studies.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let hi = studies.iter().map(|s| s.0).fold(f64::NEG_INFINITY, f64::max);
        // A convex combination stays inside the hull of the estimates.
        prop_assert!(r.beta >= lo - 1e-10 && r.beta <= hi + 1e-10);
        // Pooled SE no larger than the best single study.
        let best = studies.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        prop_assert!(r.se <= best + 1e-12);
        prop_assert!(r.q >= -1e-12);
    }
}
