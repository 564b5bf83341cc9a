//! The single-threaded association scan (§2, steps 1–4).

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use crate::scan::associate_parallel;

/// Runs the association scan on pooled data on the calling thread: the
/// one-thread case of [`associate_parallel`].
pub fn associate(data: &PartyData) -> Result<ScanResult, CoreError> {
    associate_parallel(data, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_linalg::Matrix;

    /// Small deterministic pseudo-normal generator (sum of uniforms) so
    /// these tests don't need `rand`.
    fn gen_data(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut next = move || {
            let mut acc = 0.0;
            for _ in 0..4 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (s >> 11) as f64 / (1u64 << 53) as f64;
            }
            (acc - 2.0) * (3.0f64).sqrt() // mean 0, variance 1
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Matrix::from_fn(n, m, |_, _| next());
        let c = Matrix::from_fn(n, k, |_, _| next());
        PartyData::new(y, x, c).unwrap()
    }

    #[test]
    fn matches_hand_computed_simple_regression() {
        // y on x with intercept; classic textbook numbers.
        let x_col = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = vec![2.1, 3.9, 6.2, 7.8, 10.1];
        let data = PartyData::new(
            y.clone(),
            Matrix::from_cols(&[&x_col]).unwrap(),
            Matrix::from_cols(&[&[1.0; 5]]).unwrap(),
        )
        .unwrap();
        let res = associate(&data).unwrap();
        // OLS slope = Sxy/Sxx with centered data.
        let xbar = 3.0;
        let ybar: f64 = y.iter().sum::<f64>() / 5.0;
        let sxy: f64 = x_col
            .iter()
            .zip(&y)
            .map(|(x, yv)| (x - xbar) * (yv - ybar))
            .sum();
        let sxx: f64 = x_col.iter().map(|x| (x - xbar) * (x - xbar)).sum();
        let slope = sxy / sxx;
        assert!(
            (res.beta[0] - slope).abs() < 1e-12,
            "{} vs {slope}",
            res.beta[0]
        );
        assert_eq!(res.df, 3);
        // Strong positive association.
        assert!(res.t[0] > 10.0);
        assert!(res.p[0] < 1e-3);
    }

    #[test]
    fn agrees_with_naive_ols() {
        let data = gen_data(60, 8, 3, 42);
        let fast = associate(&data).unwrap();
        let slow = crate::scan::per_variant_ols(&data).unwrap();
        let d = fast.max_rel_diff(&slow).unwrap();
        assert!(d < 1e-9, "max rel diff {d}");
    }

    #[test]
    fn p_values_are_the_scalar_call_on_the_scan_s_own_t() {
        // The scan fills p from one slice call, the naive oracle from the
        // scalar `two_sided_p` per variant. Variant 0 is a covariate
        // (degenerate), variant 1 is y itself (perfect fit), the rest are
        // ordinary.
        let mut data = gen_data(50, 9, 2, 11);
        let mut x = data.x().clone();
        x.col_mut(0).copy_from_slice(data.c().col(1));
        x.col_mut(1).copy_from_slice(data.y());
        data = PartyData::new(data.y().to_vec(), x, data.c().clone()).unwrap();
        let fast = associate(&data).unwrap();
        let slow = crate::scan::per_variant_ols(&data).unwrap();
        let tdist = dash_stats::StudentT::new(fast.df as f64).unwrap();
        for j in 0..fast.len() {
            assert_eq!(
                fast.p[j].to_bits(),
                tdist.two_sided_p(fast.t[j]).to_bits(),
                "variant {j}"
            );
        }
        assert_eq!((fast.n_degenerate, slow.n_degenerate), (1, 1));
        assert!(fast.p[0].is_nan() && slow.p[0].is_nan());
        assert!(fast.p[1] < 1e-300 && slow.p[1] < 1e-300);
        for j in 2..fast.len() {
            assert!(
                (fast.p[j] - slow.p[j]).abs() < 1e-9,
                "variant {j}: {} vs {}",
                fast.p[j],
                slow.p[j]
            );
        }

        // y = 0: every statistic is 0/0, so t and p are NaN without the
        // variant being degenerate — in both scans, the same bits.
        let null = PartyData::new(vec![0.0; 50], data.x().clone(), data.c().clone()).unwrap();
        let fast = associate(&null).unwrap();
        let slow = crate::scan::per_variant_ols(&null).unwrap();
        assert_eq!((fast.n_degenerate, slow.n_degenerate), (1, 1));
        for j in 1..fast.len() {
            assert!(fast.t[j].is_nan(), "variant {j}");
            assert_eq!(fast.p[j].to_bits(), slow.p[j].to_bits(), "variant {j}");
        }
    }

    #[test]
    fn k_zero_supported() {
        let data = gen_data(20, 3, 0, 7);
        let res = associate(&data).unwrap();
        assert_eq!(res.df, 19);
        assert_eq!(res.len(), 3);
        assert!(res.beta.iter().all(|b| b.is_finite()));
    }

    #[test]
    fn too_few_samples_rejected() {
        let data = gen_data(4, 2, 3, 1);
        assert!(matches!(
            associate(&data),
            Err(CoreError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn null_data_p_values_roughly_uniform() {
        // Under the global null, ~5% of p-values below 0.05.
        let data = gen_data(200, 400, 2, 2024);
        let res = associate(&data).unwrap();
        let frac = res.hits(0.05).len() as f64 / 400.0;
        assert!((0.01..0.12).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn planted_signal_detected() {
        // y = 0.8 * X_0 + noise: variant 0 should dominate.
        let mut data = gen_data(300, 10, 2, 5);
        let x0: Vec<f64> = data.x().col(0).to_vec();
        let y: Vec<f64> = data.y().iter().zip(&x0).map(|(e, x)| 0.8 * x + e).collect();
        data = PartyData::new(y, data.x().clone(), data.c().clone()).unwrap();
        let res = associate(&data).unwrap();
        assert!(res.p[0] < 1e-8, "p[0] = {}", res.p[0]);
        assert!((res.beta[0] - 0.8).abs() < 0.2);
        // Effect estimate should be the most significant.
        let best = res
            .p
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }
}
