//! Max-T permutation testing: empirical family-wise error control.
//!
//! Parametric p-values lean on the normality of Lemma 2.1's model; when
//! the phenotype is skewed or heavy-tailed, GWAS practice validates hits
//! with permutations: shuffle `y` B times, rescan, and compare each
//! observed |t| against the distribution of the *maximum* |t| across
//! variants in the permuted scans (Westfall–Young max-T). Because only
//! the y-side statistics change under permutation, all B rescans reuse
//! the expensive `QᵀX`/`X·X` pass — the permuted responses are simply fed
//! through the multi-phenotype scan as extra columns, costing
//! O(N·M) per permutation instead of a full refit.

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use crate::multi::each_phenotype;
use dash_linalg::Matrix;
use rand::Rng;

/// Result of a permutation scan.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationResult {
    /// The ordinary (unpermuted) scan.
    pub observed: ScanResult,
    /// Westfall–Young adjusted p-values: for each variant, the fraction
    /// of permutations whose genome-wide max |t| reaches the variant's
    /// observed |t| (with the +1 smoothing that keeps p > 0).
    pub maxt_p: Vec<f64>,
    /// The permutation null distribution of the genome-wide max |t|,
    /// sorted ascending (useful for empirical significance thresholds).
    pub max_t_null: Vec<f64>,
    /// Number of permutations performed.
    pub n_permutations: usize,
}

impl PermutationResult {
    /// The empirical genome-wide |t| threshold at family-wise level
    /// `alpha` (e.g. 0.05): the (1−alpha) quantile of the max-|t| null.
    pub fn threshold(&self, alpha: f64) -> f64 {
        if self.max_t_null.is_empty() {
            return f64::NAN;
        }
        let idx = ((1.0 - alpha) * self.max_t_null.len() as f64).floor() as usize;
        self.max_t_null[idx.min(self.max_t_null.len() - 1)]
    }
}

/// Runs the scan plus `n_permutations` phenotype-permuted rescans.
pub fn permutation_scan(
    data: &PartyData,
    n_permutations: usize,
    rng: &mut impl Rng,
) -> Result<PermutationResult, CoreError> {
    if n_permutations == 0 {
        return Err(CoreError::BadConfig {
            what: "n_permutations must be >= 1",
        });
    }
    let n = data.n_samples();
    // Column 0 = observed y; columns 1..=B = permutations.
    let mut ys = Matrix::zeros(n, n_permutations + 1);
    ys.col_mut(0).copy_from_slice(data.y());
    let mut perm: Vec<f64> = data.y().to_vec();
    for b in 1..=n_permutations {
        // Fisher–Yates shuffle of the response.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        ys.col_mut(b).copy_from_slice(&perm);
    }
    // The observed scan in full; of each permuted one, only the
    // genome-wide max |t| — its null distribution.
    let k = data.c().cols();
    let mut observed = None;
    let mut max_t_null = Vec::with_capacity(n_permutations);
    each_phenotype(&ys, data.x(), data.c(), |stats| {
        match observed {
            None => observed = Some(stats.finalize(n, k)?),
            Some(_) => max_t_null.push(stats.max_abs_t(n, k)?),
        }
        Ok(())
    })?;
    let observed = observed.ok_or(CoreError::ShapeMismatch {
        what: "permutation scan phenotypes",
        expected: n_permutations + 1,
        got: 0,
    })?;
    max_t_null.sort_by(f64::total_cmp);

    // Adjusted p-values with +1 smoothing.
    let b = n_permutations as f64;
    let maxt_p = observed
        .t
        .iter()
        .map(|&t| {
            if !t.is_finite() {
                return f64::NAN;
            }
            let exceed = max_t_null.iter().filter(|&&m| m >= t.abs()).count() as f64;
            (exceed + 1.0) / (b + 1.0)
        })
        .collect();
    Ok(PermutationResult {
        observed,
        maxt_p,
        max_t_null,
        n_permutations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen_data(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(5);
        let mut next = move || {
            let mut acc = 0.0;
            for _ in 0..4 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (s >> 11) as f64 / (1u64 << 53) as f64;
            }
            (acc - 2.0) * (3.0f64).sqrt()
        };
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Matrix::from_fn(n, m, |_, _| next());
        let c = Matrix::from_fn(n, k, |_, _| next());
        PartyData::new(y, x, c).unwrap()
    }

    #[test]
    fn zero_permutations_rejected() {
        let data = gen_data(20, 3, 1, 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(permutation_scan(&data, 0, &mut rng).is_err());
    }

    #[test]
    fn observed_scan_matches_plain_associate() {
        let data = gen_data(40, 5, 2, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let res = permutation_scan(&data, 10, &mut rng).unwrap();
        let plain = crate::scan::associate(&data).unwrap();
        assert!(res.observed.max_rel_diff(&plain).unwrap() < 1e-10);
        assert_eq!(res.n_permutations, 10);
        assert_eq!(res.max_t_null.len(), 10);
        assert_eq!(res.maxt_p.len(), 5);
    }

    #[test]
    fn null_data_gives_large_adjusted_p() {
        // With no signal, every adjusted p should be well away from 0.
        let data = gen_data(60, 10, 1, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let res = permutation_scan(&data, 60, &mut rng).unwrap();
        for (j, &p) in res.maxt_p.iter().enumerate() {
            assert!(p > 0.01, "variant {j} adjusted p = {p}");
            assert!(p <= 1.0);
        }
    }

    #[test]
    fn planted_signal_survives_adjustment() {
        // Strong effect on variant 0: adjusted p at the smoothing floor.
        let base = gen_data(250, 8, 1, 4);
        let x0: Vec<f64> = base.x().col(0).to_vec();
        let y: Vec<f64> = base.y().iter().zip(&x0).map(|(e, x)| 1.2 * x + e).collect();
        let data = PartyData::new(y, base.x().clone(), base.c().clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let b = 99;
        let res = permutation_scan(&data, b, &mut rng).unwrap();
        let floor = 1.0 / (b as f64 + 1.0);
        assert!(
            (res.maxt_p[0] - floor).abs() < 1e-12,
            "adjusted p = {} (floor {floor})",
            res.maxt_p[0]
        );
        // Observed |t| clears the empirical 5% threshold.
        assert!(res.observed.t[0].abs() > res.threshold(0.05));
    }

    #[test]
    fn null_distribution_sorted_and_threshold_monotone() {
        let data = gen_data(50, 6, 1, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let res = permutation_scan(&data, 40, &mut rng).unwrap();
        for w in res.max_t_null.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(res.threshold(0.01) >= res.threshold(0.10));
    }

    #[test]
    fn adjusted_p_never_below_parametric_floor() {
        // max-T adjusted p-values are monotone in |t| across variants.
        let data = gen_data(80, 6, 2, 6);
        let mut rng = StdRng::seed_from_u64(6);
        let res = permutation_scan(&data, 30, &mut rng).unwrap();
        let mut pairs: Vec<(f64, f64)> = res
            .observed
            .t
            .iter()
            .zip(&res.maxt_p)
            .map(|(&t, &p)| (t.abs(), p))
            .collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "monotonicity violated");
        }
    }

    /// `permutation_scan` as it was before the permuted scans were folded
    /// to their max |t|: every scan finalized, p-values and all, then
    /// reduced.
    fn permutation_scan_by_finalizing(
        data: &PartyData,
        n_permutations: usize,
        rng: &mut impl Rng,
    ) -> PermutationResult {
        let n = data.n_samples();
        let mut ys = Matrix::zeros(n, n_permutations + 1);
        ys.col_mut(0).copy_from_slice(data.y());
        let mut perm: Vec<f64> = data.y().to_vec();
        for b in 1..=n_permutations {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            ys.col_mut(b).copy_from_slice(&perm);
        }
        let mut scans = crate::multi::multi_phenotype_scan(&ys, data.x(), data.c()).unwrap();
        let observed = scans.remove(0);
        let mut max_t_null: Vec<f64> = scans
            .iter()
            .map(|s| {
                s.t.iter()
                    .filter(|t| t.is_finite())
                    .fold(0.0f64, |acc, &t| acc.max(t.abs()))
            })
            .collect();
        max_t_null.sort_by(f64::total_cmp);
        let b = n_permutations as f64;
        let maxt_p = observed
            .t
            .iter()
            .map(|&t| {
                if !t.is_finite() {
                    return f64::NAN;
                }
                let exceed = max_t_null.iter().filter(|&&m| m >= t.abs()).count() as f64;
                (exceed + 1.0) / (b + 1.0)
            })
            .collect();
        PermutationResult {
            observed,
            maxt_p,
            max_t_null,
            n_permutations,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn folding_each_permutation_to_its_max_t_keeps_every_bit() {
        for (n, m, k, seed) in [(60, 9, 2, 7), (45, 5, 0, 8), (30, 70, 3, 9)] {
            let base = gen_data(n, m, k, seed);
            // A variant in the span of C (when there is one), so the null
            // meets a degenerate row.
            let mut x = base.x().clone();
            if k > 0 {
                let c0 = base.c().col(0).to_vec();
                x.col_mut(1).copy_from_slice(&c0);
            }
            let data = PartyData::new(base.y().to_vec(), x, base.c().clone()).unwrap();
            let got = permutation_scan(&data, 33, &mut StdRng::seed_from_u64(seed)).unwrap();
            let want = permutation_scan_by_finalizing(&data, 33, &mut StdRng::seed_from_u64(seed));
            let (g, w) = (&got.observed, &want.observed);
            for (a, b) in [
                (&g.beta, &w.beta),
                (&g.se, &w.se),
                (&g.t, &w.t),
                (&g.p, &w.p),
            ] {
                assert_eq!(bits(a), bits(b), "observed rows, n={n} m={m} k={k}");
            }
            assert_eq!((g.df, g.n_degenerate), (w.df, w.n_degenerate));
            assert_eq!(w.n_degenerate, usize::from(k > 0));
            assert_eq!(bits(&got.max_t_null), bits(&want.max_t_null));
            assert_eq!(bits(&got.maxt_p), bits(&want.maxt_p));
            assert_eq!(got.n_permutations, want.n_permutations);
        }
    }
}
