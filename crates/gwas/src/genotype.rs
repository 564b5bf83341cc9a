//! Biallelic genotype simulation.
//!
//! Genotypes are 0/1/2 minor-allele counts drawn per variant under
//! Hardy–Weinberg equilibrium at a minor allele frequency (MAF) sampled
//! from a configurable spectrum; an optional missingness process knocks
//! calls out (encoded −1). This mirrors the N×M transient covariate
//! matrix of the paper at GWAS scale: N samples, M common variants.

use crate::error::GwasError;
use rand::Rng;

/// Genotype codes stored column-major; −1 marks a missing call.
#[derive(Debug, Clone, PartialEq)]
pub struct GenotypeMatrix {
    n: usize,
    m: usize,
    codes: Vec<i8>,
    mafs: Vec<f64>,
}

/// Configuration for [`simulate_genotypes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenotypeSimConfig {
    /// MAFs are drawn uniformly from this range (common-variant GWAS uses
    /// something like 0.05–0.5; burden-style rare variants 0.001–0.01).
    pub maf_range: (f64, f64),
    /// Per-call probability of a missing genotype.
    pub missing_rate: f64,
}

impl Default for GenotypeSimConfig {
    fn default() -> Self {
        GenotypeSimConfig {
            maf_range: (0.05, 0.5),
            missing_rate: 0.0,
        }
    }
}

impl GenotypeSimConfig {
    fn validate(&self) -> Result<(), GwasError> {
        let (lo, hi) = self.maf_range;
        if !(lo > 0.0 && hi <= 0.5 && lo <= hi) {
            return Err(GwasError::BadParameter {
                what: "maf_range (need 0 < lo <= hi <= 0.5)",
                value: if lo <= 0.0 { lo } else { hi },
            });
        }
        if !(0.0..1.0).contains(&self.missing_rate) {
            return Err(GwasError::BadParameter {
                what: "missing_rate",
                value: self.missing_rate,
            });
        }
        Ok(())
    }
}

/// Simulates an N×M genotype matrix.
pub fn simulate_genotypes(
    n: usize,
    m: usize,
    cfg: &GenotypeSimConfig,
    rng: &mut impl Rng,
) -> Result<GenotypeMatrix, GwasError> {
    cfg.validate()?;
    let (lo, hi) = cfg.maf_range;
    let mafs: Vec<f64> = (0..m).map(|_| rng.gen_range(lo..=hi)).collect();
    let gm = simulate_genotypes_at(n, &mafs, cfg.missing_rate, rng)?;
    Ok(gm)
}

/// Simulates genotypes at *given* per-variant allele frequencies (used by
/// the population-structure generator, where each party has drifted
/// frequencies).
pub fn simulate_genotypes_at(
    n: usize,
    mafs: &[f64],
    missing_rate: f64,
    rng: &mut impl Rng,
) -> Result<GenotypeMatrix, GwasError> {
    for &p in mafs {
        if !(0.0..=1.0).contains(&p) {
            return Err(GwasError::BadParameter {
                what: "allele frequency",
                value: p,
            });
        }
    }
    let m = mafs.len();
    let mut codes = Vec::with_capacity(n * m);
    for &p in mafs {
        for _ in 0..n {
            if missing_rate > 0.0 && rng.gen::<f64>() < missing_rate {
                codes.push(-1);
            } else {
                // Hardy–Weinberg: two independent allele draws.
                let a = (rng.gen::<f64>() < p) as i8;
                let b = (rng.gen::<f64>() < p) as i8;
                codes.push(a + b);
            }
        }
    }
    Ok(GenotypeMatrix {
        n,
        m,
        codes,
        mafs: mafs.to_vec(),
    })
}

/// Simulates genotypes with linkage disequilibrium along the variant
/// axis: each of a sample's two haplotypes copies its previous allele
/// with probability `ld_copy` (else draws fresh at the variant's MAF).
///
/// Adjacent-variant allele correlation is ≈ `ld_copy` when MAFs are
/// similar, decaying geometrically with distance — the standard
/// haplotype-copy caricature of real LD blocks. Hits in a scan over LD
/// data smear across neighbours exactly as in real GWAS.
pub fn simulate_genotypes_ld(
    n: usize,
    mafs: &[f64],
    ld_copy: f64,
    rng: &mut impl Rng,
) -> Result<GenotypeMatrix, GwasError> {
    for &p in mafs {
        if !(0.0..=1.0).contains(&p) {
            return Err(GwasError::BadParameter {
                what: "allele frequency",
                value: p,
            });
        }
    }
    if !(0.0..1.0).contains(&ld_copy) {
        return Err(GwasError::BadParameter {
            what: "ld_copy",
            value: ld_copy,
        });
    }
    let m = mafs.len();
    let mut codes = vec![0i8; n * m];
    // Two haplotypes per sample, walked along the variants.
    let mut hap_a = vec![false; n];
    let mut hap_b = vec![false; n];
    for (j, &p) in mafs.iter().enumerate() {
        for i in 0..n {
            if j == 0 || rng.gen::<f64>() >= ld_copy {
                hap_a[i] = rng.gen::<f64>() < p;
            }
            if j == 0 || rng.gen::<f64>() >= ld_copy {
                hap_b[i] = rng.gen::<f64>() < p;
            }
            codes[j * n + i] = hap_a[i] as i8 + hap_b[i] as i8;
        }
    }
    Ok(GenotypeMatrix {
        n,
        m,
        codes,
        mafs: mafs.to_vec(),
    })
}

impl GenotypeMatrix {
    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.n
    }

    /// Number of variants.
    pub fn n_variants(&self) -> usize {
        self.m
    }

    /// Raw codes of one variant column (−1 = missing).
    pub fn col(&self, j: usize) -> &[i8] {
        assert!(j < self.m, "variant {j} out of range");
        &self.codes[j * self.n..(j + 1) * self.n]
    }

    /// Observed allele frequency of a column, ignoring missing calls;
    /// `None` if every call is missing.
    pub fn observed_maf(&self, j: usize) -> Option<f64> {
        let col = self.col(j);
        let mut sum = 0u64;
        let mut called = 0u64;
        for &c in col {
            if c >= 0 {
                sum += c as u64;
                called += 1;
            }
        }
        if called == 0 {
            None
        } else {
            Some(sum as f64 / (2.0 * called as f64))
        }
    }

    /// Fraction of missing calls over the whole matrix.
    pub fn missing_fraction(&self) -> f64 {
        if self.codes.is_empty() {
            return 0.0;
        }
        self.codes.iter().filter(|&&c| c < 0).count() as f64 / self.codes.len() as f64
    }

    /// Converts to a dense dosage matrix, mean-imputing missing calls
    /// per variant (the standard GWAS pre-processing step).
    pub fn to_dosages(&self) -> dash_linalg::Matrix {
        let mut out = dash_linalg::Matrix::zeros(self.n, self.m);
        for j in 0..self.m {
            let col = self.col(j);
            let mean = {
                let (mut s, mut c) = (0.0, 0u64);
                for &v in col {
                    if v >= 0 {
                        s += v as f64;
                        c += 1;
                    }
                }
                if c == 0 {
                    0.0
                } else {
                    s / c as f64
                }
            };
            let dst = out.col_mut(j);
            for (d, &v) in dst.iter_mut().zip(col) {
                *d = if v >= 0 { v as f64 } else { mean };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        let bad = GenotypeSimConfig {
            maf_range: (0.0, 0.5),
            missing_rate: 0.0,
        };
        assert!(simulate_genotypes(5, 5, &bad, &mut rng).is_err());
        let bad = GenotypeSimConfig {
            maf_range: (0.1, 0.6),
            missing_rate: 0.0,
        };
        assert!(simulate_genotypes(5, 5, &bad, &mut rng).is_err());
        let bad = GenotypeSimConfig {
            maf_range: (0.1, 0.3),
            missing_rate: 1.5,
        };
        assert!(simulate_genotypes(5, 5, &bad, &mut rng).is_err());
    }

    #[test]
    fn codes_in_range_and_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = simulate_genotypes(50, 20, &GenotypeSimConfig::default(), &mut rng).unwrap();
        assert_eq!(g.n_samples(), 50);
        assert_eq!(g.n_variants(), 20);
        for j in 0..20 {
            assert!(g.col(j).iter().all(|&c| (0..=2).contains(&c)));
        }
        assert_eq!(g.missing_fraction(), 0.0);
    }

    #[test]
    fn observed_maf_tracks_true_maf() {
        let mut rng = StdRng::seed_from_u64(3);
        let mafs = vec![0.1, 0.25, 0.4];
        let g = simulate_genotypes_at(4000, &mafs, 0.0, &mut rng).unwrap();
        for (j, &p) in mafs.iter().enumerate() {
            let obs = g.observed_maf(j).unwrap();
            assert!((obs - p).abs() < 0.03, "variant {j}: obs {obs} vs true {p}");
        }
    }

    #[test]
    fn hardy_weinberg_het_fraction() {
        // Heterozygote fraction ≈ 2p(1−p).
        let mut rng = StdRng::seed_from_u64(4);
        let p = 0.3;
        let g = simulate_genotypes_at(20000, &[p], 0.0, &mut rng).unwrap();
        let het = g.col(0).iter().filter(|&&c| c == 1).count() as f64 / 20000.0;
        assert!((het - 2.0 * p * (1.0 - p)).abs() < 0.02, "het = {het}");
    }

    #[test]
    fn missingness_rate_honored() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = GenotypeSimConfig {
            maf_range: (0.1, 0.5),
            missing_rate: 0.2,
        };
        let g = simulate_genotypes(2000, 10, &cfg, &mut rng).unwrap();
        let frac = g.missing_fraction();
        assert!((frac - 0.2).abs() < 0.02, "missing fraction {frac}");
    }

    #[test]
    fn dosage_imputation_fills_column_mean() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = GenotypeSimConfig {
            maf_range: (0.2, 0.4),
            missing_rate: 0.3,
        };
        let g = simulate_genotypes(500, 4, &cfg, &mut rng).unwrap();
        let d = g.to_dosages();
        for j in 0..4 {
            let col = g.col(j);
            let called_mean = {
                let (mut s, mut c) = (0.0, 0);
                for &v in col {
                    if v >= 0 {
                        s += v as f64;
                        c += 1;
                    }
                }
                s / c as f64
            };
            for (i, &code) in col.iter().enumerate() {
                let expect = if code >= 0 { code as f64 } else { called_mean };
                assert!((d.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ld_simulation_correlates_neighbours() {
        let mut rng = StdRng::seed_from_u64(20);
        let m = 30;
        let mafs = vec![0.3; m];
        let g = simulate_genotypes_ld(4000, &mafs, 0.8, &mut rng).unwrap();
        // Dosage correlation of adjacent vs distant variant pairs.
        let corr = |a: usize, b: usize| -> f64 {
            let (ca, cb) = (g.col(a), g.col(b));
            let n = ca.len() as f64;
            let ma: f64 = ca.iter().map(|&v| v as f64).sum::<f64>() / n;
            let mb: f64 = cb.iter().map(|&v| v as f64).sum::<f64>() / n;
            let mut cov = 0.0;
            let mut va = 0.0;
            let mut vb = 0.0;
            for (&x, &y) in ca.iter().zip(cb) {
                let (dx, dy) = (x as f64 - ma, y as f64 - mb);
                cov += dx * dy;
                va += dx * dx;
                vb += dy * dy;
            }
            cov / (va * vb).sqrt()
        };
        let adjacent = corr(10, 11);
        let distant = corr(0, 29);
        assert!(adjacent > 0.6, "adjacent r = {adjacent}");
        assert!(distant < 0.2, "distant r = {distant}");
        assert!(adjacent > distant + 0.4);
        // Decay is monotone-ish: lag 5 below lag 1.
        assert!(corr(10, 15) < adjacent);
    }

    #[test]
    fn ld_zero_is_independent() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = simulate_genotypes_ld(500, &[0.25; 5], 0.0, &mut rng).unwrap();
        assert_eq!(g.n_variants(), 5);
        for j in 0..5 {
            assert!(g.col(j).iter().all(|&c| (0..=2).contains(&c)));
        }
    }

    #[test]
    fn ld_parameter_validated() {
        let mut rng = StdRng::seed_from_u64(22);
        assert!(simulate_genotypes_ld(10, &[0.3], 1.0, &mut rng).is_err());
        assert!(simulate_genotypes_ld(10, &[0.3], -0.1, &mut rng).is_err());
        assert!(simulate_genotypes_ld(10, &[1.5], 0.5, &mut rng).is_err());
    }

    #[test]
    fn ld_hits_smear_across_neighbours() {
        // A causal variant in an LD block drags its neighbours' p-values
        // down too — the classic GWAS tower.
        let mut rng = StdRng::seed_from_u64(23);
        let n = 1500;
        let m = 40;
        let g = simulate_genotypes_ld(n, &vec![0.3; m], 0.9, &mut rng).unwrap();
        let x = crate::standardize::impute_and_standardize(&g);
        let causal = 20usize;
        let y: Vec<f64> = (0..n)
            .map(|i| 0.4 * x.get(i, causal) + crate::pheno::sample_standard_normal(&mut rng))
            .collect();
        let c = dash_linalg::Matrix::from_cols(&[&vec![1.0; n]]).unwrap();
        let data = dash_core::model::PartyData::new(y, x, c).unwrap();
        let res = dash_core::scan::associate(&data).unwrap();
        assert!(res.p[causal] < 1e-8);
        // Immediate neighbours inherit signal; far variants do not.
        assert!(
            res.p[causal - 1] < 1e-3,
            "left neighbour p {}",
            res.p[causal - 1]
        );
        assert!(
            res.p[causal + 1] < 1e-3,
            "right neighbour p {}",
            res.p[causal + 1]
        );
        assert!(res.p[0] > 1e-3, "distant variant p {}", res.p[0]);
    }

    #[test]
    fn reproducible_given_seed() {
        let cfg = GenotypeSimConfig::default();
        let g1 = simulate_genotypes(30, 10, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let g2 = simulate_genotypes(30, 10, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn invalid_frequency_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        assert!(simulate_genotypes_at(10, &[1.5], 0.0, &mut rng).is_err());
        assert!(simulate_genotypes_at(10, &[-0.1], 0.0, &mut rng).is_err());
    }
}
