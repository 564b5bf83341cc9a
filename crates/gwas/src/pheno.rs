//! Phenotype simulation with planted causal variants.
//!
//! `y = X_causal · β + C · γ + ε`, with effect sizes chosen so the causal
//! variants jointly explain a target heritability h² of the phenotypic
//! variance (assuming standardized genotype columns). The returned
//! [`PhenotypeTruth`] records what was planted so experiments can score
//! power and false-positive rates.

use crate::error::GwasError;
use dash_linalg::Matrix;
use rand::Rng;

/// Configuration for [`simulate_phenotype`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhenotypeSim {
    /// Number of causal variants (chosen uniformly without replacement).
    pub n_causal: usize,
    /// Target narrow-sense heritability in [0, 1).
    pub heritability: f64,
    /// Fixed effects of the covariate columns (empty = none).
    pub covariate_effects: Vec<f64>,
}

impl Default for PhenotypeSim {
    fn default() -> Self {
        PhenotypeSim {
            n_causal: 5,
            heritability: 0.3,
            covariate_effects: Vec::new(),
        }
    }
}

/// What the simulator planted.
#[derive(Debug, Clone, PartialEq)]
pub struct PhenotypeTruth {
    /// Causal variant indices, sorted ascending.
    pub causal: Vec<usize>,
    /// Effect size per causal variant (same order as `causal`).
    pub effects: Vec<f64>,
    /// The realized genetic variance fraction.
    pub h2_target: f64,
}

/// Simulates a quantitative phenotype over standardized genotypes `x`
/// (N×M) and covariates `c` (N×K).
///
/// Returns `(y, truth)`. Effects are ± `sqrt(h²/n_causal)` with random
/// signs; the environmental noise has variance `1 − h²`, so Var(y) ≈ 1
/// before covariate effects.
pub fn simulate_phenotype(
    x: &Matrix,
    c: &Matrix,
    cfg: &PhenotypeSim,
    rng: &mut impl Rng,
) -> Result<(Vec<f64>, PhenotypeTruth), GwasError> {
    let n = x.rows();
    let m = x.cols();
    if c.rows() != n {
        return Err(GwasError::ShapeMismatch {
            what: "covariate rows",
            expected: n,
            got: c.rows(),
        });
    }
    if cfg.n_causal > m {
        return Err(GwasError::ShapeMismatch {
            what: "n_causal vs variants",
            expected: m,
            got: cfg.n_causal,
        });
    }
    if !(0.0..1.0).contains(&cfg.heritability) {
        return Err(GwasError::BadParameter {
            what: "heritability",
            value: cfg.heritability,
        });
    }
    if cfg.covariate_effects.len() > c.cols() {
        return Err(GwasError::ShapeMismatch {
            what: "covariate effects vs K",
            expected: c.cols(),
            got: cfg.covariate_effects.len(),
        });
    }

    // Choose causal variants without replacement (partial Fisher–Yates).
    let mut indices: Vec<usize> = (0..m).collect();
    for i in 0..cfg.n_causal {
        let j = rng.gen_range(i..m);
        indices.swap(i, j);
    }
    let mut causal: Vec<usize> = indices[..cfg.n_causal].to_vec();
    causal.sort_unstable();

    let per_effect = if cfg.n_causal > 0 {
        (cfg.heritability / cfg.n_causal as f64).sqrt()
    } else {
        0.0
    };
    let effects: Vec<f64> = causal
        .iter()
        .map(|_| {
            if rng.gen::<bool>() {
                per_effect
            } else {
                -per_effect
            }
        })
        .collect();

    let noise_sd = (1.0 - cfg.heritability).sqrt();
    let mut y = vec![0.0; n];
    for (idx, eff) in causal.iter().zip(&effects) {
        for (yi, xi) in y.iter_mut().zip(x.col(*idx)) {
            *yi += eff * xi;
        }
    }
    for (j, gamma) in cfg.covariate_effects.iter().enumerate() {
        for (yi, ci) in y.iter_mut().zip(c.col(j)) {
            *yi += gamma * ci;
        }
    }
    for yi in y.iter_mut() {
        *yi += noise_sd * sample_standard_normal(rng);
    }

    Ok((
        y,
        PhenotypeTruth {
            causal,
            effects,
            h2_target: cfg.heritability,
        },
    ))
}

/// Standard normal via the Marsaglia polar method (no extra dependency).
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Fills a vector with iid standard normals.
pub fn normal_vec(n: usize, rng: &mut impl Rng) -> Vec<f64> {
    (0..n).map(|_| sample_standard_normal(rng)).collect()
}

/// Fills an N×M matrix with iid standard normals — the paper's R-demo
/// data generator (`matrix(rnorm(N * M), N, M)`).
pub fn normal_matrix(n: usize, m: usize, rng: &mut impl Rng) -> Matrix {
    let data: Vec<f64> = (0..n * m).map(|_| sample_standard_normal(rng)).collect();
    Matrix::from_column_major(n, m, data).expect("shape by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = normal_matrix(20, 5, &mut rng);
        let c = normal_matrix(20, 2, &mut rng);
        let bad_h2 = PhenotypeSim {
            heritability: 1.0,
            ..Default::default()
        };
        assert!(simulate_phenotype(&x, &c, &bad_h2, &mut rng).is_err());
        let too_many = PhenotypeSim {
            n_causal: 6,
            ..Default::default()
        };
        assert!(simulate_phenotype(&x, &c, &too_many, &mut rng).is_err());
        let bad_gamma = PhenotypeSim {
            covariate_effects: vec![1.0; 3],
            ..Default::default()
        };
        assert!(simulate_phenotype(&x, &c, &bad_gamma, &mut rng).is_err());
        let wrong_rows = normal_matrix(19, 2, &mut rng);
        assert!(simulate_phenotype(&x, &wrong_rows, &PhenotypeSim::default(), &mut rng).is_err());
    }

    #[test]
    fn truth_shape_and_effect_magnitude() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = normal_matrix(100, 50, &mut rng);
        let c = normal_matrix(100, 1, &mut rng);
        let cfg = PhenotypeSim {
            n_causal: 10,
            heritability: 0.4,
            covariate_effects: vec![0.5],
        };
        let (y, truth) = simulate_phenotype(&x, &c, &cfg, &mut rng).unwrap();
        assert_eq!(y.len(), 100);
        assert_eq!(truth.causal.len(), 10);
        assert_eq!(truth.effects.len(), 10);
        let expected = (0.4f64 / 10.0).sqrt();
        for e in &truth.effects {
            assert!((e.abs() - expected).abs() < 1e-12);
        }
        // Sorted, unique, in range.
        for w in truth.causal.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*truth.causal.last().unwrap() < 50);
    }

    #[test]
    fn heritability_realized_approximately() {
        // With standardized genotypes, Var(genetic part) ≈ h².
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = normal_matrix(4000, 30, &mut rng);
        crate::standardize::standardize_columns(&mut x);
        let c = Matrix::zeros(4000, 0);
        let cfg = PhenotypeSim {
            n_causal: 10,
            heritability: 0.5,
            covariate_effects: vec![],
        };
        let (y, _) = simulate_phenotype(&x, &c, &cfg, &mut rng).unwrap();
        let mean: f64 = y.iter().sum::<f64>() / y.len() as f64;
        let var: f64 =
            y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (y.len() - 1) as f64;
        assert!((var - 1.0).abs() < 0.12, "total variance {var}");
    }

    #[test]
    fn zero_causal_is_pure_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = normal_matrix(50, 5, &mut rng);
        let c = Matrix::zeros(50, 0);
        let cfg = PhenotypeSim {
            n_causal: 0,
            heritability: 0.0,
            covariate_effects: vec![],
        };
        let (y, truth) = simulate_phenotype(&x, &c, &cfg, &mut rng).unwrap();
        assert!(truth.causal.is_empty());
        assert_eq!(y.len(), 50);
    }

    #[test]
    fn polar_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs = normal_vec(40000, &mut rng);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn reproducible() {
        let cfg = PhenotypeSim::default();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = normal_matrix(30, 10, &mut rng);
            let c = normal_matrix(30, 1, &mut rng);
            simulate_phenotype(&x, &c, &cfg, &mut rng).unwrap()
        };
        assert_eq!(run(7), run(7));
    }
}
