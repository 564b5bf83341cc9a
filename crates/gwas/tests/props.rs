//! Property-based tests for the GWAS workload substrate.

use dash_gwas::genotype::{simulate_genotypes_at, simulate_genotypes_ld};
use dash_gwas::io::{read_matrix, write_matrix};
use dash_gwas::power::evaluate_scan;
use dash_gwas::sparse::SparseMatrix;
use dash_gwas::standardize::standardize_columns;
use dash_linalg::{dot, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tsv_roundtrip_any_matrix(
        rows in 1usize..12,
        cols in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            f64::from_bits((s >> 12) | 0x3FF0_0000_0000_0000) - 1.5 // in [-0.5, 0.5]
        };
        let m = Matrix::from_fn(rows, cols, |_, _| next());
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        let back = read_matrix(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn genotype_codes_and_maf_in_range(
        n in 1usize..200,
        maf in 0.01f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = simulate_genotypes_at(n, &[maf, maf], 0.0, &mut rng).unwrap();
        for j in 0..2 {
            prop_assert!(g.col(j).iter().all(|&c| (0..=2).contains(&c)));
            let obs = g.observed_maf(j).unwrap();
            prop_assert!((0.0..=1.0).contains(&obs));
        }
    }

    #[test]
    fn ld_genotypes_valid_at_any_copy_rate(
        copy in 0.0f64..0.99,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = simulate_genotypes_ld(50, &[0.2, 0.3, 0.4], copy, &mut rng).unwrap();
        for j in 0..3 {
            prop_assert!(g.col(j).iter().all(|&c| (0..=2).contains(&c)));
        }
    }

    #[test]
    fn sparse_dots_equal_dense_for_any_fill(
        n in 1usize..40,
        fill in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        };
        // Dense column mostly `fill` with random deviations.
        let col: Vec<f64> = (0..n)
            .map(|_| if next() > 0.5 { next() } else { fill })
            .collect();
        let dense = Matrix::from_cols(&[&col]).unwrap();
        let sparse = SparseMatrix::from_dense(&dense, fill).unwrap();
        let v: Vec<f64> = (0..n).map(|_| next()).collect();
        let v_sum: f64 = v.iter().sum();
        let expect = dot(&col, &v);
        prop_assert!((sparse.col_dot(0, &v, v_sum) - expect).abs() < 1e-9 * (1.0 + expect.abs()));
        let expect_ss = dot(&col, &col);
        prop_assert!((sparse.col_self_dot(0) - expect_ss).abs() < 1e-9 * (1.0 + expect_ss));
        prop_assert_eq!(sparse.col_dense(0), col);
    }

    #[test]
    fn standardize_then_restandardize_is_stable(
        rows in 2usize..30,
        cols in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        };
        let mut m = Matrix::from_fn(rows, cols, |_, _| next());
        let (_, sds) = standardize_columns(&mut m);
        let snapshot = m.clone();
        let (means2, sds2) = standardize_columns(&mut m);
        for j in 0..cols {
            prop_assert!(means2[j].abs() < 1e-9, "col {j} mean {}", means2[j]);
            if sds[j] > 0.0 {
                prop_assert!((sds2[j] - 1.0).abs() < 1e-9);
            }
        }
        prop_assert!(m.max_abs_diff(&snapshot).unwrap() < 1e-9);
    }

    #[test]
    fn power_report_counts_are_consistent(
        p_values in proptest::collection::vec(0.0f64..1.0, 1..50),
        causal_frac in 0.0f64..1.0,
        alpha in 0.001f64..0.5,
    ) {
        let n_causal = (p_values.len() as f64 * causal_frac) as usize;
        let causal: Vec<usize> = (0..n_causal).collect();
        let r = evaluate_scan(&p_values, &causal, alpha);
        prop_assert_eq!(r.n_tested, p_values.len());
        prop_assert!(r.true_positives <= r.n_causal);
        prop_assert!(r.false_positives <= r.n_tested - r.n_causal);
        if r.n_causal > 0 {
            prop_assert!((0.0..=1.0).contains(&r.power));
        }
    }
}
