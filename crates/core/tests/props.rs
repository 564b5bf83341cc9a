//! Property-based tests for the scan's statistical invariances.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::block::{block_scan, TransientBlock};
use dash_core::model::PartyData;
use dash_core::scan::{associate, per_variant_ols};
use dash_linalg::Matrix;
use proptest::prelude::*;

/// Deterministic dataset from a seed.
fn dataset(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let y: Vec<f64> = (0..n).map(|_| next()).collect();
    let x = Matrix::from_fn(n, m, |_, _| next());
    let c = Matrix::from_fn(n, k, |_, _| next());
    PartyData::new(y, x, c).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn t_and_p_invariant_under_response_scaling(
        seed in 0u64..500,
        scale in prop_oneof![0.001f64..0.1, 1.0f64..1000.0],
    ) {
        let data = dataset(30, 4, 2, seed);
        let base = associate(&data).unwrap();
        let y_scaled: Vec<f64> = data.y().iter().map(|v| v * scale).collect();
        let scaled = associate(
            &PartyData::new(y_scaled, data.x().clone(), data.c().clone()).unwrap(),
        )
        .unwrap();
        for j in 0..4 {
            // beta scales with y; t and p do not.
            prop_assert!((scaled.beta[j] - scale * base.beta[j]).abs()
                < 1e-8 * (1.0 + (scale * base.beta[j]).abs()));
            prop_assert!((scaled.t[j] - base.t[j]).abs() < 1e-8 * (1.0 + base.t[j].abs()));
            prop_assert!((scaled.p[j] - base.p[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn t_and_p_invariant_under_variant_scaling(
        seed in 0u64..500,
        scale in 0.01f64..100.0,
    ) {
        let data = dataset(25, 3, 1, seed);
        let base = associate(&data).unwrap();
        let mut x = data.x().clone();
        for v in x.col_mut(1) {
            *v *= scale;
        }
        let scaled =
            associate(&PartyData::new(data.y().to_vec(), x, data.c().clone()).unwrap()).unwrap();
        // Variant 1's beta rescales by 1/scale; t unchanged; others
        // untouched entirely.
        prop_assert!((scaled.beta[1] * scale - base.beta[1]).abs()
            < 1e-8 * (1.0 + base.beta[1].abs()));
        prop_assert!((scaled.t[1] - base.t[1]).abs() < 1e-8 * (1.0 + base.t[1].abs()));
        prop_assert!((scaled.t[0] - base.t[0]).abs() < 1e-10);
        prop_assert!((scaled.t[2] - base.t[2]).abs() < 1e-10);
    }

    #[test]
    fn row_permutation_invariance(seed in 0u64..500, rot in 1usize..24) {
        // Rotating the rows (a specific permutation) changes nothing.
        let n = 25;
        let data = dataset(n, 3, 2, seed);
        let perm: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let y: Vec<f64> = perm.iter().map(|&i| data.y()[i]).collect();
        let x = Matrix::from_fn(n, 3, |r, c| data.x().get(perm[r], c));
        let c = Matrix::from_fn(n, 2, |r, cc| data.c().get(perm[r], cc));
        let permuted = associate(&PartyData::new(y, x, c).unwrap()).unwrap();
        let base = associate(&data).unwrap();
        let d = permuted.max_rel_diff(&base).unwrap();
        prop_assert!(d < 1e-9, "diff {d}");
    }

    #[test]
    fn scan_equals_ols_oracle(seed in 0u64..300) {
        let data = dataset(32, 5, 2, seed);
        let fast = associate(&data).unwrap();
        let slow = per_variant_ols(&data).unwrap();
        let d = fast.max_rel_diff(&slow).unwrap();
        prop_assert!(d < 1e-7, "diff {d}");
    }

    #[test]
    fn single_column_blocks_equal_scalar_scan(seed in 0u64..300) {
        let data = dataset(28, 4, 1, seed);
        let scalar = associate(&data).unwrap();
        let blocks: Vec<TransientBlock> = (0..4)
            .map(|j| TransientBlock {
                name: format!("v{j}"),
                columns: vec![j],
            })
            .collect();
        let joint = block_scan(&data, &blocks).unwrap();
        for (j, jb) in joint.iter().enumerate().take(4) {
            prop_assert!((jb.p - scalar.p[j]).abs() < 1e-8, "j={j}");
        }
    }

    #[test]
    fn covariate_order_does_not_matter(seed in 0u64..300) {
        // Swapping covariate columns spans the same space → identical
        // results.
        let data = dataset(30, 3, 3, seed);
        let c = data.c();
        let swapped = Matrix::from_cols(&[c.col(2), c.col(0), c.col(1)]).unwrap();
        let base = associate(&data).unwrap();
        let reordered = associate(
            &PartyData::new(data.y().to_vec(), data.x().clone(), swapped).unwrap(),
        )
        .unwrap();
        let d = base.max_rel_diff(&reordered).unwrap();
        prop_assert!(d < 1e-8, "diff {d}");
    }

    #[test]
    fn adding_pure_noise_covariate_never_flips_everything(seed in 0u64..200) {
        // Adding one covariate costs one df and perturbs estimates, but
        // finite results stay finite and df drops by exactly 1.
        let data = dataset(30, 3, 1, seed);
        let base = associate(&data).unwrap();
        let extra = dataset(30, 1, 1, seed.wrapping_add(9999));
        let c_new = Matrix::from_cols(&[data.c().col(0), extra.x().col(0)]).unwrap();
        let wider = associate(
            &PartyData::new(data.y().to_vec(), data.x().clone(), c_new).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(wider.df + 1, base.df);
        prop_assert!(wider.beta.iter().all(|b| b.is_finite()));
    }
}
