//! Property-based tests for the linear-algebra substrate.

use dash_linalg::{
    cholesky_upper, combine_r_factors, dot, gemm_at_b, invert_upper, qr_r_factor, qr_thin,
    scan_dots, solve_upper, tsqr_r, Matrix,
};
use proptest::prelude::*;

/// Strategy: a tall matrix with n in [k, k+16], k in [1, 6], entries in
/// [-10, 10].
fn tall_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=6).prop_flat_map(|k| {
        (k..k + 17).prop_flat_map(move |n| {
            proptest::collection::vec(-10.0f64..10.0, n * k)
                .prop_map(move |data| Matrix::from_column_major(n, k, data).unwrap())
        })
    })
}

/// Strategy: an SPD matrix built as BᵀB + I.
fn spd_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=5).prop_flat_map(|k| {
        proptest::collection::vec(-3.0f64..3.0, (k + 3) * k).prop_map(move |data| {
            let b = Matrix::from_column_major(k + 3, k, data).unwrap();
            let mut g = gemm_at_b(&b, &b).unwrap();
            for i in 0..k {
                let v = g.get(i, i);
                g.set(i, i, v + 1.0);
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_reconstruction_and_orthonormality(a in tall_matrix()) {
        let f = qr_thin(&a).unwrap();
        // QᵀQ = I
        let qtq = gemm_at_b(&f.q, &f.q).unwrap();
        let eye = Matrix::identity(a.cols());
        prop_assert!(qtq.max_abs_diff(&eye).unwrap() < 1e-9);
        // QR = A (relative to the magnitude of A)
        let qr = dash_linalg::ops::gemm(&f.q, &f.r).unwrap();
        let scale = 1.0 + dash_linalg::frobenius_norm(&a);
        prop_assert!(qr.max_abs_diff(&a).unwrap() / scale < 1e-10);
        // diag(R) >= 0
        for i in 0..a.cols() {
            prop_assert!(f.r.get(i, i) >= 0.0);
        }
    }

    #[test]
    fn r_factor_matches_gram_cholesky(a in tall_matrix()) {
        let r = qr_r_factor(&a).unwrap();
        let gram = gemm_at_b(&a, &a).unwrap();
        // Cholesky can legitimately fail when the random matrix is
        // near-rank-deficient; only compare when it succeeds.
        if let Ok(u) = cholesky_upper(&gram) {
            let scale = 1.0 + dash_linalg::frobenius_norm(&gram);
            prop_assert!(r.max_abs_diff(&u).unwrap() / scale < 1e-7);
        }
    }

    #[test]
    fn tsqr_agrees_with_pooled_qr(a in tall_matrix(), splits in 2usize..5) {
        let n = a.rows();
        let k = a.cols();
        // Only split when each part can stay tall.
        prop_assume!(n >= splits * k);
        let per = n / splits;
        let mut blocks = Vec::new();
        let mut start = 0;
        for i in 0..splits {
            let end = if i + 1 == splits { n } else { start + per };
            blocks.push(a.row_block(start, end));
            start = end;
        }
        let tree = tsqr_r(&blocks).unwrap();
        let direct = qr_r_factor(&a).unwrap();
        let scale = 1.0 + dash_linalg::frobenius_norm(&direct);
        prop_assert!(tree.max_abs_diff(&direct).unwrap() / scale < 1e-8);
    }

    #[test]
    fn combine_r_commutes(a in tall_matrix(), b_seed in 0u64..1000) {
        // R factor of [A; B] equals that of [B; A]: the paper's claim that
        // the R factors depend only on the product-preserving isometry orbit.
        let k = a.cols();
        let n = a.rows();
        let mut s = b_seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        };
        let b = Matrix::from_fn(n.max(k), k, |_, _| next());
        let ra = qr_r_factor(&a).unwrap();
        let rb = qr_r_factor(&b).unwrap();
        let ab = combine_r_factors(&ra, &rb).unwrap();
        let ba = combine_r_factors(&rb, &ra).unwrap();
        let scale = 1.0 + dash_linalg::frobenius_norm(&ab);
        prop_assert!(ab.max_abs_diff(&ba).unwrap() / scale < 1e-8);
    }

    #[test]
    fn upper_inverse_solves(u_src in spd_matrix()) {
        let u = cholesky_upper(&u_src).unwrap();
        let inv = invert_upper(&u).unwrap();
        let prod = dash_linalg::ops::gemm(&u, &inv).unwrap();
        let eye = Matrix::identity(u.rows());
        prop_assert!(prod.max_abs_diff(&eye).unwrap() < 1e-8);
    }

    #[test]
    fn solve_upper_residual(g in spd_matrix(), seed in 0u64..100) {
        let u = cholesky_upper(&g).unwrap();
        let n = u.rows();
        let b: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 7) as f64 - 3.0).collect();
        let x = solve_upper(&u, &b).unwrap();
        // U x should reproduce b.
        for (i, &bi) in b.iter().enumerate() {
            let mut s = 0.0;
            for (j, &xj) in x.iter().enumerate().take(n).skip(i) {
                s += u.get(i, j) * xj;
            }
            prop_assert!((s - bi).abs() < 1e-8 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn cholesky_diag_positive(g in spd_matrix()) {
        let u = cholesky_upper(&g).unwrap();
        for i in 0..u.rows() {
            prop_assert!(u.get(i, i) > 0.0);
        }
    }

    #[test]
    fn vstack_row_block_roundtrip(a in tall_matrix(), cut_frac in 0.0f64..1.0) {
        let n = a.rows();
        let cut = ((n as f64) * cut_frac) as usize;
        let top = a.row_block(0, cut);
        let bot = a.row_block(cut, n);
        let back = Matrix::vstack(&[&top, &bot]).unwrap();
        prop_assert_eq!(back, a);
    }
}

/// Row counts around every edge of the fused kernel: empty, shorter than
/// one lane group, each `rows mod 4` tail, and one row either side of a
/// row chunk and of a few chunks.
const SCAN_ROWS: [usize; 12] = [0, 1, 3, 4, 5, 63, 64, 65, 255, 256, 257, 1001];
const SCAN_TARGETS: [usize; 4] = [0, 1, 3, 16];
/// Wide enough that a range of up to 9 columns starts at every offset
/// within a panel and ends in every leftover count.
const SCAN_COLS: usize = 13;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The fused kernel is `dot`, bit for bit, for every (column, target)
    /// pair — whatever the panel a column lands in, the row count, or the
    /// number of targets. Entries span twelve decades so that any other
    /// summation order would change low bits.
    #[test]
    fn scan_dots_is_bit_equal_to_per_column_dot(seed in 0u64..1_000_000) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(5);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            u * 10f64.powi((s >> 7) as i32 % 7)
        };
        for n in SCAN_ROWS {
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = Matrix::from_fn(n, SCAN_COLS, |_, _| next());
            for k in SCAN_TARGETS {
                let a = Matrix::from_fn(n, k, |_, _| next());
                for lo in 0..=SCAN_COLS {
                    for hi in lo..=(lo + 9).min(SCAN_COLS) {
                        let got = scan_dots(&y, &a, &x, lo, hi).unwrap();
                        prop_assert_eq!(got.atx.shape(), (k, hi - lo));
                        for j in lo..hi {
                            let col = x.col(j);
                            let at = format!("n={n} k={k} [{lo}, {hi}) col {j}");
                            prop_assert_eq!(got.xy[j - lo].to_bits(), dot(col, &y).to_bits(), "xy {}", at);
                            prop_assert_eq!(got.xx[j - lo].to_bits(), dot(col, col).to_bits(), "xx {}", at);
                            for i in 0..k {
                                prop_assert_eq!(
                                    got.atx.get(i, j - lo).to_bits(),
                                    dot(a.col(i), col).to_bits(),
                                    "atx row {} {}", i, at
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
