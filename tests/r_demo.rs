//! Integration test: the paper's §4 R demo, end to end.
//!
//! Full N = (1000, 2000, 1500) and K = 3 as in the paper; M reduced from
//! 10000 to 600 to keep the test-suite fast (the full-size run lives in
//! `exp1_correctness`). The assertions mirror `all.equal(df[1:M0,], df2)`.

use dash_core::model::pool_parties;
use dash_core::model::PartyData;
use dash_core::scan::{associate, associate_parallel, per_variant_ols};
use dash_core::secure::{secure_scan, AggregationMode, RFactorMode, SecureScanConfig};
use dash_gwas::pheno::{normal_matrix, normal_vec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn r_demo(m: usize, seed: u64) -> Vec<PartyData> {
    let mut rng = StdRng::seed_from_u64(seed);
    [1000usize, 2000, 1500]
        .iter()
        .map(|&n| {
            let y = normal_vec(n, &mut rng);
            let x = normal_matrix(n, m, &mut rng);
            let c = normal_matrix(n, 3, &mut rng);
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

#[test]
fn scan_equals_per_variant_lm() {
    let parties = r_demo(40, 0);
    let pooled = pool_parties(&parties).unwrap();
    let fast = associate(&pooled).unwrap();
    let oracle = per_variant_ols(&pooled).unwrap();
    let d = fast.max_rel_diff(&oracle).unwrap();
    assert!(d < 1e-9, "Lemma 2.1 scan vs lm(): {d}");
    assert_eq!(fast.df, 4500 - 3 - 1);
}

#[test]
fn secure_scan_equals_pooled_for_every_mode_combination() {
    let parties = r_demo(600, 1);
    let pooled = pool_parties(&parties).unwrap();
    let reference = associate(&pooled).unwrap();
    for rf in [
        RFactorMode::PublicStack,
        RFactorMode::PairwiseTree,
        RFactorMode::GramAggregate,
    ] {
        for agg in [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ] {
            let cfg = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 1,
                ..SecureScanConfig::default()
            };
            let out = secure_scan(&parties, &cfg).unwrap();
            let d = out.result.max_rel_diff(&reference).unwrap();
            assert!(d < 1e-6, "{rf:?}/{agg:?}: max rel diff {d}");
        }
    }
}

#[test]
fn parallel_scan_bitwise_equals_serial_at_demo_shape() {
    let parties = r_demo(200, 2);
    let pooled = pool_parties(&parties).unwrap();
    let serial = associate(&pooled).unwrap();
    for threads in [2, 5, 8] {
        let par = associate_parallel(&pooled, threads).unwrap();
        assert_eq!(par.beta, serial.beta);
        assert_eq!(par.p, serial.p);
    }
}

#[test]
fn p_values_behave_like_uniforms_under_the_null() {
    // All-null data: the p-value histogram should be flat-ish.
    let parties = r_demo(600, 3);
    let pooled = pool_parties(&parties).unwrap();
    let res = associate(&pooled).unwrap();
    let below_05 = res.p.iter().filter(|&&p| p < 0.05).count() as f64 / 600.0;
    assert!((0.015..0.1).contains(&below_05), "5% bucket: {below_05}");
    let lambda = dash_gwas::power::lambda_gc(&res.p);
    assert!((0.8..1.2).contains(&lambda), "lambda_GC: {lambda}");
}
