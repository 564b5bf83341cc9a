//! Property-based integration tests: the secure scan must equal the
//! pooled plaintext scan for *any* admissible partition of the rows, and
//! its traffic must depend on M but never on N.

use dash_core::model::{pool_parties, PartyData};
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, AggregationMode, RFactorMode, SecureScanConfig};
use dash_gwas::pheno::{normal_matrix, normal_vec};
use dash_mpc::{CrashPoint, FaultPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn make_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut rng = StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .map(|&n| {
            let y = normal_vec(n, &mut rng);
            let x = normal_matrix(n, m, &mut rng);
            let c = normal_matrix(n, k, &mut rng);
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn secure_equals_pooled_for_random_partitions(
        sizes in proptest::collection::vec(8usize..40, 1..5),
        m in 1usize..12,
        k in 0usize..4,
        seed in 0u64..1000,
        mode_idx in 0usize..4,
    ) {
        let total: usize = sizes.iter().sum();
        prop_assume!(total > k + 3);
        let parties = make_parties(&sizes, m, k, seed);
        let reference = associate(&pool_parties(&parties).unwrap()).unwrap();
        let agg = [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ][mode_idx];
        let cfg = SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: agg,
            seed,
            ..SecureScanConfig::default()
        };
        let out = secure_scan(&parties, &cfg).unwrap();
        let d = out.result.max_rel_diff(&reference).unwrap();
        prop_assert!(d < 1e-4, "partition {sizes:?}, {agg:?}: diff {d}");
    }

    #[test]
    fn partition_invariance(
        cut_fracs in proptest::collection::vec(0.1f64..0.9, 1..3),
        seed in 0u64..1000,
    ) {
        // The same pooled rows split two different ways must give the
        // same secure results (up to fixed-point noise).
        let n = 60;
        let m = 8;
        let k = 2;
        let pooled = make_parties(&[n], m, k, seed).pop().unwrap();
        let split_at = |fracs: &[f64]| -> Vec<PartyData> {
            let mut cuts: Vec<usize> = fracs.iter().map(|f| (f * n as f64) as usize).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut parts = Vec::new();
            let mut start = 0;
            for &c in cuts.iter().chain(std::iter::once(&n)) {
                if c > start {
                    parts.push(PartyData::new(
                        pooled.y()[start..c].to_vec(),
                        pooled.x().row_block(start, c),
                        pooled.c().row_block(start, c),
                    ).unwrap());
                    start = c;
                }
            }
            parts
        };
        let a = split_at(&cut_fracs);
        let b = split_at(&[0.5]);
        let cfg = SecureScanConfig::paper_default(seed);
        let ra = secure_scan(&a, &cfg).unwrap().result;
        let rb = secure_scan(&b, &cfg).unwrap().result;
        let d = ra.max_rel_diff(&rb).unwrap();
        prop_assert!(d < 1e-6, "partitions disagree: {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Under injected network faults, every aggregation mode and party
    /// count must either finish with the pooled-plaintext statistics or
    /// return a structured MPC error — never hang, never panic.
    #[test]
    fn faulty_networks_finish_or_fail_structured(
        p in 2usize..=5,
        mode_idx in 0usize..4,
        fault_idx in 0usize..3,
        fault_seed in 0u64..1_000,
    ) {
        let sizes = vec![15; p];
        let parties = make_parties(&sizes, 3, 1, 21);
        let reference = associate(&pool_parties(&parties).unwrap()).unwrap();
        let agg = [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ][mode_idx];
        let faults = match fault_idx {
            // Pure delays: every message still arrives, so the run must
            // succeed despite the jitter.
            0 => FaultPlan {
                seed: fault_seed,
                delay_prob: 0.4,
                ..FaultPlan::default()
            },
            // Drops: the victim link loses a frame; the receive deadline
            // converts that into a structured timeout (or a tag mismatch
            // when a later frame fills the sequence slot).
            1 => FaultPlan {
                seed: fault_seed,
                drop_prob: 0.04,
                ..FaultPlan::default()
            },
            // Crash: one party dies after a few sends; all survivors
            // must come back with errors before the deadline.
            _ => FaultPlan {
                seed: fault_seed,
                crash: Some(CrashPoint {
                    party: (fault_seed as usize) % p,
                    after_sends: fault_seed % 5,
                }),
                ..FaultPlan::default()
            },
        };
        let cfg = SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: agg,
            seed: 21,
            deadline_ms: 500,
            faults: Some(faults),
            ..SecureScanConfig::default()
        };
        match secure_scan(&parties, &cfg) {
            Ok(out) => {
                let d = out.result.max_rel_diff(&reference).unwrap();
                prop_assert!(d < 1e-4, "p={p}, {agg:?}, fault {fault_idx}: diff {d}");
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, dash_core::CoreError::Mpc(_)),
                    "p={p}, {agg:?}, fault {fault_idx}: non-MPC error {e}"
                );
                prop_assert!(
                    fault_idx != 0,
                    "p={p}, {agg:?}: delay-only faults must not fail, got {e}"
                );
            }
        }
    }
}

#[test]
fn traffic_depends_on_m_not_n() {
    let cfg = SecureScanConfig::paper_default(4);
    let bytes = |sizes: &[usize], m: usize| {
        let parties = make_parties(sizes, m, 2, 4);
        secure_scan(&parties, &cfg).unwrap().network.total_bytes
    };
    // N quadrupled: identical bytes.
    assert_eq!(bytes(&[30, 30], 64), bytes(&[120, 120], 64));
    // M quadrupled: roughly 4x bytes.
    let b1 = bytes(&[30, 30], 64) as f64;
    let b4 = bytes(&[30, 30], 256) as f64;
    assert!((3.0..5.0).contains(&(b4 / b1)), "ratio {}", b4 / b1);
}

#[test]
fn mid_protocol_failure_at_one_party_fails_the_run_cleanly() {
    // Party 1's data overflows the fixed-point encoder during the
    // aggregation phase (after the QR phase succeeded). The whole run
    // must return an error — and terminate, not deadlock on the parties
    // waiting for party 1's messages.
    let mut parties = make_parties(&[20, 20, 20], 4, 2, 11);
    let huge: Vec<f64> = parties[1].y().iter().map(|v| v * 1e300).collect();
    parties[1] = PartyData::new(huge, parties[1].x().clone(), parties[1].c().clone()).unwrap();
    let cfg = SecureScanConfig::paper_default(11);
    let err = secure_scan(&parties, &cfg).unwrap_err();
    // Either the overflow itself or the resulting closed channel at a
    // peer — both are Mpc-layer failures surfaced as typed errors.
    assert!(
        matches!(err, dash_core::CoreError::Mpc(_)),
        "unexpected error: {err}"
    );
}

#[test]
fn beaver_mode_handles_extreme_scales() {
    // The Beaver normalization trick keeps the *field* products in range
    // for any data scale; the ring codec for the opened left-hand sums
    // must still be configured for the data's magnitude (its fixed-point
    // range is explicit API). Choose frac bits per scale as an operator
    // would.
    for (scale, ring_bits) in [(1e-6, 50u32), (1.0, 28), (1e6, 16)] {
        let mut parties = make_parties(&[25, 25], 4, 2, 9);
        parties = parties
            .into_iter()
            .map(|p| {
                let y: Vec<f64> = p.y().iter().map(|v| v * scale).collect();
                let mut x = p.x().clone();
                x.scale(scale);
                PartyData::new(y, x, p.c().clone()).unwrap()
            })
            .collect();
        let reference = associate(&pool_parties(&parties).unwrap()).unwrap();
        let cfg = SecureScanConfig {
            aggregation: AggregationMode::BeaverDots,
            ring_frac_bits: ring_bits,
            seed: 9,
            ..SecureScanConfig::default()
        };
        let out = secure_scan(&parties, &cfg).unwrap();
        // t and p are scale-invariant; compare those.
        for j in 0..4 {
            let dt = (out.result.t[j] - reference.t[j]).abs() / (1.0 + reference.t[j].abs());
            assert!(dt < 1e-3, "scale {scale}, variant {j}: t diff {dt}");
        }
    }
}
