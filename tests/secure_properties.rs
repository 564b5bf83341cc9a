//! Property-based integration tests: the secure scan must equal the
//! pooled plaintext scan for *any* admissible partition of the rows, and
//! its traffic must depend on M but never on N.

use dash_core::model::{pool_parties, PartyData};
use dash_core::scan::associate;
use dash_core::secure::{
    secure_scan, AggregationMode, RFactorMode, SecureScanConfig, SummandSource,
};
use dash_core::{CoreError, VariantSummands};
use dash_gwas::pheno::{normal_matrix, normal_vec};
use dash_linalg::Matrix;
use dash_mpc::MpcError;
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

/// A party that may be slow or may crash. `delay` is slept before every
/// variant block; each block that reaches variant `fails_from` fails with
/// the fixed-point overflow a `y × 1e300` phenotype raises in the encoded
/// modes — raised after the y round and the QR phase in every mode,
/// including the public one, which encodes nothing.
struct MaybeFailing {
    data: PartyData,
    delay: std::time::Duration,
    fails_from: Option<usize>,
}

impl SummandSource for MaybeFailing {
    fn n_samples(&self) -> usize {
        self.data.n_samples()
    }
    fn n_variants(&self) -> usize {
        self.data.n_variants()
    }
    fn covariates(&self) -> &Matrix {
        self.data.c()
    }
    fn y_summands(&self, q: &Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        self.data.y_summands(q)
    }
    fn summands_block(
        &self,
        q: &Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<VariantSummands, CoreError> {
        std::thread::sleep(self.delay);
        if self.fails_from.is_some_and(|v| hi > v) {
            return Err(CoreError::Mpc(MpcError::FixedPointOverflow {
                value: 1e300,
                max_abs: 2f64.powi(35),
                frac_bits: 28,
            }));
        }
        self.data.summands_block(q, lo, hi)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One party fails mid-protocol. For every party count, aggregation
    /// mode and failing party, the whole run must return a typed MPC
    /// error within the deadline — not deadlock on the parties waiting
    /// for the failed party's messages, not panic.
    #[test]
    fn mid_protocol_failure_at_one_party_fails_the_run_cleanly(
        p in 2usize..=5,
        mode_idx in 0usize..4,
        victim_pick in 0usize..5,
    ) {
        let victim = victim_pick % p;
        let parties: Vec<MaybeFailing> = make_parties(&vec![20; p], 4, 2, 11)
            .into_iter()
            .enumerate()
            .map(|(i, data)| MaybeFailing {
                data,
                delay: std::time::Duration::ZERO,
                fails_from: (i == victim).then_some(0),
            })
            .collect();
        let agg = [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ][mode_idx];
        let cfg = SecureScanConfig {
            aggregation: agg,
            deadline_ms: 2_000,
            ..SecureScanConfig::paper_default(11)
        };
        let started = std::time::Instant::now();
        let err = secure_scan(&parties, &cfg);
        prop_assert!(
            matches!(err, Err(CoreError::Mpc(_))),
            "p={p}, {agg:?}, victim {victim}: {:?}",
            err.map(|_| "a healthy run")
        );
        prop_assert!(started.elapsed().as_millis() < 2_000, "p={p}, {agg:?}: hung");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Faults as the deployed links see them: a slow party, whose peers
    /// wait on its messages, or a party that crashes at a seeded block.
    /// Every aggregation mode and party count must either finish with the
    /// pooled-plaintext statistics or return a structured MPC error —
    /// never hang, never panic. (Socket-level drops and resets are
    /// recovered below the scan by the supervised link; `tcp_secure.rs`
    /// drives them through the chaos proxy.)
    #[test]
    fn faulty_networks_finish_or_fail_structured(
        p in 2usize..=5,
        mode_idx in 0usize..4,
        fault_idx in 0usize..2,
        fault_seed in 0u64..1_000,
    ) {
        let m = 6;
        let data = make_parties(&vec![15; p], m, 1, 21);
        let reference = associate(&pool_parties(&data).unwrap()).unwrap();
        let victim = (fault_seed as usize) % p;
        let parties: Vec<MaybeFailing> = data
            .into_iter()
            .enumerate()
            .map(|(i, data)| MaybeFailing {
                data,
                // Delays: every message still arrives, only late.
                delay: std::time::Duration::from_millis(if fault_idx == 0 {
                    (fault_seed + i as u64) % 4
                } else {
                    0
                }),
                // Crash: the victim dies at a seeded variant block.
                fails_from: (fault_idx == 1 && i == victim)
                    .then_some((fault_seed as usize / p) % m),
            })
            .collect();
        let agg = [
            AggregationMode::Public,
            AggregationMode::MaskedPrg,
            AggregationMode::MaskedStar,
            AggregationMode::BeaverDots,
        ][mode_idx];
        let cfg = SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: agg,
            seed: 21,
            deadline_ms: 2_000,
            block_size: Some(2),
            ..SecureScanConfig::default()
        };
        let started = std::time::Instant::now();
        match secure_scan(&parties, &cfg) {
            Ok(out) => {
                let d = out.result.max_rel_diff(&reference).unwrap();
                prop_assert!(d < 1e-4, "p={p}, {agg:?}, fault {fault_idx}: diff {d}");
                prop_assert!(
                    fault_idx == 0,
                    "p={p}, {agg:?}: a crashed party must fail the run"
                );
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, CoreError::Mpc(_)),
                    "p={p}, {agg:?}, fault {fault_idx}: non-MPC error {e}"
                );
                prop_assert!(
                    fault_idx != 0,
                    "p={p}, {agg:?}: delay-only faults must not fail, got {e}"
                );
            }
        }
        prop_assert!(started.elapsed().as_millis() < 2_000, "p={p}, {agg:?}: hung");
    }
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
