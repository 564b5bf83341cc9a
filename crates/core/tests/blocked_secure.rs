//! Block-size invariance of the secure scan. There is one pipeline — the
//! y round, then the variants in blocks of B — and `block_size: None` is
//! its one-block case. Fixed-point secure sums are exact per element, PRG
//! masks cancel exactly however the summand vector is split across
//! rounds, and Beaver triples are consumed two per variant in ascending
//! order; so every B ∈ {1, odd divisor, non-divisor, M, > M, None}, in
//! every security mode, party count and thread count, must give the same
//! **bits** as B = M, the same unscoped traffic, and the same per-party
//! disclosure entries — and B = M itself is anchored to per-variant OLS.
//!
//! CI bounds the property test's case count via the `DASH_BLOCKED_CASES`
//! environment variable (see `scripts/check.sh`).

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::{pool_parties, PartyData};
use dash_core::scan::per_variant_ols;
use dash_core::secure::{
    secure_scan, AggregationMode, RFactorMode, SecureScanConfig, SecureScanOutput, SummandSource,
};
use dash_core::suffstats::VariantSummands;
use dash_core::{CoreError, ScanResult};
use dash_linalg::Matrix;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    sizes
        .iter()
        .map(|&n| {
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = Matrix::from_fn(n, m, |_, _| next());
            let c = Matrix::from_fn(n, k, |_, _| next());
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

/// Bitwise equality, treating NaN (degenerate variants) as equal to
/// itself — `assert_eq!` on f64 would reject NaN == NaN.
fn assert_bits_eq(got: &ScanResult, want: &ScanResult, what: &str) {
    assert_eq!(got.df, want.df, "{what}: df");
    assert_eq!(got.n_degenerate, want.n_degenerate, "{what}: n_degenerate");
    for (name, g, w) in [
        ("beta", &got.beta, &want.beta),
        ("se", &got.se, &want.se),
        ("t", &got.t, &want.t),
        ("p", &got.p, &want.p),
    ] {
        assert_eq!(g.len(), w.len(), "{what}: {name} length");
        for (j, (a, b)) in g.iter().zip(w.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}[{j}] {a} vs {b}");
        }
    }
}

fn run(parties: &[PartyData], cfg: &SecureScanConfig) -> SecureScanOutput {
    secure_scan(parties, cfg).unwrap()
}

/// Parties run on threads, so the interleaving of log entries across
/// parties is nondeterministic — compare as a sorted multiset.
fn disclosures(out: &SecureScanOutput) -> Vec<(Option<usize>, String, usize)> {
    let mut v: Vec<_> = out
        .disclosures
        .iter()
        .map(|d| (d.source_party, d.label.clone(), d.scalars))
        .collect();
    v.sort();
    v
}

/// Bytes outside the block rounds: the count, R-factor and y rounds.
fn unscoped_bytes(out: &SecureScanOutput) -> u64 {
    out.network.total_bytes - out.per_block_bytes.iter().sum::<u64>()
}

const ALL_RF: [RFactorMode; 3] = [
    RFactorMode::PublicStack,
    RFactorMode::PairwiseTree,
    RFactorMode::GramAggregate,
];
const ALL_AGG: [AggregationMode; 4] = [
    AggregationMode::Public,
    AggregationMode::MaskedPrg,
    AggregationMode::MaskedStar,
    AggregationMode::BeaverDots,
];

/// Every block size (and every thread count) against the one-block run
/// B = M: same bits, one traffic entry per block, same unscoped traffic,
/// same per-party disclosure entries; and a single block — however it is
/// asked for — is the same run down to the byte and the log entry.
fn check_invariance(parties: &[PartyData], m: usize, base: SecureScanConfig, what: &str) {
    let one = run(
        parties,
        &SecureScanConfig {
            block_size: Some(m),
            ..base
        },
    );
    assert_eq!(one.per_block_bytes.len(), 1, "{what}: B = M is one block");
    let per_party = |out: &SecureScanOutput| -> Vec<_> {
        disclosures(out)
            .into_iter()
            .filter(|d| d.0.is_some())
            .collect()
    };
    for block in [Some(1), Some(3), Some(4), Some(m), Some(m + 3), None] {
        for threads in [1, 3] {
            let what = format!("{what} block={block:?} threads={threads}");
            let out = run(
                parties,
                &SecureScanConfig {
                    block_size: block,
                    threads,
                    ..base
                },
            );
            assert_bits_eq(&out.result, &one.result, &what);
            assert_eq!(
                out.per_block_bytes.len(),
                m.div_ceil(block.unwrap_or(m)),
                "{what}: one traffic entry per block"
            );
            assert!(
                out.per_block_bytes.iter().all(|&b| b > 0),
                "{what}: every block round moves bytes"
            );
            assert_eq!(
                unscoped_bytes(&out),
                unscoped_bytes(&one),
                "{what}: traffic outside the block rounds does not depend on B"
            );
            assert_eq!(
                per_party(&out),
                per_party(&one),
                "{what}: per-party disclosure entries"
            );
            if block.is_none_or(|b| b >= m) {
                assert_eq!(out.network.total_bytes, one.network.total_bytes, "{what}");
                assert_eq!(
                    out.network.total_messages, one.network.total_messages,
                    "{what}"
                );
                assert_eq!(out.per_block_bytes, one.per_block_bytes, "{what}");
                assert_eq!(disclosures(&out), disclosures(&one), "{what}");
            }
        }
    }
}

/// The full mode matrix, three parties.
#[test]
fn block_size_invariant_across_modes() {
    let m = 6;
    let parties = gen_parties(&[14, 19, 12], m, 2, 41);
    for rf in ALL_RF {
        for agg in ALL_AGG {
            let base = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 23,
                ..SecureScanConfig::default()
            };
            check_invariance(&parties, m, base, &format!("{rf:?}/{agg:?}"));
        }
    }
}

/// Party counts 2 and 4 (the matrix above covers 3).
#[test]
fn block_size_invariant_for_two_and_four_parties() {
    for (sizes, seed) in [(&[20, 15][..], 7u64), (&[9, 14, 11, 16][..], 8)] {
        let parties = gen_parties(sizes, 5, 2, seed);
        for agg in [AggregationMode::MaskedStar, AggregationMode::BeaverDots] {
            let base = SecureScanConfig {
                rfactor: RFactorMode::GramAggregate,
                aggregation: agg,
                seed,
                ..SecureScanConfig::default()
            };
            check_invariance(&parties, 5, base, &format!("p={} {agg:?}", sizes.len()));
        }
    }
}

/// The anchor: the one-block run agrees with per-variant OLS on the
/// pooled rows (the `lm()` loop of the paper's R demo) in every mode.
#[test]
fn one_block_matches_per_variant_ols() {
    let m = 7;
    let parties = gen_parties(&[22, 17, 21], m, 2, 55);
    let oracle = per_variant_ols(&pool_parties(&parties).unwrap()).unwrap();
    for rf in ALL_RF {
        for agg in ALL_AGG {
            let cfg = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                block_size: Some(m),
                seed: 17,
                ..SecureScanConfig::default()
            };
            let d = run(&parties, &cfg).result.max_rel_diff(&oracle).unwrap();
            assert!(
                d < 2e-5,
                "{rf:?}/{agg:?}: one block vs per-variant OLS: {d}"
            );
        }
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn result_hash(r: &ScanResult) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, &(r.df as u64).to_le_bytes());
    fnv(&mut h, &(r.n_degenerate as u64).to_le_bytes());
    for v in [&r.beta, &r.se, &r.t, &r.p] {
        for x in v.iter() {
            fnv(&mut h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

fn accounting_hash(h: &mut u64, out: &SecureScanOutput) {
    fnv(h, &out.network.total_bytes.to_le_bytes());
    fnv(h, &out.network.total_messages.to_le_bytes());
    for b in &out.per_block_bytes {
        fnv(h, &b.to_le_bytes());
    }
    for (p, label, n) in disclosures(out) {
        fnv(h, &(p.map_or(u64::MAX, |p| p as u64)).to_le_bytes());
        fnv(h, label.as_bytes());
        fnv(h, &(n as u64).to_le_bytes());
    }
}

/// Recorded at the last commit that still had a separate whole-M secure
/// round (7810402), on `gen_parties(&[14, 19, 12], 6, 2, 41)`, seed 23,
/// one row per `ALL_RF × ALL_AGG` combination in that order:
/// `(result_hash of that round's ScanResult, accounting_hash folded over
/// the Some(B) runs for B in [1, 3, 4, 6, 9])`. The recording had fifteen
/// rows; the three of the retired share-based rung (result hash
/// `0x0fe858ea9cdb4217`, the masked sums' own) left with it, the other
/// twelve are as recorded.
const BEFORE_ONE_PIPELINE: [(u64, u64); 12] = [
    (0x76cf6ff752ee757e, 0x71ee7d95adbefd83),
    (0x0fe858ea9cdb4217, 0x0fb1252d26ff50e1),
    (0x0fe858ea9cdb4217, 0x7a3de6863fe75c59),
    (0xf67daa89f4c67e44, 0x8e517d26d86bc19a),
    (0x76cf6ff752ee757e, 0x36b2c3515258dff2),
    (0x0fe858ea9cdb4217, 0x05fc89a99922fd7c),
    (0x0fe858ea9cdb4217, 0xf735f4b1acdc1114),
    (0xf67daa89f4c67e44, 0xaf43fc8c86ce6c71),
    (0xb217cf4d00cb3b0f, 0xb5efc17f37300ef1),
    (0x0fe858ea9cdb4217, 0x73c84079b60af1b7),
    (0x0fe858ea9cdb4217, 0xd76b1e8f6ab9ac29),
    (0xf67daa89f4c67e44, 0x77cc788938612544),
];

/// Deleting the whole-M round moved no bit: `None` and `Some(M)` give the
/// `ScanResult` that round gave, and for `Some(B)` the traffic totals,
/// per-block bytes and disclosure multisets are what they were. A change
/// of the kernel's summation order re-records the first column.
#[test]
fn bits_and_accounting_unchanged_from_the_whole_m_round() {
    let m = 6;
    let parties = gen_parties(&[14, 19, 12], m, 2, 41);
    let mut rows = BEFORE_ONE_PIPELINE.iter();
    for rf in ALL_RF {
        for agg in ALL_AGG {
            let &(want_result, want_accounting) = rows.next().unwrap();
            let base = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 23,
                ..SecureScanConfig::default()
            };
            for block in [None, Some(m)] {
                let out = run(
                    &parties,
                    &SecureScanConfig {
                        block_size: block,
                        ..base
                    },
                );
                assert_eq!(
                    result_hash(&out.result),
                    want_result,
                    "{rf:?}/{agg:?} block={block:?}: result bits"
                );
            }
            let mut accounting = FNV_OFFSET;
            for block in [1, 3, 4, m, m + 3] {
                let out = run(
                    &parties,
                    &SecureScanConfig {
                        block_size: Some(block),
                        ..base
                    },
                );
                accounting_hash(&mut accounting, &out);
            }
            assert_eq!(
                accounting, want_accounting,
                "{rf:?}/{agg:?}: traffic, per-block bytes, disclosures"
            );
        }
    }
}

/// A [`SummandSource`] that counts how often each variant column is
/// asked for.
struct Counting<'a> {
    inner: &'a PartyData,
    visits: Vec<AtomicUsize>,
}

impl SummandSource for Counting<'_> {
    fn n_samples(&self) -> usize {
        self.inner.n_samples()
    }
    fn n_variants(&self) -> usize {
        self.inner.n_variants()
    }
    fn covariates(&self) -> &Matrix {
        self.inner.c()
    }
    fn y_summands(&self, q: &Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        self.inner.y_summands(q)
    }
    fn summands_block(
        &self,
        q: &Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<VariantSummands, CoreError> {
        for v in &self.visits[lo..hi] {
            v.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.summands_block(q, lo, hi)
    }
}

/// Regression: a source without a native block path used to recompute
/// all M variants once per block (and once more for the y round). A scan
/// must ask for each variant column exactly once, whatever the block
/// size and thread count.
#[test]
fn every_block_size_visits_each_column_exactly_once() {
    let m = 10;
    let parties = gen_parties(&[12, 15, 9], m, 2, 3);
    for block in [Some(1), Some(3), Some(4), Some(m), Some(m + 3), None] {
        for threads in [1, 3] {
            let counting: Vec<Counting<'_>> = parties
                .iter()
                .map(|p| Counting {
                    inner: p,
                    visits: (0..m).map(|_| AtomicUsize::new(0)).collect(),
                })
                .collect();
            let cfg = SecureScanConfig {
                block_size: block,
                threads,
                ..SecureScanConfig::default()
            };
            secure_scan(&counting, &cfg).unwrap();
            for (i, c) in counting.iter().enumerate() {
                let visits: Vec<usize> =
                    c.visits.iter().map(|v| v.load(Ordering::Relaxed)).collect();
                assert_eq!(
                    visits,
                    vec![1; m],
                    "party {i} block={block:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn zero_block_size_and_zero_threads_rejected() {
    let parties = gen_parties(&[10, 10], 2, 1, 1);
    let cfg = SecureScanConfig {
        block_size: Some(0),
        ..SecureScanConfig::default()
    };
    assert!(matches!(
        secure_scan(&parties, &cfg),
        Err(CoreError::BadConfig { .. })
    ));
    let cfg = SecureScanConfig {
        threads: 0,
        ..SecureScanConfig::default()
    };
    assert!(matches!(
        secure_scan(&parties, &cfg),
        Err(CoreError::BadConfig { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(6, "DASH_BLOCKED_CASES"))]

    /// Randomized partitions, shapes, modes, and block sizes: every run
    /// gives the bits of the one-block run.
    #[test]
    fn any_block_size_equals_one_block_bitwise(
        sizes in proptest::collection::vec(6usize..25, 2..5),
        m in 1usize..11,
        k in 0usize..4,
        block in 1usize..14,
        threads in 1usize..5,
        seed in 0u64..1000,
        agg_idx in 0usize..ALL_AGG.len(),
    ) {
        let total: usize = sizes.iter().sum();
        prop_assume!(total > k + 3);
        let parties = gen_parties(&sizes, m, k, seed);
        let base = SecureScanConfig {
            aggregation: ALL_AGG[agg_idx],
            seed,
            ..SecureScanConfig::default()
        };
        let one = secure_scan(&parties, &base).unwrap();
        let blocked = secure_scan(&parties, &SecureScanConfig {
            block_size: Some(block),
            threads,
            ..base
        }).unwrap();
        prop_assert_eq!(blocked.result.df, one.result.df);
        prop_assert_eq!(blocked.result.n_degenerate, one.result.n_degenerate);
        for j in 0..m {
            prop_assert_eq!(blocked.result.beta[j].to_bits(), one.result.beta[j].to_bits(),
                "beta[{}] {} vs {}", j, blocked.result.beta[j], one.result.beta[j]);
            prop_assert_eq!(blocked.result.se[j].to_bits(), one.result.se[j].to_bits());
            prop_assert_eq!(blocked.result.t[j].to_bits(), one.result.t[j].to_bits());
            prop_assert_eq!(blocked.result.p[j].to_bits(), one.result.p[j].to_bits());
        }
    }
}
