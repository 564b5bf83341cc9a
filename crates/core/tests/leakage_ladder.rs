//! The leakage ladder must be invariant to the block size: splitting the
//! aggregation into more variant blocks changes *when* values open, but
//! must not change *what* leaks. For every rung of the mode matrix and
//! every block size (`None` is one block of M), the [`DisclosureLog`]
//! must account for exactly the leakage of the one-block run:
//!
//! - the per-party disclosures (the quantity the stricter modes drive to
//!   zero) are identical entry for entry — same party, same label, same
//!   scalar count;
//! - the aggregate disclosures total the same number of opened scalars
//!   (more blocks open the same values in more, smaller entries);
//! - the strictest rung (GramAggregate + a secure aggregation) leaks no
//!   per-party value at any block size.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::{
    secure_scan, AggregationMode, RFactorMode, SecureScanConfig, SecureScanOutput,
};
use dash_linalg::Matrix;
use dash_mpc::audit::Disclosure;

fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
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

/// Parties run on threads, so the interleaving of log entries across
/// parties is nondeterministic — compare as a sorted multiset.
fn sorted(mut entries: Vec<Disclosure>) -> Vec<(Option<usize>, String, usize)> {
    entries.sort_by(|a, b| {
        (a.source_party, &a.label, a.scalars).cmp(&(b.source_party, &b.label, b.scalars))
    });
    entries
        .into_iter()
        .map(|d| (d.source_party, d.label, d.scalars))
        .collect()
}

fn per_party(entries: &[Disclosure]) -> Vec<Disclosure> {
    entries
        .iter()
        .filter(|d| d.source_party.is_some())
        .cloned()
        .collect()
}

fn aggregate_scalars(entries: &[Disclosure]) -> usize {
    entries
        .iter()
        .filter(|d| d.source_party.is_none())
        .map(|d| d.scalars)
        .sum()
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

fn run(parties: &[PartyData], cfg: &SecureScanConfig) -> SecureScanOutput {
    secure_scan(parties, cfg).unwrap()
}

#[test]
fn leakage_identical_across_modes_and_block_sizes() {
    let m = 6;
    let k = 2;
    let parties = gen_parties(&[13, 18, 11], m, k, 77);
    for rf in ALL_RF {
        for agg in ALL_AGG {
            let base = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 29,
                ..SecureScanConfig::default()
            };
            let one = run(
                &parties,
                &SecureScanConfig {
                    block_size: Some(m),
                    ..base
                },
            );
            for block in [Some(1), Some(3), Some(4), Some(m + 3), None] {
                let what = format!("{rf:?}/{agg:?} block={block:?}");
                let blocked = run(
                    &parties,
                    &SecureScanConfig {
                        block_size: block,
                        ..base
                    },
                );
                // Per-party leakage: identical entry for entry.
                assert_eq!(
                    sorted(per_party(&blocked.disclosures)),
                    sorted(per_party(&one.disclosures)),
                    "{what}: per-party disclosures must match the one-block run"
                );
                // Aggregate leakage: same total opened scalars (one entry
                // per round, so entry counts legitimately differ).
                assert_eq!(
                    aggregate_scalars(&blocked.disclosures),
                    aggregate_scalars(&one.disclosures),
                    "{what}: aggregate scalars must match the one-block run"
                );
                // Public aggregation leaks whole summand vectors
                // per-party; splitting into blocks must not re-label or
                // re-size that disclosure.
                if agg == AggregationMode::Public {
                    assert!(
                        per_party(&blocked.disclosures)
                            .iter()
                            .any(|d| d.scalars == 1 + 2 * m + k + k * m),
                        "{what}: Public mode records the full summand vector once"
                    );
                }
            }
        }
    }
}

/// The top rung of the ladder must stay leak-free at any block size: with
/// aggregate-only R factors and any secure aggregation, *no* per-party
/// value opens.
#[test]
fn strictest_rung_leaks_nothing_per_party_at_any_block_size() {
    let parties = gen_parties(&[12, 15], 4, 2, 5);
    for agg in [
        AggregationMode::MaskedPrg,
        AggregationMode::MaskedStar,
        AggregationMode::BeaverDots,
    ] {
        let base = SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: agg,
            seed: 31,
            ..SecureScanConfig::default()
        };
        for block in [None, Some(2)] {
            let out = run(
                &parties,
                &SecureScanConfig {
                    block_size: block,
                    ..base
                },
            );
            let leaked = per_party(&out.disclosures);
            assert!(
                leaked.is_empty(),
                "{agg:?} block={block:?}: per-party disclosures {leaked:?}"
            );
        }
    }
}

/// Moving up the ladder never leaks more: per-party scalar counts are
/// monotonically non-increasing as the R-factor mode tightens, with one
/// block or several.
#[test]
fn ladder_monotone_at_any_block_size() {
    let parties = gen_parties(&[16, 13, 10], 5, 2, 13);
    for block in [None, Some(2)] {
        let mut prev: Option<usize> = None;
        for rf in ALL_RF {
            let out = run(
                &parties,
                &SecureScanConfig {
                    rfactor: rf,
                    aggregation: AggregationMode::MaskedPrg,
                    seed: 3,
                    block_size: block,
                    ..SecureScanConfig::default()
                },
            );
            let leaked: usize = per_party(&out.disclosures).iter().map(|d| d.scalars).sum();
            if let Some(p) = prev {
                assert!(
                    leaked <= p,
                    "{rf:?} block={block:?}: leaked {leaked} > previous rung {p}"
                );
            }
            prev = Some(leaked);
        }
    }
}
