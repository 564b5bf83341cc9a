//! Integration tests for the disclosure (leakage) ladder: each security
//! mode must open exactly the class of values its contract promises.

use dash_core::model::PartyData;
use dash_core::secure::{secure_scan, AggregationMode, RFactorMode, SecureScanConfig};
use dash_gwas::pheno::{normal_matrix, normal_vec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn parties(p: usize, n: usize, m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..p)
        .map(|_| {
            let y = normal_vec(n, &mut rng);
            let x = normal_matrix(n, m, &mut rng);
            let c = normal_matrix(n, k, &mut rng);
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

fn run(rf: RFactorMode, agg: AggregationMode) -> dash_core::secure::SecureScanOutput {
    let cfg = SecureScanConfig {
        rfactor: rf,
        aggregation: agg,
        seed: 3,
        ..SecureScanConfig::default()
    };
    secure_scan(&parties(4, 30, 6, 3, 3), &cfg).unwrap()
}

fn per_party_scalars(out: &dash_core::secure::SecureScanOutput) -> usize {
    out.disclosures
        .iter()
        .filter(|d| d.source_party.is_some())
        .map(|d| d.scalars)
        .sum()
}

#[test]
fn strict_mode_discloses_nothing_per_party() {
    let out = run(RFactorMode::GramAggregate, AggregationMode::BeaverDots);
    assert_eq!(per_party_scalars(&out), 0);
    // Everything opened is an aggregate with a descriptive label.
    for d in &out.disclosures {
        assert!(
            d.source_party.is_none(),
            "unexpected per-party opening: {d}"
        );
        assert!(!d.label.is_empty());
    }
}

#[test]
fn public_stack_leaks_exactly_one_r_per_party() {
    let out = run(RFactorMode::PublicStack, AggregationMode::MaskedPrg);
    let r_leaks: Vec<_> = out
        .disclosures
        .iter()
        .filter(|d| d.source_party.is_some())
        .collect();
    assert_eq!(r_leaks.len(), 4); // one per party
    for d in &r_leaks {
        // K = 3 triangle has 6 distinct scalars.
        assert_eq!(d.scalars, 6, "{d}");
        assert!(d.label.contains("R factor"), "{d}");
    }
}

#[test]
fn tree_mode_leaks_only_to_parents() {
    let out = run(RFactorMode::PairwiseTree, AggregationMode::MaskedPrg);
    // P = 4 tree: parties 1, 2, 3 send combined factors; party 0 never
    // discloses.
    let sources: Vec<usize> = out
        .disclosures
        .iter()
        .filter_map(|d| d.source_party)
        .collect();
    assert_eq!(sources.len(), 3);
    assert!(!sources.contains(&0));
}

#[test]
fn public_aggregation_is_the_worst_rung() {
    let public = per_party_scalars(&run(RFactorMode::PublicStack, AggregationMode::Public));
    let masked = per_party_scalars(&run(RFactorMode::PublicStack, AggregationMode::MaskedPrg));
    let strict = per_party_scalars(&run(
        RFactorMode::GramAggregate,
        AggregationMode::BeaverDots,
    ));
    assert!(public > masked);
    assert!(masked > strict);
    assert_eq!(strict, 0);
}

#[test]
fn beaver_opens_dot_products_not_k_vectors() {
    let m = 6;
    let out = run(RFactorMode::GramAggregate, AggregationMode::BeaverDots);
    // The projected-statistics openings must be 1 + 2M scalars (dot
    // products), not the (M+1)K scalars of the K-vector aggregates.
    let scalars_of = |label: &str| -> usize {
        out.disclosures
            .iter()
            .filter(|d| d.label.contains(label))
            .map(|d| d.scalars)
            .sum()
    };
    assert_eq!(scalars_of("projected response dot product"), 1);
    assert_eq!(scalars_of("per-variant projected dot products"), 2 * m);
    assert_eq!(scalars_of("aggregate y·y, Qᵀy"), 0);
    assert_eq!(scalars_of("aggregate variant-block statistics"), 0);
}

#[test]
fn masked_mode_opens_the_y_side_once_and_every_variant_once() {
    let m = 6;
    let k = 3;
    let out = run(RFactorMode::GramAggregate, AggregationMode::MaskedPrg);
    let entries = |label: &str| -> Vec<usize> {
        out.disclosures
            .iter()
            .filter(|d| d.label.contains(label))
            .map(|d| d.scalars)
            .collect()
    };
    assert_eq!(entries("aggregate y·y, Qᵀy"), [1 + k]);
    assert_eq!(
        entries("aggregate variant-block statistics")
            .iter()
            .sum::<usize>(),
        m * (k + 2)
    );
}
