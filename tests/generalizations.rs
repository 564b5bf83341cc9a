//! Integration tests for the §5 generalizations, exercised across crate
//! boundaries (core algorithms + gwas workloads + mpc transport).

use dash_core::burden::{burden_parties, burden_scan, GeneSet};
use dash_core::lmm::{estimate_delta, lmm_scan, KinshipEigen};
use dash_core::logistic::secure_logistic_scan;
use dash_core::model::{pool_parties, PartyData};
use dash_core::multi::{multi_phenotype_scan, secure_multi_phenotype_scan, MultiPartyData};
use dash_core::online::{secure_online_scan, OnlineScan};
use dash_core::scan::associate;
use dash_core::secure::{secure_scan, RFactorMode, SecureScanConfig};
use dash_core::{CoreError, ScanResult};
use dash_gwas::pheno::{normal_matrix, normal_vec, sample_standard_normal};
use dash_linalg::{qr_thin, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut rng = StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .map(|&n| {
            PartyData::new(
                normal_vec(n, &mut rng),
                normal_matrix(n, m, &mut rng),
                normal_matrix(n, k, &mut rng),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn secure_burden_equals_pooled_burden() {
    let ps = parties(&[80, 120], 60, 2, 1);
    let sets = vec![
        GeneSet::uniform("a", &(0..20).collect::<Vec<_>>()),
        GeneSet::uniform("b", &(20..45).collect::<Vec<_>>()),
        GeneSet {
            name: "weighted".into(),
            variants: (45..60).map(|i| (i, 1.0 / (i as f64))).collect(),
        },
    ];
    let reference = burden_scan(&pool_parties(&ps).unwrap(), &sets).unwrap();
    let scored = burden_parties(&ps, &sets).unwrap();
    let secure = secure_scan(&scored, &SecureScanConfig::max_security(1)).unwrap();
    let d = secure.result.max_rel_diff(&reference).unwrap();
    assert!(d < 1e-4, "diff {d}");
}

#[test]
fn multi_phenotype_consistent_with_single_scans() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 120;
    let x = normal_matrix(n, 30, &mut rng);
    let c = normal_matrix(n, 2, &mut rng);
    let ys = normal_matrix(n, 4, &mut rng);
    let multi = multi_phenotype_scan(&ys, &x, &c).unwrap();
    for (t, result) in multi.iter().enumerate() {
        let single =
            associate(&PartyData::new(ys.col(t).to_vec(), x.clone(), c.clone()).unwrap()).unwrap();
        assert!(result.max_rel_diff(&single).unwrap() < 1e-10, "t={t}");
    }
}

#[test]
fn lmm_corrects_kinship_confounding() {
    // Low-rank "ancestry" kinship: two strong eigen-axes shared by the
    // variants and the phenotype. The plain scan inflates (every variant
    // correlates with y through the shared axes); whitening those axes
    // via the LMM restores calibration.
    let mut rng = StdRng::seed_from_u64(3);
    let n = 250;
    let n_axes = 2;
    let u = qr_thin(&normal_matrix(n, n, &mut rng)).unwrap().q;
    let mut s = vec![0.0; n];
    for sl in s.iter_mut().take(n_axes) {
        *sl = 25.0;
    }
    let kin = KinshipEigen::new(u.clone(), s.clone()).unwrap();
    // Confounded null variants: each loads on the ancestry axes plus iid
    // noise (no direct effect on y).
    let m = 150;
    let mut x = dash_linalg::Matrix::zeros(n, m);
    for j in 0..m {
        let col = x.col_mut(j);
        for v in col.iter_mut() {
            *v = sample_standard_normal(&mut rng);
        }
        for axis in 0..n_axes {
            let loading = 5.0 * sample_standard_normal(&mut rng);
            for (ci, ui) in col.iter_mut().zip(u.col(axis)) {
                *ci += loading * ui;
            }
        }
    }
    // Null phenotype: sigma_g^2 = 4 on the kinship (so axis sd = 10),
    // sigma_e^2 = 1 -> true delta = 4.
    let mut y: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
    for (axis, &sa) in s.iter().enumerate().take(n_axes) {
        let coef = (4.0f64 * sa).sqrt() * sample_standard_normal(&mut rng);
        for (yi, ui) in y.iter_mut().zip(u.col(axis)) {
            *yi += coef * ui;
        }
    }
    let c = normal_matrix(n, 1, &mut rng);
    let data = PartyData::new(y, x, c).unwrap();

    let plain = associate(&data).unwrap();
    let grid: Vec<f64> = (0..=24)
        .map(|i| 10f64.powf(-2.0 + i as f64 * 0.2))
        .collect();
    let delta = estimate_delta(&data, &kin, &grid).unwrap();
    let mixed = lmm_scan(&data, &kin, delta).unwrap();

    let lambda_plain = dash_gwas::power::lambda_gc(&plain.p);
    let lambda_mixed = dash_gwas::power::lambda_gc(&mixed.p);
    assert!(
        lambda_plain > 1.3,
        "construction should inflate the plain scan, got {lambda_plain}"
    );
    assert!(
        lambda_mixed < lambda_plain - 0.2,
        "plain {lambda_plain} vs mixed {lambda_mixed}"
    );
    assert!(
        (0.6..1.4).contains(&lambda_mixed),
        "mixed-model lambda {lambda_mixed}"
    );
}

#[test]
fn online_accumulators_match_batch_and_survive_reordering() {
    let mut rng = StdRng::seed_from_u64(4);
    let m = 50;
    let k = 2;
    let batches: Vec<PartyData> = (0..6)
        .map(|_| {
            PartyData::new(
                normal_vec(25, &mut rng),
                normal_matrix(25, m, &mut rng),
                normal_matrix(25, k, &mut rng),
            )
            .unwrap()
        })
        .collect();
    let reference = associate(&pool_parties(&batches).unwrap()).unwrap();

    // Forward order.
    let mut fwd = OnlineScan::new(m, k);
    for b in &batches {
        fwd.push_batch(b).unwrap();
    }
    // Reverse order: addition commutes.
    let mut rev = OnlineScan::new(m, k);
    for b in batches.iter().rev() {
        rev.push_batch(b).unwrap();
    }
    let rf = fwd.finalize().unwrap();
    let rr = rev.finalize().unwrap();
    assert!(rf.max_rel_diff(&reference).unwrap() < 1e-8);
    assert!(rr.max_rel_diff(&rf).unwrap() < 1e-10);

    // Secure merge of two accumulators (3 batches each) matches too.
    let mut a = OnlineScan::new(m, k);
    let mut b = OnlineScan::new(m, k);
    for batch in &batches[..3] {
        a.push_batch(batch).unwrap();
    }
    for batch in &batches[3..] {
        b.push_batch(batch).unwrap();
    }
    let (merged, _report) = secure_online_scan(&[a, b], &SecureScanConfig::default()).unwrap();
    assert!(merged.max_rel_diff(&reference).unwrap() < 1e-5);
}

type Driver = Box<dyn Fn(&SecureScanConfig) -> Result<Vec<u64>, CoreError>>;

/// The §5 secure drivers over `ps`, one row each, each reduced to the
/// bits of everything it returns.
fn section5_drivers(ps: &[PartyData]) -> Vec<(&'static str, Driver)> {
    let bits = |cols: &[&[f64]]| -> Vec<u64> {
        let all = cols.iter().flat_map(|c| c.iter());
        all.map(|v| v.to_bits()).collect()
    };
    let binary: Vec<PartyData> = ps
        .iter()
        .map(|p| {
            let y = p.y().iter().map(|&v| f64::from(v > 0.0)).collect();
            PartyData::new(y, p.x().clone(), p.c().clone()).unwrap()
        })
        .collect();
    let multi: Vec<MultiPartyData> = ps
        .iter()
        .map(|p| {
            let ys = Matrix::from_cols(&[p.y(), p.x().col(0)]).unwrap();
            MultiPartyData::new(ys, p.x().clone(), p.c().clone()).unwrap()
        })
        .collect();
    let online: Vec<OnlineScan> = ps
        .iter()
        .map(|p| {
            let mut acc = OnlineScan::new(p.n_variants(), p.c().cols());
            acc.push_batch(p).unwrap();
            acc
        })
        .collect();
    vec![
        (
            "logistic",
            Box::new(move |cfg| {
                let (r, _) = secure_logistic_scan(&binary, cfg)?;
                Ok(bits(&[&r.u, &r.v, &r.z, &r.p]))
            }),
        ),
        (
            "multi-phenotype",
            Box::new(move |cfg| {
                let rs = secure_multi_phenotype_scan(&multi, cfg)?;
                let cols = rs.iter().flat_map(|r| [&r.beta[..], &r.se, &r.t, &r.p]);
                Ok(bits(&cols.collect::<Vec<_>>()))
            }),
        ),
        (
            "online",
            Box::new(move |cfg| {
                let (r, _) = secure_online_scan(&online, cfg)?;
                Ok(bits(&[&r.beta, &r.se, &r.t, &r.p]))
            }),
        ),
    ]
}

/// The §5 secure drivers take a `SecureScanConfig`; its deadline must
/// reach the runner, and a run with one failing party must end in a
/// structured error inside it.
#[test]
fn section5_drivers_honour_deadline_and_fail_cleanly() {
    let ps = parties(&[40, 50, 45], 12, 2, 9);
    let short = SecureScanConfig {
        deadline_ms: 300,
        ..SecureScanConfig::default()
    };
    for (name, run) in section5_drivers(&ps) {
        let healthy = run(&SecureScanConfig::default()).unwrap();
        assert!(!healthy.is_empty(), "{name}");
        // The deadline is transport policy; it changes no bit.
        assert_eq!(run(&short).unwrap(), healthy, "{name}");
    }
    // Party 1's values overflow the fixed-point encoder mid-protocol.
    let mut failing = ps;
    let p1 = &failing[1];
    let (y, mut x) = (p1.y().iter().map(|v| v * 1e300).collect(), p1.x().clone());
    x.scale(1e300);
    failing[1] = PartyData::new(y, x, p1.c().clone()).unwrap();
    for (name, run) in section5_drivers(&failing) {
        // A structured error inside the deadline, not a panic, a hang,
        // or a silently healthy run.
        let started = std::time::Instant::now();
        let err = run(&short).expect_err(name);
        assert!(matches!(err, CoreError::Mpc(_)), "{name}: {err:?}");
        assert!(started.elapsed().as_secs() < 5, "{name} hung");
    }
}

/// The bits of every value a result holds, `df` and the degenerate count
/// first.
fn result_bits(r: &ScanResult) -> Vec<u64> {
    let head = [r.df as u64, r.n_degenerate as u64];
    let cols = [&r.beta, &r.se, &r.t, &r.p];
    head.into_iter()
        .chain(cols.iter().flat_map(|c| c.iter().map(|v| v.to_bits())))
        .collect()
}

/// FNV-1a over [`result_bits`].
fn result_hash(r: &ScanResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for word in result_bits(r) {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A T-phenotype scan is T single scans that share `X·X` and `QᵀX`: each
/// phenotype's result is `associate`'s on `(y_t, X, C)`, bit for bit.
#[test]
fn multi_phenotype_scan_is_associate_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(5);
    for (n, m, k, t) in [(61, 13, 2, 3), (40, 9, 0, 2), (37, 5, 4, 1)] {
        let x = normal_matrix(n, m, &mut rng);
        let c = normal_matrix(n, k, &mut rng);
        let ys = normal_matrix(n, t, &mut rng);
        let multi = multi_phenotype_scan(&ys, &x, &c).unwrap();
        assert_eq!(multi.len(), t);
        for (ti, result) in multi.iter().enumerate() {
            let data = PartyData::new(ys.col(ti).to_vec(), x.clone(), c.clone()).unwrap();
            let single = associate(&data).unwrap();
            assert_eq!(
                result_bits(result),
                result_bits(&single),
                "n={n} m={m} k={k} phenotype {ti}"
            );
        }
    }
}

/// The secure T-phenotype scan opens the same sums a secure scan per
/// phenotype opens: each phenotype's result is `secure_scan`'s on that
/// phenotype under the same configuration, bit for bit.
#[test]
fn secure_multi_phenotype_scan_is_secure_scan_bit_for_bit() {
    let ps = parties(&[23, 31, 19], 11, 2, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let extra: Vec<Vec<f64>> = ps
        .iter()
        .map(|p| normal_vec(p.n_samples(), &mut rng))
        .collect();
    let multi: Vec<MultiPartyData> = ps
        .iter()
        .zip(&extra)
        .map(|(p, e)| {
            let ys = Matrix::from_cols(&[p.y(), e]).unwrap();
            MultiPartyData::new(ys, p.x().clone(), p.c().clone()).unwrap()
        })
        .collect();
    for rfactor in [
        RFactorMode::PublicStack,
        RFactorMode::PairwiseTree,
        RFactorMode::GramAggregate,
    ] {
        let cfg = SecureScanConfig {
            rfactor,
            ..SecureScanConfig::paper_default(8)
        };
        let results = secure_multi_phenotype_scan(&multi, &cfg).unwrap();
        assert_eq!(results.len(), 2);
        for (ti, result) in results.iter().enumerate() {
            let single: Vec<PartyData> = multi
                .iter()
                .map(|p| PartyData::new(p.ys.col(ti).to_vec(), p.x.clone(), p.c.clone()).unwrap())
                .collect();
            let want = secure_scan(&single, &cfg).unwrap().result;
            assert_eq!(
                result_bits(result),
                result_bits(&want),
                "{rfactor:?} phenotype {ti}"
            );
        }
    }
}

/// `(OnlineScan::finalize, secure_online_scan)` result hashes on the
/// study of `online_scans_keep_their_bits`, recorded before the
/// reduction of summed statistics became one function.
const ONLINE_BEFORE_ONE_REDUCTION: (u64, u64) = (0x8b18950e2fbc9099, 0x9d597b3c7bb8ab1c);

/// The online scans keep their bits: the plaintext accumulator over
/// every batch, and the secure merge of two parties' accumulators.
#[test]
fn online_scans_keep_their_bits() {
    let mut rng = StdRng::seed_from_u64(10);
    let (m, k) = (17, 3);
    let batches: Vec<PartyData> = [21, 18, 26, 15]
        .iter()
        .map(|&n| {
            PartyData::new(
                normal_vec(n, &mut rng),
                normal_matrix(n, m, &mut rng),
                normal_matrix(n, k, &mut rng),
            )
            .unwrap()
        })
        .collect();
    let mut all = OnlineScan::new(m, k);
    let (mut a, mut b) = (OnlineScan::new(m, k), OnlineScan::new(m, k));
    for (i, batch) in batches.iter().enumerate() {
        all.push_batch(batch).unwrap();
        if i < 2 { &mut a } else { &mut b }
            .push_batch(batch)
            .unwrap();
    }
    let plain = all.finalize().unwrap();
    let (secure, _) = secure_online_scan(&[a, b], &SecureScanConfig::paper_default(11)).unwrap();
    assert_eq!(
        (result_hash(&plain), result_hash(&secure)),
        ONLINE_BEFORE_ONE_REDUCTION,
        "{:#018x} {:#018x}",
        result_hash(&plain),
        result_hash(&secure)
    );
}
