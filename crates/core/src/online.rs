//! Online (batched) association scans.
//!
//! The paper's preface imagines secure GWAS "done on a public cloud in
//! online fashion as new batches of samples come online". §5 supplies the
//! mechanism: compressing with `Cᵀ` instead of `Qᵀ` keeps every statistic
//! additive — including the K×K Gram block — so batches merge by plain
//! addition and orthonormalization happens once, at query time.

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use crate::suffstats::CtStats;
use dash_linalg::Matrix;
use dash_mpc::protocol::masked::masked_sum_f64;

use crate::secure::{run_in_process, NetworkReport, SecureScanConfig};

/// A streaming scan accumulator: feed batches of rows, finalize whenever
/// a result is wanted. Finalization does not consume the accumulator, so
/// interim results as batches arrive are cheap (O(K²M), no pass over raw
/// rows).
#[derive(Debug, Clone)]
pub struct OnlineScan {
    acc: CtStats,
    m: usize,
    k: usize,
}

impl OnlineScan {
    /// Creates an empty accumulator for M variants and K covariates.
    pub fn new(m: usize, k: usize) -> Self {
        OnlineScan {
            acc: CtStats::zeros(m, k),
            m,
            k,
        }
    }

    /// Number of samples absorbed so far.
    pub fn n_samples(&self) -> usize {
        self.acc.n
    }

    /// Absorbs one batch of rows.
    pub fn push_batch(&mut self, batch: &PartyData) -> Result<(), CoreError> {
        if batch.n_variants() != self.m {
            return Err(CoreError::ShapeMismatch {
                what: "online batch variants",
                expected: self.m,
                got: batch.n_variants(),
            });
        }
        if batch.n_covariates() != self.k {
            return Err(CoreError::ShapeMismatch {
                what: "online batch covariates",
                expected: self.k,
                got: batch.n_covariates(),
            });
        }
        let stats = CtStats::local(batch.y(), batch.x(), batch.c())?;
        self.acc.add_assign(&stats)
    }

    /// Current scan results over everything absorbed so far.
    pub fn finalize(&self) -> Result<ScanResult, CoreError> {
        self.acc.finalize(self.k)
    }

    /// The raw compressed statistics (e.g. to ship into
    /// [`secure_online_scan`]).
    pub fn stats(&self) -> &CtStats {
        &self.acc
    }
}

/// Flattens a [`CtStats`] for transport: `n, yy, xy, xx, cty, ctx, gram`.
fn flatten(stats: &CtStats) -> Vec<f64> {
    let mut out = Vec::with_capacity(
        2 + 2 * stats.xy.len()
            + stats.cty.len()
            + stats.ctx.as_slice().len()
            + stats.gram.as_slice().len(),
    );
    out.push(stats.n as f64);
    out.push(stats.yy);
    out.extend_from_slice(&stats.xy);
    out.extend_from_slice(&stats.xx);
    out.extend_from_slice(&stats.cty);
    out.extend_from_slice(stats.ctx.as_slice());
    out.extend_from_slice(stats.gram.as_slice());
    out
}

/// Inverse of [`flatten`].
fn unflatten(flat: &[f64], m: usize, k: usize) -> Result<CtStats, CoreError> {
    let expected = 2 + 2 * m + k + k * m + k * k;
    if flat.len() != expected {
        return Err(CoreError::ShapeMismatch {
            what: "flattened CtStats length",
            expected,
            got: flat.len(),
        });
    }
    let n = flat[0].round() as usize;
    let yy = flat[1];
    let mut off = 2;
    let xy = flat[off..off + m].to_vec();
    off += m;
    let xx = flat[off..off + m].to_vec();
    off += m;
    let cty = flat[off..off + k].to_vec();
    off += k;
    let ctx = Matrix::from_column_major(k, m, flat[off..off + k * m].to_vec())?;
    off += k * m;
    let gram = Matrix::from_column_major(k, k, flat[off..].to_vec())?;
    Ok(CtStats {
        n,
        yy,
        xy,
        xx,
        cty,
        ctx,
        gram,
    })
}

/// Secure multi-party *online* scan: each party contributes its running
/// Cᵀ-compressed accumulator; a single masked secure sum opens only the
/// pooled statistics, which every party finalizes locally.
///
/// This is the cheapest secure mode of all — one round, no QR phase —
/// at the cost of disclosing the aggregates `Cᵀy`, `CᵀX`, `CᵀC` (the
/// Cᵀ-layer analogue of the masked `Qᵀ` aggregation; §5 notes this also
/// preserves post-hoc covariate selection). Any aggregation but
/// [`AggregationMode::MaskedPrg`] is refused with [`CoreError::BadConfig`].
///
/// [`AggregationMode::MaskedPrg`]: crate::secure::AggregationMode::MaskedPrg
pub fn secure_online_scan(
    accumulators: &[OnlineScan],
    cfg: &SecureScanConfig,
) -> Result<(ScanResult, NetworkReport), CoreError> {
    cfg.require_masked_prg()?;
    let first = accumulators.first().ok_or(CoreError::NoParties)?;
    let (m, k) = (first.m, first.k);
    for (party, a) in accumulators.iter().enumerate() {
        for (what, expected, got) in [
            ("online accumulator variant count M", m, a.m),
            ("online accumulator covariate count K", k, a.k),
        ] {
            if got != expected {
                return Err(CoreError::PartiesInconsistent {
                    what,
                    party,
                    expected,
                    got,
                });
            }
        }
    }
    let codec = cfg.ring_codec()?;
    let (results, stats, _audit) =
        run_in_process(accumulators, cfg.seed, &cfg.net_options(), |ctx, mine| {
            let flat = flatten(mine.stats());
            let total = masked_sum_f64(ctx, &codec, &flat, "aggregate Cᵀ-compressed statistics")?;
            unflatten(&total, m, k)?.finalize(k)
        })?;
    let result = results.into_iter().next().ok_or(CoreError::NoParties)?;
    Ok((result, NetworkReport::from_stats(&stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pool_parties;
    use crate::scan::associate;
    use crate::secure::AggregationMode;

    fn gen_batch(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(41);
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

    #[test]
    fn batched_equals_one_shot() {
        let batches = vec![
            gen_batch(12, 4, 2, 1),
            gen_batch(20, 4, 2, 2),
            gen_batch(8, 4, 2, 3),
        ];
        let mut online = OnlineScan::new(4, 2);
        for b in &batches {
            online.push_batch(b).unwrap();
        }
        assert_eq!(online.n_samples(), 40);
        let pooled = pool_parties(&batches).unwrap();
        let reference = associate(&pooled).unwrap();
        let streamed = online.finalize().unwrap();
        let d = streamed.max_rel_diff(&reference).unwrap();
        assert!(d < 1e-8, "diff {d}");
    }

    #[test]
    fn interim_results_available() {
        let mut online = OnlineScan::new(3, 1);
        let b1 = gen_batch(15, 3, 1, 4);
        online.push_batch(&b1).unwrap();
        let r1 = online.finalize().unwrap();
        assert_eq!(r1.df, 15 - 1 - 1);
        let b2 = gen_batch(10, 3, 1, 5);
        online.push_batch(&b2).unwrap();
        let r2 = online.finalize().unwrap();
        assert_eq!(r2.df, 25 - 1 - 1);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut online = OnlineScan::new(3, 1);
        assert!(online.push_batch(&gen_batch(10, 4, 1, 6)).is_err());
        assert!(online.push_batch(&gen_batch(10, 3, 2, 7)).is_err());
    }

    #[test]
    fn too_few_samples_cannot_finalize() {
        let online = OnlineScan::new(2, 3);
        assert!(online.finalize().is_err());
    }

    #[test]
    fn flatten_roundtrip() {
        let b = gen_batch(9, 3, 2, 8);
        let stats = CtStats::local(b.y(), b.x(), b.c()).unwrap();
        let flat = flatten(&stats);
        let back = unflatten(&flat, 3, 2).unwrap();
        assert_eq!(back, stats);
        assert!(unflatten(&flat[1..], 3, 2).is_err());
    }

    #[test]
    fn secure_online_matches_pooled() {
        // Three parties, each with two arriving batches.
        let mut accs = Vec::new();
        let mut all = Vec::new();
        for party in 0..3u64 {
            let mut acc = OnlineScan::new(4, 2);
            for batch in 0..2 {
                let b = gen_batch(14, 4, 2, 10 + party * 2 + batch);
                acc.push_batch(&b).unwrap();
                all.push(b);
            }
            accs.push(acc);
        }
        let reference = associate(&pool_parties(&all).unwrap()).unwrap();
        let (secure, report) = secure_online_scan(&accs, &SecureScanConfig::default()).unwrap();
        let d = secure.max_rel_diff(&reference).unwrap();
        assert!(d < 1e-5, "diff {d}");
        assert!(report.total_bytes > 0);
    }

    #[test]
    fn secure_online_refuses_an_aggregation_it_does_not_run() {
        let accs: Vec<OnlineScan> = (0..2)
            .map(|party| {
                let mut acc = OnlineScan::new(3, 1);
                acc.push_batch(&gen_batch(12, 3, 1, 30 + party)).unwrap();
                acc
            })
            .collect();
        let star = SecureScanConfig {
            aggregation: AggregationMode::MaskedStar,
            ..SecureScanConfig::default()
        };
        for cfg in [SecureScanConfig::max_security(3), star] {
            assert!(matches!(
                secure_online_scan(&accs, &cfg),
                Err(CoreError::BadConfig { .. })
            ));
        }
        assert!(secure_online_scan(&accs, &SecureScanConfig::default()).is_ok());
    }

    #[test]
    fn secure_online_requires_consistent_shapes() {
        // M and K each name themselves, with the counts they compare.
        let m = "online accumulator variant count M";
        let k = "online accumulator covariate count K";
        for (a, b, (what, expected, got)) in
            [((3, 1), (4, 1), (m, 3, 4)), ((4, 1), (4, 2), (k, 1, 2))]
        {
            let want = CoreError::PartiesInconsistent {
                what,
                party: 1,
                expected,
                got,
            };
            let accs = [OnlineScan::new(a.0, a.1), OnlineScan::new(b.0, b.1)];
            let got = secure_online_scan(&accs, &SecureScanConfig::default());
            assert_eq!(got.unwrap_err(), want);
        }
        assert!(matches!(
            secure_online_scan(&[], &SecureScanConfig::default()),
            Err(CoreError::NoParties)
        ));
    }
}
