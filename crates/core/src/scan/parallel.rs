//! The plaintext scan driver.
//!
//! Step 3 of the paper's algorithm is embarrassingly parallel over the
//! columns of X ("we assume the columns of X are distributed across
//! machines with C total cores"); `variant_summands` distributes
//! contiguous column ranges over OS threads, for the plaintext scan and
//! for the secure scan's block producer alike. Steps 1–2 (Q, the y-side
//! statistics) are O(NK²) and computed once up front.

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use crate::secure::SummandSource;
use crate::suffstats::{orthonormal_basis, SuffStats, VariantSummands};
use dash_linalg::Matrix;
use std::thread::ScopedJoinHandle;

/// Joins every worker handle, converting a panic into a structured
/// [`CoreError::WorkerPanicked`] instead of aborting the process.
///
/// All handles are joined before any outcome is inspected: bailing on the
/// first panic would leave later panicked threads unjoined and re-raise
/// their payloads when the enclosing scope exits.
fn join_workers<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Result<Vec<T>, CoreError> {
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let mut out = Vec::with_capacity(joined.len());
    for j in joined {
        match j {
            Ok(v) => out.push(v),
            Err(payload) => return Err(CoreError::worker_panicked(payload.as_ref())),
        }
    }
    Ok(out)
}

/// Computes the variant-side summands of columns `[lo, hi)`, splitting
/// them over up to `threads` workers and stitching the sub-ranges back in
/// column order. `threads <= 1` runs on the calling thread.
///
/// Each column's dots are computed by exactly one worker, so the result
/// is the same bits for every thread count.
pub(crate) fn variant_summands<S: SummandSource>(
    data: &S,
    q: &Matrix,
    lo: usize,
    hi: usize,
    threads: usize,
) -> Result<VariantSummands, CoreError> {
    let len = hi - lo;
    let threads = threads.min(len.max(1));
    if threads <= 1 {
        return data.summands_block(q, lo, hi);
    }
    let chunk = len.div_ceil(threads).max(1);
    let parts = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut a = lo;
        while a < hi {
            let b = (a + chunk).min(hi);
            handles.push(scope.spawn(move || data.summands_block(q, a, b)));
            a = b;
        }
        join_workers(handles)
    })?;
    let k = q.cols();
    let mut xy = Vec::with_capacity(len);
    let mut xx = Vec::with_capacity(len);
    let mut qtx = Matrix::zeros(k, len);
    for part in parts {
        let part = part?;
        for j in 0..part.len() {
            qtx.col_mut(part.lo - lo + j)
                .copy_from_slice(part.qtx.col(j));
        }
        xy.extend_from_slice(&part.xy);
        xx.extend_from_slice(&part.xx);
    }
    Ok(VariantSummands { lo, xy, xx, qtx })
}

/// Runs the association scan on pooled data with the variant columns
/// distributed over `n_threads` worker threads.
///
/// Algorithm (paper §2): compute `Q` by thin QR of `C`; compute the six
/// sufficient statistics; apply Lemma 2.1. Complexity `O(NK² + NKM)` —
/// the cost of reading `X` once for constant K. Results are the same bits
/// for every thread count.
pub fn associate_parallel(data: &PartyData, n_threads: usize) -> Result<ScanResult, CoreError> {
    if n_threads == 0 {
        return Err(CoreError::BadConfig {
            what: "n_threads must be >= 1",
        });
    }
    let n = data.n_samples();
    let k = data.n_covariates();
    if n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    let q = orthonormal_basis(data.c())?;
    let (yy, qty) = data.y_summands(&q)?;
    let VariantSummands { xy, xx, qtx, .. } =
        variant_summands(data, &q, 0, data.n_variants(), n_threads)?;
    SuffStats {
        yy,
        xy,
        xx,
        qty,
        qtx,
    }
    .reduce()
    .finalize(n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::associate;
    use dash_linalg::dot;

    fn gen_data(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
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
    fn identical_to_serial_for_all_thread_counts() {
        let data = gen_data(80, 23, 3, 1);
        let serial = associate(&data).unwrap();
        for threads in [1, 2, 3, 4, 7, 23, 64] {
            let par = associate_parallel(&data, threads).unwrap();
            // Bit-identical: same dots in the same order.
            assert_eq!(par.beta, serial.beta, "threads={threads}");
            assert_eq!(par.se, serial.se, "threads={threads}");
            assert_eq!(par.p, serial.p, "threads={threads}");
        }
    }

    /// Asserts that `got` holds the per-column [`dot`]s of its columns,
    /// bit for bit.
    fn assert_is_per_column_dot(got: &VariantSummands, data: &PartyData, q: &Matrix, at: &str) {
        for j in 0..got.len() {
            let col = data.x().col(got.lo + j);
            assert_eq!(
                got.xy[j].to_bits(),
                dot(col, data.y()).to_bits(),
                "xy {at} col {j}"
            );
            assert_eq!(
                got.xx[j].to_bits(),
                dot(col, col).to_bits(),
                "xx {at} col {j}"
            );
            for i in 0..q.cols() {
                let want = dot(q.col(i), col).to_bits();
                assert_eq!(
                    got.qtx.get(i, j).to_bits(),
                    want,
                    "qtx row {i} {at} col {j}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// However `variant_summands` cuts `[0, M)` over 1–3 workers, and
        /// wherever those cuts fall relative to the kernel's panels and
        /// row chunks, every summand is the per-column `dot`, bit for bit.
        #[test]
        fn every_thread_cut_is_bit_equal_to_per_column_dot(seed in 0u64..1_000_000) {
            for n in [0, 1, 3, 4, 5, 63, 64, 65, 255, 256, 257, 1001] {
                for k in [0, 1, 3, 16] {
                    // Any N×K matrix serves as Q: the identity under test
                    // is per dot, not a property of an orthonormal basis.
                    let data = gen_data(n, 13, k, seed ^ (n * 31 + k) as u64);
                    for m in 0..=data.n_variants() {
                        for threads in 1..=3 {
                            let got = variant_summands(&data, data.c(), 0, m, threads).unwrap();
                            proptest::prop_assert_eq!((got.lo, got.len()), (0, m));
                            let at = format!("n={n} k={k} m={m} threads={threads}");
                            assert_is_per_column_dot(&got, &data, data.c(), &at);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn worker_panic_becomes_structured_error() {
        // Regression: join().expect() used to abort the process with an
        // opaque "scan worker" message. Also checks that a panic in one
        // worker does not leave sibling panicked threads unjoined (which
        // would re-panic at scope exit).
        let err = std::thread::scope(|scope| {
            let handles = vec![
                scope.spawn(|| 1usize),
                scope.spawn(|| panic!("worker exploded: j = 3")),
                scope.spawn(|| panic!("second worker down")),
            ];
            join_workers(handles)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanicked { reason } => {
                assert!(reason.contains("worker exploded"), "reason = {reason:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let data = gen_data(10, 2, 1, 2);
        assert!(matches!(
            associate_parallel(&data, 0),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn more_threads_than_variants() {
        let data = gen_data(30, 2, 1, 3);
        let par = associate_parallel(&data, 16).unwrap();
        assert_eq!(par.len(), 2);
        assert_eq!(par.beta, associate(&data).unwrap().beta);
    }

    #[test]
    fn single_variant() {
        let data = gen_data(25, 1, 2, 4);
        let par = associate_parallel(&data, 4).unwrap();
        assert_eq!(par.len(), 1);
    }

    #[test]
    fn k_zero_parallel() {
        let data = gen_data(40, 10, 0, 5);
        let par = associate_parallel(&data, 3).unwrap();
        let ser = associate(&data).unwrap();
        assert_eq!(par.beta, ser.beta);
    }
}
