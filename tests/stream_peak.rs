//! A streamed party's heap grows with neither N nor M: `StreamedParty`
//! reads x.tsv a block of columns at a time from one byte cursor per row
//! and folds each block into its own lane sums as it parses. So streaming
//! 2,048 rows peaks where streaming 64 does, up to one tile of a block
//! (4 rows of it) and 8 B per row for the cursors; streaming 16,384
//! columns in blocks of 512 peaks where 512 columns do, up to one tile of
//! a block; and the resident `read_matrix` of the largest file holds all
//! 8·N·M bytes of X. A party of a secure scan whose rows go to a results
//! TSV as each block closes holds no more of them at 4M variants than at
//! M. Live bytes repeat exactly where RSS and timings do not, so this
//! gates in tier-1. The tracking allocator is process-wide, hence a test
//! binary of its own; the tally is per thread: the streaming tests make
//! and free every allocation they measure on the calling thread, and the
//! party's protocol thread frees the summands and frames other threads
//! made for it, which only lowers its tally.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::PartyData;
use dash_core::secure::{
    secure_scan_party_into, secure_scan_party_with, SecureScanConfig, SummandSource, TraceHandle,
};
use dash_gwas::io::{read_matrix_tsv, StreamedParty, TsvSink};
use dash_gwas::pheno::{normal_matrix, normal_vec};
use dash_gwas::{simulate_genotypes, GenotypeSimConfig};
use dash_linalg::Matrix;
use dash_mpc::net::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Bytes this thread has allocated and not freed, and the most there
    /// were since the last reset.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

struct Tracking;

// SAFETY: defers to `System` for every operation; the only addition is
// const-initialised, destructor-free thread-local tallies, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The most live heap the calling thread held above its starting level
/// while running `f`.
fn peak_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (PEAK.with(Cell::get).abs_diff(base), out)
}

/// Columns of a block, and of the narrower table.
const B: usize = 512;
const K: usize = 3;

/// A party of `n` samples and `m` variants: y, C, Q and the path of its
/// generated x.tsv.
fn party(n: usize, m: usize) -> (Vec<f64>, Matrix, Matrix, PathBuf) {
    let mut rng = StdRng::seed_from_u64((n * m) as u64);
    let mut text = String::new();
    for _ in 0..n {
        for j in 0..m {
            let sep = if j + 1 == m { '\n' } else { '\t' };
            write!(text, "{}{sep}", rng.gen_range(0..3u8)).unwrap();
        }
    }
    // Both tests make a 64 × 512 party, at the same time.
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "dash_stream_peak_{}_{}.tsv",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).unwrap();
    let y = (0..n).map(|_| rng.gen::<f64>()).collect();
    let c = Matrix::from_fn(n, K, |_, _| rng.gen::<f64>());
    let q = Matrix::from_fn(n, K, |_, _| rng.gen::<f64>());
    (y, c, q, path)
}

/// Peak live bytes of opening a party of `n` samples and `m` variants and
/// streaming its blocks of `B` in scan order, each dropped before the next
/// (as a block round consumes it).
fn streamed_peak(n: usize, m: usize) -> usize {
    let (y, c, q, path) = party(n, m);
    let (peak, columns) = peak_of(|| {
        let party = StreamedParty::open(y, c, std::fs::File::open(&path).unwrap()).unwrap();
        (0..m)
            .step_by(B)
            .map(|lo| party.summands_block(&q, lo, (lo + B).min(m)).unwrap().len())
            .sum::<usize>()
    });
    assert_eq!(columns, m);
    std::fs::remove_file(&path).ok();
    peak
}

#[test]
fn streaming_x_holds_no_more_at_2048_rows_than_at_64() {
    let small = streamed_peak(64, B);
    let large = streamed_peak(2048, B);
    // The smallest tile a block can have is 4 rows.
    let tile = 8 * B * 4;
    assert!(
        small.abs_diff(large) < tile + 8 * 2048,
        "streamed peaks {small} B at N = 64 and {large} B at N = 2048"
    );

    let (_, _, _, path) = party(2048, B);
    let (resident, x) = peak_of(|| read_matrix_tsv(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(x.shape(), (2048, B));
    assert!(
        resident >= 8 * 2048 * B && large < resident / 2,
        "read_matrix peaked at {resident} B, streaming at {large} B"
    );
}

#[test]
fn streaming_x_in_blocks_holds_no_more_at_16384_columns_than_at_512() {
    let (n, wide) = (64, 16_384);
    let narrow = streamed_peak(n, B);
    let wide_peak = streamed_peak(n, wide);
    let tile = 8 * B * 4;
    assert!(
        narrow.abs_diff(wide_peak) < tile,
        "streamed peaks {narrow} B at M = {B} and {wide_peak} B at M = {wide}"
    );

    let (_, _, _, path) = party(n, wide);
    let (resident, x) = peak_of(|| read_matrix_tsv(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(x.shape(), (n, wide));
    assert!(
        resident >= 8 * n * wide && wide_peak < resident / 2,
        "read_matrix peaked at {resident} B, streaming at {wide_peak} B"
    );
}

/// Party 0's protocol-thread peak live heap over a three-party secure scan
/// of `m` generated genotype columns in blocks of `B`, its rows going to a
/// results TSV, against two peer threads over the in-process mesh.
fn party_peak(m: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(m as u64);
    let parties: Vec<PartyData> = [16, 20, 18]
        .iter()
        .map(|&n| {
            let g = simulate_genotypes(n, m, &GenotypeSimConfig::default(), &mut rng).unwrap();
            PartyData::new(
                normal_vec(n, &mut rng),
                g.to_dosages(),
                normal_matrix(n, K, &mut rng),
            )
            .unwrap()
        })
        .collect();
    let cfg = SecureScanConfig {
        block_size: Some(B),
        seed: 7,
        ..SecureScanConfig::default()
    };
    let path = std::env::temp_dir().join(format!("dash_party_peak_{}_{m}.tsv", std::process::id()));
    let (endpoints, _) = Network::endpoints_traced(parties.len(), TraceHandle::disabled()).unwrap();
    let mut endpoints = endpoints.into_iter();
    let own = endpoints.next().unwrap();
    let peak = std::thread::scope(|scope| {
        for (endpoint, data) in endpoints.zip(&parties[1..]) {
            scope.spawn(move || secure_scan_party_with(data, &cfg, endpoint).unwrap());
        }
        let (peak, out) = peak_of(|| {
            let mut tsv = TsvSink::create(&path).unwrap();
            secure_scan_party_into(&parties[0], &cfg, own, &mut tsv, None).unwrap()
        });
        assert_eq!(out.result.rows, m);
        peak
    });
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines, m + 1, "header and one line per variant");
    std::fs::remove_file(&path).ok();
    peak
}

#[test]
fn a_party_writing_its_rows_holds_no_more_at_4m_variants_than_at_m() {
    let m = 8192;
    let small = party_peak(m);
    let large = party_peak(4 * m);
    // What may grow is per block, not per variant: the disclosure log
    // gains a few entries a block. Rows held to the end would add 32 B a
    // variant, 786,432 B here.
    assert!(
        large < small + 64 * 1024,
        "party peaks {small} B at M = {m} and {large} B at M = {}",
        4 * m
    );
}
