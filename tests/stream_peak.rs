//! A streamed party's heap grows with neither N nor M: `StreamedParty`
//! reads x.tsv a block of columns at a time from one byte cursor per row
//! and folds each block into its own lane sums as it parses. So streaming
//! 2,048 rows peaks where streaming 64 does, up to one tile of a block
//! (4 rows of it) and 8 B per row for the cursors; streaming 16,384
//! columns in blocks of 512 peaks where 512 columns do, up to one tile of
//! a block; and the resident `read_matrix` of the largest file holds all
//! 8·N·M bytes of X. Live bytes repeat exactly where RSS and timings do
//! not, so this gates in tier-1. The tracking allocator is process-wide,
//! hence a test binary of its own; the tally is per thread, and every
//! allocation measured here is made and freed on the calling thread.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::secure::SummandSource;
use dash_gwas::io::{read_matrix_tsv, StreamedParty};
use dash_linalg::Matrix;
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
