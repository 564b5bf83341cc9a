//! A streamed party's heap does not grow with N: `StreamedParty` folds
//! x.tsv into per-variant lane sums as it parses, so streaming 2,048 rows
//! peaks where streaming 64 does, while the resident `read_matrix` of the
//! larger file holds all 8·N·M bytes of X. Live bytes repeat exactly where
//! RSS and timings do not, so this gates in tier-1. The tracking allocator
//! is process-wide, hence a test binary of its own; the tally is per
//! thread, and every allocation measured here is made and freed on the
//! calling thread.

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

const M: usize = 512;
const K: usize = 3;

/// A party of `n` samples: y, C, Q and the path of its generated x.tsv.
fn party(n: usize) -> (Vec<f64>, Matrix, Matrix, PathBuf) {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut text = String::new();
    for _ in 0..n {
        for j in 0..M {
            let sep = if j + 1 == M { '\n' } else { '\t' };
            write!(text, "{}{sep}", rng.gen_range(0..3u8)).unwrap();
        }
    }
    let path =
        std::env::temp_dir().join(format!("dash_stream_peak_{}_{n}.tsv", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let y = (0..n).map(|_| rng.gen::<f64>()).collect();
    let c = Matrix::from_fn(n, K, |_, _| rng.gen::<f64>());
    let q = Matrix::from_fn(n, K, |_, _| rng.gen::<f64>());
    (y, c, q, path)
}

/// Peak live bytes of opening and streaming a party of `n` samples.
fn streamed_peak(n: usize) -> usize {
    let (y, c, q, path) = party(n);
    let (peak, summands) = peak_of(|| {
        let party = StreamedParty::open(y, c, std::fs::File::open(&path).unwrap()).unwrap();
        party.summands_block(&q, 0, M).unwrap()
    });
    assert_eq!(summands.len(), M);
    std::fs::remove_file(&path).ok();
    peak
}

#[test]
fn streaming_x_holds_no_more_at_2048_rows_than_at_64() {
    let small = streamed_peak(64);
    let large = streamed_peak(2048);
    // The smallest tile a party can have is 4 rows; the two runs differ
    // by less than that.
    let four_rows = 8 * M * 4;
    assert!(
        small.abs_diff(large) < four_rows,
        "streamed peaks {small} B at N = 64 and {large} B at N = 2048"
    );

    let (_, _, _, path) = party(2048);
    let (resident, x) = peak_of(|| read_matrix_tsv(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(x.shape(), (2048, M));
    assert!(
        resident >= 8 * 2048 * M && large < resident / 2,
        "read_matrix peaked at {resident} B, streaming at {large} B"
    );
}
