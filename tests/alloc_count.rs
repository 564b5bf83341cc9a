//! Beaver preprocessing and the Beaver round allocate per *batch*, not per
//! triple or projection: the number of heap allocations is the same for a
//! batch of 64 and one of 8,192. Likewise `ScanStats::finalize` allocates its
//! four result vectors and no scratch that grows with M, and the result
//! TSV writer allocates nothing per row or per cell. A count repeats
//! exactly where a timing does not, so this gates in tier-1. The counting
//! allocator is process-wide, hence a test binary of its own; the counter
//! is per thread, so its tests do not see each other.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::{RowSink, ScanResult};
use dash_core::suffstats::ScanStats;
use dash_gwas::io::TsvSink;
use dash_mpc::dealer::{ProjectionBatch, TrustedDealer};
use dash_mpc::net::{NetOptions, Network};
use dash_mpc::protocol::beaver::{open_mask, project};
use dash_mpc::{FixedPointCodec, Opening, Secret, R64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the only addition is a
// const-initialised, destructor-free thread-local counter, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const LEN: usize = 3;
const PARTIES: usize = 3;

/// Rounds run per batch size. A thread's first wait on a channel
/// allocates that channel's waiter list, and whether a receive has to
/// wait is a matter of timing; it happens at most once per link, so the
/// fewest allocations over a few rounds is the round's own count.
const ROUNDS: usize = 4;

/// Deals the run's mask and batches of `count` projections, and runs
/// Beaver block rounds on them — pad opening, share combination, product
/// opening — at three parties. Returns the allocations of one
/// `deal_inners(LEN, count)` call, of one `deal_projections(count)` call,
/// and of one round at party 0.
fn deal_and_round(count: usize) -> (u64, u64, u64) {
    let mut dealer = TrustedDealer::new(PARTIES, 7).unwrap();
    let mut inners = u64::MAX;
    for _ in 0..ROUNDS {
        inners = inners.min(allocs_of(|| dealer.deal_inners(LEN, count)).0);
    }
    let mut slots: Vec<Vec<Secret<ProjectionBatch>>> =
        dealer.deal_mask(LEN).into_iter().map(|m| vec![m]).collect();
    let mut dealing = u64::MAX;
    for _ in 0..ROUNDS {
        let (n, batches) = allocs_of(|| dealer.deal_projections(count));
        dealing = dealing.min(n);
        for (slot, batch) in slots.iter_mut().zip(batches) {
            slot.push(batch);
        }
    }
    let slots: Vec<_> = slots.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let (results, _stats, _audit) =
        Network::run_parties_detailed_with(PARTIES, 8, &NetOptions::default(), |ctx| {
            let batches = slots[ctx.id()].lock().unwrap().take().unwrap();
            let share = R64::from_i64(ctx.id() as i64 + 2);
            let operand = |n| Secret::new(vec![share; n]);
            let (y, _) = open_mask(ctx, &operand(LEN), &batches[0]).unwrap();
            let xs = operand(LEN * count);
            let mut fewest = u64::MAX;
            for batch in &batches[1..] {
                let (round, opened) = allocs_of(|| {
                    let z = project(ctx, &xs, &y, batch).unwrap();
                    ctx.open_sum(&z, Opening::Pad).unwrap()
                });
                assert_eq!(opened.len(), 2 * count);
                // (Σ_id (id + 2))² · LEN, the same product in every slot.
                // Elements have no `==`: the difference decodes to 0.0
                // exactly when it is the zero word.
                let want = R64::from_i64(9 * 9 * LEN as i64);
                let codec = FixedPointCodec::default();
                assert!(opened.iter().all(|&v| codec.decode_ring(v - want) == 0.0));
                fewest = fewest.min(round);
            }
            fewest
        })
        .unwrap();
    (
        inners,
        dealing,
        results.into_iter().next().unwrap().unwrap(),
    )
}

#[test]
fn allocations_do_not_grow_with_the_triple_count() {
    let (inners_small, deal_small, round_small) = deal_and_round(64);
    let (inners_large, deal_large, round_large) = deal_and_round(8_192);
    assert_eq!(
        inners_small, inners_large,
        "deal_inners(3, c) allocates per triple"
    );
    assert_eq!(
        deal_small, deal_large,
        "deal_projections(c) allocates per projection"
    );
    assert_eq!(
        round_small, round_large,
        "a Beaver block round allocates per projection"
    );
    // One arena per party plus a fixed handful of cursors and scratch.
    for (call, n) in [
        ("deal_inners", inners_large),
        ("deal_projections", deal_large),
    ] {
        assert!(n <= 4 * PARTIES as u64, "{call} made {n} allocations");
    }
}

/// Allocations of one `ScanStats::finalize` over `m` variants whose
/// statistics cover both sides of the p-value's symmetry split.
fn finalize_allocs(m: usize) -> u64 {
    let stats = ScanStats {
        yy: 1e4,
        xy: (0..m).map(|j| ((j * 37) % 101) as f64 - 50.0).collect(),
        xx: vec![100.0; m],
        qtyqty: 0.0,
        qtxqty: vec![0.0; m],
        qtxqtx: vec![0.0; m],
    };
    let (allocs, result) = allocs_of(|| stats.finalize(96, 3).unwrap());
    assert_eq!(result.len(), m);
    assert!(result.p.iter().all(|p| (0.0..=1.0).contains(p)));
    allocs
}

#[test]
fn finalize_allocates_its_results_and_no_scratch_that_grows_with_m() {
    // beta, se, t, p: the p-values of all M variants are evaluated in
    // place, a few lanes at a time.
    assert_eq!(finalize_allocs(1_000), 4);
    assert_eq!(finalize_allocs(100_000), 4);
}

/// Allocations of one `TsvSink::push` of `rows`, a block of variants
/// written to a fresh file.
fn push_allocs(rows: &ScanResult, name: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("dash_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut sink = TsvSink::create(&path).unwrap();
    let (allocs, pushed) = allocs_of(|| sink.push(0, rows));
    pushed.unwrap();
    drop(sink);
    std::fs::remove_dir_all(&dir).ok();
    allocs
}

/// `m` rows; `stat(k, j)` is column k (β̂, σ̂, t, p) of row j.
fn rows(m: usize, stat: impl Fn(usize, usize) -> f64) -> ScanResult {
    let column = |k| (0..m).map(|j| stat(k, j)).collect::<Vec<f64>>();
    ScanResult {
        beta: column(0),
        se: column(1),
        t: column(2),
        p: column(3),
        df: 92,
        n_degenerate: 0,
    }
}

#[test]
fn the_tsv_writer_allocates_nothing_per_row_or_per_cell() {
    // Cells of a scan's usual spelling: 16-18 characters.
    let usual = |k: usize, j: usize| ((j * 4 + k) as f64 * 0.37).sin() / (k + 1) as f64;
    let small = push_allocs(&rows(64, usual), "small.tsv");
    let large = push_allocs(&rows(8_192, usual), "large.tsv");
    assert_eq!(small, large, "a TsvSink push allocates per row");
    // The longest cells `{}` writes, in every row of a block that crosses
    // its 64 KiB chunk some 80 times: the room left past the chunk holds
    // any row, so the buffer is never grown.
    let extreme = |k: usize, j: usize| match k {
        0 => -f64::MAX,
        1 => f64::NAN,
        2 => [f64::INFINITY, f64::NEG_INFINITY][j % 2],
        _ => 5e-324,
    };
    let extremes = push_allocs(&rows(8_192, extreme), "extreme.tsv");
    assert_eq!(small, extremes, "a row of extreme cells grew the buffer");
}
