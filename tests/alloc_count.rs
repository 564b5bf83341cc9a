//! Beaver preprocessing and the Beaver round allocate per *batch*, not per
//! triple: the number of heap allocations is the same for a batch of 64
//! triples and one of 8,192. Likewise `ScanStats::finalize` allocates its
//! four result vectors and no scratch that grows with M. A count repeats
//! exactly where a timing does not, so this gates in tier-1. The counting
//! allocator is process-wide, hence a test binary of its own; the counter
//! is per thread, so its tests do not see each other.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::suffstats::ScanStats;
use dash_mpc::dealer::{TripleBatch, TrustedDealer};
use dash_mpc::field::F61;
use dash_mpc::net::{NetOptions, Network};
use dash_mpc::protocol::beaver::{beaver_inner_batch, open_field};
use dash_mpc::Secret;
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

/// Deals batches of `count` triples and runs Beaver block rounds on them —
/// masked opening, share reassembly, product opening — at three parties.
/// Returns the allocations of one `deal_inners` call and of one round at
/// party 0.
fn deal_and_round(count: usize) -> (u64, u64) {
    let mut dealer = TrustedDealer::new(PARTIES, 7).unwrap();
    let mut slots: Vec<Vec<Secret<TripleBatch>>> = vec![Vec::new(); PARTIES];
    let mut dealing = u64::MAX;
    for _ in 0..ROUNDS {
        let (n, batches) = allocs_of(|| dealer.deal_inners(LEN, count));
        dealing = dealing.min(n);
        for (slot, batch) in slots.iter_mut().zip(batches) {
            slot.push(batch);
        }
    }
    let slots: Vec<_> = slots.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let (results, _stats, _audit) =
        Network::run_parties_detailed_with(PARTIES, 8, &NetOptions::default(), |ctx| {
            let batches = slots[ctx.id()].lock().unwrap().take().unwrap();
            let operand = || Secret::new(vec![F61::from_i64(ctx.id() as i64 + 2); LEN * count]);
            let (xs, ys) = (operand(), operand());
            let mut fewest = u64::MAX;
            for batch in &batches {
                let (round, opened) = allocs_of(|| {
                    let z = beaver_inner_batch(ctx, &xs, &ys, batch).unwrap();
                    open_field(ctx, &z, None).unwrap()
                });
                assert_eq!(opened.len(), count);
                // (Σ_id (id + 2))² · LEN, the same product in every slot.
                assert!(opened
                    .iter()
                    .all(|&v| v == F61::from_i64(9 * 9 * LEN as i64)));
                fewest = fewest.min(round);
            }
            fewest
        })
        .unwrap();
    (dealing, results.into_iter().next().unwrap().unwrap())
}

#[test]
fn allocations_do_not_grow_with_the_triple_count() {
    let (deal_small, round_small) = deal_and_round(64);
    let (deal_large, round_large) = deal_and_round(8_192);
    assert_eq!(
        deal_small, deal_large,
        "deal_inners(3, c) allocates per triple"
    );
    assert_eq!(
        round_small, round_large,
        "a Beaver block round allocates per triple"
    );
    // One arena per party plus a fixed handful of cursors and scratch.
    assert!(
        deal_large <= 4 * PARTIES as u64,
        "deal_inners made {deal_large} allocations"
    );
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
