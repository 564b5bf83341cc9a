//! The Beaver mode's offline phase as a stream: one dealer per run, one
//! [`TripleBatch`] per round, at most one round ahead of each party.
//!
//! The dealer runs on a scoped thread next to the parties this process
//! holds and hands each its slice of every batch through a rendezvous
//! channel: a send completes when the party asks, so a party's triple
//! material in flight is the batch it is using plus the one the dealer
//! holds out — two batches, never the run's 2M+1 triples. A party that
//! ends, for whatever reason, drops its receiver and the dealer stops
//! serving it; when every receiver is gone the dealer ends.

use crate::error::CoreError;
use dash_mpc::dealer::TripleBatch;
use dash_mpc::{MpcError, Secret};
use parking_lot::Mutex;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// The dealer's loop: `deal(count)` yields one slice per party, which goes
/// to its party or is dropped (`None`: not run by this process, or ended).
fn feed_parties<T>(
    mut deal: impl FnMut(usize) -> Vec<T>,
    counts: impl Iterator<Item = usize>,
    mut txs: Vec<Option<SyncSender<T>>>,
) {
    for count in counts {
        if txs.iter().all(Option::is_none) {
            return;
        }
        // Slices of parties that live elsewhere or have ended die here,
        // before the first send can block.
        let served: Vec<_> = txs
            .iter_mut()
            .zip(deal(count))
            .filter(|(tx, _)| tx.is_some())
            .collect();
        for (tx, slice) in served {
            if tx.as_ref().is_some_and(|tx| tx.send(slice).is_err()) {
                *tx = None;
            }
        }
    }
}

/// Each local party's end of the stream, taken by the party's own thread
/// so that it drops when the party ends. Empty when there is no dealer.
pub(crate) type FeedSlots<T = Secret<TripleBatch>> = [Mutex<Option<Receiver<T>>>];

/// Runs `run` with a dealer thread alongside it that deals one batch per
/// entry of `counts`, to all `n_parties` parties or to `lone` only (a lone
/// process still *draws* every party's slice — the stream is one PRG
/// sequence — and drops its peers' block by block).
pub(crate) fn deal_alongside<T: Send, R>(
    deal: impl FnMut(usize) -> Vec<T> + Send,
    counts: impl Iterator<Item = usize> + Send,
    (n_parties, lone): (usize, Option<usize>),
    run: impl FnOnce(&FeedSlots<T>) -> Result<R, CoreError>,
) -> Result<R, CoreError> {
    let local = |i| lone.is_none_or(|id| id == i).then(|| sync_channel(0));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_parties).map(|i| local(i).unzip()).unzip();
    let slots: Vec<_> = rxs.into_iter().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        let dealing = scope.spawn(move || feed_parties(deal, counts, txs));
        let out = run(&slots);
        // A slot no party took would hold the dealer in its send forever.
        drop(slots);
        let joined = dealing.join();
        joined.map_err(|payload| CoreError::worker_panicked(payload.as_ref()))?;
        out
    })
}

/// A party's end of the dealer stream.
pub(crate) struct TripleFeed {
    rx: Receiver<Secret<TripleBatch>>,
    /// The batch on offer: received, not yet taken.
    next: Option<Secret<TripleBatch>>,
}

impl TripleFeed {
    /// Party `id`'s feed out of `slots`; without one (no dealer, or taken
    /// already) a feed that has ended.
    pub(crate) fn take_from(slots: &FeedSlots, id: usize) -> Self {
        let taken = slots.get(id).and_then(|slot| slot.lock().take());
        let rx = taken.unwrap_or_else(|| sync_channel(0).1);
        TripleFeed { rx, next: None }
    }

    /// Takes the next batch, which must hold exactly `wanted` triples.
    /// All or nothing: on any other batch — or none, the dealer having
    /// ended — the error names both counts and the batch stays on offer.
    pub(crate) fn take(&mut self, wanted: usize) -> Result<Secret<TripleBatch>, MpcError> {
        if self.next.is_none() {
            self.next = self.rx.recv().ok();
        }
        let available = self.next.as_ref().map_or(0, Secret::count);
        self.next
            .take_if(|batch| batch.count() == wanted)
            .ok_or(MpcError::DealerExhausted { wanted, available })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::protocol::triple_counts;
    use dash_mpc::dealer::TrustedDealer;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A dealt slice that counts itself among its party's live ones.
    struct Tracked {
        batch: Secret<TripleBatch>,
        live: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Streams the batches of an M = 131,072, B = 4,096, K = 3 run to the
    /// parties `lone` selects. The dealer thread checks, every time it is
    /// about to deal, what is still alive of what it dealt before: at most
    /// the one batch a local party is using — so two with the new one —
    /// and nothing of a remote party's. Returns the triples each party
    /// took.
    fn stream(lone: Option<usize>) -> Vec<usize> {
        let (p, m, b, k) = (3, 131_072, 4_096, 3);
        let live: Vec<_> = (0..p).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let mut dealer = TrustedDealer::new(p, 9).unwrap();
        let deal = |count| {
            for (i, l) in live.iter().enumerate() {
                let bound = usize::from(lone.is_none_or(|id| id == i));
                assert!(l.load(Ordering::SeqCst) <= bound, "party {i} before a deal");
            }
            let tracked = |(batch, l): (_, &Arc<AtomicUsize>)| {
                l.fetch_add(1, Ordering::SeqCst);
                Tracked {
                    batch,
                    live: Arc::clone(l),
                }
            };
            let slices = dealer.deal_inners(k, count);
            slices.into_iter().zip(&live).map(tracked).collect()
        };
        let party = |slot: &Mutex<Option<Receiver<Tracked>>>| {
            let mut taken = 0;
            for slice in slot.lock().take().into_iter().flatten() {
                assert!(slice.batch.count() <= 2 * b);
                assert!(slice.live.load(Ordering::SeqCst) <= 2);
                taken += slice.batch.count();
                std::thread::yield_now();
            }
            taken
        };
        let counts = triple_counts(m, Some(b));
        let taken = deal_alongside(deal, counts, (p, lone), |slots: &FeedSlots<Tracked>| {
            std::thread::scope(|scope| {
                let parties: Vec<_> = slots.iter().map(|s| scope.spawn(|| party(s))).collect();
                Ok(parties.into_iter().map(|h| h.join().unwrap()).collect())
            })
        });
        assert!(live.iter().all(|l| l.load(Ordering::SeqCst) == 0));
        taken.unwrap()
    }

    #[test]
    fn a_party_never_has_more_than_two_batches_in_flight() {
        assert_eq!(stream(None), vec![2 * 131_072 + 1; 3]);
    }

    #[test]
    fn a_lone_party_drops_its_peers_slices_block_by_block() {
        assert_eq!(stream(Some(1)), vec![0, 2 * 131_072 + 1, 0]);
    }

    #[test]
    fn the_dealer_ends_when_every_party_has_gone() {
        let mut dealt = 0;
        let deal = |count| {
            dealt += 1;
            vec![count; 3]
        };
        // Party 1 ends at once, party 2 after one batch, party 0 after
        // two: an endless schedule still ends, and a dealer that panics is
        // the run's error.
        let got = deal_alongside(deal, 1.., (3, None), |slots: &FeedSlots<usize>| {
            drop(slots[1].lock().take());
            let leaving = [(0, 2), (2, 1)].map(|(i, n)| {
                let rx = slots[i].lock().take().unwrap();
                std::thread::spawn(move || rx.iter().take(n).sum::<usize>())
            });
            Ok(leaving.map(|h| h.join().unwrap()))
        });
        assert_eq!(got.unwrap(), [1 + 2, 1]);
        assert_eq!(dealt, 3, "the third batch found party 0 gone; no fourth");
        let boom = |_| -> Vec<usize> { panic!("dealer boom") };
        match deal_alongside(boom, 1.., (1, None), |_: &FeedSlots<usize>| Ok(())) {
            Err(CoreError::WorkerPanicked { reason }) => assert!(reason.contains("boom")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn a_short_batch_is_refused_whole() {
        let mut dealer = TrustedDealer::new(2, 3).unwrap();
        let deal = |count| dealer.deal_inners(3, count);
        let refused = |wanted, available| MpcError::DealerExhausted { wanted, available };
        deal_alongside(deal, std::iter::once(4), (2, Some(0)), |slots| {
            let mut feed = TripleFeed::take_from(slots, 0);
            for _ in 0..2 {
                assert_eq!(feed.take(6).unwrap_err(), refused(6, 4));
            }
            assert_eq!(feed.take(4).unwrap().count(), 4);
            assert_eq!(feed.take(1).unwrap_err(), refused(1, 0));
            // No slot left, and none to begin with: feeds that have ended.
            let mut again = TripleFeed::take_from(slots, 0);
            assert_eq!(again.take(1).unwrap_err(), refused(1, 0));
            assert_eq!(
                TripleFeed::take_from(&[], 0).take(1).unwrap_err(),
                refused(1, 0)
            );
            Ok(())
        })
        .unwrap();
    }
}
