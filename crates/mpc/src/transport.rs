//! Transport abstraction: a transport moves sequence-numbered frames;
//! everything above the frame exists once, here.
//!
//! [`Transport`] is the one interface between a party's protocol and the
//! wire. An implementor supplies six small frame-level methods (identity,
//! counters, sequence allocation, ship a frame, receive the next in-order
//! frame); the word codec, the tag check, the whole-word check and the
//! receive-timeout accounting are provided methods written once below, so
//! the in-process [`crate::net::Endpoint`], the socket-backed
//! [`crate::tcp::TcpTransport`] and any future link share them by
//! construction.
//!
//! Faults are not injected here. A transport either delivers each frame
//! once and in order or fails structurally ([`MpcError::Timeout`],
//! [`MpcError::ChannelClosed`], [`MpcError::PeerCrashed`]); real link
//! faults are injected below the socket by [`crate::chaos::ChaosProxy`]
//! and by killing a party process.

use crate::error::MpcError;
use crate::net::{Message, NetworkStats, DEFAULT_DEADLINE};
use dash_obs::Counter;
use std::sync::Arc;
use std::time::Duration;

/// One outbound frame buffered for possible replay after a peer resumes
/// from a checkpoint older than what it had acknowledged in-memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayFrame {
    /// Wire sequence number on the link.
    pub seq: u64,
    /// Protocol tag the frame carries.
    pub tag: u32,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Per-link wire state captured at a deterministic protocol point (a
/// block boundary) for a crash checkpoint: where each link's send and
/// receive cursors stand, plus the outbound frames still buffered for
/// replay. All three vectors are indexed by peer id; a party's own slot
/// is zero/empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkSnapshot {
    /// Next sequence number this party would assign on each link.
    pub send_next: Vec<u64>,
    /// Next in-order sequence number expected from each peer.
    pub recv_next: Vec<u64>,
    /// Buffered outbound frames per peer, oldest first.
    pub replay: Vec<Vec<ReplayFrame>>,
}

/// Serializes words into the little-endian byte payload.
pub(crate) fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(words.len() * 8);
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

/// The message layer a [`crate::party::PartyCtx`] drives. Object-safe so
/// one context type runs over either pipe.
///
/// The required methods move frames; the word-level API protocols call is
/// provided on top of them and is the only place a payload is encoded,
/// decoded, tag-checked or a receive timeout counted.
pub trait Transport: Send + std::fmt::Debug {
    /// This party's id.
    fn id(&self) -> usize;
    /// Number of parties on the network.
    fn n_parties(&self) -> usize;
    /// The shared network counters.
    fn stats(&self) -> &Arc<NetworkStats>;
    /// Allocates the next sequence number for the link to `to`,
    /// validating that the link exists.
    fn alloc_seq(&self, to: usize) -> Result<u64, MpcError>;
    /// Ships an already-framed message, recording its cost at the
    /// single accounting point ([`NetworkStats`]).
    fn send_frame(&self, to: usize, msg: Message) -> Result<(), MpcError>;
    /// Delivers the next in-order frame from `from`, waiting at most
    /// `deadline`; `tag` only labels a [`MpcError::Timeout`]. Duplicates
    /// are discarded and early arrivals buffered below this call. The
    /// implementor does *not* count a timeout — the provided
    /// [`Transport::recv_words_timeout`] does, once.
    fn recv_frame(&self, from: usize, tag: u32, deadline: Duration) -> Result<Message, MpcError>;

    /// Sends a word vector to a peer under a tag.
    fn send_words(&self, to: usize, tag: u32, words: &[u64]) -> Result<(), MpcError> {
        let seq = self.alloc_seq(to)?;
        let payload = words_to_bytes(words);
        self.send_frame(to, Message { seq, tag, payload })
    }
    /// Receives a word vector from a peer, waiting at most `deadline`.
    /// A frame under another tag is a protocol desync
    /// ([`MpcError::UnexpectedMessage`]); a payload that is not a whole
    /// number of words is rejected ([`MpcError::MalformedPayload`]) rather
    /// than silently truncated.
    fn recv_words_timeout(
        &self,
        from: usize,
        tag: u32,
        deadline: Duration,
    ) -> Result<Vec<u64>, MpcError> {
        let msg = self.recv_frame(from, tag, deadline).inspect_err(|e| {
            if matches!(e, MpcError::Timeout { .. }) {
                self.stats().record(self.id(), Counter::Timeouts);
            }
        })?;
        if msg.tag != tag {
            return Err(MpcError::UnexpectedMessage {
                expected_tag: tag,
                got_tag: msg.tag,
                from,
            });
        }
        if msg.payload.len() % 8 != 0 {
            return Err(MpcError::MalformedPayload {
                from,
                len: msg.payload.len(),
            });
        }
        Ok(msg
            .payload
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect())
    }
    /// Receives with the [`DEFAULT_DEADLINE`].
    fn recv_words(&self, from: usize, tag: u32) -> Result<Vec<u64>, MpcError> {
        self.recv_words_timeout(from, tag, DEFAULT_DEADLINE)
    }
    /// Captures the per-link wire cursors and replay buffers for a crash
    /// checkpoint. `None` means this transport has no durable identity
    /// across a process restart (the in-process
    /// [`crate::net::Endpoint`] cannot be resumed), which callers surface
    /// as a configuration error rather than writing an unusable
    /// checkpoint.
    fn link_snapshot(&self) -> Option<LinkSnapshot> {
        None
    }
    /// Tells the transport which receive cursors have been made durable
    /// (fsynced into a checkpoint), per peer. A supervised transport
    /// advertises these as its heartbeat acknowledgement cursors so peers
    /// prune their replay buffers no further than what this party could
    /// re-request after a crash. Default: no-op for transports without
    /// replay buffers.
    fn note_durable(&self, recv_next: &[u64]) {
        let _ = recv_next;
    }
    /// Tells every peer this party has finished the run: call it after
    /// the last send of a protocol that returned `Ok`, then drop the
    /// transport. A socket transport writes a close record on each link so
    /// the end of its stream reads as "finished" — peers stop expecting
    /// it back at once, and its own teardown has nothing to wait out. A
    /// transport dropped *without* this looks like a crash to supervised
    /// peers, which is what an error path or a killed process should look
    /// like. Default: no-op (an mpsc channel's disconnect is unambiguous).
    fn close(&self) {}
}

/// Per-run transport policy threaded through every party's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Longest a receive waits for one message before returning
    /// [`MpcError::Timeout`].
    pub deadline: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            deadline: DEFAULT_DEADLINE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetOptions, Network};
    use crate::tcp::tests::{connect_mesh_cfg, test_cfg, test_sup};
    use crate::tcp::TcpConfig;

    /// What every [`Transport`] owes its caller, as party 0 (`a`) talking
    /// to party 1 (`b`) of a 2-party link. The word-level checks are
    /// provided methods, so passing here means an implementor's six frame
    /// methods feed them correctly.
    fn check_contract(a: &dyn Transport, b: &dyn Transport) {
        let frame = |seq: u64, tag: u32, payload: Vec<u8>| Message { seq, tag, payload };
        // Wrong tag: a protocol desync, reported with both tags.
        a.send_words(1, 1, &[42]).unwrap();
        assert_eq!(
            b.recv_words(0, 2),
            Err(MpcError::UnexpectedMessage {
                expected_tag: 2,
                got_tag: 1,
                from: 0
            })
        );
        // A payload that is not whole words is rejected, not truncated.
        let seq = a.alloc_seq(1).unwrap();
        a.send_frame(1, frame(seq, 3, vec![7; 7])).unwrap();
        assert_eq!(
            b.recv_words(0, 3),
            Err(MpcError::MalformedPayload { from: 0, len: 7 })
        );
        // No link to oneself or to a party that does not exist, in
        // either direction.
        for peer in [0, 9] {
            let no_such = MpcError::NoSuchParty {
                id: peer,
                n_parties: 2,
            };
            assert_eq!(a.send_words(peer, 0, &[1]), Err(no_such.clone()));
            assert_eq!(a.recv_words(peer, 0), Err(no_such));
        }
        // An expired deadline is a structured Timeout, counted once.
        let before = b.stats().total(Counter::Timeouts);
        let deadline = Duration::from_millis(30);
        match b.recv_words_timeout(0, 9, deadline) {
            Err(MpcError::Timeout { peer, tag, waited }) => {
                assert_eq!((peer, tag), (0, 9));
                assert!(waited >= deadline && waited < Duration::from_secs(5));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(b.stats().total(Counter::Timeouts), before + 1);
        assert_eq!(b.stats().count_by(1, Counter::Timeouts), before + 1);
        // Frames shipped out of wire order, with a duplicate, deliver
        // once each and in sequence order: base+1, base, base again,
        // base+2.
        let base = a.alloc_seq(1).unwrap();
        for _ in 0..2 {
            a.alloc_seq(1).unwrap();
        }
        for (off, word) in [(1, 101), (0, 100), (0, 100), (2, 102)] {
            let payload = words_to_bytes(&[word]);
            a.send_frame(1, frame(base + off, 10 + off as u32, payload))
                .unwrap();
        }
        for (tag, word) in [(10, 100), (11, 101), (12, 102)] {
            assert_eq!(b.recv_words(0, tag).unwrap(), vec![word]);
        }
    }

    #[test]
    fn every_transport_honours_the_contract() {
        let mut eps = Network::endpoints(2).unwrap().0;
        let b = eps.pop().unwrap();
        check_contract(&eps.pop().unwrap(), &b);
        let supervised = TcpConfig {
            supervision: Some(test_sup()),
            ..test_cfg(62)
        };
        for cfg in [test_cfg(61), supervised] {
            let mut mesh = connect_mesh_cfg(2, cfg).0;
            let b = mesh.pop().unwrap();
            check_contract(&mesh.pop().unwrap(), &b);
        }
    }

    #[test]
    fn near_zero_deadline_times_out_structurally() {
        // Regression: a deadline at/near the epoch boundary must surface
        // as a structured Timeout from the receive path, not underflow
        // into a spin or a hang.
        let opts = NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_nanos(1),
            },
            ..NetOptions::default()
        };
        let started = std::time::Instant::now();
        let (results, _, _) =
            Network::run_parties_detailed_with(2, 13, &opts, |ctx| -> Result<Vec<u64>, MpcError> {
                // Both parties receive before anyone sends, so nothing is
                // in flight: the receive must burn its 1 ns deadline and
                // fail structurally rather than spin or hang.
                let tag = ctx.fresh_tag();
                ctx.recv_words(1 - ctx.id(), tag)
            })
            .unwrap();
        for r in results {
            match r {
                Ok(Err(MpcError::Timeout { .. })) => {}
                other => panic!("expected structured Timeout, got {other:?}"),
            }
        }
        // A busy loop would still return; the time bound distinguishes a
        // prompt structured failure from deadline-underflow spinning.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn failed_party_leaves_survivors_structured_errors() {
        let opts = NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_millis(200),
            },
            ..NetOptions::default()
        };
        let (results, _, _) =
            Network::run_parties_detailed_with(3, 11, &opts, |ctx| -> Result<u64, MpcError> {
                // Party 1 fails before its first send; its endpoint drops
                // with the closure.
                if ctx.id() == 1 {
                    return Err(MpcError::PartyFailed {
                        party: 1,
                        reason: "failed before sending".into(),
                    });
                }
                let tag = ctx.fresh_tag();
                for j in 0..ctx.n_parties() {
                    if j != ctx.id() {
                        ctx.send_words(j, tag, &[ctx.id() as u64])?;
                    }
                }
                let mut sum = 0;
                for j in 0..ctx.n_parties() {
                    if j != ctx.id() {
                        sum += ctx.recv_words(j, tag)?[0];
                    }
                }
                Ok(sum)
            })
            .unwrap();
        // Survivors must fail with a structured transport error. The peer
        // they blame is scheduling-dependent: a survivor usually finds its
        // channel to or from the failed party 1 closed, but a survivor
        // that exits early leaves the *other* survivor a closed channel
        // from a peer that did not fail.
        for survivor in [0, 2] {
            match &results[survivor] {
                Ok(Err(MpcError::ChannelClosed { peer } | MpcError::Timeout { peer, .. }))
                    if *peer != survivor => {}
                other => panic!("survivor {survivor}: unexpected {other:?}"),
            }
        }
    }
}
