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
//! construction. [`FaultyTransport`] wraps any transport and injects
//! delays, drops, duplicates, reorders, transient send failures and party
//! crashes, each decided by a pure hash of `(plan seed, link, message
//! index)` so every run is reproducible.
//!
//! Fault semantics are chosen so that *every* outcome is structured: a
//! dropped message leaves the receiver to hit [`MpcError::Timeout`] or
//! [`MpcError::UnexpectedMessage`]; duplicates and reorders are absorbed
//! by the sequence-numbered receive path; a crashed party returns
//! [`MpcError::PartyFailed`] from its own transport calls (unwinding its
//! thread cleanly) while survivors observe `ChannelClosed` or `Timeout`.
//! Nothing hangs and nothing takes down the process.

use crate::error::MpcError;
use crate::net::{Message, NetworkStats, DEFAULT_DEADLINE};
use dash_obs::Counter;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// the runner can swap the faulty wrapper in without protocols noticing.
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

/// Bounded resend policy for transient send failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Resend attempts after the first failure.
    pub max_retries: u32,
    /// Sleep before the first resend; doubles each further attempt.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// Smallest sleep between resend attempts. A configured backoff of
    /// zero (or a duration that rounds to zero, e.g. derived from a
    /// deadline at the epoch boundary via `saturating_sub`) would turn
    /// the retry loop into an instant-retry busy spin; the floor keeps
    /// every retry a real yield.
    pub const MIN_BACKOFF: Duration = Duration::from_micros(50);

    /// Sleep before resend number `attempt` (0-based): the configured
    /// backoff clamped to [`RetryPolicy::MIN_BACKOFF`], doubled per
    /// attempt. The shift is capped so pathological `max_retries`
    /// settings can't overflow the doubling.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff
            .max(Self::MIN_BACKOFF)
            .saturating_mul(1u32 << attempt.min(16))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

/// Per-run transport policy threaded through every party's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Longest a receive waits for one message before returning
    /// [`MpcError::Timeout`].
    pub deadline: Duration,
    /// Send retry policy.
    pub retry: RetryPolicy,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            deadline: DEFAULT_DEADLINE,
            retry: RetryPolicy::default(),
        }
    }
}

/// Kills one party after it has completed a number of sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which party crashes.
    pub party: usize,
    /// Sends the party completes before its next transport call fails.
    pub after_sends: u64,
}

/// Deterministic fault-injection plan. Every per-message fate is a pure
/// function of `(seed, sender, receiver, message index)`, so a failing
/// run replays exactly under the same plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fate decisions.
    pub seed: u64,
    /// Probability a message is delayed before delivery.
    pub delay_prob: f64,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Probability a message is silently discarded.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// Probability a message is held back behind the next one.
    pub reorder_prob: f64,
    /// Probability the first send attempt of a message fails
    /// transiently (succeeds on retry).
    pub transient_prob: f64,
    /// Optional hard crash of one party.
    pub crash: Option<CrashPoint>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            delay_prob: 0.0,
            max_delay: Duration::from_millis(2),
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            transient_prob: 0.0,
            crash: None,
        }
    }
}

// Distinct salts keep the per-fault fate streams independent.
const SALT_DELAY: u64 = 1;
const SALT_DROP: u64 = 2;
const SALT_DUP: u64 = 3;
const SALT_REORDER: u64 = 4;
const SALT_TRANSIENT: u64 = 5;

/// SplitMix64-style finalizer over the fate coordinates.
fn fate_hash(seed: u64, from: usize, to: usize, idx: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ (from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ idx.wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform [0, 1) from a fate hash.
fn fate_roll(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fault-injecting wrapper around any [`Transport`]. It sits on the
/// frame methods so it can duplicate, reorder and hold back individual
/// frames below the retry layer, which is what lets the same
/// deterministic fault plans run over the mpsc mesh and over real TCP.
///
/// All faults act on the send side: the wrapped party's outgoing traffic
/// is delayed, dropped, duplicated, reordered or refused according to
/// the [`FaultPlan`]; a [`CrashPoint`] makes every transport call fail
/// once the party has completed its quota of sends.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// Completed sends (crash-point bookkeeping).
    sends: AtomicU64,
    crashed: AtomicBool,
    /// Per-destination logical message index driving the fate hashes.
    msg_idx: Vec<AtomicU64>,
    /// Messages that already failed once (transient faults fire once).
    failed_once: Mutex<HashSet<(usize, u64)>>,
    /// Per-destination frame held back by a reorder fault.
    holdback: Mutex<Vec<Option<Message>>>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let n = inner.n_parties();
        FaultyTransport {
            inner,
            plan,
            sends: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            msg_idx: (0..n).map(|_| AtomicU64::new(0)).collect(),
            failed_once: Mutex::new(HashSet::new()),
            holdback: Mutex::new((0..n).map(|_| None).collect()),
        }
    }

    fn crash_error(&self) -> MpcError {
        MpcError::PartyFailed {
            party: self.inner.id(),
            reason: "injected crash fault".to_string(),
        }
    }

    fn check_alive(&self) -> Result<(), MpcError> {
        if self.crashed.load(Ordering::Relaxed) {
            Err(self.crash_error())
        } else {
            Ok(())
        }
    }

    fn roll(&self, to: usize, idx: u64, salt: u64) -> f64 {
        fate_roll(fate_hash(self.plan.seed, self.inner.id(), to, idx, salt))
    }

    /// Releases a frame held back for `to`, if any.
    fn flush_holdback(&self, to: usize) -> Result<(), MpcError> {
        let held = self.holdback.lock().get_mut(to).and_then(Option::take);
        if let Some(msg) = held {
            self.inner.send_frame(to, msg)?;
        }
        Ok(())
    }

    /// Empties every holdback slot, returning `(destination, frame)`.
    fn take_held(&self) -> Vec<(usize, Message)> {
        let mut slots = self.holdback.lock();
        let held = slots.iter_mut().enumerate();
        held.filter_map(|(to, slot)| Some((to, slot.take()?)))
            .collect()
    }

    /// Ships any frames still held back by reorder faults, best effort, so
    /// peers waiting on them unblock without burning their deadline.
    fn ship_held(&self) {
        for (to, msg) in self.take_held() {
            let _ = self.inner.send_frame(to, msg);
        }
    }

    /// Releases every held-back frame. Called before the party blocks on
    /// a receive: a frame parked "behind the next send to the same peer"
    /// would otherwise deadlock any request-response round in which that
    /// next send is *caused by* the parked frame arriving (both sides
    /// blocked, nobody sending, everyone burning their deadline). A peer
    /// that already finished and closed its link just loses the frame —
    /// indistinguishable from a drop, so a closed channel is tolerated
    /// exactly like the duplicate-delivery path.
    fn flush_all_holdbacks(&self) -> Result<(), MpcError> {
        for (to, msg) in self.take_held() {
            match self.inner.send_frame(to, msg) {
                Err(MpcError::ChannelClosed { .. }) => {}
                other => other?,
            }
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn n_parties(&self) -> usize {
        self.inner.n_parties()
    }

    fn stats(&self) -> &Arc<NetworkStats> {
        self.inner.stats()
    }

    // Frame moves pass straight through: the plan acts on logical
    // messages, in the two word-level overrides below.
    fn alloc_seq(&self, to: usize) -> Result<u64, MpcError> {
        self.inner.alloc_seq(to)
    }

    fn send_frame(&self, to: usize, msg: Message) -> Result<(), MpcError> {
        self.inner.send_frame(to, msg)
    }

    fn recv_frame(&self, from: usize, tag: u32, deadline: Duration) -> Result<Message, MpcError> {
        self.inner.recv_frame(from, tag, deadline)
    }

    fn send_words(&self, to: usize, tag: u32, words: &[u64]) -> Result<(), MpcError> {
        self.check_alive()?;
        if to == self.id() || to >= self.n_parties() {
            return Err(MpcError::NoSuchParty {
                id: to,
                n_parties: self.n_parties(),
            });
        }
        let idx = self
            .msg_idx
            .get(to)
            .map_or(0, |m| m.load(Ordering::Relaxed));
        // Transient failure: refuse the first attempt of this message
        // (the logical index is not consumed, so the retry maps to the
        // same fates and goes through).
        if self.roll(to, idx, SALT_TRANSIENT) < self.plan.transient_prob
            && self.failed_once.lock().insert((to, idx))
        {
            return Err(MpcError::TransientFailure { peer: to });
        }
        if let Some(m) = self.msg_idx.get(to) {
            m.fetch_add(1, Ordering::Relaxed);
        }

        // Crash: the party dies once it has completed its send quota.
        if let Some(cp) = self.plan.crash {
            if cp.party == self.id() && self.sends.load(Ordering::Relaxed) >= cp.after_sends {
                self.crashed.store(true, Ordering::Relaxed);
                return Err(self.crash_error());
            }
        }
        self.sends.fetch_add(1, Ordering::Relaxed);

        if self.roll(to, idx, SALT_DELAY) < self.plan.delay_prob {
            let frac = fate_roll(fate_hash(
                self.plan.seed,
                self.id(),
                to,
                idx,
                SALT_DELAY ^ 0xFF,
            ));
            std::thread::sleep(self.plan.max_delay.mul_f64(frac));
        }

        // Drop: discard without consuming a wire sequence number — the
        // receiver sees the next frame in this slot (wrong tag →
        // UnexpectedMessage) or nothing at all (Timeout).
        if self.roll(to, idx, SALT_DROP) < self.plan.drop_prob {
            return Ok(());
        }

        let seq = self.inner.alloc_seq(to)?;
        let msg = Message {
            seq,
            tag,
            payload: words_to_bytes(words),
        };

        // Reorder: hold this frame back until the next frame to the same
        // peer, which then ships first — a genuine wire-order inversion
        // the receiver's sequence buffer has to undo. A held frame also
        // ships when this party blocks on a receive (see
        // flush_all_holdbacks) or, failing that, when the transport
        // drops.
        if self.roll(to, idx, SALT_REORDER) < self.plan.reorder_prob {
            let held = self.holdback.lock().get_mut(to).and_then(Option::take);
            match held {
                None => {
                    if let Some(slot) = self.holdback.lock().get_mut(to) {
                        *slot = Some(msg);
                    }
                    return Ok(());
                }
                Some(prev) => {
                    self.inner.send_frame(to, msg)?;
                    self.inner.send_frame(to, prev)?;
                    return Ok(());
                }
            }
        }

        let dup = self.roll(to, idx, SALT_DUP) < self.plan.dup_prob;
        let copy = if dup { Some(msg.clone()) } else { None };
        self.inner.send_frame(to, msg)?;
        self.flush_holdback(to)?;
        if let Some(copy) = copy {
            // Duplicate delivery; the receiver's dedup absorbs it. The
            // peer may consume the original, finish the protocol, and
            // tear down its link before the copy ships — a lost duplicate
            // is indistinguishable from a drop on a real network, so a
            // closed link here must not fail the (already successful)
            // logical send.
            match self.inner.send_frame(to, copy) {
                Err(MpcError::ChannelClosed { .. }) => {}
                other => other?,
            }
        }
        Ok(())
    }

    fn recv_words_timeout(
        &self,
        from: usize,
        tag: u32,
        deadline: Duration,
    ) -> Result<Vec<u64>, MpcError> {
        self.check_alive()?;
        // About to block: anything still held back by a reorder fault
        // must ship now, or a round-trip protocol can deadlock on it.
        self.flush_all_holdbacks()?;
        self.inner.recv_words_timeout(from, tag, deadline)
    }

    fn link_snapshot(&self) -> Option<LinkSnapshot> {
        self.inner.link_snapshot()
    }

    fn note_durable(&self, recv_next: &[u64]) {
        self.inner.note_durable(recv_next);
    }

    /// Nothing may follow the close record, so held frames go first.
    fn close(&self) {
        self.ship_held();
        self.inner.close();
    }
}

impl<T: Transport> Drop for FaultyTransport<T> {
    fn drop(&mut self) {
        self.ship_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Endpoint, NetOptions, Network};
    use crate::tcp::tests::{connect_mesh_cfg, test_cfg, test_sup};
    use crate::tcp::TcpConfig;

    fn two_endpoints() -> (Endpoint, Endpoint, Arc<NetworkStats>) {
        let (mut eps, stats) = Network::endpoints(2).unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (a, b, stats)
    }

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

    /// The contract over a pair of transports, bare and again (on a fresh
    /// pair) behind a [`FaultyTransport`] with an empty plan.
    fn check_contract_bare_and_wrapped<T: Transport>(pair: impl Fn() -> (T, T)) {
        let (a, b) = pair();
        check_contract(&a, &b);
        let (a, b) = pair();
        let quiet = FaultPlan::default();
        let (a, b) = (
            FaultyTransport::new(a, quiet),
            FaultyTransport::new(b, quiet),
        );
        check_contract(&a, &b);
    }

    #[test]
    fn every_transport_honours_the_contract() {
        check_contract_bare_and_wrapped(|| {
            let (a, b, _) = two_endpoints();
            (a, b)
        });
        let supervised = TcpConfig {
            supervision: Some(test_sup()),
            ..test_cfg(62)
        };
        for cfg in [test_cfg(61), supervised] {
            check_contract_bare_and_wrapped(|| {
                let mut mesh = connect_mesh_cfg(2, cfg).0;
                let b = mesh.pop().unwrap();
                (mesh.pop().unwrap(), b)
            });
        }
    }

    #[test]
    fn fates_are_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            drop_prob: 0.5,
            ..FaultPlan::default()
        };
        let fates = |seed| {
            let plan = FaultPlan { seed, ..plan };
            let (a, _b, _) = two_endpoints();
            let t = FaultyTransport::new(a, plan);
            (0..64)
                .map(|i| t.roll(1, i, SALT_DROP) < plan.drop_prob)
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(42), fates(42));
        assert_ne!(fates(42), fates(43));
    }

    #[test]
    fn duplicates_are_delivered_once() {
        let (a, b, _) = two_endpoints();
        let t = FaultyTransport::new(
            a,
            FaultPlan {
                dup_prob: 1.0,
                ..FaultPlan::default()
            },
        );
        t.send_words(1, 5, &[7]).unwrap();
        assert_eq!(b.recv_words(0, 5).unwrap(), vec![7]);
        // The duplicate is on the wire but must not surface.
        assert!(matches!(
            b.recv_words_timeout(0, 6, Duration::from_millis(20)),
            Err(MpcError::Timeout { .. })
        ));
    }

    #[test]
    fn reordered_frames_arrive_in_order() {
        let (a, b, _) = two_endpoints();
        let t = FaultyTransport::new(
            a,
            FaultPlan {
                seed: 9,
                reorder_prob: 1.0,
                ..FaultPlan::default()
            },
        );
        // Frames ship pairwise inverted on the wire; sequence numbers
        // restore protocol order at the receiver.
        t.send_words(1, 1, &[10]).unwrap();
        t.send_words(1, 2, &[20]).unwrap();
        t.send_words(1, 3, &[30]).unwrap();
        drop(t); // flush the final held frame
        assert_eq!(b.recv_words(0, 1).unwrap(), vec![10]);
        assert_eq!(b.recv_words(0, 2).unwrap(), vec![20]);
        assert_eq!(b.recv_words(0, 3).unwrap(), vec![30]);
    }

    #[test]
    fn dropped_frame_yields_structured_error() {
        let (a, b, _) = two_endpoints();
        let t = FaultyTransport::new(
            a,
            FaultPlan {
                seed: 3,
                drop_prob: 1.0,
                ..FaultPlan::default()
            },
        );
        t.send_words(1, 5, &[7]).unwrap();
        assert!(matches!(
            b.recv_words_timeout(0, 5, Duration::from_millis(20)),
            Err(MpcError::Timeout {
                peer: 0,
                tag: 5,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_of_final_frame_tolerates_peer_teardown() {
        // Regression: with duplication on, the copy of a party's *final*
        // frame races against the peer consuming the original, finishing
        // the protocol, and dropping its endpoint. The copy then hits a
        // closed link; that lost duplicate must be treated like a drop,
        // not fail the (already successful) logical send. Many seeds ×
        // dup_prob 1.0 make the race land reliably without the fix.
        for seed in 0..40u64 {
            let opts = NetOptions {
                faults: Some(FaultPlan {
                    seed,
                    dup_prob: 1.0,
                    ..FaultPlan::default()
                }),
                ..NetOptions::default()
            };
            let (results, _, _) = Network::run_parties_detailed_with(2, seed, &opts, |ctx| {
                let tag = ctx.fresh_tag();
                ctx.exchange_sum(tag, &[crate::ring::R64(ctx.id() as u64 + 1)])
            })
            .unwrap();
            for r in results {
                assert_eq!(
                    r.unwrap().unwrap(),
                    vec![crate::ring::R64(3)],
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn transient_failures_recover_under_retry() {
        let plan = FaultPlan {
            seed: 17,
            transient_prob: 1.0,
            ..FaultPlan::default()
        };
        let opts = NetOptions {
            faults: Some(plan),
            ..NetOptions::default()
        };
        let (results, stats, _) =
            Network::run_parties_detailed_with(3, 7, &opts, |ctx| -> Result<u64, MpcError> {
                let tag = ctx.fresh_tag();
                let me = ctx.id() as u64;
                for j in 0..ctx.n_parties() {
                    if j != ctx.id() {
                        ctx.send_words(j, tag, &[me])?;
                    }
                }
                let mut sum = me;
                for j in 0..ctx.n_parties() {
                    if j != ctx.id() {
                        sum += ctx.recv_words(j, tag)?[0];
                    }
                }
                Ok(sum)
            })
            .unwrap();
        for r in results {
            assert_eq!(r, Ok(Ok(3)));
        }
        // Every message failed once and was resent: 6 messages, 6 retries.
        assert_eq!(stats.total(Counter::Retries), 6);
    }

    #[test]
    fn duplicated_frames_attribute_to_originating_block() {
        // Satellite bugfix verification: per-block byte attribution must
        // hold under fault-injected duplication — a duplicated frame
        // carries the original's tag (attribution happens at the single
        // send_frame accounting point), so the extra bytes land in the
        // originating block, never in another block or the unscoped
        // bucket, and the partition of the total stays exact.
        use crate::net::{BLOCK_TAG_BASE, BLOCK_TAG_STRIDE, HEADER_BYTES};
        let (a, b, stats) = two_endpoints();
        let t = FaultyTransport::new(
            a,
            FaultPlan {
                dup_prob: 1.0,
                ..FaultPlan::default()
            },
        );
        // One message in block 3's tag range, one ordinary message.
        let block_tag = BLOCK_TAG_BASE + 3 * BLOCK_TAG_STRIDE + 1;
        t.send_words(1, block_tag, &[1, 2]).unwrap();
        t.send_words(1, 900, &[5]).unwrap();
        assert_eq!(b.recv_words(0, block_tag).unwrap(), vec![1, 2]);
        assert_eq!(b.recv_words(0, 900).unwrap(), vec![5]);
        // Both frames were duplicated on the wire: block 3 carries two
        // copies of the block message, the unscoped bucket two copies of
        // the ordinary one.
        let per_block = stats.per_block_traffic();
        assert_eq!(per_block, vec![(3, 2 * (HEADER_BYTES + 16), 2)]);
        assert_eq!(stats.unscoped_bytes(), 2 * (HEADER_BYTES + 8));
        assert_eq!(
            stats.block_bytes_total() + stats.unscoped_bytes(),
            stats.total_bytes()
        );
    }

    #[test]
    fn retried_sends_attribute_to_originating_block() {
        // Same invariant for transient-failure retries: the refused first
        // attempt never reaches the wire (nothing is counted), and the
        // successful retry carries the original tag, so exactly one copy
        // is attributed to the originating block.
        use crate::net::{BLOCK_TAG_BASE, BLOCK_TAG_STRIDE, HEADER_BYTES};
        let plan = FaultPlan {
            seed: 23,
            transient_prob: 1.0,
            ..FaultPlan::default()
        };
        let opts = NetOptions {
            faults: Some(plan),
            ..NetOptions::default()
        };
        let block_tag = BLOCK_TAG_BASE + 5 * BLOCK_TAG_STRIDE + 1;
        let (results, stats, _) =
            Network::run_parties_detailed_with(2, 7, &opts, |ctx| -> Result<Vec<u64>, MpcError> {
                let peer = 1 - ctx.id();
                ctx.send_words(peer, block_tag, &[9, 9, 9])?;
                ctx.recv_words(peer, block_tag)
            })
            .unwrap();
        for r in results {
            assert_eq!(r, Ok(Ok(vec![9, 9, 9])));
        }
        // Each party's send failed once then succeeded: 2 retries, but
        // only 2 frames on the wire, both attributed to block 5.
        assert_eq!(stats.total(Counter::Retries), 2);
        assert_eq!(
            stats.per_block_traffic(),
            vec![(5, 2 * (HEADER_BYTES + 24), 2)]
        );
        assert_eq!(stats.unscoped_bytes(), 0);
        assert_eq!(stats.block_bytes_total(), stats.total_bytes());
    }

    #[test]
    fn zero_backoff_clamps_to_floor_and_doubles() {
        // Regression: a zero (or rounded-to-zero) configured backoff must
        // not produce zero sleeps — that made the retry loop an
        // instant-retry busy spin.
        let p = RetryPolicy {
            max_retries: 3,
            backoff: Duration::ZERO,
        };
        assert_eq!(p.backoff_for(0), RetryPolicy::MIN_BACKOFF);
        assert_eq!(p.backoff_for(1), RetryPolicy::MIN_BACKOFF * 2);
        assert_eq!(p.backoff_for(2), RetryPolicy::MIN_BACKOFF * 4);
        // A configured backoff above the floor is respected and doubles.
        let q = RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
        };
        assert_eq!(q.backoff_for(0), Duration::from_millis(1));
        assert_eq!(q.backoff_for(3), Duration::from_millis(8));
        // The doubling shift is capped: huge attempt numbers saturate
        // instead of overflowing the `1 << attempt` multiplier.
        assert_eq!(q.backoff_for(u32::MAX), q.backoff_for(16));
    }

    #[test]
    fn near_zero_deadline_times_out_structurally() {
        // Regression: a deadline at/near the epoch boundary must surface
        // as a structured Timeout from the receive path, not underflow
        // into a spin or a hang. Zero backoff rides along to exercise the
        // clamped retry sleeps under real transient faults.
        let plan = FaultPlan {
            seed: 29,
            transient_prob: 1.0,
            ..FaultPlan::default()
        };
        let opts = NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_nanos(1),
                retry: RetryPolicy {
                    max_retries: 3,
                    backoff: Duration::ZERO,
                },
            },
            faults: Some(plan),
            ..NetOptions::default()
        };
        let started = std::time::Instant::now();
        let (results, _, _) =
            Network::run_parties_detailed_with(2, 13, &opts, |ctx| -> Result<Vec<u64>, MpcError> {
                let tag = ctx.fresh_tag();
                let peer = 1 - ctx.id();
                // Both parties receive before anyone sends, so nothing is
                // in flight: the receive must burn its 1 ns deadline and
                // fail structurally rather than spin or hang.
                let timed_out = ctx.recv_words(peer, tag);
                // Exercise the clamped zero-backoff retry sleep under a
                // real transient fault; the outcome is irrelevant (the
                // peer may already have exited with its own timeout).
                ctx.send_words(peer, tag, &[1]).ok();
                timed_out
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
    fn crashed_party_fails_cleanly_and_survivors_get_errors() {
        let plan = FaultPlan {
            crash: Some(CrashPoint {
                party: 1,
                after_sends: 0,
            }),
            ..FaultPlan::default()
        };
        let opts = NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_millis(200),
                retry: RetryPolicy::default(),
            },
            faults: Some(plan),
            ..NetOptions::default()
        };
        let (results, _, _) =
            Network::run_parties_detailed_with(3, 11, &opts, |ctx| -> Result<u64, MpcError> {
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
        match &results[1] {
            Ok(Err(MpcError::PartyFailed { party: 1, .. })) => {}
            other => panic!("crashed party: expected PartyFailed, got {other:?}"),
        }
        // Survivors must fail with a structured transport error. The peer
        // they blame is scheduling-dependent: a survivor usually times out
        // on (or finds closed) its channel from the crashed party 1, but a
        // survivor whose own send to party 1 fails first exits early, and
        // the *other* survivor then sees that cascade as a closed channel
        // from a non-crashed peer.
        for survivor in [0, 2] {
            match &results[survivor] {
                Ok(Err(MpcError::ChannelClosed { peer } | MpcError::Timeout { peer, .. }))
                    if *peer != survivor => {}
                other => panic!("survivor {survivor}: unexpected {other:?}"),
            }
        }
    }
}
