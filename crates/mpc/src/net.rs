//! Simulated multi-party network with exact communication accounting.
//!
//! Each ordered pair of parties gets an unbounded in-process channel
//! (`std::sync::mpsc`), and every message is framed into bytes so that
//! the per-link counters measure exactly what a TCP deployment would
//! ship. The paper's headline communication claim — O(M) inter-party
//! bits, independent of N — is validated against these counters in
//! experiment E3.
//!
//! An mpsc channel is FIFO and exactly-once, so the in-process endpoint
//! numbers nothing: it hands each frame over in send order, once. (The
//! TCP transport's sequence numbers, reordering and dedup live in its
//! link machine.) Every receive is deadline-bounded — a stalled or
//! crashed peer yields [`MpcError::Timeout`] or
//! [`MpcError::ChannelClosed`], never a hang.

use crate::audit::DisclosureLog;
use crate::error::MpcError;
use crate::party::PartyCtx;
use crate::tags::block_of_tag;
use crate::tcp::{TcpConfig, TcpTransport};
use crate::transport::{Transport, TransportConfig};
use dash_obs::{Counter, TraceHandle};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Framing overhead charged per message (4-byte tag + 8-byte length +
/// 8-byte sequence number), mirroring a minimal length-prefixed wire
/// protocol with in-order delivery.
pub const HEADER_BYTES: u64 = 20;

/// Receive deadline used when the caller does not thread a
/// [`TransportConfig`] through: generous enough that healthy runs never
/// trip it, finite so nothing blocks forever.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// One frame on an in-process link: its tag and payload.
type Frame = (u32, Vec<u8>);

/// Per-link byte/message counters plus one per-party table of event
/// counters (retries, timeouts, reconnects, heartbeats, resumes), shared
/// by all endpoints of one network.
#[derive(Debug)]
pub struct NetworkStats {
    n: usize,
    bytes: Vec<AtomicU64>,
    msgs: Vec<AtomicU64>,
    /// Per-party event counts, row-major `party * Counter::ALL.len() +
    /// counter`. Heartbeats live here and deliberately *not* in
    /// `bytes`/`msgs`: their count depends on wall-clock timing, and the
    /// protocol's traffic totals must stay bit-identical across runs
    /// (interrupted or not).
    events: Vec<AtomicU64>,
    /// Per-block (bytes, messages), keyed by block id (tag-derived).
    block_traffic: Mutex<BTreeMap<u32, (u64, u64)>>,
    /// Bytes of every message whose tag is outside the block range.
    unscoped_bytes: AtomicU64,
    /// Observability mirror: every counter update is also forwarded to
    /// this handle (a no-op unless the caller enabled tracing), so trace
    /// byte totals match these counters exactly by construction.
    trace: TraceHandle,
}

fn zeros(len: usize) -> Vec<AtomicU64> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

fn loads(cells: &[AtomicU64]) -> impl Iterator<Item = u64> + '_ {
    cells.iter().map(|c| c.load(Ordering::Relaxed))
}

impl NetworkStats {
    /// Counters for `n` parties, mirroring into `trace` (pass
    /// [`TraceHandle::disabled`] for the free path). The in-process
    /// [`Network`] builds its shared counters through this too; it is
    /// public for transports assembled by hand — one
    /// [`crate::tcp::TcpTransport`] per OS process, for example — which
    /// need the same single accounting point.
    pub fn with_trace(n: usize, trace: TraceHandle) -> Self {
        NetworkStats {
            n,
            bytes: zeros(n * n),
            msgs: zeros(n * n),
            events: zeros(n * Counter::ALL.len()),
            block_traffic: Mutex::new(BTreeMap::new()),
            unscoped_bytes: AtomicU64::new(0),
            trace,
        }
    }

    /// The observability handle mirroring these counters (disabled and
    /// free unless the run was started with tracing).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The single accounting point: every frame that reaches the wire —
    /// mpsc or TCP — is recorded here exactly once, on the sender, so the
    /// per-link counters, per-block attribution and the trace mirror can
    /// never drift apart.
    #[inline]
    pub(crate) fn record_frame(&self, from: usize, to: usize, tag: u32, payload_len: usize) {
        let nbytes = HEADER_BYTES + payload_len as u64;
        if let Some(b) = self.bytes.get(from * self.n + to) {
            b.fetch_add(nbytes, Ordering::Relaxed);
        }
        if let Some(m) = self.msgs.get(from * self.n + to) {
            m.fetch_add(1, Ordering::Relaxed);
        }
        self.trace.on_message(from, to, nbytes);
        // Attribution by tag is race-free even though parties sit in
        // different blocks at any instant: the sender stamped the tag.
        match block_of_tag(tag) {
            Some(b) => {
                let mut map = self.block_traffic.lock();
                let e = map.entry(b).or_insert((0, 0));
                e.0 += nbytes;
                e.1 += 1;
            }
            None => {
                self.unscoped_bytes.fetch_add(nbytes, Ordering::Relaxed);
            }
        }
    }

    /// An out-of-range party indexes past the table (every counter's
    /// discriminant is below the row width), so it reads as `None`.
    fn event(&self, party: usize, c: Counter) -> Option<&AtomicU64> {
        self.events.get(party * Counter::ALL.len() + c as usize)
    }

    /// Adds `amount` events of kind `c` at `party`, mirrored into the
    /// trace at this one point.
    fn add_events(&self, party: usize, c: Counter, amount: u64) {
        if let Some(cell) = self.event(party, c) {
            cell.fetch_add(amount, Ordering::Relaxed);
        }
        self.trace.add(party, c, amount);
    }

    /// Counts one per-party event: a receive deadline expired
    /// ([`Counter::Timeouts`]), a link re-established
    /// ([`Counter::Reconnects`]), a heartbeat frame shipped
    /// ([`Counter::HeartbeatsSent`]; bytes/messages stay untouched) or a
    /// resume handshake completed ([`Counter::Resumes`]).
    pub(crate) fn record(&self, party: usize, c: Counter) {
        self.add_events(party, c, 1);
    }

    /// Number of parties.
    pub fn n_parties(&self) -> usize {
        self.n
    }

    /// Bytes sent on the directed link `from → to`.
    pub fn bytes_between(&self, from: usize, to: usize) -> u64 {
        self.bytes
            .get(from * self.n + to)
            .map_or(0, |b| b.load(Ordering::Relaxed))
    }

    /// Total bytes sent by one party.
    pub fn bytes_sent_by(&self, party: usize) -> u64 {
        (0..self.n).map(|j| self.bytes_between(party, j)).sum()
    }

    /// Events of kind `c` recorded at one party (see
    /// `NetworkStats::record` for the kinds counted here; byte and
    /// message counts live in the per-link matrices above).
    pub fn count_by(&self, party: usize, c: Counter) -> u64 {
        self.event(party, c)
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Events of kind `c` over all parties.
    pub fn total(&self, c: Counter) -> u64 {
        (0..self.n).map(|p| self.count_by(p, c)).sum()
    }

    /// Total bytes over all links.
    pub fn total_bytes(&self) -> u64 {
        loads(&self.bytes).sum()
    }

    /// Total messages over all links.
    pub fn total_messages(&self) -> u64 {
        loads(&self.msgs).sum()
    }

    /// Largest per-party outbound byte count — the bottleneck link in a
    /// symmetric topology.
    pub fn max_party_bytes(&self) -> u64 {
        (0..self.n)
            .map(|i| self.bytes_sent_by(i))
            .max()
            .unwrap_or(0)
    }

    /// Per-block `(block id, bytes, messages)` in block order, for
    /// traffic recorded under block-scoped tags (see [`block_of_tag`]).
    pub fn per_block_traffic(&self) -> Vec<(u32, u64, u64)> {
        self.block_traffic
            .lock()
            .iter()
            .map(|(&b, &(bytes, msgs))| (b, bytes, msgs))
            .collect()
    }

    /// Total bytes recorded under block-scoped tags.
    pub fn block_bytes_total(&self) -> u64 {
        self.block_traffic.lock().values().map(|&(b, _)| b).sum()
    }

    /// Total bytes recorded under ordinary (non-block) tags.
    pub fn unscoped_bytes(&self) -> u64 {
        self.unscoped_bytes.load(Ordering::Relaxed)
    }

    /// Captures the *protocol-traffic* counters for a checkpoint: the
    /// per-link byte/message matrices, timeout counts, per-block
    /// attribution and unscoped bytes. The recovery counters
    /// (reconnects/heartbeats/resumes) are deliberately excluded — they
    /// describe the crash, not the protocol, and must not be replayed
    /// into a resumed run's report.
    pub fn snapshot(&self) -> StatsSnapshot {
        let per_party = |c| (0..self.n).map(|p| self.count_by(p, c)).collect();
        StatsSnapshot {
            n: self.n,
            bytes: loads(&self.bytes).collect(),
            msgs: loads(&self.msgs).collect(),
            timeouts: per_party(Counter::Timeouts),
            block_traffic: self.per_block_traffic(),
            unscoped_bytes: self.unscoped_bytes.load(Ordering::Relaxed),
        }
    }

    /// Restores a [`StatsSnapshot`] into these (fresh) counters by
    /// *adding* the snapshot's deltas, mirroring them into the trace so
    /// the per-process sent/received conservation invariant keeps
    /// holding. Called once, before any new traffic is recorded, by a
    /// resumed party; afterwards the counters evolve exactly as they
    /// would have in the uninterrupted run.
    pub fn restore_snapshot(&self, snap: &StatsSnapshot) -> Result<(), MpcError> {
        if snap.n != self.n || snap.bytes.len() != self.n * self.n {
            return Err(MpcError::LengthMismatch {
                what: "stats snapshot party count",
                expected: self.n,
                got: snap.n,
            });
        }
        for from in 0..self.n {
            for to in 0..self.n {
                let idx = from * self.n + to;
                let b = snap.bytes.get(idx).copied().unwrap_or(0);
                let m = snap.msgs.get(idx).copied().unwrap_or(0);
                if let Some(slot) = self.bytes.get(idx) {
                    slot.fetch_add(b, Ordering::Relaxed);
                }
                if let Some(slot) = self.msgs.get(idx) {
                    slot.fetch_add(m, Ordering::Relaxed);
                }
                if b > 0 || m > 0 {
                    self.trace.add(from, Counter::BytesSent, b);
                    self.trace.add(from, Counter::MessagesSent, m);
                    self.trace.add(to, Counter::BytesReceived, b);
                    self.trace.add(to, Counter::MessagesReceived, m);
                }
            }
        }
        for (p, &t) in snap.timeouts.iter().enumerate().take(self.n) {
            self.add_events(p, Counter::Timeouts, t);
        }
        {
            let mut map = self.block_traffic.lock();
            for &(block, bytes, msgs) in &snap.block_traffic {
                let e = map.entry(block).or_insert((0, 0));
                e.0 += bytes;
                e.1 += msgs;
            }
        }
        self.unscoped_bytes
            .fetch_add(snap.unscoped_bytes, Ordering::Relaxed);
        Ok(())
    }
}

/// A plain-data copy of one [`NetworkStats`]'s protocol-traffic counters,
/// taken at a deterministic protocol point (a block boundary) so a
/// resumed party can report the same totals an uninterrupted run would.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Number of parties the matrices are sized for.
    pub n: usize,
    /// Row-major `from * n + to` byte matrix.
    pub bytes: Vec<u64>,
    /// Row-major `from * n + to` message matrix.
    pub msgs: Vec<u64>,
    /// Per-party receive timeouts.
    pub timeouts: Vec<u64>,
    /// Per-block `(block id, bytes, messages)`.
    pub block_traffic: Vec<(u32, u64, u64)>,
    /// Bytes recorded under non-block tags.
    pub unscoped_bytes: u64,
}

/// One party's view of the in-process network: a channel to every peer
/// and a deadline-aware receiver from every peer. Its whole API is the
/// [`Transport`] trait.
#[derive(Debug)]
pub struct Endpoint {
    id: usize,
    n: usize,
    senders: Vec<Option<Sender<Frame>>>,
    receivers: Vec<Option<Receiver<Frame>>>,
    stats: Arc<NetworkStats>,
}

impl Endpoint {
    fn no_such_party(&self, id: usize) -> MpcError {
        MpcError::NoSuchParty {
            id,
            n_parties: self.n,
        }
    }
}

impl Transport for Endpoint {
    fn id(&self) -> usize {
        self.id
    }

    fn n_parties(&self) -> usize {
        self.n
    }

    fn stats(&self) -> &Arc<NetworkStats> {
        &self.stats
    }

    fn send_frame(&self, to: usize, tag: u32, payload: Vec<u8>) -> Result<(), MpcError> {
        let sender = self
            .senders
            .get(to)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| self.no_such_party(to))?;
        self.stats.record_frame(self.id, to, tag, payload.len());
        sender
            .send((tag, payload))
            .map_err(|_| MpcError::ChannelClosed { peer: to })
    }

    fn recv_frame(&self, from: usize, tag: u32, deadline: Duration) -> Result<Frame, MpcError> {
        let rx = self
            .receivers
            .get(from)
            .and_then(|r| r.as_ref())
            .ok_or_else(|| self.no_such_party(from))?;
        let start = Instant::now();
        rx.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => MpcError::Timeout {
                peer: from,
                tag,
                waited: start.elapsed(),
            },
            RecvTimeoutError::Disconnected => MpcError::ChannelClosed { peer: from },
        })
    }
}

/// Knobs for one protocol run: the transport policy every party uses and
/// the observability sink.
#[derive(Debug, Clone, Default)]
pub struct NetOptions {
    /// Receive deadline.
    pub transport: TransportConfig,
    /// Observability sink. Disabled by default; when enabled, the shared
    /// [`NetworkStats`] mirrors every counter into it and the protocol
    /// layers record spans and protocol counters through
    /// [`crate::party::PartyCtx`].
    pub trace: TraceHandle,
}

impl NetOptions {
    /// One party's protocol context over an established transport: this
    /// run's deadline and the party's seeded randomness. Every
    /// run shape — mpsc mesh, loopback TCP mesh, a lone party process —
    /// builds its contexts here.
    pub fn party_ctx<X: Transport + 'static>(
        &self,
        transport: X,
        seed: u64,
        audit: DisclosureLog,
    ) -> PartyCtx {
        PartyCtx::with_transport(Box::new(transport), self.transport, seed, audit)
    }
}

/// Factory for in-process party networks.
pub struct Network;

/// What a structured runner hands back: each party's slot (`Err` for a
/// party that panicked or never got its transport), the shared
/// counters, and the shared disclosure log.
type PartyRun<T> = (Vec<Result<T, MpcError>>, Arc<NetworkStats>, DisclosureLog);

fn party_failed(party: usize, payload: &(dyn std::any::Any + Send)) -> MpcError {
    let reason = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "party panicked with non-string payload".to_string()
    };
    MpcError::PartyFailed { party, reason }
}

/// The one thread-per-party body: party `i` obtains its transport from
/// `connect[i]` *on its own thread* (a socket mesh can only form with
/// every party dialing concurrently), builds its context through
/// [`NetOptions::party_ctx`], and runs `f` with panics contained — a
/// party that panics yields `Err(MpcError::PartyFailed)` in its own slot
/// while the survivors keep running into their own structured errors.
fn run_party_threads<T, X, C, F>(
    connect: Vec<C>,
    seed: u64,
    opts: &NetOptions,
    audit: &DisclosureLog,
    f: F,
) -> Vec<Result<T, MpcError>>
where
    T: Send,
    X: Transport + 'static,
    C: FnOnce() -> Result<X, MpcError> + Send,
    F: Fn(&mut PartyCtx) -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = connect
            .into_iter()
            .enumerate()
            .map(|(id, connect)| {
                let f = &f;
                scope.spawn(move || {
                    let mut ctx = opts.party_ctx(connect()?, seed, audit.clone());
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)))
                        .map_err(|payload| party_failed(id, payload.as_ref()))
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            // The closure contains its own panics, so join only fails if
            // the panic machinery itself aborted; report that as a party
            // failure too instead of propagating.
            .map(|(id, h)| {
                h.join()
                    .unwrap_or_else(|payload| Err(party_failed(id, payload.as_ref())))
            })
            .collect()
    })
}

impl Network {
    /// Builds endpoints for `n` parties plus the shared counters, which
    /// mirror into `trace` (pass [`TraceHandle::disabled`] for the free
    /// path).
    pub fn endpoints_traced(
        n: usize,
        trace: TraceHandle,
    ) -> Result<(Vec<Endpoint>, Arc<NetworkStats>), MpcError> {
        if n == 0 {
            return Err(MpcError::BadPartyCount {
                n_parties: 0,
                min: 1,
            });
        }
        let stats = Arc::new(NetworkStats::with_trace(n, trace));
        // channels[i][j]: sender for link i→j held by i, receiver held by j.
        let mut senders: Vec<Vec<Option<Sender<Frame>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Frame>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (i, sender_row) in senders.iter_mut().enumerate() {
            for (j, send_slot) in sender_row.iter_mut().enumerate() {
                if i == j {
                    continue;
                }
                let (tx, rx) = channel();
                *send_slot = Some(tx);
                if let Some(recv_slot) = receivers.get_mut(j).and_then(|row| row.get_mut(i)) {
                    *recv_slot = Some(rx);
                }
            }
        }
        let endpoints = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(id, (s, r))| Endpoint {
                id,
                n,
                senders: s,
                receivers: r,
                stats: Arc::clone(&stats),
            })
            .collect();
        Ok((endpoints, stats))
    }

    /// The structured runner over the in-process mpsc mesh: `n` party
    /// threads execute the same (SPMD) protocol closure; `seed` derives
    /// every party's private randomness and all pairwise mask seeds, so
    /// runs are fully reproducible. Each party's slot is a `Result` — a
    /// party that panics yields
    /// `Err(MpcError::PartyFailed)` in its own slot while the survivors
    /// keep running and report their own structured errors
    /// ([`MpcError::ChannelClosed`] or [`MpcError::Timeout`]) within the
    /// configured deadline. The process never panics and never hangs.
    ///
    /// A network that cannot be set up at all (e.g. `n == 0`) is an
    /// `Err` on the runner itself, never an empty zero-party success.
    pub fn run_parties_detailed_with<T, F>(
        n: usize,
        seed: u64,
        opts: &NetOptions,
        f: F,
    ) -> Result<PartyRun<T>, MpcError>
    where
        T: Send,
        F: Fn(&mut PartyCtx) -> T + Sync,
    {
        let (endpoints, stats) = Self::endpoints_traced(n, opts.trace.clone())?;
        let audit = DisclosureLog::new();
        let connect = endpoints.into_iter().map(|ep| move || Ok(ep)).collect();
        let results = run_party_threads(connect, seed, opts, &audit, f);
        Ok((results, stats, audit))
    }

    /// [`Network::run_parties_detailed_with`] over **real loopback TCP
    /// sockets**: one [`TcpTransport`] per party thread, connected under
    /// `tcp` on OS-assigned ports — framing, handshake and reader threads
    /// included. All parties share one [`NetworkStats`] and one
    /// [`DisclosureLog`], exactly like the mpsc mesh, so the two runners'
    /// outputs are directly comparable. A party whose connect fails
    /// carries that handshake error in its slot.
    pub fn run_parties_tcp_with<T, F>(
        n: usize,
        seed: u64,
        opts: &NetOptions,
        tcp: TcpConfig,
        f: F,
    ) -> Result<PartyRun<T>, MpcError>
    where
        T: Send,
        F: Fn(&mut PartyCtx) -> T + Sync,
    {
        // Rendezvous: bind every party's listener up front (port 0 → the
        // OS assigns), so each thread knows the full address list.
        let bind_err = |peer, what: &str, e: std::io::Error| MpcError::Handshake {
            peer,
            reason: format!("{what}: {e}"),
        };
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| bind_err(i, "bind loopback listener", e))?;
            addrs.push(
                l.local_addr()
                    .map_err(|e| bind_err(i, "read listener address", e))?,
            );
            listeners.push(l);
        }
        let stats = Arc::new(NetworkStats::with_trace(n, opts.trace.clone()));
        let audit = DisclosureLog::new();
        let connect = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                let (addrs, stats) = (&addrs, Arc::clone(&stats));
                move || TcpTransport::connect(i, l, addrs, tcp, stats)
            })
            .collect();
        let results = run_party_threads(connect, seed, opts, &audit, f);
        Ok((results, stats, audit))
    }
}

#[cfg(test)]
impl Network {
    /// Untraced endpoints for `n` parties plus the shared counters.
    pub(crate) fn endpoints(n: usize) -> Result<(Vec<Endpoint>, Arc<NetworkStats>), MpcError> {
        Self::endpoints_traced(n, TraceHandle::disabled())
    }

    /// `n` SPMD party threads over the mpsc mesh, results in party
    /// order; a party's failure fails the test with its error.
    pub(crate) fn run_parties<T: Send>(
        n: usize,
        seed: u64,
        f: impl Fn(&mut PartyCtx) -> T + Sync,
    ) -> Vec<T> {
        let (slots, _, _) =
            Self::run_parties_detailed_with(n, seed, &NetOptions::default(), f).unwrap();
        slots.into_iter().map(Result::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::{BLOCK_TAG_BASE, BLOCK_TAG_STRIDE};

    #[test]
    fn zero_parties_rejected() {
        assert!(matches!(
            Network::endpoints(0),
            Err(MpcError::BadPartyCount { .. })
        ));
    }

    #[test]
    fn runner_propagates_setup_failure() {
        // Regression: a failed Self::endpoints(n) used to be swallowed
        // into an empty zero-party *success* (empty results, zero
        // counters), indistinguishable from a degenerate-but-valid run.
        // The runner must surface the structured error instead.
        let err = Network::run_parties_detailed_with(0, 7, &NetOptions::default(), |ctx| ctx.id())
            .unwrap_err();
        assert!(matches!(
            err,
            MpcError::BadPartyCount {
                n_parties: 0,
                min: 1
            }
        ));
    }

    #[test]
    fn trace_mirror_matches_stats_exactly() {
        // Tentpole acceptance: per-party trace byte/message totals equal
        // the NetworkStats counters exactly, including retry/timeout
        // counters, because both are fed from the same accounting point.
        use dash_obs::Counter;
        let opts = NetOptions {
            trace: TraceHandle::enabled(3),
            ..NetOptions::default()
        };
        let (results, stats, _) =
            Network::run_parties_detailed_with(3, 42, &opts, |ctx| -> Result<u64, MpcError> {
                let me = ctx.id() as u64;
                let tag = ctx.fresh_tag();
                for j in 0..ctx.n_parties() {
                    if j != ctx.id() {
                        ctx.send_words(j, tag, &[me; 5])?;
                    }
                }
                let mut sum = me;
                for j in 0..ctx.n_parties() {
                    if j != ctx.id() {
                        sum += ctx.recv_words(j, tag)?.first().copied().unwrap_or(0);
                    }
                }
                Ok(sum)
            })
            .unwrap();
        for r in results {
            assert_eq!(r.unwrap().unwrap(), 3);
        }
        let trace = stats.trace();
        assert_eq!(trace.n_parties(), 3);
        assert!(stats.total_bytes() > 0);
        for p in 0..3 {
            assert_eq!(trace.counter(p, Counter::BytesSent), stats.bytes_sent_by(p));
            // Every party sends one frame to each of its two peers.
            assert_eq!(trace.counter(p, Counter::MessagesSent), 2);
            assert_eq!(
                trace.counter(p, Counter::Retries),
                stats.count_by(p, Counter::Retries)
            );
            assert_eq!(
                trace.counter(p, Counter::Timeouts),
                stats.count_by(p, Counter::Timeouts)
            );
        }
        assert_eq!(trace.counter_total(Counter::BytesSent), stats.total_bytes());
        assert_eq!(
            trace.counter_total(Counter::MessagesSent),
            stats.total_messages()
        );
        assert_eq!(
            trace.counter_total(Counter::BytesReceived),
            stats.total_bytes()
        );
    }

    #[test]
    fn stats_snapshot_restore_roundtrip_preserves_trace_conservation() {
        use dash_obs::Counter;
        // Build a stats object with traffic in every category, snapshot
        // it, restore into a fresh traced instance, and check both the
        // counters and the mirrored trace match the original exactly.
        let orig = NetworkStats::with_trace(3, TraceHandle::enabled(3));
        orig.record_frame(0, 1, 2000, 40); // block-tagged
        orig.record_frame(1, 2, 2000, 8);
        orig.record_frame(2, 0, 7, 16); // unscoped tag
        orig.record(2, Counter::Timeouts);
        orig.record(0, Counter::Reconnects);
        orig.record(0, Counter::HeartbeatsSent);
        orig.record(0, Counter::Resumes);
        let snap = orig.snapshot();

        let fresh = NetworkStats::with_trace(3, TraceHandle::enabled(3));
        fresh.restore_snapshot(&snap).unwrap();
        assert_eq!(fresh.total_bytes(), orig.total_bytes());
        assert_eq!(fresh.total_messages(), orig.total_messages());
        assert_eq!(fresh.bytes_between(0, 1), orig.bytes_between(0, 1));
        assert_eq!(fresh.count_by(2, Counter::Timeouts), 1);
        assert_eq!(fresh.per_block_traffic(), orig.per_block_traffic());
        assert_eq!(fresh.unscoped_bytes(), orig.unscoped_bytes());
        // Recovery counters describe the crash, not the protocol: they
        // are not part of the snapshot and stay zero after a restore.
        assert_eq!(fresh.total(Counter::Reconnects), 0);
        assert_eq!(fresh.total(Counter::HeartbeatsSent), 0);
        assert_eq!(fresh.total(Counter::Resumes), 0);
        // The restored deltas were mirrored into the trace, so the
        // per-process conservation invariant still holds.
        let t = fresh.trace();
        assert_eq!(
            t.counter_total(Counter::BytesSent),
            t.counter_total(Counter::BytesReceived)
        );
        assert_eq!(
            t.counter_total(Counter::MessagesSent),
            t.counter_total(Counter::MessagesReceived)
        );
        assert_eq!(t.counter_total(Counter::BytesSent), fresh.total_bytes());
        assert_eq!(t.counter(2, Counter::Timeouts), 1);
        // Snapshots from a differently-sized mesh are rejected.
        let wrong = NetworkStats::with_trace(2, TraceHandle::disabled());
        assert!(matches!(
            wrong.restore_snapshot(&snap),
            Err(MpcError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn recovery_counters_recorded_per_party_and_in_the_trace() {
        use dash_obs::Counter;
        let stats = NetworkStats::with_trace(2, TraceHandle::enabled(2));
        stats.record(1, Counter::Reconnects);
        stats.record(1, Counter::Reconnects);
        stats.record(0, Counter::HeartbeatsSent);
        stats.record(1, Counter::Resumes);
        assert_eq!(stats.count_by(1, Counter::Reconnects), 2);
        assert_eq!(stats.count_by(0, Counter::HeartbeatsSent), 1);
        assert_eq!(stats.count_by(1, Counter::Resumes), 1);
        assert_eq!(stats.total(Counter::Reconnects), 2);
        assert_eq!(stats.total(Counter::HeartbeatsSent), 1);
        assert_eq!(stats.total(Counter::Resumes), 1);
        assert_eq!(stats.trace().counter(1, Counter::Reconnects), 2);
        assert_eq!(stats.trace().counter(0, Counter::HeartbeatsSent), 1);
        assert_eq!(stats.trace().counter(1, Counter::Resumes), 1);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let (eps, stats) = Network::endpoints(2).unwrap();
        let (a, b) = (&eps[0], &eps[1]);
        a.send_words(1, 7, &[1, 2, 3]).unwrap();
        let got = b.recv_words(0, 7).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(stats.bytes_between(0, 1), HEADER_BYTES + 24);
        assert_eq!(stats.total_messages(), 1);
        assert_eq!(stats.bytes_between(1, 0), 0);
    }

    #[test]
    fn closed_channel_reported() {
        let (mut eps, _) = Network::endpoints(2).unwrap();
        let b = eps.pop().unwrap();
        drop(eps); // drop party 0, closing its sender side
        assert!(matches!(
            b.recv_words(0, 0),
            Err(MpcError::ChannelClosed { peer: 0 })
        ));
    }

    #[test]
    fn run_parties_all_to_all() {
        // Every party sends its id to everyone and sums what it receives.
        let results = Network::run_parties(4, 99, |ctx| {
            let me = ctx.id() as u64;
            let tag = ctx.fresh_tag();
            for j in 0..ctx.n_parties() {
                if j != ctx.id() {
                    ctx.send_words(j, tag, &[me]).unwrap();
                }
            }
            let mut sum = me;
            for j in 0..ctx.n_parties() {
                if j != ctx.id() {
                    sum += ctx.recv_words(j, tag).unwrap()[0];
                }
            }
            sum
        });
        assert_eq!(results, vec![6, 6, 6, 6]);
    }

    #[test]
    fn stalled_party_times_out_all_survivors() {
        // Tentpole acceptance: party 2 never sends; with the old blocking
        // recv this test would hang. Survivors must return Timeout within
        // the deadline while party 2's own slot completes.
        let opts = NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_millis(100),
            },
            ..NetOptions::default()
        };
        let start = Instant::now();
        let (results, stats, _) =
            Network::run_parties_detailed_with(3, 1, &opts, |ctx| -> Result<Vec<u64>, MpcError> {
                if ctx.id() == 2 {
                    // Stall without closing the channel.
                    std::thread::sleep(Duration::from_millis(400));
                    return Ok(vec![]);
                }
                ctx.recv_words(2, 77)
            })
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        for survivor in [0, 1] {
            match &results[survivor] {
                Ok(Err(MpcError::Timeout {
                    peer: 2,
                    tag: 77,
                    waited,
                })) => {
                    assert!(*waited >= Duration::from_millis(100));
                }
                other => panic!("survivor {survivor}: expected Timeout, got {other:?}"),
            }
        }
        assert_eq!(results[2], Ok(Ok(vec![])));
        assert_eq!(stats.total(Counter::Timeouts), 2);
    }

    #[test]
    fn panicking_party_becomes_error_not_process_panic() {
        // Regression: the runner used to propagate a party
        // panic through join(), killing the whole run. Now the dead
        // party's slot carries PartyFailed and survivors get a
        // structured channel error.
        let (results, _, _) = Network::run_parties_detailed_with(
            3,
            5,
            &NetOptions::default(),
            |ctx| -> Result<Vec<u64>, MpcError> {
                if ctx.id() == 1 {
                    panic!("boom at round 0");
                }
                ctx.recv_words(1, 50)
            },
        )
        .unwrap();
        match &results[1] {
            Err(MpcError::PartyFailed { party: 1, reason }) => {
                assert!(reason.contains("boom"), "reason = {reason:?}");
            }
            other => panic!("expected PartyFailed, got {other:?}"),
        }
        for survivor in [0, 2] {
            match &results[survivor] {
                Ok(Err(MpcError::ChannelClosed { peer: 1 }))
                | Ok(Err(MpcError::Timeout { peer: 1, .. })) => {}
                other => {
                    panic!("survivor {survivor}: expected ChannelClosed/Timeout, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn stats_aggregate_and_a_later_phase_is_their_difference() {
        let (eps, stats) = Network::endpoints(3).unwrap();
        eps[0].send_words(1, 0, &[0; 10]).unwrap();
        eps[0].send_words(2, 0, &[0; 5]).unwrap();
        eps[2].send_words(0, 0, &[0; 1]).unwrap();
        assert_eq!(stats.bytes_sent_by(0), 2 * HEADER_BYTES + 80 + 40);
        assert_eq!(stats.total_messages(), 3);
        assert_eq!(stats.max_party_bytes(), stats.bytes_sent_by(0));
        let _ = eps[1].recv_words_timeout(0, 0, Duration::from_millis(1));
        stats.record(2, Counter::Retries);
        assert_eq!(stats.count_by(2, Counter::Retries), 1);
        // A later phase is measured against the totals it started from.
        let (bytes, messages) = (stats.total_bytes(), stats.total_messages());
        eps[1].send_words(2, 0, &[0; 2]).unwrap();
        assert_eq!(stats.total_bytes() - bytes, HEADER_BYTES + 16);
        assert_eq!(stats.total_messages() - messages, 1);
        assert_eq!(stats.total(Counter::Retries), 1);
    }

    #[test]
    fn block_tag_attribution() {
        assert_eq!(block_of_tag(0), None);
        assert_eq!(block_of_tag(1000), None);
        assert_eq!(block_of_tag(BLOCK_TAG_BASE - 1), None);
        assert_eq!(block_of_tag(BLOCK_TAG_BASE), Some(0));
        assert_eq!(block_of_tag(BLOCK_TAG_BASE + BLOCK_TAG_STRIDE - 1), Some(0));
        assert_eq!(
            block_of_tag(BLOCK_TAG_BASE + 3 * BLOCK_TAG_STRIDE + 7),
            Some(3)
        );
    }

    #[test]
    fn per_block_counters_sum_to_total() {
        let (eps, stats) = Network::endpoints(2).unwrap();
        eps[0].send_words(1, 5, &[1, 2]).unwrap();
        eps[0].send_words(1, BLOCK_TAG_BASE + 1, &[0; 4]).unwrap();
        eps[1]
            .send_words(0, BLOCK_TAG_BASE + BLOCK_TAG_STRIDE + 2, &[0; 3])
            .unwrap();
        let blocks = stats.per_block_traffic();
        assert_eq!(
            blocks,
            vec![(0, HEADER_BYTES + 32, 1), (1, HEADER_BYTES + 24, 1)]
        );
        assert_eq!(stats.unscoped_bytes(), HEADER_BYTES + 16);
        assert_eq!(
            stats.block_bytes_total() + stats.unscoped_bytes(),
            stats.total_bytes()
        );
    }

    #[test]
    fn empty_payload_costs_header_only() {
        let (eps, stats) = Network::endpoints(2).unwrap();
        eps[0].send_words(1, 3, &[]).unwrap();
        assert_eq!(eps[1].recv_words(0, 3).unwrap(), Vec::<u64>::new());
        assert_eq!(stats.bytes_between(0, 1), HEADER_BYTES);
    }
}
