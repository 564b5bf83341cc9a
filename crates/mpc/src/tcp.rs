//! Real-socket transport: the [`Transport`] contract over TCP.
//!
//! One OS process per party. Frames are length-prefixed and carry a
//! per-link sequence number, assigned under the link's socket lock. A
//! per-peer reader thread hands every frame it reads to the link's
//! machine (`link.rs`), which drops duplicates, holds early frames (a
//! reconnect's replay can overlap what already arrived) and passes on only
//! the frames now due, in order, to the protocol's channel — so the
//! protocol sees what the in-process [`crate::net::Endpoint`]'s mpsc
//! channel gives it: every frame once, in send order, or a structured
//! error ([`MpcError::Timeout`], [`MpcError::ChannelClosed`],
//! [`MpcError::MalformedPayload`], [`MpcError::ReorderOverflow`]). Every
//! outgoing frame is counted at the same single accounting point
//! ([`NetworkStats`], which mirrors into the `dash-obs` trace), so stats
//! and trace totals stay bit-identical to an in-process run of the same
//! protocol.
//!
//! Connection setup is deterministic: party `i` dials every lower id
//! `j < i` (bounded connect retry with backoff) and accepts from every
//! higher id, and both directions exchange a fixed 48-byte hello (magic,
//! wire version, run id, party id, party count, resume cursor, flags)
//! before any protocol byte moves. Any mismatch is a structured
//! [`MpcError::Handshake`]. The exchange is written once per side —
//! `hello_dial` and `hello_accept` — and the initial mesh, the reconnect
//! dial and the accept router all go through them; likewise one
//! `read_frame` parses every frame under the one reader loop
//! (`reader_thread`). What a link *decides* — sequence, replay, ack,
//! liveness and reconnect rules, fail-fast vs. supervised — is the pure
//! `link.rs` machine's; this module is the shell that owns the
//! sockets, the threads, the pauses and the clock. Teardown is an event,
//! not a poll: a party that finished says so with a close record
//! ([`Transport::close`]), a read that ends closes its socket at once, and
//! every pause blocks on the one stop signal `Drop` raises.
//!
//! Threat model: this transport moves **plaintext shares** over TCP. On
//! an untrusted network an eavesdropper seeing all links can reconstruct
//! secrets; TLS (or an authenticated channel per link) is future work —
//! see DESIGN.md §"Wire transport".

use crate::error::MpcError;
use crate::link::{AfterRead, Link, Reconnect};
use crate::net::{NetworkStats, HEADER_BYTES};
use crate::tags::{CLOSE_TAG, HEARTBEAT_TAG};
use crate::transport::{LinkSnapshot, Message, Transport};
use dash_obs::Counter;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hello preamble: magic, wire version, run id, party id, party count,
/// next-expected receive sequence, flags.
const HELLO_MAGIC: [u8; 4] = *b"DSH1";
/// Bumped on any framing or handshake layout change. Version 2 extended
/// the hello with a per-link resume cursor and a flags word so a
/// reconnecting or checkpoint-resumed party can tell its peer exactly
/// which frame it expects next; version 3 adds the close record.
const WIRE_VERSION: u32 = 3;
/// Size of the fixed hello exchanged in both directions at connect time.
const HELLO_BYTES: usize = 48;
/// Hello flags bit: the sender is re-attaching to an existing run (link
/// reconnect or checkpoint resume) rather than joining a fresh mesh.
const HELLO_FLAG_RESUME: u64 = 1;

/// Sentinel sequence number of the two transport-internal frames: the
/// heartbeat ([`HEARTBEAT_TAG`], payload = ack cursor) and the close
/// record ([`CLOSE_TAG`], no payload, the last frame of a party that
/// finished). Neither reaches the protocol (the link's machine consumes
/// them) or the byte/message accounting, so every transport and policy
/// reports bit-identical traffic totals for the same protocol.
pub(crate) const SENTINEL_SEQ: u64 = u64::MAX;

/// Largest payload a frame may carry (64 MiB). A header announcing more
/// is treated as a malformed frame — the link fails structurally with
/// [`MpcError::MalformedPayload`] instead of attempting the allocation.
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// How often a blocked reader thread wakes to check the stop signal: the
/// fallback for a peer that never answers our FIN (one that does wakes
/// the read itself). Armed from the start, not at teardown, because a
/// timeout set on an already-blocked `read` does not wake it.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Pause between non-blocking `accept`s: doubled from the first to the
/// second while nothing arrives, back to zero on each accepted socket.
const ACCEPT_POLL_MIN: Duration = Duration::from_micros(50);
const ACCEPT_POLL_MAX: Duration = Duration::from_millis(5);

/// Longest a supervised receive blocks before re-checking peer liveness
/// against the heartbeat stream.
const LIVENESS_POLL_INTERVAL: Duration = Duration::from_millis(500);

/// Longest a shutting-down reader keeps draining its socket while
/// waiting for the peer's FIN before giving up and closing anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Base pause between initial dial attempts to a lower-id peer; each
/// pause is a [`jittered_backoff`] multiple of it.
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// Base pause between re-dial attempts of a supervised link that went
/// down; each pause is a [`jittered_backoff`] multiple of it.
pub(crate) const RECONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Outbound frames each supervised link keeps for replay after a peer
/// resumes; past this the oldest go, and a resume that needs a dropped
/// frame fails with [`MpcError::ResumeMismatch`].
const REPLAY_CAPACITY: usize = 8192;

/// Link-supervision policy: heartbeats, liveness verdicts and bounded
/// reconnection. `None` in [`TcpConfig`] keeps the unsupervised
/// fail-fast semantics (any socket error is immediately fatal for the
/// link), which is what in-process tests expect. Each field is the
/// `dash party` flag named on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSupervision {
    /// `--heartbeat-ms`: how often each party emits a heartbeat frame on
    /// an idle link.
    pub heartbeat_interval: Duration,
    /// `--liveness-timeout-ms`: a peer silent for longer than this (no
    /// frames, no heartbeats) is declared dead: receives fail with
    /// [`MpcError::PeerCrashed`] instead of burning the full protocol
    /// deadline.
    pub liveness_deadline: Duration,
    /// `--reconnect-window-ms`: total time a broken link may spend
    /// reconnecting (dial retries or waiting for the peer to dial back
    /// in) before the link is failed.
    pub reconnect_window: Duration,
}

impl Default for LinkSupervision {
    fn default() -> Self {
        LinkSupervision {
            heartbeat_interval: Duration::from_millis(250),
            liveness_deadline: Duration::from_secs(15),
            reconnect_window: Duration::from_secs(15),
        }
    }
}

/// Connect-time policy for one party process. Each field is the
/// `dash party` flag named on it, and the timeouts and retries default
/// to that command's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// `--run-id`: shared run identifier; the hello exchange rejects
    /// peers from a different run (stale processes, wrong rendezvous),
    /// and it keys the dial jitter.
    pub run_id: u64,
    /// `--connect-timeout-ms`: per-attempt TCP connect timeout when
    /// dialing a lower-id peer, and the read timeout for an accepted
    /// dialer's hello.
    pub connect_timeout: Duration,
    /// `--connect-retries`: dial attempts per lower-id peer before giving
    /// up. Peers start in arbitrary order, so early attempts routinely
    /// hit connection-refused; the retry loop absorbs that window.
    pub connect_retries: u32,
    /// `--accept-timeout-ms`: the rendezvous window, the total time to
    /// wait for every higher-id peer to dial in, and for each dialed
    /// lower-id peer to answer our hello (its listener may be bound
    /// before it is accepting).
    pub accept_timeout: Duration,
    /// The `SUPERVISION` flags (`dash party` is always supervised);
    /// `None` disables heartbeats, reconnects and replay buffering
    /// entirely.
    pub supervision: Option<LinkSupervision>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            run_id: 0,
            connect_timeout: Duration::from_secs(2),
            connect_retries: 30,
            accept_timeout: Duration::from_secs(30),
            supervision: None,
        }
    }
}

/// The pause before the next dial from party `from` to party `to` in run
/// `run_id`: `base` times a factor in [0.5, 1.5) from a SplitMix64-style
/// hash of all four keys. A rerun replays the same pauses, and parties
/// that dial one peer at once (a fleet restarting together) spread out
/// instead of dialing in lockstep.
pub(crate) fn jittered_backoff(
    base: Duration,
    run_id: u64,
    from: usize,
    to: usize,
    attempt: u32,
) -> Duration {
    let mut z = run_id
        ^ (from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ 0xD6E8_FEB8_6659_FD93;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let frac = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    base.mul_f64(0.5 + frac)
}

/// Little-endian u64 at `off`, bounds-checked.
pub(crate) fn le_u64(buf: &[u8], off: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(off..off.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Little-endian u32 at `off`, bounds-checked.
fn le_u32(buf: &[u8], off: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(off..off.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Decoded contents of a (validated) v2 hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hello {
    /// The peer's claimed party id.
    party: usize,
    /// Next frame sequence number the peer expects on this link; frames
    /// below it were already delivered in order on the peer's side.
    next_expected: u64,
    /// The peer is re-attaching (reconnect or checkpoint resume).
    resume: bool,
}

fn encode_hello(
    run_id: u64,
    party: u64,
    n: u64,
    next_expected: u64,
    flags: u64,
) -> [u8; HELLO_BYTES] {
    let mut buf = [0u8; HELLO_BYTES];
    for (dst, src) in buf.iter_mut().zip(
        HELLO_MAGIC
            .iter()
            .copied()
            .chain(WIRE_VERSION.to_le_bytes())
            .chain(run_id.to_le_bytes())
            .chain(party.to_le_bytes())
            .chain(n.to_le_bytes())
            .chain(next_expected.to_le_bytes())
            .chain(flags.to_le_bytes()),
    ) {
        *dst = src;
    }
    buf
}

/// Parses and validates a hello against this run's parameters. `peer`
/// only attributes the error.
fn decode_hello(
    buf: &[u8; HELLO_BYTES],
    peer: usize,
    run_id: u64,
    n: usize,
) -> Result<Hello, MpcError> {
    let fail = |reason: String| MpcError::Handshake { peer, reason };
    if buf.get(..4) != Some(&HELLO_MAGIC) {
        return Err(fail("bad magic (not a dash party?)".to_string()));
    }
    let version = le_u32(buf, 4).unwrap_or(0);
    if version != WIRE_VERSION {
        return Err(fail(format!(
            "wire version mismatch: ours {WIRE_VERSION}, theirs {version}"
        )));
    }
    let their_run = le_u64(buf, 8).unwrap_or(0);
    if their_run != run_id {
        return Err(fail(format!(
            "run id mismatch: ours {run_id}, theirs {their_run}"
        )));
    }
    let claimed = le_u64(buf, 16).unwrap_or(u64::MAX);
    let their_n = le_u64(buf, 24).unwrap_or(0);
    if their_n != n as u64 {
        return Err(fail(format!(
            "party count mismatch: ours {n}, theirs {their_n}"
        )));
    }
    if claimed >= n as u64 {
        return Err(fail(format!(
            "claimed party id {claimed} out of range for {n} parties"
        )));
    }
    let next_expected = le_u64(buf, 32).unwrap_or(0);
    let flags = le_u64(buf, 40).unwrap_or(0);
    Ok(Hello {
        party: claimed as usize,
        next_expected,
        resume: flags & HELLO_FLAG_RESUME != 0,
    })
}

/// Reads a full hello under an overall deadline, tolerating a peer that
/// trickles bytes: progress is kept across short read timeouts, but the
/// *total* wait is bounded by `deadline`, so a dialer that connects and
/// then stalls (or slow-lorises one byte at a time) cannot pin the
/// accept loop past its window. Returns `None` on deadline expiry or
/// any socket error — callers treat both as "this socket is not a
/// usable peer".
fn read_hello_deadline(stream: &mut TcpStream, deadline: Duration) -> Option<[u8; HELLO_BYTES]> {
    let start = Instant::now();
    let mut buf = [0u8; HELLO_BYTES];
    let mut filled = 0usize;
    while filled < HELLO_BYTES {
        let remaining = deadline.checked_sub(start.elapsed())?;
        let poll = remaining
            .min(READ_POLL_INTERVAL)
            .max(Duration::from_millis(1));
        if stream.set_read_timeout(Some(poll)).is_err() {
            return None;
        }
        match stream.read(buf.get_mut(filled..)?) {
            Ok(0) => return None,
            Ok(k) => filled = filled.saturating_add(k),
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted => {}
                _ => return None,
            },
        }
    }
    Some(buf)
}

/// Who this process is in every hello it sends or checks.
#[derive(Debug, Clone, Copy)]
struct Identity {
    run_id: u64,
    id: usize,
    n: usize,
}

impl Identity {
    fn hello(&self, next_expected: u64, flags: u64) -> [u8; HELLO_BYTES] {
        encode_hello(
            self.run_id,
            self.id as u64,
            self.n as u64,
            next_expected,
            flags,
        )
    }
}

/// Why a link could not be (re)established on a given socket.
enum LinkError {
    /// The socket died or stalled mid-exchange. Fatal for the initial
    /// mesh; inside a reconnect window it is worth another attempt.
    Io(MpcError),
    /// Structurally irreconcilable (wrong run, wrong peer, cursors that
    /// cannot meet); the link fails with this error everywhere.
    Fatal(MpcError),
}

impl LinkError {
    fn into_inner(self) -> MpcError {
        match self {
            LinkError::Io(e) | LinkError::Fatal(e) => e,
        }
    }
}

/// The dial side of the hello exchange, for the initial mesh and for a
/// supervised re-dial alike: send ours (our receive cursor on this link,
/// `flags`), wait at most `reply_deadline` for the peer's, validate it
/// against this run and check the peer is who we dialed.
fn hello_dial(
    stream: &mut TcpStream,
    me: Identity,
    peer: usize,
    next_expected: u64,
    flags: u64,
    reply_deadline: Duration,
) -> Result<Hello, LinkError> {
    let io = |reason: String| LinkError::Io(MpcError::Handshake { peer, reason });
    stream
        .write_all(&me.hello(next_expected, flags))
        .map_err(|e| io(format!("send hello: {e}")))?;
    let buf = read_hello_deadline(stream, reply_deadline).ok_or_else(|| {
        io(format!(
            "hello reply did not arrive within {reply_deadline:?}"
        ))
    })?;
    let hello = decode_hello(&buf, peer, me.run_id, me.n).map_err(LinkError::Fatal)?;
    if hello.party != peer {
        return Err(LinkError::Fatal(MpcError::Handshake {
            peer,
            reason: format!("dialed party {peer} but peer claims id {}", hello.party),
        }));
    }
    Ok(hello)
}

/// The accept side of the hello exchange, for the initial mesh and for
/// the supervised accept router alike: read the dialer's hello under a
/// hard per-socket `deadline`, validate it against this run (`blame`
/// attributes a hello too broken to name its sender), check the dial
/// direction — only higher ids ever dial us — and that `cursor_for`
/// still has a link waiting for that party, then answer with our receive
/// cursor on it.
///
/// `Err(None)` is a stalled or dead dialer: drop the socket and keep
/// accepting. `Err(Some(_))` is a dialer that is wrong for this run; the
/// initial mesh fails with it, the router drops it like any stranger.
fn hello_accept(
    stream: &mut TcpStream,
    me: Identity,
    blame: usize,
    deadline: Duration,
    flags: u64,
    cursor_for: impl FnOnce(usize) -> Option<u64>,
) -> Result<Hello, Option<MpcError>> {
    let buf = read_hello_deadline(stream, deadline).ok_or(None)?;
    let hello = decode_hello(&buf, blame, me.run_id, me.n)?;
    let peer = hello.party;
    let reject = |reason: String| Some(MpcError::Handshake { peer, reason });
    let cursor = (peer > me.id)
        .then(|| cursor_for(peer))
        .flatten()
        .ok_or_else(|| {
            reject(format!(
                "party {peer} dialed us but should not (duplicate or wrong direction)"
            ))
        })?;
    stream
        .write_all(&me.hello(cursor, flags))
        .map_err(|e| reject(format!("send hello: {e}")))?;
    Ok(hello)
}

/// Maps a listener error during mesh setup, blaming `peer`.
fn hs_io(peer: usize, what: &str, e: &std::io::Error) -> MpcError {
    MpcError::Handshake {
        peer,
        reason: format!("{what}: {e}"),
    }
}

/// Dials `addr` with bounded retry: peers start in arbitrary order, so
/// connection-refused is expected until the peer's listener is up. The
/// inter-attempt sleep is jittered by run, dialer, peer and attempt so a
/// fleet of parties (re)starting together doesn't dial in lockstep.
fn dial_with_retry(
    addr: SocketAddr,
    me: Identity,
    peer: usize,
    cfg: &TcpConfig,
) -> Result<TcpStream, MpcError> {
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..=cfg.connect_retries {
        match TcpStream::connect_timeout(&addr, cfg.connect_timeout) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(jittered_backoff(
                    CONNECT_BACKOFF,
                    me.run_id,
                    me.id,
                    peer,
                    attempt,
                ));
            }
        }
    }
    let detail = last.map_or_else(|| "no attempts made".to_string(), |e| e.to_string());
    Err(MpcError::Handshake {
        peer,
        reason: format!(
            "connect to {addr} failed after {} attempts: {detail}",
            cfg.connect_retries.saturating_add(1)
        ),
    })
}

/// The transport's stop signal. `Drop` raises it once, and every pause in
/// the shell — heartbeat step, re-dial backoff, accept poll — is a
/// [`Stop::wait`], so teardown wakes its threads instead of waiting them
/// out. Only a blocked socket `read` cannot wait on it; that one polls
/// `raised` (which publishes nothing but itself, hence `Relaxed`).
#[derive(Debug, Default)]
struct Stop {
    raised: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Stop {
    /// Under `lock`, so no waiter can check, miss the wake and then block.
    fn raise(&self) {
        let _held = self.lock.lock();
        self.raised.store(true, Ordering::Relaxed);
        self.wake.notify_all();
    }

    /// Blocks for `pause` or until raised; true once raised.
    fn wait(&self, pause: Duration) -> bool {
        let lowered = |_: &mut ()| !self.raised.load(Ordering::Relaxed);
        drop(
            self.wake
                .wait_timeout_while(self.lock.lock(), pause, lowered),
        );
        self.raised.load(Ordering::Relaxed)
    }
}

/// One peer's link as the shell holds it: the machine, the socket's write
/// half and the protocol-side inbox, shared by the protocol thread, the
/// heartbeat thread, the accept router and the link's reader thread.
///
/// Two invariants rest on how the first two locks are used. (1) A
/// reconnect replays the backlog and installs the new socket atomically
/// with respect to new sends: both hold `socket` from asking the machine
/// (`peer_hello` / `alloc_seq` + `sent`) to the write's end, so frames go
/// onto the wire in sequence order, and none can slip between the
/// replayed backlog and the first new send, nor follow the close record
/// that `close` writes under it. (2) `machine` is never held across I/O
/// and `socket` is never taken to process an arriving frame: acks are
/// written by the protocol thread as it takes frames (and by the heartbeat
/// thread), never by the reader, so a sender blocked in `write_all` on a
/// full frame stalls no reader. Lock order: `socket`, then `machine`; an
/// ack asks `machine` and releases it before it takes `socket`.
#[derive(Debug)]
struct PeerLink {
    /// Current socket; `None` while the link is down.
    socket: Mutex<Option<TcpStream>>,
    machine: Mutex<Link>,
    inbox: Mutex<Inbox>,
}

/// The protocol's side of a link: the frames the machine has handed on,
/// in order, and how many of them the protocol has taken.
#[derive(Debug)]
struct Inbox {
    rx: Receiver<(u32, Vec<u8>)>,
    /// The protocol-consumed receive cursor, which a checkpoint records:
    /// frames still in the channel die with the process, and peers
    /// re-send everything from this cursor on resume.
    consumed: u64,
}

/// Encodes one frame header + payload into a single write buffer.
fn frame_bytes(seq: u64, tag: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES as usize + payload.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Why a read ended short of what it was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadEnd {
    /// The peer closed the connection; `partial` is true when the close
    /// landed mid-frame.
    Eof { partial: bool },
    /// Our own transport is shutting down.
    Shutdown,
    /// An unrecoverable socket error.
    Failed,
    /// A header announcing more than [`MAX_FRAME_BYTES`] of payload;
    /// nothing was allocated for it.
    Oversized(u64),
}

/// Fills `buf` from `stream`, tolerating read-timeout wakeups: partial
/// progress is kept across `WouldBlock`/`TimedOut` (so a slow frame never
/// desyncs the stream) and the shutdown flag is polled between reads.
/// `std::io::Read::read_exact` must not be used here — it discards its
/// partial progress on timeout errors.
fn read_full(stream: &mut impl Read, buf: &mut [u8], shutdown: &AtomicBool) -> Result<(), ReadEnd> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Err(ReadEnd::Shutdown);
        }
        let dst = buf.get_mut(filled..).ok_or(ReadEnd::Failed)?;
        let partial = filled > 0;
        match stream.read(dst) {
            Ok(0) => return Err(ReadEnd::Eof { partial }),
            Ok(k) => filled = filled.saturating_add(k),
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted => continue,
                // A reset after the peer finished sending is routine
                // teardown (it closed with unread duplicates in flight);
                // at a frame boundary treat it like EOF.
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted => {
                    return Err(ReadEnd::Eof { partial })
                }
                _ => return Err(ReadEnd::Failed),
            },
        }
    }
    Ok(())
}

/// Reads one `seq | tag | len | payload` frame — the only frame parser.
/// The length is checked against [`MAX_FRAME_BYTES`] *before* the payload
/// buffer is allocated, so a hostile header costs 20 bytes, not memory. A
/// close after the header is always mid-frame (`partial`), whatever the
/// payload read had gathered. Generic over [`Read`] so arbitrary byte
/// streams can be driven through it from a slice.
fn read_frame(stream: &mut impl Read, shutdown: &AtomicBool) -> Result<Message, ReadEnd> {
    let mut header = [0u8; HEADER_BYTES as usize];
    read_full(stream, &mut header, shutdown)?;
    let (Some(seq), Some(tag), Some(len)) =
        (le_u64(&header, 0), le_u32(&header, 8), le_u64(&header, 12))
    else {
        return Err(ReadEnd::Failed); // unreachable: the buffer is header-sized
    };
    if len > MAX_FRAME_BYTES {
        return Err(ReadEnd::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(stream, &mut payload, shutdown).map_err(|end| match end {
        ReadEnd::Eof { .. } => ReadEnd::Eof { partial: true },
        other => other,
    })?;
    Ok(Message { seq, tag, payload })
}

/// Discards everything left on the socket until the peer's EOF (or a
/// bounded deadline). Closing a TCP socket with unread bytes in its
/// receive queue — absorbed duplicates, a peer's trailing frames — makes
/// the kernel answer with RST instead of FIN, and an RST destroys
/// in-flight data the peer may still need. Draining first guarantees the
/// eventual close is a clean FIN whenever the peer closes within the
/// deadline.
fn drain_until_eof(stream: &mut TcpStream) {
    let start = Instant::now();
    let mut scratch = [0u8; 4096];
    while start.elapsed() < DRAIN_DEADLINE {
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted => continue,
                _ => return,
            },
        }
    }
}

/// Everything a link's reader thread needs.
struct ReaderCtx {
    me: Identity,
    peer: usize,
    peer_addr: SocketAddr,
    connect_timeout: Duration,
    link: Arc<PeerLink>,
    stop: Arc<Stop>,
    stats: Arc<NetworkStats>,
    /// Reconnected sockets routed from the accept thread (peers that
    /// dial us, i.e. `peer > id`), hello already exchanged, each with the
    /// peer's next-expected receive sequence from it.
    routed: Receiver<(TcpStream, u64)>,
}

/// Asks the machine what a freshly handshaken peer socket still needs,
/// writes that backlog (bypassing the accounting point — those frames
/// were counted when first sent) and installs the socket as the link's
/// writer, all under the `socket` lock (invariant 1 on [`PeerLink`]).
/// Returns the reader half.
fn reconcile_and_install(
    link: &PeerLink,
    peer: usize,
    mut stream: TcpStream,
    their_next: u64,
    self_resuming: bool,
) -> Result<TcpStream, LinkError> {
    let io = |what: &str| {
        LinkError::Io(MpcError::Handshake {
            peer,
            reason: format!("link failed while {what}"),
        })
    };
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone().map_err(|_| io("cloning the socket"))?;
    read_half
        .set_read_timeout(Some(READ_POLL_INTERVAL))
        .map_err(|_| io("arming the read poll"))?;
    let now = Instant::now();
    let mut socket = link.socket.lock();
    let backlog = link
        .machine
        .lock()
        .peer_hello(their_next, self_resuming, now);
    for f in backlog.map_err(LinkError::Fatal)? {
        stream
            .write_all(&frame_bytes(f.seq, f.tag, &f.payload))
            .map_err(|_| io("replaying the resume backlog"))?;
    }
    *socket = Some(stream);
    Ok(read_half)
}

/// Carries out the machine's reconnect steps until the link is back
/// (`Some`: the new reader half) or the thread should end (`None`: the
/// stop signal was raised, or the verdict is stored in the machine).
/// Lower-id peers are re-dialed; higher-id peers dial us, so their
/// sockets arrive via the accept thread's route channel — which that
/// thread drops when it stops, so both waits here end with the transport.
fn reestablish(ctx: &ReaderCtx) -> Option<TcpStream> {
    let mut pause = Duration::ZERO;
    while !ctx.stop.wait(pause) {
        let now = Instant::now();
        let step = ctx.link.machine.lock().reconnect_step(now).ok()?;
        let attempted = match step {
            Reconnect::Dial {
                remaining,
                pause: backoff,
            } => {
                pause = backoff;
                // Dial again, announcing the resume and our receive cursor.
                let dial_timeout = ctx
                    .connect_timeout
                    .min(remaining.max(Duration::from_millis(10)));
                let dialed = TcpStream::connect_timeout(&ctx.peer_addr, dial_timeout).ok();
                dialed.map(|mut s| {
                    let ours = ctx.link.machine.lock().recv_cursor();
                    let flags = HELLO_FLAG_RESUME;
                    let theirs =
                        hello_dial(&mut s, ctx.me, ctx.peer, ours, flags, ctx.connect_timeout)?;
                    reconcile_and_install(&ctx.link, ctx.peer, s, theirs.next_expected, false)
                })
            }
            Reconnect::Await { remaining } => match ctx.routed.recv_timeout(remaining) {
                Ok(mut conn) => {
                    // If several dials raced in, keep only the newest.
                    while let Ok(newer) = ctx.routed.try_recv() {
                        conn = newer;
                    }
                    let (s, theirs) = conn;
                    Some(reconcile_and_install(&ctx.link, ctx.peer, s, theirs, false))
                }
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return None,
            },
        };
        match attempted {
            Some(Ok(read_half)) => return Some(read_half),
            Some(Err(LinkError::Fatal(e))) => {
                ctx.link.machine.lock().fail(e);
                return None;
            }
            // The socket died mid-exchange (or none arrived): try again
            // within the window.
            Some(Err(LinkError::Io(_))) | None => {}
        }
    }
    None
}

/// The one reader thread, for both policies: read a frame, hand it to the
/// machine, forward what it says is due; when the read ends, do what the
/// machine says — exit, exit with its verdict stored, or reconnect within
/// the window and keep going. Dropping `tx` is what surfaces a stored
/// verdict (or a plain [`MpcError::ChannelClosed`]) to the protocol thread.
fn reader_thread(mut read_half: TcpStream, ctx: ReaderCtx, tx: Sender<(u32, Vec<u8>)>) {
    loop {
        let after = match read_frame(&mut read_half, &ctx.stop.raised) {
            Ok(msg) => {
                let due = ctx.link.machine.lock().frame_arrived(msg, Instant::now());
                match due {
                    Ok(due) => {
                        for msg in due {
                            // Cannot fail: the receiver lives in `ctx.link.inbox`.
                            let _ = tx.send((msg.tag, msg.payload));
                        }
                        continue;
                    }
                    // The machine stored its verdict; the link is over.
                    Err(verdict) => Err(verdict),
                }
            }
            Err(ReadEnd::Shutdown) => {
                // `Drop` has sent our FIN; closing before the peer's
                // arrives could RST frames it has yet to read.
                drain_until_eof(&mut read_half);
                return;
            }
            Err(end) => ctx.link.machine.lock().read_ended(end, Instant::now()),
        };
        // Any other end is the peer's doing (a FIN, with or without a
        // close record, a dead socket, or a frame the machine refused):
        // close our side fully before anything else. A peer tearing down
        // drains its half until our FIN, and holding our clones open would
        // stall that drain for its whole deadline (delaying a restart past
        // our reconnect window).
        let _ = read_half.shutdown(Shutdown::Both);
        *ctx.link.socket.lock() = None;
        if after != Ok(AfterRead::Reconnect) {
            return;
        }
        let Some(reconnected) = reestablish(&ctx) else {
            return;
        };
        read_half = reconnected;
        ctx.stats.record(ctx.me.id, Counter::Reconnects);
    }
}

/// The supervised accept thread: owns the listener after initial mesh
/// setup, handshakes every later incoming connection under a hard hello
/// deadline, and routes reconnect sockets to the owning link's reader.
/// Malformed or stale dialers are dropped silently — a structured verdict
/// for *this* run's links comes from the links' own windows, not from
/// strangers on the port.
fn accept_route_loop(
    listener: TcpListener,
    me: Identity,
    hello_deadline: Duration,
    links: Vec<Option<Arc<PeerLink>>>,
    routes: Vec<Option<Sender<(TcpStream, u64)>>>,
    stop: Arc<Stop>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut pause = Duration::ZERO;
    while !stop.wait(pause) {
        let Ok((mut stream, _)) = listener.accept() else {
            pause = (pause * 2).clamp(ACCEPT_POLL_MIN, ACCEPT_POLL_MAX);
            continue;
        };
        pause = Duration::ZERO;
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // Our reply carries the link's live receive cursor; a party with
        // no link here (or any other stranger) gets no reply at all.
        let cursor_for = |peer: usize| {
            let link = links.get(peer)?.as_ref()?;
            Some(link.machine.lock().recv_cursor())
        };
        let Ok(hello) = hello_accept(
            &mut stream,
            me,
            me.id,
            hello_deadline,
            HELLO_FLAG_RESUME,
            cursor_for,
        ) else {
            continue;
        };
        if let Some(route) = routes.get(hello.party).and_then(|r| r.as_ref()) {
            let _ = route.send((stream, hello.next_expected));
        }
    }
}

/// Writes the heartbeat sentinel carrying `ack` under the `socket` lock;
/// false when the link is down. A failed write just marks it down — the
/// link's own reader notices the broken socket and runs the reconnect
/// protocol, and the next heartbeat carries the ack again.
fn write_ack(link: &PeerLink, ack: u64) -> bool {
    let frame = frame_bytes(SENTINEL_SEQ, HEARTBEAT_TAG, &ack.to_le_bytes());
    let mut socket = link.socket.lock();
    let written = socket.as_mut().is_some_and(|s| s.write_all(&frame).is_ok());
    if !written {
        *socket = None;
    }
    written
}

/// The heartbeat thread: writes the liveness/ack sentinel on every up
/// link whenever its machine says one is due; it never supervises.
fn heartbeat_loop(
    id: usize,
    links: Vec<Option<Arc<PeerLink>>>,
    interval: Duration,
    stats: Arc<NetworkStats>,
    stop: Arc<Stop>,
) {
    let step = interval
        .min(Duration::from_millis(50))
        .max(Duration::from_millis(1));
    while !stop.wait(step) {
        for link in links.iter().flatten() {
            let ack = link.machine.lock().heartbeat_due(Instant::now());
            if ack.is_some_and(|ack| write_ack(link, ack)) {
                stats.record(id, Counter::HeartbeatsSent);
            }
        }
    }
}

/// A party's socket mesh: one TCP connection per peer, with the same
/// once-and-in-order delivery, deadline-aware receives, accounting and
/// error surface as the in-process [`crate::net::Endpoint`].
#[derive(Debug)]
pub struct TcpTransport {
    id: usize,
    /// Per-peer link: machine, socket writer and inbox (index = peer id;
    /// self is `None`).
    links: Vec<Option<Arc<PeerLink>>>,
    stop: Arc<Stop>,
    readers: Vec<JoinHandle<()>>,
    /// Accept-router and heartbeat threads (supervised mode only).
    aux: Vec<JoinHandle<()>>,
    stats: Arc<NetworkStats>,
}

impl TcpTransport {
    /// Establishes the full peer mesh for party `id` and returns a ready
    /// transport.
    ///
    /// `peers` lists every party's address in id order (`peers.len()` is
    /// the party count); `listener` must already be bound to
    /// `peers[id]`'s port (binding is the caller's job so tests can bind
    /// port 0 and read the assigned address back). `stats` is this
    /// process's accounting sink and must be sized for the same party
    /// count.
    ///
    /// Blocks until every link is connected and handshaken or a bound
    /// fails: dial retries are exhausted ([`MpcError::Handshake`]), the
    /// accept window closes, or a peer presents a mismatched hello.
    pub fn connect(
        id: usize,
        listener: TcpListener,
        peers: &[SocketAddr],
        cfg: TcpConfig,
        stats: Arc<NetworkStats>,
    ) -> Result<Self, MpcError> {
        Self::connect_resume(id, listener, peers, cfg, stats, None)
    }

    /// [`TcpTransport::connect`], optionally rejoining an interrupted
    /// run from checkpointed per-link cursors — the [`LinkSnapshot`] its
    /// previous process took with [`Transport::link_snapshot`] at the
    /// last durable block boundary. With `resume`, every
    /// hello carries the resume flag and this party's checkpointed
    /// receive cursor; surviving peers replay the outbound frames this
    /// party lost with its process, and this party's own re-executed
    /// sends reuse their original sequence numbers so peers deduplicate
    /// them — traffic totals and results stay bit-identical to an
    /// uninterrupted run. A cursor no peer can reconcile fails fast
    /// with [`MpcError::ResumeMismatch`].
    pub fn connect_resume(
        id: usize,
        listener: TcpListener,
        peers: &[SocketAddr],
        cfg: TcpConfig,
        stats: Arc<NetworkStats>,
        resume: Option<LinkSnapshot>,
    ) -> Result<Self, MpcError> {
        let n = peers.len();
        if id >= n {
            return Err(MpcError::NoSuchParty { id, n_parties: n });
        }
        if n < 2 {
            return Err(MpcError::BadPartyCount {
                n_parties: n,
                min: 2,
            });
        }
        if stats.n_parties() != n {
            return Err(MpcError::Protocol {
                what: "NetworkStats sized for a different party count",
            });
        }
        let me = Identity {
            run_id: cfg.run_id,
            id,
            n,
        };
        let resuming = resume.is_some();
        let mut resume = resume.unwrap_or_default();
        resume.send_next.resize(n, 0);
        resume.recv_next.resize(n, 0);
        resume.replay.resize(n, Vec::new());
        let recv_next = |j: usize| resume.recv_next.get(j).copied().unwrap_or(0);
        let flags = if resuming { HELLO_FLAG_RESUME } else { 0 };
        // Per peer: the handshaken socket and the peer's receive cursor.
        let mut conns: Vec<Option<(TcpStream, u64)>> = (0..n).map(|_| None).collect();

        // Dial every lower-numbered peer. A peer may bind its listener
        // long before it starts accepting (`dash party` binds, then
        // parses its cohort), so a connected dialer gives the hello reply
        // the whole rendezvous window.
        for (j, addr) in peers.iter().copied().enumerate().take(id) {
            let mut stream = dial_with_retry(addr, me, j, &cfg)?;
            let theirs = hello_dial(&mut stream, me, j, recv_next(j), flags, cfg.accept_timeout)
                .map_err(LinkError::into_inner)?;
            if let Some(slot) = conns.get_mut(j) {
                *slot = Some((stream, theirs.next_expected));
            }
        }

        // Accept every higher-numbered peer; they identify themselves in
        // their hello, we answer with ours. Each accepted socket gets a
        // hard deadline for its hello: a dialer that connects and then
        // stalls (or trickles bytes) is dropped and accepting continues,
        // so it cannot pin the loop past the accept window while real
        // peers wait behind it.
        let missing = |conns: &[Option<(TcpStream, u64)>]| -> Option<usize> {
            (id + 1..n).find(|&j| conns.get(j).is_some_and(Option::is_none))
        };
        if let Some(j) = missing(&conns) {
            listener
                .set_nonblocking(true)
                .map_err(|e| hs_io(j, "set listener nonblocking", &e))?;
        }
        let accept_start = Instant::now();
        let mut pause = Duration::ZERO;
        while let Some(next_missing) = missing(&conns) {
            let window_left = cfg.accept_timeout.saturating_sub(accept_start.elapsed());
            if window_left.is_zero() {
                return Err(MpcError::Handshake {
                    peer: next_missing,
                    reason: format!(
                        "accept window ({:?}) expired before party {next_missing} connected",
                        cfg.accept_timeout
                    ),
                });
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    pause = Duration::ZERO;
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    // One free link per higher id: a second dial from the
                    // same party has no cursor to be answered with.
                    let cursor_for = |j: usize| match conns.get(j) {
                        Some(None) => Some(recv_next(j)),
                        _ => None,
                    };
                    match hello_accept(
                        &mut stream,
                        me,
                        next_missing,
                        cfg.connect_timeout.min(window_left),
                        flags,
                        cursor_for,
                    ) {
                        Ok(theirs) => {
                            if let Some(slot) = conns.get_mut(theirs.party) {
                                *slot = Some((stream, theirs.next_expected));
                            }
                        }
                        Err(None) => {} // stalled or dead dialer: drop it, keep accepting
                        Err(Some(e)) => return Err(e),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    pause = (pause * 2).clamp(ACCEPT_POLL_MIN, ACCEPT_POLL_MAX);
                    std::thread::sleep(pause);
                }
                Err(e) => return Err(hs_io(next_missing, "accept", &e)),
            }
        }

        // Wire up per-peer link state, reconcile cursors (replaying
        // whatever each peer still expects), and start the threads.
        let stop = Arc::new(Stop::default());
        let mut links: Vec<Option<Arc<PeerLink>>> = (0..n).map(|_| None).collect();
        let mut readers = Vec::with_capacity(n.saturating_sub(1));
        let mut routes: Vec<Option<Sender<(TcpStream, u64)>>> = (0..n).map(|_| None).collect();
        for (j, slot) in conns.into_iter().enumerate() {
            let (Some((stream, their_next)), Some(&peer_addr)) = (slot, peers.get(j)) else {
                continue;
            };
            let send_next = resume.send_next.get(j).copied().unwrap_or(0);
            let backlog = resume.replay.get_mut(j).map(std::mem::take);
            let backlog = backlog.unwrap_or_default();
            let now = Instant::now();
            let mut machine = Link::new(id, j, &cfg, REPLAY_CAPACITY, now);
            machine.resume_at(send_next, recv_next(j), backlog);
            if resuming {
                // The checkpoint's cursor is durable before the heartbeat
                // thread can ack anything past it: a peer must not prune
                // a frame a second crash would re-request.
                machine.note_durable(recv_next(j));
            }
            let (tx, rx) = channel();
            let link = Arc::new(PeerLink {
                socket: Mutex::new(None),
                machine: Mutex::new(machine),
                inbox: Mutex::new(Inbox {
                    rx,
                    consumed: recv_next(j),
                }),
            });
            let read_half = reconcile_and_install(&link, j, stream, their_next, resuming)
                .map_err(LinkError::into_inner)?;
            // Only higher ids dial us, so only their links are routed to.
            let (route_tx, routed) = channel();
            if let Some(r) = routes.get_mut(j).filter(|_| j > id) {
                *r = Some(route_tx);
            }
            let ctx = ReaderCtx {
                me,
                peer: j,
                peer_addr,
                connect_timeout: cfg.connect_timeout,
                link: Arc::clone(&link),
                stop: Arc::clone(&stop),
                stats: Arc::clone(&stats),
                routed,
            };
            readers.push(std::thread::spawn(move || {
                reader_thread(read_half, ctx, tx)
            }));
            if let Some(l) = links.get_mut(j) {
                *l = Some(link);
            }
        }
        let mut aux = Vec::new();
        if let Some(sup) = cfg.supervision {
            let accept_links = links.clone();
            let accept_stop = Arc::clone(&stop);
            aux.push(std::thread::spawn(move || {
                accept_route_loop(
                    listener,
                    me,
                    cfg.connect_timeout,
                    accept_links,
                    routes,
                    accept_stop,
                );
            }));
            let hb_links = links.clone();
            let hb_stats = Arc::clone(&stats);
            let hb_stop = Arc::clone(&stop);
            aux.push(std::thread::spawn(move || {
                heartbeat_loop(id, hb_links, sup.heartbeat_interval, hb_stats, hb_stop);
            }));
        }
        if resuming {
            stats.record(id, Counter::Resumes);
        }

        Ok(TcpTransport {
            id,
            links,
            stop,
            readers,
            aux,
            stats,
        })
    }

    /// The link to `peer`; there is none to oneself or past the mesh.
    fn link(&self, peer: usize) -> Result<&PeerLink, MpcError> {
        let link = self.links.get(peer).and_then(|l| l.as_deref());
        link.ok_or(MpcError::NoSuchParty {
            id: peer,
            n_parties: self.links.len(),
        })
    }
}

impl Transport for TcpTransport {
    fn id(&self) -> usize {
        self.id
    }

    fn n_parties(&self) -> usize {
        self.links.len()
    }

    fn stats(&self) -> &Arc<NetworkStats> {
        &self.stats
    }

    /// Ships one frame: record at the single accounting point (the same
    /// sender-side ordering as the in-process endpoint), then, under the
    /// `socket` lock (invariant 1 on `PeerLink`), number it and hand it to
    /// the machine and write `seq | tag | len | payload` in one buffered
    /// syscall. What a failed write means is the machine's call:
    /// supervised, the frame rides the replay buffer to the reconnected
    /// socket, and it was already counted, so totals stay identical
    /// whether or not the link hiccupped.
    fn send_frame(&self, to: usize, tag: u32, payload: Vec<u8>) -> Result<(), MpcError> {
        let link = self.link(to)?;
        self.stats.record_frame(self.id, to, tag, payload.len());
        let mut socket = link.socket.lock();
        let buf = {
            let mut machine = link.machine.lock();
            let seq = machine.alloc_seq();
            let buf = frame_bytes(seq, tag, &payload);
            machine.sent(Message { seq, tag, payload });
            buf
        };
        if socket.as_mut().is_some_and(|s| s.write_all(&buf).is_ok()) {
            return Ok(());
        }
        *socket = None;
        link.machine.lock().write_failed()
    }

    /// Deadline-aware receive of the next frame the machine handed on.
    /// The wait is sliced so the machine can judge liveness against the
    /// heartbeat stream: a peer silent past the liveness deadline fails
    /// fast with [`MpcError::PeerCrashed`] (a dead process, not a slow
    /// one), while a live-but-slow peer still gets the full deadline. A
    /// closed channel means the link's reader exited; the verdict it left
    /// in the machine (malformed frame, reorder overflow, torn connection,
    /// dead peer, irreconcilable resume) is the error. A frame taken is
    /// acked at once when the machine says the ack cursor moved, written
    /// here on the protocol thread (invariant 2 on `PeerLink`).
    fn recv_frame(
        &self,
        from: usize,
        tag: u32,
        deadline: Duration,
    ) -> Result<(u32, Vec<u8>), MpcError> {
        let link = self.link(from)?;
        let start = Instant::now();
        loop {
            let remaining = deadline.saturating_sub(start.elapsed());
            let slice = remaining.min(LIVENESS_POLL_INTERVAL);
            let mut inbox = link.inbox.lock();
            match inbox.rx.recv_timeout(slice) {
                Ok(frame) => {
                    inbox.consumed += 1;
                    drop(inbox);
                    // Its own statement: `machine` is released before
                    // `write_ack` takes `socket`.
                    let ack = link.machine.lock().ack_due();
                    if let Some(ack) = ack {
                        write_ack(link, ack);
                    }
                    return Ok(frame);
                }
                Err(RecvTimeoutError::Timeout) => {
                    drop(inbox);
                    if let Some(dead) = link.machine.lock().silent_verdict(Instant::now()) {
                        return Err(dead);
                    }
                    if start.elapsed() >= deadline {
                        return Err(MpcError::Timeout {
                            peer: from,
                            tag,
                            waited: start.elapsed(),
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let closed = MpcError::ChannelClosed { peer: from };
                    return Err(link.machine.lock().verdict().unwrap_or(closed));
                }
            }
        }
    }

    fn link_snapshot(&self) -> Option<LinkSnapshot> {
        let mut snap = LinkSnapshot::default();
        for link in &self.links {
            let (send_next, replay) = match link {
                Some(link) => link.machine.lock().snapshot()?,
                None => (0, Vec::new()),
            };
            let recv_next = link.as_ref().map_or(0, |l| l.inbox.lock().consumed);
            snap.send_next.push(send_next);
            snap.recv_next.push(recv_next);
            snap.replay.push(replay);
        }
        Some(snap)
    }

    fn note_durable(&self, recv_next: &[u64]) {
        for (link, &cursor) in self.links.iter().zip(recv_next) {
            if let Some(link) = link {
                link.machine.lock().note_durable(cursor);
            }
        }
    }

    /// Per link, under the `socket` lock so that no send can follow: tell
    /// the machine, write the close record, send the FIN and give the
    /// write half up. Each reader then exits on its peer's answering FIN,
    /// before `Drop` comes to join it. A record that cannot be written was
    /// for a link already down, which the peer judges as it would a crash.
    fn close(&self) {
        let record = frame_bytes(SENTINEL_SEQ, CLOSE_TAG, &[]);
        for link in self.links.iter().flatten() {
            let mut socket = link.socket.lock();
            link.machine.lock().close();
            if let Some(mut stream) = socket.take() {
                let _ = stream.write_all(&record);
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.raise();
        for link in self.links.iter().flatten() {
            // Write-side shutdown only: it sends FIN but preserves
            // in-flight data for the peer, where Shutdown::Both/Read on
            // a socket with unread bytes (e.g. absorbed duplicates)
            // would RST and destroy data the peer still needs.
            if let Some(stream) = link.socket.lock().as_ref() {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
        for h in self.readers.drain(..).chain(self.aux.drain(..)) {
            // The stop signal ends every pause and our FIN (above, or
            // `close`'s) brings each peer's, which ends the reads; only a
            // peer that never answers costs a read poll + `DRAIN_DEADLINE`.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dash_obs::TraceHandle;

    pub(crate) fn test_cfg(run_id: u64) -> TcpConfig {
        TcpConfig {
            run_id,
            connect_timeout: Duration::from_secs(2),
            connect_retries: 40,
            accept_timeout: Duration::from_secs(10),
            supervision: None,
        }
    }

    /// Supervision policy with test-sized windows.
    pub(crate) fn test_sup() -> LinkSupervision {
        LinkSupervision {
            heartbeat_interval: Duration::from_millis(20),
            liveness_deadline: Duration::from_secs(2),
            reconnect_window: Duration::from_secs(5),
        }
    }

    /// Binds `n` loopback listeners and connects a full mesh under
    /// `cfg`, one transport per simulated "process" (each with its own
    /// stats). Returns the transports and the mesh addresses.
    pub(crate) fn connect_mesh_cfg(
        n: usize,
        cfg: TcpConfig,
    ) -> (Vec<TcpTransport>, Vec<SocketAddr>) {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut out: Vec<Option<TcpTransport>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(i, listener)| {
                    let addrs = addrs.clone();
                    scope.spawn(move || {
                        let stats = Arc::new(NetworkStats::with_trace(n, TraceHandle::disabled()));
                        TcpTransport::connect(i, listener, &addrs, cfg, stats)
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                out[i] = Some(h.join().unwrap().unwrap());
            }
        });
        (out.into_iter().map(|t| t.unwrap()).collect(), addrs)
    }

    /// The base the `link` machine tests count their synthetic instants
    /// from: the machine never reads the clock, and neither does its file.
    pub(crate) fn epoch() -> Instant {
        Instant::now()
    }

    fn connect_mesh(n: usize, run_id: u64) -> Vec<TcpTransport> {
        connect_mesh_cfg(n, test_cfg(run_id)).0
    }

    #[test]
    fn loopback_roundtrip_and_accounting() {
        let mesh = connect_mesh(2, 7);
        mesh[0].send_words(1, 5, &[1, 2, 3]).unwrap();
        assert_eq!(mesh[1].recv_words(0, 5).unwrap(), vec![1, 2, 3]);
        mesh[1].send_words(0, 6, &[9]).unwrap();
        assert_eq!(mesh[0].recv_words(1, 6).unwrap(), vec![9]);
        // Sender-side accounting matches the in-process endpoint's
        // charge: header plus payload, on the sender's own stats.
        assert_eq!(mesh[0].stats().bytes_between(0, 1), HEADER_BYTES + 24);
        assert_eq!(mesh[0].stats().total_messages(), 1);
        assert_eq!(mesh[1].stats().bytes_between(1, 0), HEADER_BYTES + 8);
    }

    /// One all-to-all round under `tag`: every peer gets our id, and we
    /// return the sum of everyone's.
    fn sum_of_ids(t: &TcpTransport, tag: u32) -> u64 {
        let me = t.id() as u64;
        let peers = || (0..t.n_parties()).filter(|&j| j != t.id());
        for j in peers() {
            t.send_words(j, tag, &[me]).unwrap();
        }
        me + peers()
            .map(|j| t.recv_words(j, tag).unwrap()[0])
            .sum::<u64>()
    }

    #[test]
    fn three_party_all_to_all() {
        let mesh = connect_mesh(3, 21);
        std::thread::scope(|scope| {
            for t in &mesh {
                scope.spawn(move || assert_eq!(sum_of_ids(t, 40), 3));
            }
        });
    }

    #[test]
    fn a_closed_transport_drops_at_once_whatever_the_backoff_and_its_peers_are_doing() {
        // A reader that took a finished peer's FIN for a crash would sit
        // out a jittered `RECONNECT_BACKOFF` (50-150 ms) under `Drop`'s
        // join, which fails the 10 ms median.
        let mut cfg = test_cfg(55);
        cfg.supervision = Some(LinkSupervision::default());
        let mut drops = Vec::new();
        for round in 0..20 {
            let (mesh, _) = connect_mesh_cfg(3, cfg);
            let start = Instant::now();
            std::thread::scope(|scope| {
                let parties: Vec<_> = mesh
                    .into_iter()
                    .map(|t| {
                        scope.spawn(move || {
                            assert_eq!(sum_of_ids(&t, 40), 3);
                            if t.id() > 0 {
                                // Parties 1 and 2 work on after 0 has left.
                                let other = 3 - t.id();
                                t.send_words(other, 41, &[7]).unwrap();
                                assert_eq!(t.recv_words(other, 41).unwrap(), vec![7]);
                            }
                            t.close();
                            let closed = Instant::now();
                            drop(t);
                            closed.elapsed()
                        })
                    })
                    .collect();
                drops.extend(parties.into_iter().map(|h| h.join().unwrap()));
            });
            let took = start.elapsed();
            assert!(took < Duration::from_secs(1), "round {round}: {took:?}");
        }
        drops.sort();
        let (median, worst) = (drops[drops.len() / 2], drops[drops.len() - 1]);
        assert!(
            median < Duration::from_millis(10),
            "a closed transport's drop: median {median:?}, worst {worst:?}"
        );
    }

    #[test]
    fn a_closed_peer_is_channel_closed_at_once_not_a_reconnect_window() {
        let mut cfg = test_cfg(56);
        cfg.supervision = Some(LinkSupervision {
            liveness_deadline: Duration::from_secs(30),
            reconnect_window: Duration::from_secs(30),
            ..test_sup()
        });
        let (mut mesh, _) = connect_mesh_cfg(2, cfg);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        b.send_words(0, 8, &[1, 2]).unwrap();
        b.close();
        drop(b);
        // What it sent before the record is still delivered ...
        assert_eq!(a.recv_words(1, 8).unwrap(), vec![1, 2]);
        // ... and nothing after it is waited for: not the receive deadline,
        // not a reconnect window ending in `PeerCrashed`.
        let start = Instant::now();
        let err = a
            .recv_words_timeout(1, 9, Duration::from_secs(30))
            .unwrap_err();
        assert_eq!(err, MpcError::ChannelClosed { peer: 1 });
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(a.stats().count_by(0, Counter::Reconnects), 0);
    }

    #[test]
    fn close_records_do_not_touch_traffic_accounting() {
        use crate::net::{NetOptions, Network};
        let round = |ctx: &mut crate::party::PartyCtx| -> Result<u64, MpcError> {
            let tag = ctx.fresh_tag();
            let me = crate::ring::R64(ctx.id() as u64 + 1);
            let sum = ctx.exchange_sum(tag, &[me])?;
            ctx.endpoint().close();
            Ok(sum.first().map_or(0, |s| s.0))
        };
        let opts = NetOptions::default();
        let supervised = TcpConfig {
            supervision: Some(test_sup()),
            ..test_cfg(58)
        };
        let totals = [
            Network::run_parties_detailed_with(3, 9, &opts, round),
            Network::run_parties_tcp_with(3, 9, &opts, test_cfg(57), round),
            Network::run_parties_tcp_with(3, 9, &opts, supervised, round),
        ]
        .map(|run| {
            let (results, stats, _) = run.unwrap();
            for sum in results {
                assert_eq!(sum, Ok(Ok(6)));
            }
            (stats.total_bytes(), stats.total_messages())
        });
        // Six frames of one word each, whichever transport said goodbye.
        assert_eq!(totals, [(6 * (HEADER_BYTES + 8), 6); 3]);
    }

    #[test]
    fn peer_teardown_surfaces_channel_closed() {
        let mut mesh = connect_mesh(2, 11);
        let b = mesh.pop().unwrap();
        std::thread::scope(|scope| {
            // Party 0 closes its sockets (FIN), then drains until `b`
            // closes too — so its drop runs beside `b`, not before it.
            scope.spawn(move || drop(mesh));
            let err = b
                .recv_words_timeout(0, 1, Duration::from_secs(5))
                .unwrap_err();
            assert_eq!(err, MpcError::ChannelClosed { peer: 0 });
            drop(b);
        });
    }

    #[test]
    fn run_id_mismatch_fails_handshake() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let mut cfg1 = test_cfg(1);
        cfg1.connect_retries = 2;
        let (r0, r1) = std::thread::scope(|scope| {
            let a0 = addrs.clone();
            let h0 = scope.spawn(move || {
                let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                TcpTransport::connect(0, l0, &a0, test_cfg(7), stats)
            });
            let a1 = addrs.clone();
            let h1 = scope.spawn(move || {
                let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                TcpTransport::connect(1, l1, &a1, cfg1, stats)
            });
            (h0.join().unwrap(), h1.join().unwrap())
        });
        // The accepting side (party 0) sees the mismatched hello; the
        // dialer either gets party 0's aborted socket or its retries run
        // out. Both must fail with a structured handshake error.
        match r0.unwrap_err() {
            MpcError::Handshake { peer: 1, reason } => {
                assert!(reason.contains("run id"), "reason = {reason:?}");
            }
            other => panic!("expected Handshake, got {other:?}"),
        }
        assert!(matches!(
            r1.unwrap_err(),
            MpcError::Handshake { peer: 0, .. }
        ));
    }

    /// Party 1 of a two-party run under `cfg` whose party 0 is a raw
    /// socket: it answers the hello by hand, then `script` drives it.
    fn against_raw_party_0(
        cfg: TcpConfig,
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (TcpTransport, JoinHandle<()>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let fake = std::thread::spawn(move || {
            let (mut s, _) = l0.accept().unwrap();
            let mut hello = [0u8; HELLO_BYTES];
            s.read_exact(&mut hello).unwrap();
            s.write_all(&encode_hello(cfg.run_id, 0, 2, 0, 0)).unwrap();
            script(s);
        });
        let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
        let t = TcpTransport::connect(1, l1, &addrs, cfg, stats).unwrap();
        (t, fake)
    }

    /// A raw party 0 that writes `wire` as it stands and holds the socket
    /// open a while so EOF cannot race the parse.
    fn writes(wire: Vec<u8>) -> impl FnOnce(TcpStream) + Send + 'static {
        move |mut s| {
            s.write_all(&wire).unwrap();
            std::thread::sleep(Duration::from_millis(500));
        }
    }

    #[test]
    fn oversized_frame_len_is_malformed_payload() {
        // A frame announcing an absurd length: party 1 must fail
        // structurally, not allocate or hang. Seq 0, tag 1, len = 2^40 —
        // far over MAX_FRAME_BYTES.
        let mut frame = Vec::new();
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let (t, fake) = against_raw_party_0(test_cfg(5), writes(frame));
        let err = t
            .recv_words_timeout(0, 1, Duration::from_secs(5))
            .unwrap_err();
        assert!(
            matches!(err, MpcError::MalformedPayload { from: 0, .. }),
            "got {err:?}"
        );
        fake.join().unwrap();
    }

    #[test]
    fn reordered_and_duplicated_frames_deliver_once_and_overflow_fails() {
        // Seqs [1, 0, 0, 2] on the wire — the shape a reconnect's replay
        // can give a stream — reach the protocol as 0, 1, 2, each once.
        let frames: Vec<_> = [1u64, 0, 0, 2]
            .map(|seq| (seq, 10 + seq as u32, (100 + seq).to_le_bytes().to_vec()))
            .into();
        let (t, fake) = against_raw_party_0(test_cfg(8), writes(frame_stream(&frames, &[])));
        for seq in 0..3 {
            assert_eq!(t.recv_words(0, 10 + seq as u32).unwrap(), vec![100 + seq]);
        }
        // The repeat was dropped, not queued behind them.
        let rest = t.recv_words_timeout(0, 13, Duration::from_millis(50));
        assert!(matches!(rest, Err(MpcError::Timeout { .. })), "{rest:?}");
        drop(t);
        fake.join().unwrap();
        // One frame more ahead of seq 0 than a link holds ends the link.
        let max = crate::link::MAX_EARLY_FRAMES;
        let early: Vec<_> = (1..=max as u64 + 1).map(|seq| (seq, 7, vec![])).collect();
        let (t, fake) = against_raw_party_0(test_cfg(9), writes(frame_stream(&early, &[])));
        assert_eq!(
            t.recv_words_timeout(0, 7, Duration::from_secs(5)),
            Err(MpcError::ReorderOverflow {
                peer: 0,
                buffered: max
            })
        );
        drop(t);
        fake.join().unwrap();
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(100);
        for (from, to) in [(1, 0), (2, 0), (2, 1)] {
            for attempt in 0..16 {
                let a = jittered_backoff(base, 42, from, to, attempt);
                let b = jittered_backoff(base, 42, from, to, attempt);
                assert_eq!(a, b, "same inputs must replay the same sleep");
                assert!(
                    a >= base / 2 && a < base * 3 / 2,
                    "out of [0.5, 1.5): {a:?}"
                );
            }
        }
        // Distinct runs produce distinct schedules (overwhelmingly).
        let s1: Vec<_> = (0..8).map(|a| jittered_backoff(base, 1, 1, 0, a)).collect();
        let s2: Vec<_> = (0..8).map(|a| jittered_backoff(base, 2, 1, 0, a)).collect();
        assert_ne!(s1, s2);
    }

    /// Parties 1 and 2 of one `dash party` run (its configuration at the
    /// default flags) dial party 0 at once, as after a fleet restart:
    /// at every attempt, first dial and re-dial alike, they pause for
    /// different times, and a rerun of either replays its own pauses.
    #[test]
    fn parties_dialing_one_peer_pause_apart_and_a_rerun_pauses_alike() {
        let cfg = TcpConfig {
            run_id: 42,
            supervision: Some(LinkSupervision::default()),
            ..TcpConfig::default()
        };
        let dial = |me| -> Vec<Duration> {
            let pause = |a| jittered_backoff(CONNECT_BACKOFF, cfg.run_id, me, 0, a);
            (0..8).map(pause).collect()
        };
        let redial = |me| -> Vec<Duration> {
            let t0 = epoch();
            let mut link = Link::new(me, 0, &cfg, REPLAY_CAPACITY, t0);
            assert_eq!(
                link.read_ended(ReadEnd::Failed, t0),
                Ok(AfterRead::Reconnect)
            );
            let pause = |_| match link.reconnect_step(t0) {
                Ok(Reconnect::Dial { pause, .. }) => pause,
                other => panic!("party {me} should re-dial, got {other:?}"),
            };
            (0..8).map(pause).collect()
        };
        let both: [&dyn Fn(usize) -> Vec<Duration>; 2] = [&dial, &redial];
        for pauses in both {
            let (one, two) = (pauses(1), pauses(2));
            assert!(one.iter().zip(&two).all(|(a, b)| a != b), "{one:?} {two:?}");
            assert_eq!(one, pauses(1));
        }
    }

    #[test]
    fn stalled_dialer_cannot_block_accept_window() {
        // Satellite regression: a socket that connects but never sends
        // its hello used to pin the accept loop in read_exact for the
        // full per-read timeout and then fail the whole connect. Now it
        // is dropped at its hello deadline and accepting continues.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        // The rogue connects first and stays silent; keep it alive for
        // the whole test so its socket never EOFs.
        let rogue = TcpStream::connect(addrs[0]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let mut cfg = test_cfg(3);
        cfg.connect_timeout = Duration::from_millis(300);
        let (r0, r1) = std::thread::scope(|scope| {
            let a0 = addrs.clone();
            let h0 = scope.spawn(move || {
                let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                TcpTransport::connect(0, l0, &a0, cfg, stats)
            });
            let a1 = addrs.clone();
            let h1 = scope.spawn(move || {
                let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                TcpTransport::connect(1, l1, &a1, cfg, stats)
            });
            (h0.join().unwrap(), h1.join().unwrap())
        });
        let t0 = r0.unwrap();
        let t1 = r1.unwrap();
        t0.send_words(1, 9, &[1]).unwrap();
        assert_eq!(t1.recv_words(0, 9).unwrap(), vec![1]);
        drop(rogue);
    }

    #[test]
    fn dialer_waits_out_a_bound_but_not_yet_accepting_peer() {
        // Regression (`dash party` dial race): party 0's listener is bound
        // but party 0 starts accepting only after several hello timeouts
        // have passed. Party 1's dial lands in the accept backlog at once;
        // its wait for the hello reply used to be one `connect_timeout`.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let mut cfg = test_cfg(4);
        cfg.connect_timeout = Duration::from_millis(100);
        let (r0, r1) = std::thread::scope(|scope| {
            let a1 = addrs.clone();
            let h1 = scope.spawn(move || {
                let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                TcpTransport::connect(1, l1, &a1, cfg, stats)
            });
            std::thread::sleep(cfg.connect_timeout * 5);
            let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
            let r0 = TcpTransport::connect(0, l0, &addrs, cfg, stats);
            (r0, h1.join().unwrap())
        });
        let (t0, t1) = (r0.unwrap(), r1.unwrap());
        t1.send_words(0, 9, &[7]).unwrap();
        assert_eq!(t0.recv_words(1, 9).unwrap(), vec![7]);
    }

    #[test]
    fn heartbeats_do_not_touch_traffic_accounting() {
        let mut cfg = test_cfg(51);
        cfg.supervision = Some(test_sup());
        let (mesh, _) = connect_mesh_cfg(2, cfg);
        std::thread::sleep(Duration::from_millis(300));
        for t in &mesh {
            assert!(
                t.stats().count_by(t.id(), Counter::HeartbeatsSent) > 0,
                "party {} sent no heartbeats",
                t.id()
            );
            assert_eq!(t.stats().total_bytes(), 0);
            assert_eq!(t.stats().total_messages(), 0);
        }
        // Protocol traffic still flows and is counted normally.
        mesh[0].send_words(1, 7, &[5, 6]).unwrap();
        assert_eq!(mesh[1].recv_words(0, 7).unwrap(), vec![5, 6]);
        assert_eq!(mesh[0].stats().total_bytes(), HEADER_BYTES + 16);
    }

    /// Supervision whose heartbeats never fire within a test: whatever
    /// prunes a replay buffer is an ack written at a receive.
    fn no_heartbeats() -> LinkSupervision {
        LinkSupervision {
            heartbeat_interval: Duration::from_secs(60),
            ..test_sup()
        }
    }

    /// A supervised three-party run of masked sums: after every round,
    /// each link keeps at most that round's one frame, which its peer may
    /// not have taken yet. Every earlier frame was acked by the receive
    /// that took it, on the stream ahead of the peer's next-round frame.
    /// An unsupervised run of the same rounds moves the same traffic.
    #[test]
    fn acks_at_each_receive_bound_the_replay_backlog_to_the_rounds_in_flight() {
        use crate::net::{NetOptions, Network};
        use crate::protocol::masked::masked_sum_ring;
        use crate::ring::R64;
        const ROUNDS: u64 = 12;
        let rounds = |ctx: &mut crate::party::PartyCtx| -> Result<Vec<usize>, MpcError> {
            let mut backlogs = Vec::new();
            for round in 0..ROUNDS {
                let own = R64(ctx.id() as u64 + round);
                let sum = masked_sum_ring(ctx, &[own], "round")?;
                assert_eq!(sum, [R64(3 + 3 * round)]);
                if let Some(snap) = ctx.endpoint().link_snapshot() {
                    backlogs.extend(snap.replay.iter().map(Vec::len));
                }
            }
            ctx.endpoint().close();
            Ok(backlogs)
        };
        let opts = NetOptions::default();
        let supervised = TcpConfig {
            supervision: Some(no_heartbeats()),
            ..test_cfg(60)
        };
        let totals = [supervised, test_cfg(61)].map(|cfg| {
            let (results, stats, _) =
                Network::run_parties_tcp_with(3, 9, &opts, cfg, rounds).expect("the mesh connects");
            let backlogs: Vec<usize> = results
                .into_iter()
                .flat_map(|r| r.unwrap().unwrap())
                .collect();
            (backlogs, stats.total_bytes(), stats.total_messages())
        });
        let [(supervised, bytes, msgs), (unsupervised, bytes_bare, msgs_bare)] = totals;
        // Three links' slots per party per round, one of them its own.
        assert_eq!(supervised.len(), 3 * 3 * ROUNDS as usize);
        assert!(supervised.iter().all(|&n| n <= 1), "{supervised:?}");
        assert!(unsupervised.is_empty());
        assert_eq!((bytes, msgs), (bytes_bare, msgs_bare));
        assert_eq!(msgs, 6 * ROUNDS);
    }

    /// Party 1 takes two frames from a raw party 0 and closes. Supervised,
    /// each receive writes its ack before the next frame is even sent;
    /// unsupervised, the close record is all it ever writes.
    #[test]
    fn a_taken_frame_is_acked_at_once_supervised_and_never_unsupervised() {
        for supervision in [Some(no_heartbeats()), None] {
            let cfg = TcpConfig {
                supervision,
                ..test_cfg(62)
            };
            let (t, fake) = against_raw_party_0(cfg, move |mut s| {
                let mut written = Vec::new();
                for seq in 0..2u64 {
                    s.write_all(&frame_bytes(seq, 10, &seq.to_le_bytes()))
                        .unwrap();
                    if supervision.is_some() {
                        written.push(read_frame(&mut s, &AtomicBool::new(false)).unwrap());
                    }
                }
                while let Ok(frame) = read_frame(&mut s, &AtomicBool::new(false)) {
                    written.push(frame);
                }
                let acks = supervision.map_or(vec![], |_| {
                    (1..=2u64)
                        .map(|ack| Message {
                            seq: SENTINEL_SEQ,
                            tag: HEARTBEAT_TAG,
                            payload: ack.to_le_bytes().to_vec(),
                        })
                        .collect()
                });
                let close = Message {
                    seq: SENTINEL_SEQ,
                    tag: CLOSE_TAG,
                    payload: Vec::new(),
                };
                assert_eq!(written, [acks, vec![close]].concat());
            });
            for seq in 0..2u64 {
                assert_eq!(t.recv_words(0, 10).unwrap(), vec![seq]);
            }
            assert_eq!(t.stats().count_by(1, Counter::HeartbeatsSent), 0);
            t.close();
            drop(t);
            fake.join().unwrap();
        }
    }

    #[test]
    fn dead_peer_fails_fast_with_peer_crashed() {
        let mut cfg = test_cfg(52);
        cfg.supervision = Some(LinkSupervision {
            heartbeat_interval: Duration::from_millis(20),
            liveness_deadline: Duration::from_millis(600),
            reconnect_window: Duration::from_secs(30),
        });
        let (mut mesh, _) = connect_mesh_cfg(2, cfg);
        let a = mesh.remove(0);
        drop(mesh); // party 1 dies
        let start = Instant::now();
        let err = a
            .recv_words_timeout(1, 3, Duration::from_secs(30))
            .unwrap_err();
        match err {
            MpcError::PeerCrashed {
                peer: 1,
                silent_for,
            } => {
                assert!(silent_for >= Duration::from_millis(600));
            }
            other => panic!("expected PeerCrashed, got {other:?}"),
        }
        // The liveness verdict must beat both the receive deadline and
        // the reconnect window: dead ≠ slow.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn supervised_party_resumes_after_restart_with_dedup() {
        let mut cfg = test_cfg(53);
        cfg.supervision = Some(test_sup());
        let (mut mesh, addrs) = connect_mesh_cfg(2, cfg);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        // A is a checkpointed party that has not saved yet: its acks carry
        // the durable cursor 0, so B keeps its frame for the snapshot.
        a.note_durable(&[0, 0]);
        // Traffic in both directions before the crash.
        a.send_words(1, 100, &[10]).unwrap();
        a.send_words(1, 101, &[11]).unwrap();
        assert_eq!(b.recv_words(0, 100).unwrap(), vec![10]);
        assert_eq!(b.recv_words(0, 101).unwrap(), vec![11]);
        b.send_words(0, 200, &[20]).unwrap();
        assert_eq!(a.recv_words(1, 200).unwrap(), vec![20]);
        // Checkpoint B's wire state, then crash it.
        let snap = b.link_snapshot().expect("supervised transport snapshots");
        assert_eq!(snap.send_next, vec![1, 0]);
        assert_eq!(snap.recv_next, vec![2, 0]);
        assert_eq!(snap.replay[0].len(), 1); // B's frame to A, unpruned
        let b_addr = addrs[1];
        drop(b);
        std::thread::sleep(Duration::from_millis(100));
        // Restart B on its original port, resuming from the snapshot.
        let listener = TcpListener::bind(b_addr).unwrap();
        let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
        let b2 = TcpTransport::connect_resume(1, listener, &addrs, cfg, stats, Some(snap.clone()))
            .unwrap();
        // B's replayed frame (seq 0, already delivered) must be
        // deduplicated by A, and fresh traffic must flow both ways with
        // the original sequence numbering.
        a.send_words(1, 102, &[12]).unwrap();
        assert_eq!(b2.recv_words(0, 102).unwrap(), vec![12]);
        b2.send_words(0, 201, &[21]).unwrap();
        assert_eq!(a.recv_words(1, 201).unwrap(), vec![21]);
        assert_eq!(a.stats().count_by(0, Counter::Reconnects), 1);
        assert_eq!(b2.stats().count_by(1, Counter::Resumes), 1);
        // The replayed duplicate was not re-counted anywhere: B2's
        // counters carry only its post-resume frame.
        assert_eq!(b2.stats().total_bytes(), HEADER_BYTES + 8);
    }

    /// A resumed link acks its checkpointed receive cursor from the start,
    /// not the frames it receives before the run's next checkpoint: the
    /// peer keeps them for a second crash to re-request.
    #[test]
    fn resumed_link_acks_its_checkpointed_cursor() {
        const R: u64 = 5;
        let mut cfg = test_cfg(55);
        cfg.supervision = Some(test_sup());
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        // Consistent cursors: party 0 has sent R frames to party 1, and
        // party 1 has received them.
        let snaps = [
            LinkSnapshot {
                send_next: vec![0, R],
                recv_next: vec![0, 0],
                replay: vec![Vec::new(); 2],
            },
            LinkSnapshot {
                send_next: vec![0, 0],
                recv_next: vec![R, 0],
                replay: vec![Vec::new(); 2],
            },
        ];
        let mesh: Vec<TcpTransport> = std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .zip(snaps)
                .enumerate()
                .map(|(i, (listener, snap))| {
                    let addrs = &addrs;
                    scope.spawn(move || {
                        let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
                        TcpTransport::connect_resume(i, listener, addrs, cfg, stats, Some(snap))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        for tag in 0..3 {
            mesh[0].send_words(1, 400 + tag, &[u64::from(tag)]).unwrap();
            assert_eq!(
                mesh[1].recv_words(0, 400 + tag).unwrap(),
                vec![u64::from(tag)]
            );
        }
        let later = Instant::now() + Duration::from_secs(60);
        let ack = mesh[1].link(0).unwrap().machine.lock().heartbeat_due(later);
        assert_eq!(ack, Some(R));
    }

    #[test]
    fn restart_without_resume_fails_with_resume_mismatch() {
        let mut cfg = test_cfg(54);
        cfg.supervision = Some(test_sup());
        let (mut mesh, addrs) = connect_mesh_cfg(2, cfg);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        // B has sent frames A already consumed, so A expects seq 3 next.
        for (i, tag) in [300u32, 301, 302].iter().enumerate() {
            b.send_words(0, *tag, &[i as u64]).unwrap();
            assert_eq!(a.recv_words(1, *tag).unwrap(), vec![i as u64]);
        }
        let b_addr = addrs[1];
        drop(b);
        std::thread::sleep(Duration::from_millis(100));
        // Restarting from scratch (no --resume): the fresh party's send
        // cursor is 0, but A's hello says it expects frame 3 — that can
        // never reconcile and must fail structurally, not hang.
        let listener = TcpListener::bind(b_addr).unwrap();
        let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
        let err = TcpTransport::connect(1, listener, &addrs, cfg, stats).unwrap_err();
        match err {
            MpcError::ResumeMismatch { peer: 0, reason } => {
                assert!(reason.contains("expects frame 3"), "reason = {reason:?}");
            }
            other => panic!("expected ResumeMismatch, got {other:?}"),
        }
        drop(a);
    }

    #[test]
    fn hello_encode_decode_roundtrip() {
        let buf = encode_hello(42, 2, 3, 77, HELLO_FLAG_RESUME);
        assert_eq!(
            decode_hello(&buf, 2, 42, 3).unwrap(),
            Hello {
                party: 2,
                next_expected: 77,
                resume: true
            }
        );
        let fresh = encode_hello(42, 1, 3, 0, 0);
        assert_eq!(
            decode_hello(&fresh, 1, 42, 3).unwrap(),
            Hello {
                party: 1,
                next_expected: 0,
                resume: false
            }
        );
        assert!(matches!(
            decode_hello(&buf, 2, 43, 3),
            Err(MpcError::Handshake { peer: 2, .. })
        ));
        assert!(matches!(
            decode_hello(&buf, 2, 42, 4),
            Err(MpcError::Handshake { .. })
        ));
        let mut bad = buf;
        bad[0] = b'X';
        assert!(decode_hello(&bad, 2, 42, 3).is_err());
        // A party of the previous wire version, which would deliver our
        // close record as data, is refused by name.
        let mut v2 = buf;
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_hello(&v2, 2, 42, 3),
            Err(MpcError::Handshake {
                peer: 2,
                reason: "wire version mismatch: ours 3, theirs 2".to_string()
            })
        );
    }

    /// A stream of `frames` well-formed frames followed by `tail`.
    fn frame_stream(frames: &[(u64, u32, Vec<u8>)], tail: &[u8]) -> Vec<u8> {
        let mut stream = Vec::new();
        for (seq, tag, payload) in frames {
            stream.extend_from_slice(&frame_bytes(*seq, *tag, payload));
        }
        stream.extend_from_slice(tail);
        stream
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// ROADMAP aim 3 (ii): `decode_hello` is total. Arbitrary bytes,
        /// and a valid hello that was truncated (zero tail) or had bytes
        /// flipped, end in a hello consistent with this run or in a
        /// structured `Handshake` — never a panic.
        #[test]
        fn decode_hello_is_total_on_arbitrary_and_truncated_buffers(
            noise in proptest::collection::vec(0u8..=255, HELLO_BYTES),
            fields in (0u64..4, 0u64..6, 2u64..5, proptest::prelude::any::<u64>(), 0u64..4),
            cut in 0usize..=HELLO_BYTES,
            flips in proptest::collection::vec((0usize..HELLO_BYTES, 0u8..=255), 0..3),
            from_noise in proptest::prelude::any::<bool>(),
        ) {
            let (run, party, n, next, flags) = fields;
            let mut buf = encode_hello(run, party, n, next, flags);
            if from_noise {
                buf.copy_from_slice(&noise);
            }
            buf[cut..].fill(0);
            for (at, x) in flips {
                buf[at] ^= x;
            }
            match decode_hello(&buf, 1, 2, 3) {
                Ok(h) => {
                    proptest::prop_assert!(h.party < 3);
                    proptest::prop_assert_eq!(&buf[..4], &HELLO_MAGIC[..]);
                    proptest::prop_assert_eq!(le_u32(&buf, 4), Some(WIRE_VERSION));
                    proptest::prop_assert_eq!(le_u64(&buf, 8), Some(2));
                    proptest::prop_assert_eq!(le_u64(&buf, 24), Some(3));
                    proptest::prop_assert_eq!(le_u64(&buf, 32), Some(h.next_expected));
                }
                Err(e) => proptest::prop_assert!(
                    matches!(e, MpcError::Handshake { peer: 1, .. }),
                    "unstructured verdict {e:?}"
                ),
            }
        }

        /// ROADMAP aim 3 (ii): `read_frame` is total over arbitrary byte
        /// streams driven from a slice. Every well-formed frame comes
        /// back intact; the stream then ends in a clean EOF, a mid-frame
        /// EOF, or `Oversized` — the last exactly when the header
        /// announces more than `MAX_FRAME_BYTES`, before any payload
        /// allocation.
        #[test]
        fn read_frame_is_total_on_arbitrary_streams(
            frames in proptest::collection::vec(
                (
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u32>(),
                    proptest::collection::vec(0u8..=255, 0..24),
                ),
                0..4,
            ),
            tail in proptest::collection::vec(0u8..=255, 0..40),
            small_len in proptest::prelude::any::<bool>(),
        ) {
            let mut tail = tail;
            if small_len {
                // Keep the announced length plausible so the payload
                // read, not the size guard, meets the end of the stream.
                if let Some(high) = tail.get_mut(13..20) {
                    high.fill(0);
                }
            }
            let stream = frame_stream(&frames, &tail);
            let mut src: &[u8] = &stream;
            let never = AtomicBool::new(false);
            for (seq, tag, payload) in &frames {
                let got = read_frame(&mut src, &never);
                proptest::prop_assert!(
                    matches!(&got, Ok(m) if m.seq == *seq && m.tag == *tag && &m.payload == payload),
                    "frame lost: {got:?}"
                );
            }
            // What is left is exactly the tail; walk it against a
            // bounds-checked model of the framing.
            proptest::prop_assert_eq!(src, &tail[..]);
            let mut pos = 0usize;
            loop {
                let rest = tail.get(pos..).unwrap_or(&[]);
                let announced = le_u64(rest, 12);
                let body = announced.and_then(|len| rest.get(20..20 + usize::try_from(len).ok()?));
                let got = read_frame(&mut src, &never);
                match (announced, body) {
                    (Some(len), _) if len > MAX_FRAME_BYTES => {
                        proptest::prop_assert_eq!(got.err(), Some(ReadEnd::Oversized(len)));
                        break;
                    }
                    (Some(_), Some(body)) => {
                        proptest::prop_assert_eq!(got.ok().map(|m| m.payload), Some(body.to_vec()));
                        pos += 20 + body.len();
                    }
                    _ => {
                        let partial = !rest.is_empty();
                        proptest::prop_assert_eq!(got.err(), Some(ReadEnd::Eof { partial }));
                        break;
                    }
                }
            }
        }
    }
}
