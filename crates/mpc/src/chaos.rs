//! Socket-level chaos proxy for crash-resilience testing.
//!
//! [`ChaosProxy`] sits between a dialing party and a peer's listener,
//! forwarding bytes until a configured fault fires: an abrupt
//! connection abort ([`ChaosMode::RstAfterBytes`]), a silent stall
//! ([`ChaosMode::StallAfterBytes`]), a trickle-bandwidth link
//! ([`ChaosMode::SlowLoris`]), or a timed partition that also
//! black-holes reconnect attempts ([`ChaosMode::PartitionAfterBytes`]).
//! The supervised [`crate::tcp::TcpTransport`] must either recover
//! bit-identically through its replay/dedup machinery or fail with a
//! structured [`crate::MpcError`] — never hang — and the test matrix in
//! this module pins both outcomes.
//!
//! The proxy is dependency-free (std TCP + threads) so the same code
//! runs inside unit tests and behind the `dash chaos` CLI command. Each
//! accepted downstream connection gets its own upstream dial and a pair
//! of pump threads, one per direction; fault state is per-connection
//! except for partitions, which live at the proxy level so they can
//! swallow *new* dials during the partition window.
//!
//! On `RstAfterBytes` the proxy stops forwarding mid-chunk, leaving the
//! remainder of the frame unread in its receive buffer, and closes the
//! socket. Closing with pending unread data makes the kernel emit a
//! genuine RST rather than a graceful FIN, so the victim sees the same
//! failure surface as a crashed peer (`ECONNRESET` / torn read). The
//! supervisor treats FIN and RST identically (both are "link down"), so
//! the distinction is cosmetic for recovery but keeps the injected
//! fault honest.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Poll interval for the accept loop and for pump reads (read timeout).
const POLL: Duration = Duration::from_millis(10);

/// Default forwarding chunk; SlowLoris overrides it downward.
const CHUNK: usize = 16 * 1024;

/// The fault a [`ChaosProxy`] injects into the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Forward everything untouched (control case).
    Passthrough,
    /// Abort the connection after forwarding this many bytes
    /// (client→server and server→client combined), cutting mid-chunk so
    /// the victim sees a torn frame and — because unread bytes are left
    /// behind — usually a real RST.
    RstAfterBytes(u64),
    /// After `bytes` forwarded, stop moving data for `stall` while
    /// keeping the connection open: a live-but-silent link. Shorter
    /// than the liveness deadline this must surface as a deadline
    /// `Timeout`, not `PeerCrashed`.
    StallAfterBytes {
        /// Forwarded-byte threshold that arms the stall.
        bytes: u64,
        /// How long the link stays silent.
        stall: Duration,
    },
    /// Forward in `chunk`-byte pieces with `delay` between each: a
    /// pathologically slow link that must not trip crash detection.
    SlowLoris {
        /// Bytes forwarded per piece (clamped to at least 1).
        chunk: usize,
        /// Pause between pieces.
        delay: Duration,
    },
    /// After `bytes` forwarded, abort the connection *and* black-hole
    /// every new dial for `window`: connects succeed but no byte is
    /// ever answered, like a mid-network partition. After the window
    /// the proxy services dials normally again.
    PartitionAfterBytes {
        /// Forwarded-byte threshold that starts the partition.
        bytes: u64,
        /// How long new dials are black-holed.
        window: Duration,
    },
}

/// Whether the fault applies to every connection or only the first
/// (later connections pass through — the shape recovery tests need,
/// since a reconnect must be able to succeed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPolicy {
    /// Every accepted connection gets the fault.
    EveryConnection,
    /// Only the first accepted connection gets the fault; reconnects
    /// pass through.
    FirstConnectionOnly,
}

/// Per-connection fault state shared by the two pump threads.
struct ConnState {
    /// Bytes forwarded on this connection, both directions combined.
    bytes: AtomicU64,
    /// Set once the fault fired; both pumps abort promptly.
    tripped: AtomicBool,
    /// Set once a stall has been served so it fires only once.
    stalled: AtomicBool,
}

/// A running chaos proxy; dropping it (or calling [`stop`]) shuts the
/// accept loop down and aborts live connections.
///
/// [`stop`]: ChaosProxy::stop
#[derive(Debug)]
pub struct ChaosProxy {
    local: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
    forwarded: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Binds an ephemeral localhost port and starts proxying to
    /// `upstream` with the given fault mode and policy. Returns once
    /// the listener is live; [`local_addr`](Self::local_addr) is what
    /// dialers should be pointed at.
    pub fn start(
        upstream: SocketAddr,
        mode: ChaosMode,
        policy: ChaosPolicy,
    ) -> std::io::Result<Self> {
        Self::start_on(
            TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?,
            upstream,
            mode,
            policy,
        )
    }

    /// [`ChaosProxy::start`] on a caller-bound listener — the CLI binds
    /// a fixed address so the peer list can name the proxy up front.
    pub fn start_on(
        listener: TcpListener,
        upstream: SocketAddr,
        mode: ChaosMode,
        policy: ChaosPolicy,
    ) -> std::io::Result<Self> {
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let forwarded = Arc::new(AtomicU64::new(0));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let forwarded = Arc::clone(&forwarded);
            std::thread::spawn(move || {
                accept_loop(
                    listener,
                    upstream,
                    mode,
                    policy,
                    shutdown,
                    connections,
                    forwarded,
                )
            })
        };
        Ok(Self {
            local,
            shutdown,
            accept: Some(accept),
            connections,
            forwarded,
        })
    }

    /// Convenience: a fault-free proxy (control case for byte-identical
    /// comparisons through the same topology).
    pub fn passthrough(upstream: SocketAddr) -> std::io::Result<Self> {
        Self::start(
            upstream,
            ChaosMode::Passthrough,
            ChaosPolicy::EveryConnection,
        )
    }

    /// The localhost address dialers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Connections accepted so far (serviced or black-holed).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Total bytes forwarded across all connections and directions.
    pub fn forwarded_bytes(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Stops the proxy and joins its threads.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Accept loop: dials upstream per accepted connection and spawns the
/// two pump threads; owns partition state so it can black-hole new
/// dials while a partition window is open.
fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    mode: ChaosMode,
    policy: ChaosPolicy,
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    forwarded: Arc<AtomicU64>,
) {
    // Partition window shared with the pumps (a pump opens it when the
    // byte threshold trips). Black-holed sockets are held open here so
    // the dialer's handshake hangs instead of failing fast.
    let partition_until: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let mut held: Vec<TcpStream> = Vec::new();
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        let partitioned = {
            let mut guard = partition_until.lock();
            match *guard {
                Some(t) if Instant::now() >= t => {
                    *guard = None;
                    held.clear();
                    false
                }
                Some(_) => true,
                None => false,
            }
        };
        match listener.accept() {
            Ok((down, _)) => {
                let served = connections.fetch_add(1, Ordering::Relaxed) + 1;
                if partitioned {
                    held.push(down);
                    continue;
                }
                let conn_mode = match policy {
                    ChaosPolicy::EveryConnection => mode,
                    ChaosPolicy::FirstConnectionOnly if served <= 1 => mode,
                    ChaosPolicy::FirstConnectionOnly => ChaosMode::Passthrough,
                };
                let Ok(up) = TcpStream::connect(upstream) else {
                    continue; // upstream down: drop the dialer, keep going
                };
                let (Ok(down_r), Ok(up_r)) = (down.try_clone(), up.try_clone()) else {
                    continue;
                };
                let st = Arc::new(ConnState {
                    bytes: AtomicU64::new(0),
                    tripped: AtomicBool::new(false),
                    stalled: AtomicBool::new(false),
                });
                for (from, to) in [(down_r, up), (up_r, down)] {
                    let st = Arc::clone(&st);
                    let shutdown = Arc::clone(&shutdown);
                    let forwarded = Arc::clone(&forwarded);
                    let partition_until = Arc::clone(&partition_until);
                    pumps.push(std::thread::spawn(move || {
                        pump(
                            from,
                            to,
                            conn_mode,
                            st,
                            shutdown,
                            forwarded,
                            partition_until,
                        );
                    }));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for h in pumps {
        let _ = h.join();
    }
}

/// One direction of one connection: read from `from`, apply the fault,
/// write to `to`. Returns when the direction closes, the fault aborts
/// the connection, or the proxy shuts down.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mode: ChaosMode,
    st: Arc<ConnState>,
    shutdown: Arc<AtomicBool>,
    forwarded: Arc<AtomicU64>,
    partition_until: Arc<Mutex<Option<Instant>>>,
) {
    if from.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let chunk = match mode {
        ChaosMode::SlowLoris { chunk, .. } => chunk.clamp(1, CHUNK),
        _ => CHUNK,
    };
    let mut buf = vec![0u8; chunk];
    loop {
        if shutdown.load(Ordering::Relaxed) || st.tripped.load(Ordering::Relaxed) {
            // Abort: close without draining. Unread bytes left in the
            // receive buffer make the close an RST.
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Clean half-close: propagate the FIN downstream and let
                // the opposite pump keep running.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                st.tripped.store(true, Ordering::Relaxed);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        };
        let before = st.bytes.fetch_add(n as u64, Ordering::Relaxed);
        let total = before + n as u64;
        // How much of this chunk still gets forwarded before the fault
        // takes the connection down (0 = the fault already owed us).
        let allowed = match mode {
            ChaosMode::RstAfterBytes(limit)
            | ChaosMode::PartitionAfterBytes { bytes: limit, .. }
                if total >= limit =>
            {
                usize::try_from(limit.saturating_sub(before))
                    .unwrap_or(n)
                    .min(n)
            }
            _ => n,
        };
        if allowed > 0 {
            let Some(slice) = buf.get(..allowed) else {
                return; // unreachable: allowed <= n <= buf.len()
            };
            if to.write_all(slice).is_err() {
                st.tripped.store(true, Ordering::Relaxed);
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
            forwarded.fetch_add(allowed as u64, Ordering::Relaxed);
        }
        match mode {
            ChaosMode::RstAfterBytes(limit) if total >= limit => {
                st.tripped.store(true, Ordering::Relaxed);
                // Leave the rest of the stream unread; the next loop
                // iteration (ours and the peer pump's) aborts.
                continue;
            }
            ChaosMode::PartitionAfterBytes { bytes, window } if total >= bytes => {
                st.tripped.store(true, Ordering::Relaxed);
                let mut guard = partition_until.lock();
                if guard.is_none() {
                    *guard = Some(Instant::now() + window);
                }
                continue;
            }
            ChaosMode::StallAfterBytes { bytes, stall }
                if total >= bytes && !st.stalled.swap(true, Ordering::Relaxed) =>
            {
                // Silence, not death: sleep in slices so proxy
                // shutdown still ends promptly.
                let deadline = Instant::now() + stall;
                while Instant::now() < deadline && !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(POLL);
                }
            }
            ChaosMode::SlowLoris { delay, .. } => {
                let deadline = Instant::now() + delay;
                while Instant::now() < deadline && !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(POLL.min(delay));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkStats;
    use crate::tcp::{LinkSupervision, TcpConfig, TcpTransport};
    use crate::transport::Transport;
    use crate::MpcError;
    use dash_obs::{Counter, TraceHandle};

    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            // One connection is all the tests need.
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn passthrough_echoes_verbatim() {
        let (up, h) = echo_upstream();
        let proxy = ChaosProxy::passthrough(up).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = b"through the proxy and back";
        c.write_all(msg).unwrap();
        let mut got = vec![0u8; msg.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, msg);
        assert_eq!(proxy.connections(), 1);
        // Both directions counted (the counter lags the last delivery
        // by one instruction, so poll briefly).
        let want = 2 * msg.len() as u64;
        let deadline = Instant::now() + Duration::from_secs(2);
        while proxy.forwarded_bytes() < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(proxy.forwarded_bytes(), want);
        drop(c);
        proxy.stop();
        let _ = h.join();
    }

    #[test]
    fn rst_after_bytes_cuts_mid_stream() {
        let (up, h) = echo_upstream();
        let proxy = ChaosProxy::start(
            up,
            ChaosMode::RstAfterBytes(10),
            ChaosPolicy::EveryConnection,
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(&[7u8; 64]).unwrap();
        // At most 10 bytes ever come back; then the link dies (EOF or
        // ECONNRESET, both are fine) instead of hanging.
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match c.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert!(got.len() <= 10, "leaked {} bytes past the fault", got.len());
        proxy.stop();
        let _ = h.join();
    }

    #[test]
    fn slow_loris_trickles_but_delivers() {
        let (up, h) = echo_upstream();
        let proxy = ChaosProxy::start(
            up,
            ChaosMode::SlowLoris {
                chunk: 4,
                delay: Duration::from_millis(5),
            },
            ChaosPolicy::EveryConnection,
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let msg = [3u8; 40];
        c.write_all(&msg).unwrap();
        let mut got = vec![0u8; msg.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, msg);
        proxy.stop();
        let _ = h.join();
    }

    /// Supervision config tuned for the proxy matrix: fast heartbeats,
    /// short liveness, a window long enough for in-test reconnects.
    fn sup() -> LinkSupervision {
        LinkSupervision {
            heartbeat_interval: Duration::from_millis(20),
            liveness_deadline: Duration::from_secs(2),
            reconnect_window: Duration::from_secs(5),
            reconnect_backoff: Duration::from_millis(20),
            replay_capacity: 1024,
        }
    }

    fn cfg(run_id: u64) -> TcpConfig {
        TcpConfig {
            run_id,
            connect_timeout: Duration::from_secs(2),
            connect_retries: 40,
            connect_backoff: Duration::from_millis(10),
            accept_timeout: Duration::from_secs(10),
            jitter_seed: run_id,
            supervision: Some(sup()),
        }
    }

    /// Two supervised parties with party 1's dials to party 0 routed
    /// through a chaos proxy. Returns (party0, party1, proxy).
    fn proxied_pair(
        run_id: u64,
        mode: ChaosMode,
        policy: ChaosPolicy,
    ) -> (TcpTransport, TcpTransport, ChaosProxy) {
        let l0 = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let l1 = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let a0 = l0.local_addr().unwrap();
        let a1 = l1.local_addr().unwrap();
        let proxy = ChaosProxy::start(a0, mode, policy).unwrap();
        // Party 0 sees true addresses; party 1 dials party 0 through
        // the proxy (peers[0] is only used by dialers of party 0).
        let peers0 = vec![a0, a1];
        let peers1 = vec![proxy.local_addr(), a1];
        let t0 = std::thread::spawn(move || {
            TcpTransport::connect(
                0,
                l0,
                &peers0,
                cfg(run_id),
                Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled())),
            )
        });
        let t1 = TcpTransport::connect(
            1,
            l1,
            &peers1,
            cfg(run_id),
            Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled())),
        )
        .unwrap();
        let t0 = t0.join().unwrap().unwrap();
        (t0, t1, proxy)
    }

    #[test]
    fn transport_recovers_through_mid_stream_rst() {
        // First connection dies after 100 forwarded bytes (mid-frame
        // for the payloads below); the reconnect passes through, replay
        // resends what was torn, and every word arrives exactly once.
        let (t0, t1, proxy) = proxied_pair(
            70,
            ChaosMode::RstAfterBytes(100),
            ChaosPolicy::FirstConnectionOnly,
        );
        for i in 0..8u64 {
            let tag = 400 + i as u32;
            t1.send_words(0, tag, &[i, i + 100]).unwrap();
            assert_eq!(t0.recv_words(1, tag).unwrap(), vec![i, i + 100]);
        }
        // The fault actually fired: a second connection was accepted.
        assert!(proxy.connections() >= 2, "fault never tripped");
        assert_eq!(t0.stats().count_by(0, Counter::Reconnects), 1);
        proxy.stop();
    }

    #[test]
    fn transport_rides_out_short_partition() {
        // Partition shorter than the reconnect window: dials during the
        // window are black-holed, the retry loop keeps going, and the
        // link comes back with no data loss.
        // Threshold above the 96-byte hello exchange so the initial
        // mesh connect always succeeds; heartbeats and data trip it.
        let (t0, t1, proxy) = proxied_pair(
            71,
            ChaosMode::PartitionAfterBytes {
                bytes: 300,
                window: Duration::from_millis(400),
            },
            ChaosPolicy::EveryConnection,
        );
        for i in 0..6u64 {
            let tag = 500 + i as u32;
            t1.send_words(0, tag, &[i]).unwrap();
            assert_eq!(t0.recv_words(1, tag).unwrap(), vec![i]);
        }
        assert!(proxy.connections() >= 2, "partition never tripped");
        proxy.stop();
    }

    #[test]
    fn slow_link_is_slow_not_dead() {
        // A trickling link must never be misread as a crash: the words
        // arrive (late), and no PeerCrashed verdict is recorded.
        let (t0, t1, proxy) = proxied_pair(
            72,
            ChaosMode::SlowLoris {
                chunk: 8,
                delay: Duration::from_millis(10),
            },
            ChaosPolicy::EveryConnection,
        );
        t1.send_words(0, 600, &[1, 2, 3, 4]).unwrap();
        assert_eq!(t0.recv_words(1, 600).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(t0.stats().count_by(0, Counter::Reconnects), 0);
        proxy.stop();
    }

    #[test]
    fn unrecoverable_partition_is_peer_crashed_not_a_hang() {
        // Partition far longer than the reconnect window: the verdict
        // must be a structured PeerCrashed well before the transport's
        // own 60s receive deadline.
        // Threshold just past the handshake: the steady heartbeat
        // stream trips it within a few intervals, every reconnect dial
        // is black-holed, and the waiting receive must get the verdict.
        let (t0, _t1, proxy) = proxied_pair(
            73,
            ChaosMode::PartitionAfterBytes {
                bytes: 200,
                window: Duration::from_secs(120),
            },
            ChaosPolicy::EveryConnection,
        );
        let started = Instant::now();
        let err = t0.recv_words(1, 701).unwrap_err();
        assert!(
            matches!(err, MpcError::PeerCrashed { peer: 1, .. }),
            "wanted PeerCrashed, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "verdict took {:?}",
            started.elapsed()
        );
        proxy.stop();
    }
}
