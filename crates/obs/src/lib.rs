//! `dash-obs`: per-party observability for the DASH protocol stack.
//!
//! The paper's headline claims are quantitative — plaintext-speed secure
//! scans, O(M) inter-party traffic — so the runtime needs a way to turn
//! "how long, how many bytes, per what" into continuously verified
//! numbers. This crate provides that layer:
//!
//! - **hierarchical spans** (`scan → phase → block → secure round`) with
//!   monotonic wall-clock timing, recorded per party into a bounded ring
//!   buffer (oldest spans are dropped, never the run);
//! - **typed counters** ([`Counter`]): bytes sent/received, messages,
//!   send retries, receive timeouts, Beaver triples consumed, and opened
//!   (disclosed) scalar counts — one atomic slot per `(party, counter)`;
//! - a human-readable [`TraceHandle::summary`] and a machine-readable
//!   [`TraceHandle::export_json`] trace (schema `dash-trace/1`), with its
//!   validator beside it ([`trace_check::validate_trace`], which
//!   `dash trace check` runs).
//!
//! The entry point is [`TraceHandle`], a cheaply cloneable handle that is
//! threaded through the transport and protocol layers. A **disabled**
//! handle (the default) holds no allocation at all and every operation is
//! a single `Option` test — the E13 experiment pins the end-to-end
//! overhead of the disabled path below 2%. Locking is per-party: each
//! party only ever appends to its own ring, so span recording never
//! contends across parties.
//!
//! The crate is std-only by design: it sits underneath the secure crates
//! and must not widen their dependency surface.

// Unit tests assert freely; the panic-free discipline applies to the
// non-test code compiled without cfg(test).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod json;
pub mod trace_check;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Default per-party span ring capacity: generous enough for a blocked
/// scan with thousands of blocks, bounded so a runaway loop cannot eat
/// memory.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// A typed per-party counter. Byte/message counters mirror the transport
/// layer's `NetworkStats` exactly (same accounting point, same framing
/// overhead); the protocol counters are incremented by the secure-scan
/// layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Bytes shipped by this party (header + payload, as on the wire).
    BytesSent,
    /// Bytes delivered to this party (header + payload).
    BytesReceived,
    /// Messages shipped by this party.
    MessagesSent,
    /// Messages delivered to this party.
    MessagesReceived,
    /// Send retries: no transport retries a send, so this stays 0. Kept
    /// because the benchmark reads it as its failed-operations count.
    Retries,
    /// Receive deadlines this party saw expire.
    Timeouts,
    /// Beaver (inner-product) triples this party consumed.
    TriplesConsumed,
    /// Scalars opened to the network, counted at the opening primitive
    /// with the *observed* opened length (cross-checked against the
    /// `DisclosureLog`'s claimed sizes by the disclosure-size tests).
    OpenedScalars,
    /// Heartbeat frames this party shipped for link liveness. Heartbeats
    /// are deliberately excluded from the byte/message counters (their
    /// count depends on wall-clock timing, and the protocol's traffic
    /// totals must stay bit-identical across runs), so they get their own
    /// slot.
    HeartbeatsSent,
    /// Successful link re-establishments after a socket error.
    Reconnects,
    /// Resume handshakes this party completed (either side: re-dialing
    /// with a resume hello, or accepting one from a restarted peer).
    Resumes,
}

impl Counter {
    /// Every counter, in stable report order.
    pub const ALL: [Counter; 11] = [
        Counter::BytesSent,
        Counter::BytesReceived,
        Counter::MessagesSent,
        Counter::MessagesReceived,
        Counter::Retries,
        Counter::Timeouts,
        Counter::TriplesConsumed,
        Counter::OpenedScalars,
        Counter::HeartbeatsSent,
        Counter::Reconnects,
        Counter::Resumes,
    ];

    /// Stable snake_case name used in the JSON trace and text summary.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::BytesSent => "bytes_sent",
            Counter::BytesReceived => "bytes_received",
            Counter::MessagesSent => "messages_sent",
            Counter::MessagesReceived => "messages_received",
            Counter::Retries => "retries",
            Counter::Timeouts => "timeouts",
            Counter::TriplesConsumed => "triples_consumed",
            Counter::OpenedScalars => "opened_scalars",
            Counter::HeartbeatsSent => "heartbeats_sent",
            Counter::Reconnects => "reconnects",
            Counter::Resumes => "resumes",
        }
    }

    const fn slot(self) -> usize {
        match self {
            Counter::BytesSent => 0,
            Counter::BytesReceived => 1,
            Counter::MessagesSent => 2,
            Counter::MessagesReceived => 3,
            Counter::Retries => 4,
            Counter::Timeouts => 5,
            Counter::TriplesConsumed => 6,
            Counter::OpenedScalars => 7,
            Counter::HeartbeatsSent => 8,
            Counter::Reconnects => 9,
            Counter::Resumes => 10,
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// One finished span: a named, timed interval in one party's execution.
/// `depth` is the nesting level at the moment the span opened (0 = the
/// party's outermost span), so exports can reconstruct the hierarchy
/// without parent pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which party this span belongs to.
    pub party: usize,
    /// Static span name, e.g. `"scan"`, `"phase:aggregate"`, `"block"`.
    pub name: &'static str,
    /// Optional instance index (e.g. the block id for `"block"` spans).
    pub index: Option<u64>,
    /// Nesting depth at open time (0 = outermost).
    pub depth: u32,
    /// Nanoseconds from trace start to span open (monotonic clock).
    pub start_ns: u64,
    /// Nanoseconds from trace start to span close.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bounded span storage: a ring that keeps the most recent
/// [`DEFAULT_SPAN_CAPACITY`] finished spans and counts what it had to drop.
#[derive(Debug, Default)]
struct SpanRing {
    buf: Vec<SpanRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl SpanRing {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < DEFAULT_SPAN_CAPACITY {
            self.buf.push(rec);
            return;
        }
        if let Some(slot) = self.buf.get_mut(self.head) {
            *slot = rec;
        }
        self.head = (self.head + 1) % DEFAULT_SPAN_CAPACITY;
        self.dropped += 1;
    }

    /// Records in chronological (insertion) order.
    fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(self.buf.get(self.head..).unwrap_or(&[]));
        out.extend_from_slice(self.buf.get(..self.head).unwrap_or(&[]));
        out
    }
}

/// One party's slice of the sink: its counters, its span ring, and its
/// current nesting depth. Each party only writes its own slice, so the
/// ring mutex is effectively uncontended.
#[derive(Debug)]
struct PartySlot {
    counters: [AtomicU64; N_COUNTERS],
    ring: Mutex<SpanRing>,
    depth: AtomicU64,
}

impl PartySlot {
    fn new() -> Self {
        PartySlot {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(SpanRing::default()),
            depth: AtomicU64::new(0),
        }
    }
}

/// The shared trace storage behind an enabled [`TraceHandle`].
#[derive(Debug)]
pub struct TraceSink {
    start: Instant,
    parties: Vec<PartySlot>,
}

impl TraceSink {
    fn new(n_parties: usize) -> Self {
        TraceSink {
            start: Instant::now(),
            parties: (0..n_parties.max(1)).map(|_| PartySlot::new()).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of trace; the cast is safe for
        // any real run.
        self.start.elapsed().as_nanos() as u64
    }

    fn slot(&self, party: usize) -> Option<&PartySlot> {
        self.parties.get(party)
    }
}

/// A cheaply cloneable handle to a trace, or to nothing.
///
/// Disabled (the default) it is a `None` — every operation short-circuits
/// on one branch and allocates nothing. Enabled, clones share one
/// [`TraceSink`].
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<TraceSink>>,
}

impl TraceHandle {
    /// The no-op handle: records nothing, costs one branch per call.
    pub const fn disabled() -> Self {
        TraceHandle { sink: None }
    }

    /// An enabled trace for `n_parties`, each with a ring of
    /// [`DEFAULT_SPAN_CAPACITY`] spans.
    pub fn enabled(n_parties: usize) -> Self {
        TraceHandle {
            sink: Some(Arc::new(TraceSink::new(n_parties))),
        }
    }

    /// Number of parties the trace covers (0 when disabled).
    pub fn n_parties(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.parties.len())
    }

    /// Adds `amount` to one party's counter. No-op when disabled or when
    /// `party` is out of range (the trace layer must never fail a run).
    #[inline]
    pub fn add(&self, party: usize, counter: Counter, amount: u64) {
        if let Some(sink) = &self.sink {
            if let Some(slot) = sink.slot(party) {
                if let Some(c) = slot.counters.get(counter.slot()) {
                    c.fetch_add(amount, Ordering::Relaxed);
                }
            }
        }
    }

    /// Mirror of one framed message `from → to` costing `nbytes` on the
    /// wire: credits the sender's sent counters and the receiver's
    /// received counters in one call (the transport's single accounting
    /// point calls this, so trace byte totals match `NetworkStats`
    /// exactly by construction).
    ///
    /// Crediting both ends locally also makes the sent/received
    /// conservation invariant hold *per process*: a `dash party` process
    /// only observes its own outbound sends, yet its emitted trace still
    /// balances and passes `dash trace check` without merging the peers'
    /// traces.
    #[inline]
    pub fn on_message(&self, from: usize, to: usize, nbytes: u64) {
        if self.sink.is_some() {
            self.add(from, Counter::BytesSent, nbytes);
            self.add(from, Counter::MessagesSent, 1);
            self.add(to, Counter::BytesReceived, nbytes);
            self.add(to, Counter::MessagesReceived, 1);
        }
    }

    /// Opens a span on `party`. The span closes (and is recorded) when
    /// the returned guard drops. Disabled handles return an inert guard.
    #[inline]
    pub fn span(&self, party: usize, name: &'static str) -> SpanGuard {
        self.span_inner(party, name, None)
    }

    /// Opens an indexed span (e.g. `"block"` number `index`).
    #[inline]
    pub fn span_at(&self, party: usize, name: &'static str, index: u64) -> SpanGuard {
        self.span_inner(party, name, Some(index))
    }

    fn span_inner(&self, party: usize, name: &'static str, index: Option<u64>) -> SpanGuard {
        let Some(sink) = &self.sink else {
            return SpanGuard { active: None };
        };
        let Some(slot) = sink.slot(party) else {
            return SpanGuard { active: None };
        };
        let depth = slot.depth.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            active: Some(ActiveSpan {
                sink: Arc::clone(sink),
                party,
                name,
                index,
                depth: depth.min(u64::from(u32::MAX)) as u32,
                start_ns: sink.now_ns(),
            }),
        }
    }

    /// One party's counter value (0 when disabled).
    pub fn counter(&self, party: usize, counter: Counter) -> u64 {
        self.sink
            .as_ref()
            .and_then(|s| s.slot(party))
            .and_then(|p| p.counters.get(counter.slot()))
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// A counter summed over all parties.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        (0..self.n_parties())
            .map(|p| self.counter(p, counter))
            .sum()
    }

    /// Snapshot of every finished span, all parties, ordered by start
    /// time. Spans still open (guards not yet dropped) are not included.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let mut out: Vec<SpanRecord> = sink
            .parties
            .iter()
            .flat_map(|p| {
                p.ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .snapshot()
            })
            .collect();
        out.sort_by_key(|s| (s.start_ns, s.party, s.depth));
        out
    }

    /// Spans the bounded rings had to discard (oldest-first) so far.
    pub fn dropped_spans(&self) -> u64 {
        let Some(sink) = &self.sink else {
            return 0;
        };
        sink.parties
            .iter()
            .map(|p| {
                p.ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .dropped
            })
            .sum()
    }

    /// Human-readable per-party summary: one counter table plus the
    /// slowest top-level spans.
    pub fn summary(&self) -> String {
        let n = self.n_parties();
        if n == 0 {
            return "trace: disabled\n".to_string();
        }
        let mut out = String::new();
        out.push_str("per-party counters:\n");
        out.push_str("  party");
        for c in Counter::ALL {
            out.push_str(&format!(" {:>17}", c.name()));
        }
        out.push('\n');
        for p in 0..n {
            out.push_str(&format!("  {p:>5}"));
            for c in Counter::ALL {
                out.push_str(&format!(" {:>17}", self.counter(p, c)));
            }
            out.push('\n');
        }
        let spans = self.spans();
        let mut top: Vec<&SpanRecord> = spans.iter().filter(|s| s.depth <= 1).collect();
        top.sort_by_key(|s| std::cmp::Reverse(s.duration_ns()));
        if !top.is_empty() {
            out.push_str("slowest spans (depth <= 1):\n");
            for s in top.iter().take(12) {
                let idx = s.index.map(|i| format!("[{i}]")).unwrap_or_default();
                out.push_str(&format!(
                    "  party {} {:<24} {:>10.3} ms\n",
                    s.party,
                    format!("{}{idx}", s.name),
                    s.duration_ns() as f64 / 1e6
                ));
            }
        }
        let dropped = self.dropped_spans();
        if dropped > 0 {
            out.push_str(&format!("({dropped} oldest spans dropped by the ring)\n"));
        }
        out
    }

    /// Machine-readable trace export, schema `dash-trace/1`:
    ///
    /// ```json
    /// {
    ///   "schema": "dash-trace/1",
    ///   "n_parties": 2,
    ///   "dropped_spans": 0,
    ///   "counters": [{"party": 0, "bytes_sent": 128, ...}, ...],
    ///   "spans": [{"party": 0, "name": "scan", "index": null,
    ///              "depth": 0, "start_ns": 10, "end_ns": 9000}, ...]
    /// }
    /// ```
    pub fn export_json(&self) -> String {
        let n = self.n_parties();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dash-trace/1\",\n");
        out.push_str(&format!("  \"n_parties\": {n},\n"));
        out.push_str(&format!("  \"dropped_spans\": {},\n", self.dropped_spans()));
        out.push_str("  \"counters\": [");
        for p in 0..n {
            if p > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"party\": {p}"));
            for c in Counter::ALL {
                out.push_str(&format!(", \"{}\": {}", c.name(), self.counter(p, c)));
            }
            out.push('}');
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"spans\": [");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let index = s
                .index
                .map(|v| v.to_string())
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "\n    {{\"party\": {}, \"name\": \"{}\", \"index\": {index}, \
                 \"depth\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.party,
                json_escape(s.name),
                s.depth,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (span names are static identifiers, but
/// the exporter must stay well-formed for any input).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug)]
struct ActiveSpan {
    sink: Arc<TraceSink>,
    party: usize,
    name: &'static str,
    index: Option<u64>,
    depth: u32,
    start_ns: u64,
}

/// RAII guard of one open span; dropping it closes and records the span.
/// Inert (free) for disabled handles.
#[derive(Debug)]
#[must_use = "a span measures the scope holding the guard; dropping it immediately records a zero-length span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let end_ns = a.sink.now_ns();
        if let Some(slot) = a.sink.slot(a.party) {
            slot.depth.fetch_sub(1, Ordering::Relaxed);
            slot.ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(SpanRecord {
                    party: a.party,
                    name: a.name,
                    index: a.index,
                    depth: a.depth,
                    start_ns: a.start_ns,
                    end_ns,
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TraceHandle::disabled();
        assert_eq!(t.summary(), "trace: disabled\n");
        t.add(0, Counter::BytesSent, 10);
        t.on_message(0, 1, 28);
        {
            let _g = t.span(0, "scan");
        }
        assert_eq!(t.n_parties(), 0);
        assert_eq!(t.counter(0, Counter::BytesSent), 0);
        assert!(t.spans().is_empty());
        assert_eq!(t.summary(), "trace: disabled\n");
    }

    #[test]
    fn counters_accumulate_per_party() {
        let t = TraceHandle::enabled(3);
        t.add(0, Counter::Retries, 2);
        t.add(0, Counter::Retries, 1);
        t.add(2, Counter::TriplesConsumed, 7);
        assert_eq!(t.counter(0, Counter::Retries), 3);
        assert_eq!(t.counter(1, Counter::Retries), 0);
        assert_eq!(t.counter(2, Counter::TriplesConsumed), 7);
        assert_eq!(t.counter_total(Counter::Retries), 3);
        // Out-of-range parties are ignored, not panicked on.
        t.add(9, Counter::Retries, 1);
        assert_eq!(t.counter_total(Counter::Retries), 3);
        assert_eq!(t.counter(9, Counter::Retries), 0);
    }

    #[test]
    fn on_message_credits_both_ends() {
        let t = TraceHandle::enabled(2);
        t.on_message(0, 1, 28);
        t.on_message(0, 1, 20);
        t.on_message(1, 0, 100);
        assert_eq!(t.counter(0, Counter::BytesSent), 48);
        assert_eq!(t.counter(0, Counter::MessagesSent), 2);
        assert_eq!(t.counter(1, Counter::BytesReceived), 48);
        assert_eq!(t.counter(1, Counter::MessagesReceived), 2);
        assert_eq!(t.counter(0, Counter::BytesReceived), 100);
        assert_eq!(t.counter(1, Counter::BytesSent), 100);
        // Conservation: everything sent is received.
        assert_eq!(
            t.counter_total(Counter::BytesSent),
            t.counter_total(Counter::BytesReceived)
        );
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = TraceHandle::enabled(1);
        {
            let _scan = t.span(0, "scan");
            {
                let _phase = t.span(0, "phase:aggregate");
                let _block = t.span_at(0, "block", 3);
            }
            let _phase2 = t.span(0, "phase:final");
        }
        let spans = t.spans();
        let by_name: Vec<(&str, u32, Option<u64>)> =
            spans.iter().map(|s| (s.name, s.depth, s.index)).collect();
        assert!(by_name.contains(&("scan", 0, None)));
        assert!(by_name.contains(&("phase:aggregate", 1, None)));
        assert!(by_name.contains(&("block", 2, Some(3))));
        assert!(by_name.contains(&("phase:final", 1, None)));
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        // Ordered by start time: scan opened first.
        assert_eq!(spans.first().map(|s| s.name), Some("scan"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = TraceHandle::enabled(1);
        let total = DEFAULT_SPAN_CAPACITY as u64 + 6;
        for i in 0..total {
            let _g = t.span_at(0, "block", i);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), DEFAULT_SPAN_CAPACITY);
        assert_eq!(t.dropped_spans(), 6);
        // The survivors are the most recent ones, in order.
        let idx: Vec<u64> = spans.iter().filter_map(|s| s.index).collect();
        assert_eq!(idx, (6..total).collect::<Vec<_>>());
    }

    #[test]
    fn spans_are_per_party_and_threadsafe() {
        let t = TraceHandle::enabled(4);
        std::thread::scope(|scope| {
            for p in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let _outer = t.span(p, "scan");
                    for b in 0..50u64 {
                        let _g = t.span_at(p, "block", b);
                        t.add(p, Counter::MessagesSent, 1);
                    }
                });
            }
        });
        for p in 0..4 {
            assert_eq!(t.counter(p, Counter::MessagesSent), 50);
        }
        assert_eq!(t.spans().len(), 4 * 51);
        assert_eq!(t.dropped_spans(), 0);
    }

    #[test]
    fn counter_slots_and_names_are_bijective() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.slot(), i, "{} out of order in ALL", c.name());
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        assert!(Counter::ALL.contains(&Counter::HeartbeatsSent));
        assert!(Counter::ALL.contains(&Counter::Reconnects));
        assert!(Counter::ALL.contains(&Counter::Resumes));
    }

    #[test]
    fn json_export_shape() {
        let t = TraceHandle::enabled(2);
        t.on_message(0, 1, 28);
        {
            let _g = t.span_at(1, "block", 0);
        }
        let json = t.export_json();
        assert!(json.contains("\"schema\": \"dash-trace/1\""));
        assert!(json.contains("\"n_parties\": 2"));
        assert!(json.contains("\"bytes_sent\": 28"));
        assert!(json.contains("\"name\": \"block\""));
        assert!(json.contains("\"index\": 0"));
        assert!(json.contains("\"dropped_spans\": 0"));
        // The writer's output is what its validator accepts.
        let summary = trace_check::validate_trace(&json).unwrap();
        assert_eq!(
            (summary.n_parties, summary.total_bytes, summary.n_spans),
            (2, 28, 1)
        );
    }

    #[test]
    fn summary_lists_counters_and_spans() {
        let t = TraceHandle::enabled(2);
        t.add(1, Counter::OpenedScalars, 42);
        {
            let _g = t.span(0, "scan");
        }
        let s = t.summary();
        assert!(s.contains("opened_scalars"));
        assert!(s.contains("scan"));
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
