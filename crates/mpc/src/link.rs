//! The link state machine: everything one TCP link to one peer *decides*.
//!
//! [`Link`] owns a link's send cursor, replay buffer and `pruned_to`, the
//! reader-side contiguous cursor with its bounded early set, the durable
//! ack cursor, when the peer was last heard, how long the link has been
//! down, the verdict that ended it, and the supervision policy they are
//! all judged by. Events in, actions out: it does no I/O, starts nothing,
//! takes no lock and never reads the clock (`now` is an argument), so every
//! rule can be driven from a table of synthetic instants. `tcp.rs` is the
//! shell that turns socket reads, timers and hellos into events and carries
//! the actions out; DESIGN.md §12.1 tabulates event × policy.

use crate::error::MpcError;
use crate::net::{Message, MAX_EARLY_FRAMES};
use crate::tags::{CLOSE_TAG, HEARTBEAT_TAG};
use crate::tcp::{jittered_backoff, le_u64, LinkSupervision, ReadEnd, TcpConfig, SENTINEL_SEQ};
use crate::transport::ReplayFrame;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// What the reader thread does after a read ended short of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterRead {
    /// Routine end (local shutdown, a close record either way, or an
    /// unsupervised peer's clean close): the thread exits, nothing stored.
    Finish,
    /// Close the dead socket and run [`Link::reconnect_step`] until the
    /// link is back or failed.
    Reconnect,
}

/// One turn of the reconnect loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reconnect {
    /// We dialed this link originally: dial again (connect timeout capped
    /// by `remaining`), and if that does not bring the link up wait
    /// `pause` before the next step.
    Dial {
        remaining: Duration,
        pause: Duration,
    },
    /// The peer dials us: wait (at most `remaining`) for the accept
    /// router to hand over its socket.
    Await { remaining: Duration },
}

/// The state of one link and the policy it is judged by.
#[derive(Debug)]
pub(crate) struct Link {
    peer: usize,
    policy: Option<LinkSupervision>,
    /// We dialed this link (the peer's id is below ours), so we re-dial it.
    dialer: bool,
    jitter_seed: u64,
    /// Next outbound sequence number.
    send_next: u64,
    /// Outbound frames a resuming peer may re-request, oldest first.
    replay: VecDeque<ReplayFrame>,
    /// Everything below this is gone from `replay` (durably acknowledged
    /// or overflowed); a peer asking to resume below it cannot be served.
    pruned_to: u64,
    /// Next in-order sequence the reader expects: the cursor the reorder
    /// buffer will reach, advertised in hellos and heartbeat acks.
    recv_contig: u64,
    /// Sequences seen ahead of `recv_contig`, at most `MAX_EARLY_FRAMES`.
    early: BTreeSet<u64>,
    /// Receive cursor a checkpoint made durable; once set, acks carry it
    /// so the peer never prunes a frame a restart could still re-request.
    durable: Option<u64>,
    /// We rejoined from a checkpoint: the peer may hold frames of our
    /// previous life past anything this one has re-sent yet.
    resumed: bool,
    /// A close record crossed this link, ours or the peer's: one side has
    /// finished, so the stream's end is a finish, not an outage.
    closed: bool,
    /// When anything (frame, heartbeat, hello) last arrived from the peer.
    last_heard: Instant,
    last_beat: Instant,
    /// When the current outage began, and dial attempts made in it.
    down: (Instant, u32),
    verdict: Option<MpcError>,
}

impl Link {
    /// A link at the given cursors (zeros and no backlog on a fresh run,
    /// the checkpointed [`crate::transport::LinkSnapshot`] on a resume).
    pub(crate) fn new(
        peer: usize,
        dialer: bool,
        cfg: &TcpConfig,
        send_next: u64,
        recv_next: u64,
        replay: Vec<ReplayFrame>,
        now: Instant,
    ) -> Self {
        Link {
            peer,
            policy: cfg.supervision,
            dialer,
            jitter_seed: cfg.jitter_seed,
            send_next,
            pruned_to: replay.first().map_or(send_next, |f| f.seq),
            replay: replay.into(),
            recv_contig: recv_next,
            early: BTreeSet::new(),
            durable: None,
            resumed: false,
            closed: false,
            last_heard: now,
            last_beat: now,
            down: (now, 0),
            verdict: None,
        }
    }

    /// Allocates the next outbound sequence number.
    pub(crate) fn alloc_seq(&mut self) -> u64 {
        let seq = self.send_next;
        self.send_next = seq.wrapping_add(1);
        seq
    }

    /// An outbound frame was counted and is about to be written: keep it
    /// for replay, bounded by the policy's capacity (none unsupervised).
    pub(crate) fn sent(&mut self, frame: ReplayFrame) {
        let capacity = self.policy.map_or(0, |p| p.replay_capacity);
        if capacity == 0 {
            return;
        }
        while self.replay.len() >= capacity {
            if let Some(old) = self.replay.pop_front() {
                self.pruned_to = self.pruned_to.max(old.seq.saturating_add(1));
            }
        }
        self.replay.push_back(frame);
    }

    /// The write of a frame failed (or there was no socket to write to).
    /// Supervised, that is not an error: the frame was counted and sits in
    /// the replay buffer until the reconnected socket carries it.
    pub(crate) fn write_failed(&self) -> Result<(), MpcError> {
        match self.policy {
            Some(_) => Ok(()),
            None => Err(MpcError::ChannelClosed { peer: self.peer }),
        }
    }

    /// We finished the run; our close record is the next thing written.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// A frame came off the socket. The sentinels are consumed here — they
    /// never enter the reorder buffer or the accounting — a heartbeat after
    /// dropping the replay entries its ack covers, the peer's close record
    /// after noting it. A data frame is returned for delivery once the
    /// contiguous cursor has taken note of it: duplicates below the cursor
    /// are ignored and the bounded early set absorbs reordering.
    /// Understating after an overflow is safe: it only makes a peer replay
    /// more, and the reorder buffer dedups the excess.
    pub(crate) fn frame_arrived(&mut self, msg: Message, now: Instant) -> Option<Message> {
        self.last_heard = now;
        let seq = msg.seq;
        if seq == SENTINEL_SEQ && msg.tag == HEARTBEAT_TAG {
            if let Some(ack) = le_u64(&msg.payload, 0) {
                while self.replay.front().is_some_and(|f| f.seq < ack) {
                    self.replay.pop_front();
                }
                self.pruned_to = self.pruned_to.max(ack);
            }
            return None;
        }
        if seq == SENTINEL_SEQ && msg.tag == CLOSE_TAG && msg.payload.is_empty() {
            self.closed = true;
            return None;
        }
        if seq == self.recv_contig {
            let mut next = seq.saturating_add(1);
            while self.early.remove(&next) {
                next = next.saturating_add(1);
            }
            self.recv_contig = next;
        } else if seq > self.recv_contig
            && seq != SENTINEL_SEQ
            && self.early.len() < MAX_EARLY_FRAMES
        {
            self.early.insert(seq);
        }
        Some(msg)
    }

    /// A read ended short of a frame. After a close record that is the
    /// finish it announced, under either policy. Without one, under
    /// supervision, even a clean FIN is "link down": a SIGKILL'd process
    /// closes its sockets exactly like a peer that left without a word, so
    /// the two are told apart by whether the peer comes back within the
    /// reconnect window. An `Err` is the end of the link, kept for
    /// [`Link::verdict`] like every `Err` below.
    pub(crate) fn read_ended(&mut self, end: ReadEnd, now: Instant) -> Result<AfterRead, MpcError> {
        let peer = self.peer;
        let verdict = match (end, self.policy) {
            (ReadEnd::Shutdown, _) | (ReadEnd::Eof { partial: false }, None) => {
                return Ok(AfterRead::Finish)
            }
            (ReadEnd::Eof { .. } | ReadEnd::Failed, _) if self.closed => {
                return Ok(AfterRead::Finish)
            }
            (ReadEnd::Oversized(len), _) => MpcError::MalformedPayload {
                from: peer,
                len: usize::try_from(len).unwrap_or(usize::MAX),
            },
            (ReadEnd::Eof { .. } | ReadEnd::Failed, Some(_)) => {
                self.down = (now, 0);
                return Ok(AfterRead::Reconnect);
            }
            (ReadEnd::Eof { .. } | ReadEnd::Failed, None) => MpcError::ChannelClosed { peer },
        };
        Err(self.fail(verdict))
    }

    /// Reconciles cursors with a freshly handshaken peer that expects
    /// `their_next` from us: the frames to write (uncounted — they were
    /// counted when first sent) before the socket is installed, or why the
    /// two sides can never meet. `self_resuming` excuses a peer that is
    /// ahead of our checkpointed send cursor: our re-executed sends reuse
    /// those sequence numbers and the peer dedups them. It holds for the
    /// link's life, not one hello's: a second break before the re-execution
    /// has caught up meets the same peer cursor, or a later one once a
    /// re-sent frame joined up early frames the peer kept.
    pub(crate) fn peer_hello(
        &mut self,
        their_next: u64,
        self_resuming: bool,
        now: Instant,
    ) -> Result<Vec<ReplayFrame>, MpcError> {
        let cursor = self.send_next;
        self.resumed |= self_resuming;
        let reason = if their_next > cursor && !self.resumed {
            format!(
                "peer expects frame {their_next} but only {cursor} frames were \
                 ever sent on this link (peer restarted without --resume, or \
                 states diverged)"
            )
        } else if their_next < self.pruned_to {
            format!(
                "peer needs replay from frame {their_next} but frames below \
                 {} were already pruned from the replay buffer",
                self.pruned_to
            )
        } else {
            self.last_heard = now;
            let due = self.replay.iter().filter(|f| f.seq >= their_next);
            return Ok(due.cloned().collect());
        };
        let peer = self.peer;
        Err(self.fail(MpcError::ResumeMismatch { peer, reason }))
    }

    /// One turn of bringing a downed link back within the reconnect
    /// window that opened at the last [`AfterRead::Reconnect`]; `Err` is
    /// `PeerCrashed` once it has closed.
    pub(crate) fn reconnect_step(&mut self, now: Instant) -> Result<Reconnect, MpcError> {
        let peer = self.peer;
        let Some(policy) = self.policy else {
            return Err(self.fail(MpcError::ChannelClosed { peer }));
        };
        let (since, attempt) = self.down;
        let elapsed = now.saturating_duration_since(since);
        if elapsed >= policy.reconnect_window {
            let silent_for = now.saturating_duration_since(self.last_heard);
            return Err(self.fail(MpcError::PeerCrashed { peer, silent_for }));
        }
        let remaining = policy.reconnect_window.saturating_sub(elapsed);
        if !self.dialer {
            return Ok(Reconnect::Await { remaining });
        }
        self.down = (since, attempt.saturating_add(1));
        let backoff = jittered_backoff(policy.reconnect_backoff, self.jitter_seed, peer, attempt);
        let pause = backoff.min(remaining);
        Ok(Reconnect::Dial { remaining, pause })
    }

    /// The ack cursor to put in a heartbeat now, if one is due.
    pub(crate) fn heartbeat_due(&mut self, now: Instant) -> Option<u64> {
        let interval = self.policy.filter(|_| !self.closed)?.heartbeat_interval;
        if now.saturating_duration_since(self.last_beat) < interval {
            return None;
        }
        self.last_beat = now;
        Some(self.durable.unwrap_or(self.recv_contig))
    }

    /// `PeerCrashed` once the peer has been silent past the liveness
    /// deadline: a dead process, not a slow one. Not stored — a peer that
    /// comes back within its reconnect window is heard again.
    pub(crate) fn silent_verdict(&self, now: Instant) -> Option<MpcError> {
        let silent_for = now.saturating_duration_since(self.last_heard);
        (silent_for > self.policy?.liveness_deadline).then_some(MpcError::PeerCrashed {
            peer: self.peer,
            silent_for,
        })
    }

    /// Ends the link with a structured reason (the machine's own verdicts,
    /// and the shell's for what only it can see: a re-dial answered by the
    /// wrong run or the wrong party) and hands it back.
    pub(crate) fn fail(&mut self, verdict: MpcError) -> MpcError {
        self.verdict.insert(verdict).clone()
    }

    /// Why the link ended, if it has.
    pub(crate) fn verdict(&self) -> Option<MpcError> {
        self.verdict.clone()
    }

    /// Our receive cursor on this link, as sent in every hello.
    pub(crate) fn recv_cursor(&self) -> u64 {
        self.recv_contig
    }

    /// Send cursor and replay backlog for a checkpoint. Only a supervised
    /// link keeps the backlog that makes a checkpoint resumable.
    pub(crate) fn snapshot(&self) -> Option<(u64, Vec<ReplayFrame>)> {
        self.policy?;
        Some((self.send_next, self.replay.iter().cloned().collect()))
    }

    /// A checkpoint made receive cursor `cursor` durable.
    pub(crate) fn note_durable(&mut self, cursor: u64) {
        self.durable = Some(cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::tests::epoch;
    use std::collections::BTreeMap;

    const PEER: usize = 1;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn policy(replay_capacity: usize) -> LinkSupervision {
        LinkSupervision {
            heartbeat_interval: ms(100),
            liveness_deadline: ms(1_000),
            reconnect_window: ms(2_000),
            reconnect_backoff: ms(100),
            replay_capacity,
        }
    }

    fn cfg(supervision: Option<LinkSupervision>) -> TcpConfig {
        TcpConfig {
            jitter_seed: 7,
            supervision,
            ..TcpConfig::default()
        }
    }

    /// A fresh link to `PEER` born at `t0`; `dialer` as if our id were 2.
    fn fresh(supervision: Option<LinkSupervision>, t0: Instant) -> Link {
        Link::new(PEER, true, &cfg(supervision), 0, 0, Vec::new(), t0)
    }

    fn data(seq: u64) -> Message {
        Message {
            seq,
            tag: 5,
            payload: seq.to_le_bytes().to_vec(),
        }
    }

    fn heartbeat(ack: u64) -> Message {
        Message {
            seq: SENTINEL_SEQ,
            tag: HEARTBEAT_TAG,
            payload: ack.to_le_bytes().to_vec(),
        }
    }

    /// What `Transport::close` writes last on a link.
    fn close_record() -> Message {
        Message {
            seq: SENTINEL_SEQ,
            tag: CLOSE_TAG,
            payload: Vec::new(),
        }
    }

    /// The replay-buffer entry for `seq`: what [`data`] looks like sent.
    fn frame(seq: u64) -> ReplayFrame {
        let Message { seq, tag, payload } = data(seq);
        ReplayFrame { seq, tag, payload }
    }

    /// A buffered frame as it goes (back) onto a socket.
    fn wire(ReplayFrame { seq, tag, payload }: ReplayFrame) -> Message {
        Message { seq, tag, payload }
    }

    /// Allocates and "sends" `count` frames on `link`.
    fn send(link: &mut Link, count: u64) {
        for _ in 0..count {
            let seq = link.alloc_seq();
            link.sent(frame(seq));
        }
    }

    fn seqs(frames: &[ReplayFrame]) -> Vec<u64> {
        frames.iter().map(|f| f.seq).collect()
    }

    fn mismatch(reason: &str) -> MpcError {
        MpcError::ResumeMismatch {
            peer: PEER,
            reason: reason.to_string(),
        }
    }

    #[test]
    fn reconciliation_matrix() {
        let t0 = epoch();
        // Six frames sent into a buffer of four: 2..=5 are replayable,
        // `pruned_to` is 2 and the send cursor is 6.
        let pruned = "peer needs replay from frame 1 but frames below 2 were already \
                      pruned from the replay buffer";
        let ahead = "peer expects frame 9 but only 6 frames were ever sent on this link \
                     (peer restarted without --resume, or states diverged)";
        type Replay = Result<Vec<u64>, &'static str>;
        let table: [(u64, bool, Replay); 8] = [
            (1, false, Err(pruned)),
            (1, true, Err(pruned)),
            (3, false, Ok(vec![3, 4, 5])),
            (3, true, Ok(vec![3, 4, 5])),
            (6, false, Ok(vec![])),
            (6, true, Ok(vec![])),
            (9, false, Err(ahead)),
            (9, true, Ok(vec![])),
        ];
        for (their_next, self_resuming, want) in table {
            let mut link = fresh(Some(policy(4)), t0);
            send(&mut link, 6);
            let got = link.peer_hello(their_next, self_resuming, t0);
            let got = got.map(|backlog| seqs(&backlog));
            let want = want.map_err(mismatch);
            assert_eq!(got, want, "({their_next}, {self_resuming})");
            assert_eq!(link.verdict(), want.err());
        }
        // The excuse is the link's, not the hello's: a link that breaks
        // again before the re-executed sends have caught up meets the same
        // peer cursor on a plain reconnect hello — or a later one, when a
        // re-sent frame joined up early frames of the previous life — and
        // must not fail it. Pruning is judged as ever.
        let mut link = fresh(Some(policy(4)), t0);
        send(&mut link, 6);
        assert_eq!(link.peer_hello(9, true, t0), Ok(vec![]));
        for their_next in [9, 11, 7] {
            assert_eq!(link.peer_hello(their_next, false, t0), Ok(vec![]));
        }
        assert_eq!(link.peer_hello(1, false, t0), Err(mismatch(pruned)));
        // A link resumed from a checkpoint starts pruned to its backlog.
        let backlog = vec![frame(4)];
        let mut resumed = Link::new(PEER, true, &cfg(Some(policy(4))), 5, 0, backlog, t0);
        assert_eq!(
            resumed.peer_hello(4, true, t0).map(|b| seqs(&b)),
            Ok(vec![4])
        );
        assert!(resumed.peer_hello(3, true, t0).is_err());
    }

    #[test]
    fn acks_prune_and_the_durable_cursor_takes_precedence() {
        let t0 = epoch();
        let mut link = fresh(Some(policy(64)), t0);
        send(&mut link, 5);
        assert!(link.frame_arrived(heartbeat(3), t0).is_none());
        assert_eq!(
            link.snapshot().map(|(n, r)| (n, seqs(&r))),
            Some((5, vec![3, 4]))
        );
        assert!(link.peer_hello(2, false, t0).is_err());
        // A stale (lower) ack never brings anything back or regresses.
        assert!(link.frame_arrived(heartbeat(1), t0).is_none());
        assert_eq!(
            link.peer_hello(3, false, t0).map(|b| seqs(&b)),
            Ok(vec![3, 4])
        );
        // A short or foreign-tag sentinel is not an ack.
        let mut short = heartbeat(5);
        short.payload.truncate(7);
        assert!(link.frame_arrived(short, t0).is_none());
        assert_eq!(link.snapshot().map(|(_, r)| r.len()), Some(2));

        // What we acknowledge: the contiguous cursor until a checkpoint
        // made one durable, that one from then on.
        for seq in 0..3 {
            assert!(link.frame_arrived(data(seq), t0).is_some());
        }
        assert_eq!(link.heartbeat_due(t0 + ms(100)), Some(3));
        link.note_durable(1);
        assert!(link.frame_arrived(data(3), t0).is_some());
        assert_eq!(link.recv_cursor(), 4);
        assert_eq!(link.heartbeat_due(t0 + ms(200)), Some(1));
    }

    #[test]
    fn replay_overflow_advances_pruned_to_and_capacity_zero_buffers_nothing() {
        let t0 = epoch();
        let mut link = fresh(Some(policy(2)), t0);
        send(&mut link, 5);
        assert_eq!(
            link.snapshot().map(|(n, r)| (n, seqs(&r))),
            Some((5, vec![3, 4]))
        );
        assert_eq!(
            link.peer_hello(2, false, t0),
            Err(mismatch(
                "peer needs replay from frame 2 but frames below 3 were already \
                 pruned from the replay buffer"
            ))
        );
        let mut none = fresh(Some(policy(0)), t0);
        send(&mut none, 5);
        assert_eq!(none.snapshot(), Some((5, vec![])));
        // Unsupervised: nothing buffered, nothing to snapshot.
        let mut bare = fresh(None, t0);
        send(&mut bare, 5);
        assert_eq!(bare.snapshot(), None);
        assert_eq!(bare.peer_hello(5, false, t0), Ok(vec![]));
    }

    #[test]
    fn early_set_is_bounded_and_only_understates_the_cursor() {
        let t0 = epoch();
        let mut link = fresh(Some(policy(4)), t0);
        let max = MAX_EARLY_FRAMES as u64;
        // Frame 0 is late; `max + 10` frames arrive ahead of it. Every one
        // is still delivered (the reorder buffer judges overflow).
        for seq in 1..=max + 10 {
            assert!(link.frame_arrived(data(seq), t0).is_some());
            assert_eq!(link.recv_cursor(), 0);
        }
        assert!(link.frame_arrived(data(0), t0).is_some());
        // Only the first `max` early sequences were remembered: the cursor
        // stops short of the truth (`max + 11`), never past it.
        assert_eq!(link.recv_cursor(), max + 1);
        // Duplicates below the cursor are delivered (dedup is downstream)
        // and move nothing.
        assert!(link.frame_arrived(data(3), t0).is_some());
        assert_eq!(link.recv_cursor(), max + 1);
        // A data frame that merely wears the sentinel sequence is no
        // heartbeat and is never remembered as early.
        let mut odd = data(SENTINEL_SEQ);
        odd.tag = 6;
        assert!(link.frame_arrived(odd, t0).is_some());
        assert_eq!(link.recv_cursor(), max + 1);
    }

    #[test]
    fn heartbeat_cadence() {
        let t0 = epoch();
        let mut link = fresh(Some(policy(4)), t0);
        let due: Vec<_> = [99, 100, 150, 199, 200, 450]
            .map(|at| link.heartbeat_due(t0 + ms(at)).is_some())
            .into();
        assert_eq!(due, [false, true, false, false, true, true]);
        let mut bare = fresh(None, t0);
        assert_eq!(bare.heartbeat_due(t0 + ms(10_000)), None);
    }

    #[test]
    fn silent_verdict_fires_past_the_liveness_deadline_and_not_before() {
        let t0 = epoch();
        let mut link = fresh(Some(policy(4)), t0);
        let crashed = |silent_for| MpcError::PeerCrashed {
            peer: PEER,
            silent_for,
        };
        assert_eq!(link.silent_verdict(t0 + ms(1_000)), None);
        assert_eq!(
            link.silent_verdict(t0 + ms(1_001)),
            Some(crashed(ms(1_001)))
        );
        // Anything heard — a heartbeat as much as a frame — refreshes it,
        // and the verdict is a reading, not a stored end of the link.
        assert!(link.frame_arrived(heartbeat(0), t0 + ms(900)).is_none());
        assert_eq!(link.silent_verdict(t0 + ms(1_900)), None);
        assert_eq!(
            link.silent_verdict(t0 + ms(1_901)),
            Some(crashed(ms(1_001)))
        );
        assert_eq!(link.verdict(), None);
        assert_eq!(fresh(None, t0).silent_verdict(t0 + ms(60_000)), None);
    }

    #[test]
    fn reconnect_window_expiry_is_peer_crashed_with_the_silence_so_far() {
        let t0 = epoch();
        let sup = policy(4);
        let backoff = |attempt| jittered_backoff(sup.reconnect_backoff, 7, PEER, attempt);
        let dial = |remaining, pause| Ok(Reconnect::Dial { remaining, pause });
        let mut link = fresh(Some(sup), t0);
        assert!(link.frame_arrived(data(0), t0 + ms(300)).is_some());
        let torn = ReadEnd::Eof { partial: true };
        assert_eq!(
            link.read_ended(torn, t0 + ms(500)),
            Ok(AfterRead::Reconnect)
        );
        let step = link.reconnect_step(t0 + ms(500));
        assert_eq!(step, dial(ms(2_000), backoff(0)));
        let step = link.reconnect_step(t0 + ms(1_000));
        assert_eq!(step, dial(ms(1_500), backoff(1)));
        // The pause never outlasts the window.
        assert_eq!(link.reconnect_step(t0 + ms(2_490)), dial(ms(10), ms(10)));
        assert_eq!(link.verdict(), None);
        let crashed = MpcError::PeerCrashed {
            peer: PEER,
            silent_for: ms(2_200),
        };
        assert_eq!(link.reconnect_step(t0 + ms(2_500)), Err(crashed.clone()));
        assert_eq!(link.verdict(), Some(crashed));

        // The accepting side waits for the peer's dial instead, and a
        // later outage opens a fresh window with a fresh backoff schedule.
        let mut acceptor = Link::new(PEER, false, &cfg(Some(sup)), 0, 0, Vec::new(), t0);
        let mut again = fresh(Some(sup), t0);
        for down_at in [t0 + ms(100), t0 + ms(5_000)] {
            let clean = ReadEnd::Eof { partial: false };
            assert_eq!(
                acceptor.read_ended(clean, down_at),
                Ok(AfterRead::Reconnect)
            );
            let remaining = ms(1_400);
            let step = acceptor.reconnect_step(down_at + ms(600));
            assert_eq!(step, Ok(Reconnect::Await { remaining }));
            assert_eq!(acceptor.peer_hello(0, false, down_at + ms(700)), Ok(vec![]));
            let end = again.read_ended(ReadEnd::Failed, down_at);
            assert_eq!(end, Ok(AfterRead::Reconnect));
            assert_eq!(again.reconnect_step(down_at), dial(ms(2_000), backoff(0)));
        }
    }

    #[test]
    fn read_and_write_failures_under_each_policy() {
        let t0 = epoch();
        let closed = MpcError::ChannelClosed { peer: PEER };
        let malformed = MpcError::MalformedPayload {
            from: PEER,
            len: 1 << 40,
        };
        let ends = || {
            [
                ReadEnd::Shutdown,
                ReadEnd::Eof { partial: false },
                ReadEnd::Eof { partial: true },
                ReadEnd::Failed,
                ReadEnd::Oversized(1 << 40),
            ]
        };
        let unsupervised = [
            Ok(AfterRead::Finish),
            Ok(AfterRead::Finish),
            Err(closed.clone()),
            Err(closed.clone()),
            Err(malformed.clone()),
        ];
        let supervised = [
            Ok(AfterRead::Finish),
            Ok(AfterRead::Reconnect),
            Ok(AfterRead::Reconnect),
            Ok(AfterRead::Reconnect),
            Err(malformed),
        ];
        for (policy, table) in [(None, unsupervised), (Some(policy(4)), supervised)] {
            for (end, want) in ends().into_iter().zip(table) {
                let mut link = fresh(policy, t0);
                assert_eq!(link.read_ended(end, t0), want);
                // Every `Err` is also the link's stored verdict.
                assert_eq!(link.verdict(), want.err());
            }
        }
        assert_eq!(fresh(None, t0).write_failed(), Err(closed.clone()));
        assert_eq!(fresh(Some(policy(4)), t0).write_failed(), Ok(()));
        // An unsupervised link has no window to reconnect in.
        let mut bare = fresh(None, t0);
        assert_eq!(bare.reconnect_step(t0), Err(closed.clone()));
        assert_eq!(bare.verdict(), Some(closed));
    }

    #[test]
    fn a_close_record_in_either_direction_makes_the_end_of_the_stream_a_finish() {
        let t0 = epoch();
        let ends = [
            ReadEnd::Eof { partial: false },
            ReadEnd::Eof { partial: true },
            ReadEnd::Failed,
            ReadEnd::Shutdown,
        ];
        for policy in [None, Some(policy(4))] {
            for end in ends {
                // The peer's record arrived, before or after our own
                // teardown began (`Shutdown` is the read that saw it begin).
                let mut link = fresh(policy, t0);
                assert!(link.frame_arrived(data(0), t0).is_some());
                assert!(link.frame_arrived(close_record(), t0).is_none());
                assert_eq!(link.recv_cursor(), 1);
                assert_eq!(link.read_ended(end, t0 + ms(1)), Ok(AfterRead::Finish));
                assert_eq!(link.verdict(), None);
                // Ours went out: the peer's answering FIN carries no record.
                let mut link = fresh(policy, t0);
                link.close();
                assert_eq!(link.read_ended(end, t0 + ms(1)), Ok(AfterRead::Finish));
                assert_eq!(link.verdict(), None);
            }
            // A malformed frame is a verdict even from a peer that closed.
            let mut link = fresh(policy, t0);
            assert!(link.frame_arrived(close_record(), t0).is_none());
            assert!(link.read_ended(ReadEnd::Oversized(1 << 40), t0).is_err());
        }
        // Not a close: the sentinel sequence under another tag, or the close
        // tag with a payload or an ordinary sequence. Each is delivered like
        // any data frame and the link stays open — a FIN is still an outage.
        let wrong_tag = Message {
            tag: CLOSE_TAG - 1,
            ..close_record()
        };
        let with_payload = Message {
            payload: vec![0],
            ..close_record()
        };
        let numbered = Message {
            seq: 0,
            ..close_record()
        };
        for impostor in [wrong_tag, with_payload, numbered] {
            let mut link = fresh(Some(policy(4)), t0);
            assert!(link.frame_arrived(impostor, t0).is_some());
            let clean = ReadEnd::Eof { partial: false };
            assert_eq!(link.read_ended(clean, t0), Ok(AfterRead::Reconnect));
        }
    }

    #[test]
    fn a_closed_link_owes_no_heartbeat_and_still_honours_acks() {
        let t0 = epoch();
        let mut link = fresh(Some(policy(64)), t0);
        send(&mut link, 5);
        assert_eq!(link.heartbeat_due(t0 + ms(100)), Some(0));
        assert!(link.frame_arrived(close_record(), t0 + ms(150)).is_none());
        // Nobody is left to read a heartbeat, however overdue.
        assert_eq!(link.heartbeat_due(t0 + ms(10_000)), None);
        // The record counts as hearing from the peer; an ack that trails it
        // (machine-level only: nothing follows it on a socket) still prunes.
        assert_eq!(link.silent_verdict(t0 + ms(1_150)), None);
        assert!(link.frame_arrived(heartbeat(3), t0 + ms(200)).is_none());
        assert_eq!(link.snapshot().map(|(_, r)| seqs(&r)), Some(vec![3, 4]));
        // Our own close silences the heartbeat just the same.
        let mut ours = fresh(Some(policy(64)), t0);
        ours.close();
        assert_eq!(ours.heartbeat_due(t0 + ms(10_000)), None);
    }

    /// Frames each simulated party sends over a schedule.
    const TOTAL: u64 = 12;

    /// One end of a simulated link: the machine, a model of the
    /// protocol-side reorder buffer (`RecvState`'s rule: drop what is below
    /// the cursor, hold what is ahead of it), the frames in flight towards
    /// it on the current socket, and its last checkpoint. Like a `dash
    /// party --checkpoint-dir` process it notes its durable cursor as soon
    /// as it exists: zero at first, the checkpoint's after a restart.
    struct End {
        link: Link,
        next: u64,
        held: BTreeMap<u64, Message>,
        delivered: Vec<u64>,
        wire: VecDeque<Message>,
        /// Send cursor, receive cursor, replay backlog at the checkpoint.
        checkpoint: Option<(u64, u64, Vec<ReplayFrame>)>,
        /// Restarted and not yet connected: its next hello is an initial
        /// one (resume flag iff it had a checkpoint), not a reconnect.
        rejoining: Option<bool>,
        /// This life began with nothing to resume from, so the peer may
        /// hold frames (in order or early) of one it does not remember.
        amnesiac: bool,
    }

    impl End {
        fn new(dialer: bool, capacity: usize, now: Instant) -> End {
            let mut link = Link::new(
                PEER,
                dialer,
                &cfg(Some(policy(capacity))),
                0,
                0,
                vec![],
                now,
            );
            link.note_durable(0);
            End {
                link,
                next: 0,
                held: BTreeMap::new(),
                delivered: Vec::new(),
                wire: VecDeque::new(),
                checkpoint: None,
                rejoining: None,
                amnesiac: false,
            }
        }

        /// Takes the next in-flight frame off the socket.
        fn read(&mut self, now: Instant) -> Result<(), String> {
            let Some(msg) = self.wire.pop_front() else {
                return Ok(());
            };
            let Some(msg) = self.link.frame_arrived(msg, now) else {
                return Ok(());
            };
            if msg.seq >= self.next {
                self.held.insert(msg.seq, msg);
            }
            while let Some(msg) = self.held.remove(&self.next) {
                if msg.payload != self.next.to_le_bytes() {
                    return Err(format!("frame {} carries {:?}", self.next, msg.payload));
                }
                self.delivered.push(self.next);
                self.next += 1;
            }
            // The reader's cursor mirrors the reorder buffer's (the early
            // set is far from its bound here).
            if self.link.recv_cursor() != self.next {
                return Err(format!(
                    "cursor {} != {}",
                    self.link.recv_cursor(),
                    self.next
                ));
            }
            Ok(())
        }
    }

    /// How one schedule ended.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Delivered,
        Closed,
        Crashed,
        Mismatch,
    }

    /// Two machines joined by in-memory queues, driven by `ops`.
    struct Sim {
        ends: [End; 2],
        now: Instant,
        capacity: usize,
        /// The socket is cut (or one end restarted) and not yet back.
        cut: bool,
        /// When the current outage began.
        cut_at: Instant,
    }

    impl Sim {
        fn send(&mut self, side: usize) {
            let [a, b] = &mut self.ends;
            let (from, to) = if side == 0 { (a, b) } else { (b, a) };
            let sent = from.link.snapshot().map_or(0, |(n, _)| n);
            if sent >= TOTAL || from.rejoining.is_some() {
                return;
            }
            let seq = from.link.alloc_seq();
            from.link.sent(frame(seq));
            if self.cut {
                assert_eq!(from.link.write_failed(), Ok(()));
            } else {
                to.wire.push_back(data(seq));
            }
        }

        fn beat(&mut self, side: usize) {
            let [a, b] = &mut self.ends;
            let (from, to) = if side == 0 { (a, b) } else { (b, a) };
            if let (Some(ack), false) = (from.link.heartbeat_due(self.now), self.cut) {
                to.wire.push_back(heartbeat(ack));
            }
        }

        fn cut(&mut self) {
            if self.cut {
                return;
            }
            (self.cut, self.cut_at) = (true, self.now);
            for end in &mut self.ends {
                end.wire.clear();
                let torn = ReadEnd::Eof { partial: true };
                assert_eq!(
                    end.link.read_ended(torn, self.now),
                    Ok(AfterRead::Reconnect)
                );
            }
        }

        fn checkpoint(&mut self, side: usize) {
            let end = &mut self.ends[side];
            if let (Some((send_next, replay)), None) = (end.link.snapshot(), end.rejoining) {
                end.checkpoint = Some((send_next, end.next, replay));
                end.link.note_durable(end.next);
            }
        }

        /// The process at `side` dies and comes back from its checkpoint
        /// (or from nothing), not yet connected.
        fn restart(&mut self, side: usize) {
            self.cut();
            let end = &mut self.ends[side];
            let (send_next, recv_next, replay) = end.checkpoint.clone().unwrap_or_default();
            let sup = cfg(Some(policy(self.capacity)));
            end.link = Link::new(
                PEER,
                side == 1,
                &sup,
                send_next,
                recv_next,
                replay,
                self.now,
            );
            end.link.note_durable(recv_next);
            end.amnesiac = end.checkpoint.is_none();
            end.next = recv_next;
            end.held.clear();
            end.delivered.truncate(recv_next as usize);
            end.rejoining = Some(end.checkpoint.is_some());
        }

        /// Both ends run their side of a (re)connect: window check, hello
        /// exchange, replay onto the new socket.
        fn reconnect(&mut self) -> Result<Option<Outcome>, String> {
            if !self.cut {
                return Ok(None);
            }
            for side in 0..2 {
                let end = &mut self.ends[side];
                if end.rejoining.is_some() {
                    continue;
                }
                let ok = match end.link.reconnect_step(self.now) {
                    // Only an outage as long as the window is a crash.
                    Err(err) => {
                        let outage = self.now - self.cut_at;
                        let crashed = matches!(err, MpcError::PeerCrashed { .. });
                        return if crashed && outage >= policy(0).reconnect_window {
                            Ok(Some(Outcome::Crashed))
                        } else {
                            Err(format!("{err:?} after {outage:?}"))
                        };
                    }
                    Ok(Reconnect::Dial { .. }) => side == 1,
                    Ok(Reconnect::Await { .. }) => side == 0,
                };
                if !ok {
                    return Err(format!("end {side} took the other end's step"));
                }
            }
            let cursors = [0, 1].map(|side| self.ends[side].link.recv_cursor());
            for side in 0..2 {
                let (end, their_next) = (&mut self.ends[side], cursors[1 - side]);
                let resuming = end.rejoining == Some(true);
                match end.link.peer_hello(their_next, resuming, self.now) {
                    Ok(backlog) => {
                        let to = &mut self.ends[1 - side];
                        to.wire.extend(backlog.into_iter().map(wire));
                    }
                    // Cursors can fail to meet for two reasons only: the
                    // replay buffer is too small for what a cut can lose,
                    // or this end came back with no checkpoint and the
                    // peer holds frames of the life it forgot. Durable acks
                    // and a resumed link's excuse rule out everything else.
                    Err(err @ MpcError::ResumeMismatch { .. }) => {
                        let sent = end.link.snapshot().map_or(0, |(n, _)| n);
                        let lost_history = end.amnesiac && their_next > sent;
                        return if (self.capacity as u64) < TOTAL || lost_history {
                            Ok(Some(Outcome::Mismatch))
                        } else {
                            Err(format!("unjustified {err:?}"))
                        };
                    }
                    Err(other) => return Err(format!("unstructured {other:?}")),
                }
            }
            self.cut = false;
            for end in &mut self.ends {
                end.rejoining = None;
            }
            Ok(None)
        }

        /// The party at `side` finishes: close record, FIN, gone. Its peer
        /// reads the socket dry and must hold every frame the finisher
        /// ever sent, once and in order (`read` checks both), and both
        /// ends end clean, whatever cuts and restarts came before.
        fn close(&mut self, side: usize) -> Result<Outcome, String> {
            let [a, b] = &mut self.ends;
            let (from, to) = if side == 0 { (a, b) } else { (b, a) };
            from.link.close();
            to.wire.push_back(close_record());
            while !to.wire.is_empty() {
                to.read(self.now)?;
            }
            let sent = from.link.snapshot().map_or(0, |(n, _)| n);
            if to.next < sent {
                return Err(format!("peer holds {} of {sent} frames at close", to.next));
            }
            for end in [from, to] {
                let fin = ReadEnd::Eof { partial: false };
                let after = (end.link.read_ended(fin, self.now), end.link.verdict());
                if after != (Ok(AfterRead::Finish), None) {
                    return Err(format!("a closed link ended in {after:?}"));
                }
            }
            Ok(Outcome::Closed)
        }

        fn run(mut self, ops: &[(u8, u8)]) -> Result<Outcome, String> {
            for &(op, arg) in ops {
                let side = usize::from(arg & 1);
                match op {
                    0..=2 => self.send(side),
                    3..=5 => self.ends[side].read(self.now)?,
                    6 => {
                        let front = self.ends[side].wire.front().cloned();
                        self.ends[side].wire.extend(front);
                    }
                    7 => {
                        if let Some(second) = self.ends[side].wire.remove(1) {
                            self.ends[side].wire.push_front(second);
                        }
                    }
                    8 => {
                        self.now += policy(0).heartbeat_interval;
                        self.beat(side);
                    }
                    9 => self.cut(),
                    10 | 11 => {
                        if let Some(end) = self.reconnect()? {
                            return Ok(end);
                        }
                    }
                    12 => self.now += ms(u64::from(arg) * 4),
                    13 => self.checkpoint(side),
                    14 => self.restart(side),
                    // Terminal, so rare: most schedules run their length.
                    _ if arg >= 224 && !self.cut => return self.close(side),
                    _ => {}
                }
            }
            // Quiesce: bring the link back, finish sending, drain.
            if let Some(end) = self.reconnect()? {
                return Ok(end);
            }
            for side in [0, 1].repeat(TOTAL as usize) {
                self.send(side);
            }
            for side in 0..2 {
                while !self.ends[side].wire.is_empty() {
                    self.ends[side].read(self.now)?;
                }
                let want: Vec<u64> = (0..TOTAL).collect();
                if self.ends[side].delivered != want {
                    return Err(format!("end {side} got {:?}", self.ends[side].delivered));
                }
            }
            Ok(Outcome::Delivered)
        }
    }

    fn run_schedule(capacity: usize, ops: &[(u8, u8)]) -> Result<Outcome, String> {
        let now = epoch();
        let sim = Sim {
            ends: [
                End::new(false, capacity, now),
                End::new(true, capacity, now),
            ],
            now,
            capacity,
            cut: false,
            cut_at: now,
        };
        sim.run(ops)
    }

    #[test]
    fn hand_written_schedules_reach_each_outcome() {
        // Cut with frames in flight, reconnect: the replay covers them.
        let recovered = [(0, 0), (0, 0), (0, 1), (3, 1), (9, 0), (0, 0), (10, 0)];
        assert_eq!(run_schedule(64, &recovered), Ok(Outcome::Delivered));
        // Checkpoint, more traffic, die, resume from the checkpoint.
        let resumed = [
            (0, 0),
            (3, 1),
            (13, 1),
            (0, 0),
            (0, 1),
            (3, 1),
            (3, 0),
            (14, 1),
        ];
        assert_eq!(run_schedule(64, &resumed), Ok(Outcome::Delivered));
        // Restart with nothing to resume from after traffic was consumed.
        let amnesia = [(0, 1), (3, 0), (14, 1)];
        assert_eq!(run_schedule(64, &amnesia), Ok(Outcome::Mismatch));
        // An outage that outlasts the reconnect window.
        let partition = [(9, 0), (12, 255), (12, 255), (12, 255), (10, 0)];
        assert_eq!(run_schedule(64, &partition), Ok(Outcome::Crashed));
        // Too small a replay buffer for what a cut can lose.
        let overflow = [(9, 0), (0, 0), (0, 0), (0, 0), (0, 0), (10, 0)];
        assert_eq!(run_schedule(2, &overflow), Ok(Outcome::Mismatch));
        // Frames in flight — one of them twice, two out of order — when
        // their sender finishes: all delivered, nobody waits for it back.
        let finished = [(0, 1), (0, 1), (0, 1), (6, 0), (7, 0), (15, 255)];
        assert_eq!(run_schedule(64, &finished), Ok(Outcome::Closed));
        // Resumed from a checkpoint and cut again while still behind the
        // peer's cursor: the plain reconnect hello is excused, too.
        let behind = [
            (13, 1),
            (0, 1),
            (0, 1),
            (3, 0),
            (3, 0),
            (14, 1),
            (10, 0),
            (9, 0),
            (10, 0),
        ];
        assert_eq!(run_schedule(64, &behind), Ok(Outcome::Delivered));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases_env(
            1024,
            "DASH_LINK_SCHEDULES"
        ))]

        /// Two machines joined by in-memory queues, under a seeded
        /// schedule of send / read / duplicate / reorder / heartbeat / cut /
        /// reconnect / clock-advance / checkpoint / restart / close steps,
        /// deliver every frame exactly once and in order — up to the close
        /// record when one end finishes early, after which both end clean
        /// — or end in `PeerCrashed` (only after an outage as long as the
        /// window) or `ResumeMismatch` (only when the replay buffer is
        /// smaller than what a cut can lose, or an end that came back with
        /// no checkpoint is behind its peer's cursor). Never neither,
        /// never a panic.
        #[test]
        fn seeded_schedules_deliver_exactly_once_or_end_in_one_verdict(
            capacity in proptest::prelude::prop_oneof![
                proptest::prelude::Just(2usize),
                proptest::prelude::Just(5usize),
                proptest::prelude::Just(64usize),
            ],
            ops in proptest::collection::vec((0u8..16, 0u8..=255), 0..80),
        ) {
            let outcome = run_schedule(capacity, &ops);
            proptest::prop_assert!(outcome.is_ok(), "{outcome:?} under {ops:?}");
        }

        /// `peer_hello` is total over arbitrary cursors: a replay set
        /// within the buffer or a structured `ResumeMismatch`, no
        /// overflow, no panic.
        #[test]
        fn peer_hello_is_total_over_arbitrary_cursors(
            cursors in (
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
            ),
            sends in 0u64..8,
            self_resuming in proptest::prelude::any::<bool>(),
        ) {
            let (send_next, ack, their_next) = cursors;
            let t0 = epoch();
            let mut link = Link::new(PEER, true, &cfg(Some(policy(4))), send_next, 0, vec![], t0);
            send(&mut link, sends);
            link.frame_arrived(heartbeat(ack), t0);
            match link.peer_hello(their_next, self_resuming, t0) {
                Ok(backlog) => proptest::prop_assert!(
                    backlog.len() <= 4 && backlog.iter().all(|f| f.seq >= their_next)
                ),
                Err(e) => proptest::prop_assert!(
                    matches!(e, MpcError::ResumeMismatch { peer: PEER, .. }),
                    "unstructured verdict {e:?}"
                ),
            }
        }
    }
}
