//! Per-party protocol context.
//!
//! A [`PartyCtx`] bundles everything one party needs while executing a
//! protocol: its network endpoint, its private randomness, the pairwise
//! PRGs shared with each peer (for correlated masks), a synchronized tag
//! counter, and the shared disclosure log.
//!
//! Protocols here are SPMD: every party runs the same function, so the tag
//! counters and pairwise PRG streams advance in lockstep without any
//! explicit coordination.

use crate::audit::DisclosureLog;
use crate::error::MpcError;
use crate::prg::Prg;
use crate::secret::{OpenMode, ScalarCount, Secret};
use crate::tags::{self, BLOCK_TAG_BASE, BLOCK_TAG_STRIDE, MAX_BLOCK_ID};
use crate::transport::{Transport, TransportConfig};
use dash_obs::{Counter, SpanGuard, TraceHandle};

/// The deterministic protocol-layer state of a [`PartyCtx`], as captured
/// at a block boundary for a checkpoint and restored on `--resume`. The
/// slots are raw PRG words plus the tag counter; everything else in the
/// context (transport, audit log, trace) is restored by other layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtxState {
    /// Private randomness stream state.
    pub rng: [u64; 4],
    /// Pairwise PRG states in peer order; `None` at this party's own slot.
    pub pair_prgs: Vec<Option<[u64; 4]>>,
    /// Lockstep protocol tag counter (outside any block scope).
    pub tag_counter: u32,
}

/// A ring or field element as it travels between parties: one `u64` word
/// each way. Implemented by [`crate::ring::R64`] and [`crate::field::F61`]
/// next to their definitions; [`PartyCtx`]'s typed helpers are generic
/// over it.
pub trait Element: Copy + std::ops::AddAssign {
    /// The `what` of the [`MpcError::LengthMismatch`] raised when a peer's
    /// vector of this element has the wrong length in
    /// [`PartyCtx::exchange_sum`].
    const EXCHANGE_SUM: &'static str;
    /// The word that goes on the wire.
    fn to_word(self) -> u64;
    /// The element a received word stands for.
    fn from_word(word: u64) -> Self;
}

/// One party's execution context.
#[derive(Debug)]
pub struct PartyCtx {
    transport: Box<dyn Transport>,
    config: TransportConfig,
    rng: Prg,
    pair_prgs: Vec<Option<Prg>>,
    audit: DisclosureLog,
    /// Observability handle cloned off the shared network stats at
    /// construction; disabled (free) unless the run enabled tracing.
    trace: TraceHandle,
    tag_counter: u32,
    /// Ordinary counter value saved while inside a block tag scope.
    saved_tag: Option<u32>,
    /// Block id of the currently entered tag scope, if any (used by the
    /// debug assertions that tie issued tags to the [`tags::REGISTRY`]).
    cur_block: Option<u32>,
}

impl PartyCtx {
    /// Builds a context over any [`Transport`] with an explicit policy.
    ///
    /// Private randomness is derived as `h(master, party)`; the pairwise
    /// seed for `{i, j}` as `h(master, pair(i,j))`, identically on both
    /// sides. In a real deployment the pairwise seeds would come from an
    /// authenticated key exchange; the derivation here stands in for that
    /// step and keeps runs reproducible.
    pub fn with_transport(
        transport: Box<dyn Transport>,
        config: TransportConfig,
        master_seed: u64,
        audit: DisclosureLog,
    ) -> Self {
        let id = transport.id();
        let n = transport.n_parties();
        let rng = Prg::from_seed(Prg::derive_seed(master_seed, 0x5EED_0000 + id as u64));
        let pair_prgs = (0..n)
            .map(|j| {
                if j == id {
                    None
                } else {
                    let (lo, hi) = (id.min(j) as u64, id.max(j) as u64);
                    let seed = Prg::derive_seed(master_seed, 0x9A19_0000 + lo * 4096 + hi);
                    Some(Prg::from_seed(seed))
                }
            })
            .collect();
        let trace = transport.stats().trace().clone();
        PartyCtx {
            transport,
            config,
            rng,
            pair_prgs,
            audit,
            trace,
            tag_counter: tags::PROTOCOL_TAG_FIRST,
            saved_tag: None,
            cur_block: None,
        }
    }

    /// This party's id in `0..n_parties`.
    pub fn id(&self) -> usize {
        self.transport.id()
    }

    /// Number of parties.
    pub fn n_parties(&self) -> usize {
        self.transport.n_parties()
    }

    /// The underlying transport.
    pub fn endpoint(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Sends a word vector, retrying transient failures with exponential
    /// backoff per the configured [`crate::transport::RetryPolicy`].
    ///
    /// The retry sleeps are charged against the configured deadline: the
    /// loop gives up with the transient error once the budget is spent,
    /// and the last sleep is truncated to whatever budget remains, so one
    /// logical send never waits longer than `deadline` in backoff no
    /// matter how `max_retries × backoff` multiply out.
    pub fn send_words(&self, to: usize, tag: u32, words: &[u64]) -> Result<(), MpcError> {
        let start = std::time::Instant::now();
        let mut attempt = 0;
        loop {
            match self.transport.send_words(to, tag, words) {
                Err(err @ MpcError::TransientFailure { .. })
                    if attempt < self.config.retry.max_retries =>
                {
                    let remaining = self.config.deadline.saturating_sub(start.elapsed());
                    if remaining.is_zero() {
                        return Err(err);
                    }
                    self.transport.stats().record(self.id(), Counter::Retries);
                    // backoff_for clamps a zero/near-zero configured
                    // backoff to a floor, so a misconfigured policy can't
                    // degenerate into an instant-retry busy loop; the
                    // deadline cap bounds it from above.
                    std::thread::sleep(self.config.retry.backoff_for(attempt).min(remaining));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Receives a word vector, waiting at most the configured deadline.
    pub fn recv_words(&self, from: usize, tag: u32) -> Result<Vec<u64>, MpcError> {
        self.transport
            .recv_words_timeout(from, tag, self.config.deadline)
    }

    /// The shared disclosure log.
    pub fn audit(&self) -> &DisclosureLog {
        &self.audit
    }

    /// The observability handle for this run (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Adds `amount` to this party's trace counter. A no-op (one branch)
    /// when tracing is disabled. Only pass *counts* here — never secret
    /// values; `dash-analyze`'s secret-taint lint flags secret-named
    /// arguments to this sink.
    #[inline]
    pub fn trace_add(&self, counter: Counter, amount: u64) {
        self.trace.add(self.id(), counter, amount);
    }

    /// Opens a named span on this party; it closes when the guard drops.
    #[inline]
    pub fn trace_span(&self, name: &'static str) -> SpanGuard {
        self.trace.span(self.id(), name)
    }

    /// Opens an indexed span (e.g. per block) on this party.
    #[inline]
    pub fn trace_span_at(&self, name: &'static str, index: u64) -> SpanGuard {
        self.trace.span_at(self.id(), name, index)
    }

    /// This party's private randomness.
    pub fn rng_mut(&mut self) -> &mut Prg {
        &mut self.rng
    }

    /// The PRG shared with peer `j`. Errors for `j == id` or out of range.
    pub fn pair_prg_mut(&mut self, j: usize) -> Result<&mut Prg, MpcError> {
        let n = self.n_parties();
        self.pair_prgs
            .get_mut(j)
            .and_then(|p| p.as_mut())
            .ok_or(MpcError::NoSuchParty {
                id: j,
                n_parties: n,
            })
    }

    /// Returns a fresh protocol tag. All parties call protocols in the
    /// same order, so counters agree across the network.
    ///
    /// Debug builds assert against the [`tags::REGISTRY`]: ordinary tags
    /// must stay inside the `protocol` range and block-scoped tags inside
    /// the entered block's stride (a scope that issues more than
    /// [`BLOCK_TAG_STRIDE`] tags would silently collide with the next
    /// block's range).
    pub fn fresh_tag(&mut self) -> u32 {
        self.tag_counter += 1;
        let tag = self.tag_counter;
        match self.cur_block {
            None => debug_assert_eq!(
                tags::range_of_tag(tag).name,
                "protocol",
                "ordinary tag {tag} escaped the protocol range"
            ),
            Some(b) => debug_assert_eq!(
                tags::block_of_tag(tag),
                Some(b),
                "block-scoped tag {tag} left block {b}'s stride"
            ),
        }
        tag
    }

    /// Enters block `b`'s tag scope: subsequent [`PartyCtx::fresh_tag`]
    /// calls draw from the block's reserved range, so the shared
    /// [`crate::net::NetworkStats`] attributes the traffic to the block.
    /// Scopes do not nest; each block must be exited before the next is
    /// entered, and blocks must be entered in the same order by all
    /// parties (SPMD, like tags themselves).
    pub fn enter_block(&mut self, block: u32) -> Result<(), MpcError> {
        if self.saved_tag.is_some() {
            return Err(MpcError::Protocol {
                what: "enter_block while already inside a block tag scope",
            });
        }
        if block > MAX_BLOCK_ID {
            return Err(MpcError::Protocol {
                what: "block id exceeds the tag range (MAX_BLOCK_ID)",
            });
        }
        self.saved_tag = Some(self.tag_counter);
        self.cur_block = Some(block);
        self.tag_counter = BLOCK_TAG_BASE + block * BLOCK_TAG_STRIDE;
        Ok(())
    }

    /// Leaves the current block tag scope, restoring the ordinary
    /// lockstep counter.
    pub fn exit_block(&mut self) -> Result<(), MpcError> {
        match self.saved_tag.take() {
            Some(t) => {
                self.tag_counter = t;
                self.cur_block = None;
                Ok(())
            }
            None => Err(MpcError::Protocol {
                what: "exit_block without a matching enter_block",
            }),
        }
    }

    // ---- typed send/recv helpers -------------------------------------
    //
    // Stated once, generic over the [`Element`] that travels: `R64` for
    // the masked sums, `F61` for the Beaver openings.

    /// Sends an element vector to a peer, one word per element.
    pub fn send<E: Element>(&self, to: usize, tag: u32, v: &[E]) -> Result<(), MpcError> {
        let words: Vec<u64> = v.iter().map(|e| e.to_word()).collect();
        self.send_words(to, tag, &words)
    }

    /// Receives an element vector from a peer.
    pub fn recv<E: Element>(&self, from: usize, tag: u32) -> Result<Vec<E>, MpcError> {
        Ok(self
            .recv_words(from, tag)?
            .into_iter()
            .map(E::from_word)
            .collect())
    }

    /// Sends the same element vector to every other party.
    pub fn broadcast<E: Element>(&self, tag: u32, v: &[E]) -> Result<(), MpcError> {
        for j in 0..self.n_parties() {
            if j != self.id() {
                self.send(j, tag, v)?;
            }
        }
        Ok(())
    }

    /// Broadcasts own contribution and element-wise sums everyone's
    /// vectors (the "open" step of an additively shared value).
    pub fn exchange_sum<E: Element>(&self, tag: u32, own: &[E]) -> Result<Vec<E>, MpcError> {
        self.broadcast(tag, own)?;
        let mut total = own.to_vec();
        for j in 0..self.n_parties() {
            if j == self.id() {
                continue;
            }
            let v: Vec<E> = self.recv(j, tag)?;
            if v.len() != own.len() {
                return Err(MpcError::LengthMismatch {
                    what: E::EXCHANGE_SUM,
                    expected: own.len(),
                    got: v.len(),
                });
            }
            for (t, s) in total.iter_mut().zip(&v) {
                *t += *s;
            }
        }
        Ok(total)
    }

    // ---- Secret-typed helpers ----------------------------------------
    //
    // A masked vector is uniform noise to its recipient, so receiving it
    // is not a disclosure; it stays wrapped in [`Secret`] until the *sum*
    // over all parties opens, and only through [`Secret::open_via`] below.

    /// Receives one peer's masked vector, wrapped.
    pub fn recv_secret<E: Element>(
        &self,
        from: usize,
        tag: u32,
    ) -> Result<Secret<Vec<E>>, MpcError> {
        Ok(Secret::new(self.recv(from, tag)?))
    }

    /// Opens an additively shared vector: exchanges partial sums with
    /// every peer and routes the total through the audited
    /// [`Secret::open_via`] path. With `Some(label)` the total is a
    /// disclosure — party 0 records it (once per network, not once per
    /// party) and mirrors the count into the trace; with `None` the total
    /// is a uniform one-time-pad difference (Beaver `d`/`e`), which is not
    /// a disclosure by construction.
    pub fn open_sum<E: Element>(
        &self,
        tag: u32,
        partial: &Secret<Vec<E>>,
        disclosed_as: Option<&str>,
    ) -> Result<Vec<E>, MpcError>
    where
        Vec<E>: ScalarCount,
    {
        let total = self.exchange_sum(tag, partial.expose())?;
        Ok(self.finish_open(Secret::new(total), disclosed_as))
    }

    /// Opens a value this party already holds in full (the single-party
    /// fast path, or a star aggregator's locally accumulated total) via
    /// the same audited path as [`PartyCtx::open_sum`].
    pub fn open_local<T: ScalarCount>(&self, value: Secret<T>, disclosed_as: Option<&str>) -> T {
        self.finish_open(value, disclosed_as)
    }

    /// Captures the deterministic protocol-layer state a checkpoint must
    /// persist: the private RNG, every pairwise PRG, and the lockstep tag
    /// counter. Capturing inside a block tag scope is rejected — blocks
    /// are the checkpoint boundary, and a mid-scope snapshot would bake
    /// in a scope the resumed run cannot legally re-enter.
    pub fn protocol_state(&self) -> Result<CtxState, MpcError> {
        if self.saved_tag.is_some() {
            return Err(MpcError::Protocol {
                what: "protocol_state inside a block tag scope",
            });
        }
        Ok(CtxState {
            rng: self.rng.state(),
            pair_prgs: self
                .pair_prgs
                .iter()
                .map(|p| p.as_ref().map(Prg::state))
                .collect(),
            tag_counter: self.tag_counter,
        })
    }

    /// Restores state captured by [`PartyCtx::protocol_state`] so a
    /// resumed run draws the same randomness and issues the same tags as
    /// the uninterrupted run would have from that point.
    pub fn restore_protocol_state(&mut self, state: &CtxState) -> Result<(), MpcError> {
        if self.saved_tag.is_some() {
            return Err(MpcError::Protocol {
                what: "restore_protocol_state inside a block tag scope",
            });
        }
        if state.pair_prgs.len() != self.pair_prgs.len() {
            return Err(MpcError::LengthMismatch {
                what: "checkpointed pairwise PRG count",
                expected: self.pair_prgs.len(),
                got: state.pair_prgs.len(),
            });
        }
        for (have, want) in self.pair_prgs.iter().zip(&state.pair_prgs) {
            if have.is_some() != want.is_some() {
                return Err(MpcError::Protocol {
                    what: "checkpointed PRG layout does not match this party",
                });
            }
        }
        self.rng = Prg::from_state(state.rng);
        self.pair_prgs = state
            .pair_prgs
            .iter()
            .map(|s| s.map(Prg::from_state))
            .collect();
        self.tag_counter = state.tag_counter;
        Ok(())
    }

    /// The single audited exit for every opening in the protocol layer.
    /// The disclosure count is derived from the opened value itself inside
    /// [`Secret::open_via`], so the log cannot drift from what opened.
    fn finish_open<T: ScalarCount>(&self, total: Secret<T>, disclosed_as: Option<&str>) -> T {
        match disclosed_as {
            Some(label) if self.id() == 0 => {
                // The trace observes the opened word count at the opening
                // step, on the recording party, so the disclosure-size
                // tests can check the log's claimed scalar counts against
                // what was opened.
                self.trace_add(Counter::OpenedScalars, total.scalar_count() as u64);
                total.open_via(&self.audit, OpenMode::Aggregate(label))
            }
            // Every party opens the same total in lockstep; parties other
            // than the leader open a replica, which records nothing.
            Some(_) => total.open_via(&self.audit, OpenMode::Replica),
            None => total.open_via(&self.audit, OpenMode::Pad),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::F61;
    use crate::net::{Network, NetworkStats};
    use crate::ring::R64;
    use crate::transport::RetryPolicy;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A transport whose every send fails transiently — unlike the fault
    /// injector (which fires a transient fault at most once per logical
    /// message), this exercises the full retry budget.
    #[derive(Debug)]
    struct AlwaysTransient {
        stats: Arc<NetworkStats>,
    }

    impl Transport for AlwaysTransient {
        fn id(&self) -> usize {
            0
        }
        fn n_parties(&self) -> usize {
            2
        }
        fn stats(&self) -> &Arc<NetworkStats> {
            &self.stats
        }
        fn alloc_seq(&self, _to: usize) -> Result<u64, MpcError> {
            Ok(0)
        }
        fn send_frame(&self, to: usize, _msg: crate::net::Message) -> Result<(), MpcError> {
            Err(MpcError::TransientFailure { peer: to })
        }
        fn recv_frame(
            &self,
            from: usize,
            tag: u32,
            deadline: Duration,
        ) -> Result<crate::net::Message, MpcError> {
            Err(MpcError::Timeout {
                peer: from,
                tag,
                waited: deadline,
            })
        }
    }

    fn transient_ctx(config: TransportConfig) -> PartyCtx {
        let stats = Arc::new(NetworkStats::with_trace(2, TraceHandle::disabled()));
        PartyCtx::with_transport(
            Box::new(AlwaysTransient { stats }),
            config,
            7,
            DisclosureLog::new(),
        )
    }

    #[test]
    fn retry_backoff_is_charged_against_the_deadline() {
        // Regression (satellite bugfix): the retry loop used to sleep
        // backoff_for(attempt) without deducting elapsed time from the
        // deadline budget, so max_retries × backoff could wait far past
        // the configured deadline. With 1000 retries × 20 ms backoff the
        // un-deadlined loop would sleep for many seconds; the fix bounds
        // the total backoff wait by the 100 ms deadline.
        let ctx = transient_ctx(TransportConfig {
            deadline: Duration::from_millis(100),
            retry: RetryPolicy {
                max_retries: 1000,
                backoff: Duration::from_millis(20),
            },
        });
        let start = Instant::now();
        let err = ctx.send_words(1, 5, &[1, 2, 3]).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err, MpcError::TransientFailure { peer: 1 });
        assert!(
            waited < Duration::from_secs(2),
            "retry loop overshot the deadline: waited {waited:?}"
        );
        // The loop used some of its budget before giving up (it retried
        // at least once rather than bailing immediately).
        assert!(ctx.endpoint().stats().count_by(0, Counter::Retries) >= 1);
    }

    #[test]
    fn near_zero_deadline_send_fails_fast_without_sleeping() {
        // The degenerate budget: with a (near-)zero deadline the first
        // transient failure surfaces immediately — no backoff sleep is
        // owed because no budget exists to charge it against.
        let ctx = transient_ctx(TransportConfig {
            deadline: Duration::from_nanos(1),
            retry: RetryPolicy {
                max_retries: 1000,
                backoff: Duration::from_secs(10),
            },
        });
        let start = Instant::now();
        let err = ctx.send_words(1, 5, &[9]).unwrap_err();
        assert_eq!(err, MpcError::TransientFailure { peer: 1 });
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn final_backoff_sleep_is_truncated_to_remaining_budget() {
        // A single huge backoff must be clipped to the deadline, not
        // slept in full.
        let ctx = transient_ctx(TransportConfig {
            deadline: Duration::from_millis(50),
            retry: RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_secs(30),
            },
        });
        let start = Instant::now();
        let err = ctx.send_words(1, 2, &[]).unwrap_err();
        assert_eq!(err, MpcError::TransientFailure { peer: 1 });
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn ids_and_counts() {
        let results = Network::run_parties(3, 1, |ctx| (ctx.id(), ctx.n_parties()));
        assert_eq!(results, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn private_rngs_differ_across_parties() {
        let draws = Network::run_parties(3, 5, |ctx| ctx.rng_mut().next_u64());
        assert_ne!(draws[0], draws[1]);
        assert_ne!(draws[1], draws[2]);
        // Reproducible across runs with the same master seed.
        let again = Network::run_parties(3, 5, |ctx| ctx.rng_mut().next_u64());
        assert_eq!(draws, again);
    }

    #[test]
    fn pairwise_prgs_agree_between_the_pair() {
        let draws = Network::run_parties(3, 11, |ctx| {
            let mut out = Vec::new();
            for j in 0..3 {
                if j != ctx.id() {
                    out.push((j, ctx.pair_prg_mut(j).unwrap().next_u64()));
                }
            }
            out
        });
        // party0's draw for peer1 == party1's draw for peer0, etc.
        let get = |i: usize, j: usize| {
            draws[i]
                .iter()
                .find(|(peer, _)| *peer == j)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get(0, 1), get(1, 0));
        assert_eq!(get(0, 2), get(2, 0));
        assert_eq!(get(1, 2), get(2, 1));
        // Different pairs draw different streams.
        assert_ne!(get(0, 1), get(0, 2));
    }

    #[test]
    fn pair_prg_self_rejected() {
        Network::run_parties(2, 3, |ctx| {
            let me = ctx.id();
            assert!(ctx.pair_prg_mut(me).is_err());
            assert!(ctx.pair_prg_mut(7).is_err());
        });
    }

    #[test]
    fn fresh_tags_synchronized() {
        let tags = Network::run_parties(3, 1, |ctx| (ctx.fresh_tag(), ctx.fresh_tag()));
        assert!(tags.iter().all(|&t| t == tags[0]));
        assert_ne!(tags[0].0, tags[0].1);
    }

    #[test]
    fn block_tag_scope_save_restore() {
        Network::run_parties(2, 1, |ctx| {
            let before = ctx.fresh_tag();
            ctx.enter_block(2).unwrap();
            let inside = ctx.fresh_tag();
            assert_eq!(inside, BLOCK_TAG_BASE + 2 * BLOCK_TAG_STRIDE + 1);
            // Scopes do not nest.
            assert!(ctx.enter_block(3).is_err());
            ctx.exit_block().unwrap();
            // The ordinary counter resumes where it left off.
            assert_eq!(ctx.fresh_tag(), before + 1);
            // Unbalanced exits are rejected.
            assert!(ctx.exit_block().is_err());
            // Block ids beyond the tag range are rejected.
            assert!(ctx.enter_block(MAX_BLOCK_ID + 1).is_err());
        });
    }

    #[test]
    fn exchange_sum_ring_totals() {
        let totals = Network::run_parties(3, 1, |ctx| {
            let own = vec![R64(ctx.id() as u64 + 1), R64(10 * (ctx.id() as u64 + 1))];
            let tag = ctx.fresh_tag();
            ctx.exchange_sum(tag, &own).unwrap()
        });
        for t in totals {
            assert_eq!(t, vec![R64(6), R64(60)]);
        }
    }

    #[test]
    fn exchange_sum_field_totals() {
        let totals = Network::run_parties(4, 1, |ctx| {
            let own = vec![F61::from_i64(ctx.id() as i64 - 2)];
            let tag = ctx.fresh_tag();
            ctx.exchange_sum(tag, &own).unwrap()
        });
        for t in totals {
            assert_eq!(t[0].as_i64(), -2); // (-2) + (-1) + 0 + 1
        }
    }

    #[test]
    fn protocol_state_roundtrip_replays_randomness_and_tags() {
        Network::run_parties(3, 21, |ctx| {
            // Advance everything, snapshot, advance again, restore: the
            // post-restore draws must replay the post-snapshot draws.
            let _ = ctx.rng_mut().next_u64();
            let _ = ctx.fresh_tag();
            let state = ctx.protocol_state().unwrap();
            let peer = if ctx.id() == 0 { 1 } else { 0 };
            let replayed = (
                ctx.rng_mut().next_u64(),
                ctx.pair_prg_mut(peer).unwrap().next_u64(),
                ctx.fresh_tag(),
            );
            let _ = ctx.rng_mut().next_u64();
            ctx.restore_protocol_state(&state).unwrap();
            let again = (
                ctx.rng_mut().next_u64(),
                ctx.pair_prg_mut(peer).unwrap().next_u64(),
                ctx.fresh_tag(),
            );
            assert_eq!(replayed, again);
        });
    }

    #[test]
    fn protocol_state_rejected_inside_block_scope_and_bad_shapes() {
        Network::run_parties(2, 22, |ctx| {
            let good = ctx.protocol_state().unwrap();
            ctx.enter_block(1).unwrap();
            assert!(ctx.protocol_state().is_err());
            assert!(ctx.restore_protocol_state(&good).is_err());
            ctx.exit_block().unwrap();
            // Wrong party count.
            let mut short = good.clone();
            short.pair_prgs.pop();
            assert!(ctx.restore_protocol_state(&short).is_err());
            // None/Some layout mismatch (state captured for another id).
            let mut swapped = good.clone();
            swapped.pair_prgs.reverse();
            assert!(ctx.restore_protocol_state(&swapped).is_err());
            // The good state still restores.
            ctx.restore_protocol_state(&good).unwrap();
        });
    }

    #[test]
    fn single_party_exchange_is_identity() {
        let totals = Network::run_parties(1, 1, |ctx| {
            let tag = ctx.fresh_tag();
            ctx.exchange_sum(tag, &[R64(9)]).unwrap()
        });
        assert_eq!(totals[0], vec![R64(9)]);
    }
}
