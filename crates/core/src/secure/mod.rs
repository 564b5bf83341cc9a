//! The secure multi-party association scan (§3 of the paper).
//!
//! The protocol has two phases, each with a ladder of security modes:
//!
//! **Phase 1 — the QR step** ([`RFactorMode`]): recover the combined
//! K×K factor `R` of the pooled permanent covariates so every party can
//! privately form its rows `Q_k = C_k R⁻¹`.
//!
//! | mode | what leaks beyond the combined R |
//! |------|----------------------------------|
//! | [`RFactorMode::PublicStack`] | every party's own `R_k` (the paper's default: "perfectly happy to disclose") |
//! | [`RFactorMode::PairwiseTree`] | each subtree's combined `R` to its tree parent only (footnote 3) |
//! | [`RFactorMode::GramAggregate`] | nothing — only the aggregate `CᵀC` (= `RᵀR`) opens, via a secure sum |
//!
//! **Phase 2 — aggregation** ([`AggregationMode`]): combine the per-party
//! summands of the six statistics of Lemma 2.1.
//!
//! | mode | what leaks beyond the final statistics |
//! |------|----------------------------------------|
//! | [`AggregationMode::Public`] | every party's raw summands ("sharing them to sum") |
//! | [`AggregationMode::SecureShares`] | only the aggregates `X·y, X·X, y·y, Qᵀy, QᵀX` (share-based SMC sum) |
//! | [`AggregationMode::MaskedPrg`] | same aggregates, half the traffic (PRG-correlated masks) |
//! | [`AggregationMode::MaskedStar`] | same aggregates, O(P·M) total traffic via an aggregator |
//! | [`AggregationMode::BeaverDots`] | only `y·y, X·y, X·X` and the three projected *dot products* per variant — the K-vector aggregates never open (the paper's "even greater security" parenthetical) |
//!
//! Every opening is recorded in the disclosure log; the E6 experiment
//! prints the resulting leakage/cost ladder.

pub mod aggregate;
pub mod checkpoint;
pub mod protocol;
pub mod rfactor;
pub(crate) mod wire;

use crate::error::CoreError;
use crate::model::{PartyData, ScanResult};
use dash_mpc::audit::{Disclosure, DisclosureLog};
use dash_mpc::dealer::{PartyTriples, TrustedDealer};
use dash_mpc::net::{CostModel, NetOptions, Network, NetworkStats};
use dash_mpc::party::PartyCtx;
use dash_mpc::tcp::{TcpConfig, TcpTransport};
use dash_mpc::transport::{
    FaultPlan, FaultyTransport, FrameTransport, RetryPolicy, Transport, TransportConfig,
};
use dash_mpc::FixedPointCodec;
pub use dash_obs::{Counter as TraceCounter, SpanRecord, TraceHandle};
use parking_lot::Mutex;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// How the combined R factor of the pooled covariates is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RFactorMode {
    /// Every party publishes its `R_k`; everyone stacks and re-factors.
    PublicStack,
    /// Binary-tree pairwise combination (footnote 3): `R`s flow up a tree
    /// and only the root's result is broadcast.
    PairwiseTree,
    /// Secure-sum the K×K Gram summands `C_kᵀC_k`; only `CᵀC` opens and
    /// `R = chol(CᵀC)`.
    GramAggregate,
}

/// How the per-party summands of the six statistics are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// Broadcast raw summands and sum locally.
    Public,
    /// Share-based secure sum (two rounds).
    SecureShares,
    /// PRG-masked secure sum (one round, half the bytes).
    MaskedPrg,
    /// PRG-masked secure sum over a star topology: masked values flow to
    /// party 0, which broadcasts the total. Total traffic O(P·M) instead
    /// of O(P²·M); same privacy (party 0 sees only masked values).
    MaskedStar,
    /// Keep `Qᵀy`/`QᵀX` secret-shared; open only per-variant dot products
    /// via Beaver inner products.
    BeaverDots,
}

/// Configuration of a secure scan run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecureScanConfig {
    /// QR-phase mode.
    pub rfactor: RFactorMode,
    /// Aggregation-phase mode.
    pub aggregation: AggregationMode,
    /// Fractional bits of the Z₂⁶⁴ fixed-point codec used by the secure
    /// sums. 28 gives ±2³⁴ range at 4·10⁻⁹ resolution.
    pub ring_frac_bits: u32,
    /// Fractional bits of the F_{2⁶¹−1} codec used by the Beaver mode
    /// (inputs are pre-normalized to ‖·‖ ≤ 1, so 26 bits leave ample
    /// product headroom for up to 16 parties).
    pub field_frac_bits: u32,
    /// Master seed for all protocol randomness (shares, masks, dealer).
    pub seed: u64,
    /// Longest any party waits for one message before failing with a
    /// structured timeout (milliseconds).
    pub deadline_ms: u64,
    /// Resend attempts after a transient send failure.
    pub max_retries: u32,
    /// Backoff before the first resend (milliseconds; doubles per
    /// attempt).
    pub retry_backoff_ms: u64,
    /// Optional deterministic fault injection (testing/chaos runs only).
    pub faults: Option<FaultPlan>,
    /// Variant-block size of the aggregation pipeline: the variants are
    /// walked in blocks of B columns — peak summand memory O(K·B) —
    /// overlapping each block's secure round with the next block's local
    /// compute. `None` means one block of all M variants. Results are the
    /// same bits for every size.
    pub block_size: Option<usize>,
    /// Worker threads for each block's local summand compute (must be
    /// ≥ 1).
    pub threads: usize,
}

impl Default for SecureScanConfig {
    fn default() -> Self {
        SecureScanConfig {
            rfactor: RFactorMode::PublicStack,
            aggregation: AggregationMode::MaskedPrg,
            ring_frac_bits: 28,
            field_frac_bits: 26,
            seed: 0xDA54,
            deadline_ms: 60_000,
            max_retries: 3,
            retry_backoff_ms: 1,
            faults: None,
            block_size: None,
            threads: 1,
        }
    }
}

impl SecureScanConfig {
    /// The strictest ladder rung: aggregate-only R, Beaver dot products.
    pub fn max_security(seed: u64) -> Self {
        SecureScanConfig {
            rfactor: RFactorMode::GramAggregate,
            aggregation: AggregationMode::BeaverDots,
            seed,
            ..Self::default()
        }
    }

    /// The paper's default: public K×K R factors, secure sums for the
    /// statistics.
    pub fn paper_default(seed: u64) -> Self {
        SecureScanConfig {
            rfactor: RFactorMode::PublicStack,
            aggregation: AggregationMode::MaskedPrg,
            seed,
            ..Self::default()
        }
    }

    pub(crate) fn ring_codec(&self) -> Result<FixedPointCodec, CoreError> {
        Ok(FixedPointCodec::new(self.ring_frac_bits)?)
    }

    pub(crate) fn field_codec(&self) -> Result<FixedPointCodec, CoreError> {
        Ok(FixedPointCodec::new(self.field_frac_bits)?)
    }

    /// The network runner options this configuration implies (tracing
    /// disabled; [`secure_scan_traced_with`] injects an enabled handle).
    pub fn net_options(&self) -> NetOptions {
        NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_millis(self.deadline_ms),
                retry: RetryPolicy {
                    max_retries: self.max_retries,
                    backoff: Duration::from_millis(self.retry_backoff_ms),
                },
            },
            faults: self.faults,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Network cost summary of one protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkReport {
    /// Bytes over all directed links.
    pub total_bytes: u64,
    /// Largest per-party outbound byte count.
    pub max_party_bytes: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Simulated wall clock on a 10 Gbit/s / 0.1 ms LAN.
    pub lan_seconds: f64,
    /// Simulated wall clock on a 100 Mbit/s / 30 ms WAN.
    pub wan_seconds: f64,
    /// Send retries performed across all parties (0 on a healthy run).
    pub total_retries: u64,
    /// Receive deadline expiries across all parties (0 on a healthy run).
    pub total_timeouts: u64,
}

impl NetworkReport {
    /// Summarizes the counters of a finished protocol run.
    pub fn from_stats(stats: &dash_mpc::NetworkStats) -> Self {
        NetworkReport {
            total_bytes: stats.total_bytes(),
            max_party_bytes: stats.max_party_bytes(),
            total_messages: stats.total_messages(),
            lan_seconds: CostModel::lan().estimate_seconds(stats),
            wan_seconds: CostModel::wan().estimate_seconds(stats),
            total_retries: stats.total_retries(),
            total_timeouts: stats.total_timeouts(),
        }
    }
}

/// Everything a secure scan run produces.
#[derive(Debug, Clone)]
pub struct SecureScanOutput {
    /// The scan results (identical at every party; this is party 0's).
    pub result: ScanResult,
    /// Communication accounting.
    pub network: NetworkReport,
    /// Every value any protocol opened.
    pub disclosures: Vec<Disclosure>,
    /// Number of participating parties.
    pub n_parties: usize,
    /// Bytes exchanged during each variant-block aggregation round, in
    /// block order (one entry per block; never empty when M > 0).
    /// Together with the unscoped protocol traffic these partition
    /// [`NetworkReport::total_bytes`].
    pub per_block_bytes: Vec<u64>,
}

/// A party-local provider of the scan's additive statistics.
///
/// The protocol only needs three things from a party: its covariate rows
/// `C_k` (for the QR phase), its sample count, and the ability to produce
/// its summands of the Lemma 2.1 statistics given its private `Q_k` rows —
/// the y-side pair once, then the variant side one column range at a
/// time. [`PartyData`] provides the dense implementation; alternative
/// storage — sparse genotypes, memory-mapped files, on-the-fly dosage
/// decoding — implements this trait and plugs into [`secure_scan_with`]
/// unchanged.
pub trait SummandSource: Sync {
    /// Number of samples this party holds.
    fn n_samples(&self) -> usize;
    /// Number of variants (must agree across parties).
    fn n_variants(&self) -> usize;
    /// The permanent covariate rows, N_k×K.
    fn covariates(&self) -> &dash_linalg::Matrix;
    /// The block-independent y-side summands `(y·y, Qᵀy)` — round 0.
    fn y_summands(&self, q: &dash_linalg::Matrix) -> Result<(f64, Vec<f64>), CoreError>;
    /// The variant-side summands for columns `[lo, hi)` — the per-block
    /// unit. A scan asks for every column exactly once, so the cost must
    /// be that of the range, not of all M variants.
    fn summands_block(
        &self,
        q: &dash_linalg::Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<crate::suffstats::VariantSummands, CoreError>;
}

impl SummandSource for PartyData {
    fn n_samples(&self) -> usize {
        PartyData::n_samples(self)
    }
    fn n_variants(&self) -> usize {
        PartyData::n_variants(self)
    }
    fn covariates(&self) -> &dash_linalg::Matrix {
        self.c()
    }
    fn y_summands(&self, q: &dash_linalg::Matrix) -> Result<(f64, Vec<f64>), CoreError> {
        crate::suffstats::y_dots(self.y(), q)
    }
    fn summands_block(
        &self,
        q: &dash_linalg::Matrix,
        lo: usize,
        hi: usize,
    ) -> Result<crate::suffstats::VariantSummands, CoreError> {
        crate::suffstats::VariantSummands::local(self.y(), self.x(), q, lo, hi)
    }
}

/// Validates the sources this process holds and returns `(M, K)`.
///
/// The pooled sample count is checked only when this process holds every
/// party's rows; a lone party of a multi-process run learns it from the
/// count round.
fn validate_sources<S: SummandSource>(
    parties: &[S],
    n_parties: usize,
) -> Result<(usize, usize), CoreError> {
    let first = parties.first().ok_or(CoreError::NoParties)?;
    let m = first.n_variants();
    let k = first.covariates().cols();
    let mut n = 0;
    for (i, p) in parties.iter().enumerate() {
        if p.n_variants() != m {
            return Err(CoreError::PartiesInconsistent {
                what: "variant count M",
                party: i,
                expected: m,
                got: p.n_variants(),
            });
        }
        if p.covariates().cols() != k {
            return Err(CoreError::PartiesInconsistent {
                what: "covariate count K",
                party: i,
                expected: k,
                got: p.covariates().cols(),
            });
        }
        if p.covariates().rows() != p.n_samples() {
            return Err(CoreError::ShapeMismatch {
                what: "covariate rows vs samples",
                expected: p.n_samples(),
                got: p.covariates().rows(),
            });
        }
        n += p.n_samples();
    }
    if parties.len() == n_parties && n <= k + 1 {
        return Err(CoreError::NotEnoughSamples { n, k });
    }
    Ok((m, k))
}

/// Validates the run-shape knobs of a configuration against the variant
/// count.
fn validate_config(cfg: &SecureScanConfig, m: usize) -> Result<(), CoreError> {
    cfg.ring_codec()?;
    cfg.field_codec()?;
    if cfg.threads == 0 {
        return Err(CoreError::BadConfig {
            what: "threads must be >= 1 (use 1 for serial block compute)",
        });
    }
    if let Some(b) = cfg.block_size {
        if b == 0 {
            return Err(CoreError::BadConfig {
                what: "block_size must be >= 1 (or None for one block of all variants)",
            });
        }
        if m.div_ceil(b) as u64 > dash_mpc::net::MAX_BLOCK_ID as u64 + 1 {
            return Err(CoreError::BadConfig {
                what: "too many variant blocks for the block tag range; raise block_size",
            });
        }
    }
    Ok(())
}

/// Each party's slice of the dealer's output, taken by the party's own
/// thread when its protocol starts (`None` when the mode needs none).
type TripleSlots = [Mutex<Option<PartyTriples>>];

fn take_triples(slots: &TripleSlots, id: usize) -> Option<PartyTriples> {
    slots.get(id).and_then(|slot| slot.lock().take())
}

/// What a run shape hands back: every local party's outcome, and the
/// counters and disclosure log they shared.
type RunParts = (
    Vec<Result<ScanResult, CoreError>>,
    Arc<NetworkStats>,
    DisclosureLog,
);

/// The body every run shape shares: validate, deal the offline material,
/// `run` the `parties` this process holds, check they agree, and report.
/// `lone` is `(id, party count)` when `parties` is the single party of a
/// multi-process run, `None` when it is all of them.
fn run_scan<S: SummandSource>(
    parties: &[S],
    lone: Option<(usize, usize)>,
    cfg: &SecureScanConfig,
    run: impl FnOnce(&TripleSlots) -> Result<RunParts, CoreError>,
) -> Result<SecureScanOutput, CoreError> {
    let n_parties = lone.map_or(parties.len(), |(_, n)| n);
    // Validate eagerly so configuration errors surface before any thread
    // spawns.
    let (m, k) = validate_sources(parties, n_parties)?;
    validate_config(cfg, m)?;

    // Offline phase: deal Beaver material when the strict mode needs it.
    // The trusted dealer is a deterministic function of `(party count,
    // seed)`, so a lone party process deals the full output and keeps its
    // own slice — bit-identical to dealing centrally.
    let slots: Vec<Mutex<Option<PartyTriples>>> =
        if cfg.aggregation == AggregationMode::BeaverDots && k > 0 {
            TrustedDealer::new(n_parties, cfg.seed)?
                .deal_inners(k, 2 * m + 1)
                .into_iter()
                .enumerate()
                .map(|(i, b)| Mutex::new(lone.is_none_or(|(id, _)| id == i).then_some(b)))
                .collect()
        } else {
            (0..n_parties).map(|_| Mutex::new(None)).collect()
        };

    let (results, stats, audit) = run(&slots)?;

    // Any party's failure fails the run with its structured error — never
    // a hang or a process panic.
    let mut iter = results.into_iter();
    let first = iter.next().ok_or(CoreError::NoParties)??;
    for r in iter {
        let r = r?;
        debug_assert_eq!(
            r, first,
            "parties derived different results from identical opened values"
        );
    }

    // The tag-keyed per-block counters must partition the run's total
    // traffic exactly: every frame is attributed to exactly one block or
    // to the unscoped protocol phases.
    debug_assert_eq!(
        stats.block_bytes_total() + stats.unscoped_bytes(),
        stats.total_bytes(),
        "per-block traffic counters must partition the run total"
    );
    Ok(SecureScanOutput {
        result: first,
        network: NetworkReport::from_stats(&stats),
        disclosures: audit.entries(),
        n_parties,
        per_block_bytes: stats
            .per_block_traffic()
            .into_iter()
            .map(|(_, bytes, _)| bytes)
            .collect(),
    })
}

/// One party's protocol context over an established transport, with the
/// configured fault injector (if any) wrapped around it.
fn party_ctx<T: FrameTransport + 'static>(
    transport: T,
    cfg: &SecureScanConfig,
    audit: DisclosureLog,
) -> PartyCtx {
    let boxed: Box<dyn Transport> = match cfg.faults {
        Some(plan) => Box::new(FaultyTransport::new(transport, plan)),
        None => Box::new(transport),
    };
    PartyCtx::with_transport(boxed, cfg.net_options().transport, cfg.seed, audit)
}

/// Runs the full secure multi-party association scan over an in-process
/// party network.
///
/// Each element of `parties` is one party's private rows; the function
/// spawns one thread per party, runs the configured protocol, and checks
/// that all parties derived identical results (they must — every final
/// statistic is computed from identically opened values).
pub fn secure_scan(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
) -> Result<SecureScanOutput, CoreError> {
    secure_scan_with(parties, cfg)
}

/// Like [`secure_scan`] but records spans and per-party counters into
/// `trace` (pass [`TraceHandle::enabled`] with the party count; a
/// disabled handle makes this identical to [`secure_scan`]).
pub fn secure_scan_traced(
    parties: &[PartyData],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
) -> Result<SecureScanOutput, CoreError> {
    secure_scan_traced_with(parties, cfg, trace)
}

/// Generic variant of [`secure_scan`] over any [`SummandSource`] storage.
pub fn secure_scan_with<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
) -> Result<SecureScanOutput, CoreError> {
    secure_scan_traced_with(parties, cfg, TraceHandle::disabled())
}

/// Generic traced variant: the run's transport counters mirror into
/// `trace` and every party records hierarchical spans
/// (`scan → phase → block → secure round`) plus protocol counters.
pub fn secure_scan_traced_with<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
) -> Result<SecureScanOutput, CoreError> {
    let p = parties.len();
    run_scan(parties, None, cfg, |slots| {
        let opts = NetOptions {
            trace,
            ..cfg.net_options()
        };
        let (results, stats, audit) =
            Network::run_parties_detailed_with(p, cfg.seed, &opts, |ctx| {
                // ctx.id() < p by construction; the lookup is total anyway.
                let data = parties
                    .get(ctx.id())
                    .ok_or(dash_mpc::MpcError::NoSuchParty {
                        id: ctx.id(),
                        n_parties: p,
                    })?;
                let mut triples = take_triples(slots, ctx.id());
                protocol::party_protocol_with(ctx, data, cfg, triples.as_mut(), None)
            })?;
        // Flatten each party's slot: the outer Result carries panics/crash
        // faults (PartyFailed), the inner one protocol errors.
        let results = results
            .into_iter()
            .map(|r| r.map_err(CoreError::from).and_then(|inner| inner))
            .collect();
        Ok((results, stats, audit))
    })
}

/// Runs **one party's** side of the secure scan over an externally
/// established transport — a [`TcpTransport`] in a real multi-process
/// deployment, or any [`FrameTransport`] in tests. This is the
/// per-process counterpart of [`secure_scan_with`], which runs every
/// party on threads of one process.
///
/// The returned [`SecureScanOutput`] is this process's view: `network`
/// counts **own outbound** traffic only (receivers never record, so the
/// sum over all party processes equals the in-process run's total), and
/// `disclosures` holds the openings this party records (party 0 records
/// the aggregates; per-party disclosures are recorded by their owner —
/// the union over processes equals the in-process shared log).
pub fn secure_scan_party_with<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    scan_party(data, cfg, transport, None)
}

/// [`secure_scan_party_with`] with crash-recovery checkpoints: the run
/// persists its deterministic protocol state to
/// [`checkpoint::checkpoint_path`]`(policy.dir, id)` after the y round
/// and after every variant block, and — when `policy.resume_from` holds
/// a loaded [`checkpoint::Checkpoint`] — rejoins an interrupted run at
/// its last durable block boundary. The caller connects the transport
/// (with [`dash_mpc::tcp::TcpTransport::connect_resume`] and the
/// checkpoint's link cursors when resuming) before handing it in.
///
/// Restrictions, each a structured [`CoreError::Checkpoint`]: the
/// aggregation mode must not be Beaver (its y aggregate stays
/// secret-shared across blocks, and share material must never touch
/// disk), the transport must have durable link identity (TCP), and the
/// deterministic fault injector cannot be combined with checkpointing
/// (replayed faults would desync its per-message schedule).
pub fn secure_scan_party_checkpointed<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
    policy: &checkpoint::CheckpointPolicy,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    scan_party(data, cfg, transport, Some(policy))
}

fn scan_party<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
    policy: Option<&checkpoint::CheckpointPolicy>,
) -> Result<SecureScanOutput, CoreError>
where
    S: SummandSource,
    T: FrameTransport + 'static,
{
    let id = transport.id();
    let p = transport.n_parties();
    run_scan(std::slice::from_ref(data), Some((id, p)), cfg, |slots| {
        let stats = Arc::clone(transport.stats());
        let audit = DisclosureLog::new();
        let mut ctx = party_ctx(transport, cfg, audit.clone());
        let mut triples = take_triples(slots, id);
        let result = protocol::party_protocol_with(&mut ctx, data, cfg, triples.as_mut(), policy);
        // Tear the socket mesh down before reporting so every reader
        // thread has exited and the counters are final.
        drop(ctx);
        Ok((vec![result], stats, audit))
    })
}

/// Runs the secure scan over **real loopback TCP sockets**, one
/// [`TcpTransport`] per party thread — the full socket path (framing,
/// handshake, reader threads) under one roof so tests and the check.sh
/// smoke can assert bit-identical results and accounting against
/// [`secure_scan_with`].
///
/// Unlike separate `dash party` processes, all parties share one
/// [`NetworkStats`] and one [`DisclosureLog`] here, exactly like the
/// in-process runner — so `network` and `disclosures` of the output are
/// directly comparable (equal, for a deterministic protocol) to the
/// mpsc run's.
pub fn secure_scan_tcp_local<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
) -> Result<SecureScanOutput, CoreError> {
    secure_scan_tcp_local_traced(parties, cfg, TraceHandle::disabled())
}

/// [`secure_scan_tcp_local`] with the shared counters mirroring into
/// `trace`.
pub fn secure_scan_tcp_local_traced<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
) -> Result<SecureScanOutput, CoreError> {
    let p = parties.len();
    run_scan(parties, None, cfg, |slots| {
        // Rendezvous: bind every party's listener up front (port 0 → the
        // OS assigns), so each thread knows the full address list.
        let mut listeners = Vec::with_capacity(p);
        let mut addrs = Vec::with_capacity(p);
        for i in 0..p {
            let l = TcpListener::bind("127.0.0.1:0").map_err(|e| {
                CoreError::Mpc(dash_mpc::MpcError::Handshake {
                    peer: i,
                    reason: format!("bind loopback listener: {e}"),
                })
            })?;
            let addr = l.local_addr().map_err(|e| {
                CoreError::Mpc(dash_mpc::MpcError::Handshake {
                    peer: i,
                    reason: format!("read listener address: {e}"),
                })
            })?;
            listeners.push(l);
            addrs.push(addr);
        }
        let tcp_cfg = TcpConfig {
            run_id: cfg.seed,
            ..TcpConfig::default()
        };

        let stats = Arc::new(NetworkStats::with_trace(p, trace));
        let audit = DisclosureLog::new();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .zip(parties)
                .enumerate()
                .map(|(i, (listener, data))| {
                    let addrs = &addrs;
                    let stats = Arc::clone(&stats);
                    let audit = audit.clone();
                    let handle = scope.spawn(move || -> Result<ScanResult, CoreError> {
                        let tcp = TcpTransport::connect(i, listener, addrs, tcp_cfg, stats)?;
                        let mut ctx = party_ctx(tcp, cfg, audit);
                        let mut triples = take_triples(slots, i);
                        protocol::party_protocol_with(&mut ctx, data, cfg, triples.as_mut(), None)
                    });
                    (i, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(i, h)| {
                    h.join().unwrap_or_else(|payload| {
                        Err(CoreError::Mpc(dash_mpc::MpcError::PartyFailed {
                            party: i,
                            reason: match CoreError::worker_panicked(payload.as_ref()) {
                                CoreError::WorkerPanicked { reason } => reason,
                                _ => "party thread panicked".to_string(),
                            },
                        }))
                    })
                })
                .collect()
        });
        Ok((results, stats, audit))
    })
}
