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
//! | [`AggregationMode::MaskedPrg`] | only the aggregates `X·y, X·X, y·y, Qᵀy, QᵀX` (the SMC sum: PRG-correlated masks, one all-to-all round) |
//! | [`AggregationMode::MaskedStar`] | same aggregates, O(P·M) total traffic via an aggregator |
//! | [`AggregationMode::BeaverDots`] | only `y·y, X·y, X·X` and the three projected *dot products* per variant — the K-vector aggregates never open (the paper's "even greater security" parenthetical) |
//!
//! Every opening is recorded in the disclosure log; the E6 experiment
//! prints the resulting leakage/cost ladder.

// Panic-free for the secure scope's dash-core half, as at the top of
// `crates/mpc/src/lib.rs`: outside unit tests an `assert!`, `assert_eq!`
// or `assert_ne!` in this module or any module declared below does not
// compile. `debug_assert!` still does.
#[cfg(not(test))]
#[allow(unused_macros, reason = "a shadow: used means the build fails")]
macro_rules! assert {
    ($($t:tt)*) => {
        compile_error!("assert! aborts a party mid-round: return an error")
    };
}
#[cfg(not(test))]
#[allow(unused_macros, reason = "a shadow: used means the build fails")]
macro_rules! assert_eq {
    ($($t:tt)*) => {
        compile_error!("assert_eq! aborts a party mid-round: return an error")
    };
}
#[cfg(not(test))]
#[allow(unused_macros, reason = "a shadow: used means the build fails")]
macro_rules! assert_ne {
    ($($t:tt)*) => {
        compile_error!("assert_ne! aborts a party mid-round: return an error")
    };
}

pub mod aggregate;
pub mod checkpoint;
pub mod protocol;
pub mod rfactor;
pub(crate) mod triples;
pub(crate) mod wire;

use crate::error::CoreError;
use crate::model::{PartyData, RowSink, ScanResult, ScanSummary};
use dash_mpc::audit::{Disclosure, DisclosureLog};
use dash_mpc::net::{NetOptions, Network, NetworkStats};
use dash_mpc::party::PartyCtx;
use dash_mpc::tcp::TcpConfig;
use dash_mpc::transport::{Transport, TransportConfig};
use dash_mpc::{FixedPointCodec, MpcError};
pub use dash_obs::{Counter as TraceCounter, SpanRecord, TraceHandle};
use std::sync::Arc;
use std::time::Duration;
use triples::{DealerFeed, FeedSlots};

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
    /// PRG-masked secure sum, all-to-all (one round).
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
    /// Fractional bits of the Beaver-operand codec ("field" names that
    /// codec; its words are Z₂⁶⁴ ring elements). An opened product is
    /// exact iff |Σ x·y|·2^{2f} < 2⁶³ (the bound `dash_mpc::fixed`
    /// states). Shared operands are pre-normalized so their sum has
    /// ‖·‖ ≤ 1, hence |Σ x·y| ≤ 1 up to rounding: 26 bits leave 2¹¹ of
    /// headroom.
    pub field_frac_bits: u32,
    /// Master seed for all protocol randomness (masks, dealer).
    pub seed: u64,
    /// Longest any party waits for one message before failing with a
    /// structured timeout (milliseconds).
    pub deadline_ms: u64,
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

    /// The §5 workloads (logistic, online, multi-phenotype) run the
    /// masked all-to-all sum whatever the mode says, so they refuse any
    /// other aggregation instead of running a rung the caller did not ask
    /// for.
    pub(crate) fn require_masked_prg(&self) -> Result<(), CoreError> {
        match self.aggregation {
            AggregationMode::MaskedPrg => Ok(()),
            _ => Err(CoreError::BadConfig {
                what: "the section 5 workloads run the masked all-to-all sum: aggregation must be MaskedPrg",
            }),
        }
    }

    pub(crate) fn ring_codec(&self) -> Result<FixedPointCodec, CoreError> {
        Ok(FixedPointCodec::new(self.ring_frac_bits)?)
    }

    pub(crate) fn beaver_codec(&self) -> Result<FixedPointCodec, CoreError> {
        Ok(FixedPointCodec::new(self.field_frac_bits)?)
    }

    /// The network runner options this configuration implies (tracing
    /// disabled; [`secure_scan_traced_with`] injects an enabled handle).
    pub fn net_options(&self) -> NetOptions {
        NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_millis(self.deadline_ms),
            },
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
    /// Send retries across all parties: 0 by construction, since no
    /// transport retries a send. Kept for the benchmark's
    /// failed-operations parser.
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
            total_retries: stats.total(TraceCounter::Retries),
            total_timeouts: stats.total(TraceCounter::Timeouts),
        }
    }
}

/// Everything a secure scan run produces.
#[derive(Debug, Clone)]
pub struct SecureScanOutput<R = ScanResult> {
    /// The scan results: party 0's rows. In-process, party 0 alone
    /// finalizes, once every party's digest matched (see [`secure_scan`]).
    /// A run whose rows went to a [`RowSink`] holds their [`ScanSummary`]
    /// here instead.
    pub result: R,
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

impl<R> SecureScanOutput<R> {
    /// The same run with `f` of its result.
    pub fn map<U>(self, f: impl FnOnce(R) -> U) -> SecureScanOutput<U> {
        SecureScanOutput {
            result: f(self.result),
            network: self.network,
            disclosures: self.disclosures,
            n_parties: self.n_parties,
            per_block_bytes: self.per_block_bytes,
        }
    }
}

/// A party-local provider of the scan's additive statistics.
///
/// The protocol only needs three things from a party: its covariate rows
/// `C_k` (for the QR phase), its sample count, and the ability to produce
/// its summands of the Lemma 2.1 statistics given its private `Q_k` rows —
/// the y-side pair once, then the variant side one column range at a
/// time. [`PartyData`] provides the dense implementation; alternative
/// storage — sparse genotypes, a table streamed from disk
/// (`dash_gwas::io::StreamedParty`, what `dash party` runs on), on-the-fly
/// dosage decoding — implements this trait and plugs into [`secure_scan`]
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
    /// unit, always with the same `q`. A scan asks for every column
    /// exactly once, in block order, so all the blocks together must cost
    /// one pass over the scan: a source may compute each range as it is
    /// asked for, or every variant on the first call and slice after.
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
pub(crate) fn validate_sources<S: SummandSource>(
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
    cfg.beaver_codec()?;
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
        if m.div_ceil(b) as u64 > dash_mpc::tags::MAX_BLOCK_ID as u64 + 1 {
            return Err(CoreError::BadConfig {
                what: "too many variant blocks for the block tag range; raise block_size",
            });
        }
    }
    Ok(())
}

/// What a run shape hands back: every local party's result (all of them
/// succeeded), and the counters and disclosure log they shared.
type RunParts<T> = (Vec<T>, Arc<NetworkStats>, DisclosureLog);

/// The flatten step every in-process workload shares: a party's slot
/// carries panics on the outside (`PartyFailed`) and its
/// protocol errors on the inside; any party's failure fails the run with
/// that party's structured error — never a hang or a process panic.
fn flatten<T>(
    (slots, stats, audit): RunParts<Result<Result<T, CoreError>, MpcError>>,
) -> Result<RunParts<T>, CoreError> {
    let results = slots
        .into_iter()
        .map(|slot| slot.map_err(CoreError::from).and_then(|inner| inner))
        .collect::<Result<_, _>>()?;
    Ok((results, stats, audit))
}

/// The rows of the party `ctx` is running as. `ctx.id() < parties.len()`
/// by construction; the lookup is total anyway.
fn own_rows<'a, P>(parties: &'a [P], ctx: &PartyCtx) -> Result<&'a P, CoreError> {
    Ok(parties.get(ctx.id()).ok_or(MpcError::NoSuchParty {
        id: ctx.id(),
        n_parties: parties.len(),
    })?)
}

/// Runs `f(ctx, its rows)` as one in-process party per element of
/// `parties` on the structured runner and flattens the outcome. The §5
/// workloads (logistic, multi-phenotype, online, PCA) run through here,
/// so they honour `opts` — deadline and trace — exactly
/// like the linear scan.
pub(crate) fn run_in_process<P: Sync, T: Send>(
    parties: &[P],
    seed: u64,
    opts: &NetOptions,
    f: impl Fn(&mut PartyCtx, &P) -> Result<T, CoreError> + Sync,
) -> Result<RunParts<T>, CoreError> {
    let party = |ctx: &mut PartyCtx| f(ctx, own_rows(parties, ctx)?);
    flatten(Network::run_parties_detailed_with(
        parties.len(),
        seed,
        opts,
        party,
    )?)
}

/// Party 0's result, once every party's digest equals party 0's (in every
/// build); else the first party that disagrees, as a structured error.
fn agreed_rows<R>(scans: Vec<(R, u64)>) -> Result<R, CoreError> {
    let mut scans = scans.into_iter();
    let (first, digest) = scans.next().ok_or(CoreError::NoParties)?;
    match scans.enumerate().find(|(_, (_, d))| *d != digest) {
        None => Ok(first),
        Some((i, (_, other))) => Err(CoreError::PartiesInconsistent {
            what: "digest of the opened statistics",
            party: i + 1,
            expected: digest as usize,
            got: other as usize,
        }),
    }
}

/// A result with no rows yet and room for `m`.
fn no_rows(m: usize) -> ScanResult {
    ScanResult {
        beta: Vec::with_capacity(m),
        se: Vec::with_capacity(m),
        t: Vec::with_capacity(m),
        p: Vec::with_capacity(m),
        df: 0,
        n_degenerate: 0,
    }
}

/// The body every run shape shares: validate, `run` the `parties` this
/// process holds — next to the run's dealer when the mode has one — check
/// they agree, and report. `lone` is `(id, party count)` when `parties` is
/// the single party of a multi-process run, `None` when it is all of them.
fn run_scan<S: SummandSource, R>(
    parties: &[S],
    lone: Option<(usize, usize)>,
    cfg: &SecureScanConfig,
    run: impl FnOnce(&FeedSlots) -> Result<RunParts<(R, u64)>, CoreError>,
) -> Result<SecureScanOutput<R>, CoreError> {
    let n_parties = lone.map_or(parties.len(), |(_, n)| n);
    // Validate eagerly so configuration errors surface before any thread
    // spawns.
    let (m, k) = validate_sources(parties, n_parties)?;
    validate_config(cfg, m)?;

    // Offline phase, streamed: the strict mode's one dealer deals each
    // Beaver round's batch while the parties run the round before it. It
    // is a function of `(party count, seed)`, so a lone party process runs
    // the whole stream itself and keeps its own slice of it.
    let (results, stats, audit) = if cfg.aggregation == AggregationMode::BeaverDots && k > 0 {
        triples::deal_alongside(
            triples::scan_dealer(n_parties, cfg.seed, k)?,
            protocol::deal_counts(m, cfg.block_size),
            (n_parties, lone.map(|(id, _)| id)),
            run,
        )?
    } else {
        run(&[])?
    };

    let result = agreed_rows(results)?;
    // The tag-keyed per-block counters must partition the run's total
    // traffic exactly: every frame is attributed to exactly one block or
    // to the unscoped protocol phases.
    debug_assert_eq!(
        stats.block_bytes_total() + stats.unscoped_bytes(),
        stats.total_bytes(),
        "per-block traffic counters must partition the run total"
    );
    Ok(SecureScanOutput {
        result,
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

/// The `run` of both all-parties shapes: a thread per party over the mpsc
/// mesh or (with `tcp`) loopback sockets. Party 0 alone finalizes, into
/// its result in memory.
fn all_parties<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
    tcp: Option<TcpConfig>,
    slots: &FeedSlots,
) -> Result<RunParts<(ScanResult, u64)>, CoreError> {
    let opts = NetOptions {
        trace,
        ..cfg.net_options()
    };
    let party = |ctx: &mut PartyCtx| {
        let data = own_rows(parties, ctx)?;
        let mut feed = DealerFeed::take_from(slots, ctx.id());
        let finalize = ctx.id() == 0;
        let mut rows = no_rows(if finalize { data.n_variants() } else { 0 });
        let sink = finalize.then_some(&mut rows as &mut dyn RowSink);
        // A party that finished says so (`Transport::close`); one that
        // failed must look to its peers like the crash it is.
        let scan = protocol::party_protocol_with(ctx, data, cfg, &mut feed, None, sink)
            .inspect(|_| ctx.endpoint().close())?;
        rows.df = scan.summary.df;
        Ok((rows, scan.digest))
    };
    let (p, seed) = (parties.len(), cfg.seed);
    flatten(match tcp {
        None => Network::run_parties_detailed_with(p, seed, &opts, party)?,
        Some(tcp) => Network::run_parties_tcp_with(p, seed, &opts, tcp, party)?,
    })
}

/// Runs the full secure multi-party association scan over an in-process
/// party network, over any [`SummandSource`] storage ([`PartyData`] is
/// the dense one).
///
/// Each element of `parties` is one party's private rows; the function
/// spawns one thread per party and runs the configured protocol. Party 0
/// alone finalizes rows; every party digests what it opens, and unequal
/// digests fail the run with [`CoreError::PartiesInconsistent`].
pub fn secure_scan<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
) -> Result<SecureScanOutput, CoreError> {
    secure_scan_traced_with(parties, cfg, TraceHandle::disabled())
}

/// [`secure_scan`] recording into `trace` (pass [`TraceHandle::enabled`]
/// with the party count): the run's transport counters mirror into it and
/// every party records hierarchical spans (`scan → phase → block → secure
/// round`) plus protocol counters. A disabled handle makes this identical
/// to [`secure_scan`].
pub fn secure_scan_traced_with<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
) -> Result<SecureScanOutput, CoreError> {
    run_scan(parties, None, cfg, |slots| {
        all_parties(parties, cfg, trace, None, slots)
    })
}

/// Runs **one party's** side of the secure scan over an externally
/// established transport — a [`dash_mpc::tcp::TcpTransport`] in a real
/// multi-process deployment, or any [`Transport`] in tests. This is the
/// per-process counterpart of [`secure_scan`], which runs every party on
/// threads of one process.
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
    T: Transport + 'static,
{
    let mut rows = no_rows(data.n_variants());
    let out = secure_scan_party_into(data, cfg, transport, &mut rows, None)?;
    rows.df = out.result.df;
    Ok(out.map(|_| rows))
}

/// [`secure_scan_party_with`] handing each block's rows to `sink` as its
/// round closes, so the party holds none of them; reports their summary.
///
/// With `checkpoints`, the protocol state is saved to
/// [`checkpoint::checkpoint_path`]`(dir, id)` after the y round and after
/// every block, once `sink` has made the rows before it durable; with a
/// loaded [`checkpoint::Checkpoint`] in `resume_from`, the run rejoins an
/// interrupted one at that boundary, `sink` cut back to the length it
/// recorded. Connect the transport first (when resuming, with
/// [`dash_mpc::tcp::TcpTransport::connect_resume`] and the checkpoint's
/// link cursors). Refused before any round, as [`CoreError::Checkpoint`]:
/// Beaver mode (share material must never touch disk), a transport
/// without durable link identity (TCP has it), and a sink that cannot
/// make its rows durable (an in-memory [`ScanResult`]).
pub fn secure_scan_party_into<S, T>(
    data: &S,
    cfg: &SecureScanConfig,
    transport: T,
    sink: &mut dyn RowSink,
    checkpoints: Option<&checkpoint::CheckpointPolicy>,
) -> Result<SecureScanOutput<ScanSummary>, CoreError>
where
    S: SummandSource,
    T: Transport + 'static,
{
    let id = transport.id();
    let p = transport.n_parties();
    run_scan(std::slice::from_ref(data), Some((id, p)), cfg, |slots| {
        let stats = Arc::clone(transport.stats());
        let audit = DisclosureLog::new();
        let mut ctx = cfg
            .net_options()
            .party_ctx(transport, cfg.seed, audit.clone());
        let mut feed = DealerFeed::take_from(slots, id);
        // A party that finished says so before it tears down; one that
        // failed says nothing, so supervised peers see a crash and hold the
        // link open for a `--resume`.
        let result =
            protocol::party_protocol_with(&mut ctx, data, cfg, &mut feed, checkpoints, Some(sink))
                .inspect(|_| ctx.endpoint().close());
        // Tear the socket mesh down before reporting so every reader
        // thread has exited and the counters are final.
        drop(ctx);
        let scan = result?;
        Ok((vec![(scan.summary, scan.digest)], stats, audit))
    })
}

/// [`secure_scan_traced_with`] over **real loopback TCP sockets**, one
/// [`dash_mpc::tcp::TcpTransport`] per party thread — the full socket
/// path (framing, handshake, reader threads) under one roof so tests and
/// the check.sh smoke can assert bit-identical results and accounting
/// against [`secure_scan`].
///
/// Unlike separate `dash party` processes, all parties share one
/// [`NetworkStats`] and one [`DisclosureLog`] here, exactly like the
/// in-process runner — so `network` and `disclosures` of the output are
/// directly comparable (equal, for a deterministic protocol) to the
/// mpsc run's.
pub fn secure_scan_tcp_local_traced<S: SummandSource>(
    parties: &[S],
    cfg: &SecureScanConfig,
    trace: TraceHandle,
) -> Result<SecureScanOutput, CoreError> {
    let tcp = TcpConfig {
        run_id: cfg.seed,
        ..TcpConfig::default()
    };
    run_scan(parties, None, cfg, |slots| {
        all_parties(parties, cfg, trace, Some(tcp), slots)
    })
}

/// `n` party threads over the in-process mesh with every slot
/// unwrapped: the panic-on-failure shape the `secure::` unit tests use.
#[cfg(test)]
pub(crate) fn run_parties_ok<T: Send>(
    n: usize,
    seed: u64,
    f: impl Fn(&mut PartyCtx) -> T + Sync,
) -> Vec<T> {
    let (slots, _, _) =
        Network::run_parties_detailed_with(n, seed, &NetOptions::default(), f).unwrap();
    slots.into_iter().map(Result::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parties-agree check: party 0's rows when every digest equals
    /// its own, else a structured error naming the first party that
    /// disagrees.
    #[test]
    fn agreed_rows_names_the_first_party_that_disagrees() {
        let scan = |digest, m| {
            let rows = ScanResult {
                beta: vec![f64::NAN; m],
                se: vec![f64::NAN; m],
                t: vec![f64::NAN; m],
                p: vec![f64::NAN; m],
                df: 3,
                n_degenerate: m,
            };
            (rows, digest)
        };
        let rows = agreed_rows(vec![scan(7, 2), scan(7, 0), scan(7, 0)]).unwrap();
        assert_eq!((rows.len(), rows.n_degenerate), (2, 2));
        for (digests, party, got) in [([7, 9, 7], 1, 9), ([7, 7, 8], 2, 8), ([7, 9, 8], 1, 9)] {
            let scans = digests.into_iter().map(|d| scan(d, 0)).collect();
            assert_eq!(
                agreed_rows(scans).unwrap_err(),
                CoreError::PartiesInconsistent {
                    what: "digest of the opened statistics",
                    party,
                    expected: 7,
                    got,
                }
            );
        }
        assert_eq!(
            agreed_rows(Vec::<(ScanResult, u64)>::new()).unwrap_err(),
            CoreError::NoParties
        );
    }

    /// `secure_scan`, the three §5 drivers and `secure_pca` all run their
    /// parties through `run_in_process`: a panic inside one party's
    /// closure must come back as that party's `PartyFailed`, and the
    /// survivors' structured errors must not take the process down.
    #[test]
    fn panicking_party_fails_the_run_with_party_failed() {
        let opts = NetOptions {
            transport: TransportConfig {
                deadline: Duration::from_millis(200),
            },
            ..NetOptions::default()
        };
        let run = run_in_process(&[(); 3], 1, &opts, |ctx, ()| -> Result<u64, CoreError> {
            if ctx.id() == 0 {
                panic!("boom in party 0");
            }
            Ok(ctx.recv_words(0, 50)?.len() as u64)
        });
        match run.map(|(results, _, _)| results) {
            Err(CoreError::Mpc(MpcError::PartyFailed { party: 0, reason })) => {
                assert!(reason.contains("boom"), "reason = {reason:?}");
            }
            other => panic!("expected PartyFailed, got {other:?}"),
        }
    }
}
