//! The only file of the benchmark that calls into the repository.
//!
//! Everything else in `benchmark/` sees the program through the items
//! exported here, so an API change in `crates/*` is absorbed in one place
//! and a reviewer can read in one file exactly which public functions each
//! metric times. The wrappers add no work of their own: they build the
//! same configuration `dash party` / `dash secure-scan` build and forward
//! the call.

use dash_core::secure::checkpoint;
use dash_core::secure::{
    secure_scan_party_with, secure_scan_tcp_local_traced, secure_scan_traced_with,
    SecureScanConfig, SecureScanOutput,
};
use dash_core::suffstats::{orthonormal_basis, SuffStats, VariantSummands};
use dash_mpc::audit::DisclosureLog;
use dash_mpc::net::{NetOptions, Network, NetworkStats};
use dash_mpc::protocol::masked::masked_sum_f64;
use dash_mpc::tcp::{LinkSupervision, TcpConfig, TcpTransport};
use dash_mpc::transport::TransportConfig;
use dash_mpc::{FixedPointCodec, TrustedDealer};
use dash_stats::StudentT;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use dash_core::model::{PartyData, ScanResult};
pub use dash_core::secure::checkpoint::Checkpoint;
pub use dash_linalg::Matrix;
pub use dash_mpc::prg::Prg;
pub use dash_mpc::ring::R64;
pub use dash_mpc::PartyCtx;
pub use dash_obs::TraceHandle;

/// Errors of the program, flattened to text: the benchmark only counts
/// and prints them.
pub type Error = String;

fn err(e: impl std::fmt::Display) -> Error {
    e.to_string()
}

/// Protocol seed every workload runs under (`dash party`'s default).
pub const PROTOCOL_SEED: u64 = 42;

// ---- data -----------------------------------------------------------------

/// One party's rows from column-major buffers.
pub fn party_data(n: usize, y: Vec<f64>, x: Vec<f64>, c: Vec<f64>) -> Result<PartyData, Error> {
    let m = x.len() / n.max(1);
    let k = c.len() / n.max(1);
    let x = Matrix::from_column_major(n, m, x).map_err(err)?;
    let c = Matrix::from_column_major(n, k, c).map_err(err)?;
    PartyData::new(y, x, c).map_err(err)
}

/// Stacks the parties' rows: the dataset the plaintext scan runs on.
pub fn pool(parties: &[PartyData]) -> Result<PartyData, Error> {
    dash_core::pool_parties(parties).map_err(err)
}

// ---- end-to-end scans -----------------------------------------------------

/// `associate(pooled)`.
pub fn plain_scan(pooled: &PartyData) -> Result<ScanResult, Error> {
    dash_core::associate(pooled).map_err(err)
}

/// `associate_parallel(pooled, threads)`.
pub fn parallel_scan(pooled: &PartyData, threads: usize) -> Result<ScanResult, Error> {
    dash_core::associate_parallel(pooled, threads).map_err(err)
}

/// The two rungs of the security ladder the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `PublicStack` / `MaskedPrg`: the CLI's `--mode default`.
    Default,
    /// `GramAggregate` / `BeaverDots`: the CLI's `--mode max`.
    Max,
}

fn config(mode: Mode, block_size: usize) -> SecureScanConfig {
    let base = match mode {
        Mode::Default => SecureScanConfig::paper_default(PROTOCOL_SEED),
        Mode::Max => SecureScanConfig::max_security(PROTOCOL_SEED),
    };
    SecureScanConfig {
        block_size: Some(block_size),
        threads: 1,
        ..base
    }
}

/// What the benchmark keeps of one secure run.
#[derive(Debug, Clone)]
pub struct SecureRun {
    pub result: ScanResult,
    pub bytes_total: u64,
    pub messages_total: u64,
    pub block_rounds: u64,
    pub scalars_disclosed: u64,
    /// Send retries plus receive timeouts; any is a failed operation.
    pub retries_timeouts: u64,
}

impl SecureRun {
    fn from_outputs(outs: Vec<SecureScanOutput>) -> Result<SecureRun, Error> {
        let mut it = outs.into_iter();
        let first = it.next().ok_or("no party output")?;
        let mut run = SecureRun {
            bytes_total: first.network.total_bytes,
            messages_total: first.network.total_messages,
            block_rounds: first.per_block_bytes.len() as u64,
            scalars_disclosed: first.disclosures.iter().map(|d| d.scalars as u64).sum(),
            retries_timeouts: first.network.total_retries + first.network.total_timeouts,
            result: first.result,
        };
        // Per-process views count own outbound traffic and own disclosures
        // only, so the run's totals are the sums over parties.
        for o in it {
            run.bytes_total += o.network.total_bytes;
            run.messages_total += o.network.total_messages;
            run.scalars_disclosed += o.disclosures.iter().map(|d| d.scalars as u64).sum::<u64>();
            run.retries_timeouts += o.network.total_retries + o.network.total_timeouts;
            if !same_bits(&o.result, &run.result) {
                return Err("parties derived different results".into());
            }
        }
        Ok(run)
    }
}

/// In-process scan over the mpsc transport (`secure_scan_with`); `trace`
/// is `TraceHandle::disabled()` for every end-to-end number.
pub fn secure_scan(
    parties: &[PartyData],
    mode: Mode,
    block_size: usize,
    trace: TraceHandle,
) -> Result<SecureRun, Error> {
    let out = secure_scan_traced_with(parties, &config(mode, block_size), trace).map_err(err)?;
    SecureRun::from_outputs(vec![out])
}

/// `secure_scan_tcp_local`: loopback sockets without link supervision.
pub fn tcp_scan_unsupervised(
    parties: &[PartyData],
    block_size: usize,
    trace: TraceHandle,
) -> Result<SecureRun, Error> {
    let out = secure_scan_tcp_local_traced(parties, &config(Mode::Default, block_size), trace)
        .map_err(err)?;
    SecureRun::from_outputs(vec![out])
}

/// The `TcpConfig` `dash party` builds from its default flags.
fn party_tcp_config() -> TcpConfig {
    TcpConfig {
        run_id: PROTOCOL_SEED,
        supervision: Some(LinkSupervision::default()),
        ..TcpConfig::default()
    }
}

/// Binds one loopback listener per party on OS-assigned ports.
fn bind_loopback(p: usize) -> Result<(Vec<TcpListener>, Vec<std::net::SocketAddr>), Error> {
    let listeners: Vec<TcpListener> = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(err))
        .collect::<Result<_, _>>()?;
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().map_err(err))
        .collect::<Result<_, _>>()?;
    Ok((listeners, addrs))
}

/// Runs `f(id, transport)` on one thread per party, each over a loopback
/// `TcpTransport` connected the way `dash party` connects (supervision
/// on). Each party also reports how long its `connect` took, measured
/// from the common bind.
fn tcp_mesh<T: Send>(
    p: usize,
    trace: &TraceHandle,
    f: impl Fn(usize, TcpTransport) -> Result<T, Error> + Sync,
) -> Result<Vec<(f64, T)>, Error> {
    let (listeners, addrs) = bind_loopback(p)?;
    let bound = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let (addrs, f) = (&addrs, &f);
                scope.spawn(move || {
                    let stats = Arc::new(NetworkStats::with_trace(p, trace.clone()));
                    let tcp = TcpTransport::connect(i, listener, addrs, party_tcp_config(), stats)
                        .map_err(err)?;
                    let connect_s = bound.elapsed().as_secs_f64();
                    Ok((connect_s, f(i, tcp)?))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("party thread panicked".into()))
            })
            .collect()
    })
}

/// Three party threads, each doing what one `dash party` process does
/// after loading: `TcpTransport::connect` (supervision on) and then
/// `secure_scan_party_with`. The caller times bind to last return.
pub fn tcp_scan_supervised(
    parties: &[PartyData],
    block_size: usize,
    trace: TraceHandle,
) -> Result<SecureRun, Error> {
    let cfg = config(Mode::Default, block_size);
    let outs = tcp_mesh(parties.len(), &trace, |i, tcp| {
        secure_scan_party_with(&parties[i], &cfg, tcp).map_err(err)
    })?;
    SecureRun::from_outputs(outs.into_iter().map(|(_, out)| out).collect())
}

/// `ScanResult::max_rel_diff`; infinite when the shapes differ.
pub fn rel_diff(a: &ScanResult, b: &ScanResult) -> f64 {
    a.max_rel_diff(b).unwrap_or(f64::INFINITY)
}

/// Bit-for-bit equality (NaN-safe, unlike `==`).
pub fn same_bits(a: &ScanResult, b: &ScanResult) -> bool {
    let eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    };
    a.df == b.df && eq(&a.beta, &b.beta) && eq(&a.se, &b.se) && eq(&a.t, &b.t) && eq(&a.p, &b.p)
}

// ---- io -------------------------------------------------------------------

/// `write_scan_tsv`: the M-row result table every `dash party` writes.
pub fn write_scan_tsv(path: &Path, res: &ScanResult) -> Result<(), Error> {
    dash_gwas::io::write_scan_tsv(path, res).map_err(err)
}

/// `read_matrix_tsv`: what `dash party` spends its load phase in.
pub fn read_matrix_tsv(path: &Path) -> Result<Matrix, Error> {
    dash_gwas::io::read_matrix_tsv(path).map_err(err)
}

// ---- linalg / suffstats / stats -------------------------------------------

/// `orthonormal_basis(C)`: thin QR.
pub fn qr(c: &Matrix) -> Result<Matrix, Error> {
    orthonormal_basis(c).map_err(err)
}

/// Rows `[lo, hi)` of a matrix (a party's slice of the pooled `Q`).
pub fn row_block(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    m.row_block(lo, hi)
}

/// `SuffStats::local`: the plaintext scan kernel.
pub fn suffstats_local(y: &[f64], x: &Matrix, q: &Matrix) -> Result<SuffStats, Error> {
    SuffStats::local(y, x, q).map_err(err)
}

/// `SummandSource::y_summands` of dense data: `(y·y, Qᵀy)`.
pub fn y_summands(y: &[f64], q: &Matrix) -> Result<(f64, Vec<f64>), Error> {
    Ok((
        dash_linalg::self_dot(y),
        dash_linalg::gemv_t(q, y).map_err(err)?,
    ))
}

/// `VariantSummands::local`: the blocked secure scan's kernel. Returns the
/// block flattened (`xy ‖ xx ‖ QᵀX`) into the (K+2)·len words one block
/// round aggregates.
pub fn suffstats_block(
    y: &[f64],
    x: &Matrix,
    q: &Matrix,
    lo: usize,
    hi: usize,
) -> Result<Vec<f64>, Error> {
    let v = VariantSummands::local(y, x, q, lo, hi).map_err(err)?;
    let mut flat = v.xy;
    flat.extend_from_slice(&v.xx);
    flat.extend_from_slice(v.qtx.as_slice());
    Ok(flat)
}

/// `SuffStats::reduce` then `ScanStats::finalize`.
pub fn finalize(s: &SuffStats, n: usize, k: usize) -> Result<ScanResult, Error> {
    s.reduce().finalize(n, k).map_err(err)
}

/// A `StudentT` with `df` degrees of freedom, for `two_sided_p`.
pub fn student_t(df: usize) -> Result<StudentT, Error> {
    StudentT::new(df as f64).map_err(err)
}

// ---- fixed / prg / dealer -------------------------------------------------

/// The ring and field codecs of the default configuration.
pub fn codecs() -> Result<(FixedPointCodec, FixedPointCodec), Error> {
    let cfg = SecureScanConfig::default();
    Ok((
        FixedPointCodec::new(cfg.ring_frac_bits).map_err(err)?,
        FixedPointCodec::new(cfg.field_frac_bits).map_err(err)?,
    ))
}

/// `encode_ring_vec`.
pub fn encode_ring(codec: &FixedPointCodec, xs: &[f64]) -> Result<Vec<R64>, Error> {
    codec.encode_ring_vec(xs).map_err(err)
}

/// `decode_ring_vec`.
pub fn decode_ring(codec: &FixedPointCodec, vs: &[R64]) -> Vec<f64> {
    codec.decode_ring_vec(vs)
}

/// `encode_field_vec`; returns the word count so the work is observable.
pub fn encode_field(codec: &FixedPointCodec, xs: &[f64]) -> Result<usize, Error> {
    Ok(codec.encode_field_vec(xs).map_err(err)?.len())
}

/// `mask_ring_vec` applied onto `target`, as `masked_sum_ring` does per peer.
pub fn mask_into(prg: &mut Prg, target: &mut [R64]) -> Result<(), Error> {
    prg.mask_ring_vec(target.len())
        .pad_into(target, true)
        .map_err(err)
}

/// `TrustedDealer::deal_inners(k, 2m+1)` for three parties: the Beaver
/// mode's offline phase. Returns how many bundles were dealt.
pub fn deal_inners(k: usize, m: usize) -> Result<usize, Error> {
    let mut dealer = TrustedDealer::new(3, PROTOCOL_SEED).map_err(err)?;
    Ok(dealer.deal_inners(k, 2 * m + 1).len())
}

// ---- party runners (masked_sum / net / tcp layers) ------------------------

/// Runs `f` on `p` party threads over the in-process mpsc transport.
pub fn mpsc_parties<T: Send>(
    p: usize,
    f: impl Fn(&mut PartyCtx) -> Result<T, Error> + Sync,
) -> Result<Vec<T>, Error> {
    let (results, _stats, _audit) =
        Network::run_parties_detailed_with(p, PROTOCOL_SEED, &NetOptions::default(), f)
            .map_err(err)?;
    results
        .into_iter()
        .map(|r| r.map_err(err).and_then(|inner| inner))
        .collect()
}

/// Runs `f` on `p` party threads over supervised loopback `TcpTransport`s
/// (the `dash party` configuration); with each result, the seconds the
/// party's `connect` took.
pub fn tcp_parties<T: Send>(
    p: usize,
    f: impl Fn(&mut PartyCtx) -> Result<T, Error> + Sync,
) -> Result<Vec<(f64, T)>, Error> {
    tcp_mesh(p, &TraceHandle::disabled(), |_, tcp| {
        f(&mut PartyCtx::with_transport(
            Box::new(tcp),
            TransportConfig::default(),
            PROTOCOL_SEED,
            DisclosureLog::new(),
        ))
    })
}

/// One `masked_sum_f64` round on `values`.
pub fn masked_sum_round(
    ctx: &mut PartyCtx,
    codec: &FixedPointCodec,
    values: &[f64],
) -> Result<Vec<f64>, Error> {
    masked_sum_f64(ctx, codec, values, "benchmark block").map_err(err)
}

/// `Transport::send_words` on the party's raw transport.
pub fn send_words(ctx: &PartyCtx, to: usize, tag: u32, words: &[u64]) -> Result<(), Error> {
    ctx.endpoint().send_words(to, tag, words).map_err(err)
}

/// `Transport::recv_words` on the party's raw transport.
pub fn recv_words(ctx: &PartyCtx, from: usize, tag: u32) -> Result<Vec<u64>, Error> {
    ctx.endpoint().recv_words(from, tag).map_err(err)
}

// ---- obs ------------------------------------------------------------------

/// Total seconds per span name over all parties of a traced run, divided
/// by the party count: the mean time one party spent under that name.
pub fn span_seconds(trace: &TraceHandle, name: &str) -> f64 {
    let total_ns: u64 = trace
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns())
        .sum();
    total_ns as f64 * 1e-9 / trace.n_parties().max(1) as f64
}

// ---- checkpoint -----------------------------------------------------------

/// The checkpoint file party `id` leaves in `dir`.
pub fn checkpoint_path(dir: &Path, id: usize) -> std::path::PathBuf {
    checkpoint::checkpoint_path(dir, id)
}

/// `checkpoint::load`.
pub fn checkpoint_load(path: &Path) -> Result<Checkpoint, Error> {
    checkpoint::load(path).map_err(err)
}

/// `checkpoint::save`: tmp file, fsync, rename, directory fsync.
pub fn checkpoint_save(path: &Path, c: &Checkpoint) -> Result<(), Error> {
    checkpoint::save(path, c).map_err(err)
}

/// Blocks the run had completed when it wrote `c`.
pub fn checkpoint_blocks(c: &Checkpoint) -> u64 {
    u64::from(c.next_block)
}
