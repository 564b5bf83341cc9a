//! Crash-recovery checkpoints for the blocked secure scan.
//!
//! A checkpoint is everything one party needs to rejoin a run after a
//! `kill -9`: the deterministic protocol state at a block boundary
//! (PRG states, tag counter, the combined R factor, the y-round head),
//! the length of its result file with the rows of the blocks before it
//! durable, and their summary (not the rows), the per-link transport
//! cursors and replay backlog (so the reconnect handshake can reconcile
//! sequence numbers), the traffic counters, and the disclosure log — so a
//! resumed run's final TSV, NetworkStats, and disclosure multiset are
//! bit-identical to an uninterrupted run.
//!
//! The file format is deliberately dependency-free and versioned:
//!
//! ```text
//! magic    "DSHCKPT1"          8 bytes
//! version  u32 LE              4 bytes
//! length   u64 LE              payload byte count
//! payload  …                   length bytes (LE scalars, length-prefixed vecs)
//! checksum u64 LE              FNV-1a-64 over magic..payload
//! ```
//!
//! Writes are atomic: the file is written to `<path>.tmp`, fsynced,
//! renamed over `<path>`, and the directory fsynced — a crash mid-write
//! leaves either the previous complete checkpoint or none, never a torn
//! one; the result file was fsynced first. A torn or bit-flipped file
//! fails the checksum and surfaces as a structured
//! [`CoreError::Checkpoint`], not a garbage resume.

use crate::error::CoreError;
use crate::model::ScanSummary;
use dash_mpc::audit::Disclosure;
use dash_mpc::net::StatsSnapshot;
use dash_mpc::transport::{LinkSnapshot, Message};
use std::path::{Path, PathBuf};

/// File magic; changing the payload layout bumps [`VERSION`], not this.
const MAGIC: &[u8; 8] = b"DSHCKPT1";

/// Payload layout version: 3 holds the result file's length and the
/// rows' summary, 2 the rows, 1 four per-variant accumulators.
const VERSION: u32 = 3;

/// Hard cap on the payload a loader will allocate for (a corrupt length
/// field must not become an OOM).
const MAX_PAYLOAD: u64 = 1 << 32;

/// Identity of the run a checkpoint belongs to. Every field must match
/// on resume: a checkpoint from a different seed, party, shape, or mode
/// ladder would silently diverge, so mismatches are structured errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Protocol master seed (also the default run id).
    pub seed: u64,
    /// The party that wrote the checkpoint.
    pub party: u64,
    /// Total party count.
    pub n_parties: u64,
    /// Variant count M.
    pub m: u64,
    /// Covariate count K.
    pub k: u64,
    /// `RFactorMode` discriminant.
    pub rfactor: u8,
    /// `AggregationMode` discriminant.
    pub aggregation: u8,
    /// Ring codec fractional bits.
    pub ring_frac_bits: u32,
    /// Field codec fractional bits.
    pub field_frac_bits: u32,
    /// Blocked-pipeline block size.
    pub block_size: u64,
}

/// One party's complete crash-recovery state at a block boundary.
#[derive(Clone, PartialEq)]
pub struct Checkpoint {
    /// Which run this state belongs to.
    pub fingerprint: Fingerprint,
    /// Pooled sample count opened in round 0.
    pub n_total: u64,
    /// First block the resumed run still has to execute (0 = the
    /// checkpoint was written right after the y round).
    pub next_block: u32,
    /// Private RNG state.
    pub rng: [u64; 4],
    /// Pairwise PRG states in peer order (`None` at own slot).
    pub pair_prgs: Vec<Option<[u64; 4]>>,
    /// Lockstep protocol tag counter.
    pub tag_counter: u32,
    /// The combined K×K R factor, column-major (so the resumed party can
    /// recompute its private Q rows without re-running phase 1).
    pub r: Vec<f64>,
    /// Opened y·y aggregate from round 0.
    pub yy: f64,
    /// Opened Qᵀy aggregate from round 0.
    pub qty: Vec<f64>,
    /// The row sink's length once the rows of blocks `< next_block` were
    /// durable in it (the result TSV's byte length); a resume drops
    /// whatever follows it.
    pub sink_len: u64,
    /// The summary of those rows. `df` is not stored: it is
    /// `n_total − k − 1`.
    pub summary: ScanSummary,
    /// Disclosure log entries recorded so far (restored verbatim so the
    /// final multiset matches an uninterrupted run).
    pub disclosures: Vec<Disclosure>,
    /// Protocol traffic counters at the boundary.
    pub stats: StatsSnapshot,
    /// Per-link sequence cursors and replay backlog (`None` when the
    /// transport has no durable link identity, e.g. in-process).
    pub links: Option<LinkSnapshot>,
}

/// Prints every field but the PRG states, which determine every future
/// mask and triple share: `rng` and `pair_prgs` are redacted, as
/// `Prg`'s own `Debug` is.
impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Destructured, so a new field must be placed here to build.
        let Checkpoint {
            fingerprint,
            n_total,
            next_block,
            rng: _,
            pair_prgs,
            tag_counter,
            r,
            yy,
            qty,
            sink_len,
            summary,
            disclosures,
            stats,
            links,
        } = self;
        f.debug_struct("Checkpoint")
            .field("fingerprint", fingerprint)
            .field("n_total", n_total)
            .field("next_block", next_block)
            .field("rng", &format_args!("<state redacted>"))
            .field(
                "pair_prgs",
                &format_args!("<{} states redacted>", pair_prgs.iter().flatten().count()),
            )
            .field("tag_counter", tag_counter)
            .field("r", r)
            .field("yy", yy)
            .field("qty", qty)
            .field("sink_len", sink_len)
            .field("summary", summary)
            .field("disclosures", disclosures)
            .field("stats", stats)
            .field("links", links)
            .finish()
    }
}

/// How a party run participates in crash recovery.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPolicy {
    /// Directory the per-party checkpoint file lives in (created on
    /// first save if missing).
    pub dir: PathBuf,
    /// State loaded from a previous incarnation's checkpoint; `Some`
    /// resumes the protocol at that block boundary instead of starting
    /// from the count round.
    pub resume_from: Option<Box<Checkpoint>>,
    /// Test hook: `Some(b)` aborts the process (as `kill -9` would)
    /// immediately after the checkpoint recording block `b`'s completion
    /// is durable — the crash window the resume path must cover.
    pub crash_after_block: Option<u32>,
}

/// The checkpoint file for `party` inside `dir`.
pub fn checkpoint_path(dir: &Path, party: usize) -> PathBuf {
    dir.join(format!("party-{party}.ckpt"))
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit, continued from `h` over `data` — cheap, dependency-free
/// corruption check (not a MAC; the checkpoint dir is trusted local
/// state). `fnv1a64(FNV_BASIS, a ++ b) == fnv1a64(fnv1a64(FNV_BASIS, a), b)`.
fn fnv1a64(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corrupt(what: impl Into<String>) -> CoreError {
    CoreError::Checkpoint { what: what.into() }
}

// ---- payload encoding ----------------------------------------------------

/// Where encoded bytes go: `save` counts them, then hashes and writes them
/// as they come, so the file is never held whole in memory (the tests
/// collect them in a `Vec`).
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

/// A byte count: the payload's length, which the header states before it.
impl Sink for u64 {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len() as u64;
    }
}

/// The file: every byte is folded into the checksum and written; the
/// first write error is kept for `save` to report.
struct Hashed<W> {
    out: W,
    sum: u64,
    err: Option<std::io::Error>,
}

impl<W: std::io::Write> Sink for Hashed<W> {
    fn put(&mut self, bytes: &[u8]) {
        self.sum = fnv1a64(self.sum, bytes);
        if self.err.is_none() {
            self.err = self.out.write_all(bytes).err();
        }
    }
}

struct Enc<S> {
    sink: S,
}

impl<S: Sink> Enc<S> {
    fn u8(&mut self, v: u8) {
        self.sink.put(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.sink.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.sink.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.sink.put(v);
    }
    fn state4(&mut self, s: &[u64; 4]) {
        for &w in s {
            self.u64(w);
        }
    }
    /// The tag byte of an `Option` (0 or 1); the caller encodes what it
    /// holds.
    fn some<T>(&mut self, v: Option<T>) -> Option<T> {
        self.u8(u8::from(v.is_some()));
        v
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("payload truncated"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("payload truncated"))?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CoreError> {
        self.take(N)?
            .try_into()
            .map_err(|_| corrupt("payload truncated"))
    }
    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn usize(&mut self) -> Result<usize, CoreError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("count overflows usize"))
    }
    fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Length prefix for a sequence of `elem_bytes`-sized elements,
    /// bounds-checked against the remaining payload so corrupt lengths
    /// fail instead of allocating.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, CoreError> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes.max(1)) > self.buf.len().saturating_sub(self.pos) {
            return Err(corrupt("length field exceeds payload"));
        }
        Ok(n)
    }
    fn f64s(&mut self) -> Result<Vec<f64>, CoreError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn u64s(&mut self) -> Result<Vec<u64>, CoreError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }
    fn state4(&mut self) -> Result<[u64; 4], CoreError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }
    /// The tag byte of an `Option`: 0 for `None`, 1 for `Some`.
    fn some(&mut self, what: &str) -> Result<bool, CoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt(format!("bad {what} tag"))),
        }
    }
    fn finished(&self) -> Result<(), CoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after payload"))
        }
    }
}

/// Encodes the payload of `c` into `e`.
fn encode<S: Sink>(c: &Checkpoint, e: &mut Enc<S>) {
    let fp = &c.fingerprint;
    e.u64(fp.seed);
    e.u64(fp.party);
    e.u64(fp.n_parties);
    e.u64(fp.m);
    e.u64(fp.k);
    e.u8(fp.rfactor);
    e.u8(fp.aggregation);
    e.u32(fp.ring_frac_bits);
    e.u32(fp.field_frac_bits);
    e.u64(fp.block_size);
    e.u64(c.n_total);
    e.u32(c.next_block);
    e.state4(&c.rng);
    e.u64(c.pair_prgs.len() as u64);
    for p in &c.pair_prgs {
        if let Some(s) = e.some(p.as_ref()) {
            e.state4(s);
        }
    }
    e.u32(c.tag_counter);
    e.f64s(&c.r);
    e.f64(c.yy);
    e.f64s(&c.qty);
    e.u64(c.sink_len);
    let s = &c.summary;
    for n in [s.rows, s.genome_wide, s.suggestive, s.n_degenerate] {
        e.u64(n as u64);
    }
    if let Some((variant, beta, p)) = e.some(s.top) {
        e.u64(variant as u64);
        e.f64(beta);
        e.f64(p);
    }
    e.u64(c.disclosures.len() as u64);
    for d in &c.disclosures {
        if let Some(p) = e.some(d.source_party) {
            e.u64(p as u64);
        }
        e.bytes(d.label.as_bytes());
        e.u64(d.scalars as u64);
    }
    e.u64(c.stats.n as u64);
    e.u64s(&c.stats.bytes);
    e.u64s(&c.stats.msgs);
    e.u64s(&c.stats.timeouts);
    e.u64(c.stats.block_traffic.len() as u64);
    for &(block, bytes, msgs) in &c.stats.block_traffic {
        e.u32(block);
        e.u64(bytes);
        e.u64(msgs);
    }
    e.u64(c.stats.unscoped_bytes);
    if let Some(l) = e.some(c.links.as_ref()) {
        e.u64s(&l.send_next);
        e.u64s(&l.recv_next);
        e.u64(l.replay.len() as u64);
        for frames in &l.replay {
            e.u64(frames.len() as u64);
            for f in frames {
                e.u64(f.seq);
                e.u32(f.tag);
                e.bytes(&f.payload);
            }
        }
    }
}

fn decode(payload: &[u8]) -> Result<Checkpoint, CoreError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let fingerprint = Fingerprint {
        seed: d.u64()?,
        party: d.u64()?,
        n_parties: d.u64()?,
        m: d.u64()?,
        k: d.u64()?,
        rfactor: d.u8()?,
        aggregation: d.u8()?,
        ring_frac_bits: d.u32()?,
        field_frac_bits: d.u32()?,
        block_size: d.u64()?,
    };
    let n_total = d.u64()?;
    let next_block = d.u32()?;
    let rng = d.state4()?;
    let n_prgs = d.len(1)?;
    let mut pair_prgs = Vec::with_capacity(n_prgs);
    for _ in 0..n_prgs {
        pair_prgs.push(d.some("PRG slot")?.then(|| d.state4()).transpose()?);
    }
    let tag_counter = d.u32()?;
    let r = d.f64s()?;
    let yy = d.f64()?;
    let qty = d.f64s()?;
    let sink_len = d.u64()?;
    let [rows, genome_wide, suggestive, n_degenerate] =
        [d.usize()?, d.usize()?, d.usize()?, d.usize()?];
    let summary = ScanSummary {
        rows,
        df: usize::try_from(n_total.saturating_sub(fingerprint.k.saturating_add(1)))
            .map_err(|_| corrupt("degrees of freedom overflow usize"))?,
        genome_wide,
        suggestive,
        top: d
            .some("top row")?
            .then(|| Ok::<_, CoreError>((d.usize()?, d.f64()?, d.f64()?)))
            .transpose()?,
        n_degenerate,
    };
    let n_disc = d.len(1)?;
    let mut disclosures = Vec::with_capacity(n_disc);
    for _ in 0..n_disc {
        let source_party = d
            .some("disclosure source")?
            .then(|| d.usize())
            .transpose()?;
        let label =
            String::from_utf8(d.bytes()?).map_err(|_| corrupt("disclosure label is not UTF-8"))?;
        disclosures.push(Disclosure {
            source_party,
            label,
            scalars: d.usize()?,
        });
    }
    let stats = StatsSnapshot {
        n: d.usize()?,
        bytes: d.u64s()?,
        msgs: d.u64s()?,
        timeouts: d.u64s()?,
        block_traffic: {
            let n = d.len(20)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((d.u32()?, d.u64()?, d.u64()?));
            }
            v
        },
        unscoped_bytes: d.u64()?,
    };
    let links = if d.some("link snapshot")? {
        let send_next = d.u64s()?;
        let recv_next = d.u64s()?;
        let n_links = d.len(8)?;
        let mut replay = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let n_frames = d.len(20)?;
            let mut frames = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                frames.push(Message {
                    seq: d.u64()?,
                    tag: d.u32()?,
                    payload: d.bytes()?,
                });
            }
            replay.push(frames);
        }
        Some(LinkSnapshot {
            send_next,
            recv_next,
            replay,
        })
    } else {
        None
    };
    d.finished()?;
    Ok(Checkpoint {
        fingerprint,
        n_total,
        next_block,
        rng,
        pair_prgs,
        tag_counter,
        r,
        yy,
        qty,
        sink_len,
        summary,
        disclosures,
        stats,
        links,
    })
}

// ---- file I/O ------------------------------------------------------------

/// Atomically writes `c` to `path`: tmp file, fsync, rename, dir fsync.
/// The payload is encoded twice, once to count its bytes for the header
/// and once into the file through a small buffer, with the checksum
/// folded over the bytes as they are written.
pub fn save(path: &Path, c: &Checkpoint) -> Result<(), CoreError> {
    let mut len = Enc { sink: 0u64 };
    encode(c, &mut len);

    let tmp = path.with_extension("ckpt.tmp");
    let io_err =
        |stage: &str, e: std::io::Error| corrupt(format!("{stage} {}: {e}", path.display()));
    {
        use std::io::Write;
        let f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        let mut e = Enc {
            sink: Hashed {
                out: std::io::BufWriter::new(f),
                sum: FNV_BASIS,
                err: None,
            },
        };
        e.sink.put(MAGIC);
        e.u32(VERSION);
        e.u64(len.sink);
        encode(c, &mut e);
        let Hashed { mut out, sum, err } = e.sink;
        let written = match err {
            Some(err) => Err(err),
            None => out.write_all(&sum.to_le_bytes()).and_then(|()| out.flush()),
        };
        written.map_err(|e| io_err("write", e))?;
        out.get_ref().sync_all().map_err(|e| io_err("fsync", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; best-effort on filesystems that
        // reject directory fsync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads and validates a checkpoint file.
pub fn load(path: &Path) -> Result<Checkpoint, CoreError> {
    let raw = std::fs::read(path).map_err(|e| corrupt(format!("read {}: {e}", path.display())))?;
    let body_len = raw
        .len()
        .checked_sub(8)
        .ok_or_else(|| corrupt("file too short"))?;
    let (body, sum) = raw.split_at(body_len);
    let mut d = Dec { buf: sum, pos: 0 };
    if fnv1a64(FNV_BASIS, body) != d.u64()? {
        return Err(corrupt("checksum mismatch (torn or corrupt file)"));
    }
    let mut d = Dec { buf: body, pos: 0 };
    if d.array::<8>().map_err(|_| corrupt("file too short"))? != *MAGIC {
        return Err(corrupt("bad magic (not a checkpoint file)"));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        )));
    }
    let len = d.u64()?;
    let payload = body.get(d.pos..).unwrap_or_default();
    if len > MAX_PAYLOAD || len != payload.len() as u64 {
        return Err(corrupt("payload length field disagrees with file size"));
    }
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(party: u64) -> Checkpoint {
        Checkpoint {
            fingerprint: Fingerprint {
                seed: 99,
                party,
                n_parties: 3,
                m: 6,
                k: 2,
                rfactor: 0,
                aggregation: 2,
                ring_frac_bits: 28,
                field_frac_bits: 26,
                block_size: 2,
            },
            n_total: 45,
            next_block: 2,
            rng: [1, 2, 3, 4],
            pair_prgs: vec![Some([5, 6, 7, 8]), None, Some([9, 10, 11, 12])],
            tag_counter: 1017,
            r: vec![1.5, -0.25, 0.0, 2.75],
            yy: 12.5,
            qty: vec![0.5, -1.5],
            // Blocks 0 and 1 of two variants; variant 2 is degenerate.
            sink_len: 151,
            summary: ScanSummary {
                rows: 4,
                df: 42,
                genome_wide: 0,
                suggestive: 1,
                top: Some((3, 3.0, 4.6e-6)),
                n_degenerate: 1,
            },
            disclosures: vec![
                Disclosure {
                    source_party: None,
                    label: "total sample count N".into(),
                    scalars: 1,
                },
                Disclosure {
                    source_party: Some(1),
                    label: "party 1 R factor".into(),
                    scalars: 3,
                },
            ],
            stats: StatsSnapshot {
                n: 3,
                bytes: vec![0, 10, 20, 30, 0, 40, 50, 60, 0],
                msgs: vec![0, 1, 2, 3, 0, 4, 5, 6, 0],
                timeouts: vec![0, 0, 0],
                block_traffic: vec![(0, 100, 4), (1, 100, 4)],
                unscoped_bytes: 77,
            },
            links: Some(LinkSnapshot {
                send_next: vec![0, 3, 1],
                recv_next: vec![0, 2, 2],
                replay: vec![
                    vec![],
                    vec![Message {
                        seq: 2,
                        tag: 1017,
                        payload: vec![1, 2, 3, 4, 5, 6, 7, 8],
                    }],
                    vec![],
                ],
            }),
        }
    }

    impl Sink for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }
    }

    fn payload(c: &Checkpoint) -> Vec<u8> {
        let mut e = Enc { sink: Vec::new() };
        encode(c, &mut e);
        e.sink
    }

    /// The file `save` wrote when it built it whole in memory, under
    /// `version`: the oracle for the bytes a streamed save puts on disk.
    fn file_bytes(c: &Checkpoint, version: u32) -> Vec<u8> {
        framed(&payload(c), version)
    }

    /// Equality down to the bits, and of the `df` no byte stores.
    fn assert_same(got: &Checkpoint, want: &Checkpoint) {
        assert_eq!(payload(got), payload(want));
        assert_eq!(got.summary.df, want.summary.df);
    }

    /// `{:?}` and `{:#?}` of a checkpoint print none of its PRG state
    /// words, in decimal or hex, and say that they are redacted.
    #[test]
    fn debug_prints_no_prg_state_word() {
        const WORDS: [u64; 4] = [
            0xDEAD_BEEF_1234_5678,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
            0x7FFF_0000_FFFF_0001,
        ];
        let mut c = sample(1);
        c.rng = WORDS;
        c.pair_prgs = vec![
            Some([WORDS[3], WORDS[2], WORDS[1], WORDS[0]]),
            None,
            Some(WORDS),
        ];
        for text in [format!("{c:?}"), format!("{c:#?}")] {
            for w in WORDS {
                for r in [w.to_string(), format!("{w:x}"), format!("{w:X}")] {
                    assert!(!text.contains(&r), "{text:?} holds {r}");
                }
            }
            assert!(text.contains("<state redacted>"), "{text}");
            assert!(text.contains("<2 states redacted>"), "{text}");
            assert!(text.contains("tag_counter"), "{text}");
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("dash_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 1);
        let c = sample(1);
        save(&path, &c).unwrap();
        let back = load(&path).unwrap();
        assert_same(&back, &c);
        // `df` is recomputed from the sample and covariate counts.
        assert_eq!(back, c);
        assert_eq!(back.summary.df, 45 - 2 - 1);
        // Overwrite is atomic and keeps the newest state.
        let mut c2 = c.clone();
        c2.next_block = 3;
        save(&path, &c2).unwrap();
        assert_eq!(load(&path).unwrap().next_block, 3);
        // No tmp residue after a successful save.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_streamed_save_writes_the_bytes_of_the_file_built_whole() {
        let dir = std::env::temp_dir().join(format!("dash_ckpt_bytes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 0);
        // The fixture, and one whose backlog spans many write buffers.
        let mut big = sample(0);
        if let Some(links) = &mut big.links {
            links.replay[1] = (0..64u64)
                .map(|seq| Message {
                    seq,
                    tag: 7,
                    payload: vec![seq as u8; 1000 + seq as usize],
                })
                .collect();
        }
        let mut bare = sample(0);
        bare.links = None;
        for c in [sample(0), big, bare] {
            save(&path, &c).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), file_bytes(&c, VERSION));
            assert_same(&load(&path).unwrap(), &c);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn links_none_roundtrips() {
        let mut c = sample(0);
        c.links = None;
        let back = decode(&payload(&c)).unwrap();
        assert_same(&back, &c);
    }

    /// A version-1 file (four per-variant accumulators) or version-2 file
    /// (result rows) is refused by its version, not misread.
    #[test]
    fn versions_one_and_two_are_refused_by_name() {
        let dir = std::env::temp_dir().join(format!("dash_ckpt_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 0);
        for version in [1, 2] {
            std::fs::write(&path, file_bytes(&sample(0), version)).unwrap();
            match load(&path) {
                Err(CoreError::Checkpoint { what }) => assert!(
                    what.contains(&format!("unsupported checkpoint version {version}")),
                    "{what}"
                ),
                other => panic!("version {version} loaded: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!("dash_ckpt_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 0);
        save(&path, &sample(0)).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one payload bit.
        raw[40] ^= 1;
        std::fs::write(&path, &raw).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation is also caught.
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert!(load(&path).is_err());
        // Wrong magic.
        std::fs::write(&path, b"NOTACKPT").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_payload_and_bad_tags_fail_structurally() {
        let c = sample(2);
        let full = payload(&c);
        // Every strict prefix of the payload must fail decode, never
        // panic or succeed.
        for cut in [0, 1, 8, 40, full.len() / 2, full.len() - 1] {
            assert!(
                decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A corrupt huge length field must not allocate.
        let mut evil = full.clone();
        // The first vec length in the payload sits after the fixed
        // fingerprint block; stamp it with u64::MAX and expect a
        // structured failure.
        let fixed = 8 * 5 + 1 + 1 + 4 + 4 + 8 + 8 + 4 + 32;
        evil[fixed..fixed + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&evil).is_err());
    }

    /// The one outcome any payload may have: a structured error, or a
    /// checkpoint whose encoding is that payload byte for byte (so a
    /// decoder that accepted two spellings of one state fails too).
    fn decoded_or_refused(bytes: &[u8], how: &str) -> Result<(), String> {
        match decode(bytes) {
            Err(CoreError::Checkpoint { .. }) => Ok(()),
            Err(e) => Err(format!("{how}: unstructured error {e}")),
            Ok(c) if payload(&c) == bytes => Ok(()),
            Ok(_) => Err(format!("{how}: decoded, but re-encodes to other bytes")),
        }
    }

    /// `bytes` framed as a file: a valid header and a checksum recomputed
    /// around them, so `load` reaches the payload decoder.
    fn framed(bytes: &[u8], version: u32) -> Vec<u8> {
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&version.to_le_bytes());
        file.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        file.extend_from_slice(bytes);
        let sum = fnv1a64(FNV_BASIS, &file);
        file.extend_from_slice(&sum.to_le_bytes());
        file
    }

    /// A valid payload with one seeded edit: bytes overwritten, a
    /// little-endian word set to a small value (where a length or a tag
    /// may sit), a cut, an insertion, or a span repeated.
    fn mutated(seed: u64) -> Vec<u8> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = sample(rng.gen_range(0..3u64));
        if rng.gen_bool(0.25) {
            c.links = None;
        }
        let mut bytes = payload(&c);
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..5u8) {
            0 => {
                for _ in 0..rng.gen_range(1..5u8) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = rng.gen_range(0..=u8::MAX);
                }
            }
            1 => {
                let word = rng.gen_range(0..70u64).to_le_bytes();
                let end = (at + 8).min(bytes.len());
                bytes[at..end].copy_from_slice(&word[..end - at]);
            }
            2 => bytes.truncate(at),
            3 => {
                let extra: Vec<u8> = (0..rng.gen_range(1..25))
                    .map(|_| rng.gen_range(0..=u8::MAX))
                    .collect();
                bytes.splice(at..at, extra);
            }
            _ => {
                let end = (at + rng.gen_range(1..49usize)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, and valid payloads with one edit, decode to a
        /// checkpoint that re-encodes to them or fail structurally —
        /// through `decode`, and through `load` with a valid frame.
        #[test]
        fn any_payload_decodes_canonically_or_fails_structurally(
            raw in proptest::collection::vec(0u8..=255, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let edited = mutated(seed);
            for (bytes, how) in [(&raw, "random bytes"), (&edited, "edited payload")] {
                decoded_or_refused(bytes, how).map_err(proptest::test_runner::TestCaseError::Fail)?;
            }
            let dir = std::env::temp_dir().join(format!("dash_ckpt_fuzz_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = checkpoint_path(&dir, 0);
            for bytes in [&raw, &edited] {
                std::fs::write(&path, framed(bytes, VERSION)).unwrap();
                let (loaded, decoded) = (load(&path), decode(bytes));
                proptest::prop_assert_eq!(loaded.is_ok(), decoded.is_ok());
                if let (Ok(l), Ok(d)) = (loaded, decoded) {
                    proptest::prop_assert_eq!(payload(&l), payload(&d));
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
