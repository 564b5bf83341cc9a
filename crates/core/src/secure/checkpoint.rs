//! Crash-recovery checkpoints for the blocked secure scan.
//!
//! A checkpoint is everything one party needs to rejoin a run after a
//! `kill -9`: the deterministic protocol state at a block boundary
//! (PRG states, tag counter, the combined R factor, the y-round head),
//! the finished result rows of every block before it (a block's rows are
//! final when its round closes, so nothing else of a block survives it),
//! the per-link transport cursors and replay backlog (so the reconnect
//! handshake can reconcile sequence numbers), the traffic counters, and
//! the disclosure log — so a resumed run's final TSV, NetworkStats, and
//! disclosure multiset are bit-identical to an uninterrupted run.
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
//! one. A torn or bit-flipped file fails the checksum and surfaces as a
//! structured [`CoreError::Checkpoint`], not a garbage resume.

use crate::error::CoreError;
use crate::model::ScanResult;
use dash_mpc::audit::Disclosure;
use dash_mpc::net::StatsSnapshot;
use dash_mpc::transport::{LinkSnapshot, Message};
use std::path::{Path, PathBuf};

/// File magic; changing the payload layout bumps [`VERSION`], not this.
const MAGIC: &[u8; 8] = b"DSHCKPT1";

/// Payload layout version: 2 holds finished result rows where 1 held
/// four per-variant accumulators.
const VERSION: u32 = 2;

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
#[derive(Debug, Clone, PartialEq)]
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
    /// The finished rows (β̂, σ̂, t, p and the degenerate count) of blocks
    /// `< next_block`, in variant order; the blocks after them run on
    /// resume. `df` is not stored: it is `n_total − k − 1`.
    pub rows: ScanResult,
    /// Disclosure log entries recorded so far (restored verbatim so the
    /// final multiset matches an uninterrupted run).
    pub disclosures: Vec<Disclosure>,
    /// Protocol traffic counters at the boundary.
    pub stats: StatsSnapshot,
    /// Per-link sequence cursors and replay backlog (`None` when the
    /// transport has no durable link identity, e.g. in-process).
    pub links: Option<LinkSnapshot>,
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

/// FNV-1a 64-bit over `data` — cheap, dependency-free corruption check
/// (not a MAC; the checkpoint dir is trusted local state).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
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

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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
        self.buf.extend_from_slice(v);
    }
    fn state4(&mut self, s: &[u64; 4]) {
        for &w in s {
            self.u64(w);
        }
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
    fn u32(&mut self) -> Result<u32, CoreError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }
    fn u64(&mut self) -> Result<u64, CoreError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Length prefix for a sequence of `elem_bytes`-sized elements,
    /// bounds-checked against the remaining payload so corrupt lengths
    /// fail instead of allocating.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, CoreError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| corrupt("length overflows usize"))?;
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
    fn finished(&self) -> Result<(), CoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after payload"))
        }
    }
}

fn encode(c: &Checkpoint) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
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
        match p {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                e.state4(s);
            }
        }
    }
    e.u32(c.tag_counter);
    e.f64s(&c.r);
    e.f64(c.yy);
    e.f64s(&c.qty);
    for v in [&c.rows.beta, &c.rows.se, &c.rows.t, &c.rows.p] {
        e.f64s(v);
    }
    e.u64(c.rows.n_degenerate as u64);
    e.u64(c.disclosures.len() as u64);
    for d in &c.disclosures {
        match d.source_party {
            None => e.u8(0),
            Some(p) => {
                e.u8(1);
                e.u64(p as u64);
            }
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
    match &c.links {
        None => e.u8(0),
        Some(l) => {
            e.u8(1);
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
    e.buf
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
        pair_prgs.push(match d.u8()? {
            0 => None,
            1 => Some(d.state4()?),
            _ => return Err(corrupt("bad PRG slot tag")),
        });
    }
    let tag_counter = d.u32()?;
    let r = d.f64s()?;
    let yy = d.f64()?;
    let qty = d.f64s()?;
    let rows = ScanResult {
        beta: d.f64s()?,
        se: d.f64s()?,
        t: d.f64s()?,
        p: d.f64s()?,
        df: usize::try_from(n_total.saturating_sub(fingerprint.k.saturating_add(1)))
            .map_err(|_| corrupt("degrees of freedom overflow usize"))?,
        n_degenerate: usize::try_from(d.u64()?)
            .map_err(|_| corrupt("degenerate count overflows usize"))?,
    };
    let n_disc = d.len(1)?;
    let mut disclosures = Vec::with_capacity(n_disc);
    for _ in 0..n_disc {
        let source_party = match d.u8()? {
            0 => None,
            1 => Some(usize::try_from(d.u64()?).map_err(|_| corrupt("disclosure party overflow"))?),
            _ => return Err(corrupt("bad disclosure source tag")),
        };
        let label =
            String::from_utf8(d.bytes()?).map_err(|_| corrupt("disclosure label is not UTF-8"))?;
        let scalars =
            usize::try_from(d.u64()?).map_err(|_| corrupt("disclosure scalars overflow"))?;
        disclosures.push(Disclosure {
            source_party,
            label,
            scalars,
        });
    }
    let stats = StatsSnapshot {
        n: usize::try_from(d.u64()?).map_err(|_| corrupt("stats party count overflow"))?,
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
    let links = match d.u8()? {
        0 => None,
        1 => {
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
        }
        _ => return Err(corrupt("bad link snapshot tag")),
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
        rows,
        disclosures,
        stats,
        links,
    })
}

// ---- file I/O ------------------------------------------------------------

/// Atomically writes `c` to `path`: tmp file, fsync, rename, dir fsync.
pub fn save(path: &Path, c: &Checkpoint) -> Result<(), CoreError> {
    let payload = encode(c);
    let mut file = Vec::with_capacity(payload.len() + 28);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&payload);
    let sum = fnv1a64(&file);
    file.extend_from_slice(&sum.to_le_bytes());

    let tmp = path.with_extension("ckpt.tmp");
    let io_err =
        |stage: &str, e: std::io::Error| corrupt(format!("{stage} {}: {e}", path.display()));
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        f.write_all(&file).map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("fsync", e))?;
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
    let (body, sum_bytes) = raw.split_at(body_len);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(sum_bytes);
    if fnv1a64(body) != u64::from_le_bytes(sum) {
        return Err(corrupt("checksum mismatch (torn or corrupt file)"));
    }
    if body.len() < 20 {
        return Err(corrupt("file too short"));
    }
    let (magic, rest) = body.split_at(8);
    if magic != MAGIC {
        return Err(corrupt("bad magic (not a checkpoint file)"));
    }
    let (ver_bytes, rest) = rest.split_at(4);
    let mut v = [0u8; 4];
    v.copy_from_slice(ver_bytes);
    let version = u32::from_le_bytes(v);
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        )));
    }
    let (len_bytes, payload) = rest.split_at(8);
    let mut l = [0u8; 8];
    l.copy_from_slice(len_bytes);
    let len = u64::from_le_bytes(l);
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
            rows: ScanResult {
                beta: vec![0.25, -1.5, f64::NAN, 3.0],
                se: vec![0.5, 0.75, f64::NAN, 1.0],
                t: vec![0.5, -2.0, f64::NAN, 3.0],
                p: vec![0.62, 0.052, f64::NAN, 0.0046],
                df: 42,
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

    /// Equality down to the bits: the NaN rows of degenerate variants
    /// included, which `==` on f64 never calls equal.
    fn assert_same(got: &Checkpoint, want: &Checkpoint) {
        assert_eq!(encode(got), encode(want));
        assert_eq!(got.rows.df, want.rows.df);
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
        // The partial rows come back with their NaN row in place and `df`
        // recomputed from the sample and covariate counts.
        assert_eq!(back.rows.len(), 4);
        assert!(back.rows.p[2].is_nan() && !back.rows.p[3].is_nan());
        assert_eq!((back.rows.df, back.rows.n_degenerate), (45 - 2 - 1, 1));
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
    fn links_none_roundtrips() {
        let mut c = sample(0);
        c.links = None;
        let back = decode(&encode(&c)).unwrap();
        assert_same(&back, &c);
    }

    /// A version-1 file (four per-variant accumulators where version 2
    /// has result rows) is refused by its version, not misread.
    #[test]
    fn version_one_is_refused_by_name() {
        let dir = std::env::temp_dir().join(format!("dash_ckpt_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 0);
        let payload = encode(&sample(0));
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        let sum = fnv1a64(&file);
        file.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        let err = load(&path).unwrap_err();
        assert!(
            err.to_string().contains("unsupported checkpoint version 1"),
            "{err}"
        );
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
        let full = encode(&c);
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
}
