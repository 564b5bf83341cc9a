//! The workloads and the seeded generator that makes their inputs.

use crate::adapter::{self, PartyData};
use std::path::{Path, PathBuf};

/// Every workload has three parties.
pub const PARTIES: usize = 3;

/// One set of inputs: three parties of iid N(0,1) data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Samples per party.
    pub sizes: [usize; PARTIES],
    /// Variants.
    pub m: usize,
    /// Permanent covariates.
    pub k: usize,
    /// Variant block size of the secure pipeline (the CLI default).
    pub block_size: usize,
}

impl Workload {
    pub fn n_total(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Index and row range, within the pooled data, of the party with the
    /// most samples.
    pub fn largest_party(&self) -> (usize, std::ops::Range<usize>) {
        let (id, _) = self
            .sizes
            .iter()
            .enumerate()
            .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
            .expect("a workload has parties");
        let lo: usize = self.sizes[..id].iter().sum();
        (id, lo..lo + self.sizes[id])
    }
}

const RDEMO_WHY: &str = "the paper's section 4 shape: X is streamed once, so the scan kernel \
    is ~95% of every in-process metric and TSV load ~95% of the process metrics";
const WIDEK_WHY: &str = "K=16: 18 dot products per resident column, compute-bound kernel, QR \
    and 18-word-per-variant payloads; catches a kernel change that wins rdemo by hurting the K loop";
const THIN_WHY: &str = "N=96, M=131072: the kernel is a minority; finalize, encode, masks, 32 \
    block rounds, framing, sockets, 32 checkpoints and the M-row result TSV do most of the work";

/// The measured workloads.
pub const FULL: [Workload; 3] = [
    Workload {
        name: "rdemo",
        why: RDEMO_WHY,
        sizes: [1000, 2000, 1500],
        m: 10_000,
        k: 3,
        block_size: 4096,
    },
    Workload {
        name: "widek",
        why: WIDEK_WHY,
        sizes: [1500, 1500, 1500],
        m: 4096,
        k: 16,
        block_size: 4096,
    },
    Workload {
        name: "thin",
        why: THIN_WHY,
        sizes: [32, 32, 32],
        m: 131_072,
        k: 3,
        block_size: 4096,
    },
];

/// The same three shapes shrunk to run in seconds, with a block size that
/// still gives several block rounds and checkpoints.
pub const SMOKE: [Workload; 3] = [
    Workload {
        name: "rdemo",
        why: RDEMO_WHY,
        sizes: [40, 80, 60],
        m: 500,
        k: 3,
        block_size: 128,
    },
    Workload {
        name: "widek",
        why: WIDEK_WHY,
        sizes: [60, 60, 60],
        m: 256,
        k: 16,
        block_size: 128,
    },
    Workload {
        name: "thin",
        why: THIN_WHY,
        sizes: [8, 8, 8],
        m: 2048,
        k: 3,
        block_size: 128,
    },
];

/// xoshiro256++ seeded through splitmix64: the benchmark's own generator,
/// so the inputs depend on `--seed` and on nothing in the program.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `len` iid N(0,1) values by Box–Muller, as integer multiples of
    /// 10⁻¹⁵ (see [`Fixed15`]). |z| ≤ 8.6, so they fit 2⁵³ exactly.
    pub fn normals(&mut self, len: usize) -> Vec<Fixed15> {
        let mut out = Vec::with_capacity(len + 1);
        while out.len() < len {
            let r = (-2.0 * self.unit().ln()).sqrt();
            let (sin, cos) = (std::f64::consts::TAU * self.unit()).sin_cos();
            out.push(Fixed15((r * cos * 1e15).round() as i64));
            out.push(Fixed15((r * sin * 1e15).round() as i64));
        }
        out.truncate(len);
        out
    }
}

/// A generated value: an integer count of 10⁻¹⁵.
///
/// The inputs exist twice, in memory for the in-process scans and as TSV
/// for `dash party`, and both must hold the same `f64`s or the result
/// tables could not be compared byte for byte. Printing an `f64` with all
/// its digits costs more than generating it, so the generator fixes the
/// value on a decimal grid instead: the text is the integer with a point
/// inserted, and the `f64` is `i / 10¹⁵` — both operands are exact, so the
/// quotient is the correctly rounded value of that very decimal, which is
/// what parsing the text yields. Tokens are as long as a full-precision
/// `f64` (17–18 characters), so `dash party` parses what it would parse
/// of data written by `dash simulate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed15(i64);

impl Fixed15 {
    pub fn value(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// Appends `-d.ddddddddddddddd`.
    fn write(self, out: &mut Vec<u8>) {
        if self.0 < 0 {
            out.push(b'-');
        }
        let abs = self.0.unsigned_abs();
        out.push(b'0' + (abs / 1_000_000_000_000_000) as u8);
        out.push(b'.');
        let mut frac = abs % 1_000_000_000_000_000;
        let mut digits = [b'0'; 15];
        for d in digits.iter_mut().rev() {
            *d = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        out.extend_from_slice(&digits);
    }
}

/// Writes a column-major `rows × cols` matrix as the TSV `read_matrix_tsv`
/// reads: one row per line, tab-separated.
fn write_tsv(path: &Path, rows: usize, cols: usize, data: &[Fixed15]) -> Result<(), String> {
    use std::io::Write;
    let e = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut file = std::fs::File::create(path).map_err(e)?;
    let mut buf = Vec::with_capacity(1 << 21);
    for r in 0..rows {
        for c in 0..cols {
            if c > 0 {
                buf.push(b'\t');
            }
            data[c * rows + r].write(&mut buf);
        }
        buf.push(b'\n');
        if buf.len() >= 1 << 20 {
            file.write_all(&buf).map_err(e)?;
            buf.clear();
        }
    }
    file.write_all(&buf).map_err(e)
}

fn party_seed(w: &Workload, seed: u64, party: usize) -> u64 {
    // FNV-1a of the name keeps the workloads' streams apart.
    let name_hash = w.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ name_hash ^ ((party as u64 + 1) << 56)
}

/// Generates one party and, with `dir`, writes its `y.tsv`, `c.tsv` and
/// `x.tsv` there.
fn generate_party(
    w: &Workload,
    seed: u64,
    party: usize,
    dir: Option<&Path>,
) -> Result<PartyData, String> {
    let n = w.sizes[party];
    let mut rng = Rng::new(party_seed(w, seed, party));
    let y = rng.normals(n);
    let c = rng.normals(n * w.k);
    let x = rng.normals(n * w.m);
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        write_tsv(&dir.join("y.tsv"), n, 1, &y)?;
        write_tsv(&dir.join("c.tsv"), n, w.k, &c)?;
        write_tsv(&dir.join("x.tsv"), n, w.m, &x)?;
    }
    let values = |v: Vec<Fixed15>| v.into_iter().map(Fixed15::value).collect();
    adapter::party_data(n, values(y), values(x), values(c))
}

/// The inputs of one workload, in memory and as party TSV directories.
pub struct Dataset {
    pub parties: Vec<PartyData>,
    pub pooled: PartyData,
}

/// `dir/party<i>`: the directory `dash party --dir` reads.
pub fn party_dir(dir: &Path, party: usize) -> PathBuf {
    dir.join(format!("party{party}"))
}

/// Generates the workload from `seed`, writes each party's TSV directory
/// under `dir` and pools the rows. One thread per party.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<Dataset, String> {
    let parties: Vec<PartyData> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PARTIES)
            .map(|i| scope.spawn(move || generate_party(w, seed, i, Some(&party_dir(dir, i)))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect::<Result<_, _>>()
    })?;
    let pooled = adapter::pool(&parties)?;
    Ok(Dataset { parties, pooled })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = &SMOKE[0];
        let a = generate_party(w, 7, 1, None).unwrap();
        assert_eq!(a, generate_party(w, 7, 1, None).unwrap());
        assert_ne!(a, generate_party(w, 8, 1, None).unwrap());
        assert_ne!(
            a.y()[..40],
            generate_party(w, 7, 0, None).unwrap().y()[..40]
        );
        assert_ne!(a, generate_party(&SMOKE[1], 7, 1, None).unwrap());
    }

    #[test]
    fn text_and_value_are_the_same_number() {
        let mut all = Rng::new(3).normals(20_000);
        all.extend([0, 1, -1, 999_999_999_999_999, -8_600_000_000_000_001].map(Fixed15));
        for v in all {
            let mut text = Vec::new();
            v.write(&mut text);
            let text = String::from_utf8(text).unwrap();
            assert_eq!(text.len(), 17 + usize::from(v.0 < 0), "{text}");
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                v.value().to_bits(),
                "{text}"
            );
        }
    }

    #[test]
    fn written_directory_reads_back_as_the_party() {
        let dir = std::env::temp_dir().join(format!("dash-benchmark-tsv-{}", std::process::id()));
        let w = &SMOKE[2];
        let p = generate_party(w, 5, 0, Some(&dir)).unwrap();
        let x = adapter::read_matrix_tsv(&dir.join("x.tsv")).unwrap();
        let c = adapter::read_matrix_tsv(&dir.join("c.tsv")).unwrap();
        let y = adapter::read_matrix_tsv(&dir.join("y.tsv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((&x, &c, y.col(0)), (p.x(), p.c(), p.y()));
    }

    #[test]
    fn normals_have_unit_moments() {
        let v: Vec<f64> = Rng::new(1)
            .normals(200_001)
            .into_iter()
            .map(Fixed15::value)
            .collect();
        assert_eq!(v.len(), 200_001);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(
            mean.abs() < 0.01 && (var - 1.0).abs() < 0.02,
            "{mean} {var}"
        );
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn largest_party_rows() {
        assert_eq!(FULL[0].largest_party(), (1, 1000..3000));
        assert_eq!(FULL[1].largest_party(), (0, 0..1500));
    }

    #[test]
    fn shapes_are_the_issues() {
        assert_eq!(FULL.map(|w| w.n_total()), [4500, 4500, 96]);
        for w in FULL.iter().chain(&SMOKE) {
            assert!(crate::stats::valid_name(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
            assert!(w.m.div_ceil(w.block_size) >= 1);
        }
    }
}
