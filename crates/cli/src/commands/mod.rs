//! Subcommand implementations.

pub mod chaos;
pub mod meta;
pub mod party;
pub mod pca;
pub mod perm;
pub mod scan;
pub mod secure_scan;
pub mod simulate;
pub mod top;
pub mod trace;

use crate::args::Flags;
use crate::error::CliError;
use dash_core::model::PartyData;
use dash_core::secure::{
    AggregationMode, RFactorMode, SecureScanConfig, SecureScanOutput, TraceHandle,
};
use dash_core::ScanSummary;
use dash_gwas::io::{read_matrix_tsv, StreamedParty};
use dash_linalg::Matrix;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Loads one dataset from `y` (N×1), `x` (N×M) and `c` (N×K) TSV files;
/// `y_name` is how the caller's usage text names the first. The two small
/// files are read first, so a bad `y` or `c` fails before X is parsed.
pub(crate) fn load_party(
    y: &Path,
    x: &Path,
    c: &Path,
    y_name: &str,
) -> Result<PartyData, CliError> {
    let (y, c) = load_y_c(y, c, y_name)?;
    let x = read_matrix_tsv(x)?;
    Ok(PartyData::new(y, x, c)?)
}

/// Reads the response `y` (one column) and the covariates `c`.
fn load_y_c(y: &Path, c: &Path, y_name: &str) -> Result<(Vec<f64>, Matrix), CliError> {
    let y = read_matrix_tsv(y)?;
    if y.cols() != 1 {
        return Err(CliError::Usage(format!(
            "{y_name} must have exactly one column, found {}",
            y.cols()
        )));
    }
    Ok((y.col(0).to_vec(), read_matrix_tsv(c)?))
}

/// [`load_party`] on a directory holding `y.tsv`, `x.tsv` and `c.tsv`.
pub(crate) fn load_party_dir(dir: &Path) -> Result<PartyData, CliError> {
    let y = dir.join("y.tsv");
    load_party(
        &y,
        &dir.join("x.tsv"),
        &dir.join("c.tsv"),
        &y.display().to_string(),
    )
}

/// A party directory with `y.tsv` and `c.tsv` read and `x.tsv` opened to
/// be read a block at a time: only its first row is read here.
pub(crate) fn open_party_dir(dir: &Path) -> Result<StreamedParty, CliError> {
    let y = dir.join("y.tsv");
    let (y_col, c) = load_y_c(&y, &dir.join("c.tsv"), &y.display().to_string())?;
    let x = std::fs::File::open(dir.join("x.tsv"))?;
    Ok(StreamedParty::open(y_col, c, x)?)
}

/// Maps a `--mode` name to the matching security-ladder configuration.
fn mode_config(mode: &str, seed: u64) -> Result<SecureScanConfig, CliError> {
    match mode {
        "public" => Ok(SecureScanConfig {
            rfactor: RFactorMode::PublicStack,
            aggregation: AggregationMode::Public,
            seed,
            ..SecureScanConfig::default()
        }),
        "default" => Ok(SecureScanConfig::paper_default(seed)),
        "star" => Ok(SecureScanConfig {
            aggregation: AggregationMode::MaskedStar,
            seed,
            ..SecureScanConfig::default()
        }),
        "tree" => Ok(SecureScanConfig {
            rfactor: RFactorMode::PairwiseTree,
            aggregation: AggregationMode::MaskedPrg,
            seed,
            ..SecureScanConfig::default()
        }),
        "max" => Ok(SecureScanConfig::max_security(seed)),
        other => Err(CliError::BadValue {
            flag: "--mode".into(),
            value: other.into(),
            expected: "one of public|default|star|tree|max",
        }),
    }
}

/// The flags `secure-scan` and `party` share — `--mode --out --seed
/// --audit --trace-out --metrics --deadline-ms --block-size` —
/// parsed once, with one set of defaults and error texts, plus the
/// report both commands end with, so the two paths cannot drift (the
/// multi-process smoke test parses both outputs with the same patterns).
pub(crate) struct ScanFlags {
    mode: String,
    /// Protocol seed (also the default TCP run id).
    pub seed: u64,
    out_path: Option<PathBuf>,
    audit: bool,
    trace_out: Option<PathBuf>,
    metrics: bool,
    deadline_ms: u64,
    block_size: Option<usize>,
    threads: usize,
}

impl ScanFlags {
    /// Consumes the shared flags from `flags`.
    pub(crate) fn parse(flags: &Flags) -> Result<Self, CliError> {
        let mode = flags.optional("mode").unwrap_or_else(|| "default".into());
        let out_path = flags.optional("out").map(PathBuf::from);
        let seed = flags.parse_or("seed", 42u64, "an integer seed")?;
        let audit = flags.parse_or("audit", true, "true or false")?;
        let trace_out = flags.optional("trace-out").map(PathBuf::from);
        let metrics = flags.parse_or("metrics", false, "true or false")?;
        let deadline_ms = flags.parse_or("deadline-ms", 60_000u64, "milliseconds")?;
        let block_size = match flags.optional("block-size") {
            None => Some(4096),
            Some(raw) if raw == "off" => None,
            Some(raw) => match raw.parse::<usize>() {
                Ok(b) if b >= 1 => Some(b),
                _ => {
                    return Err(CliError::BadValue {
                        flag: "--block-size".into(),
                        value: raw,
                        expected: "a positive block size, or 'off' for one block of all variants",
                    })
                }
            },
        };
        Ok(ScanFlags {
            mode,
            seed,
            out_path,
            audit,
            trace_out,
            metrics,
            deadline_ms,
            block_size,
            threads: 1,
        })
    }

    /// Consumes `--threads`, which only `secure-scan` takes: a `dash
    /// party` computes every summand in one pass over its `x.tsv`.
    pub(crate) fn with_threads(self, flags: &Flags) -> Result<Self, CliError> {
        let threads = flags.parse_or("threads", 1usize, "a positive integer")?;
        if threads == 0 {
            return Err(CliError::BadValue {
                flag: "--threads".into(),
                value: "0".into(),
                expected: "a positive integer (use 1 for serial block compute)",
            });
        }
        Ok(ScanFlags { threads, ..self })
    }

    /// The scan configuration these flags describe (a bad `--mode` is
    /// reported here).
    pub(crate) fn config(&self) -> Result<SecureScanConfig, CliError> {
        Ok(SecureScanConfig {
            deadline_ms: self.deadline_ms,
            block_size: self.block_size,
            threads: self.threads,
            ..mode_config(&self.mode, self.seed)?
        })
    }

    /// Where `--out` asks for the results TSV.
    pub(crate) fn out_path(&self) -> Option<&Path> {
        self.out_path.as_deref()
    }

    /// The run's trace sink: enabled iff `--trace-out` or `--metrics`
    /// asked for it.
    pub(crate) fn trace(&self, n_parties: usize) -> TraceHandle {
        if self.trace_out.is_some() || self.metrics {
            TraceHandle::enabled(n_parties)
        } else {
            TraceHandle::disabled()
        }
    }

    /// Everything both commands print and write after a run whose results
    /// TSV is already written: the traffic, transport and blocked-pipeline
    /// lines, the disclosure audit (aggregates first, then each party's in
    /// its own protocol order, so the text does not depend on which party
    /// thread recorded first), the metrics table, the summary and the
    /// trace.
    pub(crate) fn report(
        &self,
        out: &mut dyn Write,
        output: &SecureScanOutput<ScanSummary>,
        trace: &TraceHandle,
    ) -> Result<(), CliError> {
        writeln!(
            out,
            "secure scan over {} parties, {} variants (mode: {})",
            output.n_parties, output.result.rows, self.mode
        )?;
        writeln!(
            out,
            "traffic: {} bytes total, {} bytes worst party, {} messages",
            output.network.total_bytes,
            output.network.max_party_bytes,
            output.network.total_messages
        )?;
        writeln!(
            out,
            "transport: {} send retries, {} receive timeouts",
            output.network.total_retries, output.network.total_timeouts
        )?;
        if !output.per_block_bytes.is_empty() {
            let block_total: u64 = output.per_block_bytes.iter().sum();
            writeln!(
                out,
                "blocked pipeline: {} blocks of <= {} variants, {} bytes in block rounds ({} bytes/block avg), {} threads",
                output.per_block_bytes.len(),
                self.block_size.unwrap_or(output.result.rows),
                block_total,
                block_total / output.per_block_bytes.len() as u64,
                self.threads,
            )?;
        }
        let per_party: usize = output
            .disclosures
            .iter()
            .filter(|d| d.source_party.is_some())
            .map(|d| d.scalars)
            .sum();
        writeln!(out, "per-party scalars disclosed: {per_party}")?;
        if self.audit {
            writeln!(out, "disclosure log:")?;
            let mut log: Vec<_> = output.disclosures.iter().collect();
            log.sort_by_key(|d| d.source_party);
            for d in log {
                writeln!(out, "  {d}")?;
            }
        }
        if self.metrics {
            out.write_all(trace.summary().as_bytes())?;
        }
        scan::summarize(&output.result, out)?;
        if let Some(path) = &self.out_path {
            writeln!(out, "results written to {}", path.display())?;
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, trace.export_json()).map_err(CliError::Io)?;
            writeln!(
                out,
                "trace written to {} ({} spans)",
                path.display(),
                trace.spans().len()
            )?;
        }
        Ok(())
    }
}

/// Loads `party0/ party1/ …` subdirectories of `dir`, in order.
pub(crate) fn load_all_parties(dir: &Path) -> Result<Vec<PartyData>, CliError> {
    let mut parties = Vec::new();
    loop {
        let pdir = dir.join(format!("party{}", parties.len()));
        if !pdir.is_dir() {
            break;
        }
        parties.push(load_party_dir(&pdir)?);
    }
    if parties.is_empty() {
        return Err(CliError::Usage(format!(
            "no party0/ subdirectory found under {}",
            dir.display()
        )));
    }
    Ok(parties)
}

#[cfg(test)]
pub(crate) mod test_support {
    use dash_core::model::PartyData;
    use dash_gwas::io::write_matrix_tsv;
    use dash_linalg::Matrix;
    use std::path::PathBuf;

    /// Unique temp directory for one test.
    pub fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dash_cli_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a party's data as y/x/c TSVs into `dir`.
    pub fn write_party(dir: &std::path::Path, p: &PartyData) {
        std::fs::create_dir_all(dir).unwrap();
        let y = Matrix::from_cols(&[p.y()]).unwrap();
        write_matrix_tsv(&dir.join("y.tsv"), &y).unwrap();
        write_matrix_tsv(&dir.join("x.tsv"), p.x()).unwrap();
        write_matrix_tsv(&dir.join("c.tsv"), p.c()).unwrap();
    }

    /// A small deterministic dataset.
    pub fn toy_party(n: usize, m: usize, k: usize, seed: u64) -> PartyData {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        PartyData::new(
            dash_gwas::pheno::normal_vec(n, &mut rng),
            dash_gwas::pheno::normal_matrix(n, m, &mut rng),
            dash_gwas::pheno::normal_matrix(n, k, &mut rng),
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn load_roundtrip() {
        let dir = tmp_dir("load");
        let p = toy_party(12, 3, 2, 1);
        write_party(&dir.join("party0"), &p);
        write_party(&dir.join("party1"), &toy_party(8, 3, 2, 2));
        let loaded = load_all_parties(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], p);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_parties_rejected() {
        let dir = tmp_dir("empty");
        assert!(load_all_parties(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wide_y_rejected() {
        let dir = tmp_dir("widey");
        let p = toy_party(5, 2, 1, 3);
        write_party(&dir, &p);
        // Overwrite y with two columns.
        let bad = dash_linalg::Matrix::zeros(5, 2);
        dash_gwas::io::write_matrix_tsv(&dir.join("y.tsv"), &bad).unwrap();
        let (y, x, c) = (dir.join("y.tsv"), dir.join("x.tsv"), dir.join("c.tsv"));
        // Each caller's text names y its own way.
        let err = load_party_dir(&dir).unwrap_err().to_string();
        assert_eq!(
            err,
            format!(
                "{}/y.tsv must have exactly one column, found 2",
                dir.display()
            )
        );
        let err = load_party(&y, &x, &c, "--y file").unwrap_err().to_string();
        assert_eq!(err, "--y file must have exactly one column, found 2");
        // The small files are read before x: a bad y or c is reported
        // although x is worse.
        std::fs::write(&x, "not\ta\tmatrix\n").unwrap();
        assert!(matches!(
            load_party_dir(&dir),
            Err(CliError::Usage(text)) if text.contains("y.tsv")
        ));
        write_party(&dir, &p);
        std::fs::write(&x, "not\ta\tmatrix\n").unwrap();
        std::fs::write(&c, "1\n2\nthree\n4\n5\n").unwrap();
        assert!(matches!(
            load_party_dir(&dir),
            Err(CliError::Gwas(dash_gwas::GwasError::Parse { line: 3, .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
