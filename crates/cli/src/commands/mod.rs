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

use crate::error::CliError;
use dash_core::model::PartyData;
use dash_core::secure::{AggregationMode, RFactorMode, SecureScanConfig, SecureScanOutput};
use dash_gwas::io::read_matrix_tsv;
use std::io::Write;
use std::path::Path;

/// Loads one dataset from a directory holding `y.tsv` (N×1), `x.tsv`
/// (N×M) and `c.tsv` (N×K).
pub(crate) fn load_party_dir(dir: &Path) -> Result<PartyData, CliError> {
    let y_mat = read_matrix_tsv(&dir.join("y.tsv"))?;
    if y_mat.cols() != 1 {
        return Err(CliError::Usage(format!(
            "{}/y.tsv must have exactly one column, found {}",
            dir.display(),
            y_mat.cols()
        )));
    }
    let y = y_mat.col(0).to_vec();
    let x = read_matrix_tsv(&dir.join("x.tsv"))?;
    let c = read_matrix_tsv(&dir.join("c.tsv"))?;
    Ok(PartyData::new(y, x, c)?)
}

/// Maps a `--mode` name to the matching security-ladder configuration
/// (shared by `secure-scan` and `party` so the two paths cannot drift).
pub(crate) fn mode_config(mode: &str, seed: u64) -> Result<SecureScanConfig, CliError> {
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

/// Prints the standard secure-scan report (traffic, transport counters,
/// blocked-pipeline summary, disclosure audit, top results). Shared by
/// `secure-scan` and `party` so their outputs stay line-compatible —
/// the multi-process smoke test parses both with the same patterns.
pub(crate) fn report_secure_output(
    out: &mut dyn Write,
    output: &SecureScanOutput,
    mode: &str,
    block_size: Option<usize>,
    threads: usize,
    audit: bool,
) -> Result<(), CliError> {
    writeln!(
        out,
        "secure scan over {} parties, {} variants (mode: {mode})",
        output.n_parties,
        output.result.len()
    )?;
    writeln!(
        out,
        "traffic: {} bytes total, {} bytes worst party, {} messages",
        output.network.total_bytes, output.network.max_party_bytes, output.network.total_messages
    )?;
    writeln!(
        out,
        "simulated network time: LAN {:.1} ms, WAN {:.1} ms",
        output.network.lan_seconds * 1e3,
        output.network.wan_seconds * 1e3
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
            block_size.unwrap_or(output.result.len()),
            block_total,
            block_total / output.per_block_bytes.len() as u64,
            threads,
        )?;
    }
    let per_party: usize = output
        .disclosures
        .iter()
        .filter(|d| d.source_party.is_some())
        .map(|d| d.scalars)
        .sum();
    writeln!(out, "per-party scalars disclosed: {per_party}")?;
    if audit {
        writeln!(out, "disclosure log:")?;
        for d in &output.disclosures {
            writeln!(out, "  {d}")?;
        }
    }
    Ok(())
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
        assert!(load_party_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
