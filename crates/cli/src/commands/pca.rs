//! `dash pca` — secure multi-party PCA over party directories.

use crate::args::Flags;
use crate::commands::load_all_parties;
use crate::error::CliError;
use dash_core::pca::{secure_pca, PcaConfig};
use dash_gwas::io::write_matrix_tsv;
use dash_linalg::Matrix;
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str = "\
dash pca — secure distributed PCA of the variant covariance

REQUIRED:
    --dir DIR            directory containing party0/, party1/, …

OPTIONS:
    --components R       leading components [default: 4]
    --iterations I       subspace iterations [default: 20]
    --seed S             protocol seed [default: 42]
    --update-covariates BOOL
                         append each party's private PC scores to its
                         c.tsv (ready for a structure-corrected
                         secure-scan) [default: false]

Writes loadings.tsv (M x R, aggregate-level) into DIR and scores.tsv
(N_k x R, private) into each party directory.";

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, USAGE)?;
    let dir = PathBuf::from(flags.required("dir", USAGE)?);
    let components = flags.parse_or("components", 4usize, "a positive integer")?;
    let iterations = flags.parse_or("iterations", 20usize, "a positive integer")?;
    let seed = flags.parse_or("seed", 42u64, "an integer seed")?;
    let update = flags.parse_or("update-covariates", false, "true or false")?;
    flags.reject_unknown(USAGE)?;

    let parties = load_all_parties(&dir)?;
    let cfg = PcaConfig {
        components,
        iterations,
        seed,
    };
    let pca = secure_pca(&parties, &cfg)?;
    writeln!(
        out,
        "secure PCA over {} parties: {} components in {} iterations, {} bytes",
        parties.len(),
        components,
        iterations,
        pca.network.total_bytes
    )?;
    write!(out, "eigenvalues:")?;
    for v in &pca.eigenvalues {
        write!(out, " {v:.2}")?;
    }
    writeln!(out)?;
    write_matrix_tsv(&dir.join("loadings.tsv"), &pca.loadings)?;
    writeln!(
        out,
        "loadings written to {}",
        dir.join("loadings.tsv").display()
    )?;
    for (i, (party, scores)) in parties.iter().zip(&pca.scores).enumerate() {
        let pdir = dir.join(format!("party{i}"));
        write_matrix_tsv(&pdir.join("scores.tsv"), scores)?;
        if update {
            // c.tsv <- [old C | scores]
            let mut cols: Vec<Vec<f64>> = Vec::new();
            for j in 0..party.c().cols() {
                cols.push(party.c().col(j).to_vec());
            }
            for j in 0..scores.cols() {
                cols.push(scores.col(j).to_vec());
            }
            let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
            write_matrix_tsv(&pdir.join("c.tsv"), &Matrix::from_cols(&refs)?)?;
        }
    }
    if update {
        writeln!(
            out,
            "per-party scores appended to each c.tsv — rerun `dash secure-scan` for the corrected analysis"
        )?;
    } else {
        writeln!(out, "per-party scores written to party*/scores.tsv")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn writes_loadings_and_scores() {
        let dir = tmp_dir("pca");
        write_party(&dir.join("party0"), &toy_party(40, 12, 1, 1));
        write_party(&dir.join("party1"), &toy_party(50, 12, 1, 2));
        let mut buf = Vec::new();
        run(
            &argv(&[
                "--dir",
                dir.to_str().unwrap(),
                "--components",
                "2",
                "--iterations",
                "10",
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("secure PCA over 2 parties"));
        let loadings = dash_gwas::io::read_matrix_tsv(&dir.join("loadings.tsv")).unwrap();
        assert_eq!(loadings.shape(), (12, 2));
        let s0 = dash_gwas::io::read_matrix_tsv(&dir.join("party0/scores.tsv")).unwrap();
        assert_eq!(s0.shape(), (40, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_covariates_appends_scores() {
        let dir = tmp_dir("pcaup");
        write_party(&dir.join("party0"), &toy_party(30, 8, 2, 3));
        write_party(&dir.join("party1"), &toy_party(35, 8, 2, 4));
        let mut buf = Vec::new();
        run(
            &argv(&[
                "--dir",
                dir.to_str().unwrap(),
                "--components",
                "1",
                "--update-covariates",
                "true",
            ]),
            &mut buf,
        )
        .unwrap();
        let c0 = dash_gwas::io::read_matrix_tsv(&dir.join("party0/c.tsv")).unwrap();
        assert_eq!(c0.shape(), (30, 3)); // 2 original + 1 PC
                                         // The updated directory still loads as a valid party set.
        let parties = crate::commands::load_all_parties(&dir).unwrap();
        assert_eq!(parties[0].n_covariates(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_component_count_propagates() {
        let dir = tmp_dir("pcabad");
        write_party(&dir.join("party0"), &toy_party(20, 4, 1, 5));
        let mut buf = Vec::new();
        assert!(run(
            &argv(&["--dir", dir.to_str().unwrap(), "--components", "9"]),
            &mut buf
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
