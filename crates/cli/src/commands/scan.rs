//! `dash scan` — plaintext association scan on one dataset.

use crate::args::Flags;
use crate::commands::{load_party, load_party_dir};
use crate::error::CliError;
use dash_core::model::PartyData;
use dash_core::scan::associate_parallel;
use dash_gwas::io::write_scan_tsv;
use std::io::Write;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
dash scan — plaintext association scan

INPUT (either):
    --dir DIR              directory with y.tsv / x.tsv / c.tsv
    --y FILE --x FILE --c FILE   explicit paths

OPTIONS:
    --out FILE             write results TSV here [default: print summary only]
    --threads T            worker threads, >= 1 [default: 1]";

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, USAGE)?;
    let data = load_input(&flags)?;
    let out_path = flags.optional("out").map(PathBuf::from);
    let threads = flags.parse_or("threads", 1usize, "a positive integer")?;
    if threads == 0 {
        // `--threads 0` used to silently run the serial path; make the
        // bad value loud instead.
        return Err(CliError::BadValue {
            flag: "--threads".into(),
            value: "0".into(),
            expected: "a positive integer (use 1 for a serial scan)",
        });
    }
    flags.reject_unknown(USAGE)?;

    // `associate_parallel(_, 1)` runs the same kernel as `associate` on
    // one worker (bit-identical results), so every thread count takes the
    // same code path.
    let result = associate_parallel(&data, threads)?;
    writeln!(
        out,
        "scanned {} variants over {} samples (K = {}, df = {})",
        result.len(),
        data.n_samples(),
        data.n_covariates(),
        result.df
    )?;
    summarize(&result, out)?;
    if let Some(path) = out_path {
        write_scan_tsv(&path, &result)?;
        writeln!(out, "results written to {}", path.display())?;
    }
    Ok(())
}

/// Loads from `--dir` or from explicit `--y/--x/--c` paths.
pub(crate) fn load_input(flags: &Flags) -> Result<PartyData, CliError> {
    if let Some(dir) = flags.optional("dir") {
        return load_party_dir(Path::new(&dir));
    }
    let (Some(yp), Some(xp), Some(cp)) = (
        flags.optional("y"),
        flags.optional("x"),
        flags.optional("c"),
    ) else {
        return Err(CliError::Usage(format!(
            "provide --dir, or all of --y/--x/--c\n{USAGE}"
        )));
    };
    load_party(Path::new(&yp), Path::new(&xp), Path::new(&cp), "--y file")
}

/// Prints hit counts and the best association.
pub(crate) fn summarize(
    result: &dash_core::model::ScanResult,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let gw = result.hits(5e-8).len();
    let sugg = result.hits(1e-5).len();
    writeln!(out, "hits: {gw} at p<5e-8, {sugg} at p<1e-5")?;
    if let Some((best, bp)) = result
        .p
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_finite())
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
    {
        writeln!(
            out,
            "top association: variant {best} (beta = {:.4}, p = {:.3e})",
            result.beta[best], bp
        )?;
    }
    if result.n_degenerate > 0 {
        writeln!(
            out,
            "note: {} degenerate variants (NaN)",
            result.n_degenerate
        )?;
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
    fn scan_from_dir_and_write_results() {
        let dir = tmp_dir("scan");
        write_party(&dir, &toy_party(40, 6, 2, 1));
        let results = dir.join("res.tsv");
        let mut buf = Vec::new();
        run(
            &argv(&[
                "--dir",
                dir.to_str().unwrap(),
                "--out",
                results.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("scanned 6 variants over 40 samples"));
        assert!(results.is_file());
        let back = dash_gwas::io::read_scan_tsv(&results, 37).unwrap();
        assert_eq!(back.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_from_explicit_paths_with_threads() {
        let dir = tmp_dir("scan2");
        write_party(&dir, &toy_party(30, 4, 1, 2));
        let mut buf = Vec::new();
        run(
            &argv(&[
                "--y",
                dir.join("y.tsv").to_str().unwrap(),
                "--x",
                dir.join("x.tsv").to_str().unwrap(),
                "--c",
                dir.join("c.tsv").to_str().unwrap(),
                "--threads",
                "2",
            ]),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("top association"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_threads_rejected_loudly() {
        let dir = tmp_dir("scan0");
        write_party(&dir, &toy_party(20, 3, 1, 3));
        let mut buf = Vec::new();
        let err = run(
            &argv(&["--dir", dir.to_str().unwrap(), "--threads", "0"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::BadValue { flag, .. } if flag == "--threads"),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_thread_matches_serial_scan() {
        // `--threads 1` now routes through `associate_parallel`, which
        // must be bit-identical to the serial scan.
        let dir = tmp_dir("scan1");
        let party = toy_party(35, 5, 2, 4);
        write_party(&dir, &party);
        let mut buf = Vec::new();
        run(
            &argv(&["--dir", dir.to_str().unwrap(), "--threads", "1"]),
            &mut buf,
        )
        .unwrap();
        let serial = dash_core::scan::associate(&party).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(&format!("df = {}", serial.df)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_input_is_usage_error() {
        let mut buf = Vec::new();
        let err = run(&argv(&[]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("--dir"));
    }
}
