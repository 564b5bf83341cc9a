//! The `dash` command-line tool.
//!
//! File-based front end to the DASH suite: simulate multi-party GWAS
//! workloads, run plaintext / secure / meta analyses on TSV matrices, and
//! inspect results — without writing Rust.
//!
//! ```text
//! dash simulate    --out DIR --samples 500,600 [--variants 1000] [--causal 10] …
//! dash scan        --y y.tsv --x x.tsv --c c.tsv --out results.tsv
//! dash secure-scan --dir DIR [--mode default|max|public] --out results.tsv
//! dash party       --id K --peers HOST:PORT,… --dir DIR/partyK --out results.tsv
//! dash meta        --dir DIR --out results.tsv
//! dash top         --results results.tsv [--alpha 5e-8] [--limit 10]
//! dash trace check trace.json
//! ```
//!
//! The library surface ([`run`]) takes argv and a writer, so the whole
//! tool is unit-testable without spawning processes.

pub mod args;
pub mod commands;
pub mod error;

pub use error::CliError;

use std::io::Write;

/// Entry point: dispatches `argv[1..]` to a subcommand, writing human
/// output to `out`. Returns the process exit code.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "simulate" => commands::simulate::run(rest, out),
        "scan" => commands::scan::run(rest, out),
        "secure-scan" => commands::secure_scan::run(rest, out),
        "party" => commands::party::run(rest, out),
        "chaos" => commands::chaos::run(rest, out),
        "meta" => commands::meta::run(rest, out),
        "pca" => commands::pca::run(rest, out),
        "perm" => commands::perm::run(rest, out),
        "top" => commands::top::run(rest, out),
        "trace" => commands::trace::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
dash — secure multi-party linear regression (association scans)

USAGE:
    dash <COMMAND> [OPTIONS]

COMMANDS:
    simulate     Generate a synthetic multi-party GWAS workload as TSV files
    scan         Plaintext association scan on one dataset
    secure-scan  Secure multi-party scan across party directories
    party        Run ONE party of the secure scan over TCP (one process each)
    chaos        TCP fault-injection proxy for resilience testing
    meta         Inverse-variance meta-analysis of per-party scans
    pca          Secure distributed PCA (ancestry covariates)
    perm         Max-T permutation scan (empirical FWER control)
    top          Show the strongest associations from a results file
    trace        Validate a dash-trace/1 export (`dash trace check FILE`)
    help         Show this message

Run a command with no options to see its specific usage.";

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> (Result<(), CliError>, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let res = run(&argv, &mut buf);
        (res, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn no_command_is_usage_error() {
        let (res, _) = run_str(&[]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_rejected() {
        let (res, _) = run_str(&["frobnicate"]);
        let err = res.unwrap_err().to_string();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn help_prints_usage() {
        let (res, out) = run_str(&["help"]);
        assert!(res.is_ok());
        assert!(out.contains("secure-scan"));
    }
}
