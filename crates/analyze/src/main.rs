//! `dash-analyze` CLI: the workspace invariants gate.
//!
//! ```text
//! dash-analyze [--root <dir>]
//! dash-analyze --validate-trace <trace.json>
//! ```
//!
//! Exits 0 when the analysis reports no finding, 1 when the gate fails, 2
//! on usage or I/O errors. `--validate-trace` skips the workspace scan and
//! instead checks one `dash-trace/1` JSON export (as written by
//! `dash secure-scan --trace-out`) for schema and conservation-invariant
//! violations.

use dash_analyze::analyze_workspace;
use dash_analyze::report::render_text;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: dash-analyze [--root <dir>]\n\
     \x20      dash-analyze --validate-trace <trace.json>"
        .to_string()
}

/// `--validate-trace` mode: checks one trace export and exits.
fn validate_trace_file(path: &str) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dash-analyze: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match dash_analyze::trace_check::validate_trace(&src) {
        Ok(s) => {
            println!(
                "trace ok: {} parties, {} bytes, {} spans",
                s.n_parties, s.total_bytes, s.n_spans
            );
            ExitCode::SUCCESS
        }
        Err(errs) => {
            for e in &errs {
                eprintln!("trace invalid: {e}");
            }
            ExitCode::from(1)
        }
    }
}

/// The workspace root to analyze: `--root`, else found from the cwd.
fn parse_args() -> Result<PathBuf, String> {
    let mut root: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return Err(format!("--root needs a value\n{}", usage())),
            },
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    match root {
        Some(r) => Ok(r),
        None => find_root(),
    }
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor holding both `Cargo.toml` and `crates/`).
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("could not find the workspace root (Cargo.toml + crates/); \
                        pass --root"
                .to_string());
        }
    }
}

fn main() -> ExitCode {
    // Trace validation is a self-contained mode with its own exit paths.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = raw.iter().position(|a| a == "--validate-trace") {
        return match raw.get(i + 1) {
            Some(path) if raw.len() == 2 => validate_trace_file(path),
            _ => {
                eprintln!(
                    "--validate-trace takes exactly one file argument\n{}",
                    usage()
                );
                ExitCode::from(2)
            }
        };
    }
    let root = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "dash-analyze: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    print!("{}", render_text(&report));
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
