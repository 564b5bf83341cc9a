//! `dash trace check` — validate a `dash-trace/1` export.

use crate::error::CliError;
use dash_obs::trace_check::validate_trace;
use std::io::Write;

const USAGE: &str = "\
dash trace check — validate a dash-trace/1 JSON export (written by
`--trace-out`): schema, counter conservation, span monotonicity

USAGE:
    dash trace check FILE

Exits 0 when the trace is valid, 1 when it is not (one `trace invalid:`
line per problem on stderr), 2 on a bad invocation or an unreadable file.";

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [sub, path] = args else {
        return Err(CliError::CannotCheck(USAGE.to_string()));
    };
    if sub != "check" {
        return Err(CliError::CannotCheck(format!(
            "unknown trace command {sub:?}\n{USAGE}"
        )));
    }
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::CannotCheck(format!("cannot read {path}: {e}")))?;
    let s = validate_trace(&src).map_err(CliError::TraceInvalid)?;
    writeln!(
        out,
        "trace ok: {} parties, {} bytes, {} spans",
        s.n_parties, s.total_bytes, s.n_spans
    )?;
    Ok(())
}
