//! `dash trace check` as a process: exit 0 on a valid trace, 1 on an
//! invalid one (with one `trace invalid:` line per problem), 2 when it
//! cannot check (here, a missing file).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_obs::TraceHandle;
use std::path::Path;
use std::process::{Command, Output};

const DASH: &str = env!("CARGO_BIN_EXE_dash");

fn check(path: &Path) -> Output {
    Command::new(DASH)
        .args(["trace", "check"])
        .arg(path)
        .output()
        .unwrap()
}

#[test]
fn valid_invalid_and_missing_traces_exit_0_1_and_2() {
    let dir = std::env::temp_dir().join(format!("dash_trace_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A real export: one 28-byte frame from party 0 to party 1, one span.
    let trace = TraceHandle::enabled(2);
    trace.on_message(0, 1, 28);
    drop(trace.span(0, "scan"));
    let valid = trace.export_json();
    let ok = dir.join("valid.json");
    std::fs::write(&ok, &valid).unwrap();
    let out = check(&ok);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "trace ok: 2 parties, 28 bytes, 1 spans\n"
    );

    // The same trace with party 1 receiving a byte fewer than was sent.
    let broken = valid.replacen("\"bytes_received\": 28", "\"bytes_received\": 27", 1);
    assert_ne!(broken, valid);
    let bad = dir.join("unbalanced.json");
    std::fs::write(&bad, broken).unwrap();
    let out = check(&bad);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "trace invalid: byte conservation violated: 28 sent vs 27 received\n"
    );

    let out = check(&dir.join("missing.json"));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot read"));

    std::fs::remove_dir_all(&dir).unwrap();
}
