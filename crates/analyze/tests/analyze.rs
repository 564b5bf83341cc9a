//! Integration tests: the analyzer must (a) detect every seeded violation
//! in its fixture corpus, through the library and through the binary,
//! and (b) pass cleanly over the real workspace.

use dash_analyze::{analyze_source, analyze_workspace, Finding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Runs the secure-scope lints over a fixture as if it lived in the
/// secure scope.
fn run_fixture(name: &str) -> Vec<Finding> {
    analyze_source(name, &fixture(name), true)
}

fn count(findings: &[Finding], lint: &str) -> usize {
    findings.iter().filter(|f| f.lint == lint).count()
}

/// The assertions are the analyzer's part of the panic fixture; its
/// unwrap/expect/panic!/unreachable! sites fail clippy in check.sh.
#[test]
fn panic_fixture_detected() {
    let f = run_fixture("panics.rs");
    let fns: Vec<(&str, &str)> = f.iter().map(|x| (x.lint, x.function.as_str())).collect();
    assert_eq!(
        fns,
        vec![("panic-free", "checked_len"), ("panic-free", "checked_eq")]
    );
}

#[test]
fn taint_fixture_detected() {
    let f = run_fixture("taint.rs");
    assert_eq!(count(&f, "secret-taint"), 4, "{f:?}");
    let msgs: String = f
        .iter()
        .map(|x| x.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("LeakyTriple"));
    assert!(msgs.contains("PadBuffer"));
    assert!(msgs.contains("println!"));
    assert!(msgs.contains("qty_share"));
    assert!(
        !msgs.contains("ScanConfig"),
        "containers must not be flagged"
    );
}

#[test]
fn cross_taint_fixture_detected() {
    let f = run_fixture("cross_taint.rs");
    let sites: Vec<(usize, &str)> = f
        .iter()
        .filter(|x| x.lint == "cross-function-taint")
        .map(|x| (x.line, x.function.as_str()))
        .collect();
    assert_eq!(
        sites,
        vec![
            (31, "report"),
            (39, "report_inline"),
            // Sites only a complete AST shows: inside a nested fn, and
            // after a struct-like enum variant and a `<<` in a `const`
            // (syntax a parser can mistake for the end of the file).
            (61, "render"),
            (78, "report_late"),
            // A macro statement behind an attribute is still a sink.
            (86, "report_debug"),
        ]
    );
    let fns: Vec<&str> = f.iter().map(|x| x.function.as_str()).collect();
    // Audited open sanitizes; counts and test code are free.
    assert!(!fns.contains(&"report_opened"));
    assert!(!fns.contains(&"report_count"));
    assert!(!fns.contains(&"tests_may_format_freely"));
}

/// Cross-function-taint findings over a fixture.
fn cross_taint(name: &str) -> Vec<Finding> {
    run_fixture(name)
        .into_iter()
        .filter(|f| f.lint == "cross-function-taint")
        .collect()
}

#[test]
fn field_projection_leak_caught() {
    let f = cross_taint("field_leak.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].function, "describe_payload");
    assert!(
        f[0].message.contains("field projection"),
        "{}",
        f[0].message
    );
}

#[test]
fn closure_capture_leak_caught() {
    let f = cross_taint("closure_leak.rs");
    let fns: Vec<&str> = f.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(fns.contains(&"leak_capture"), "{fns:?}");
    assert!(fns.contains(&"leak_combinator"), "{fns:?}");
    assert!(!fns.contains(&"clean_combinator"), "{fns:?}");
}

#[test]
fn fake_audited_open_caught() {
    let f = cross_taint("dispatch_leak.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].function, "leak_dispatch");
}

/// Runs the real `dash-analyze` binary over a scratch workspace whose only
/// secure-scope file is `fixture`; returns its exit code and stdout.
fn run_binary_over(fixture_name: &str) -> (Option<i32>, String) {
    let root = std::env::temp_dir().join(format!(
        "dash-analyze-{}-{fixture_name}",
        std::process::id()
    ));
    let src_dir = root.join("crates/mpc/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(src_dir.join(fixture_name), fixture(fixture_name)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dash-analyze"))
        .arg("--root")
        .arg(&root)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

/// The acceptance gate for the seeded fixtures, through the shipped
/// binary: each leak fixture must be reported and fail the process.
#[test]
fn leak_fixtures_fail_the_binary() {
    for name in ["field_leak.rs", "closure_leak.rs", "dispatch_leak.rs"] {
        let (code, text) = run_binary_over(name);
        assert_eq!(code, Some(1), "{name}: {text}");
        assert!(text.contains("error[cross-function-taint]"), "{text}");
        assert!(text.contains("dash-analyze: FAIL"), "{text}");
    }
}

#[test]
fn constant_time_fixture_detected() {
    let f = run_fixture("ct_violations.rs");
    assert_eq!(count(&f, "constant-time"), 12, "{f:?}");
    let flagged: Vec<&str> = f
        .iter()
        .filter(|x| x.lint == "constant-time")
        .map(|x| x.function.as_str())
        .collect();
    for bad in [
        "branchy_reduce",
        "secret_mod",
        "table_lookup",
        "compare_shares",
        "sign_match",
        "local_leak",
        "div_leak",
        "let_else_leak",
        // BAD 9 sits in the nested fn, not in `nested_leak` around it.
        "inner",
        "attributed_assert_leak",
        "cast_sum_leak",
        "batch_leak",
    ] {
        assert!(flagged.contains(&bad), "missing {bad} in {flagged:?}");
    }
    // Branch-free arithmetic, public shape metadata and test code must
    // all stay clean.
    for good in [
        "nested_leak",
        "batch_shape",
        "branchless_reduce",
        "ge_mask",
        "public_branch",
        "len_check",
        "next_mask",
        "assert_reduced",
    ] {
        assert!(!flagged.contains(&good), "false positive on {good}");
    }
}

#[test]
fn stray_tag_fixture_detected() {
    let f = run_fixture("stray_tag.rs");
    assert_eq!(count(&f, "tag-range"), 1, "{f:?}");
    assert!(f[0].message.contains("SIDE_CHANNEL_TAG_BASE"));
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf()
}

/// The gate the repo actually ships under: the full workspace analysis
/// reports nothing. This is the same analysis `scripts/check.sh` runs.
#[test]
fn workspace_clean() {
    let report = analyze_workspace(&workspace_root()).expect("workspace walk");
    let findings = &report.findings;
    let lines: Vec<_> = findings
        .iter()
        .map(|f| format!("{}:{} {} — {}", f.file, f.line, f.lint, f.message))
        .collect();
    assert!(findings.is_empty(), "findings:\n{}", lines.join("\n"));
}

/// The clippy denies that state panic-free and indexing sit at the two
/// roots `in_scope` names, as one list: a lint added at one root and not
/// the other would hold half the secure scope to a weaker rule. And no
/// non-test code under either root lifts `clippy::panic` again with an
/// `allow` or `expect` attribute.
#[test]
fn scope_roots_deny_the_same_lints() {
    // The first `deny(..)` list in a root file, and the source after it.
    let denies = |rel: &str| -> (Vec<String>, String) {
        let src = std::fs::read_to_string(workspace_root().join(rel)).expect("readable root");
        let (_, list) = src
            .split_once("deny(")
            .unwrap_or_else(|| panic!("{rel}: no deny"));
        let (list, rest) = list.split_once(')').expect("closed deny list");
        let lints = list.split(',').map(|l| l.trim().to_string());
        (lints.filter(|l| !l.is_empty()).collect(), rest.to_string())
    };
    let (mpc, _) = denies("crates/mpc/src/lib.rs");
    let (core, rest) = denies("crates/core/src/lib.rs");
    assert_eq!(mpc, core);
    for lint in [
        "clippy::panic",
        "clippy::unreachable",
        "clippy::indexing_slicing",
    ] {
        assert!(mpc.iter().any(|l| l == lint), "{lint} missing: {mpc:?}");
    }
    // In dash-core the list sits on the secure module, the scope's root.
    let next_item = rest.lines().find(|l| l.starts_with("pub mod"));
    assert_eq!(next_item, Some("pub mod secure;"));
    assert!(dash_analyze::in_scope("crates/mpc/src/lib.rs"));
    assert!(dash_analyze::in_scope("crates/core/src/secure/mod.rs"));

    let mut files = Vec::new();
    for dir in ["crates/mpc/src", "crates/core/src/secure"] {
        rs_files(&workspace_root().join(dir), &mut files);
    }
    assert!(files.len() > 10, "scope walk found only {files:?}");
    let mut allowances = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        // The non-test region: scripts/loc.sh's rule.
        let region = src.split("\n#[cfg(test)]").next().unwrap_or(&src);
        for attr in ["allow(", "expect("] {
            for (at, _) in region.match_indices(attr) {
                let list = region[at + attr.len()..].split(')').next().unwrap_or("");
                if list.split(',').any(|l| l.trim() == "clippy::panic") {
                    allowances.push(format!("{}: {attr}{list})", path.display()));
                }
            }
        }
    }
    assert!(
        allowances.is_empty(),
        "the secure scope allows clippy::panic:\n{}",
        allowances.join("\n")
    );
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable scope dir") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The crash-recovery modules (supervised transport, chaos proxy,
/// checkpoint codec, checkpointed protocol driver) must sit inside the
/// deny-gated lint scope: a future scope refactor that silently drops
/// them would let panicking constructs back into exactly the code that
/// runs while links are down and state is half-restored.
#[test]
fn recovery_modules_stay_in_lint_scope() {
    let root = workspace_root();
    for rel in [
        "crates/mpc/src/tcp.rs",
        "crates/mpc/src/chaos.rs",
        "crates/core/src/secure/checkpoint.rs",
        "crates/core/src/secure/protocol.rs",
    ] {
        assert!(dash_analyze::in_scope(rel), "{rel} must stay deny-gated");
        assert!(
            root.join(rel).is_file(),
            "{rel} moved or was renamed; update this scope pin"
        );
    }
}
