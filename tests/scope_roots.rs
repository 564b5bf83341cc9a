//! Structural pins of the secure scope: the source files under
//! `crates/mpc/src` and `crates/core/src/secure`, whose two roots carry
//! the clippy denies and the `assert!` shadows that state panic-free,
//! indexing and printing to the compiler.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

/// The two directories the secure scope is, relative to the workspace.
const SCOPE_DIRS: [&str; 2] = ["crates/mpc/src", "crates/core/src/secure"];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Whether a workspace-relative path lies in the secure scope.
fn in_scope(rel: &str) -> bool {
    SCOPE_DIRS
        .iter()
        .any(|dir| rel.starts_with(&format!("{dir}/")))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("readable source")
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

/// The clippy denies that state panic-free, indexing and no-printing sit
/// at the scope's two roots as one list: a lint added at one root and
/// not the other would hold half the secure scope to a weaker rule. The
/// `assert!` shadows open both roots' module trees, before the first
/// `mod` line. And no non-test code under either root lifts
/// `clippy::panic` again with an `allow` or `expect` attribute.
#[test]
fn scope_roots_deny_the_same_lints() {
    // The first `deny(..)` list in a root file, and the source after it.
    let denies = |rel: &str| -> (Vec<String>, String) {
        let src = read(rel);
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
        "clippy::print_stdout",
        "clippy::print_stderr",
        "clippy::dbg_macro",
    ] {
        assert!(mpc.iter().any(|l| l == lint), "{lint} missing: {mpc:?}");
    }
    // In dash-core the list sits on the secure module, the scope's root.
    let next_item = rest.lines().find(|l| l.starts_with("pub mod"));
    assert_eq!(next_item, Some("pub mod secure;"));
    for rel in ["crates/mpc/src/lib.rs", "crates/core/src/secure/mod.rs"] {
        let src = read(rel);
        let before_mods = src.split("\nmod ").next().unwrap_or("");
        let before_mods = before_mods.split("\npub mod ").next().unwrap_or("");
        for shadow in ["assert", "assert_eq", "assert_ne"] {
            let def = format!("macro_rules! {shadow} {{");
            assert!(
                before_mods.contains(&def),
                "{rel}: no `{shadow}!` shadow before the first mod"
            );
        }
    }
    assert!(in_scope("crates/mpc/src/lib.rs"));
    assert!(in_scope("crates/core/src/secure/mod.rs"));

    let mut files = Vec::new();
    for dir in SCOPE_DIRS {
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

/// The crash-recovery modules (supervised transport, chaos proxy,
/// checkpoint codec, checkpointed protocol driver) must sit inside the
/// deny-gated scope: a future scope refactor that silently drops them
/// would let panicking constructs back into exactly the code that runs
/// while links are down and state is half-restored.
#[test]
fn recovery_modules_stay_in_lint_scope() {
    for rel in [
        "crates/mpc/src/tcp.rs",
        "crates/mpc/src/chaos.rs",
        "crates/core/src/secure/checkpoint.rs",
        "crates/core/src/secure/protocol.rs",
    ] {
        assert!(in_scope(rel), "{rel} must stay deny-gated");
        assert!(
            workspace_root().join(rel).is_file(),
            "{rel} moved or was renamed; update this scope pin"
        );
    }
}
