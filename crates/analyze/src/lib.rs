//! `dash-analyze`: a dependency-free static analyzer for the DASH
//! workspace, enforcing the two protocol invariants that neither the
//! type system nor clippy can express:
//!
//! - **constant-time** — the mpc crate's element/share modules must stay
//!   branch-free on secret data: no `if`/`while`/`match`, comparison,
//!   `%`/`/`, or table indexing whose operand is share material. Scoped
//!   to the arithmetic core (`ring.rs`, `ctime.rs`, `fixed.rs`,
//!   `dealer.rs`, `secret.rs`); protocol layers branch on public control
//!   flow and are exempt by design.
//! - **tag-range** — tag constants may not be declared outside the
//!   registry module `dash_mpc::tags`, whose `REGISTRY` proves itself a
//!   partition of the `u32` space with a compile-time assertion.
//!
//! What the compiler states is not repeated here. `unwrap`/`expect`, the
//! `panic!` family, indexing and printing are clippy denies at the two
//! scope roots (`crates/mpc/src/lib.rs` and the `secure` module of
//! `crates/core/src/lib.rs`), where an `#[allow]` must give a `reason`;
//! `assert!`, `assert_eq!` and `assert_ne!` are `compile_error!` shadows
//! at the top of `crates/mpc/src/lib.rs` and `crates/core/src/secure/mod.rs`;
//! `R64`'s word is crate-private and every secret type's `Debug` is
//! redacted; disclosure accounting is a required argument of every
//! opening (`dash_mpc::Opening`).
//!
//! One pipeline, one verdict: lex → parse → the tag-range pass per file,
//! then the constant-time pass over every scoped file, and any finding
//! fails the gate. There is no suppression: a finding is fixed in the
//! code.
//!
//! The analyzer is self-contained by design: a hand-rolled lexer, parser
//! and JSON reader, no registry access, consistent with the
//! workspace's vendored-shim policy.

pub mod ast;
pub mod ct;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod parser;
pub(crate) mod registry;
pub mod report;
pub mod trace_check;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding. Each one fails the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub lint: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing function, or `""` for item-level findings.
    pub function: String,
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
}

/// What one analysis run found, and over how much code: a verdict over an
/// AST that has lost functions must not read like one over all of them.
#[derive(Debug)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Functions the AST passes saw in them (test code included).
    pub functions: usize,
}

/// Whether a repo-relative path is in the secure scope the lints cover:
/// the same two roots that carry the clippy denies.
pub fn in_scope(rel: &str) -> bool {
    rel.contains("crates/mpc/src") || rel.contains("crates/core/src/secure")
}

/// Analyzes one file's source; `scoped` selects whether the secure-code
/// lints apply.
///
/// The constant-time pass's call-graph closure runs here over the single
/// file only — enough for fixtures and ad-hoc checks. Whole-workspace
/// runs go through [`analyze_workspace`], which feeds it every scoped
/// file at once.
pub fn analyze_source(rel: &str, src: &str, scoped: bool) -> Vec<Finding> {
    if !scoped {
        return Vec::new();
    }
    analyze_models(&[model::FileModel::parse(rel, src)]).findings
}

/// The one pipeline: the per-file lint, then the constant-time pass over
/// all of `models` at once.
fn analyze_models(models: &[model::FileModel]) -> Report {
    let mut findings: Vec<Finding> = models.iter().flat_map(lints::run_all).collect();
    let reg = registry::Registry::build(models);
    findings.extend(ct::run(&reg));
    Report {
        findings,
        files: models.len(),
        functions: reg.fns.len(),
    }
}

/// Walks the workspace under `root` and analyzes every in-scope `.rs` file
/// beneath each crate's `src/` (plus the root package's `src/`, if any).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();

    // Every scoped file is modelled before any pass runs, so the
    // element-producing call graph spans files (mpc → core/secure).
    let mut models = Vec::new();
    for path in files {
        let rel = rel_path(root, &path);
        if in_scope(&rel) {
            models.push(model::FileModel::parse(&rel, &fs::read_to_string(&path)?));
        }
    }
    Ok(analyze_models(&models))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes (stable across platforms for
/// reports).
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_covers_secure_dirs_only() {
        assert!(in_scope("crates/mpc/src/net.rs"));
        assert!(in_scope("crates/core/src/secure/aggregate.rs"));
        assert!(!in_scope("crates/core/src/scan/parallel.rs"));
        assert!(!in_scope("crates/linalg/src/lib.rs"));
        assert!(!in_scope("crates/mpc/tests/props.rs"));
    }

    #[test]
    fn unscoped_source_yields_nothing() {
        let src = "fn f(v: Vec<u32>) -> u32 { v[0] }";
        assert!(analyze_source("crates/linalg/src/x.rs", src, false).is_empty());
    }

    /// The lexer, item scan, parser and every pass must return on any
    /// input, including source cut off mid-item: every prefix (at every
    /// 16th line) of every scoped workspace file and every fixture
    /// analyzes without panicking.
    #[test]
    fn truncated_sources_do_not_panic() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        collect_rs(&root.join("crates"), &mut files).unwrap();
        files.retain(|p| {
            let rel = rel_path(&root, p);
            in_scope(&rel) || rel.contains("crates/analyze/tests/fixtures")
        });
        assert!(files.len() > 20, "scope moved? {files:?}");
        for path in files {
            let src = fs::read_to_string(&path).unwrap();
            let cuts = src.match_indices('\n').map(|(i, _)| i + 1).step_by(16);
            for cut in cuts {
                let _ = analyze_source(&rel_path(&root, &path), &src[..cut], true);
            }
        }
    }

    /// The brace tracker (`model::scan_items`) and the parser read the
    /// same tokens independently. Every fn body the tracker finds in a
    /// scoped file or a fixture must be a `Fun` in the AST — flattened
    /// through mods, impls, traits and nested items — with the same name,
    /// first and last line, and test scope: a parse slip that drops or
    /// truncates functions fails here instead of quietly shrinking what
    /// the AST passes look at.
    #[test]
    fn parser_agrees_with_brace_tracker() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        collect_rs(&root.join("crates"), &mut files).unwrap();
        let mut lost = Vec::new();
        for path in files {
            let rel = rel_path(&root, &path);
            if !in_scope(&rel) && !rel.contains("crates/analyze/tests/fixtures") {
                continue;
            }
            let m = model::FileModel::parse(&rel, &fs::read_to_string(&path).unwrap());
            let mut funs = Vec::new();
            ast::for_each_item(&m.ast, &mut |item| match item {
                ast::Item::Fn(f) => funs.push(f),
                ast::Item::Impl(ib) => funs.extend(&ib.fns),
                _ => {}
            });
            for sp in &m.fns {
                let span = (sp.name.as_str(), sp.start_line, sp.end_line, sp.is_test);
                if !funs
                    .iter()
                    .any(|f| (f.name.as_str(), f.line, f.end_line, f.is_test) == span)
                {
                    lost.push(format!("{rel}: {span:?}"));
                }
            }
        }
        assert!(
            lost.is_empty(),
            "{} fns the parser lost or mis-spanned (name, first line, last line, test):\n{}",
            lost.len(),
            lost.join("\n")
        );
    }
}
