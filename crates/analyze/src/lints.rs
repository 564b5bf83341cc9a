//! The per-file lint pass: stray tag constants. It walks the
//! comment-free token stream of one [`FileModel`], keys off a single
//! `const` declaration and needs no syntax. Test code is skipped.
//!
//! What the compiler can state is not here: the panic family, indexing
//! and printing are clippy denies at the secure scope's roots, `assert!`
//! is a `compile_error!` shadow there, secret types redact their `Debug`,
//! and every opening takes its disclosure as a required argument.

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::Finding;

/// Tag-range hygiene: tag constants must live in the registry module
/// (`crates/mpc/src/tags.rs`), never scattered across the secure crates,
/// so its compile-time partition assertion covers every tag in the
/// workspace. A tag constant is one whose name has `TAG` as a whole
/// `_`-separated word (`MY_TAG_BASE`, not `STAGE_COUNT`).
pub fn run_all(m: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    if m.rel.ends_with("tags.rs") {
        return out;
    }
    for (i, t) in m.code.iter().enumerate() {
        if !t.is_ident("const") || m.in_test(i) {
            continue;
        }
        let Some(name) = m.code.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident || name.is_ident("fn") {
            continue;
        }
        let names_a_tag = name.text.split('_').any(|w| w.eq_ignore_ascii_case("TAG"));
        if names_a_tag && m.code.get(i + 2).is_some_and(|n| n.is_punct(':')) {
            let line = m.line_of(i + 1);
            out.push(Finding {
                lint: "tag-range",
                file: m.rel.clone(),
                line,
                function: m
                    .enclosing_fn(i + 1)
                    .map(|f| f.name.clone())
                    .unwrap_or_default(),
                message: format!(
                    "tag constant `{}` declared outside the registry; move it into \
                     dash_mpc::tags so the registry's partition assertion covers it",
                    name.text
                ),
                snippet: m.line_text(line).to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        run_all(&FileModel::parse("crates/mpc/src/x.rs", src))
    }

    fn lints_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.lint).collect()
    }

    #[test]
    fn stray_tag_const_flagged() {
        let f = run("pub const MY_TAG_BASE: u32 = 77;");
        assert_eq!(lints_of(&f), vec!["tag-range"]);
        let m = FileModel::parse("crates/mpc/src/tags.rs", "pub const MY_TAG_BASE: u32 = 77;");
        assert!(run_all(&m).is_empty());
    }

    #[test]
    fn tag_is_matched_as_a_whole_word() {
        // `TAG` inside another word names no tag.
        for name in ["STAGE_COUNT", "PERCENTAGE", "VOLTAGE", "TAGGED_UNION"] {
            let f = run(&format!("const {name}: u32 = 3;"));
            assert!(f.is_empty(), "{name}: {f:?}");
        }
        for name in ["TAG", "HEARTBEAT_TAG", "TAG_STRIDE", "Y_ROUND_TAG_BASE"] {
            let f = run(&format!("const {name}: u32 = 3;"));
            assert_eq!(lints_of(&f), vec!["tag-range"], "{name}");
        }
    }
}
