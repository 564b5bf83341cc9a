//! The per-file lint passes.
//!
//! `secret-taint` and `panic-free` work over the parsed AST, so they see
//! macro argument structure, inline format-string captures, and derive
//! lists as syntax rather than token windows. The one token rule left,
//! stray tag constants, walks the comment-free token stream of one
//! [`FileModel`]: it keys off a single `const` declaration and needs no
//! syntax. All passes skip test code.
//!
//! What the compiler can state is not here: `unwrap`/`expect`, the
//! `panic!` family and indexing are clippy denies at the secure scope's
//! roots, and every opening takes its disclosure as a required argument.

use crate::ast::{for_each_item, Expr, ExprKind, Fun, Item, StructDef};
use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::Finding;

/// Runs every secure-scope lint over one file.
pub fn run_all(m: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for_each_item(&m.ast, &mut |item| {
        let fns = match item {
            Item::Struct(sd) => {
                secret_taint_derive(m, sd, &mut out);
                return;
            }
            Item::Fn(f) => std::slice::from_ref(f),
            Item::Impl(ib) => &ib.fns,
            Item::Mod(_) | Item::Other => return,
        };
        for f in fns.iter().filter(|f| !f.is_test) {
            secret_taint_fn(m, f, &mut out);
            panic_free(m, f, &mut out);
        }
    });
    stray_tag_consts(m, &mut out);
    out
}

fn finding(m: &FileModel, lint: &'static str, idx: usize, message: String) -> Finding {
    let line = m.line_of(idx);
    Finding {
        lint,
        file: m.rel.clone(),
        line,
        function: m
            .enclosing_fn(idx)
            .map(|f| f.name.clone())
            .unwrap_or_default(),
        message,
        snippet: m.line_text(line).to_string(),
    }
}

/// Finding constructor for the AST passes, which carry lines (not token
/// indices) and know their enclosing function directly.
fn finding_at(
    m: &FileModel,
    lint: &'static str,
    line: usize,
    function: String,
    message: String,
) -> Finding {
    Finding {
        lint,
        file: m.rel.clone(),
        line,
        function,
        message,
        snippet: m.line_text(line).to_string(),
    }
}

/// Panic-free, the part no clippy lint states: `assert!`, `assert_eq!`
/// and `assert_ne!` in a fn body abort the party mid-protocol.
/// `debug_assert!` compiles out of release builds, and a
/// `const _: () = assert!(..)` is an item the compiler evaluates, not a
/// body statement, so neither is flagged.
fn panic_free(m: &FileModel, f: &Fun, out: &mut Vec<Finding>) {
    const ASSERTS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
    f.body.walk(&mut |e| {
        if let ExprKind::Macro { name, .. } = &e.kind {
            if ASSERTS.contains(&name.as_str()) {
                out.push(finding_at(
                    m,
                    "panic-free",
                    e.line,
                    f.name.clone(),
                    format!(
                        "{name}! aborts the party mid-protocol; a panicking party deadlocks or \
                         crashes the other parties — return a structured MpcError/CoreError instead"
                    ),
                ));
            }
        }
    });
}

/// Whether an identifier names secret share/mask material.
fn secret_ident(s: &str) -> bool {
    let l = s.to_ascii_lowercase();
    l == "prg"
        || [
            "share", "shares", "mask", "masks", "secret", "secrets", "triple", "triples",
        ]
        .iter()
        .any(|suf| l.ends_with(suf))
}

const PRINTS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];
const TRACE_SINKS: [&str; 3] = ["trace_add", "trace_span", "trace_span_at"];
const FORMATTERS: [&str; 9] = [
    "format",
    "write",
    "writeln",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Secret-taint: secret material must not flow into Debug/Display
/// formatting or observability sinks. Works over the parsed AST
/// (`crate::ast`).
///
/// Four shapes:
/// - `#[derive(Debug)]` on a *leaf* secret type (type name matching
///   triple/share/mask/prg, or a field named like share/mask/secret) —
///   leaf types must hand-write a redacting `Debug` impl; containers may
///   keep derived `Debug` because their leaf fields print redacted.
/// - `println!`-family / `dbg!` anywhere in secure non-test code.
/// - formatting/assert macros whose arguments mention a secret-named
///   identifier outside `#[cfg(test)]` — including inline format-string
///   captures (`format!("{share:?}")`), which live inside the string
///   literal.
/// - trace/metric emission calls (`trace_add`, `trace_span`,
///   `trace_span_at`) with a secret-named argument: the trace exports to
///   JSON on the operator's machine, so these are formatter-like sinks —
///   only counts and static labels may flow in, never share/mask values.
///
/// This checks the first shape; [`secret_taint_fn`] the other three.
fn secret_taint_derive(m: &FileModel, sd: &StructDef, out: &mut Vec<Finding>) {
    if sd.derives.iter().any(|d| d == "Debug")
        && is_leaf_secret_type(sd)
        && !m.line_in_test(sd.line)
    {
        out.push(finding_at(
            m,
            "secret-taint",
            sd.line,
            String::new(),
            format!(
                "`{}` holds secret share/mask material; derive(Debug) would \
                 print it — hand-write a redacting Debug impl instead",
                sd.name
            ),
        ));
    }
}

/// Secret-taint shapes 2–4, in one fn body.
fn secret_taint_fn(m: &FileModel, f: &Fun, out: &mut Vec<Finding>) {
    const LINT: &str = "secret-taint";
    f.body.walk(&mut |e| {
        // Shapes 2 and 3: macro invocations.
        if let ExprKind::Macro {
            name,
            raw_idents,
            strs,
            ..
        } = &e.kind
        {
            if PRINTS.contains(&name.as_str()) {
                out.push(finding_at(
                    m,
                    LINT,
                    e.line,
                    f.name.clone(),
                    format!(
                        "{name}! in secure code can leak protocol state to stdout/stderr; \
                             route observability through the DisclosureLog or tracing in \
                             non-secure layers"
                    ),
                ));
            } else if FORMATTERS.contains(&name.as_str()) {
                // Raw idents cover both parsed args and anything the
                // sub-parse gave up on; inline captures reach inside
                // the format string itself.
                let bad = raw_idents
                    .iter()
                    .find(|i| secret_ident(i))
                    .cloned()
                    .or_else(|| {
                        strs.iter()
                            .flat_map(|s| crate::taint::inline_captures(s))
                            .find(|c| secret_ident(c))
                    });
                if let Some(bad) = bad {
                    out.push(finding_at(
                        m,
                        LINT,
                        e.line,
                        f.name.clone(),
                        format!(
                            "{name}! formats `{bad}`, which names secret share/mask \
                                 material; secrets must not reach Debug/Display output \
                                 outside #[cfg(test)]"
                        ),
                    ));
                }
            }
        }
        // Shape 4: trace/metric emission with a secret-named argument
        // (method and free-fn call forms both).
        if let Some((sink, args)) = trace_sink_call(e) {
            let mut idents = Vec::new();
            for a in args {
                a.collect_idents(&mut idents);
            }
            if let Some(bad) = idents.iter().find(|i| secret_ident(i)) {
                out.push(finding_at(
                    m,
                    LINT,
                    e.line,
                    f.name.clone(),
                    format!(
                        "{sink}(..) records `{bad}`, which names secret share/mask \
                         material, into the trace; observability sinks may carry counts \
                         and static labels only"
                    ),
                ));
            }
        }
    });
}

/// If `e` is a call to a trace/metric sink, returns its name and args.
fn trace_sink_call(e: &Expr) -> Option<(&str, &[Expr])> {
    match &e.kind {
        ExprKind::MethodCall { name, args, .. } if TRACE_SINKS.contains(&name.as_str()) => {
            Some((name.as_str(), args))
        }
        ExprKind::Call { callee, args } => match &callee.kind {
            ExprKind::Path(segs)
                if segs
                    .last()
                    .is_some_and(|l| TRACE_SINKS.contains(&l.as_str())) =>
            {
                Some((segs.last().map(String::as_str).unwrap_or(""), args))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Whether a struct/enum's name or field names mark it as a secret *leaf*
/// type (the thing that must hand-write a redacting `Debug`).
fn is_leaf_secret_type(sd: &StructDef) -> bool {
    let lname = sd.name.to_ascii_lowercase();
    if ["triple", "share", "mask", "prg"]
        .iter()
        .any(|p| lname.contains(p))
    {
        return true;
    }
    sd.fields.iter().any(|(fname, _)| {
        let lf = fname.to_ascii_lowercase();
        ["share", "mask", "secret"].iter().any(|p| lf.contains(p))
    })
}

/// Tag-range hygiene: tag constants must live in the registry module
/// (`crates/mpc/src/tags.rs`), never scattered across the secure crates,
/// so its compile-time partition assertion covers every tag in the
/// workspace. A tag constant is one whose name has `TAG` as a whole
/// `_`-separated word (`MY_TAG_BASE`, not `STAGE_COUNT`).
fn stray_tag_consts(m: &FileModel, out: &mut Vec<Finding>) {
    const LINT: &str = "tag-range";
    if m.rel.ends_with("tags.rs") {
        return;
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
            out.push(finding(
                m,
                LINT,
                i + 1,
                format!(
                    "tag constant `{}` declared outside the registry; move it into \
                     dash_mpc::tags so the registry's partition assertion covers it",
                    name.text
                ),
            ));
        }
    }
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
    fn asserts_flagged_debug_and_const_assertions_not() {
        let f = run("fn bad(n: usize) { assert!(n > 0); assert_eq!(n, 1); assert_ne!(n, 2); }");
        assert_eq!(lints_of(&f), vec!["panic-free"; 3]);
        assert!(f.iter().all(|x| x.function == "bad"), "{f:?}");
        let f = run("fn ok(n: usize) { debug_assert!(n > 0); }\nconst _: () = assert!(N > 0);");
        assert!(f.is_empty(), "{f:?}");
        // Only an item is a compile-time assertion; a body binding runs.
        let f = run("fn bad() { let _x: () = assert!(true); }");
        assert_eq!(lints_of(&f), vec!["panic-free"]);
        // Methods, nested fns and closures are bodies too; test code is not.
        let src = "impl S { fn m(&self) { let c = || assert!(self.ok()); c(); } }\n\
                   fn outer() { fn inner(n: u8) { assert_eq!(n, 1); } }\n\
                   #[cfg(test)]\nmod tests {\n#[test]\nfn t() { assert!(true); }\n}";
        let f = run(src);
        let sites: Vec<&str> = f.iter().map(|x| x.function.as_str()).collect();
        assert_eq!(sites, vec!["m", "inner"]);
    }

    #[test]
    fn derive_debug_on_leaf_secret_flagged() {
        let f = run("#[derive(Debug, Clone)]\npub struct BeaverTriple { pub a: R64 }");
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
        // Container with an innocuous name and fields: fine.
        let f = run("#[derive(Debug)]\npub struct Config { pub bits: u32 }");
        assert!(f.is_empty(), "{f:?}");
        // Secret-named field marks a leaf even with a neutral type name.
        let f = run("#[derive(Debug)]\nstruct Buf { mask_words: Vec<u64> }");
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
    }

    #[test]
    fn print_and_secret_formatting_flagged() {
        let f = run("fn bad(x: u32) { println!(\"{x}\"); }");
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
        let f = run("fn bad2(qty_share: &[R64]) { debug_assert_eq!(qty_share.len(), 3); }");
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
        let f = run("fn ok(label: &str, n: usize) -> String { format!(\"{label}: {n}\") }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inline_format_capture_is_seen_inside_the_string() {
        // `format!("{mask:?}")` mentions the secret only inside the
        // string literal — invisible to a token scan, caught on the AST.
        let f = run("fn bad(mask: u64) -> String { format!(\"{mask:?}\") }");
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
        let f = run("fn ok(label: &str) -> String { format!(\"{label}\") }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trace_sink_with_secret_argument_flagged() {
        // Counts and enum variants are fine.
        let f = run("fn ok(ctx: &Ctx, n: u64) { ctx.trace_add(Counter::OpenedScalars, n); }");
        assert!(f.is_empty(), "{f:?}");
        // A secret-named value flowing into the sink is not.
        let f = run(
            "fn bad(ctx: &Ctx, qty_share: u64) { ctx.trace_add(Counter::BytesSent, qty_share); }",
        );
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
        let f = run("fn bad2(ctx: &Ctx, mask: u64) { ctx.trace_span_at(\"block\", mask); }");
        assert_eq!(lints_of(&f), vec!["secret-taint"]);
        // In test code the sink is unrestricted.
        let f = run("#[cfg(test)]\nmod tests {\n#[test]\nfn t() { ctx.trace_add(C::B, mask); }\n}");
        assert!(f.is_empty(), "{f:?}");
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
