//! The per-file lint passes.
//!
//! The cheap structural lints (disclosure-completeness, panic-free,
//! secure-indexing, stray tag constants) walk the comment-free token
//! stream of one [`FileModel`] — they key off single tokens and need no
//! syntax. `secret-taint` works over the parsed AST so it sees macro
//! argument structure, inline format-string captures, and derive lists as
//! syntax rather than token windows. All passes skip test code and honour
//! inline `// dash-analyze::allow(<lint>): …` pragmas (function scope).

use crate::ast::{for_each_item, Expr, ExprKind, Item};
use crate::lexer::{Tok, TokKind};
use crate::model::FileModel;
use crate::Finding;

/// Identifier prefixes that open values to other parties. A function
/// whose own name starts with one of these is the primitive layer itself
/// and is exempt from disclosure-completeness.
const OPENING_PREFIXES: [&str; 4] = ["all_gather", "broadcast", "exchange_sum", "open_"];

/// Idents that record into the [`DisclosureLog`]: the log's own
/// `record_*` methods, plus the audited-open primitives that record
/// internally at the moment of opening (`Secret::open_via` and
/// `PartyCtx::open_local`). The `open_sum_*` helpers are *not* listed —
/// they carry the `open_` prefix and are covered by the
/// `Some(label)`-argument check below, so an unlabelled (pad) open cannot
/// self-exempt.
///
/// [`DisclosureLog`]: ../../dash_mpc/audit/struct.DisclosureLog.html
const RECORDERS: [&str; 4] = ["record_aggregate", "record_party", "open_via", "open_local"];

/// Runs every secure-scope lint over one file.
pub fn run_all(m: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    disclosure_completeness(m, &mut out);
    panic_free(m, &mut out);
    secure_indexing(m, &mut out);
    secret_taint(m, &mut out);
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

/// Index (in the code view) of the token matching the opener at `open`.
/// `open`/`close` are single punctuation chars. Returns the last token on
/// unbalanced input (the lints must not panic).
pub(crate) fn matching(code: &[Tok], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        if code[i].is_punct(oc) {
            depth += 1;
        } else if code[i].is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Lint 1: every opening-primitive call must be accounted to the
/// disclosure log within the same function — either directly
/// (`record_aggregate`/`record_party` reachable in the body), through the
/// primitive itself (`open_field(.., Some(label))` records internally),
/// or via an explicit pragma for the by-design cases (uniform masked
/// differences).
fn disclosure_completeness(m: &FileModel, out: &mut Vec<Finding>) {
    const LINT: &str = "disclosure-completeness";
    for f in &m.fns {
        if f.is_test {
            continue;
        }
        if OPENING_PREFIXES.iter().any(|p| f.name.starts_with(p)) {
            continue; // the primitive layer itself
        }
        let body = &m.code[f.body_start..=f.body_end.min(m.code.len() - 1)];
        let records = body
            .iter()
            .any(|t| t.kind == TokKind::Ident && RECORDERS.contains(&t.text.as_str()));
        for (k, t) in body.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let is_open = OPENING_PREFIXES.iter().any(|p| t.text.starts_with(p));
            if !is_open || !body.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            // `open_*` primitives record internally when handed a label.
            if t.text.starts_with("open_") {
                let close = matching(body, k + 1, '(', ')');
                let labelled = body[k + 1..=close].iter().any(|a| a.is_ident("Some"));
                if labelled {
                    continue;
                }
            }
            if records {
                continue;
            }
            let idx = f.body_start + k;
            if m.allowed(LINT, idx) {
                continue;
            }
            out.push(finding(
                m,
                LINT,
                idx,
                format!(
                    "`{}` opens values to other parties but `{}` has no reachable \
                     DisclosureLog::record_* call (and no recording label); every opening \
                     must be accounted or pragma-allowed with a justification",
                    t.text, f.name
                ),
            ));
        }
    }
}

/// Lint 3: no panicking constructs in secure non-test code.
fn panic_free(m: &FileModel, out: &mut Vec<Finding>) {
    const LINT: &str = "panic-free";
    const METHODS: [&str; 2] = ["unwrap", "expect"];
    const MACROS: [&str; 7] = [
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    // `const _: () = assert!(…);` is evaluated by the compiler: a failure
    // stops the build, it cannot abort a running party.
    const CONST_ASSERTION: [&str; 6] = ["const", "_", ":", "(", ")", "="];
    for (i, t) in m.code.iter().enumerate() {
        if t.kind != TokKind::Ident || m.in_test(i) {
            continue;
        }
        let what = if METHODS.contains(&t.text.as_str())
            && i > 0
            && m.code[i - 1].is_punct('.')
            && m.code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            format!(".{}() panics on the error path", t.text)
        } else if MACROS.contains(&t.text.as_str())
            && m.code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            let is_const_assertion = i >= CONST_ASSERTION.len()
                && m.code[i - CONST_ASSERTION.len()..i]
                    .iter()
                    .map(|p| p.text.as_str())
                    .eq(CONST_ASSERTION);
            if is_const_assertion {
                continue;
            }
            format!("{}! aborts the party mid-protocol", t.text)
        } else {
            continue;
        };
        if m.allowed(LINT, i) {
            continue;
        }
        out.push(finding(
            m,
            LINT,
            i,
            format!(
                "{what}; a panicking party deadlocks or crashes the other parties — return a \
                 structured MpcError/CoreError instead"
            ),
        ));
    }
}

/// Lint 5: direct `x[i]` indexing. Range slicing (`x[a..b]`),
/// attributes (`#[…]`) and macro brackets (`vec![…]`) are not flagged.
fn secure_indexing(m: &FileModel, out: &mut Vec<Finding>) {
    const LINT: &str = "secure-indexing";
    for (i, t) in m.code.iter().enumerate() {
        if !t.is_punct('[') || i == 0 || m.in_test(i) {
            continue;
        }
        let prev = &m.code[i - 1];
        let indexes_value = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
            || prev.is_punct(']')
            || prev.is_punct(')');
        if !indexes_value {
            continue;
        }
        // A top-level `..` inside the brackets is a range slice: the
        // result is a slice, and slicing is handled by length checks at
        // the call sites (and still bounds-checked by the runtime).
        let close = matching(&m.code, i, '[', ']');
        let mut depth = 0usize;
        let mut is_range = false;
        let mut j = i;
        while j < close {
            let a = &m.code[j];
            if a.is_punct('[') || a.is_punct('(') {
                depth += 1;
            } else if a.is_punct(']') || a.is_punct(')') {
                depth = depth.saturating_sub(1);
            } else if depth == 1
                && a.is_punct('.')
                && m.code.get(j + 1).is_some_and(|n| n.is_punct('.'))
            {
                is_range = true;
                break;
            }
            j += 1;
        }
        if is_range || m.allowed(LINT, i) {
            continue;
        }
        out.push(finding(
            m,
            LINT,
            i,
            "direct indexing panics on out-of-range; prefer .get()/iterators or slice \
             patterns in secure code"
                .to_string(),
        ));
    }
}

pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "return"
            | "in"
            | "as"
            | "mut"
            | "let"
            | "move"
            | "break"
            | "continue"
            | "while"
            | "for"
            | "loop"
            | "impl"
            | "dyn"
            | "where"
            | "fn"
            | "use"
            | "pub"
            | "const"
            | "static"
            | "type"
            | "struct"
            | "enum"
            | "mod"
            | "ref"
    )
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

/// Lint 4: secret material must not flow into Debug/Display formatting
/// or observability sinks. Works over the parsed AST (`crate::ast`).
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
fn secret_taint(m: &FileModel, out: &mut Vec<Finding>) {
    for_each_item(&m.ast, &mut |item| secret_taint_item(m, item, out));
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

fn secret_taint_item(m: &FileModel, item: &Item, out: &mut Vec<Finding>) {
    const LINT: &str = "secret-taint";
    match item {
        // Shape 1: #[derive(.., Debug, ..)] on a leaf secret type.
        Item::Struct(sd) => {
            if sd.derives.iter().any(|d| d == "Debug")
                && is_leaf_secret_type(sd)
                && !m.line_in_test(sd.line)
                && !m.allowed_line(LINT, sd.line)
            {
                out.push(finding_at(
                    m,
                    LINT,
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
        Item::Fn(f) => secret_taint_fn(m, f, out),
        Item::Impl(ib) => {
            for f in &ib.fns {
                secret_taint_fn(m, f, out);
            }
        }
        Item::Mod(_) | Item::Other => {}
    }
}

fn secret_taint_fn(m: &FileModel, f: &crate::ast::Fun, out: &mut Vec<Finding>) {
    const LINT: &str = "secret-taint";
    if f.is_test {
        return;
    }
    f.body.walk(&mut |e| {
        // Shapes 2 and 3: macro invocations.
        if let ExprKind::Macro {
            name,
            raw_idents,
            strs,
            ..
        } = &e.kind
        {
            if m.allowed_line(LINT, e.line) {
                return;
            }
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
            if !m.allowed_line(LINT, e.line) {
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
fn is_leaf_secret_type(sd: &crate::ast::StructDef) -> bool {
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
/// workspace.
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
        if name.text.to_ascii_uppercase().contains("TAG")
            && m.code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !m.allowed(LINT, i)
        {
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
    fn unwrap_in_nontest_flagged_in_test_ok() {
        let src = r#"
fn bad(v: Option<u32>) -> u32 { v.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
"#;
        let f = run(src);
        assert_eq!(lints_of(&f), vec!["panic-free"]);
        assert_eq!(f[0].function, "bad");
    }

    #[test]
    fn unwrap_or_does_not_trigger() {
        let f = run("fn ok(v: Option<u32>) -> u32 { v.unwrap_or(0).max(v.unwrap_or_default()) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_macros_flagged_unless_pragma() {
        let f = run("fn bad() { panic!(\"boom\"); }");
        assert_eq!(lints_of(&f), vec!["panic-free"]);
        let f = run(
            "fn ok() {\n// dash-analyze::allow(panic-free): documented contract\npanic!(\"x\"); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn asserts_flagged_debug_and_const_assertions_not() {
        let f = run("fn bad(n: usize) { assert!(n > 0); assert_eq!(n, 1); assert_ne!(n, 2); }");
        assert_eq!(lints_of(&f), vec!["panic-free"; 3]);
        let f = run("fn ok(n: usize) { debug_assert!(n > 0); }\nconst _: () = assert!(N > 0);");
        assert!(f.is_empty(), "{f:?}");
        // Only the anonymous unit const is a compile-time assertion.
        let f = run("fn bad() { let _x: () = assert!(true); }");
        assert_eq!(lints_of(&f), vec!["panic-free"]);
    }

    #[test]
    fn indexing_flagged_slicing_not() {
        let f = run("fn a(v: &[u32], i: usize) -> u32 { v[i] }");
        assert_eq!(lints_of(&f), vec!["secure-indexing"]);
        let f = run("fn b(v: &[u32]) -> &[u32] { &v[1..3] }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn c() -> Vec<u32> { vec![1, 2] }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("#[derive(Clone)]\nstruct S { a: [u32; 4] }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn disclosure_requires_record_or_label() {
        let leaky = "fn leaky(ctx: &mut Ctx) { let v = all_gather_f64(ctx, t, &x); }";
        assert_eq!(lints_of(&run(leaky)), vec!["disclosure-completeness"]);
        let ok = "fn ok(ctx: &mut Ctx) { ctx.audit().record_aggregate(\"l\", 1); \
                  let v = all_gather_f64(ctx, t, &x); }";
        assert!(run(ok).is_empty());
        let labelled =
            "fn ok2(ctx: &mut Ctx) { open_field(ctx, &s, Some(\"l\")).unwrap_or_default(); }";
        assert!(run(labelled).is_empty());
        let unlabelled = "fn bad2(ctx: &mut Ctx) { open_field(ctx, &s, None).ok(); }";
        assert_eq!(lints_of(&run(unlabelled)), vec!["disclosure-completeness"]);
    }

    #[test]
    fn audited_open_primitives_count_as_recording() {
        // `open_via` / `open_local` record into the DisclosureLog at the
        // moment of opening, so a function using them to account a nearby
        // opening call is complete.
        let via = "fn finish(ctx: &mut Ctx, s: Secret<Vec<R64>>) { \
                   let v = exchange_sum_ring(ctx, t, &x); \
                   s.open_via(ctx.audit(), \"sum\", OpenMode::Aggregate(\"sum\")); }";
        assert!(run(via).is_empty());
        let local = "fn finish2(ctx: &mut Ctx, s: Secret<R64>) { \
                     let v = exchange_sum_ring(ctx, t, &x); \
                     let _ = ctx.open_local(s, Some(\"sum\")); }";
        assert!(run(local).is_empty());
    }

    #[test]
    fn primitive_layer_itself_exempt() {
        let src = "fn broadcast_ring(&mut self, tag: u32) { self.send(tag); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn derive_debug_on_leaf_secret_flagged() {
        let f = run("#[derive(Debug, Clone)]\npub struct BeaverTriple { pub a: F61 }");
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
        let f = run("fn bad2(qty_share: &[F61]) { debug_assert_eq!(qty_share.len(), 3); }");
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
        // Pragma escape hatch works for sinks too.
        let f = run("fn ok2(ctx: &Ctx, n_triples: u64) {\n\
             // dash-analyze::allow(secret-taint): count of triples, not their values\n\
             ctx.trace_add(Counter::TriplesConsumed, n_triples); }");
        assert!(f.is_empty(), "{f:?}");
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
}
