//! File model: function spans, test regions, and suppression pragmas
//! recovered from the token stream by brace tracking — plus the parsed
//! AST (`ast` field) that the taint and constant-time passes walk.
//!
//! The token-level view (`code`, `fns`, `enclosing_fn`, …) is the
//! interface for the single-token lints (disclosure-completeness,
//! panic-free, secure-indexing, tag-range); the AST passes use `ast`.
//! Test regions and pragmas are resolved by source line
//! (`line_in_test`, `allowed_line`); `in_test` and `allowed` look up a
//! token's line and ask the same question.

use crate::ast::Item;
use crate::lexer::{lex, Tok, TokKind};
use crate::parser;

/// A function's span in the token stream (indices into the *code* view,
/// i.e. the comment-free token list).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Index of the opening `{` in the code view.
    pub body_start: usize,
    /// Index of the closing `}` in the code view.
    pub body_end: usize,
    pub start_line: usize,
    pub end_line: usize,
    /// `#[test]` function or nested inside a `#[cfg(test)]` module.
    pub is_test: bool,
}

/// An inline `// dash-analyze::allow(<lint>): reason` suppression.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub lint: String,
    pub line: usize,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative path (forward slashes).
    pub rel: String,
    /// Comment-free token stream — what the lints scan.
    pub code: Vec<Tok>,
    pub fns: Vec<FnSpan>,
    pub pragmas: Vec<Pragma>,
    /// Line ranges (inclusive) of `#[cfg(test)]` modules.
    pub test_mod_lines: Vec<(usize, usize)>,
    /// Trimmed source lines, for finding snippets (index = line − 1).
    pub lines: Vec<String>,
    /// Parsed AST of the same comment-free token stream.
    pub ast: Vec<Item>,
}

impl FileModel {
    /// Lexes and models `src`.
    pub fn parse(rel: &str, src: &str) -> FileModel {
        let all = lex(src);
        let mut pragmas = Vec::new();
        for t in &all {
            if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                let body = t.text.trim().trim_start_matches('!').trim();
                if let Some(rest) = body.strip_prefix("dash-analyze::allow(") {
                    if let Some(end) = rest.find(')') {
                        pragmas.push(Pragma {
                            lint: rest[..end].trim().to_string(),
                            line: t.line,
                        });
                    }
                }
            }
        }
        let code: Vec<Tok> = all
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let (fns, test_mod_lines) = scan_items(&code);
        let ast = parser::parse_items(&code);
        FileModel {
            rel: rel.to_string(),
            code,
            fns,
            pragmas,
            test_mod_lines,
            lines: src.lines().map(|l| l.trim().to_string()).collect(),
            ast,
        }
    }

    /// The trimmed source text of `line` (1-based), for snippets.
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// The innermost function whose body contains code-token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body_start <= idx && idx <= f.body_end)
            .min_by_key(|f| f.body_end - f.body_start)
    }

    pub(crate) fn line_of(&self, idx: usize) -> usize {
        self.code.get(idx).map_or(0, |t| t.line)
    }

    /// Whether code-token `idx` is inside test-only code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.line_in_test(self.line_of(idx))
    }

    /// Whether source `line` (1-based) is inside test-only code (a
    /// `#[test]` fn or a `#[cfg(test)]` module).
    pub fn line_in_test(&self, line: usize) -> bool {
        if self
            .fns
            .iter()
            .any(|f| f.is_test && f.start_line <= line && line <= f.end_line)
        {
            return true;
        }
        self.test_mod_lines
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether a pragma suppresses `lint` at code token `idx`.
    pub fn allowed(&self, lint: &str, idx: usize) -> bool {
        self.allowed_line(lint, self.line_of(idx))
    }

    /// Whether a pragma suppresses `lint` at source `line` (1-based). A
    /// pragma applies to the function whose line span contains it, or —
    /// when written above an item — to the first function starting after
    /// the pragma line. Item-level code accepts a pragma anywhere within
    /// the preceding 5 lines.
    pub fn allowed_line(&self, lint: &str, line: usize) -> bool {
        let enclosing = self
            .fns
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line);
        let Some(f) = enclosing else {
            return self
                .pragmas
                .iter()
                .any(|p| p.lint == lint && p.line <= line && line - p.line <= 5);
        };
        self.pragmas.iter().any(|p| {
            p.lint == lint
                && ((f.start_line <= p.line && p.line <= f.end_line)
                    || (p.line < f.start_line
                        && !self
                            .fns
                            .iter()
                            .any(|g| g.start_line > p.line && g.start_line < f.start_line)))
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    Plain,
    Fn(usize),
    TestMod,
}

/// Single pass over the code tokens: tracks braces, attributes, `fn` and
/// `mod` items; returns function spans and test-module line ranges.
fn scan_items(code: &[Tok]) -> (Vec<FnSpan>, Vec<(usize, usize)>) {
    let mut fns: Vec<FnSpan> = Vec::new();
    let mut test_mods: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut test_depth = 0usize;
    let mut attr_is_test = false;
    // (name, line, is_test, paren depth at the `fn` keyword): a `{` deeper
    // than that is a struct pattern in the parameter list, not the body.
    let mut pending_fn: Option<(String, usize, bool, usize)> = None;
    let mut pending_test_mod = false;
    let mut mod_start_line = 0usize;
    // Paren/bracket nesting, so the `;` inside an array type in a
    // signature (`fn f(t: &[u64; 8])`) doesn't cancel the pending fn.
    let mut pdepth = 0usize;
    // Angle-bracket nesting between `fn` and its body, arrow-aware (the
    // `>` of `->` is not a closer), so a const-generic brace argument
    // (`-> Table<{N >> 1}>`) is not taken for the fn body.
    let mut adepth = 0usize;

    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('#') && code.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            // Attribute: collect idents to the matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            while j < code.len() {
                let a = &code[j];
                if a.is_punct('[') {
                    depth += 1;
                } else if a.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.kind == TokKind::Ident && a.text == "test" {
                    has_test = true;
                }
                j += 1;
            }
            attr_is_test |= has_test;
            i = j + 1;
            continue;
        }
        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    let is_test = attr_is_test || test_depth > 0;
                    pending_fn = Some((name.text.clone(), t.line, is_test, pdepth));
                }
                attr_is_test = false;
                adepth = 0;
            }
            TokKind::Ident if t.text == "mod" => {
                pending_test_mod = attr_is_test;
                mod_start_line = t.line;
                attr_is_test = false;
            }
            TokKind::Punct if t.is_punct('(') || t.is_punct('[') => {
                pdepth += 1;
            }
            TokKind::Punct if t.is_punct(')') || t.is_punct(']') => {
                pdepth = pdepth.saturating_sub(1);
            }
            TokKind::Punct if t.is_punct(';') && pdepth == 0 => {
                // Trait method signature or `mod foo;` — no body.
                pending_fn = None;
                pending_test_mod = false;
                adepth = 0;
            }
            TokKind::Punct if t.is_punct('<') && pending_fn.is_some() => {
                adepth += 1;
            }
            // The `>` of `->` closes nothing (the guard skips it; no
            // later arm matches a bare `>`, so falling through is inert).
            TokKind::Punct
                if t.is_punct('>')
                    && pending_fn.is_some()
                    && !(i > 0 && code[i - 1].is_punct('-')) =>
            {
                adepth = adepth.saturating_sub(1);
            }
            TokKind::Punct if t.is_punct('{') && pending_fn.is_some() && adepth > 0 => {
                // Const-generic argument brace inside the signature
                // (`Table<{N >> 1}>`): skip to its close, it is not the
                // fn body. (The `>>` inside decrements `adepth` harmlessly
                // — it saturates and the real closer re-saturates at 0.)
                i = crate::lints::matching(code, i, '{', '}');
            }
            TokKind::Punct if t.is_punct('{') => {
                adepth = 0;
                if let Some((name, line, is_test, _)) = pending_fn.take_if(|p| p.3 == pdepth) {
                    fns.push(FnSpan {
                        name,
                        body_start: i,
                        body_end: code.len().saturating_sub(1),
                        start_line: line,
                        end_line: t.line,
                        is_test,
                    });
                    stack.push(Frame::Fn(fns.len() - 1));
                } else if pending_test_mod {
                    pending_test_mod = false;
                    test_depth += 1;
                    test_mods.push((mod_start_line, usize::MAX));
                    stack.push(Frame::TestMod);
                } else {
                    stack.push(Frame::Plain);
                }
            }
            TokKind::Punct if t.is_punct('}') => match stack.pop() {
                Some(Frame::Fn(k)) => {
                    if let Some(f) = fns.get_mut(k) {
                        f.body_end = i;
                        f.end_line = t.line;
                    }
                }
                Some(Frame::TestMod) => {
                    test_depth = test_depth.saturating_sub(1);
                    if let Some(m) = test_mods.iter_mut().rev().find(|m| m.1 == usize::MAX) {
                        m.1 = t.line;
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    for m in &mut test_mods {
        if m.1 == usize::MAX {
            m.1 = code.last().map_or(m.0, |t| t.line);
        }
    }
    (fns, test_mods)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
// dash-analyze::allow(panic-free): demo pragma above item
fn top() { inner_call(); }

fn plain(v: Vec<u32>) -> u32 {
    // dash-analyze::allow(secure-indexing): demo inline
    v[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test() { assert!(true); }
}
"#;

    #[test]
    fn functions_and_tests_found() {
        let m = FileModel::parse("x.rs", SRC);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["top", "plain", "a_test"]);
        assert!(m.fns[2].is_test);
        assert!(!m.fns[0].is_test);
        assert_eq!(m.test_mod_lines.len(), 1);
    }

    #[test]
    fn pragmas_resolve_to_functions() {
        let m = FileModel::parse("x.rs", SRC);
        let top = m.fns.iter().find(|f| f.name == "top").unwrap();
        let plain = m.fns.iter().find(|f| f.name == "plain").unwrap();
        assert!(m.allowed("panic-free", top.body_start + 1));
        assert!(!m.allowed("panic-free", plain.body_start + 1));
        assert!(m.allowed("secure-indexing", plain.body_start + 1));
        assert!(!m.allowed("secure-indexing", top.body_start + 1));
    }

    #[test]
    fn array_type_semicolon_in_signature_keeps_fn() {
        // Regression: the `;` inside `[u64; 8]` used to cancel the
        // pending fn, hiding the function from every lint.
        let m = FileModel::parse(
            "x.rs",
            "fn lut(t: &[u64; 8]) -> [u8; 4] { body() }\nfn after() {}",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["lut", "after"]);
    }

    #[test]
    fn struct_pattern_in_a_parameter_is_not_the_body() {
        // Regression: the `{` of a destructuring parameter opened the fn
        // body, so the span ended at the pattern's `}`.
        let m = FileModel::parse(
            "x.rs",
            "fn wire(Frame { seq, tag }: Frame) -> Msg {\n    Msg { seq, tag }\n}\nfn after() {}",
        );
        let spans: Vec<(&str, usize, usize)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.start_line, f.end_line))
            .collect();
        assert_eq!(spans, vec![("wire", 1, 3), ("after", 4, 4)]);
    }

    #[test]
    fn const_generic_brace_in_signature_is_not_the_body() {
        // Regression: the `{` of a const-generic argument used to open
        // the fn body, so the body span ended at the argument's `}` and
        // everything after escaped the lints.
        let m = FileModel::parse(
            "x.rs",
            "fn lut<const N: usize>() -> Table<{ N >> 1 }> { body() }\nfn after() {}",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["lut", "after"]);
        assert_eq!(m.fns[0].end_line, 1);
        assert_eq!(m.fns[1].start_line, 2);
    }

    #[test]
    fn nested_generics_where_clause_and_impl_trait_params() {
        // `>>` closers, an `impl Fn() -> u64` arrow in the parameter
        // list, and a where-clause must all leave the spans intact.
        let src = "fn f<T: Iterator<Item = Vec<u64>>>(g: impl Fn() -> u64, v: Vec<Vec<u64>>) \
                   -> bool where T: Clone { g() > 0 }\nfn tail() { after(); }";
        let m = FileModel::parse("x.rs", src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["f", "tail"]);
        assert_eq!(m.fns[0].start_line, 1);
        assert_eq!(m.fns[1].start_line, 2);
        // Both bodies are properly delimited: token in f's body resolves
        // to f, token in tail's body to tail.
        assert_eq!(
            m.enclosing_fn(m.fns[0].body_start + 1).map(|x| &*x.name),
            Some("f")
        );
        assert_eq!(
            m.enclosing_fn(m.fns[1].body_start + 1).map(|x| &*x.name),
            Some("tail")
        );
    }

    #[test]
    fn in_test_detects_cfg_test_module() {
        let m = FileModel::parse("x.rs", SRC);
        let a = m.fns.iter().find(|f| f.name == "a_test").unwrap();
        assert!(m.in_test(a.body_start + 1));
        let top = m.fns.iter().find(|f| f.name == "top").unwrap();
        assert!(!m.in_test(top.body_start + 1));
    }
}
