//! A minimal Rust lexer: the comment-free token stream the parser, the
//! brace tracker and the tag-range rule read.
//!
//! What it must do is never mistake string or comment contents for code,
//! so it handles the complete literal grammar: nested block comments,
//! escapes, raw strings with arbitrary `#` fences, byte strings, and the
//! char-vs-lifetime ambiguity. Comments are skipped; nothing reads them.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (integer or the integer part of a float).
    Number,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// Whether this token is a specific single punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// Whether this token is a specific identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Lexes `src` into a flat token stream. Unterminated literals are
/// tolerated (the rest of the file becomes one token) — the analyzer must
/// never panic on weird input, it is itself a panic-free gate.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (text, nl) = scan_string(b, src, &mut i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line,
                });
                line += nl;
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (text, nl) = scan_raw_or_byte(b, src, &mut i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line,
                });
                line += nl;
            }
            // A quote, or the `b` of a byte literal (`b'x'`).
            b'\'' | b'b'
                if c == b'\'' || (b.get(i + 1) == Some(&b'\'') && !is_lifetime_at(b, i + 1)) =>
            {
                // Lifetime if 'ident not closed by a quote; else char.
                if is_lifetime_at(b, i) {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    let start = i;
                    i += if c == b'b' { 2 } else { 1 };
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: src[start..i.min(src.len())].to_string(),
                        line,
                    });
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Number,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Ordinary `"…"` string starting at `*i`; returns (contents, newlines).
fn scan_string(b: &[u8], src: &str, i: &mut usize) -> (String, usize) {
    let start = *i + 1;
    let mut nl = 0;
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            // An escaped newline (line continuation) is still a line: it
            // is left for the `\n` arm to count.
            b'\\' if b.get(*i + 1) != Some(&b'\n') => *i += 2,
            b'\n' => {
                nl += 1;
                *i += 1;
            }
            b'"' => {
                *i += 1;
                return (src[start..*i - 1].to_string(), nl);
            }
            _ => *i += 1,
        }
    }
    (src[start.min(src.len())..].to_string(), nl)
}

/// Whether position `i` starts `r"`, `r#`, `b"`, `br"`, or `br#`.
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    let after_prefix = |off: usize| -> bool { matches!(rest.get(off), Some(b'"') | Some(b'#')) };
    match rest.first() {
        Some(b'r') => after_prefix(1),
        Some(b'b') => match rest.get(1) {
            Some(b'"') => true,
            Some(b'r') => after_prefix(2),
            _ => false,
        },
        _ => false,
    }
}

/// Scans `r#"…"#` / `b"…"` style strings; returns (contents, newlines).
fn scan_raw_or_byte(b: &[u8], src: &str, i: &mut usize) -> (String, usize) {
    // Skip the r/b/br prefix.
    let mut raw = false;
    while *i < b.len() && (b[*i] == b'r' || b[*i] == b'b') {
        raw |= b[*i] == b'r';
        *i += 1;
    }
    let mut fences = 0usize;
    while *i < b.len() && b[*i] == b'#' {
        fences += 1;
        *i += 1;
    }
    if *i >= b.len() || b[*i] != b'"' {
        return (String::new(), 0);
    }
    *i += 1;
    let start = *i;
    let mut nl = 0;
    while *i < b.len() {
        match b[*i] {
            b'\\' if !raw && b.get(*i + 1) != Some(&b'\n') => *i += 2,
            b'\n' => {
                nl += 1;
                *i += 1;
            }
            b'"' => {
                // A raw string closes only when followed by its fences.
                let close_ok = (0..fences).all(|k| b.get(*i + 1 + k) == Some(&b'#'));
                if close_ok {
                    let text = src[start..*i].to_string();
                    *i += 1 + fences;
                    return (text, nl);
                }
                *i += 1;
            }
            _ => *i += 1,
        }
    }
    (src[start.min(src.len())..].to_string(), nl)
}

/// `'a` is a lifetime when the quote is followed by an identifier that is
/// not itself closed by another quote (`'a'` is a char literal).
fn is_lifetime_at(b: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    if j >= b.len() || !(b[j] == b'_' || b[j].is_ascii_alphabetic()) {
        return false;
    }
    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    b.get(j) != Some(&b'\'')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let toks = kinds(r#"let s = "unwrap()"; // unwrap() here"#);
        assert!(toks
            .iter()
            .all(|(k, t)| !(*k == TokKind::Ident && t == "unwrap")));
        let comment_free = kinds(r#"let s = "unwrap()"; /* x /* y */ z */ // w"#);
        assert_eq!(toks.len(), comment_free.len(), "{toks:?}");
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds(r##"let s = r#"a "quoted" b"#; x"##);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("quoted")));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "x"));
    }

    #[test]
    fn byte_literals_are_one_char_token() {
        // Regression: `b'"'` lexed as ident `b` + char, so a match arm
        // with a byte-literal pattern derailed the parser.
        let toks = lex(r#"match c { b'"' => 1, b'\'' => 2, b'a' => 3, _ => 4 }"#);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec![r#"b'"'"#, r"b'\''", "b'a'"]);
        assert!(!toks.iter().any(|t| t.is_ident("b")));
    }

    #[test]
    fn escaped_newline_in_a_string_still_counts_as_a_line() {
        // Regression: a `\`-continued string literal dropped a line, so
        // every later token (and finding) in the file was numbered low.
        let toks = lex("let s = \"a \\\n b\";\nlet t = b\"c \\\n d\";\nend");
        let end = toks.iter().find(|t| t.is_ident("end")).unwrap();
        assert_eq!(end.line, 5);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(c: char) { let x = 'y'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'y'"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ code");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].1, "code");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numbers_including_hex_and_underscores() {
        let toks = kinds("0xFF_u32 1_000 1 << 20");
        assert_eq!(toks[0], (TokKind::Number, "0xFF_u32".to_string()));
        assert_eq!(toks[1], (TokKind::Number, "1_000".to_string()));
    }
}
