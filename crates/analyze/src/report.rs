//! Report rendering. Every finding fails the gate.

use crate::Report;
use std::fmt::Write as _;

/// Human-readable report. The verdict line states what was covered, so a
/// pass over a shrunken AST shows in the log.
pub fn render_text(r: &Report) -> String {
    let mut s = String::new();
    for f in &r.findings {
        let _ = writeln!(
            s,
            "error[{}] {}:{}{}",
            f.lint,
            f.file,
            f.line,
            if f.function.is_empty() {
                String::new()
            } else {
                format!(" (in fn {})", f.function)
            }
        );
        let _ = writeln!(s, "  {}", f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(s, "  > {}", f.snippet);
        }
    }
    let covered = format!(
        "{} findings over {} functions in {} files",
        r.findings.len(),
        r.functions,
        r.files
    );
    if r.findings.is_empty() {
        let _ = writeln!(s, "dash-analyze: PASS — {covered}");
    } else {
        let _ = writeln!(s, "dash-analyze: FAIL — {covered}; fix the findings");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn f(lint: &'static str, snippet: &str) -> Finding {
        Finding {
            lint,
            file: "crates/mpc/src/x.rs".to_string(),
            line: 3,
            function: "g".to_string(),
            message: "msg".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn any_finding_fails_none_passes() {
        let mut r = Report {
            findings: vec![
                f("constant-time", "if share.0 > 3 {"),
                f("tag-range", "const MY_TAG: u32 = 7;"),
            ],
            files: 1,
            functions: 7,
        };
        let s = render_text(&r);
        assert!(
            s.contains("FAIL — 2 findings over 7 functions in 1 files"),
            "{s}"
        );
        assert!(
            s.contains("error[tag-range] crates/mpc/src/x.rs:3 (in fn g)"),
            "{s}"
        );
        r.findings.clear();
        assert!(render_text(&r).contains("PASS — 0 findings over 7 functions in 1 files"));
    }
}
