//! Report rendering. Every finding that reaches a renderer fails the
//! gate: pragma-suppressed sites are dropped by the passes themselves.

use crate::{json::json_str, Finding};
use std::fmt::Write as _;

/// Human-readable report.
pub fn render_text(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
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
    let _ = writeln!(s, "dash-analyze: {} findings", findings.len());
    if findings.is_empty() {
        let _ = writeln!(s, "dash-analyze: PASS");
    } else {
        let _ = writeln!(
            s,
            "dash-analyze: FAIL — fix the findings or add a `// dash-analyze::allow(<lint>): \
             reason` pragma"
        );
    }
    s
}

/// GitHub Actions workflow-command annotations: one `::error` line per
/// finding, so findings show inline on the PR diff. Message text is
/// percent-encoded per the workflow-command escaping rules (`%` → `%25`,
/// newline → `%0A`, carriage return → `%0D`). A plain summary line
/// follows for the log.
pub fn render_github(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    }
    let mut s = String::new();
    for f in findings {
        let _ = writeln!(
            s,
            "::error file={},line={},title=dash-analyze[{}]::{}",
            f.file,
            f.line,
            f.lint,
            esc(&f.message)
        );
    }
    let _ = writeln!(s, "dash-analyze: {} findings", findings.len());
    s
}

/// Machine-readable report (one JSON document on stdout).
pub fn render_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"function\": {}, \
             \"message\": {}, \"snippet\": {}}}",
            json_str(f.lint),
            json_str(&f.file),
            f.line,
            json_str(&f.function),
            json_str(&f.message),
            json_str(&f.snippet),
        );
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    let _ = write!(
        s,
        "],\n  \"summary\": {{\"findings\": {}, \"pass\": {}}}\n}}\n",
        findings.len(),
        findings.is_empty()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = render_text(&[f("panic-free", "a.unwrap()"), f("secure-indexing", "v[0]")]);
        assert!(s.contains("FAIL"), "{s}");
        assert!(
            s.contains("error[secure-indexing] crates/mpc/src/x.rs:3 (in fn g)"),
            "{s}"
        );
        assert!(render_text(&[]).contains("PASS"));
    }

    #[test]
    fn github_annotations_escape_workflow_commands() {
        let mut bad = f("panic-free", "a.unwrap()");
        bad.message = "50% of cases\nbreak".to_string();
        let s = render_github(&[bad]);
        assert!(
            s.contains("::error file=crates/mpc/src/x.rs,line=3,title=dash-analyze[panic-free]::"),
            "{s}"
        );
        assert!(s.contains("50%25 of cases%0Abreak"), "{s}");
        assert!(!render_github(&[]).contains("::error"));
    }

    #[test]
    fn json_report_is_parseable() {
        let v = crate::json::parse_json(&render_json(&[f("panic-free", "a.unwrap()")])).unwrap();
        let list = v.get("findings").and_then(|l| l.as_arr()).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0].get("lint").and_then(|l| l.as_str()),
            Some("panic-free")
        );
        let empty = crate::json::parse_json(&render_json(&[])).unwrap();
        let summary = empty.get("summary").unwrap();
        assert_eq!(summary.get("pass"), Some(&crate::json::Json::Bool(true)));
    }
}
