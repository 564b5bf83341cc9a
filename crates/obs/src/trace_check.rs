//! Validator for `dash-trace/1` JSON exports (`dash trace check`).
//!
//! The trace format is the machine-readable output of `dash secure-scan
//! --trace-out` ([`crate::TraceHandle::export_json`]); CI's smoke stage
//! runs a small scan and feeds the file through this validator, so a
//! schema drift between the writer and its consumers fails the gate
//! instead of silently producing garbage dashboards. The counter keys are
//! the writer's own, [`Counter::ALL`]'s names.
//!
//! Checks, in order:
//! - the document parses and carries `"schema": "dash-trace/1"`;
//! - `n_parties` is a positive integer and the `counters` array has
//!   exactly one entry per party, in party order, each carrying every
//!   counter key as a non-negative integer (an integer literal, read
//!   exactly: counters past 2⁵³ are compared as `u64`s, not `f64`s);
//! - conservation: summed `bytes_sent` equals summed `bytes_received`
//!   and likewise for messages (every frame credits both sides at the
//!   transport's single accounting point);
//! - every span names a valid party, closes after it opens, and has a
//!   non-empty name; `dropped_spans` is a non-negative integer.

use crate::json::{parse_json, Json};
use crate::{Counter, N_COUNTERS};

/// Headline numbers of a valid trace, for the CLI's one-line report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    pub n_parties: usize,
    pub total_bytes: u64,
    pub n_spans: usize,
}

/// Validates a `dash-trace/1` document, returning its headline numbers
/// or every problem found (the list is never empty on `Err`).
pub fn validate_trace(src: &str) -> Result<TraceSummary, Vec<String>> {
    let doc = match parse_json(src) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let mut errs = Vec::new();
    match doc.get("schema").and_then(Json::as_str) {
        Some("dash-trace/1") => {}
        Some(other) => errs.push(format!(
            "unknown schema {other:?}, expected \"dash-trace/1\""
        )),
        None => errs.push("missing \"schema\" field".to_string()),
    }
    let n_parties = match doc.get("n_parties").and_then(Json::as_u64) {
        Some(n) if n >= 1 => n as usize,
        _ => {
            errs.push("\"n_parties\" must be a positive integer".to_string());
            0
        }
    };
    if doc.get("dropped_spans").and_then(Json::as_u64).is_none() {
        errs.push("\"dropped_spans\" must be a non-negative integer".to_string());
    }

    let mut sums = [0u64; N_COUNTERS];
    match doc.get("counters").and_then(Json::as_arr) {
        None => errs.push("missing \"counters\" array".to_string()),
        Some(rows) => {
            if n_parties > 0 && rows.len() != n_parties {
                errs.push(format!(
                    "counters array has {} entries for {n_parties} parties",
                    rows.len()
                ));
            }
            for (p, row) in rows.iter().enumerate() {
                if row.get("party").and_then(Json::as_u64) != Some(p as u64) {
                    errs.push(format!("counters[{p}] is not for party {p}"));
                }
                for counter in Counter::ALL {
                    let key = counter.name();
                    match row.get(key).and_then(Json::as_u64) {
                        Some(v) => {
                            if let Some(s) = sums.get_mut(counter.slot()) {
                                match s.checked_add(v) {
                                    Some(sum) => *s = sum,
                                    None => errs.push(format!("summed \"{key}\" overflows u64")),
                                }
                            }
                        }
                        None => errs.push(format!(
                            "counters[{p}] missing non-negative integer \"{key}\""
                        )),
                    }
                }
            }
        }
    }
    // Conservation at the transport accounting point: every frame adds
    // its bytes to the sender's sent and the receiver's received counter.
    let sum = |c: Counter| sums.get(c.slot()).copied().unwrap_or(0);
    let (sent, received) = (sum(Counter::BytesSent), sum(Counter::BytesReceived));
    let (msg_sent, msg_received) = (sum(Counter::MessagesSent), sum(Counter::MessagesReceived));
    if sent != received {
        errs.push(format!(
            "byte conservation violated: {sent} sent vs {received} received"
        ));
    }
    if msg_sent != msg_received {
        errs.push(format!(
            "message conservation violated: {msg_sent} sent vs {msg_received} received"
        ));
    }

    let mut n_spans = 0;
    match doc.get("spans").and_then(Json::as_arr) {
        None => errs.push("missing \"spans\" array".to_string()),
        Some(spans) => {
            n_spans = spans.len();
            for (i, s) in spans.iter().enumerate() {
                match s.get("party").and_then(Json::as_u64) {
                    Some(p) if n_parties == 0 || (p as usize) < n_parties => {}
                    _ => errs.push(format!("spans[{i}] has an out-of-range party")),
                }
                if s.get("name")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errs.push(format!("spans[{i}] has no name"));
                }
                let start = s.get("start_ns").and_then(Json::as_u64);
                let end = s.get("end_ns").and_then(Json::as_u64);
                match (start, end) {
                    (Some(a), Some(b)) if b >= a => {}
                    _ => errs.push(format!("spans[{i}] timestamps are not monotone integers")),
                }
                if s.get("depth").and_then(Json::as_u64).is_none() {
                    errs.push(format!("spans[{i}] missing depth"));
                }
            }
        }
    }

    if errs.is_empty() {
        Ok(TraceSummary {
            n_parties,
            total_bytes: sent,
            n_spans,
        })
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One party's counters: the given bytes, one message each way, and
    /// 0 for every other counter the writer has.
    fn counters_row(p: usize, sent: u64, received: u64) -> String {
        let value = |c: Counter| match c {
            Counter::BytesSent => sent,
            Counter::BytesReceived => received,
            Counter::MessagesSent | Counter::MessagesReceived => 1,
            _ => 0,
        };
        let cells: Vec<String> = Counter::ALL
            .iter()
            .map(|&c| format!(", \"{}\": {}", c.name(), value(c)))
            .collect();
        format!("{{\"party\": {p}{}}}", cells.concat())
    }

    fn doc(rows: &[String], spans: &str) -> String {
        format!(
            "{{\"schema\": \"dash-trace/1\", \"n_parties\": {}, \"dropped_spans\": 0, \
             \"counters\": [{}], \"spans\": [{spans}]}}",
            rows.len(),
            rows.join(", ")
        )
    }

    #[test]
    fn valid_trace_accepted() {
        let src = doc(
            &[counters_row(0, 100, 50), counters_row(1, 50, 100)],
            "{\"party\": 0, \"name\": \"scan\", \"index\": null, \"depth\": 0, \
             \"start_ns\": 5, \"end_ns\": 90}",
        );
        let s = validate_trace(&src).unwrap();
        assert_eq!(
            s,
            TraceSummary {
                n_parties: 2,
                total_bytes: 150,
                n_spans: 1
            }
        );
    }

    #[test]
    fn conservation_violation_rejected() {
        let src = doc(&[counters_row(0, 100, 50), counters_row(1, 50, 90)], "");
        let errs = validate_trace(&src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("byte conservation")),
            "{errs:?}"
        );
    }

    #[test]
    fn wrong_schema_and_party_mismatch_rejected() {
        let src = "{\"schema\": \"dash-trace/2\", \"n_parties\": 3, \"dropped_spans\": 0, \
                   \"counters\": [], \"spans\": []}";
        let errs = validate_trace(src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("unknown schema")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("3 parties")), "{errs:?}");
    }

    #[test]
    fn missing_counter_key_and_bad_span_rejected() {
        let row = "{\"party\": 0, \"bytes_sent\": 10}".to_string();
        let src = format!(
            "{{\"schema\": \"dash-trace/1\", \"n_parties\": 1, \"dropped_spans\": 0, \
             \"counters\": [{row}], \"spans\": [{{\"party\": 4, \"name\": \"\", \
             \"index\": null, \"depth\": 0, \"start_ns\": 9, \"end_ns\": 3}}]}}"
        );
        let errs = validate_trace(&src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("bytes_received")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("out-of-range party")));
        assert!(errs.iter().any(|e| e.contains("no name")));
        assert!(errs.iter().any(|e| e.contains("not monotone")));
    }

    #[test]
    fn garbage_rejected() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{}").is_err());
    }

    /// Counters past 2⁵³ are compared exactly: one byte apart there, an
    /// `f64` reading would round both to 2⁵³ and call the trace valid.
    #[test]
    fn counters_past_2_pow_53_are_exact() {
        let (big, bigger) = (9_007_199_254_740_992_u64, 9_007_199_254_740_993_u64);
        let src = doc(&[counters_row(0, bigger, 0), counters_row(1, 0, big)], "");
        let errs = validate_trace(&src).unwrap_err();
        let want = format!("byte conservation violated: {bigger} sent vs {big} received");
        assert!(errs.contains(&want), "{errs:?}");
        let src = doc(
            &[counters_row(0, bigger, 0), counters_row(1, 0, bigger)],
            "",
        );
        assert_eq!(validate_trace(&src).unwrap().total_bytes, bigger);
        for bad in ["1.0", "-1", "1e3", "18446744073709551616"] {
            let row = counters_row(0, 5, 5)
                .replace("\"bytes_sent\": 5", &format!("\"bytes_sent\": {bad}"));
            let errs = validate_trace(&doc(&[row], "")).unwrap_err();
            assert!(
                errs.iter()
                    .any(|e| e.contains("missing non-negative integer \"bytes_sent\"")),
                "{bad}: {errs:?}"
            );
        }
    }

    #[test]
    fn counter_sums_past_u64_are_an_error() {
        let big = counters_row(0, u64::MAX, u64::MAX);
        let src = doc(&[big.clone(), big], "");
        let errs = validate_trace(&src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("\"bytes_sent\" overflows")),
            "{errs:?}"
        );
    }

    /// Arbitrary bytes, and a valid trace with bytes overwritten, each
    /// end in `Ok` or `Err`: the validator never panics on its input.
    #[test]
    fn arbitrary_and_corrupted_traces_never_panic() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const ALPHABET: &[u8] = "{}[],:\"\\ 0123456789.eE+-tfnulrsaéx".as_bytes();
        for _ in 0..2_000 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match next() % 4 {
                    0 => next() as u8,
                    _ => ALPHABET[(next() % ALPHABET.len() as u64) as usize],
                })
                .collect();
            let _ = validate_trace(&String::from_utf8_lossy(&bytes));
        }
        let valid = doc(
            &[counters_row(0, 100, 50), counters_row(1, 50, 100)],
            "{\"party\": 0, \"name\": \"scan\", \"index\": null, \"depth\": 0, \
             \"start_ns\": 5, \"end_ns\": 90}",
        );
        assert!(validate_trace(&valid).is_ok());
        for _ in 0..2_000 {
            let mut bytes = valid.clone().into_bytes();
            for _ in 0..1 + next() % 4 {
                let at = (next() % bytes.len() as u64) as usize;
                bytes[at] = match next() % 2 {
                    0 => next() as u8,
                    _ => ALPHABET[(next() % ALPHABET.len() as u64) as usize],
                };
            }
            let _ = validate_trace(&String::from_utf8_lossy(&bytes));
        }
    }
}
