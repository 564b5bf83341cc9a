//! Validator for `dash-trace/1` JSON exports (`--validate-trace`).
//!
//! The trace format is the machine-readable output of `dash secure-scan
//! --trace-out`; CI's smoke stage runs a small scan and feeds the file
//! through this validator, so a schema drift between `dash-obs` and its
//! consumers fails the gate instead of silently producing garbage
//! dashboards.
//!
//! Checks, in order:
//! - the document parses and carries `"schema": "dash-trace/1"`;
//! - `n_parties` is a positive integer and the `counters` array has
//!   exactly one entry per party, in party order, each carrying every
//!   counter key as a non-negative integer;
//! - conservation: summed `bytes_sent` equals summed `bytes_received`
//!   and likewise for messages (every frame credits both sides at the
//!   transport's single accounting point);
//! - every span names a valid party, closes after it opens, and has a
//!   non-empty name; `dropped_spans` is a non-negative integer.

use crate::json::{parse_json, Json};

/// Counter keys every per-party counters object must carry (mirrors
/// `dash_obs::Counter::ALL` — update both together).
pub const COUNTER_KEYS: [&str; 11] = [
    "bytes_sent",
    "bytes_received",
    "messages_sent",
    "messages_received",
    "retries",
    "timeouts",
    "triples_consumed",
    "opened_scalars",
    "heartbeats_sent",
    "reconnects",
    "resumes",
];

/// Headline numbers of a valid trace, for the CLI's one-line report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    pub n_parties: usize,
    pub total_bytes: u64,
    pub n_spans: usize,
}

/// Reads `v` as a non-negative integer (the trace writes plain u64s).
fn as_count(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    if n >= 0.0 && n.fract() == 0.0 {
        Some(n as u64)
    } else {
        None
    }
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
    let n_parties = match doc.get("n_parties").and_then(as_count) {
        Some(n) if n >= 1 => n as usize,
        _ => {
            errs.push("\"n_parties\" must be a positive integer".to_string());
            0
        }
    };
    if doc.get("dropped_spans").and_then(as_count).is_none() {
        errs.push("\"dropped_spans\" must be a non-negative integer".to_string());
    }

    let mut sums = [0u64; COUNTER_KEYS.len()];
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
                if row.get("party").and_then(as_count) != Some(p as u64) {
                    errs.push(format!("counters[{p}] is not for party {p}"));
                }
                for (slot, key) in COUNTER_KEYS.iter().enumerate() {
                    match row.get(key).and_then(as_count) {
                        Some(v) => {
                            if let Some(s) = sums.get_mut(slot) {
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
    let [sent, received, msg_sent, msg_received, ..] = sums;
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
                match s.get("party").and_then(as_count) {
                    Some(p) if n_parties == 0 || (p as usize) < n_parties => {}
                    _ => errs.push(format!("spans[{i}] has an out-of-range party")),
                }
                if s.get("name")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errs.push(format!("spans[{i}] has no name"));
                }
                let start = s.get("start_ns").and_then(as_count);
                let end = s.get("end_ns").and_then(as_count);
                match (start, end) {
                    (Some(a), Some(b)) if b >= a => {}
                    _ => errs.push(format!("spans[{i}] timestamps are not monotone integers")),
                }
                if s.get("depth").and_then(as_count).is_none() {
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

    fn counters_row(p: usize, sent: u64, received: u64) -> String {
        format!(
            "{{\"party\": {p}, \"bytes_sent\": {sent}, \"bytes_received\": {received}, \
             \"messages_sent\": 1, \"messages_received\": 1, \"retries\": 0, \
             \"timeouts\": 0, \"triples_consumed\": 0, \"opened_scalars\": 0, \
             \"heartbeats_sent\": 0, \"reconnects\": 0, \"resumes\": 0}}"
        )
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
