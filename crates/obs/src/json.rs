//! Hand-rolled JSON reader (no serde: this crate is std-only):
//! [`parse_json`] reads `dash-trace/1` exports for the validator in
//! [`crate::trace_check`].

/// Minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    /// An integer literal (no sign, `.` or exponent) that fits a `u64`,
    /// kept exactly: trace counters pass 2⁵³, where an `f64` rounds.
    Int(u64),
    /// Any other number.
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The value as a count: an integer literal, exact up to `u64::MAX`
    /// (the trace writes plain u64s). A fractional, negative or larger
    /// number is none.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// How deep arrays and objects may nest. A `dash-trace/1` export nests
/// four levels; the bound keeps a hostile file from overflowing the
/// parser's stack.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse_json(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let v = parse_value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    if matches!(b.get(*i), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {i}"
        ));
    }
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let k = parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                let v = parse_value(b, i, depth + 1)?;
                fields.push((k, v));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, i)?)),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            // Only digits parse as a `u64`: the branch starts at a digit or
            // `-`, and a sign, `.` or exponent fails the integer parse.
            let text = std::str::from_utf8(&b[start..*i]).unwrap_or_default();
            match text.parse::<u64>() {
                Ok(n) => Ok(Json::Int(n)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number at byte {start}")),
            }
        }
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    let mut out = String::new();
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                        out.push(hex);
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
                *i += 1;
            }
            _ => {
                // Copy the run up to the next quote or escape at once:
                // both are ASCII, so the run ends on a char boundary.
                let run = b.get(*i..).unwrap_or_default();
                let len = run
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(run.len());
                let text = run.get(..len).unwrap_or_default();
                out.push_str(
                    std::str::from_utf8(text).map_err(|_| format!("invalid utf-8 at byte {i}"))?,
                );
                *i += len;
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let v = parse_json("{\"k\": \"a\\\"b\\\\c\\nd\", \"n\": [1, 2.5], \"t\": true}").unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].1.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn integers_are_exact_and_other_numbers_are_not_integers() {
        let v = parse_json("[9007199254740993, 18446744073709551615, 0]").unwrap();
        let ints: Vec<_> = v.as_arr().unwrap().iter().map(Json::as_u64).collect();
        assert_eq!(ints, [Some(9_007_199_254_740_993), Some(u64::MAX), Some(0)]);
        for text in ["18446744073709551616", "-1", "1.0", "1e3", "+1", "-0"] {
            let n = parse_json(text).unwrap_or(Json::Null);
            assert_eq!(n.as_u64(), None, "{text}");
        }
        assert!(parse_json("1.5.2").is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn strings_copy_multibyte_text_and_escapes() {
        let v = parse_json("[\"añ→𝄞\\n\\u00e9x\", \"\"]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("añ→𝄞\néx"));
        assert_eq!(items[1].as_str(), Some(""));
        assert!(parse_json("\"open").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"k\": ".repeat(100_000);
        assert!(parse_json(&objects)
            .unwrap_err()
            .contains("nesting deeper than"));
        // The bound itself parses.
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&past).is_err());
    }
}
