//! What the two dump readers share: the JSON reader, the JSONL loader
//! skeleton and the label-matched run pairing behind `tracectl diff`
//! and `metricsctl diff`.
//!
//! The crate has no serde; a small hand-rolled recursive-descent JSON
//! parser covers the JSONL lines of both dumps and (for schema checks)
//! the Chrome JSON file. Every numeric value a dump contains is well
//! below 2^53, so `f64` round-trips them exactly. The parser recurses
//! once per array/object level, so nesting is capped at [`MAX_DEPTH`]:
//! malformed input gets an error naming the byte, never a stack
//! overflow.

use std::fmt::Write as _;

/// `node3`, or `cluster` for the cluster-wide `-1`: the tracer's lane
/// names, so reports name nodes the way the Chrome dump does.
pub use simcore::tracer::lane_name as node_name;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (trace values are < 2^53, so f64 is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as i64, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A member every line of its kind must carry, as u64.
    pub fn need_u64(&self, key: &str) -> Result<u64, String> {
        let member = self.get(key).and_then(Json::as_u64);
        member.ok_or_else(|| format!("missing {key}"))
    }

    /// A member every line of its kind must carry, as a string.
    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        let member = self.get(key).and_then(Json::as_str);
        member.ok_or_else(|| format!("missing {key}"))
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. A dump line nests
/// three levels deep at most; anything near this is not a dump.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value at `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        *pos += 4;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Traces only escape control chars; surrogate
                        // pairs never appear. Reject rather than mangle.
                        let c = char::from_u32(cp).ok_or("surrogate in \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".into())
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // {
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

/// Walks a JSONL dump: one run-header line (`"kind":"run"`) per run,
/// in run-index order, each followed by that run's records. `on_header`
/// builds a run from its header; `on_record` adds one record — its
/// `kind` and the parsed line — to the run the line names. Errors come
/// back prefixed with the line number.
pub fn for_each_record<R>(
    text: &str,
    mut on_header: impl FnMut(&Json) -> Result<R, String>,
    mut on_record: impl FnMut(&mut R, String, Json) -> Result<(), String>,
) -> Result<Vec<R>, String> {
    let mut runs: Vec<R> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: String| format!("line {}: {what}", lineno + 1);
        let v = parse(line).map_err(at)?;
        let run = v.need_u64("run").map_err(at)? as usize;
        let kind = v.need_str("kind").map_err(at)?.to_string();
        if kind == "run" {
            if run != runs.len() {
                return Err(at(format!(
                    "run header {run} out of order (have {})",
                    runs.len()
                )));
            }
            runs.push(on_header(&v).map_err(at)?);
        } else {
            let target = runs
                .get_mut(run)
                .ok_or_else(|| at(format!("{kind} before its run header")))?;
            on_record(target, kind, v).map_err(at)?;
        }
    }
    Ok(runs)
}

/// The sweep label a run header carries (empty when absent).
pub fn header_label(header: &Json) -> String {
    header
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Renders a two-dump A/B diff. Runs are matched by *label* (first
/// unmatched B run with the same label, in A order), not by position:
/// sweeps that added, removed, or reordered configurations still diff
/// the comparable runs against each other. When the two label sequences
/// differ a warning line (naming the dumps by `noun`) says so; when
/// they are identical the output is exactly a positional diff.
pub fn diff_runs<R>(
    a: &[R],
    b: &[R],
    noun: &str,
    label_of: impl Fn(&R) -> &str,
    diff_pair: impl Fn(&mut String, &R, &R),
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff: A has {} run(s), B has {} run(s)",
        a.len(),
        b.len()
    );
    let labels_match =
        a.len() == b.len() && a.iter().zip(b).all(|(ra, rb)| label_of(ra) == label_of(rb));
    if !labels_match {
        let _ = writeln!(
            out,
            "warning: run labels differ between {noun}; matching runs by label, not position"
        );
    }
    let mut used_b = vec![false; b.len()];
    for (i, ra) in a.iter().enumerate() {
        let label = label_of(ra);
        let matched = b
            .iter()
            .enumerate()
            .position(|(j, rb)| !used_b[j] && label_of(rb) == label);
        let _ = writeln!(out);
        match matched {
            Some(j) => {
                used_b[j] = true;
                if j == i {
                    let _ = writeln!(out, "== run {i}: A={label} | B={}", label_of(&b[j]));
                } else {
                    let _ = writeln!(
                        out,
                        "== run {i}: A={label} | B={} (B run {j})",
                        label_of(&b[j])
                    );
                }
                diff_pair(&mut out, ra, &b[j]);
            }
            None => {
                let _ = writeln!(out, "== run {i}: only in A ({label})");
            }
        }
    }
    for (j, rb) in b.iter().enumerate() {
        if !used_b[j] {
            let _ = writeln!(out);
            let _ = writeln!(out, "== run {j}: only in B ({})", label_of(rb));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parser_round_trips_values() {
        let v = parse(r#"{"a":1,"b":-2.5,"c":"x\"y\n","d":[true,false,null],"e":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b"), Some(&Json::Num(-2.5)));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("d").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_handles_unicode_escapes() {
        let v = parse(r#""a	b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\tb"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // One line of 300 000 `[` overflowed the main thread's stack.
        let err = parse(&"[".repeat(300_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let err = parse(&r#"{"a":"#.repeat(200)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 640");
        // The cap itself still parses.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
    }

    /// A `shed` record of a `service --scale --quick` trace and its
    /// Chrome twin row (nested `args`), verbatim.
    const RECORDS: [&str; 2] = [
        r#"{"run":0,"id":471,"kind":"shed","node":-1,"scope":null,"ts":4325963,"dur":0,"tenant":4668,"reason":"deadline"}"#,
        r#"{"name":"shed.deadline","ph":"i","s":"t","pid":0,"tid":-1,"ts":4325963,"args":{"id":471,"scope":null,"tenant":4668,"reason":"deadline"}}"#,
    ];

    /// JSON's structural characters, escapes and literals' letters, a
    /// few numbers' characters, and multi-byte UTF-8.
    const ALPHABET: [char; 28] = [
        '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\n', 'u', 'n', 't', 'r', 'f', 'a', 'l', 's',
        'e', 'E', '0', '7', '-', '+', '.', 'x', 'é', '😀',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn parse_never_panics_on_arbitrary_strings(
            picks in proptest::collection::vec(0..ALPHABET.len(), 0..200),
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let _ = parse(&text);
        }

        #[test]
        fn parse_never_panics_on_damaged_records(
            which in 0..RECORDS.len(),
            cut in 0usize..160,
            flips in proptest::collection::vec((0usize..160, 1u8..=255), 0..4),
        ) {
            let record = RECORDS[which];
            let mut bytes = record.as_bytes()[..cut.min(record.len())].to_vec();
            for (at, mask) in flips {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= mask;
                }
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn real_records_parse() {
        for record in RECORDS {
            let v = parse(record).expect("a real record parses");
            assert_eq!(v.get("ts").and_then(Json::as_u64), Some(4_325_963));
        }
    }
}
