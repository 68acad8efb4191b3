//! Minimal JSON writer, parser and schema validator for the benchmark artifacts.
//!
//! The repository has no serde (offline build), so the bench binaries that persist
//! machine-readable results (`perf_trajectory` writing `BENCH_<n>.json`) construct a
//! [`Value`] tree, serialize it with [`Value::to_json`], and — before exiting
//! successfully — re-read and re-validate their own output with [`parse`] plus a
//! schema check.  A malformed artifact is a bug, and the binary exits nonzero so CI
//! catches it.
//!
//! The dialect is full JSON on the parse side (objects, arrays, strings with escapes,
//! numbers, booleans, null) with two deliberate restrictions on the write side: all
//! numbers must be finite (NaN/infinity panic instead of emitting invalid JSON), and
//! object keys preserve insertion order so the emitted files diff cleanly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as, and emitted from, an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved for stable output.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes the value as pretty-printed JSON (2-space indent, `\n` line ends).
    ///
    /// # Panics
    /// Panics on non-finite numbers: JSON cannot represent them, and silently writing
    /// `null` would defeat the self-validation the bench binaries rely on.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                assert!(x.is_finite(), "JSON cannot represent non-finite number {x}");
                // Rust's shortest round-trip float formatting; integers print bare.
                let _ = write!(out, "{x}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
/// Returns a message with the byte offset of the first syntax error, including
/// trailing garbage after the document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
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

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut s = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (the input came from a &str, so the
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or_else(|| "unterminated string".to_string())?;
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    let mut seen = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        if seen.insert(key.clone(), ()).is_some() {
            return Err(format!("duplicate key '{key}'"));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        pairs.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Validates a `BENCH_<n>.json` document produced by `perf_trajectory` against the
/// schema documented in `DESIGN.md` (§ "Performance trajectory").
///
/// # Errors
/// Returns a description of the first violated constraint.
pub fn validate_perf_trajectory(doc: &Value) -> Result<(), String> {
    let require_num = |parent: &Value, section: &str, key: &str| -> Result<f64, String> {
        parent
            .get(key)
            .ok_or_else(|| format!("{section}: missing key '{key}'"))?
            .as_num()
            .ok_or_else(|| format!("{section}.{key}: not a finite number"))
    };
    let require_nonneg = |parent: &Value, section: &str, key: &str| -> Result<f64, String> {
        let x = require_num(parent, section, key)?;
        if x < 0.0 {
            return Err(format!("{section}.{key}: negative ({x})"));
        }
        Ok(x)
    };

    if doc.get("bench").and_then(Value::as_str) != Some("perf_trajectory") {
        return Err("top level: 'bench' must be \"perf_trajectory\"".to_string());
    }
    require_nonneg(doc, "top level", "issue")?;
    let threads = require_num(doc, "top level", "threads")?;
    if threads < 1.0 {
        return Err(format!("top level: 'threads' must be >= 1, got {threads}"));
    }
    let available = require_num(doc, "top level", "available_parallelism")?;
    if available < 1.0 || available.fract() != 0.0 {
        return Err(format!(
            "top level: 'available_parallelism' must be a positive integer, got {available}"
        ));
    }
    match doc.get("oversubscribed") {
        Some(&Value::Bool(flag)) if flag == (threads > available) => {}
        Some(Value::Bool(flag)) => {
            return Err(format!(
                "top level: 'oversubscribed' {flag} inconsistent with {threads} threads on \
                 {available} available"
            ))
        }
        _ => return Err("top level: missing boolean 'oversubscribed'".to_string()),
    }
    let scale = doc
        .get("scale")
        .and_then(Value::as_str)
        .ok_or_else(|| "top level: missing string 'scale'".to_string())?;
    if !matches!(scale, "quick" | "default" | "full") {
        return Err(format!("top level: unknown scale '{scale}'"));
    }

    let problem = doc.get("problem").ok_or_else(|| "missing 'problem'".to_string())?;
    for key in ["dofs_per_subdomain", "num_subdomains", "num_lambdas"] {
        let x = require_num(problem, "problem", key)?;
        if x < 1.0 || x.fract() != 0.0 {
            return Err(format!("problem.{key}: must be a positive integer, got {x}"));
        }
    }

    let phases = doc.get("phases").ok_or_else(|| "missing 'phases'".to_string())?;
    for key in ["preprocess_s", "factor_s", "assemble_s", "apply_s", "solve_s"] {
        require_nonneg(phases, "phases", key)?;
    }

    let kernels = doc.get("kernels").ok_or_else(|| "missing 'kernels'".to_string())?;
    for name in ["syrk", "trsm", "symm", "symv"] {
        let k = kernels.get(name).ok_or_else(|| format!("kernels: missing kernel '{name}'"))?;
        let section = format!("kernels.{name}");
        let scalar = require_nonneg(k, &section, "scalar_baseline_s")?;
        let blocked = require_nonneg(k, &section, "blocked_s")?;
        let speedup = require_nonneg(k, &section, "speedup")?;
        if blocked > 0.0 && (speedup - scalar / blocked).abs() > 1e-9 * speedup.max(1.0) {
            return Err(format!(
                "{section}: speedup {speedup} inconsistent with {scalar}/{blocked}"
            ));
        }
    }

    let sparse =
        doc.get("sparse_assembly").ok_or_else(|| "missing 'sparse_assembly'".to_string())?;
    let dense_s = require_nonneg(sparse, "sparse_assembly", "dense_assemble_s")?;
    let sparse_s = require_nonneg(sparse, "sparse_assembly", "sparse_assemble_s")?;
    let speedup = require_nonneg(sparse, "sparse_assembly", "speedup")?;
    if sparse_s > 0.0 && (speedup - dense_s / sparse_s).abs() > 1e-9 * speedup.max(1.0) {
        return Err(format!(
            "sparse_assembly: speedup {speedup} inconsistent with {dense_s}/{sparse_s}"
        ));
    }
    let frac = require_nonneg(sparse, "sparse_assembly", "boundary_fraction")?;
    if frac > 1.0 {
        return Err(format!("sparse_assembly.boundary_fraction: above 1 ({frac})"));
    }

    let service = doc.get("service").ok_or_else(|| "missing 'service'".to_string())?;
    let jobs = require_num(service, "service", "jobs")?;
    let hits = require_num(service, "service", "cache_hits")?;
    let misses = require_num(service, "service", "cache_misses")?;
    for (key, x) in [("jobs", jobs), ("cache_hits", hits), ("cache_misses", misses)] {
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("service.{key}: must be a non-negative integer, got {x}"));
        }
    }
    if hits + misses != jobs {
        return Err(format!(
            "service: cache_hits {hits} + cache_misses {misses} must equal jobs {jobs}"
        ));
    }
    // Cached times can measure as zero at the clock's resolution; the emitter floors
    // the denominator at 1 ns before forming the ratio, and the consistency check
    // applies the same floor.
    for (cold_key, cached_key, speedup_key) in [
        ("cold_preprocess_s", "cached_preprocess_s", "preprocess_speedup"),
        ("cold_latency_s", "cached_latency_s", "latency_speedup"),
    ] {
        let cold = require_nonneg(service, "service", cold_key)?;
        let cached = require_nonneg(service, "service", cached_key)?;
        let speedup = require_nonneg(service, "service", speedup_key)?;
        let expected = cold / cached.max(1e-9);
        if (speedup - expected).abs() > 1e-9 * speedup.max(1.0) {
            return Err(format!(
                "service: {speedup_key} {speedup} inconsistent with {cold}/{cached}"
            ));
        }
    }

    // Observability: the tracing layer's cost on the apply microbench.  The enabled
    // overhead is the measured enabled/disabled ratio minus one (clamped at zero:
    // both times carry noise and the difference can measure slightly negative); the
    // disabled overhead is analytic — events per apply times the measured per-call
    // cost of a disabled span, over the disabled apply time — so it stays
    // noise-immune even at quick scale.
    let obs = doc.get("observability").ok_or_else(|| "missing 'observability'".to_string())?;
    let applies = require_num(obs, "observability", "applies_per_call")?;
    if applies < 1.0 || applies.fract() != 0.0 {
        return Err(format!(
            "observability.applies_per_call: must be a positive integer, got {applies}"
        ));
    }
    let disabled = require_nonneg(obs, "observability", "apply_disabled_s")?;
    let enabled = require_nonneg(obs, "observability", "apply_enabled_s")?;
    let events = require_nonneg(obs, "observability", "events_per_apply")?;
    let probe = require_nonneg(obs, "observability", "disabled_probe_s")?;
    let enabled_overhead = require_nonneg(obs, "observability", "enabled_overhead")?;
    let expected = (enabled / disabled.max(1e-9) - 1.0).max(0.0);
    if (enabled_overhead - expected).abs() > 1e-9 * enabled_overhead.max(1.0) {
        return Err(format!(
            "observability: enabled_overhead {enabled_overhead} inconsistent with \
             {enabled}/{disabled} - 1"
        ));
    }
    let disabled_overhead = require_nonneg(obs, "observability", "disabled_overhead")?;
    let expected = events * probe / disabled.max(1e-9);
    if (disabled_overhead - expected).abs() > 1e-9 * disabled_overhead.max(1.0) {
        return Err(format!(
            "observability: disabled_overhead {disabled_overhead} inconsistent with \
             {events} * {probe} / {disabled}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Value::obj(vec![
            ("name", Value::Str("perf \"quoted\"\n".to_string())),
            ("xs", Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5e-7), Value::Bool(true)])),
            ("nested", Value::obj(vec![("empty_arr", Value::Arr(vec![])), ("n", Value::Null)])),
        ]);
        let text = doc.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0, 1.0, -1.5, 1e-300, 123456789.123456, 2.2250738585072014e-308] {
            let text = Value::Num(x).to_json();
            let back = parse(&text).unwrap();
            assert_eq!(back.as_num().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in
            ["{", "[1,]", "{\"a\": }", "tru", "\"unterminated", "{} garbage", "{\"a\":1,\"a\":2}"]
        {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    fn minimal_valid() -> Value {
        let kernel = |s: f64, b: f64| {
            Value::obj(vec![
                ("scalar_baseline_s", Value::Num(s)),
                ("blocked_s", Value::Num(b)),
                ("speedup", Value::Num(s / b)),
            ])
        };
        Value::obj(vec![
            ("bench", Value::Str("perf_trajectory".to_string())),
            ("issue", Value::Num(6.0)),
            ("scale", Value::Str("quick".to_string())),
            ("threads", Value::Num(4.0)),
            ("available_parallelism", Value::Num(2.0)),
            ("oversubscribed", Value::Bool(true)),
            (
                "problem",
                Value::obj(vec![
                    ("dofs_per_subdomain", Value::Num(100.0)),
                    ("num_subdomains", Value::Num(4.0)),
                    ("num_lambdas", Value::Num(20.0)),
                ]),
            ),
            (
                "phases",
                Value::obj(vec![
                    ("preprocess_s", Value::Num(0.1)),
                    ("factor_s", Value::Num(0.2)),
                    ("assemble_s", Value::Num(0.3)),
                    ("apply_s", Value::Num(0.01)),
                    ("solve_s", Value::Num(0.5)),
                ]),
            ),
            (
                "kernels",
                Value::obj(vec![
                    ("syrk", kernel(1.0, 0.25)),
                    ("trsm", kernel(1.0, 0.4)),
                    ("symm", kernel(1.0, 0.8)),
                    ("symv", kernel(1.0, 0.9)),
                ]),
            ),
            (
                "sparse_assembly",
                Value::obj(vec![
                    ("dense_assemble_s", Value::Num(0.3)),
                    ("sparse_assemble_s", Value::Num(0.1)),
                    ("speedup", Value::Num(3.0)),
                    ("boundary_fraction", Value::Num(0.35)),
                ]),
            ),
            (
                "service",
                Value::obj(vec![
                    ("jobs", Value::Num(4.0)),
                    ("cache_hits", Value::Num(3.0)),
                    ("cache_misses", Value::Num(1.0)),
                    ("cold_preprocess_s", Value::Num(0.2)),
                    ("cached_preprocess_s", Value::Num(0.0)),
                    ("preprocess_speedup", Value::Num(0.2 / 1e-9)),
                    ("cold_latency_s", Value::Num(0.25)),
                    ("cached_latency_s", Value::Num(0.01)),
                    ("latency_speedup", Value::Num(0.25 / 0.01)),
                ]),
            ),
            (
                "observability",
                Value::obj(vec![
                    ("applies_per_call", Value::Num(32.0)),
                    ("apply_disabled_s", Value::Num(1e-4)),
                    ("apply_enabled_s", Value::Num(1.02e-4)),
                    ("enabled_overhead", Value::Num(1.02e-4 / 1e-4 - 1.0)),
                    ("events_per_apply", Value::Num(2.0)),
                    ("disabled_probe_s", Value::Num(5e-9)),
                    ("disabled_overhead", Value::Num(2.0 * 5e-9 / 1e-4)),
                ]),
            ),
        ])
    }

    #[test]
    fn schema_accepts_a_valid_document_and_survives_a_round_trip() {
        let doc = minimal_valid();
        validate_perf_trajectory(&doc).unwrap();
        validate_perf_trajectory(&parse(&doc.to_json()).unwrap()).unwrap();
    }

    #[test]
    fn schema_rejects_missing_and_inconsistent_fields() {
        // Missing kernel.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(kernels))) = pairs.iter_mut().find(|(k, _)| k == "kernels") {
                kernels.retain(|(k, _)| k != "trsm");
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Inconsistent speedup.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(ks))) = pairs.iter_mut().find(|(k, _)| k == "kernels") {
                if let Some((_, Value::Obj(syrk))) = ks.iter_mut().find(|(k, _)| k == "syrk") {
                    syrk.iter_mut().for_each(|(k, v)| {
                        if k == "speedup" {
                            *v = Value::Num(100.0);
                        }
                    });
                }
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Missing sparse-assembly entry.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "sparse_assembly");
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Inconsistent sparse-assembly speedup.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(sa))) =
                pairs.iter_mut().find(|(k, _)| k == "sparse_assembly")
            {
                sa.iter_mut().for_each(|(k, v)| {
                    if k == "speedup" {
                        *v = Value::Num(42.0);
                    }
                });
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Missing service section.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "service");
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Service job counters that do not add up.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(svc))) = pairs.iter_mut().find(|(k, _)| k == "service") {
                svc.iter_mut().for_each(|(k, v)| {
                    if k == "cache_hits" {
                        *v = Value::Num(2.0);
                    }
                });
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Inconsistent service speedup (must honor the 1 ns denominator floor).
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(svc))) = pairs.iter_mut().find(|(k, _)| k == "service") {
                svc.iter_mut().for_each(|(k, v)| {
                    if k == "preprocess_speedup" {
                        *v = Value::Num(7.0);
                    }
                });
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Wrong bench name.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            pairs.iter_mut().for_each(|(k, v)| {
                if k == "bench" {
                    *v = Value::Str("other".to_string());
                }
            });
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Missing available parallelism.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "available_parallelism");
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // An oversubscription flag that contradicts the thread counts.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            pairs.iter_mut().for_each(|(k, v)| {
                if k == "oversubscribed" {
                    *v = Value::Bool(false);
                }
            });
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Missing observability section.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "observability");
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Inconsistent analytic disabled overhead.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(obs))) = pairs.iter_mut().find(|(k, _)| k == "observability")
            {
                obs.iter_mut().for_each(|(k, v)| {
                    if k == "disabled_overhead" {
                        *v = Value::Num(0.5);
                    }
                });
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());

        // Inconsistent enabled overhead.
        let mut doc = minimal_valid();
        if let Value::Obj(pairs) = &mut doc {
            if let Some((_, Value::Obj(obs))) = pairs.iter_mut().find(|(k, _)| k == "observability")
            {
                obs.iter_mut().for_each(|(k, v)| {
                    if k == "enabled_overhead" {
                        *v = Value::Num(3.0);
                    }
                });
            }
        }
        assert!(validate_perf_trajectory(&doc).is_err());
    }
}
