//! The workspace's one JSON module: a value tree, a reader and a writer.
//!
//! The workspace vendors no JSON library (see `vendor/README.md`), so every
//! JSON document this codebase emits as *data* — the `BENCH_*.json` gate
//! reports, [`crate::telemetry::RegistrySnapshot::to_json`] — is built as a
//! [`Json`] tree and rendered here, and every document it reads back
//! (`bench-suite --validate`, `server-stats`, the Chrome-export tests) is
//! parsed here. Well-formedness of what we write therefore holds by
//! construction, and [`parse`]∘[`Json::render`] is the identity on trees
//! (pinned by a property test in `tests/properties.rs`).
//!
//! Two deliberate limits, both pinned by tests:
//!
//! * numbers are `f64`. An *integer literal* of magnitude ≥ 2^53 cannot be
//!   held exactly, so [`parse`] rejects it instead of rounding it; the
//!   writer never produces one (such values render in float notation);
//! * non-finite numbers have no JSON spelling and render as `null`.

use std::fmt::Write as _;

/// Integers at or above this magnitude are not all exactly representable in
/// an `f64`.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept; `get` returns
    /// the first). Rendering keeps this order, so key order is stable.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `"key": value` pairs, converting each value
/// with `Json::from` (so numbers, bools, strings, `Option`s, `Vec`s and
/// nested [`Json`] trees all work).
///
/// ```
/// use crossinvoc_runtime::json::Json;
/// use crossinvoc_runtime::json_obj;
///
/// let v = json_obj! { "name": "CG", "rows": vec![1u64, 2], "ratio": Json::fixed(1.23456, 2) };
/// assert_eq!(v.render(), r#"{"name":"CG","rows":[1,2],"ratio":1.23}"#);
/// ```
#[macro_export]
macro_rules! json_obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::Json::from($value))),*
        ])
    };
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            /// Exact below 2^53; larger values round to the nearest `f64`
            /// (and render in float notation, so a reader can tell).
            fn from(v: $t) -> Self {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// `x` rounded to `decimals` fractional digits — the tree-side
    /// equivalent of formatting with `{:.N}`, so a report's rounding is part
    /// of its data rather than of a format string.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}").parse().unwrap_or(f64::NAN))
    }

    /// This object followed by `other`'s fields (both must be objects;
    /// anything else leaves `self` unchanged).
    pub fn merged(mut self, other: Json) -> Json {
        if let (Json::Obj(pairs), Json::Obj(more)) = (&mut self, other) {
            pairs.extend(more);
        }
        self
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested object lookup along a dotted path (`"criteria.pass"`).
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, key| node.get(key))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders on one line with no insignificant whitespace (the JSONL
    /// form).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders indented by two spaces per level, newline-terminated (the
    /// report-file form). Arrays of scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// `indent` is `None` for the compact form, else the current depth.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                // Pretty mode keeps arrays of scalars on one (spaced) line.
                let block = indent.filter(|_| !items.iter().all(Json::is_scalar));
                let sep = if indent.is_some() && block.is_none() {
                    ", "
                } else {
                    ","
                };
                write_seq(out, block, sep, ['[', ']'], items, |out, item, depth| {
                    item.write(out, depth);
                });
            }
            Json::Obj(pairs) => {
                write_seq(
                    out,
                    indent,
                    ",",
                    ['{', '}'],
                    pairs,
                    |out, (key, value), depth| {
                        write_str(out, key);
                        out.push_str(if depth.is_some() { ": " } else { ":" });
                        value.write(out, depth);
                    },
                );
            }
        }
    }
}

/// Writes `open item sep item … close`, one item per line at `indent + 1`
/// when `indent` is set.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    sep: &str,
    [open, close]: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        item(out, it, indent.map(|d| d + 1));
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        newline(out, depth);
    }
    out.push(close);
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is the shortest text that parses back to the same f64 and
        // always carries a `.` or an exponent, so it never reads as an
        // integer literal.
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Parses `text` as one complete JSON document (trailing whitespace
/// allowed, trailing garbage rejected).
///
/// # Errors
///
/// A human-readable description of the first syntax error, with a byte
/// offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(root)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    fn skip_ws(&mut self) {
        while self.byte(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte(self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .byte(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let n: f64 = token
            .parse()
            .map_err(|_| format!("bad number at byte {start}"))?;
        let integer_literal = !token.contains(['.', 'e', 'E']);
        if integer_literal && n.abs() >= EXACT_INT_LIMIT {
            return Err(format!(
                "integer {token} at byte {start} is not exactly representable (|n| >= 2^53)"
            ));
        }
        Ok(Json::Num(n))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        self.pos += 4;
        u16::from_str_radix(digits, 16).map_err(|_| format!("bad \\u escape {digits:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the span between them is whole
            // UTF-8 sequences and can be copied as a slice.
            let start = self.pos;
            while self.byte(self.pos).is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.byte(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let esc = self.byte(self.pos + 1).ok_or("dangling escape")?;
                    self.pos += 2;
                    out.push(match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut units = vec![self.hex4()?];
                            if (0xD800..0xDC00).contains(&units[0])
                                && self.text[self.pos..].starts_with("\\u")
                            {
                                self.pos += 2;
                                units.push(self.hex4()?);
                            }
                            let decoded: Result<String, _> = char::decode_utf16(units).collect();
                            out.push_str(&decoded.map_err(|_| "unpaired surrogate escape")?);
                            continue;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    });
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_nested_values() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0),
            ]))
        );
        assert_eq!(v.at("b.c"), Some(&Json::Bool(true)));
        assert_eq!(v.at("b.missing.c"), None);
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\": }",
            "{} trailing",
            "{\"a\"; 1}",
            "\"\\x\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_reject_mismatched_shapes() {
        let v = parse(r#"{"n": 3}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("n").unwrap().as_bool(), None);
        assert_eq!(v.as_arr(), None);
    }

    #[test]
    fn both_renderings_parse_back_to_the_tree() {
        let tree = json_obj! { "first": true }.merged(json_obj! {
            "s": "q\"b\\n\n\u{1}µ€😀",
            "n": vec![0u64, 7],
            "f": Json::fixed(0.123456, 4),
            "inf": f64::INFINITY,
            "nested": json_obj! { "empty_arr": Json::Arr(vec![]), "empty_obj": Json::Obj(vec![]) },
            "rows": vec![json_obj! { "ok": true }, json_obj! { "ok": Option::<u64>::None }],
        });
        let compact = tree.render();
        assert!(!compact.contains('\n') && !compact.contains(": "));
        assert!(compact.contains(r#""f":0.1235"#), "{compact}");
        let pretty = tree.pretty();
        assert!(pretty.contains("\n  \"n\": [0, 7],\n"), "{pretty}");
        assert!(pretty.contains("\"empty_arr\": []"), "{pretty}");
        // Non-finite numbers have no JSON spelling: they come back as null.
        let mut expected = tree.clone();
        if let Json::Obj(pairs) = &mut expected {
            pairs[4].1 = Json::Null;
        }
        assert_eq!(parse(&compact).unwrap(), expected);
        assert_eq!(parse(&pretty).unwrap(), expected);
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        assert_eq!(
            parse(r#""a\/b\u00e9\ud83d\ude00\b\f""#).unwrap(),
            Json::Str("a/bé😀\u{8}\u{c}".into())
        );
    }
}
