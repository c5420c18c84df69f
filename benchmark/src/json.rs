//! The result line the driver reads, and a reader small enough to own.
//!
//! The repository vendors no JSON library and `crates/bench`'s reader is
//! slated for a refactor the benchmark must survive, so the benchmark
//! writes its own result object and reads it back with this small
//! recursive-descent reader: `check` parses the result lines of the runs it
//! spawns, and the tests hold `BENCHMARK.json` to the catalogue.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, widened to `f64`.
    Num(f64),
    /// A string with the escapes our own writers emit decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items (only `BENCHMARK.json`, read by the tests, has any).
    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// A description of the first syntax error with its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b'}')?;
                        return Ok(Json::Obj(pairs));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.pos + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// What one `run` reports on its last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every region's output matched the independent reference.
    pub correct: bool,
    /// Regions attempted.
    pub attempted: u64,
    /// Regions that returned `Err`, degraded unexpectedly, chose an
    /// unexpected strategy, or left memory different from the reference.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// The one-line JSON object of the benchmark contract. Values keep all
    /// their digits (`{:?}` prints the shortest string that round-trips).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    escape(name),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line back (the round-trip the tests hold us to).
    ///
    /// # Errors
    ///
    /// A description of what is missing or malformed.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key}"));
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            other => return Err(format!("correct is {other:?}")),
        };
        let count = |key: &str| -> Result<u64, String> {
            let n = field(key)?
                .as_f64()
                .ok_or_else(|| format!("{key} is not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{key} is not a whole number: {n}"));
            }
            Ok(n as u64)
        };
        let Json::Obj(pairs) = field("metrics")? else {
            return Err("metrics is not an object".to_string());
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in pairs {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: missing value"))?;
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: missing unit"))?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "ns_per_task".to_string(),
            (187.30000000000004, "ns".to_string()),
        );
        metrics.insert("setup_s".to_string(), (0.8127, "s".to_string()));
        metrics.insert(
            "engine.misspeculations".to_string(),
            (0.0, "count".to_string()),
        );
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics,
        };
        let line = result.to_json();
        assert!(!line.contains('\n'), "the result is one line");
        assert_eq!(RunResult::from_json(&line).unwrap(), result);
        let keys: Vec<String> = match parse(&line).unwrap() {
            Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn parser_reads_nested_documents_and_rejects_garbage() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": null}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y")
        );
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(RunResult::from_json("{\"correct\": true}").is_err());
    }
}
