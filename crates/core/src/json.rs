//! A minimal JSON parser for the telemetry/bench tooling.
//!
//! The workspace is dependency-free by design, but the bench pipeline needs
//! to *read* JSON back: `nba-bench compare` parses `BENCH_*.json` reports,
//! and tests validate exporter output (JSONL, Chrome traces). This module
//! implements just enough of RFC 8259 for those uses: the full value
//! grammar, string escapes (including `\uXXXX` with surrogate pairs), and
//! numbers parsed as `f64`.
//!
//! It is a *strict* parser — trailing garbage, trailing commas, unquoted
//! keys, and control characters inside strings are errors — so round-trip
//! tests against our own serializers also guard the serializers.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; JSON does not distinguish integers from floats.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keyed by a sorted map: key order is not significant in
    /// JSON and sorted keys make test assertions deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Field accessors and the framing of the replayable JSONL logs
// ---------------------------------------------------------------------------

/// The integer field `key`: a whole non-negative number, or a decimal
/// string for a value a JSON number (`f64`) cannot carry exactly.
pub fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::Str(s)) => s.parse().map_err(|e| format!("field `{key}`: {e}")),
        other => other
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("field `{key}`: expected integer, got {other:?}")),
    }
}

/// The number field `key`.
pub fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    let got = v.get(key);
    got.and_then(Value::as_f64)
        .ok_or_else(|| format!("field `{key}`: expected number, got {got:?}"))
}

/// The string field `key`.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        other => Err(format!("field `{key}`: expected string, got {other:?}")),
    }
}

/// The boolean field `key`.
pub fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        other => Err(format!("field `{key}`: expected bool, got {other:?}")),
    }
}

/// Encodes an `f64` as its IEEE-754 bit pattern in fixed-width hex. JSON
/// numbers are `f64` in our parser and cannot round-trip arbitrary `u64`
/// payloads, so bit-exact fields travel as strings.
pub fn f64_to_bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The `f64` field `key`, written by [`f64_to_bits_hex`].
pub fn f64_bits_field(v: &Value, key: &str) -> Result<f64, String> {
    let s = str_field(v, key)?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("field `{key}`: bad f64 bit pattern {s:?}: {e}"))
}

/// Writes a replayable log: one header line — `schema`, `version`, the
/// record count under `count_key`, then `extra` (pre-rendered
/// `,"key":value` header fields) — and one line per record.
pub fn write_log<R>(
    schema: &str,
    count_key: &str,
    extra: &str,
    records: &[R],
    line: impl Fn(&R) -> String,
) -> String {
    let mut out = format!(
        "{{\"schema\":\"{schema}\",\"version\":1,\"{count_key}\":{}{extra}}}\n",
        records.len()
    );
    for r in records {
        out.push_str(&line(r));
        out.push('\n');
    }
    out
}

/// Reads [`write_log`] output back: the header must name `schema`, and
/// exactly the declared number of records must follow, so a truncated log
/// is refused rather than read as a shorter one. Returns the header and
/// the records `record` parsed.
pub fn read_log<R>(
    s: &str,
    schema: &str,
    count_key: &str,
    record: impl Fn(&Value) -> Result<R, String>,
) -> Result<(Value, Vec<R>), String> {
    let mut lines = s.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| format!("empty {schema} log"))?;
    let h = parse(header).map_err(|e| format!("bad header: {e}"))?;
    if h.get("schema").and_then(Value::as_str) != Some(schema) {
        return Err(format!("not a {schema} log"));
    }
    let declared = u64_field(&h, count_key)?;
    let records = lines
        .map(|l| record(&parse(l).map_err(|e| format!("bad record: {e}"))?))
        .collect::<Result<Vec<R>, String>>()?;
    if records.len() as u64 != declared {
        return Err(format!(
            "header declares {declared} {count_key}, found {}",
            records.len()
        ));
    }
    Ok((h, records))
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        s: input,
        b: input.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.i,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate must
                                // follow to form one supplementary character.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) if c < 0x80 => {
                    s.push(c as char);
                    self.i += 1;
                }
                Some(_) => {
                    // One multi-byte UTF-8 scalar; `self.i` always sits on
                    // a char boundary (input is &str), so slicing is safe
                    // and decoding is O(1) per char.
                    let ch = self.s[self.i..].chars().next().unwrap();
                    s.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Integer part: a lone 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("d"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair: U+1F600.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("01").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"\\ud800\"").is_err()); // lone surrogate
        assert!(parse("nulL").is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn fields_are_strict() {
        let v =
            parse(r#"{"n":3,"neg":-3,"frac":3.5,"big":"18446744073709551615","b":true}"#).unwrap();
        assert_eq!(u64_field(&v, "n"), Ok(3));
        assert_eq!(u64_field(&v, "big"), Ok(u64::MAX));
        assert!(u64_field(&v, "neg").is_err());
        assert!(u64_field(&v, "frac").is_err());
        assert!(u64_field(&v, "missing").is_err());
        assert!(str_field(&v, "n").is_err());
        assert_eq!(bool_field(&v, "b"), Ok(true));
        assert_eq!(f64_field(&v, "frac"), Ok(3.5));
        assert_eq!(f64_field(&v, "neg"), Ok(-3.0));
        assert!(f64_field(&v, "big").is_err());
        assert!(f64_field(&v, "missing").is_err());
        let bits = parse(&format!("{{\"x\":\"{}\"}}", f64_to_bits_hex(-0.0))).unwrap();
        assert_eq!(
            f64_bits_field(&bits, "x").map(f64::to_bits),
            Ok((-0.0f64).to_bits())
        );
    }

    #[test]
    fn log_framing_checks_schema_and_count() {
        let text = write_log("t", "items", ",\"k\":7", &[1u64, 2, 3], |n| {
            format!("{{\"n\":{n}}}")
        });
        assert!(text.starts_with("{\"schema\":\"t\",\"version\":1,\"items\":3,\"k\":7}\n"));
        let n = |v: &Value| u64_field(v, "n");
        let (h, got) = read_log(&text, "t", "items", n).unwrap();
        assert_eq!((u64_field(&h, "k"), got), (Ok(7), vec![1, 2, 3]));
        assert!(read_log(&text, "other", "items", n).is_err());
        let cut: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(
            read_log(&cut, "t", "items", n).is_err(),
            "truncated log accepted"
        );
    }
}
