//! Minimal JSON encode/parse, written by hand so the workspace keeps
//! its zero-external-dependency invariant (`--locked --offline` builds
//! with nothing beyond the standard library). It is the one grammar
//! for untrusted JSON: the wire protocol (`moldable_serve::json` is
//! this module) and the workflow-trace importer ([`crate::trace`],
//! through [`Reader`]) accept and reject the same documents.
//!
//! The subset is exactly what those readers and the `results/*.json`
//! writers need: the six JSON value kinds, UTF-8 strings with full
//! escape handling (including `\uXXXX` and surrogate pairs), f64
//! numbers, and at most [`MAX_DEPTH`] open containers so hostile input
//! cannot blow the stack. Object keys keep insertion order — output is
//! deterministic.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other kinds or a
    /// missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact `u64` representation.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Self::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact JSON text (no whitespace, deterministic
    /// member order).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Num(n) => write_num(*n, out),
            Self::Str(s) => write_str(s, out),
            Self::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Self::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    let _ = write!(out, ":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience: build an object from key/value pairs.
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Append `n` as a JSON number, exactly as [`Json::encode`] writes
/// `Json::Num(n)`.
pub fn write_num(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the least-surprising encoding.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        #[allow(clippy::cast_possible_truncation)]
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a quoted JSON string, exactly as [`Json::encode`]
/// writes `Json::Str(s)`.
pub fn write_str(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Why a parse failed: a message and the byte offset it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub msg: String,
    /// Byte offset into the input where the problem was noticed.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Most containers (arrays and objects) a document may have open at
/// once; a deeper one is rejected instead of overflowing the stack.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the first offending byte.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut r = Reader::new(text);
    r.skip_ws();
    let v = r.value(0)?;
    r.finish()?;
    Ok(v)
}

/// A streaming reader over one JSON text: [`parse`] builds a tree with
/// it, a schema reader walks the tokens itself. Methods start at the
/// next byte without skipping whitespace; a failing one returns a
/// [`JsonError`] at the reader's position, which only moves forward.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Byte offset of the next unread byte.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Check that only whitespace is left.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skip JSON whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` if it is the next byte.
    pub fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `b`, which must be the next byte.
    pub fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Read one value of any kind. `depth` counts the containers
    /// already open around it; an array or object opened at `depth`
    /// [`MAX_DEPTH`] or more is rejected.
    pub fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + nibble;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Read a string, escapes decoded.
    pub fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is known-valid UTF-8 (it is a &str).
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is UTF-8"),
                );
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')
                                        .map_err(|_| self.err("lone high surrogate"))?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Read a number; one that overflows `f64` is an error.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_kinds() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn roundtrips_through_encode() {
        let cases = [
            r#"{"s":"q\"uo\\te","n":-12.75,"arr":[[],{},[null,false]],"i":42}"#,
            "[1,2,3]",
            "\"plain\"",
            "null",
            "-0.125",
        ];
        for c in cases {
            let v = parse(c).unwrap();
            let re = parse(&v.encode()).unwrap();
            assert_eq!(v, re, "{c}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""\u0041\u00e9""#).unwrap(),
            Json::Str("Aé".to_string())
        );
        // 😀 = U+1F600 as a surrogate pair
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        // Non-ASCII passes through both ways.
        let v = Json::Str("héllo — ∞".to_string());
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn control_chars_are_escaped_on_encode() {
        let v = Json::Str("a\u{1}b".to_string());
        assert_eq!(v.encode(), r#""a\u0001b""#);
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::Num(3.0).encode(), "3");
        assert_eq!(Json::Num(-7.0).encode(), "-7");
        assert_eq!(Json::Num(0.5).encode(), "0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    /// Fuzz-ish: every malformed input must error, never panic, and
    /// every error must carry a sane offset.
    #[test]
    fn malformed_inputs_error_cleanly() {
        let bad = [
            "",
            "   ",
            "{",
            "}",
            "[",
            "]",
            "{]",
            "[}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{a:1}",
            "{'a':1}",
            "tru",
            "truex",
            "nul",
            "+1",
            "01x",
            "1.",
            "1e",
            "1e+",
            ".5",
            "-",
            "\"abc",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12zz\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"a\nb\"",
            "1 2",
            "[1]]",
            "{\"a\":1}x",
            "1e999",
        ];
        for b in bad {
            let e = parse(b).unwrap_err();
            assert!(e.at <= b.len(), "{b:?}: offset {} out of range", e.at);
            assert!(!e.msg.is_empty());
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("deep"));
        // Just inside the limit parses fine, one more does not, and
        // the error names the first container past the limit.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let e = parse(&over).unwrap_err();
        assert!(e.msg.contains("deep"));
        assert_eq!(e.at, MAX_DEPTH);
    }

    /// Deterministic pseudo-random byte soup: the parser must never
    /// panic regardless of input.
    #[test]
    fn random_garbage_never_panics() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..500 {
            let len = (state % 64) as usize;
            let mut s = String::new();
            for _ in 0..len {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                // Bias toward structural characters to hit parser paths.
                let c = match state >> 60 {
                    0 => '{',
                    1 => '}',
                    2 => '[',
                    3 => ']',
                    4 => '"',
                    5 => '\\',
                    6 => ',',
                    7 => ':',
                    8 => '0',
                    9 => '9',
                    10 => '.',
                    11 => 'e',
                    12 => '-',
                    13 => 't',
                    14 => 'n',
                    _ => ' ',
                };
                s.push(c);
            }
            let _ = parse(&s); // must not panic
        }
    }
}
