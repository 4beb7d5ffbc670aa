//! A minimal JSON codec for the NDJSON wire protocol.
//!
//! Std-only by policy (the workspace builds offline, so serde is out of
//! reach), and deliberately small: objects preserve insertion order so a
//! rendered response is byte-deterministic, numbers are `f64` (every value
//! the protocol carries fits losslessly), and strings escape all control
//! characters so any `.g`/SG specification — newlines included — travels on
//! a single line. Nesting is capped at [`MAX_VALUE_DEPTH`], so a hostile
//! line cannot recurse a connection thread's stack away.

use std::fmt;

/// Nesting cap shared by both decoders, this parser and the binary value
/// decoder in `wirecodec`: a value at this depth (the document itself is
/// depth 0) is refused. Protocol objects are two levels deep.
pub const MAX_VALUE_DEPTH: u32 = 32;

/// A JSON value. Objects are ordered pair lists: rendering is deterministic
/// and key lookup is linear (protocol objects have < 20 keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

use std::fmt::Write as _;

/// Parse a complete JSON document. Trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable description with a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth >= MAX_VALUE_DEPTH {
            return Err(format!("value nested too deeply at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of unescaped bytes at once and
                    // validate it once. `"` (0x22) and `\` (0x5C) are ASCII
                    // and never occur inside a multi-byte UTF-8 sequence,
                    // so a bytewise scan cannot split a scalar. (Validating
                    // the *remaining input* per character instead makes
                    // parsing quadratic — a multi-megabyte spec string took
                    // tens of seconds.)
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Parse the 4 hex digits after `\u` (and a following low surrogate if
    /// needed). On entry `pos` is at the `u`.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex4 = |p: &mut Parser<'a>| -> Result<u32, String> {
            let s = p
                .bytes
                .get(p.pos..p.pos + 4)
                .ok_or("truncated \\u escape")?;
            let s = std::str::from_utf8(s).map_err(|_| "bad \\u escape".to_string())?;
            let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
            p.pos += 4;
            Ok(v)
        };
        self.pos += 1; // past 'u'
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a \uXXXX low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| "bad surrogate pair".into());
                }
            }
            return Err("lone high surrogate".into());
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err("lone low surrogate".into());
        }
        char::from_u32(hi).ok_or_else(|| "bad \\u escape".into())
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_request_shaped_object() {
        let spec = ".name hs\n.inputs r\n.outputs g\n# τ→λ\n";
        let obj = Json::Obj(vec![
            ("id".into(), Json::Num(7.0)),
            ("op".into(), Json::Str("synth".into())),
            ("spec".into(), Json::Str(spec.into())),
            ("share".into(), Json::Bool(true)),
            ("trials".into(), Json::Num(0.0)),
        ]);
        let line = obj.to_string();
        assert!(!line.contains('\n'), "NDJSON must stay on one line");
        let back = parse(&line).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.get("spec").unwrap().as_str(), Some(spec));
        assert_eq!(back.get("id").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\tb\u00e9\ud83d\ude00","n":-4.5,"x":null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\tbé😀"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-4.5));
        assert_eq!(v.get("x"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{\"s\":\"\\ud800\"}",
            "nul",
            "1e999",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_value_depth() {
        let nested = |n: usize| format!("{}null{}", "[".repeat(n), "]".repeat(n));
        // 31 arrays put the null at depth 31, the deepest value allowed.
        assert!(parse(&nested(31)).is_ok());
        let err = parse(&nested(MAX_VALUE_DEPTH as usize)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
        // Far past the cap, objects and arrays mixed, without recursing
        // anywhere near the stack's end.
        let hostile = format!("{{\"id\":{}", "[{\"a\":".repeat(5_000));
        let err = parse(&hostile).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
    }

    #[test]
    fn numbers_render_integers_exactly()  {
        assert_eq!(Json::Num(429.0).to_string(), "429");
        assert_eq!(Json::Num(4.8).to_string(), "4.8");
        assert_eq!(parse("429").unwrap().as_u64(), Some(429));
    }

    #[test]
    fn control_characters_are_escaped() {
        let s = Json::Str("a\u{1}\u{1f}b".into()).to_string();
        assert_eq!(s, "\"a\\u0001\\u001fb\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\u{1}\u{1f}b"));
    }
}
