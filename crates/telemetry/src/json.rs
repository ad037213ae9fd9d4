//! The workspace's one JSON reader, next to the writer it mirrors.
//!
//! The workspace policy is zero external dependencies. This crate
//! writes JSON ([`RunReport::to_json`](crate::RunReport::to_json), the
//! NDJSON sink, [`json_escaped`](crate::json_escaped)); the serving
//! protocols (re-exported as `proto::json`) and the tests that check
//! written reports read it back through [`parse`]. It parses one JSON
//! value into a small dynamic [`Json`] tree with the handful of
//! accessors the protocols need. It is not a general-purpose parser:
//! numbers are `f64` and objects keep last-key-wins semantics.
//!
//! Three properties matter:
//!
//! * **Errors carry the field path.** A syntax error inside a nested
//!   member reports `in field "spec.engines"` (array elements as
//!   `[i]`), not just a byte offset — a client debugging a rejected
//!   submit line sees *which* field broke.
//! * **Escapes round-trip.** Every control character escapes through
//!   [`json_escaped`](crate::json_escaped) and parses back
//!   byte-identically, and `\uXXXX` surrogate pairs decode to their
//!   supplementary-plane scalar (a lone surrogate half is a parse error
//!   naming the field).
//! * **Numbers follow JSON's grammar:** an optional `-`, digits, an
//!   optional fraction with at least one digit, an optional exponent
//!   with at least one digit (leading zeros are let through). `+1`, `.5`
//!   and `1.` are errors.

use std::collections::BTreeMap;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys, last duplicate wins).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` on other kinds).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a
    /// non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses exactly one JSON value from `text` (surrounding whitespace
/// allowed, trailing data rejected).
///
/// # Errors
///
/// A human-readable description of the first syntax error, naming the
/// byte offset and — when the error sits inside an object member — the
/// dotted field path (`in field "spec.engines[1]"`).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
        path: Vec::new(),
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// One step of the field path the parser is currently inside.
enum Seg {
    Key(String),
    Index(usize),
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    path: Vec<Seg>,
}

impl Parser<'_> {
    /// Formats `msg` with the byte offset and the current field path.
    fn err(&self, msg: &str) -> String {
        let mut out = format!("{msg} at byte {}", self.pos);
        if !self.path.is_empty() {
            out.push_str(" in field \"");
            for (i, seg) in self.path.iter().enumerate() {
                match seg {
                    Seg::Key(k) => {
                        if i > 0 {
                            out.push('.');
                        }
                        out.push_str(k);
                    }
                    Seg::Index(n) => {
                        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("[{n}]"));
                    }
                }
            }
            out.push('"');
        }
        out
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit(b"true").map(|()| Json::Bool(true)),
            Some(b'f') => self.lit(b"false").map(|()| Json::Bool(false)),
            Some(b'n') => self.lit(b"null").map(|()| Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.path.push(Seg::Key(key));
            if self.b.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            let Some(Seg::Key(key)) = self.path.pop() else {
                unreachable!("object member pushes a key segment");
            };
            members.insert(key, value);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            self.path.push(Seg::Index(items.len()));
            let item = self.value()?;
            self.path.pop();
            items.push(item);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn lit(&mut self, lit: &[u8]) -> Result<(), String> {
        if self.b.len() >= self.pos + lit.len() && &self.b[self.pos..self.pos + lit.len()] == lit {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// One `\uXXXX` unit (the caller consumed the `\u`); leaves `pos` on
    /// the last hex digit.
    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 >= self.b.len() {
            return Err(self.err("bad \\u escape"));
        }
        let hex = std::str::from_utf8(&self.b[self.pos + 1..self.pos + 5])
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            let scalar = match unit {
                                // High surrogate: a low surrogate must
                                // follow, the pair encodes one
                                // supplementary-plane scalar.
                                0xd800..=0xdbff => {
                                    if self.b.get(self.pos + 1) != Some(&b'\\')
                                        || self.b.get(self.pos + 2) != Some(&b'u')
                                    {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                                }
                                0xdc00..=0xdfff => {
                                    return Err(self.err("lone low surrogate"));
                                }
                                u => u,
                            };
                            out.push(
                                char::from_u32(scalar).ok_or_else(|| self.err("bad \\u scalar"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                0x00..=0x1f => return Err(self.err("raw control char")),
                _ => {
                    // Consume one full UTF-8 scalar (the input is a
                    // &str, so continuation bytes are well-formed by
                    // construction).
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.b.len());
                    out.push_str(
                        std::str::from_utf8(&self.b[self.pos..end]).map_err(|e| e.to_string())?,
                    );
                    self.pos = end;
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            self.pos = start;
            return Err(self.err("expected number"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("bad fraction"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad exponent"));
            }
        }
        // The grammar above is a subset of what `f64::from_str` reads.
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let v = parse(
            r#"{"op":"submit","id":"j1","circuit":"9sym","deadline_ms":250,
                "seed":7,"priority":"high","flag":true,"opt":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("opt"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_every_control_character() {
        // All of C0, plus DEL and a few printables for context.
        let mut original = String::new();
        for c in 0u32..0x20 {
            original.push(char::from_u32(c).unwrap());
            original.push('x');
        }
        original.push('\u{7f}');
        let escaped = crate::json_escaped(&original);
        let back = parse(&escaped).unwrap();
        assert_eq!(back.as_str(), Some(original.as_str()));
    }

    #[test]
    fn round_trips_non_bmp_text() {
        // Raw supplementary-plane characters (how json_escaped emits
        // them)...
        let original = "circuit \u{1f600} name \u{10348}";
        let back = parse(&crate::json_escaped(original)).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // ...and surrogate-pair escapes (how standard encoders emit
        // them) decode to the same scalar.
        let paired = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(paired.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn rejects_lone_surrogates() {
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_offending_field() {
        let e = parse(r#"{"spec":{"engines":[1,)]}}"#).unwrap_err();
        assert!(e.contains("spec.engines[1]"), "missing path in: {e}");
        let e = parse(r#"{"deadline_ms":1e}"#).unwrap_err();
        assert!(e.contains("deadline_ms"), "missing path in: {e}");
        // Top-level errors still carry the byte offset alone.
        let e = parse("[1,]").unwrap_err();
        assert!(e.contains("byte"), "missing offset in: {e}");
    }

    #[test]
    fn parses_nested_arrays_and_numbers() {
        let v = parse("[1, -2.5, [\"x\"], {\"k\": 3e2}]").unwrap();
        let Json::Arr(items) = &v else {
            panic!("not an array")
        };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[3].get("k").and_then(Json::as_f64), Some(300.0));
        // -2.5 is not integral, so it is not a u64.
        assert_eq!(items[1].as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "nul",
            "\"abc",
            "{\"a\":1} x",
            "1.2.3",
            "{'a':1}",
            "01a",
            // Number forms `f64::from_str` reads but JSON does not.
            "+1",
            ".5",
            "1.",
            "1e",
            "-",
            "[1.e5]",
            "inf",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// The cases the syntax validator this reader replaced accepted.
    #[test]
    fn accepts_everything_the_validator_accepts() {
        for good in [
            "null",
            "true",
            "-1.5e-3",
            "[1,2,[]]",
            "{\"a\":{\"b\":[1,\"x\",null]}}",
            "  {}  ",
            "\"\\u00ff\"",
            "0",
            "-0.0",
            "1E+2",
        ] {
            parse(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
        assert_eq!(parse("1E+2").unwrap().as_f64(), Some(100.0));
    }
}
