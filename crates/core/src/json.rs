//! A minimal JSON value type with writer and parser.
//!
//! The workspace has no serde (the build environment vendors its few
//! dependencies), and its JSON needs are small: the service's wire
//! protocol and certificate store, the CLI's `--format json` lines and
//! the bench harness all use this one type. Objects keep their insertion
//! order, so emitted documents are stable for tests.
//!
//! The parser reads every RFC 8259 document, escaped UTF-16 surrogate
//! pairs included, and accepts a little more than the RFC allows:
//!
//! * raw control characters (U+0000–U+001F) inside strings;
//! * numbers with leading zeros (`007`), an empty integer part after a
//!   minus (`-.5`) or an empty fraction (`1.`, `1.e5`);
//! * duplicate object keys ([`Json::get`] returns the first).
//!
//! The writer escapes `"`, `\` and U+0000–U+001F, and writes
//! integral numbers below 9e15 without a fraction. It prints a
//! non-finite number as `NaN` or `inf`, which is not JSON and which the
//! parser rejects.
//!
//! Parsing and writing are linear in the document's length: a string is
//! copied a run at a time, each run ending at the next byte that needs
//! an escape.

use std::fmt;

use crate::error::HtdError;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`; integers round-trip exactly
    /// up to 2^53, far beyond any counter the workspace emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole string must be one value plus
    /// optional surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, HtdError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(HtdError::Parse(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
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
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // every byte that needs an escape is ASCII, so the runs between them
    // start and end on char boundaries
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), HtdError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(HtdError::Parse(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, HtdError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(HtdError::Parse(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, HtdError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(HtdError::Parse(format!("bad value at byte {}", self.pos))),
        }
    }

    fn number(&mut self) -> Result<Json, HtdError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // the scanned bytes are ASCII, so both ends are char boundaries
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| HtdError::Parse(format!("bad number '{text}'")))
    }

    /// A string: each run up to the next `"` or `\` is copied whole.
    /// Both delimiters are ASCII, so every run ends on a char boundary of
    /// the (already valid UTF-8) text.
    fn string(&mut self) -> Result<String, HtdError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| HtdError::Parse("unterminated string".into()))?;
            let end = self.pos + run;
            out.push_str(&self.text[self.pos..end]);
            self.pos = end + 1;
            if self.bytes()[end] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(HtdError::Parse("bad escape".into())),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The character of a `\u` escape whose `u` is at `pos`; leaves `pos`
    /// on its last hex digit. A UTF-16 surrogate pair spans two escapes
    /// (RFC 8259 §7); a lone or reversed surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, HtdError> {
        let unpaired = || HtdError::Parse("unpaired surrogate in \\u escape".into());
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.bytes()[self.pos + 1..].starts_with(b"\\u") {
                return Err(unpaired());
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(unpaired());
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // only a surrogate left unpaired is not a char
        char::from_u32(code).ok_or_else(unpaired)
    }

    /// The four hex digits after the `u` at `pos`; leaves `pos` on the last.
    fn hex4(&mut self) -> Result<u32, HtdError> {
        let hex = self
            .bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| HtdError::Parse("short \\u escape".into()))?;
        let mut code = 0;
        for &h in hex {
            let digit = (h as char)
                .to_digit(16)
                .ok_or_else(|| HtdError::Parse("bad \\u escape".into()))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, HtdError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(HtdError::Parse(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, HtdError> {
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
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(HtdError::Parse(format!("bad object at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("width".into(), Json::Num(18.0)),
            ("exact".into(), Json::Bool(true)),
            (
                "order".into(),
                Json::Arr(vec![Json::Num(0.0), Json::Num(2.0)]),
            ),
            ("note".into(), Json::Str("a \"quoted\" line\n".into())),
            ("nothing".into(), Json::Null),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_numbers() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5 , 1e3 ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::Str("\u{1}".into()).to_string();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("\u{1}".into()));
    }

    /// Reference writer: one escape or one `char` at a time. The
    /// run-copying writer must match it byte for byte.
    fn per_char_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn assert_round_trip(s: &str) {
        let text = Json::Str(s.into()).to_string();
        assert_eq!(text, per_char_escaped(s), "writer output for {s:?}");
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()), "{text}");
    }

    #[test]
    fn multibyte_text_round_trips_next_to_every_escape() {
        assert_round_trip("");
        for wide in ["é", "€", "😀"] {
            for esc in [
                "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "/", "\u{7f}",
            ] {
                assert_round_trip(&format!("{wide}{esc}"));
                assert_round_trip(&format!("{esc}{wide}"));
                assert_round_trip(&format!("ab{wide}{esc}{wide}cd{esc}"));
                assert_round_trip(&format!("{esc}{wide}{wide}ascii run{esc}{esc}{wide}"));
            }
            assert_round_trip(wide);
            assert_round_trip(&format!("{wide} and {wide}"));
        }
    }

    #[test]
    fn every_escape_form_parses() {
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9\u20AC""#).unwrap();
        assert_eq!(v, Json::Str("\"\\/\u{8}\u{c}\n\r\té€".into()));
        // raw control characters are accepted beyond the RFC
        assert_eq!(
            Json::parse("\"a\u{1}\tb\"").unwrap(),
            Json::Str("a\u{1}\tb".into())
        );
    }

    #[test]
    fn unterminated_strings_error_after_multibyte_tails() {
        for text in [
            "\"abc é",
            "\"€",
            "\"😀😀",
            "\"é\\",
            "\"€\\\"",
            "{\"é\": \"😀",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn bad_unicode_escapes_are_errors() {
        for text in [
            r#""\u12""#,
            r#""\u+123""#,
            r#""\u12g4""#,
            r#""\u00é""#,
            r#""\x""#,
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
        // upper-case hex, and pairs next to plain text and other escapes
        let v = Json::parse(r#""a\uD834\uDD1E\n\ud83d\ude00b""#).unwrap();
        assert_eq!(v, Json::Str("a𝄞\n😀b".into()));
        // the highest code point
        let v = Json::parse(r#""\udbff\udfff""#).unwrap();
        assert_eq!(v, Json::Str("\u{10ffff}".into()));
    }

    #[test]
    fn lone_and_reversed_surrogates_are_errors() {
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ude0""#,
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn four_mib_string_round_trips() {
        let unit = "ascii run, \"quoted\" é € 😀 \\ \t\n\u{1} ";
        let s = unit.repeat((4 << 20) / unit.len() + 1);
        assert!(s.len() >= 4 << 20);
        let doc = Json::Obj(vec![("query".into(), Json::Str(s))]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    /// One char drawn so that escapes, multi-byte text and ASCII runs
    /// all occur often next to each other.
    fn any_char(kind: u32, raw: u32) -> char {
        match kind {
            0 => ['"', '\\', '\n', '\r', '\t', '/'][raw as usize % 6],
            1 => char::from_u32(raw % 0x20).unwrap(),
            2 => ['é', '€', '😀', '\u{7f}', '\u{ffff}'][raw as usize % 5],
            3 => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
            _ => char::from_u32(0x20 + raw % 0x5f).unwrap(),
        }
    }

    proptest! {
        #[test]
        fn any_string_round_trips(
            chars in proptest::collection::vec((0u32..8, any::<u32>()), 0..64usize)
        ) {
            let s: String = chars.into_iter().map(|(k, r)| any_char(k, r)).collect();
            let text = Json::Str(s.clone()).to_string();
            prop_assert_eq!(&text, &per_char_escaped(&s));
            prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
        }
    }
}
