//! Hand-rolled JSON: escaping, float formatting, and a small
//! recursive-descent parser.
//!
//! The workspace is std-only, so run reports are serialized by hand.
//! [`parse`] reads them back into a [`Json`] value under the strict
//! RFC 8259 grammar (no leading zeros, no bare `1.`, exactly four hex
//! digits per `\u` escape); [`validate`] is the same parse with the
//! value thrown away, so the CI smoke steps, the examples that write
//! committed artifacts, and `bench-diff` all agree on what well-formed
//! means.

/// Escapes a string for embedding inside a JSON string literal
/// (quotes are **not** added by this function).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value. Finite values use scientific
/// notation (valid JSON numbers); non-finite values have no JSON
/// number representation and become `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Object keys keep insertion order; duplicate
/// keys keep the first occurrence (lookups scan front-to-back).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting depth accepted by [`parse`]; our run
/// reports nest 4–5 levels deep, so 64 is generous while still keeping
/// the recursive parser stack-bounded.
const MAX_DEPTH: usize = 64;

/// Parses `src` as exactly one JSON value (surrounding whitespace
/// allowed). Errors carry the byte offset of the first problem.
/// `\u` escapes that name a surrogate decode to U+FFFD: the writers in
/// this workspace never emit them.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Checks that `src` is exactly one well-formed JSON value: [`parse`]
/// with the value discarded.
pub fn validate(src: &str) -> Result<(), String> {
    parse(src).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte '{}' at {}", c as char, self.i)),
            None => Err(format!("unexpected end of input at byte {}", self.i)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        // Bounded: each member consumes at least one byte of input.
        while self.i <= self.b.len() {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
        Err(format!("unterminated object at byte {}", self.i))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        // Bounded: each element consumes at least one byte of input.
        while self.i <= self.b.len() {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
        Err(format!("unterminated array at byte {}", self.i))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => {
                    // Only whole UTF-8 sequences of a `&str` input and
                    // ASCII escapes were copied, so this cannot fail.
                    return String::from_utf8(out)
                        .map_err(|_| format!("invalid UTF-8 in string at byte {}", self.i));
                }
                b'\\' => {
                    let esc = self.peek();
                    self.i += 1;
                    let ch = match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.hex4()?,
                        _ => return Err(format!("bad escape at byte {}", self.i - 1)),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                b if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.i - 1))
                }
                b => out.push(b),
            }
        }
        Err(format!("unterminated string at byte {}", self.i))
    }

    /// The four hex digits of a `\u` escape (strictly `[0-9a-fA-F]{4}`:
    /// `u32::from_str_radix` alone would also take a leading `+`).
    fn hex4(&mut self) -> Result<char, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|h| (h as char).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
            code = code * 16 + d;
            self.i += 1;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            Err(format!("expected digit at byte {}", self.i))
        } else {
            Ok(())
        }
    }

    /// Scans the strict number grammar first, then converts the matched
    /// slice: `str::parse::<f64>` alone accepts `01`, `1.` and `1.e5`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Integer part: "0" alone, or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(format!("expected digit at byte {}", self.i)),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        self.b
            .get(start..self.i)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        let end = self.i + word.len();
        if self.b.get(self.i..end) == Some(word.as_bytes()) {
            self.i = end;
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_and_rejects_by_the_strict_grammar() {
        let cases: &[(&str, bool)] = &[
            ("null", true),
            (" true ", true),
            ("false", true),
            ("0", true),
            ("-1.5e-3", true),
            ("-1.5e-7", true),
            ("1e0", true),
            ("1E+2", true),
            ("\"a \\\"quoted\\\" string\\n\"", true),
            ("\"a\\nb\"", true),
            ("\"\\u00e9\\u12aB\"", true),
            ("[]", true),
            ("[1, 2, 3]", true),
            ("{}", true),
            (r#"{"a": {"b": [1.25e2, null]}, "c": "d"}"#, true),
            (r#"{"a": [1, 2, {"b": "c"}], "d": false}"#, true),
            ("  { \"k\" : [ true , false ] }  ", true),
            ("", false),
            ("{", false),
            ("[1, 2", false),
            ("[1,]", false),
            ("{\"a\":}", false),
            ("{\"a\" 1}", false),
            ("{\"a\": 1,}", false),
            ("[1 2]", false),
            ("1 2", false),
            ("01", false),
            ("1.", false),
            ("1.e5", false),
            (".5", false),
            ("1e", false),
            ("+1", false),
            ("nul", false),
            ("\"unterminated", false),
            ("\"bad \\x escape\"", false),
            ("\"\\u+12a\"", false),
            ("\"\\u12\"", false),
            ("\"raw \u{1} control\"", false),
            ("{} extra", false),
            ("NaN", false),
            ("inf", false),
        ];
        for &(src, ok) in cases {
            assert_eq!(parse(src).is_ok(), ok, "parse({src:?})");
            assert_eq!(validate(src).is_ok(), ok, "validate({src:?})");
        }
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e-7").unwrap(), Json::Num(-1.5e-7));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("\"\\u00e9 \u{e9} \\ud800\"").unwrap(),
            Json::Str("\u{e9} \u{e9} \u{fffd}".into())
        );
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": false}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Json::Bool(false)));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("c"));
    }

    #[test]
    fn roundtrips_a_tinybench_report() {
        let src = r#"{
          "suite": "solvers",
          "mode": "full",
          "samples": [
            {"name": "lu/8", "median_s": 5.1e-7, "min_s": 4.7e-7, "iters": 10, "batches": 5}
          ]
        }"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("full"));
        let s = &v.get("samples").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(s.get("min_s").and_then(Json::as_f64), Some(4.7e-7));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + "1" + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let raw = "ctrl \u{2} tab\t quote\" back\\";
        let quoted = format!("\"{}\"", escape(raw));
        assert_eq!(parse(&quoted).unwrap(), Json::Str(raw.into()));
    }

    #[test]
    fn fmt_f64_emits_valid_json_numbers() {
        for v in [0.0, 1.0, -1.5, 3.25e-12, 6.02e23, f64::MIN_POSITIVE] {
            let s = fmt_f64(v);
            let back = parse(&s).ok().and_then(|j| j.as_f64());
            assert!(
                back.is_some_and(|b| b.to_bits() == v.to_bits()),
                "{v} -> {s} -> {back:?}"
            );
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }
}
