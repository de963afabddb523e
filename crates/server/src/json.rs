//! The workspace's JSON codec: one string escaper for every writer
//! (Chrome traces, bench reports) and one recursive-descent reader.
//!
//! The workspace builds offline with no serde, so both halves are
//! hand-rolled. Writers format their own layout and numbers and quote
//! every string through [`Str`]. The reader takes RFC 8259 text —
//! objects, arrays, strings, numbers, bools and null — and rejects
//! anything else, including trailing data, unescaped control characters
//! in strings and numbers outside the JSON grammar. [`for_each_item`]
//! reads a top-level array one element at a time, so a validator holds
//! the parsed value of only one element at once.

use std::fmt;

/// Nesting bound of the reader: deeper input is refused instead of
/// exhausting the stack.
const MAX_DEPTH: usize = 128;

/// A string quoted and escaped as a JSON string literal when displayed:
/// quotes, backslashes and control characters are escaped, everything
/// else is written as is.
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        f.write_char('"')?;
        for c in self.0.chars() {
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
        f.write_char('"')
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Object),
}

/// A parsed JSON object: its fields in document order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    /// `(key, value)` pairs as they appear; a repeated key keeps every
    /// occurrence and lookups see the first.
    pub fields: Vec<(String, Value)>,
}

impl Object {
    /// The value of `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of `key`, or an error naming it.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        self.field(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The string value of `key`.
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)?.as_str(key)
    }

    /// The numeric value of `key`.
    pub fn get_num(&self, key: &str) -> Result<f64, String> {
        self.get(key)?.as_num(key)
    }
}

impl Value {
    /// Parses one JSON document; surrounding whitespace is allowed,
    /// trailing data is not.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut reader = Reader { text, pos: 0 };
        let value = reader.value(0)?;
        reader.finish()?;
        Ok(value)
    }

    /// This value as an object; `what` names it in the error.
    pub fn as_obj(&self, what: &str) -> Result<&Object, String> {
        match self {
            Value::Obj(o) => Ok(o),
            other => Err(format!("{what}: expected object, got {}", other.kind())),
        }
    }

    /// This value as an array; `what` names it in the error.
    pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {}", other.kind())),
        }
    }

    /// This value as a string; `what` names it in the error.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {}", other.kind())),
        }
    }

    /// This value as a number; `what` names it in the error.
    pub fn as_num(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {}", other.kind())),
        }
    }

    /// This value as a bool; `what` names it in the error.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Parses `text` as one JSON array and hands each element with its index
/// to `f`, in order. Each element is parsed only after `f` has consumed
/// the one before it, so only one is alive at a time. Stops at the
/// first syntax error or the first error `f` returns.
pub fn for_each_item(
    text: &str,
    mut f: impl FnMut(usize, Value) -> Result<(), String>,
) -> Result<(), String> {
    let mut reader = Reader { text, pos: 0 };
    reader.skip_ws();
    if !reader.eat(b'[') {
        return Err("expected a JSON array".into());
    }
    reader.skip_ws();
    if !reader.eat(b']') {
        for i in 0.. {
            f(i, reader.value(1)?)?;
            if reader.list_end(b']')? {
                break;
            }
        }
    }
    reader.finish()
}

/// Cursor over the input; every method leaves `pos` on a char boundary.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After a list element: consumes `,` (more follow) or `close` (the
    /// list ends, returns true).
    fn list_end(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos))
        }
    }

    /// Only whitespace may follow the document.
    fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            let from = r.pos;
            while matches!(r.peek(), Some(b'0'..=b'9')) {
                r.pos += 1;
            }
            r.pos > from
        };
        self.eat(b'-');
        let int_start = self.pos;
        let mut ok =
            digits(self) && !(self.text.as_bytes()[int_start] == b'0' && self.pos > int_start + 1);
        if ok && self.eat(b'.') {
            ok = digits(self);
        }
        if ok && (self.eat(b'e') || self.eat(b'E')) {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok = digits(self);
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if ok => Ok(Value::Num(n)),
            _ => Err(format!("bad number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte;
            // all three are ASCII, so the run ends on a char boundary.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
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
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {}", self.pos));
                            }
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            // No writer here emits surrogates; they read
                            // as the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if self.list_end(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // '{'
        let mut obj = Object::default();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(obj));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            obj.fields.push((key, self.value(depth + 1)?));
            if self.list_end(b'}')? {
                return Ok(Value::Obj(obj));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaper_round_trips_through_the_reader() {
        let s = "quote \" backslash \\ slash / nl \n cr \r tab \t bell \u{7} us \u{1f} é 🦀";
        let quoted = Str(s).to_string();
        assert_eq!(
            quoted,
            "\"quote \\\" backslash \\\\ slash / nl \\n cr \\r tab \\t bell \\u0007 us \\u001f é 🦀\""
        );
        assert_eq!(Value::parse(&quoted).unwrap(), Value::Str(s.into()));
    }

    #[test]
    fn reader_parses_every_kind() {
        let v = Value::parse(
            " {\"a\": [1, -2.5e3, 0.125, true, false, null], \"b\": {}, \"c\": [], \"a\": \"\\u00e9\\/\"} ",
        )
        .unwrap();
        let obj = v.as_obj("doc").unwrap();
        let a = obj.get("a").unwrap().as_arr("a").unwrap();
        assert_eq!(
            a,
            [
                Value::Num(1.0),
                Value::Num(-2500.0),
                Value::Num(0.125),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null
            ]
        );
        assert_eq!(obj.get("b").unwrap(), &Value::Obj(Object::default()));
        assert_eq!(obj.get("c").unwrap(), &Value::Arr(Vec::new()));
        // Repeated keys are kept; lookups see the first.
        assert_eq!(obj.fields.len(), 4);
        assert_eq!(obj.fields[3].1, Value::Str("é/".into()));
        assert!(obj.get_num("b").unwrap_err().contains("expected number, got object"));
        assert!(obj.get("z").unwrap_err().contains("missing field"));
    }

    #[test]
    fn reader_rejects_what_is_not_json() {
        for bad in [
            "",
            "[1,,2]",
            "[1 2]",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "[1] junk",
            "\"open",
            "\"raw\ttab\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+12a\"",
            "+1",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "nul",
            "[{\"ph\":\"B\"} junk ,, {\"ph\":\"E\"}]",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Value::parse(&"[".repeat(MAX_DEPTH + 2)).unwrap_err().contains("nesting"));
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&nested).is_ok());
    }

    #[test]
    fn for_each_item_reads_one_element_at_a_time() {
        let mut seen = Vec::new();
        for_each_item(" [ {\"n\": 1}, [2], \"3\" ] ", |i, v| {
            seen.push((i, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], (2, Value::Str("3".into())));
        for_each_item("[]", |_, _| Err("no items expected".into())).unwrap();

        // Elements before a syntax error are delivered; the error stops
        // the walk, and so does the first error of the callback.
        let mut count = 0;
        let err = for_each_item("[1, 2 3]", |_, _| {
            count += 1;
            Ok(())
        })
        .unwrap_err();
        assert!(err.contains("expected ','"), "{err}");
        assert_eq!(count, 2);
        let err =
            for_each_item("[1, 2, 3]", |i, _| if i == 1 { Err("stop".into()) } else { Ok(()) });
        assert_eq!(err.unwrap_err(), "stop");

        assert!(for_each_item("{}", |_, _| Ok(())).is_err());
        assert!(for_each_item("[1] [2]", |_, _| Ok(())).is_err());
        assert!(for_each_item("[1", |_, _| Ok(())).is_err());
    }
}
