//! The workspace's one JSON module: the [`Writer`] every report
//! emitter (`probe`, `core`, `analyze`, `bench`) serializes through,
//! and the [`Json`] parser `benchdiff` reads reports back with.
//!
//! The build is offline (no serde) and report JSON is machine-written
//! and small, so a streaming writer and a strict ~200-line
//! recursive-descent parser are enough. Always compiled: unlike the
//! collection primitives this module does not depend on the `enabled`
//! feature.

use std::fmt::Write as _;

/// A streaming JSON writer: values are appended in document order and
/// commas are inserted between siblings automatically.
///
/// Strings and keys are escaped; floats print at a caller-chosen fixed
/// precision and non-finite floats (which JSON cannot represent)
/// become `null`.
///
/// # Examples
///
/// ```
/// let json = probe::json::write(|w| {
///     w.object(|w| {
///         w.key("name").string("a \"quoted\" name");
///         w.key("rows").array(|w| {
///             w.uint(1).float(0.5, 2).float(f64::NAN, 2);
///         });
///     });
/// });
/// assert_eq!(json, r#"{"name":"a \"quoted\" name","rows":[1,0.50,null]}"#);
/// assert!(probe::json::Json::parse(&json).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Writer {
    out: String,
}

/// Serializes one document: runs `body` on a fresh [`Writer`] and
/// returns the text.
pub fn write(body: impl FnOnce(&mut Writer)) -> String {
    let mut writer = Writer::default();
    body(&mut writer);
    writer.out
}

impl Writer {
    /// Separates a new value or key from its preceding sibling: a
    /// comma unless the document is empty or the last byte opened a
    /// container or ended a key (string values end in `"`, so a
    /// payload byte can never be mistaken for an opener).
    fn separate(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    fn quoted(&mut self, text: &str) {
        self.out.push('"');
        for c in text.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    write!(self.out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Writes an object whose members `body` emits as
    /// [`key`](Self::key)/value pairs.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push('{');
        body(self);
        self.out.push('}');
        self
    }

    /// Writes an array whose elements `body` emits.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push('[');
        body(self);
        self.out.push(']');
        self
    }

    /// Writes an object member's key; the next value written is its
    /// value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.quoted(key);
        self.out.push(':');
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.separate();
        self.quoted(value);
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, value: u64) -> &mut Self {
        self.separate();
        write!(self.out, "{value}").expect("writing to String cannot fail");
        self
    }

    /// Writes a float with exactly `decimals` fractional digits, or
    /// `null` when it is NaN or infinite.
    pub fn float(&mut self, value: f64, decimals: usize) -> &mut Self {
        self.separate();
        if value.is_finite() {
            write!(self.out, "{value:.decimals$}").expect("writing to String cannot fail");
        } else {
            self.out.push_str("null");
        }
        self
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offset if `text` is not one JSON
    /// value, or nests arrays and objects deeper than 128 levels (the
    /// parser recurses per level; the artifacts this workspace writes
    /// stay under ten).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
const MAX_NESTING: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: u32,
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Parses one array or object, a level deeper than its parent.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy a run of plain bytes in one go.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf-8 in string")?,
                    );
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        // Nesting is bounded, so hostile depth is an error and not a
        // stack overflow.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(128)).is_ok());
        assert!(Json::parse(&nested(129)).is_err());
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        let json = write(|w| {
            w.string("a\"b\\c\nd\u{1}");
        });
        assert_eq!(json, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    /// A generated document: what the writer was told to emit.
    #[derive(Clone, Debug)]
    enum Doc {
        UInt(u64),
        Fixed(f64, usize),
        Str(String),
        Arr(Vec<Doc>),
        Obj(Vec<(String, Doc)>),
    }

    /// Splitmix64 — the generator is seeded per case by the property.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn hostile_string(state: &mut u64) -> String {
        const ALPHABET: [char; 14] = [
            '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '/', '{', '[', ':', ',', 'é', 'x',
        ];
        (0..next(state) % 9)
            .map(|_| ALPHABET[(next(state) % ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn doc(state: &mut u64, depth: u32) -> Doc {
        let leaf_only = depth == 0;
        match next(state) % if leaf_only { 3 } else { 5 } {
            0 => Doc::UInt(match next(state) % 4 {
                0 => 0,
                1 => u64::MAX,
                2 => 1 << 53,
                _ => next(state),
            }),
            1 => {
                let value = match next(state) % 6 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => (next(state) as i64 as f64) / 1e9,
                };
                Doc::Fixed(value, (next(state) % 5) as usize)
            }
            2 => Doc::Str(hostile_string(state)),
            3 => Doc::Arr(
                (0..next(state) % 4)
                    .map(|_| doc(state, depth - 1))
                    .collect(),
            ),
            _ => Doc::Obj(
                (0..next(state) % 4)
                    .map(|_| (hostile_string(state), doc(state, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn emit(doc: &Doc, w: &mut Writer) {
        match doc {
            Doc::UInt(v) => {
                w.uint(*v);
            }
            Doc::Fixed(v, decimals) => {
                w.float(*v, *decimals);
            }
            Doc::Str(s) => {
                w.string(s);
            }
            Doc::Arr(items) => {
                w.array(|w| items.iter().for_each(|item| emit(item, w)));
            }
            Doc::Obj(fields) => {
                w.object(|w| {
                    for (key, value) in fields {
                        emit(value, w.key(key));
                    }
                });
            }
        }
    }

    /// What the parser must read back for `doc`: numbers compare at
    /// the precision they were printed with.
    fn expected(doc: &Doc) -> Json {
        match doc {
            Doc::UInt(v) => Json::Num(*v as f64),
            Doc::Fixed(v, _) if !v.is_finite() => Json::Null,
            Doc::Fixed(v, decimals) => {
                Json::Num(format!("{v:.decimals$}").parse().expect("printed float"))
            }
            Doc::Str(s) => Json::Str(s.clone()),
            Doc::Arr(items) => Json::Arr(items.iter().map(expected).collect()),
            Doc::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), expected(v)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #[test]
        fn written_documents_parse_back_equal(seed in any::<u64>()) {
            let mut state = seed;
            let doc = doc(&mut state, 4);
            let text = write(|w| emit(&doc, w));
            let parsed = Json::parse(&text);
            prop_assert_eq!(parsed, Ok(expected(&doc)), "{}", text);
        }
    }
}
