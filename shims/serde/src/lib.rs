//! Offline drop-in subset of `serde`.
//!
//! The build container has no network access, so the workspace ships a
//! minimal stand-in: the `Serialize` / `Deserialize` traits here target
//! JSON directly (there is exactly one data format in this repo). The
//! re-exported derive macros from the local `serde_derive` shim expand
//! to nothing and no workspace type uses them; they stay re-exported so
//! the crate graph (and `perfbench/Cargo.lock`) is unchanged. Only the
//! types that persist across processes (campaign and Farron-eval
//! checkpoints, `GOLDEN.json`) implement the traits, explicitly via the
//! two `impl_json_*` macros below, which mirror serde's encoding
//! conventions:
//!
//! - structs            -> `{"field":value,...}`
//! - unit enum variants -> `"Variant"`

pub use serde_derive::{Deserialize, Serialize};

/// JSON-serializable value. The shim collapses serde's format-generic
/// `Serializer` plumbing into direct string building.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// JSON-deserializable value.
pub trait Deserialize: Sized {
    /// Parses a value from the parser's current position.
    fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error>;
}

pub mod json {
    //! Hand-rolled JSON scanner shared by the trait impls.

    use std::fmt;

    /// Parse failure with a byte offset into the input.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        msg: String,
        at: usize,
    }

    impl Error {
        /// Creates an error without position information.
        pub fn new(msg: impl Into<String>) -> Self {
            Error {
                msg: msg.into(),
                at: 0,
            }
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{} at byte {}", self.msg, self.at)
        }
    }

    impl std::error::Error for Error {}

    /// Cursor over a JSON document.
    pub struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        /// Starts parsing at the beginning of `input`.
        pub fn new(input: &'a str) -> Self {
            Parser {
                bytes: input.as_bytes(),
                pos: 0,
            }
        }

        /// Builds an error at the current position.
        pub fn err(&self, msg: impl Into<String>) -> Error {
            Error {
                msg: msg.into(),
                at: self.pos,
            }
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek_byte(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        /// True when the next non-whitespace byte equals `c`.
        pub fn peek_is(&mut self, c: char) -> bool {
            self.peek_byte() == Some(c as u8)
        }

        /// Consumes the punctuation byte `c` or fails.
        pub fn expect(&mut self, c: char) -> Result<(), Error> {
            if self.peek_byte() == Some(c as u8) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected '{c}'")))
            }
        }

        /// Consumes a `,` if present; returns whether one was consumed.
        pub fn consume_comma(&mut self) -> Result<bool, Error> {
            if self.peek_byte() == Some(b',') {
                self.pos += 1;
                Ok(true)
            } else {
                Ok(false)
            }
        }

        /// Fails unless only whitespace remains.
        pub fn expect_end(&mut self) -> Result<(), Error> {
            self.skip_ws();
            if self.pos == self.bytes.len() {
                Ok(())
            } else {
                Err(self.err("trailing characters"))
            }
        }

        /// Parses a JSON string literal (handling escapes).
        pub fn parse_string(&mut self) -> Result<String, Error> {
            self.expect('"')?;
            let mut s = String::new();
            loop {
                let b = *self
                    .bytes
                    .get(self.pos)
                    .ok_or_else(|| self.err("unterminated string"))?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(s),
                    b'\\' => {
                        let e = *self
                            .bytes
                            .get(self.pos)
                            .ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        match e {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    _ => {
                        // Multi-byte UTF-8 sequences pass through verbatim.
                        let start = self.pos - 1;
                        let len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                        let chunk = self
                            .bytes
                            .get(start..start + len)
                            .ok_or_else(|| self.err("truncated utf-8"))?;
                        s.push_str(
                            std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?,
                        );
                        self.pos = start + len;
                    }
                }
            }
        }

        /// Scans the raw text of a JSON number token.
        fn number_token(&mut self) -> Result<&'a str, Error> {
            self.skip_ws();
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if start == self.pos {
                return Err(self.err("expected number"));
            }
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("bad number"))
        }

        /// Parses a signed integer.
        pub fn parse_i128(&mut self) -> Result<i128, Error> {
            let tok = self.number_token()?;
            tok.parse()
                .map_err(|_| self.err(format!("bad integer '{tok}'")))
        }

        /// Parses a floating point number.
        pub fn parse_f64(&mut self) -> Result<f64, Error> {
            let tok = self.number_token()?;
            tok.parse()
                .map_err(|_| self.err(format!("bad float '{tok}'")))
        }

        /// Parses `true` / `false`.
        pub fn parse_bool(&mut self) -> Result<bool, Error> {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"true") {
                self.pos += 4;
                Ok(true)
            } else if self.bytes[self.pos..].starts_with(b"false") {
                self.pos += 5;
                Ok(false)
            } else {
                Err(self.err("expected bool"))
            }
        }

        /// Parses `null`; returns whether it was present.
        pub fn consume_null(&mut self) -> bool {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"null") {
                self.pos += 4;
                true
            } else {
                false
            }
        }
    }

    fn utf8_len(first: u8) -> Option<usize> {
        match first {
            0x00..=0x7f => Some(1),
            0xc0..=0xdf => Some(2),
            0xe0..=0xef => Some(3),
            0xf0..=0xf7 => Some(4),
            _ => None,
        }
    }

    /// Appends `s` as a JSON string literal to `out`.
    pub fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl Serialize for $ty {
                fn serialize_json(&self, out: &mut String) {
                    out.push_str(&self.to_string());
                }
            }
            impl Deserialize for $ty {
                fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error> {
                    let v = p.parse_i128()?;
                    <$ty>::try_from(v).map_err(|_| p.err("integer out of range"))
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        // `{:?}` emits the shortest representation that round-trips.
        if self.is_finite() {
            out.push_str(&format!("{self:?}"));
        } else {
            out.push_str("null");
        }
    }
}

impl Deserialize for f64 {
    fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        if p.consume_null() {
            return Ok(f64::NAN);
        }
        p.parse_f64()
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        p.parse_bool()
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        json::write_escaped(self, out);
    }
}

impl Deserialize for String {
    fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        p.parse_string()
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        json::write_escaped(self, out);
    }
}

impl<T: Serialize> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        p.expect('[')?;
        let mut v = Vec::new();
        if !p.peek_is(']') {
            loop {
                v.push(T::deserialize_json(p)?);
                if !p.consume_comma()? {
                    break;
                }
            }
        }
        p.expect(']')?;
        Ok(v)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(p: &mut json::Parser<'_>) -> Result<Self, json::Error> {
        if p.consume_null() {
            Ok(None)
        } else {
            Ok(Some(T::deserialize_json(p)?))
        }
    }
}

/// Implements `Serialize`/`Deserialize` for a plain struct as a JSON
/// object with one member per listed field. Invoke from a scope with
/// access to the fields (the defining module works for private ones).
/// A struct with one type parameter is written `Name<T> { ... }`.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident $(<$param:ident>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$param: $crate::Serialize>)? $crate::Serialize for $ty$(<$param>)? {
            fn serialize_json(&self, out: &mut String) {
                out.push('{');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    let _ = first;
                    out.push('"');
                    out.push_str(stringify!($field));
                    out.push_str("\":");
                    $crate::Serialize::serialize_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
        impl$(<$param: $crate::Deserialize>)? $crate::Deserialize for $ty$(<$param>)? {
            fn deserialize_json(
                p: &mut $crate::json::Parser<'_>,
            ) -> Result<Self, $crate::json::Error> {
                $(let mut $field = None;)+
                p.expect('{')?;
                if !p.peek_is('}') {
                    loop {
                        let key = p.parse_string()?;
                        p.expect(':')?;
                        match key.as_str() {
                            $(stringify!($field) => {
                                $field = Some($crate::Deserialize::deserialize_json(p)?);
                            })+
                            other => return Err(p.err(format!("unknown field '{other}'"))),
                        }
                        if !p.consume_comma()? { break; }
                    }
                }
                p.expect('}')?;
                Ok($ty {
                    $($field: $field.ok_or_else(|| {
                        $crate::json::Error::new(concat!(
                            "missing field '", stringify!($field), "'"
                        ))
                    })?,)+
                })
            }
        }
    };
}

/// Implements the traits for a field-less enum, encoded as the variant
/// name string.
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($ty:ident { $($var:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn serialize_json(&self, out: &mut String) {
                let name = match self {
                    $($ty::$var => stringify!($var),)+
                };
                $crate::json::write_escaped(name, out);
            }
        }
        impl $crate::Deserialize for $ty {
            fn deserialize_json(
                p: &mut $crate::json::Parser<'_>,
            ) -> Result<Self, $crate::json::Error> {
                let name = p.parse_string()?;
                match name.as_str() {
                    $(stringify!($var) => Ok($ty::$var),)+
                    other => Err(p.err(format!("unknown variant '{other}'"))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u32,
        y: f64,
    }

    impl_json_struct!(Point { x, y });

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }

    impl_json_unit_enum!(Color { Red, Green });

    fn to_string<T: Serialize>(v: &T) -> String {
        let mut s = String::new();
        v.serialize_json(&mut s);
        s
    }

    fn from_str<T: Deserialize>(s: &str) -> T {
        let mut p = json::Parser::new(s);
        let v = T::deserialize_json(&mut p).expect("parse");
        p.expect_end().expect("end");
        v
    }

    #[test]
    fn struct_round_trip() {
        let p = Point { x: 7, y: -0.125 };
        let s = to_string(&p);
        assert_eq!(s, r#"{"x":7,"y":-0.125}"#);
        assert_eq!(from_str::<Point>(&s), p);
    }

    #[test]
    fn unit_enum_is_a_string() {
        assert_eq!(to_string(&Color::Green), r#""Green""#);
        assert_eq!(from_str::<Color>(r#""Red""#), Color::Red);
    }

    #[test]
    fn f64_round_trips_shortest_form() {
        for v in [0.0, 1.0, 3.799e9, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let s = to_string(&v);
            assert_eq!(from_str::<f64>(&s), v, "via {s}");
        }
    }

    #[test]
    fn vec_and_option() {
        let v = vec![1u32, 2, 3];
        assert_eq!(to_string(&v), "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>("[1, 2, 3]"), v);
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(from_str::<Option<u32>>("null"), None);
        assert_eq!(from_str::<Option<u32>>("5"), Some(5));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\u{1f600}".to_string();
        assert_eq!(from_str::<String>(&to_string(&s)), s);
    }
}
