//! JSON in and out. The vendored `serde_json` only renders, so reading
//! `BENCHMARK.json` and earlier results needs the small parser here;
//! writing goes through `serde_json` so result files look like every
//! other artifact of the repo.

use serde::{Serialize, Value};

/// A [`Value`] tree `serde_json` can render.
pub struct Doc<'a>(pub &'a Value);

impl Serialize for Doc<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Doc(v)).expect("value trees always render")
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Doc(v)).expect("value trees always render")
}

/// Builds an object, keeping key order.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// A finite number, or `null` (JSON has no NaN/inf).
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

pub fn opt_num(x: Option<f64>) -> Value {
    x.map_or(Value::Null, num)
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(v)
}

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.fail("expected ':'"));
                    }
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Object(entries));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::I64(n));
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.fail("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.fail("invalid utf-8"));
                }
                b'\\' => {
                    let Some(&esc) = self.src.get(self.pos) else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in the files
                            // this harness reads; map them to U+FFFD.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.fail("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_shapes_the_harness_writes() {
        let text = r#"{"a": [1, -2, 3.5e0, true, null], "b": {"c": "x\n\"y\"A"}, "d": {}}"#;
        let v = parse(text).unwrap();
        assert_eq!(
            as_f64(&as_array(get(&v, "a").unwrap()).unwrap()[2]),
            Some(3.5)
        );
        assert_eq!(
            as_str(get(get(&v, "b").unwrap(), "c").unwrap()),
            Some("x\n\"y\"A")
        );
        assert_eq!(parse(&compact(&v)).unwrap(), v);
        assert_eq!(parse(&pretty(&v)).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"abc",
            "nul",
            "{\"a\":--1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(compact(&num(f64::NAN)), "null");
        assert_eq!(compact(&opt_num(None)), "null");
        assert_eq!(compact(&num(1.25)), "1.25");
    }
}
