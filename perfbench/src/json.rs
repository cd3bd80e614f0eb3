//! Just enough JSON output for the benchmark's one-line records (the
//! workspace builds offline without serde).

use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit, or `null` when not finite.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// An object under construction, keys in insertion order.
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj { fields: Vec::new() }
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Obj {
        self.fields.push(format!("{}: {json}", string(key)));
        self
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        self.raw(key, &number(v))
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Obj {
        self.raw(key, &v.to_string())
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.raw(key, &string(v))
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}
