//! The result line: one JSON object with the run's correctness,
//! operation accounting and named metrics.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// What one run printed as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations run: captures and replay points (and, in the traced
    /// run, layer probes).
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Serialise on one line. Values print with every digit Rust's
    /// shortest round-trip formatting gives; a non-finite value (which
    /// no metric should produce) prints as `null`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number, or `null` for NaN and infinities.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
pub(crate) mod json {
    //! A minimal JSON reader for the round-trip and manifest tests.

    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>, Vec<String>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> &Value {
            match self {
                Value::Obj(m, _) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
                _ => panic!("not an object"),
            }
        }
        pub fn keys(&self) -> &[String] {
            match self {
                Value::Obj(_, order) => order,
                _ => panic!("not an object"),
            }
        }
        pub fn items(&self) -> &[Value] {
            match self {
                Value::Arr(v) => v,
                _ => panic!("not an array"),
            }
        }
        pub fn str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
        pub fn num(&self) -> f64 {
            match self {
                Value::Num(v) => *v,
                _ => panic!("not a number"),
            }
        }
    }

    pub fn parse(text: &str) -> Value {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing input");
        v
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b[self.i], c, "expected {}", c as char);
            self.i += 1;
        }
        fn value(&mut self) -> Value {
            self.ws();
            match self.b[self.i] {
                b'{' => {
                    self.i += 1;
                    let (mut m, mut order) = (BTreeMap::new(), Vec::new());
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return Value::Obj(m, order);
                    }
                    loop {
                        self.ws();
                        let k = self.string();
                        self.eat(b':');
                        order.push(k.clone());
                        m.insert(k, self.value());
                        self.ws();
                        self.i += 1;
                        if self.b[self.i - 1] == b'}' {
                            return Value::Obj(m, order);
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut v = Vec::new();
                    self.ws();
                    if self.b[self.i] == b']' {
                        self.i += 1;
                        return Value::Arr(v);
                    }
                    loop {
                        v.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.b[self.i - 1] == b']' {
                            return Value::Arr(v);
                        }
                    }
                }
                b'"' => Value::Str(self.string()),
                b't' => self.word("true", Value::Bool(true)),
                b'f' => self.word("false", Value::Bool(false)),
                b'n' => self.word("null", Value::Null),
                _ => {
                    let start = self.i;
                    while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                    Value::Num(s.parse().expect("number"))
                }
            }
        }
        fn word(&mut self, w: &str, v: Value) -> Value {
            assert!(self.b[self.i..].starts_with(w.as_bytes()));
            self.i += w.len();
            v
        }
        fn string(&mut self) -> String {
            assert_eq!(self.b[self.i], b'"');
            self.i += 1;
            let mut out = String::new();
            loop {
                match self.b[self.i] {
                    b'"' => {
                        self.i += 1;
                        return out;
                    }
                    b'\\' => {
                        let e = self.b[self.i + 1];
                        self.i += 2;
                        match e {
                            b'u' => {
                                let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                                out.push(
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                                );
                                self.i += 4;
                            }
                            b'n' => out.push('\n'),
                            other => out.push(other as char),
                        }
                    }
                    _ => {
                        let rest = std::str::from_utf8(&self.b[self.i..]).expect("utf-8");
                        let c = rest.chars().next().expect("char");
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let r = Report {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.812_734_567_891_234_5, "s"),
                Metric::new("sim_mcycles_per_s", 19.5e3 / 7.0, "Mcycles/s"),
                Metric::new("sim.10GbE.uipc", 1.0 / 3.0, "instr/cycle"),
                Metric::new("trace.events", 10_312_345.0, "count"),
                Metric::new("odd\"name\\", 1e-9, "s"),
            ],
        };
        let v = parse(&r.to_json());
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        let back = Report {
            correct: v.get("correct") == &Value::Bool(true),
            attempted: v.get("attempted").num() as u64,
            failed: v.get("failed").num() as u64,
            metrics: v
                .get("metrics")
                .keys()
                .iter()
                .map(|k| {
                    let m = v.get("metrics").get(k);
                    Metric::new(k.clone(), m.get("value").num(), m.get("unit").str())
                })
                .collect(),
        };
        // Bit-exact: every digit of every value survives.
        assert_eq!(back, r);
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let r = Report {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric::new("x", f64::NAN, "s")],
        };
        assert_eq!(
            parse(&r.to_json()).get("metrics").get("x").get("value"),
            &Value::Null
        );
    }
}
