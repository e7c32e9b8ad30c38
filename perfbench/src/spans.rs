//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end (host seconds since the run
//! began), the span that was open when it started, and the iteration
//! it belongs to. Spans stay in memory and are written out once, at
//! the end of the run. With recording off every method is a no-op, so
//! the untraced run pays nothing but a branch.

use std::time::Instant;

use crate::report::{json_num, json_str};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Workload iteration (or probe pass) the span belongs to.
    pub iter: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Handle to an open span (`None` while recording is off).
#[must_use = "close the span"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    on: bool,
    iter: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `t0`.
    pub fn new(t0: Instant) -> Self {
        Spans {
            t0,
            on: false,
            iter: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off, and tag later spans with `iter`.
    pub fn set(&mut self, on: bool, iter: u32) {
        self.on = on;
        self.iter = iter;
    }

    pub fn open(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            iter: self.iter,
            parent: self.stack.last().copied(),
            start_s: now,
            end_s: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id].end_s = self.now();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover.
    /// Spans are recorded from one thread, so siblings never overlap.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration_s();
            }
        }
        out
    }

    /// Time between the first span's start and the last span's end that
    /// no top-level span covers.
    pub fn uncovered_s(&self) -> f64 {
        let roots = self.spans.iter().filter(|s| s.parent.is_none());
        let (mut lo, mut hi, mut covered) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for s in roots {
            lo = lo.min(s.start_s);
            hi = hi.max(s.end_s);
            covered += s.duration_s();
        }
        if covered == 0.0 {
            0.0
        } else {
            hi - lo - covered
        }
    }

    /// Summed duration of spans named `name` in iteration `iter`.
    pub fn total(&self, iter: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// Self time summed per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(String, f64, usize)> {
        let mut out: Vec<(String, f64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += t;
                    e.2 += 1;
                }
                None => out.push((s.name.clone(), t, 1)),
            }
        }
        out
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .zip(self.self_times())
            .enumerate()
            .map(|(id, (s, self_s))| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"iter\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                    json_str(&s.name),
                    s.iter,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_num(s.start_s),
                    json_num(s.end_s),
                    json_num(self_s)
                )
            })
            .collect();
        format!("[\n  {}\n]", items.join(",\n  "))
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: name.into(),
            iter: 0,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new(crate::now());
        s.spans = vec![
            span("iteration", None, 0.0, 10.0),
            span("setup", Some(0), 1.0, 4.0),
            span("build", Some(1), 1.0, 2.0),
            span("replay", Some(0), 5.0, 9.0),
            span("iteration", None, 12.0, 13.0),
        ];
        let st = s.self_times();
        assert_eq!(st, vec![3.0, 2.0, 1.0, 4.0, 1.0]);
        // 0..13 minus the two roots (10 + 1).
        assert_eq!(s.uncovered_s(), 2.0);
        let by = s.self_time_by_name();
        assert_eq!(by[0], ("iteration".to_string(), 4.0, 2));
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut s = Spans::new(crate::now());
        let v = s.time("x", || 7);
        assert_eq!(v, 7);
        assert!(s.spans().is_empty());
        s.set(true, 3);
        let outer = s.open("outer");
        s.time("inner", || ());
        s.close(outer);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].iter, 3);
    }
}
