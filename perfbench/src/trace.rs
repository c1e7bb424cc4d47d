//! In-memory span recorder for the traced run. Spans are opened around the
//! benchmark's own calls into each layer, kept in memory, and written out
//! once when the run ends.

use crate::measure::{num, quote};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    pass: usize,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Starts a new pass id; spans opened from now on carry it.
    pub fn next_pass(&mut self) -> usize {
        self.pass += 1;
        self.pass
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Total duration of the spans named `name` in `pass`.
    pub fn total(&self, pass: usize, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].pass == pass && self.spans[i].name == name)
            .map(|i| self.duration(i))
            .sum()
    }

    /// Self time per span name in `pass`: each span's duration minus the
    /// durations of its direct children.
    pub fn self_times(&self, pass: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.pass != pass {
                continue;
            }
            *out.entry(s.name).or_insert(0.0) += self.duration(i);
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_insert(0.0) -= self.duration(i);
            }
        }
        out
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":{},\"start\":{},\"end\":{},\"parent\":{},\"pass\":{}}}",
                    quote(s.name),
                    num(s.start),
                    num(s.end),
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.pass
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
