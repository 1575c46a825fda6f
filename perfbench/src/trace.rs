//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers. The program itself is not instrumented: every span
//! starts and ends in benchmark code. Spans are written once, when the
//! run ends.

use jsonkit::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds from the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (request, compile) this span belongs to.
    pub op: u64,
}

/// A span recorder. A disabled tracer records nothing and returns
/// `None` ids, so the untraced path pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3
    }

    /// Records a finished interval; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.us(Instant::now());
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in milliseconds, grouped by name: the
    /// span's duration minus the part of it its children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_us.max(s.start_us), c.end_us.min(s.end_us))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut cursor = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(cursor);
                if b > a {
                    union += b - a;
                    cursor = b;
                }
            }
            let own = (s.end_us - s.start_us - union).max(0.0);
            out.entry(s.name).or_default().push(own / 1e3);
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Value::Str(s.name.into())),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0, true);
        let root = tr.record("op", None, 1, at(0), at(100));
        // Two overlapping children cover 10..50 (40 ms) in total.
        tr.record("a", root, 1, at(10), at(40));
        let b = tr.record("b", root, 1, at(30), at(50));
        tr.record("c", b, 1, at(35), at(45));
        let selfs = tr.self_times_ms();
        assert!((selfs["op"][0] - 60.0).abs() < 1e-6);
        assert!((selfs["a"][0] - 30.0).abs() < 1e-6);
        assert!((selfs["b"][0] - 10.0).abs() < 1e-6);
        assert!((selfs["c"][0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now(), false);
        let id = tr.open("x", None, 0);
        tr.close(id);
        assert_eq!(tr.time("y", None, 0, || 3), 3);
        assert!(tr.spans().is_empty());
    }
}
