//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from outside the program, around the public calls
//! into each layer. They stay in memory while the run measures and are
//! written out once it ends.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans; the innermost open span is the parent of the
/// next one opened.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `idx` in seconds.
    pub fn seconds(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`).
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span in nanoseconds: its duration minus the part of
/// its interval that its child spans cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            // Clip to the parent: a child cannot cover time outside it.
            let a = s.start_ns.max(parent.start_ns);
            let b = s.end_ns.min(parent.end_ns);
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time per span name, summed over every span of that name, in
/// seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            // Runs past its parent's end: only 90..100 counts.
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn names_sum_across_spans() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 10, Some(0)),
            span("a", 20, 25, Some(0)),
        ];
        let by = self_seconds_by_name(&spans);
        assert!((by["a"] - 15e-9).abs() < 1e-18);
        assert!((by["root"] - 85e-9).abs() < 1e-18);
    }

    #[test]
    fn tracer_links_nested_spans_to_their_parent() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner2", |t| t.span("leaf", |_| ()));
        });
        t.span("second_root", |_| ());
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        let st = self_times(t.spans());
        let total: u64 = st[..4].iter().sum();
        let outer = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(total, outer, "self times of a tree sum to its root span");
    }
}
