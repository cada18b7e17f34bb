//! Spans recorded by the benchmark around its calls into the program.
//!
//! Every phase is timed through [`Tracer::begin`]/[`Tracer::end`]; an
//! untraced run reads the clock the same way but keeps nothing, so the
//! two runs differ only by what the traced one stores. Spans stay in
//! memory and are written out once, when the workload run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in the tracer (an opaque handle for untraced runs).
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    index: usize,
    start: Instant,
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans (`enabled`) or only times them.
    pub fn new(enabled: bool, run_id: impl Into<String>) -> Self {
        Tracer {
            enabled,
            run_id: run_id.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start = Instant::now();
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
            });
            self.open.push(index);
        }
        SpanId { index, start }
    }

    /// Close a span and return its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end = Instant::now();
        if self.enabled {
            let top = self.open.pop();
            assert_eq!(top, Some(id.index), "spans must close innermost first");
            self.spans[id.index].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(id.start).as_secs_f64()
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Per span name: count, total seconds, and self seconds (duration
    /// minus the time its child spans cover).
    pub fn rollup(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// The spans and their rollup as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"run_id\":{},\"spans\":[",
            crate::json::string(&self.run_id)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("],\"rollup\":{");
        for (i, (name, (count, total, self_s))) in self.rollup().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{count},\"total_s\":{},\"self_s\":{}}}",
                crate::json::number(total),
                crate::json::number(self_s)
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true, "test-run");
        let outer = t.begin("outer");
        let (_, inner_s) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer_s = t.end(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.005);
        assert_eq!(t.spans[1].parent, Some(0));
        let rollup = t.rollup();
        let (count, total, self_s) = rollup["outer"];
        assert_eq!(count, 1);
        assert!((total - self_s - rollup["inner"].1).abs() < 1e-9);
        assert!(t
            .to_json()
            .starts_with("{\"run_id\":\"test-run\",\"spans\":[{\"id\":0,\"parent\":null"));
    }

    #[test]
    fn an_untraced_run_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, "quiet");
        let (v, secs) = t.time("work", || 6 * 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty() && t.rollup().is_empty());
    }
}
