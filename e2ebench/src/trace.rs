//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! name, start, end, the span that caused it, and the unit (cell or
//! request) it belongs to. Nothing is written until the run ends. When the
//! recorder is off every call is a no-op, so traced and untraced runs
//! execute the same benchmark code.

use mlc_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    unit: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder. Single-threaded: all benchmark-side calls run on the
/// driving thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start unit `unit`: spans opened from now on carry its id.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            unit: self.unit,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Each span's self time: its duration minus the part its children
    /// cover (children of one span never overlap on one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Per span name: (summed self time in seconds, summed duration in
    /// seconds, span count).
    pub fn layers(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 * 1e-9;
            e.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// The spans as JSONL, then one line per layer with its self time.
    pub fn to_jsonl(&self, header: JsonValue) -> String {
        let mut out = header.to_string_compact();
        out.push('\n');
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let line = JsonValue::object(vec![
                ("type", JsonValue::from("span")),
                ("id", JsonValue::from(s.id as u64)),
                (
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::from(p as u64)),
                ),
                ("unit", JsonValue::from(s.unit)),
                ("name", JsonValue::from(s.name)),
                ("start_ns", JsonValue::from(s.start_ns)),
                ("end_ns", JsonValue::from(s.end_ns)),
                ("self_ns", JsonValue::from(own)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for (name, (own, total, count)) in self.layers() {
            let line = JsonValue::object(vec![
                ("type", JsonValue::from("layer")),
                ("name", JsonValue::from(name)),
                ("self_s", JsonValue::Num(own)),
                ("total_s", JsonValue::Num(total)),
                ("spans", JsonValue::from(count)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_unit(7);
        t.span("cell", |t| {
            t.span("simulate", |t| t.span("compile", |_| ()));
            t.span("optimize", |_| ());
        });
        let layers = t.layers();
        let total: f64 = layers.values().map(|l| l.0).sum();
        assert!(
            (total - layers["cell"].1).abs() < 1e-9,
            "self times sum to the root"
        );
        assert_eq!(layers["compile"].2, 1);
        assert!(t.to_jsonl(JsonValue::Null).lines().count() == 1 + 4 + 4);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("cell", |_| 3), 3);
        assert!(t.layers().is_empty());
    }
}
