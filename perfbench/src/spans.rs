//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! Spans live in memory and are written once, at the end of the traced
//! run. A disabled recorder takes no clock readings, so the timed runs
//! pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`NONE`] when the recorder is off or for a
/// root span's parent.
pub type SpanRef = usize;

/// No span.
pub const NONE: SpanRef = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanRef,
    /// Request (or disk, or tenant) the span belongs to; 0 when none.
    req: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanRef, req: u64) -> SpanRef {
        if !self.on {
            return NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, s: SpanRef) {
        if s != NONE {
            let end = self.ns(Instant::now());
            self.spans[s].end_ns = end;
        }
    }

    /// Records a span whose bounds were read elsewhere (the interval
    /// between two completion callbacks).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanRef,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in nanoseconds of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// (request, duration in ns) of every span named `name`, in order.
    pub fn durations_by_req(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.req, s.end_ns - s.start_ns))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON document: a list of
    /// `[name, start_ns, end_ns, parent, req]` rows (parent -1 for roots).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut doc = String::with_capacity(self.spans.len() * 48 + 32);
        doc.push_str(
            "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"req\"],\"spans\":[\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                doc,
                "[\"{}\",{},{},{},{}]{sep}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        doc.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let root = s.open("root", NONE, 0);
        let t0 = Instant::now();
        let child_end = t0 + std::time::Duration::from_micros(5);
        s.push("child", root, 1, t0, child_end);
        s.close(root);
        // Force a root span that strictly covers its child.
        s.spans[root].start_ns = s.ns(t0);
        s.spans[root].end_ns = s.ns(child_end) + 3_000;
        let t = s.totals();
        assert_eq!(t["child"].total_ns, 5_000);
        assert_eq!(t["root"].self_ns, 3_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let r = s.open("x", NONE, 0);
        s.close(r);
        assert_eq!(r, NONE);
        assert_eq!(s.len(), 0);
    }
}
