//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced run wraps every call into a layer's public function in a
//! span `{name, start, end, parent, op}`; spans of one operation share
//! its `op` id. Spans stay in memory and are written out once, when the
//! run ends. A name is `layer.what`; the layer is the crate the call
//! goes into (`op.*` marks the benchmark's own root span of a request).
//! A span's self time is its duration minus what its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// At most this many spans are written to the trace file; every span
/// still counts in the summary.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Handle of an open or finished span (`None` while tracing is off).
pub type SpanId = Option<u32>;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Index of the span that caused this one, if any.
    pub parent: SpanId,
    /// Operation the span belongs to.
    pub op: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records nothing unless `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (a traced run alternates windows to
    /// measure what tracing costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.record(name, parent, op, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span whose start and end are already known.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name and per-layer totals.
    pub fn summarise(&self) -> TraceSummary {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        // A child is linked by cause, not by clock: the replayed pieces of
        // a delta run after the real call they explain, so a child's whole
        // duration is taken off its parent wherever it sits in time.
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut names: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let row = names.entry(s.name).or_default();
            row.calls += 1;
            row.busy_ns += s.end_ns - s.start_ns;
            row.self_ns += (*own).max(0) as u64;
        }
        let mut layers: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (name, row) in &names {
            let layer = name.split('.').next().unwrap_or(name);
            let l = layers.entry(layer).or_default();
            l.calls += row.calls;
            l.busy_ns += row.busy_ns;
            l.self_ns += row.self_ns;
        }
        TraceSummary { names, layers }
    }

    /// Writes the spans (the first [`MAX_WRITTEN_SPANS`]) and the
    /// summary as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let summary = self.summarise();
        let mut out = String::with_capacity(64 * self.spans.len().min(MAX_WRITTEN_SPANS) + 4096);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{},\"layers\":[",
            self.spans.len(),
            self.spans.len().min(MAX_WRITTEN_SPANS)
        );
        for (i, (layer, r)) in summary.layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"layer\":\"{layer}\",\"calls\":{},\"busy_ns\":{},\"self_ns\":{}}}",
                r.calls, r.busy_ns, r.self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Calls, busy time and self time of one span name or one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of durations minus what child spans cover.
    pub self_ns: u64,
}

/// What [`Tracer::summarise`] returns.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Totals per span name.
    pub names: BTreeMap<&'static str, Row>,
    /// Totals per layer (the part of a name before the dot).
    pub layers: BTreeMap<&'static str, Row>,
}

impl TraceSummary {
    /// The per-layer table: calls, busy time, self time, and the share
    /// of all traced self time each layer holds.
    pub fn table(&self) -> String {
        let total: u64 = self.layers.values().map(|r| r.self_ns).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>12} {:>7}",
            "layer / span", "calls", "busy ms", "self ms", "self %"
        );
        for (layer, l) in &self.layers {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
                layer,
                l.calls,
                l.busy_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / total.max(1) as f64
            );
            for (name, r) in self
                .names
                .iter()
                .filter(|(n, _)| n.split('.').next() == Some(layer))
            {
                let _ = writeln!(
                    out,
                    "    {:<26} {:>10} {:>12.3} {:>12.3}",
                    name,
                    r.calls,
                    r.busy_ns as f64 / 1e6,
                    r.self_ns as f64 / 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.record("core.ingest", None, 7, 0, 100);
        t.record("graph.apply_delta", root, 7, 10, 30);
        t.record("matching.wcoj", root, 7, 30, 90);
        let s = t.summarise();
        assert_eq!(s.names["core.ingest"].busy_ns, 100);
        assert_eq!(s.names["core.ingest"].self_ns, 20);
        assert_eq!(s.layers["matching"].self_ns, 60);
        assert_eq!(s.layers["graph"].calls, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.begin("server.rank", None, 0);
        t.end(id);
        assert_eq!(t.time("server.rank", None, 0, || 5), 5);
        assert_eq!(t.len(), 0);
        t.set_enabled(true);
        assert!(t.begin("server.rank", None, 0).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Tracer::new(Instant::now(), true);
        a.record("op.read", None, 0, 0, 10);
        let mut b = Tracer::new(Instant::now(), true);
        let root = b.record("core.ingest", None, 1, 0, 50);
        b.record("graph.apply_delta", root, 1, 0, 20);
        a.absorb(b);
        let s = a.summarise();
        assert_eq!(s.names["core.ingest"].self_ns, 30);
        assert_eq!(s.names["op.read"].self_ns, 10);
    }
}
