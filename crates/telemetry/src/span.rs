//! Structured traces over simulated time.
//!
//! A [`Trace`] is a tree of named [`Span`]s sharing one causal trace id:
//! the *propagation trace* follows a database commit through ODG
//! traversal, the regenerate/invalidate decision, per-site distribution,
//! cache application, and the first subsequent fresh serve; the *serving
//! trace* follows one request from the MSIRP route decision through the
//! cache lookup to the rendered response. Spans carry an optional
//! `parent` index into the same trace, so the update lineage "txn receipt
//! → distribute → DUP traversal → cache apply → first fresh hit" is a
//! real tree whose root-to-leaf duration *is* the update-to-serve
//! freshness latency. Timestamps are [`SimTime`] — virtual, not
//! wall-clock — so a fixed seed reproduces byte-identical traces.
//!
//! Span names follow the same `nagano_<subsystem>_<name>` convention as
//! metrics (checked by `tests/tests/signal_names.rs`): `nagano_cluster_txn_receipt`,
//! `nagano_odg_traversal`, `nagano_cache_apply`, ...
//!
//! Completed traces land in a bounded [`TraceBuffer`] ring: old traces
//! fall off the front, memory stays bounded over a 16-day run.

use std::collections::VecDeque;
use std::fmt::Write as _;

use nagano_simcore::sync::Mutex;
use nagano_simcore::{SimDuration, SimTime};

/// Which pipeline a trace follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// DB commit → all serving caches consistent.
    Propagation,
    /// Client request → response.
    Serving,
}

impl TraceKind {
    /// Lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Propagation => "propagation",
            TraceKind::Serving => "serving",
        }
    }
}

/// One timed step inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Step name from the pipeline's fixed vocabulary
    /// (`nagano_cluster_distribute`, `nagano_odg_traversal`,
    /// `nagano_cache_apply`, `nagano_cluster_route`, ...).
    pub name: &'static str,
    /// Free-form annotation (`site=tokyo`, `hit`, `url=/medals`).
    pub detail: String,
    /// Index of the parent span within the same trace (`None` for a
    /// root span). Links make each trace a causal tree.
    pub parent: Option<usize>,
    /// When the step began.
    pub start: SimTime,
    /// When the step ended (`>= start`).
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A completed or in-flight trace: an id plus its spans in recorded order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Correlation id: the transaction log sequence number for propagation
    /// traces, the request ordinal for serving traces.
    pub id: u64,
    /// Pipeline kind.
    pub kind: TraceKind,
    /// Spans in recorded order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Start an empty trace.
    pub fn new(kind: TraceKind, id: u64) -> Self {
        Trace {
            id,
            kind,
            spans: Vec::new(),
        }
    }

    /// Append a root span with no annotation.
    pub fn span(&mut self, name: &'static str, start: SimTime, end: SimTime) -> &mut Self {
        self.add_span(name, String::new(), start, end);
        self
    }

    /// Append an annotated root span.
    pub fn span_with(
        &mut self,
        name: &'static str,
        detail: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) -> &mut Self {
        self.add_span(name, detail, start, end);
        self
    }

    /// Append a root span and return its index, for use as a `parent`
    /// in later [`Trace::add_child`] calls.
    pub fn add_span(
        &mut self,
        name: &'static str,
        detail: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) -> usize {
        self.push_span(name, detail.into(), None, start, end)
    }

    /// Append a child span under `parent` (an index returned by a prior
    /// `add_span`/`add_child` on this trace) and return its index.
    pub fn add_child(
        &mut self,
        parent: usize,
        name: &'static str,
        detail: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) -> usize {
        debug_assert!(parent < self.spans.len(), "span {name} has dangling parent");
        self.push_span(name, detail.into(), Some(parent), start, end)
    }

    fn push_span(
        &mut self,
        name: &'static str,
        detail: String,
        parent: Option<usize>,
        start: SimTime,
        end: SimTime,
    ) -> usize {
        debug_assert!(end >= start, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            detail,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Nesting depth of the span at `idx` (0 for roots). Dangling parent
    /// indices are treated as roots rather than panicking.
    pub fn depth(&self, idx: usize) -> usize {
        let mut depth = 0;
        let mut cur = idx;
        while let Some(parent) = self.spans.get(cur).and_then(|s| s.parent) {
            if parent >= cur {
                break; // malformed link; refuse to loop
            }
            depth += 1;
            cur = parent;
        }
        depth
    }

    /// Earliest span start (simulation epoch if the trace is empty).
    pub fn start(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Latest span end (simulation epoch if the trace is empty).
    pub fn end(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// End-to-end duration covered by the spans.
    pub fn duration(&self) -> SimDuration {
        self.end().since(self.start())
    }

    /// Render an ASCII waterfall: one line per span with offsets relative
    /// to the trace start, indented by tree depth.
    pub fn render(&self) -> String {
        let base = self.start();
        let mut out = format!(
            "{} trace #{} — {} spans, {:.6} s\n",
            self.kind.label(),
            self.id,
            self.spans.len(),
            self.duration().as_secs_f64()
        );
        let name_w = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| s.name.len() + 2 * self.depth(i))
            .max()
            .unwrap_or(0);
        for (i, s) in self.spans.iter().enumerate() {
            let from = s.start.since(base).as_secs_f64();
            let to = s.end.since(base).as_secs_f64();
            let indented = format!("{:1$}{2}", "", 2 * self.depth(i), s.name);
            let _ = writeln!(
                out,
                "  +{from:>10.6}s ..+{to:>10.6}s  {indented:<name_w$}  {detail}",
                detail = s.detail
            );
        }
        out
    }

    /// Serialise the trace as one deterministic JSON line (no trailing
    /// newline): id, kind, update-to-serve duration, and every span with
    /// its parent link. The `traces.jsonl` export is one such line per
    /// trace.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"kind\":\"{}\",\"duration_s\":{:.6},\"spans\":[",
            self.id,
            self.kind.label(),
            self.duration().as_secs_f64()
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"detail\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{:.6},\"end_s\":{:.6}}}",
                crate::export::json_escape(s.name),
                crate::export::json_escape(&s.detail),
                s.start.since(SimTime::ZERO).as_secs_f64(),
                s.end.since(SimTime::ZERO).as_secs_f64(),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Default ring capacity for [`TraceBuffer`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A bounded, thread-safe ring of completed traces.
#[derive(Debug)]
pub struct TraceBuffer {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    traces: VecDeque<Trace>,
    dropped: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// A ring holding at most `cap` traces (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "trace buffer needs capacity");
        TraceBuffer {
            inner: Mutex::new(Ring {
                cap,
                traces: VecDeque::with_capacity(cap.min(1024)),
                dropped: 0,
            }),
        }
    }

    /// Record a completed trace, evicting the oldest when full.
    pub fn push(&self, trace: Trace) {
        let mut ring = self.inner.checked_lock().expect("trace buffer poisoned");
        if ring.traces.len() == ring.cap {
            ring.traces.pop_front();
            ring.dropped += 1;
        }
        ring.traces.push_back(trace);
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.inner
            .checked_lock()
            .expect("trace buffer poisoned")
            .traces
            .len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many traces were evicted to respect the bound.
    pub fn dropped(&self) -> u64 {
        self.inner
            .checked_lock()
            .expect("trace buffer poisoned")
            .dropped
    }

    /// Copy out every held trace, oldest first.
    pub fn traces(&self) -> Vec<Trace> {
        self.inner
            .checked_lock()
            .expect("trace buffer poisoned")
            .traces
            .iter()
            .cloned()
            .collect()
    }

    /// The `n` longest-duration traces, slowest first (ties broken by id
    /// for determinism).
    pub fn slowest(&self, n: usize) -> Vec<Trace> {
        let mut all = self.traces();
        all.sort_by(|a, b| b.duration().cmp(&a.duration()).then(a.id.cmp(&b.id)));
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn trace_accumulates_spans_and_duration() {
        let mut trace = Trace::new(TraceKind::Propagation, 7);
        trace
            .span_with("nagano_cluster_distribute", "site=tokyo", t(10), t(12))
            .span("nagano_odg_traversal", t(12), t(12))
            .span_with("nagano_cache_apply", "pages=5", t(12), t(15));
        assert_eq!(trace.start(), t(10));
        assert_eq!(trace.end(), t(15));
        assert_eq!(trace.duration().as_secs_f64(), 5.0);
        let text = trace.render();
        assert!(text.contains("propagation trace #7"));
        assert!(text.contains("site=tokyo"));
        assert!(text.contains("nagano_cache_apply"));
    }

    #[test]
    fn child_spans_link_into_a_tree() {
        let mut trace = Trace::new(TraceKind::Propagation, 3);
        let root = trace.add_span("nagano_cluster_txn_receipt", "txn=3", t(0), t(0));
        let dist = trace.add_child(root, "nagano_cluster_distribute", "site=Tokyo", t(0), t(2));
        let odg = trace.add_child(dist, "nagano_odg_traversal", "visited=9", t(2), t(2));
        let apply = trace.add_child(odg, "nagano_cache_apply", "regenerated=4", t(2), t(3));
        let leaf = trace.add_child(apply, "nagano_cache_first_fresh_hit", "", t(3), t(9));
        assert_eq!(trace.spans[root].parent, None);
        assert_eq!(trace.spans[leaf].parent, Some(apply));
        assert_eq!(trace.depth(root), 0);
        assert_eq!(trace.depth(leaf), 4);
        // Root-to-leaf duration is the update-to-serve freshness latency.
        assert_eq!(trace.duration().as_secs_f64(), 9.0);
        // Rendering indents children beneath their parents.
        let text = trace.render();
        assert!(text.contains("  nagano_cluster_distribute"));
        assert!(text.contains("        nagano_cache_first_fresh_hit"));
    }

    #[test]
    fn to_json_is_one_well_formed_line_with_parent_links() {
        let mut trace = Trace::new(TraceKind::Propagation, 11);
        let root = trace.add_span("nagano_cluster_txn_receipt", "q=\"x\"", t(1), t(1));
        trace.add_child(root, "nagano_cluster_distribute", "site=Tokyo", t(1), t(4));
        let json = trace.to_json();
        assert!(!json.contains('\n'), "one line per trace");
        assert!(json.starts_with("{\"id\":11,\"kind\":\"propagation\""));
        assert!(json.contains("\"duration_s\":3.000000"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"detail\":\"q=\\\"x\\\"\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Byte-identical across calls: part of the determinism surface.
        assert_eq!(json, trace.to_json());
    }

    #[test]
    fn empty_trace_is_zero_length() {
        let trace = Trace::new(TraceKind::Serving, 0);
        assert_eq!(trace.duration(), SimDuration::ZERO);
        assert!(trace.render().contains("0 spans"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let buf = TraceBuffer::new(3);
        for i in 0..5 {
            let mut tr = Trace::new(TraceKind::Serving, i);
            tr.span("nagano_cluster_route", t(i), t(i + 1));
            buf.push(tr);
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let ids: Vec<u64> = buf.traces().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn slowest_sorts_by_duration_then_id() {
        let buf = TraceBuffer::new(10);
        for (id, dur) in [(1u64, 5u64), (2, 9), (3, 5), (4, 1)] {
            let mut tr = Trace::new(TraceKind::Propagation, id);
            tr.span("nagano_cache_apply", t(0), t(dur));
            buf.push(tr);
        }
        let top: Vec<u64> = buf.slowest(3).iter().map(|t| t.id).collect();
        assert_eq!(top, vec![2, 1, 3]);
        assert_eq!(buf.slowest(99).len(), 4);
    }
}
