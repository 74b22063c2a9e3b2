//! Unified telemetry for the Nagano reproduction.
//!
//! The paper's whole 1998 design was driven by measurement — the 1996
//! access-log analysis shaped the page hierarchy, and the evaluation lives
//! on per-hour hit series and update-freshness latencies. This crate gives
//! every subsystem one shared observability substrate instead of the
//! per-crate ad-hoc snapshot types it replaces:
//!
//! * [`registry`] — a [`MetricsRegistry`] of named, labeled counters,
//!   gauges, and log-bucketed histograms (reusing
//!   [`nagano_simcore::Histogram`] buckets). Counters and gauges are
//!   relaxed atomics shared by `Arc`, so a subsystem keeps its own handle
//!   and the registry sees the same cells. Metric names follow the
//!   `nagano_<subsystem>_<metric>` convention.
//! * [`span`] — structured traces: a per-transaction *propagation trace*
//!   (txn receipt → ODG traversal → regenerate/invalidate decision →
//!   per-site distribute → cache apply) and a per-request *serving trace*
//!   (route decision → site → cache hit/miss → render), recorded into a
//!   bounded ring buffer with deterministic sim-time timestamps so traces
//!   are reproducible under a fixed seed.
//! * [`export`] — Prometheus text format and JSON snapshot writers over a
//!   registry's samples, plus a text-format parser used by round-trip
//!   tests and live `/metrics` scrapes.
//! * [`slo`] — declarative service-level objectives (`99% of <metric> <
//!   30`, `p99 of <metric> < 0.25`) evaluated against the registry, with
//!   multi-window burn-rate alerts over hourly sim-time snapshots.
//!
//! Everything here is `std`-only besides the simcore numerics: no
//! wall-clock reads, no global state, deterministic iteration order
//! (metrics sort by name, then labels).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod slo;
pub mod span;

/// The workspace's order-checked locks, for the crates that reach
/// `nagano-simcore` only through this one: cache and httpd.
pub use nagano_simcore::sync;

pub use export::{
    json_snapshot, parse_prometheus_line, prom_escape, prom_unescape, prometheus_text,
};
pub use registry::{Counter, Gauge, HistogramHandle, MetricSample, MetricValue, MetricsRegistry};
pub use slo::{slo_json, BurnAlert, Objective, SloEngine, SloOutcome, SloRule};
pub use span::{Span, Trace, TraceBuffer, TraceKind};

/// The full telemetry bundle one system (a serving site, a cluster sim)
/// carries: the metric registry plus the two trace ring buffers.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Shared metric registry.
    pub registry: MetricsRegistry,
    /// Propagation traces: DB commit → all caches updated.
    pub propagation: TraceBuffer,
    /// Serving traces: route decision → response.
    pub serving: TraceBuffer,
}

impl Telemetry {
    /// A bundle with default ring-buffer capacities (4096 traces each).
    pub fn new() -> Self {
        Telemetry::default()
    }
}
