//! Trigger-monitor statistics: counts of the work done, plus the
//! traffic-weighted staleness distribution.
//!
//! The counters are [`nagano_telemetry`] cells and the staleness
//! accumulator is a log-bucketed [`HistogramHandle`];
//! [`bind`](TriggerStats::bind) exposes the live cells to exporters. What
//! the work costs in time is not recorded here: the cluster simulation
//! models it from each [`crate::TxnOutcome`].

use nagano_telemetry::{Counter, Gauge, HistogramHandle, MetricsRegistry};

/// Shared counters for one trigger monitor.
#[derive(Debug)]
pub struct TriggerStats {
    txns: Counter,
    pages_regenerated: Counter,
    /// Regenerated pages whose bytes changed in a serving cache; the rest
    /// of `pages_regenerated` is the no-op share of update-in-place.
    pages_changed: Counter,
    /// Regenerated pages the renderer answered from the revision stamps
    /// of what they read, without composing them: part of the no-op share.
    pages_revalidated: Counter,
    /// Regenerated pages the renderer patched: the sections that moved
    /// rewritten in the body held, the page not composed.
    pages_patched: Counter,
    pages_invalidated: Counter,
    pages_tolerated: Counter,
    nodes_visited: Counter,
    /// Crash/restart recoveries completed ([`recoveries`](TriggerStats::record_recovery)).
    recoveries: Counter,
    /// Hot pages pushed to the hybrid policy's deferred queue (regen
    /// budget exhausted for the batch).
    pages_deferred: Counter,
    /// Live depth of the bounded deferral FIFO (capped at 4096 entries).
    deferred_depth: Gauge,
    /// Pages shed to invalidation because the deferral FIFO was full.
    deferred_shed: Counter,
    /// Modeled regeneration CPU actually spent, in milliseconds.
    regen_cpu_ms: Counter,
    /// Modeled regeneration CPU avoided by invalidating cold pages
    /// instead of rerendering them, in milliseconds.
    regen_saved_ms: Counter,
    /// Traffic-weighted staleness in seconds: one sample per request that
    /// found its page stale-or-missing due to propagation, valued at how
    /// long the page had been stale. Hot pages sample often, cold pages
    /// rarely — exactly the weighting the hybrid split optimises for.
    weighted_staleness: HistogramHandle,
}

impl Default for TriggerStats {
    fn default() -> Self {
        TriggerStats {
            txns: Counter::new(),
            pages_regenerated: Counter::new(),
            pages_changed: Counter::new(),
            pages_revalidated: Counter::new(),
            pages_patched: Counter::new(),
            pages_invalidated: Counter::new(),
            pages_tolerated: Counter::new(),
            nodes_visited: Counter::new(),
            recoveries: Counter::new(),
            pages_deferred: Counter::new(),
            deferred_depth: Gauge::new(),
            deferred_shed: Counter::new(),
            regen_cpu_ms: Counter::new(),
            regen_saved_ms: Counter::new(),
            // 1 ms .. ~55 h staleness buckets: marks survive at most a
            // day-scale outage, requests observe them at minute scale.
            weighted_staleness: HistogramHandle::new(1e-3, 200_000.0),
        }
    }
}

/// Point-in-time copy of the counters and the weighted-staleness sum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TriggerStatsSnapshot {
    /// Transactions processed.
    pub txns: u64,
    /// Pages regenerated and distributed (update-in-place path).
    pub pages_regenerated: u64,
    /// Of those, the pages that came out as other bytes than the serving
    /// cache held (the others kept their version).
    pub pages_changed: u64,
    /// Of the others, the pages that were not even composed: every
    /// revision stamp their last render read under stood where it stood.
    pub pages_revalidated: u64,
    /// Pages patched rather than composed: only sections they splice had
    /// moved, and those were rewritten in the body held. Changed or not.
    pub pages_patched: u64,
    /// Pages invalidated.
    pub pages_invalidated: u64,
    /// Affected pages left in place under a staleness threshold.
    pub pages_tolerated: u64,
    /// ODG nodes visited by propagation (work metric).
    pub nodes_visited: u64,
    /// Crash/restart recoveries completed.
    pub recoveries: u64,
    /// Hot pages deferred past the hybrid regeneration budget.
    pub pages_deferred: u64,
    /// Pages currently parked on the deferral FIFO (point-in-time depth).
    pub deferred_depth: u64,
    /// Pages shed to invalidation because the deferral FIFO was at
    /// capacity.
    pub deferred_shed: u64,
    /// Modeled regeneration CPU spent, in milliseconds.
    pub regen_cpu_ms: u64,
    /// Modeled regeneration CPU avoided via cold-page invalidation, in
    /// milliseconds.
    pub regen_saved_ms: u64,
    /// Traffic-weighted staleness samples (requests that observed a
    /// stale-or-missing page).
    pub weighted_staleness_count: u64,
    /// Sum of observed staleness over those samples, in seconds.
    pub weighted_staleness_sum_secs: f64,
}

impl TriggerStats {
    /// Record one processed transaction with its outcome sizes.
    pub fn record_txn(&self, regenerated: u64, invalidated: u64, tolerated: u64, visited: u64) {
        self.txns.incr();
        self.pages_regenerated.add(regenerated);
        self.pages_invalidated.add(invalidated);
        self.pages_tolerated.add(tolerated);
        self.nodes_visited.add(visited);
    }

    /// Record one completed crash/restart recovery (the monitor replayed
    /// its missed transactions and the cache is consistent again).
    pub fn record_recovery(&self) {
        self.recoveries.incr();
    }

    /// Record modeled regeneration CPU actually spent (milliseconds).
    pub fn record_regen_cpu(&self, ms: f64) {
        self.regen_cpu_ms.add(ms.round() as u64);
    }

    /// Record modeled regeneration CPU avoided by invalidating instead of
    /// rerendering (milliseconds).
    pub fn record_regen_saved(&self, ms: f64) {
        self.regen_saved_ms.add(ms.round() as u64);
    }

    /// Record hot pages pushed to the deferred queue.
    pub fn record_deferred(&self, pages: u64) {
        self.pages_deferred.add(pages);
    }

    /// Publish the deferral FIFO's current depth (call after any queue
    /// mutation; last write wins).
    pub fn set_deferred_depth(&self, depth: u64) {
        self.deferred_depth.set(depth);
    }

    /// Record pages shed to invalidation because the deferral FIFO was
    /// full.
    pub fn record_deferred_shed(&self, pages: u64) {
        self.deferred_shed.add(pages);
    }

    /// Record regenerated pages whose bytes changed in a serving cache.
    pub fn record_pages_changed(&self, pages: u64) {
        self.pages_changed.add(pages);
    }

    /// Record regenerated pages that were answered from revision stamps.
    pub fn record_pages_revalidated(&self, pages: u64) {
        self.pages_revalidated.add(pages);
    }

    /// Record regenerated pages that were patched rather than composed.
    pub fn record_pages_patched(&self, pages: u64) {
        self.pages_patched.add(pages);
    }

    /// Record pages regenerated outside a transaction record (the
    /// deferred-queue drain path).
    pub fn record_drained_regen(&self, pages: u64) {
        self.pages_regenerated.add(pages);
    }

    /// Record one request observing a page `secs` stale (traffic-weighted
    /// staleness sample).
    pub fn record_weighted_staleness(&self, secs: f64) {
        self.weighted_staleness.record(secs);
    }

    /// Register this monitor's live cells into `registry` under the
    /// `nagano_trigger_*` names, tagged with `labels` (typically
    /// `site=<name>`).
    pub fn bind(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        registry.bind_counter("nagano_trigger_txns_total", labels, &self.txns);
        registry.bind_counter(
            "nagano_trigger_pages_regenerated_total",
            labels,
            &self.pages_regenerated,
        );
        registry.bind_counter(
            "nagano_trigger_pages_changed_total",
            labels,
            &self.pages_changed,
        );
        registry.bind_counter(
            "nagano_trigger_pages_revalidated_total",
            labels,
            &self.pages_revalidated,
        );
        registry.bind_counter(
            "nagano_trigger_pages_patched_total",
            labels,
            &self.pages_patched,
        );
        registry.bind_counter(
            "nagano_trigger_pages_invalidated_total",
            labels,
            &self.pages_invalidated,
        );
        registry.bind_counter(
            "nagano_trigger_pages_tolerated_total",
            labels,
            &self.pages_tolerated,
        );
        registry.bind_counter(
            "nagano_trigger_nodes_visited_total",
            labels,
            &self.nodes_visited,
        );
        registry.bind_counter("nagano_trigger_recoveries_total", labels, &self.recoveries);
        registry.bind_counter(
            "nagano_trigger_pages_deferred_total",
            labels,
            &self.pages_deferred,
        );
        registry.bind_gauge(
            "nagano_trigger_regen_deferred_depth",
            labels,
            &self.deferred_depth,
        );
        registry.bind_counter(
            "nagano_trigger_regen_deferred_shed_total",
            labels,
            &self.deferred_shed,
        );
        registry.bind_counter(
            "nagano_trigger_regen_cpu_ms_total",
            labels,
            &self.regen_cpu_ms,
        );
        registry.bind_counter(
            "nagano_trigger_regen_saved_ms_total",
            labels,
            &self.regen_saved_ms,
        );
        registry.bind_histogram(
            "nagano_trigger_weighted_staleness_seconds",
            labels,
            &self.weighted_staleness,
        );
    }

    /// Copy the counters and sum the weighted staleness.
    pub fn snapshot(&self) -> TriggerStatsSnapshot {
        let staleness_count = self.weighted_staleness.count();
        TriggerStatsSnapshot {
            txns: self.txns.get(),
            pages_regenerated: self.pages_regenerated.get(),
            pages_changed: self.pages_changed.get(),
            pages_revalidated: self.pages_revalidated.get(),
            pages_patched: self.pages_patched.get(),
            pages_invalidated: self.pages_invalidated.get(),
            pages_tolerated: self.pages_tolerated.get(),
            nodes_visited: self.nodes_visited.get(),
            recoveries: self.recoveries.get(),
            pages_deferred: self.pages_deferred.get(),
            deferred_depth: self.deferred_depth.get(),
            deferred_shed: self.deferred_shed.get(),
            regen_cpu_ms: self.regen_cpu_ms.get(),
            regen_saved_ms: self.regen_saved_ms.get(),
            weighted_staleness_count: staleness_count,
            weighted_staleness_sum_secs: if staleness_count == 0 {
                0.0
            } else {
                self.weighted_staleness.mean() * staleness_count as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let s = TriggerStats::default();
        s.record_txn(10, 2, 1, 40);
        s.record_txn(5, 0, 0, 20);
        let snap = s.snapshot();
        assert_eq!(snap.txns, 2);
        assert_eq!(snap.pages_regenerated, 15);
        assert_eq!(snap.pages_invalidated, 2);
        assert_eq!(snap.pages_tolerated, 1);
        assert_eq!(snap.nodes_visited, 60);
    }

    #[test]
    fn recoveries_are_counted_and_exported() {
        use nagano_telemetry::{prometheus_text, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let s = TriggerStats::default();
        s.bind(&reg, &[("site", "tokyo")]);
        s.record_recovery();
        s.record_recovery();
        assert_eq!(s.snapshot().recoveries, 2);
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_trigger_recoveries_total{site=\"tokyo\"} 2"));
    }

    #[test]
    fn hybrid_metrics_accumulate_and_export() {
        use nagano_telemetry::{prometheus_text, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let s = TriggerStats::default();
        s.bind(&reg, &[("site", "tokyo")]);
        s.record_regen_cpu(120.4);
        s.record_regen_saved(80.6);
        s.record_deferred(3);
        s.record_drained_regen(2);
        s.record_pages_changed(1);
        s.record_pages_revalidated(4);
        s.record_pages_patched(5);
        s.record_weighted_staleness(30.0);
        s.record_weighted_staleness(90.0);
        let snap = s.snapshot();
        assert_eq!(snap.regen_cpu_ms, 120);
        assert_eq!(snap.regen_saved_ms, 81);
        assert_eq!(snap.pages_deferred, 3);
        assert_eq!(snap.pages_regenerated, 2);
        assert_eq!(snap.pages_changed, 1);
        assert_eq!(snap.pages_revalidated, 4);
        assert_eq!(snap.pages_patched, 5);
        assert_eq!(snap.weighted_staleness_count, 2);
        // The sum is mean * count; the log-bucketed histogram makes it
        // approximate, not exact.
        assert!(
            (snap.weighted_staleness_sum_secs - 120.0).abs() / 120.0 < 0.1,
            "sum {}",
            snap.weighted_staleness_sum_secs
        );
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_trigger_regen_saved_ms_total{site=\"tokyo\"} 81"));
        assert!(text.contains("nagano_trigger_regen_cpu_ms_total{site=\"tokyo\"} 120"));
        assert!(text.contains("nagano_trigger_pages_deferred_total{site=\"tokyo\"} 3"));
        assert!(text.contains("nagano_trigger_pages_regenerated_total{site=\"tokyo\"} 2"));
        assert!(text.contains("nagano_trigger_pages_changed_total{site=\"tokyo\"} 1"));
        assert!(text.contains("nagano_trigger_pages_revalidated_total{site=\"tokyo\"} 4"));
        assert!(text.contains("nagano_trigger_pages_patched_total{site=\"tokyo\"} 5"));
        assert!(text.contains("nagano_trigger_weighted_staleness_seconds_count{site=\"tokyo\"} 2"));
    }

    #[test]
    fn deferral_fifo_depth_and_shed_export() {
        use nagano_telemetry::{prometheus_text, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let s = TriggerStats::default();
        s.bind(&reg, &[("site", "tokyo")]);
        s.set_deferred_depth(4096);
        s.record_deferred_shed(7);
        s.record_deferred_shed(0);
        let snap = s.snapshot();
        assert_eq!(snap.deferred_depth, 4096);
        assert_eq!(snap.deferred_shed, 7);
        // Depth is a gauge: it goes back down when the queue drains.
        s.set_deferred_depth(12);
        assert_eq!(s.snapshot().deferred_depth, 12);
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_trigger_regen_deferred_depth{site=\"tokyo\"} 12"));
        assert!(text.contains("nagano_trigger_regen_deferred_shed_total{site=\"tokyo\"} 7"));
    }

    #[test]
    fn an_idle_monitor_snapshots_zeroes() {
        let snap = TriggerStats::default().snapshot();
        assert_eq!(snap, TriggerStatsSnapshot::default());
    }

    #[test]
    fn bind_exposes_histogram() {
        use nagano_telemetry::{prometheus_text, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let s = TriggerStats::default();
        s.bind(&reg, &[("site", "tokyo")]);
        s.record_txn(3, 1, 0, 12);
        s.record_weighted_staleness(2.0);
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_trigger_txns_total{site=\"tokyo\"} 1"));
        assert!(text.contains("nagano_trigger_weighted_staleness_seconds_count{site=\"tokyo\"} 1"));
        // Time spent is modelled by the simulation, not recorded here.
        assert!(!text.contains("nagano_trigger_latency_seconds"), "{text}");
    }
}
