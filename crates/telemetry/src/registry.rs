//! The metrics registry: named, labeled counters, gauges, and histograms.
//!
//! Handles are cheap `Arc` clones of the underlying cell, so the hot path
//! never touches the registry: a subsystem keeps its [`Counter`] and bumps
//! a relaxed atomic, while exporters walk the registry for a consistent,
//! deterministically ordered sample set. Histograms wrap
//! [`nagano_simcore::Histogram`] (log-bucketed, ~5% relative error on
//! percentiles) behind a mutex — they are recorded on control paths
//! (trigger processing, freshness), not per-request hot loops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use nagano_simcore::sync::Mutex;

use nagano_simcore::Histogram;

/// A monotonically increasing event counter (relaxed atomic, shared by
/// `Arc`: clones observe and mutate the same cell).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Reset to zero (event-counter resets between measurement windows).
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// An instantaneous level (bytes cached, entries live). Same cell
/// semantics as [`Counter`], plus decrement and racy-max updates.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the level by `n`, returning the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Relaxed) + n
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Racy max update (fine for advisory high-water marks: monotone).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A shared handle to a log-bucketed histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Histogram spanning `[lo, hi]` (see [`Histogram::new`]).
    pub fn new(lo: f64, hi: f64) -> Self {
        HistogramHandle(Arc::new(Mutex::new(Histogram::new(lo, hi))))
    }

    /// Histogram suited to latencies in seconds: 1 µs .. 600 s.
    pub fn for_latency() -> Self {
        HistogramHandle::new(1e-6, 600.0)
    }

    /// Record one observation.
    pub fn record(&self, x: f64) {
        self.0.checked_lock().expect("histogram poisoned").record(x);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.checked_lock().expect("histogram poisoned").count()
    }

    /// Percentile query, `q` in `[0, 100]`.
    pub fn percentile(&self, q: f64) -> f64 {
        self.0
            .checked_lock()
            .expect("histogram poisoned")
            .percentile(q)
    }

    /// Exact mean of observations.
    pub fn mean(&self) -> f64 {
        self.0.checked_lock().expect("histogram poisoned").mean()
    }

    /// Exact maximum of observations (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.0.checked_lock().expect("histogram poisoned").max()
    }

    /// A point-in-time copy of the underlying histogram.
    pub fn snapshot(&self) -> Histogram {
        self.0.checked_lock().expect("histogram poisoned").clone()
    }
}

/// Sorted label set: `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn canonical_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

/// One exported measurement: name + labels + current value.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name (`nagano_<subsystem>_<metric>` convention).
    pub name: String,
    /// Sorted label set.
    pub labels: Labels,
    /// The value at sampling time.
    pub value: MetricValue,
}

/// The sampled value of one metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(u64),
    /// Full distribution snapshot.
    Histogram(Histogram),
}

/// A registry of named, labeled metrics with deterministic iteration
/// order (sorted by name, then labels).
///
/// ```
/// use nagano_telemetry::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let hits = reg.counter("nagano_cache_hits_total", &[("site", "tokyo")]);
/// hits.incr();
/// // The same (name, labels) pair resolves to the same cell.
/// assert_eq!(reg.counter("nagano_cache_hits_total", &[("site", "tokyo")]).get(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<(String, Labels), Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_string(), canonical_labels(labels));
        let mut map = self.inner.checked_lock().expect("registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_string(), canonical_labels(labels));
        let mut map = self.inner.checked_lock().expect("registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name{labels}` spanning `[lo, hi]`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        lo: f64,
        hi: f64,
    ) -> HistogramHandle {
        let key = (name.to_string(), canonical_labels(labels));
        let mut map = self.inner.checked_lock().expect("registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(HistogramHandle::new(lo, hi)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Register an *existing* counter cell under `name{labels}` — the
    /// pattern subsystems use to expose handles they already own (e.g.
    /// `CacheStats` binding its hit counter). Last bind wins.
    pub fn bind_counter(&self, name: &str, labels: &[(&str, &str)], counter: &Counter) {
        let key = (name.to_string(), canonical_labels(labels));
        self.inner
            .checked_lock()
            .expect("registry poisoned")
            .insert(key, Metric::Counter(counter.clone()));
    }

    /// Register an existing gauge cell under `name{labels}`. Last bind wins.
    pub fn bind_gauge(&self, name: &str, labels: &[(&str, &str)], gauge: &Gauge) {
        let key = (name.to_string(), canonical_labels(labels));
        self.inner
            .checked_lock()
            .expect("registry poisoned")
            .insert(key, Metric::Gauge(gauge.clone()));
    }

    /// Register an existing histogram under `name{labels}`. Last bind wins.
    pub fn bind_histogram(&self, name: &str, labels: &[(&str, &str)], hist: &HistogramHandle) {
        let key = (name.to_string(), canonical_labels(labels));
        self.inner
            .checked_lock()
            .expect("registry poisoned")
            .insert(key, Metric::Histogram(hist.clone()));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.checked_lock().expect("registry poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample every metric, in deterministic (name, labels) order.
    pub fn samples(&self) -> Vec<MetricSample> {
        let map = self.inner.checked_lock().expect("registry poisoned");
        map.iter()
            .map(|((name, labels), metric)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_cells_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("nagano_test_total", &[("site", "tokyo")]);
        let b = reg.counter("nagano_test_total", &[("site", "tokyo")]);
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are a different cell.
        let c = reg.counter("nagano_test_total", &[("site", "columbus")]);
        assert_eq!(c.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("m", &[("a", "1"), ("b", "2")]);
        a.incr();
        assert_eq!(b.get(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn gauge_tracks_levels_and_peaks() {
        let g = Gauge::new();
        assert_eq!(g.add(100), 100);
        g.sub(40);
        assert_eq!(g.get(), 60);
        g.record_max(50);
        assert_eq!(g.get(), 60, "max below current is a no-op");
        g.record_max(99);
        assert_eq!(g.get(), 99);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_handle_records_and_queries() {
        let h = HistogramHandle::for_latency();
        for i in 1..=100 {
            h.record(i as f64 / 100.0); // 10 ms .. 1 s
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(50.0);
        assert!((p50 - 0.5).abs() / 0.5 < 0.08, "p50 {p50}");
        assert!((h.mean() - 0.505).abs() < 1e-9);
        assert_eq!(h.snapshot().count(), 100);
    }

    #[test]
    fn bind_exposes_existing_cells() {
        let reg = MetricsRegistry::new();
        let mine = Counter::new();
        mine.add(5);
        reg.bind_counter("nagano_cache_hits_total", &[], &mine);
        mine.incr();
        let samples = reg.samples();
        assert_eq!(samples.len(), 1);
        match &samples[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 6),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn samples_are_deterministically_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("b_metric", &[]);
        reg.counter("a_metric", &[("site", "z")]);
        reg.counter("a_metric", &[("site", "a")]);
        reg.gauge("c_metric", &[]);
        let names: Vec<String> = reg
            .samples()
            .iter()
            .map(|s| {
                format!(
                    "{}{}",
                    s.name,
                    s.labels
                        .iter()
                        .map(|(k, v)| format!("[{k}={v}]"))
                        .collect::<String>()
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "a_metric[site=a]",
                "a_metric[site=z]",
                "b_metric",
                "c_metric"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }

    #[test]
    fn counter_reset() {
        let c = Counter::new();
        c.add(9);
        c.reset();
        assert_eq!(c.get(), 0);
    }
}
