//! Lock-free cache statistics.
//!
//! Counters are relaxed atomics: they are monotonic event counts whose
//! exact interleaving does not matter, only their totals (Rust Atomics and
//! Locks ch. 2's "statistics" pattern). The cells are
//! [`nagano_telemetry`] handles, so a cache can [`bind`](CacheStats::bind)
//! the very same counters into a [`MetricsRegistry`] — exporters then see
//! live values with no extra bookkeeping on the hot path.

use nagano_telemetry::{Counter, Gauge, MetricsRegistry};

/// Shared, thread-safe counters for one cache.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    updates: Counter,
    invalidations: Counter,
    evictions: Counter,
    coalesced: Counter,
    bytes_current: Gauge,
    bytes_peak: Gauge,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// First-time insertions.
    pub inserts: u64,
    /// In-place updates of existing entries.
    pub updates: u64,
    /// Explicit invalidations.
    pub invalidations: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Misses that coalesced onto an in-flight regeneration instead of
    /// starting their own (single-flight followers).
    pub coalesced: u64,
    /// Bytes currently cached.
    pub bytes_current: u64,
    /// High-water mark of cached bytes. Of several caches taken together
    /// (`+=`), the largest one cache's: their peaks fell at different
    /// times, so no sum of them was ever held.
    pub bytes_peak: u64,
}

impl StatsSnapshot {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The statistics of several caches taken together: every field summed,
/// but `bytes_peak`, which is the largest of the peaks.
impl std::ops::AddAssign for StatsSnapshot {
    fn add_assign(&mut self, s: StatsSnapshot) {
        self.hits += s.hits;
        self.misses += s.misses;
        self.inserts += s.inserts;
        self.updates += s.updates;
        self.invalidations += s.invalidations;
        self.evictions += s.evictions;
        self.coalesced += s.coalesced;
        self.bytes_current += s.bytes_current;
        self.bytes_peak = self.bytes_peak.max(s.bytes_peak);
    }
}

impl CacheStats {
    /// Record a hit.
    pub fn hit(&self) {
        self.hits.incr();
    }

    /// Record a miss.
    pub fn miss(&self) {
        self.misses.incr();
    }

    /// Record an insertion of `bytes` new bytes.
    pub fn insert(&self, bytes: u64) {
        self.inserts.incr();
        self.grow(bytes);
    }

    /// Record an in-place update changing the entry size by
    /// `old_bytes → new_bytes`.
    pub fn update(&self, old_bytes: u64, new_bytes: u64) {
        self.updates.incr();
        // A padded page keeps its length: the common replacement leaves
        // both gauges where every earlier `grow` put them.
        if old_bytes != new_bytes {
            self.shrink(old_bytes);
            self.grow(new_bytes);
        }
    }

    /// Record an invalidation freeing `bytes`.
    pub fn invalidate(&self, bytes: u64) {
        self.invalidations.incr();
        self.shrink(bytes);
    }

    /// Record an eviction freeing `bytes`.
    pub fn evict(&self, bytes: u64) {
        self.evictions.incr();
        self.shrink(bytes);
    }

    /// Record a miss that coalesced onto an in-flight regeneration.
    pub fn coalesce(&self) {
        self.coalesced.incr();
    }

    fn grow(&self, bytes: u64) {
        let now = self.bytes_current.add(bytes);
        // Racy max update is fine: peak is advisory and monotone.
        self.bytes_peak.record_max(now);
    }

    fn shrink(&self, bytes: u64) {
        self.bytes_current.sub(bytes);
    }

    /// Register this cache's live cells into `registry` under the
    /// `nagano_cache_*` names, tagged with `labels` (typically
    /// `site=<name>`). The registry shares the cells — subsequent events
    /// show up in exports without copying.
    pub fn bind(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        registry.bind_counter("nagano_cache_hits_total", labels, &self.hits);
        registry.bind_counter("nagano_cache_misses_total", labels, &self.misses);
        registry.bind_counter("nagano_cache_inserts_total", labels, &self.inserts);
        registry.bind_counter("nagano_cache_updates_total", labels, &self.updates);
        registry.bind_counter(
            "nagano_cache_invalidations_total",
            labels,
            &self.invalidations,
        );
        registry.bind_counter("nagano_cache_evictions_total", labels, &self.evictions);
        registry.bind_counter("nagano_cache_coalesced_total", labels, &self.coalesced);
        registry.bind_gauge("nagano_cache_bytes_current", labels, &self.bytes_current);
        registry.bind_gauge("nagano_cache_bytes_peak", labels, &self.bytes_peak);
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            updates: self.updates.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
            coalesced: self.coalesced.get(),
            bytes_current: self.bytes_current.get(),
            bytes_peak: self.bytes_peak.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_telemetry::sync::blocking;

    #[test]
    fn counts_accumulate() {
        let s = CacheStats::default();
        s.hit();
        s.hit();
        s.miss();
        s.insert(100);
        s.update(100, 150);
        s.invalidate(150);
        let snap = s.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.invalidations, 1);
        assert_eq!(snap.bytes_current, 0);
        assert_eq!(snap.bytes_peak, 150);
    }

    #[test]
    fn a_replacement_of_equal_size_reads_like_a_shrink_and_a_grow() {
        let (updated, by_hand) = (CacheStats::default(), CacheStats::default());
        for s in [&updated, &by_hand] {
            s.insert(100);
            s.insert(40);
            s.evict(40);
        }
        updated.update(100, 100);
        by_hand.shrink(100);
        by_hand.grow(100);
        let (a, b) = (updated.snapshot(), by_hand.snapshot());
        assert_eq!((a.bytes_current, a.bytes_peak), (100, 140));
        assert_eq!((b.bytes_current, b.bytes_peak), (100, 140));
        assert_eq!(a.updates, 1);
    }

    #[test]
    fn caches_taken_together_sum_their_counts_and_keep_the_largest_peak() {
        let (a, b) = (CacheStats::default(), CacheStats::default());
        a.insert(100);
        a.invalidate(100);
        b.insert(60);
        b.hit();
        let mut both = a.snapshot();
        both += b.snapshot();
        assert_eq!((both.inserts, both.invalidations, both.hits), (2, 1, 1));
        assert_eq!((both.bytes_current, both.bytes_peak), (60, 100));
    }

    #[test]
    fn hit_rate() {
        let s = CacheStats::default();
        assert_eq!(s.snapshot().hit_rate(), 0.0);
        for _ in 0..9 {
            s.hit();
        }
        s.miss();
        assert!((s.snapshot().hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        use std::sync::Arc;
        let s = Arc::new(CacheStats::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.hit();
                }
            }));
        }
        for h in handles {
            blocking!(h.join()).unwrap();
        }
        assert_eq!(s.snapshot().hits, 80_000);
    }

    #[test]
    fn bind_exposes_live_cells() {
        use nagano_telemetry::{prometheus_text, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let s = CacheStats::default();
        s.bind(&reg, &[("site", "nagano")]);
        s.hit();
        s.insert(64);
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_cache_hits_total{site=\"nagano\"} 1"));
        assert!(text.contains("nagano_cache_bytes_current{site=\"nagano\"} 64"));
        assert!(text.contains("nagano_cache_bytes_peak{site=\"nagano\"} 64"));
    }
}
