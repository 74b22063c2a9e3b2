//! Per-page EWMA access-frequency tracking ("hotness").
//!
//! The paper's trigger monitor did not treat all stale pages alike:
//! "frequently accessed obsolete objects are generally updated in the
//! cache in place", while cold objects could simply be invalidated. To
//! make that split deterministic and measurable, [`HotnessTracker`] keeps
//! one exponentially weighted moving average per page, folded once per
//! sim minute from the caches' window-hit counters:
//!
//! ```text
//! H(m) = (1 - alpha) * H(m - 1) + alpha * hits(m)
//! ```
//!
//! Two implementation choices keep the tracker O(pages touched), not
//! O(pages tracked), per minute:
//!
//! * **Lazy decay.** Each cell stores `(value, last_minute)`; the decay
//!   factor `(1 - alpha)^(m - last_minute)` is applied only when the cell
//!   is next folded into or read, via `f64::powi` (exactly reproducible,
//!   unlike a per-minute running product in a different fold order).
//! * **Windowed input.** The caches accumulate hits per entry and hand
//!   over only the touched keys ([`crate::PageCache::drain_window_hits`]).
//!
//! Everything here is driven by the sim clock (a minute index) and seeded
//! request order — no wall clock, no OS entropy — so same-seed runs
//! produce bit-identical hotness values (DESIGN.md §10).

use std::sync::Arc;

use nagano_telemetry::sync::Mutex;
use rustc_hash::FxHashMap;

/// The per-minute EWMA smoothing factor used fleet-wide. 0.3 weights the
/// last ~10 minutes of traffic (weight of a minute `k` minutes ago is
/// `0.3 * 0.7^k`), matching the cadence at which Olympics scores changed.
pub const EWMA_ALPHA: f64 = 0.3;

/// Decayed values below this are dropped during the periodic prune: after
/// a few hours cold, a page is indistinguishable from never-accessed.
const PRUNE_EPSILON: f64 = 1e-9;

/// Prune cadence in minutes (hourly keeps the map bounded by the hot
/// working set without paying a full-map sweep every fold).
const PRUNE_EVERY_MINUTES: u64 = 60;

#[derive(Debug, Clone, Copy)]
struct Cell {
    value: f64,
    minute: u64,
}

impl Cell {
    /// The cell's value decayed forward to `minute`.
    fn decayed(self, minute: u64, alpha: f64) -> f64 {
        if minute <= self.minute {
            return self.value;
        }
        // powi over a clamped exponent: beyond ~2^-1000 the value is a
        // hard zero anyway, and the clamp keeps the cast in i32 range.
        let dt = (minute - self.minute).min(1_000) as i32;
        self.value * (1.0 - alpha).powi(dt)
    }
}

/// EWMA hotness per page key, with lazy decay. See the module docs.
#[derive(Debug, Default)]
pub struct HotnessTracker {
    cells: Mutex<FxHashMap<Arc<str>, Cell>>,
}

impl HotnessTracker {
    /// Fold one window of hit counts observed at `minute` into the EWMA,
    /// decaying each touched cell forward first. `alpha` is the EWMA
    /// smoothing factor in `(0, 1]`.
    pub fn fold<I>(&self, hits: I, minute: u64, alpha: f64)
    where
        I: IntoIterator<Item = (Arc<str>, u64)>,
    {
        let mut cells = self.cells.lock();
        for (key, n) in hits {
            let add = alpha * n as f64;
            match cells.get_mut(&key) {
                Some(cell) => {
                    cell.value = cell.decayed(minute, alpha) + add;
                    cell.minute = cell.minute.max(minute);
                }
                None => {
                    cells.insert(key, Cell { value: add, minute });
                }
            }
        }
        if minute.is_multiple_of(PRUNE_EVERY_MINUTES) {
            cells.retain(|_, c| c.decayed(minute, alpha) >= PRUNE_EPSILON);
        }
    }

    /// Current hotness of `key` as of `minute` (0.0 if never tracked).
    pub fn get(&self, key: &str, minute: u64, alpha: f64) -> f64 {
        self.cells
            .lock()
            .get(key)
            .map(|c| c.decayed(minute, alpha))
            .unwrap_or(0.0)
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.cells.lock().len()
    }

    /// Whether nothing is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.cells.lock().is_empty()
    }

    /// The hotness value of the k-th hottest tracked page, where `k` is
    /// `hot_permille` (0..=1000) of the tracked population, rounded to the
    /// nearest page. A page is "hot" iff `hotness >= threshold`, so:
    ///
    /// * `hot_permille == 0` returns `+inf` — nothing is hot;
    /// * `hot_permille >= 1000` returns `-inf` — everything is hot,
    ///   including pages the tracker has never seen (hotness 0.0);
    /// * an empty tracker returns `+inf` — with no traffic signal the
    ///   split degrades conservatively to invalidate-everything.
    ///
    /// Ties at the threshold value all count as hot; the caller's ranking
    /// breaks exact ties deterministically by page key.
    pub fn threshold(&self, hot_permille: u16, minute: u64, alpha: f64) -> f64 {
        if hot_permille == 0 {
            return f64::INFINITY;
        }
        if hot_permille >= 1000 {
            return f64::NEG_INFINITY;
        }
        let cells = self.cells.lock();
        if cells.is_empty() {
            return f64::INFINITY;
        }
        let mut values: Vec<f64> = cells.values().map(|c| c.decayed(minute, alpha)).collect();
        drop(cells);
        values.sort_by(|a, b| b.total_cmp(a));
        let k = (values.len() * hot_permille as usize + 500) / 1000;
        if k == 0 {
            return f64::INFINITY;
        }
        values[k - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn fold_accumulates_and_decays() {
        let t = HotnessTracker::default();
        t.fold([(key("/a"), 10)], 1, 0.5);
        assert_eq!(t.get("/a", 1, 0.5), 5.0);
        // One minute idle halves it (alpha = 0.5), lazily on read.
        assert_eq!(t.get("/a", 2, 0.5), 2.5);
        // Folding more hits decays first, then adds.
        t.fold([(key("/a"), 4)], 3, 0.5);
        assert_eq!(t.get("/a", 3, 0.5), 5.0 * 0.25 + 2.0);
    }

    #[test]
    fn unknown_key_is_cold() {
        let t = HotnessTracker::default();
        assert_eq!(t.get("/nope", 5, 0.3), 0.0);
    }

    #[test]
    fn threshold_sentinels() {
        let t = HotnessTracker::default();
        assert_eq!(t.threshold(500, 1, 0.3), f64::INFINITY, "empty tracker");
        t.fold([(key("/a"), 1)], 1, 0.3);
        assert_eq!(t.threshold(0, 1, 0.3), f64::INFINITY);
        assert_eq!(t.threshold(1000, 1, 0.3), f64::NEG_INFINITY);
    }

    #[test]
    fn threshold_selects_the_quantile() {
        let t = HotnessTracker::default();
        for (k, n) in [("/a", 100), ("/b", 50), ("/c", 10), ("/d", 1)] {
            t.fold([(key(k), n)], 1, 0.5);
        }
        // 500‰ of 4 pages = top 2: threshold is /b's value.
        let thr = t.threshold(500, 1, 0.5);
        assert_eq!(thr, 25.0);
        assert!(t.get("/a", 1, 0.5) >= thr);
        assert!(t.get("/b", 1, 0.5) >= thr);
        assert!(t.get("/c", 1, 0.5) < thr);
    }

    #[test]
    fn tiny_quantile_of_tiny_population_is_nothing() {
        let t = HotnessTracker::default();
        t.fold([(key("/a"), 1)], 1, 0.5);
        // 100‰ of one page rounds to zero pages hot.
        assert_eq!(t.threshold(100, 1, 0.5), f64::INFINITY);
    }

    #[test]
    fn prune_drops_long_cold_pages() {
        let t = HotnessTracker::default();
        t.fold([(key("/a"), 1)], 1, 0.5);
        assert_eq!(t.len(), 1);
        // Hours later a fold at a prune-cadence minute sweeps it out.
        t.fold([(key("/b"), 1)], 600, 0.5);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get("/a", 600, 0.5), 0.0);
    }
}
