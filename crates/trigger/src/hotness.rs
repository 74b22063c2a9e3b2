//! Per-page EWMA access-frequency tracking ("hotness").
//!
//! The paper's trigger monitor did not treat all stale pages alike:
//! "frequently accessed obsolete objects are generally updated in the
//! cache in place", while cold objects could simply be invalidated. To
//! make that split deterministic and measurable, [`HotnessTracker`] keeps
//! one exponentially weighted moving average per page, folded once per
//! sim minute from the requests the serving cache answered in it:
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
//! * **Windowed input.** [`HotnessTracker::count`] tallies each answered
//!   request by page, and a fold walks only the pages tallied since the
//!   last one.
//!
//! How often a page is requested is a fact about the request stream, so
//! the tally is kept here, by the trigger monitor that ranks pages by it,
//! and not in the page's cache entry: a request counted before the page
//! is invalidated, evicted or cleared still counts at the minute's fold.
//!
//! Everything here is driven by the sim clock (a minute index) and seeded
//! request order — no wall clock, no OS entropy — so same-seed runs
//! produce bit-identical hotness values (DESIGN.md §10).

use nagano_simcore::sync::Mutex;
use rustc_hash::FxHashMap;

/// The per-minute EWMA smoothing factor. 0.3 weights the last ~10
/// minutes of traffic (weight of a minute `k` minutes ago is
/// `0.3 * 0.7^k`), matching the cadence at which Olympics scores changed.
pub(crate) const EWMA_ALPHA: f64 = 0.3;

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

/// EWMA hotness per page slot, with lazy decay. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct HotnessTracker {
    cells: Mutex<FxHashMap<u32, Cell>>,
    /// Requests answered since the last fold, by slot. Taken and released
    /// before `cells` is locked: the two locks are never held together.
    window: Mutex<FxHashMap<u32, u64>>,
}

impl HotnessTracker {
    /// Tally one answered request for the page in `slot`.
    pub(crate) fn count(&self, slot: u32) {
        *self.window.lock().entry(slot).or_insert(0) += 1;
    }

    /// Fold the requests tallied since the last fold into the EWMA as of
    /// `minute`, and start the next window empty.
    pub(crate) fn fold_window(&self, minute: u64) {
        let window = std::mem::take(&mut *self.window.lock());
        self.fold(window, minute, EWMA_ALPHA);
    }

    /// Fold one window of request counts observed at `minute` into the
    /// EWMA, decaying each touched cell forward first. `alpha` is the EWMA
    /// smoothing factor in `(0, 1]`.
    fn fold<I>(&self, hits: I, minute: u64, alpha: f64)
    where
        I: IntoIterator<Item = (u32, u64)>,
    {
        let mut cells = self.cells.lock();
        for (slot, n) in hits {
            let add = alpha * n as f64;
            match cells.get_mut(&slot) {
                Some(cell) => {
                    cell.value = cell.decayed(minute, alpha) + add;
                    cell.minute = cell.minute.max(minute);
                }
                None => {
                    cells.insert(slot, Cell { value: add, minute });
                }
            }
        }
        if minute.is_multiple_of(PRUNE_EVERY_MINUTES) {
            cells.retain(|_, c| c.decayed(minute, alpha) >= PRUNE_EPSILON);
        }
    }

    /// Current hotness of `slot` as of `minute` (0.0 if never tracked).
    pub(crate) fn get(&self, slot: u32, minute: u64, alpha: f64) -> f64 {
        self.cells
            .lock()
            .get(&slot)
            .map(|c| c.decayed(minute, alpha))
            .unwrap_or(0.0)
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
    /// breaks exact ties deterministically by page.
    pub(crate) fn threshold(&self, hot_permille: u16, minute: u64, alpha: f64) -> f64 {
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

    #[test]
    fn fold_accumulates_and_decays() {
        let t = HotnessTracker::default();
        t.fold([(1, 10)], 1, 0.5);
        assert_eq!(t.get(1, 1, 0.5), 5.0);
        // One minute idle halves it (alpha = 0.5), lazily on read.
        assert_eq!(t.get(1, 2, 0.5), 2.5);
        // Folding more hits decays first, then adds.
        t.fold([(1, 4)], 3, 0.5);
        assert_eq!(t.get(1, 3, 0.5), 5.0 * 0.25 + 2.0);
    }

    #[test]
    fn unknown_key_is_cold() {
        let t = HotnessTracker::default();
        assert_eq!(t.get(99, 5, 0.3), 0.0);
    }

    #[test]
    fn threshold_sentinels() {
        let t = HotnessTracker::default();
        assert_eq!(t.threshold(500, 1, 0.3), f64::INFINITY, "empty tracker");
        t.fold([(1, 1)], 1, 0.3);
        assert_eq!(t.threshold(0, 1, 0.3), f64::INFINITY);
        assert_eq!(t.threshold(1000, 1, 0.3), f64::NEG_INFINITY);
    }

    #[test]
    fn threshold_selects_the_quantile() {
        let t = HotnessTracker::default();
        for (k, n) in [(1, 100), (2, 50), (3, 10), (4, 1)] {
            t.fold([(k, n)], 1, 0.5);
        }
        // 500‰ of 4 pages = top 2: threshold is page 2's value.
        let thr = t.threshold(500, 1, 0.5);
        assert_eq!(thr, 25.0);
        assert!(t.get(1, 1, 0.5) >= thr);
        assert!(t.get(2, 1, 0.5) >= thr);
        assert!(t.get(3, 1, 0.5) < thr);
    }

    #[test]
    fn tiny_quantile_of_tiny_population_is_nothing() {
        let t = HotnessTracker::default();
        t.fold([(1, 1)], 1, 0.5);
        // 100‰ of one page rounds to zero pages hot.
        assert_eq!(t.threshold(100, 1, 0.5), f64::INFINITY);
    }

    #[test]
    fn prune_drops_long_cold_pages() {
        let t = HotnessTracker::default();
        t.fold([(1, 1)], 1, 0.5);
        assert_eq!(t.cells.lock().len(), 1);
        // Hours later a fold at a prune-cadence minute sweeps it out.
        t.fold([(2, 1)], 600, 0.5);
        assert_eq!(t.cells.lock().len(), 1);
        assert_eq!(t.get(1, 600, 0.5), 0.0);
    }

    mod over_the_monitor {
        use std::sync::Arc;

        use nagano_cache::{CacheConfig, PageCache};
        use nagano_db::{seed_games, GamesConfig, OlympicDb};
        use nagano_pagegen::{PageKey, PageRegistry, Renderer};
        use nagano_simcore::SimTime;

        use super::EWMA_ALPHA;
        use crate::{ConsistencyPolicy, TriggerMonitor};

        /// A monitor under `policy` over the small Games, its cache warm.
        fn warm(policy: ConsistencyPolicy) -> (Arc<OlympicDb>, TriggerMonitor) {
            let db = Arc::new(OlympicDb::new());
            seed_games(&db, &GamesConfig::small());
            let registry = Arc::new(PageRegistry::build(&db, 16));
            let cache = Arc::new(PageCache::new(CacheConfig::default()));
            let renderer = Renderer::new(Arc::clone(&db));
            let monitor = TriggerMonitor::new(renderer, cache, registry, policy);
            monitor.prewarm();
            (db, monitor)
        }

        #[test]
        fn hotness_folds_the_requests_the_cache_answered() {
            let (_db, monitor) = warm(ConsistencyPolicy::UpdateInPlace);
            let (hot, cold, missed) = (PageKey::Medals, PageKey::Home(1), PageKey::Home(2));
            let t = SimTime::from_mins(1);
            for _ in 0..10 {
                monitor.observe_request(hot, t, true);
            }
            monitor.observe_request(cold, t, true);
            // A request the cache did not answer counts nothing.
            monitor.observe_request(missed, t, false);
            // Nothing counts before the fold.
            assert_eq!(monitor.hotness(hot, 1), 0.0);
            monitor.fold_hotness(1);
            assert_eq!(monitor.hotness(hot, 1), EWMA_ALPHA * 10.0);
            assert_eq!(monitor.hotness(cold, 1), EWMA_ALPHA);
            assert_eq!(monitor.hotness(missed, 1), 0.0);
            // The fold empties the window: an idle minute only decays.
            monitor.fold_hotness(2);
            assert_eq!(
                monitor.hotness(hot, 2),
                EWMA_ALPHA * 10.0 * (1.0 - EWMA_ALPHA)
            );
        }

        #[test]
        fn a_request_answered_before_an_invalidation_counts_at_the_fold() {
            let (db, monitor) = warm(ConsistencyPolicy::Invalidate);
            let ev = db.events()[0].clone();
            let page = PageKey::Event(ev.id);
            let t = SimTime::from_mins(1);
            for _ in 0..3 {
                monitor.observe_request(page, t, true);
            }
            // The update drops the page's cache entry within the minute.
            let field: Vec<_> = db
                .athletes_of_sport(ev.sport)
                .iter()
                .take(3)
                .map(|a| a.id)
                .collect();
            let results: Vec<_> = field
                .iter()
                .zip([3.0, 2.0, 1.0])
                .map(|(&a, s)| (a, s))
                .collect();
            let txn = db.record_results(ev.id, &results, true, ev.day);
            let outcome = monitor.process_txn_at(&txn, t);
            assert!(outcome.invalidated.contains(&page));
            // So does a cold restart of the cache.
            monitor.observe_request(PageKey::Medals, t, true);
            monitor.cache().clear();
            monitor.fold_hotness(1);
            assert_eq!(monitor.hotness(page, 1), EWMA_ALPHA * 3.0);
            assert_eq!(monitor.hotness(PageKey::Medals, 1), EWMA_ALPHA);
        }
    }
}
