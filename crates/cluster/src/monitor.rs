//! A complex's trigger monitor under one of the simulation's consistency
//! policies (DESIGN.md §12).
//!
//! [`SiteMonitor`] owns a [`TriggerMonitor`] and drives its three steps:
//! [`mark`](TriggerMonitor::mark), [`refresh`](TriggerMonitor::refresh)
//! and [`invalidate`](TriggerMonitor::invalidate). Under `UpdateInPlace`
//! and `Invalidate` the monitor composes them itself, as on a serving
//! site. The other two policies need what only the simulation has:
//!
//! * `Hybrid` ranks the marked pages by the hotness the served requests
//!   feed. It regenerates the hot ones hottest-first
//!   under a per-batch budget, invalidates the cold tail, and parks
//!   in-budget overflow on a bounded deferred queue that the minute
//!   heartbeat drains.
//! * `Conservative96` widens the marks to every dynamic page of each
//!   category they touch, and invalidates those.
//!
//! It also keeps when each page it dropped or parked went stale, and
//! weighs each request for such a page by that age.

use std::borrow::Borrow;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use nagano_cache::PageCache;
use nagano_db::Transaction;
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::SimTime;
use nagano_telemetry::{Counter, Gauge, HistogramHandle, MetricsRegistry};
use nagano_trigger::{DemandFill, TriggerMonitor, TxnOutcome};

use crate::hotness::{HotnessTracker, EWMA_ALPHA};
use crate::policy::{ConsistencyPolicy, HybridConfig};

/// Upper bound on the hybrid policy's deferred queue. Overflow beyond
/// this sheds to invalidation instead of queueing, so a regen storm can
/// never accumulate unbounded catch-up work (backpressure, not memory).
const DEFERRED_CAP: usize = 4096;

/// A transaction batch's outcome, and the hot pages it parked on the
/// deferred queue past the hybrid regeneration budget.
pub type Processed = (TxnOutcome, Vec<PageKey>);

/// The series of what only this layer does, under the `nagano_trigger_*`
/// names beside the monitor's own.
#[derive(Debug)]
struct PolicySeries {
    /// Hot pages parked on the deferred queue.
    pages_deferred: Counter,
    /// The deferred queue's live depth.
    deferred_depth: Gauge,
    /// Pages shed to invalidation because the queue was full.
    deferred_shed: Counter,
    /// One sample per request for a stale-marked page: how long it has
    /// been stale. Hot pages sample often, cold pages rarely — exactly the
    /// weighting the hybrid split optimises for.
    weighted_staleness: HistogramHandle,
}

impl Default for PolicySeries {
    fn default() -> Self {
        PolicySeries {
            pages_deferred: Counter::new(),
            deferred_depth: Gauge::new(),
            deferred_shed: Counter::new(),
            // 1 ms .. ~55 h staleness buckets: marks survive at most a
            // day-scale outage, requests observe them at minute scale.
            weighted_staleness: HistogramHandle::new(1e-3, 200_000.0),
        }
    }
}

impl PolicySeries {
    fn bind(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        let deferred = "nagano_trigger_pages_deferred_total";
        registry.bind_counter(deferred, labels, &self.pages_deferred);
        let depth = "nagano_trigger_regen_deferred_depth";
        registry.bind_gauge(depth, labels, &self.deferred_depth);
        let shed = "nagano_trigger_regen_deferred_shed_total";
        registry.bind_counter(shed, labels, &self.deferred_shed);
        let staleness = "nagano_trigger_weighted_staleness_seconds";
        registry.bind_histogram(staleness, labels, &self.weighted_staleness);
    }
}

/// One complex's trigger monitor under a [`ConsistencyPolicy`], with the
/// hotness, stale marks and deferred queue the policy keeps beside it.
pub struct SiteMonitor {
    trigger: TriggerMonitor,
    policy: ConsistencyPolicy,
    registry: Arc<PageRegistry>,
    /// EWMA hotness the hybrid policy ranks pages by.
    hotness: HotnessTracker,
    /// When each page the policy dropped or parked went stale (earliest
    /// mark wins), until a fresh body reaches the cache.
    stale_since: FxHashMap<PageKey, SimTime>,
    /// The hybrid policy's bounded backpressure queue: hot stale pages
    /// whose regeneration missed the per-batch budget.
    deferred: FxHashSet<PageKey>,
    series: PolicySeries,
}

impl SiteMonitor {
    /// A monitor under `policy` over `cache`, rendering with `renderer`
    /// the pages of `registry`.
    pub fn new(
        policy: ConsistencyPolicy,
        renderer: Renderer,
        cache: Arc<PageCache>,
        registry: Arc<PageRegistry>,
    ) -> Self {
        let trigger =
            TriggerMonitor::new(renderer, cache, Arc::clone(&registry), policy.on_monitor());
        SiteMonitor {
            trigger,
            policy,
            registry,
            hotness: HotnessTracker::default(),
            stale_since: FxHashMap::default(),
            deferred: FxHashSet::default(),
            series: PolicySeries::default(),
        }
    }

    /// The trigger monitor whose steps the policy drives.
    pub fn trigger(&self) -> &TriggerMonitor {
        &self.trigger
    }

    /// Register the monitor's live cells and this layer's into `registry`
    /// under the `nagano_trigger_*` names, tagged with `labels`.
    pub fn bind(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        self.trigger.stats().bind(registry, labels);
        self.series.bind(registry, labels);
    }

    /// Process one committed transaction at sim time `now`.
    pub fn process_txn(&mut self, txn: &Transaction, now: SimTime) -> Processed {
        self.process_batch(std::slice::from_ref(txn), now)
    }

    /// Process a batch of transactions with a single DUP propagation, at
    /// sim time `now` — the timestamp feeds hotness decay, staleness
    /// marking, and the hybrid budget scheduler.
    pub fn process_batch(&mut self, txns: &[impl Borrow<Transaction>], now: SimTime) -> Processed {
        if txns.is_empty() {
            return Processed::default();
        }
        let (outcome, deferred) = match self.policy {
            ConsistencyPolicy::Hybrid(cfg) => self.hybrid(cfg, txns, now),
            ConsistencyPolicy::Conservative96 => (self.conservative(txns), Vec::new()),
            ConsistencyPolicy::UpdateInPlace | ConsistencyPolicy::Invalidate => {
                let outcome = self.trigger.process_batch(txns);
                for &key in &outcome.invalidated {
                    self.mark_stale(key, now);
                }
                (outcome, Vec::new())
            }
        };
        self.clear_stale_marks(&outcome.regenerated);
        (outcome, deferred)
    }

    /// Crash/restart recovery at sim time `now`: `missed`, the log past
    /// the monitor's watermark, processed as one batch under this policy.
    /// Increments `nagano_trigger_recoveries_total`.
    pub fn recover(&mut self, missed: &[impl Borrow<Transaction>], now: SimTime) -> Processed {
        let processed = self.process_batch(missed, now);
        self.trigger.stats().record_recovery();
        processed
    }

    /// The hotness-aware split: regenerate the marked pages hottest-first
    /// while the batch's budget lasts, invalidate those below the hot
    /// fraction's threshold, and park the hot overflow.
    fn hybrid(
        &mut self,
        cfg: HybridConfig,
        txns: &[impl Borrow<Transaction>],
        now: SimTime,
    ) -> Processed {
        let (stale, tolerated, visited) = self.trigger.mark(txns);
        let minute = now.minute_index();
        let threshold = self.hotness.threshold(cfg.hot_permille, minute, EWMA_ALPHA);
        let budget = cfg.budget_ms();
        let (mut cold, mut to_regen, mut overflow) = (Vec::new(), Vec::new(), Vec::new());
        let mut planned_ms = 0.0;
        for (key, hot) in self.rank(stale, minute) {
            if hot < threshold {
                cold.push(key);
            } else if budget.is_none_or(|b| planned_ms < b) {
                // Strict `<` admits the hottest page even when it alone
                // exceeds the budget: progress is guaranteed, starvation
                // is impossible.
                planned_ms += self.trigger.regen_cost_ms(key);
                to_regen.push(key);
            } else {
                overflow.push(key);
            }
        }
        // The cold tail is dropped, and its renders saved.
        let mut saved_ms = 0.0;
        for &key in &cold {
            saved_ms += self.trigger.regen_cost_ms(key);
            self.mark_stale(key, now);
        }
        let mut removed = self.trigger.invalidate(&cold);
        let refreshed = self.trigger.refresh(&to_regen);
        let (deferred, shed) = self.defer(overflow, now);
        for &key in &shed {
            saved_ms += self.trigger.regen_cost_ms(key);
        }
        removed.extend(self.trigger.invalidate(&shed));
        let mut invalidated = cold;
        invalidated.extend(shed);
        let stats = self.trigger.stats();
        stats.record_regen_saved(saved_ms);
        stats.record_txn(
            refreshed.keys.len() as u64,
            invalidated.len() as u64,
            tolerated.len() as u64,
            visited as u64,
        );
        let outcome = TxnOutcome {
            invalidated,
            removed,
            tolerated,
            visited,
            ..refreshed.into()
        };
        (outcome, deferred)
    }

    /// `keys` with their hotness as of `minute`, hottest first. The order
    /// is deterministic: hotness descending (`total_cmp` — no NaNs can
    /// occur, but no unwrap either), then page ascending to break exact
    /// ties.
    fn rank(&self, keys: Vec<PageKey>, minute: u64) -> Vec<(PageKey, f64)> {
        let mut ranked: Vec<(PageKey, f64)> = keys
            .into_iter()
            .map(|k| (k, self.hotness(k, minute)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked
    }

    /// Park hot-but-over-budget pages on the deferred queue, and mark each
    /// stale: it serves old bytes until a drain or a later batch refreshes
    /// it. Returns the pages newly parked, and those shed because the
    /// queue is at [`DEFERRED_CAP`], for the caller to invalidate, so
    /// backpressure never turns into unbounded memory.
    fn defer(&mut self, overflow: Vec<PageKey>, now: SimTime) -> (Vec<PageKey>, Vec<PageKey>) {
        let (mut deferred, mut shed) = (Vec::new(), Vec::new());
        for key in overflow {
            self.mark_stale(key, now);
            if self.deferred.contains(&key) {
                // Already queued from an earlier batch; don't double-count.
                continue;
            }
            if self.deferred.len() >= DEFERRED_CAP {
                shed.push(key);
            } else {
                self.deferred.insert(key);
                deferred.push(key);
            }
        }
        self.series.pages_deferred.add(deferred.len() as u64);
        self.series.deferred_shed.add(shed.len() as u64);
        self.series.deferred_depth.set(self.deferred.len() as u64);
        (deferred, shed)
    }

    /// The 1996 baseline: the marks used only as a section oracle. Every
    /// dynamic page of each category they touch is invalidated,
    /// "significantly more pages ... than were necessary".
    fn conservative(&self, txns: &[impl Borrow<Transaction>]) -> TxnOutcome {
        let (stale, tolerated, visited) = self.trigger.mark(txns);
        let sections: FxHashSet<&'static str> = stale
            .iter()
            .chain(&tolerated)
            .map(|k| k.category())
            .collect();
        let pages = self.registry.pages().iter();
        let swept = pages.filter(|(key, meta)| meta.dynamic && sections.contains(key.category()));
        let invalidated: Vec<PageKey> = swept.map(|&(key, _)| key).collect();
        self.trigger
            .stats()
            .record_txn(0, invalidated.len() as u64, 0, visited as u64);
        TxnOutcome {
            removed: self.trigger.invalidate(&invalidated),
            invalidated,
            visited,
            ..TxnOutcome::default()
        }
    }

    /// Drain the hybrid deferred queue at sim time `now`: re-rank the
    /// parked pages by *current* hotness, regenerate hottest-first under
    /// the same per-batch budget, and park the remainder again for the
    /// next tick. Pages refreshed since they were parked (demand fill or
    /// a later batch) are dropped without work. Returns the pages
    /// regenerated this tick.
    ///
    /// Any tick with a non-empty queue regenerates at least one page
    /// (strict budget admission), so the queue always drains to empty in
    /// the absence of new updates — bounded catch-up, no regen storm.
    pub fn drain_deferred(&mut self, now: SimTime) -> Vec<PageKey> {
        let ConsistencyPolicy::Hybrid(cfg) = self.policy else {
            return Vec::new();
        };
        if self.deferred.is_empty() {
            return Vec::new();
        }
        let marks = &self.stale_since;
        let still_stale: Vec<PageKey> = self
            .deferred
            .drain()
            .filter(|k| marks.contains_key(k))
            .collect();
        let budget = cfg.budget_ms();
        let mut selected = Vec::new();
        let mut planned_ms = 0.0;
        let mut requeue = Vec::new();
        for (key, _) in self.rank(still_stale, now.minute_index()) {
            // The first page is admitted unconditionally (even under a
            // zero budget) so every non-empty drain makes progress.
            if selected.is_empty() || budget.is_none_or(|b| planned_ms < b) {
                planned_ms += self.trigger.regen_cost_ms(key);
                selected.push(key);
            } else {
                requeue.push(key);
            }
        }
        self.deferred.extend(requeue);
        self.series.deferred_depth.set(self.deferred.len() as u64);
        let regenerated = self.trigger.refresh(&selected).keys;
        self.clear_stale_marks(&regenerated);
        let stats = self.trigger.stats();
        stats.record_drained_regen(regenerated.len() as u64);
        regenerated
    }

    /// Number of pages currently parked on the hybrid deferred queue.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Record that a request for `key` arrived at `now`, and whether the
    /// serving cache `answered` it (a hit, or a wait on another request's
    /// fill of the page). An answered request counts towards the page's
    /// hotness at the next [`SiteMonitor::fold_hotness`], whatever
    /// becomes of its cache entry in between. If the page is currently
    /// stale-or-missing due to propagation, one traffic-weighted staleness
    /// sample (seconds since it went stale) lands in
    /// `nagano_trigger_weighted_staleness_seconds`. Hot pages therefore
    /// weigh on the histogram in proportion to their traffic.
    pub fn observe_request(&mut self, key: PageKey, now: SimTime, answered: bool) {
        match self.registry.space().slot(key) {
            Some(slot) if answered => self.hotness.count(slot),
            _ => {}
        }
        if let Some(&since) = self.stale_since.get(&key) {
            let secs = now.since(since).as_secs_f64();
            self.series.weighted_staleness.record(secs);
        }
    }

    /// Fold the requests counted since the last fold into each page's
    /// EWMA hotness as of sim minute `minute`. The cluster heartbeat calls
    /// it once a minute.
    pub fn fold_hotness(&mut self, minute: u64) {
        self.hotness.fold_window(minute);
    }

    /// Hotness for the hybrid ranking: the page's own traffic.
    pub(crate) fn hotness(&self, key: PageKey, minute: u64) -> f64 {
        let slot = self.registry.space().slot(key);
        slot.map_or(0.0, |slot| self.hotness.get(slot, minute, EWMA_ALPHA))
    }

    /// The monitor's demand fill ([`TriggerMonitor::demand_fill`]): the
    /// page is fresh again, and its staleness clock stops.
    pub fn demand_fill(&mut self, key: PageKey) -> DemandFill {
        let fill = self.trigger.demand_fill(key);
        self.stale_since.remove(&key);
        fill
    }

    /// Traffic-weighted staleness so far: the samples, and their sum in
    /// seconds (approximate: the log-bucketed histogram's mean × count).
    pub fn weighted_staleness(&self) -> (u64, f64) {
        let h = &self.series.weighted_staleness;
        let count = h.count();
        let sum = if count == 0 {
            0.0
        } else {
            h.mean() * count as f64
        };
        (count, sum)
    }

    fn mark_stale(&mut self, key: PageKey, now: SimTime) {
        // Earliest mark wins: a page invalidated twice has been stale
        // since the first drop.
        self.stale_since.entry(key).or_insert(now);
    }

    /// Stop the staleness clock of `keys`. Update-in-place marks nothing
    /// stale: with no mark there is no key to hash.
    fn clear_stale_marks(&mut self, keys: &[PageKey]) {
        if keys.is_empty() || self.stale_since.is_empty() {
            return;
        }
        for key in keys {
            self.stale_since.remove(key);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nagano_cache::CacheConfig;
    use nagano_db::{seed_games, AthleteId, GamesConfig, OlympicDb};
    use nagano_simcore::SimDuration;
    use nagano_telemetry::prometheus_text;
    use nagano_trigger::PageUrls;

    /// A prewarmed monitor under `policy` over the small Games, whose
    /// pages the tests name by URL.
    pub(crate) fn setup(policy: ConsistencyPolicy) -> (Arc<OlympicDb>, SiteMonitor) {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let registry = Arc::new(PageRegistry::build(&db, 16));
        let cache = PageCache::with_keys(CacheConfig::default(), PageUrls::of(&registry));
        let renderer = Renderer::new(Arc::clone(&db));
        let monitor = SiteMonitor::new(policy, renderer, Arc::new(cache), registry);
        monitor.trigger().prewarm();
        (db, monitor)
    }

    fn podium(db: &OlympicDb, event: nagano_db::EventId) -> Vec<(AthleteId, f64)> {
        let ev = db.event(event).unwrap();
        db.athletes_of_sport(ev.sport)
            .iter()
            .take(5)
            .enumerate()
            .map(|(i, a)| (a.id, 100.0 - i as f64))
            .collect()
    }

    /// Drive enough answered requests at `keys` that they are tracked hot
    /// as of minute 1.
    fn heat_pages(monitor: &mut SiteMonitor, keys: &[PageKey], hits: usize) {
        for &key in keys {
            for _ in 0..hits {
                monitor.observe_request(key, SimTime::from_mins(1), true);
            }
        }
        monitor.fold_hotness(1);
    }

    #[test]
    fn conservative_invalidates_whole_sections() {
        let (db, mut monitor) = setup(ConsistencyPolicy::Conservative96);
        let ev = db.events()[0].clone();
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let precise = {
            // For comparison: what precise DUP would have touched.
            let (db2, mut m2) = setup(ConsistencyPolicy::UpdateInPlace);
            let ev2 = db2.events()[0].clone();
            let txn2 = db2.record_results(ev2.id, &podium(&db2, ev2.id), true, ev2.day);
            m2.process_txn(&txn2, SimTime::ZERO).0.affected()
        };
        let (outcome, _) = monitor.process_txn(&txn, SimTime::ZERO);
        assert!(
            outcome.invalidated.len() > precise * 2,
            "conservative {} vs precise {}",
            outcome.invalidated.len(),
            precise
        );
        // Every Sports-section page is gone, touched or not.
        let untouched_event = db.events().last().unwrap().id;
        let url = PageKey::Event(untouched_event).to_url();
        assert!(monitor.trigger().cache().peek(&url).is_none());
    }

    #[test]
    fn hybrid_regenerates_hot_and_invalidates_cold() {
        let (db, mut monitor) = setup(ConsistencyPolicy::hybrid(0.5, None));
        let ev = db.events()[0].clone();
        // Make the event page (and a couple of fan-out targets) hot; the
        // rest of the affected set stays cold.
        let hot = [
            PageKey::Event(ev.id),
            PageKey::Medals,
            PageKey::Home(ev.day),
        ];
        heat_pages(&mut monitor, &hot, 10);
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let (outcome, _) = monitor.process_txn(&txn, SimTime::from_mins(2));
        assert!(outcome.regenerated.contains(&PageKey::Event(ev.id)));
        assert!(outcome.regenerated.contains(&PageKey::Medals));
        assert!(
            !outcome.invalidated.is_empty(),
            "cold tail should be invalidated"
        );
        // Hot pages were replaced in place, never missing.
        let cache = monitor.trigger().cache();
        assert!(cache.peek(&PageKey::Event(ev.id).to_url()).is_some());
        // Cold pages are gone until demand refills them.
        let cold = outcome.invalidated[0];
        assert!(cache.peek(&cold.to_url()).is_none());
        let snap = monitor.trigger().stats().snapshot();
        assert!(snap.regen_cpu_ms > 0);
        assert!(snap.regen_saved_ms > 0, "cold invalidations save CPU");
    }

    #[test]
    fn hybrid_budget_defers_overflow_and_drains_it() {
        // Everything is hot (fraction 1.0) but the budget is tiny, so most
        // of the affected set lands on the deferred queue.
        let (db, mut monitor) = setup(ConsistencyPolicy::hybrid(1.0, Some(1)));
        let ev = db.events()[0].clone();
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let now = SimTime::from_mins(2);
        let (outcome, deferred) = monitor.process_txn(&txn, now);
        // Strict admission: at least one page regenerates per batch.
        assert!(!outcome.regenerated.is_empty());
        assert!(!deferred.is_empty(), "budget overflow must defer");
        assert!(outcome.invalidated.is_empty(), "nothing is cold");
        assert_eq!(monitor.deferred_len(), deferred.len());
        let series = &monitor.series;
        assert_eq!(series.pages_deferred.get(), deferred.len() as u64);
        // The FIFO depth gauge tracks the live queue; nothing hit the cap.
        assert_eq!(series.deferred_depth.get(), deferred.len() as u64);
        assert_eq!(series.deferred_shed.get(), 0);
        // Deferred pages keep serving stale bytes (update-in-place never
        // dropped them) and carry a stale mark.
        let parked = deferred[0];
        assert!(monitor.trigger().cache().peek(&parked.to_url()).is_some());
        monitor.observe_request(parked, now + SimDuration::from_mins(3), false);
        assert_eq!(monitor.weighted_staleness().0, 1);
        // Ticking the drain clears the queue completely in finite time.
        let mut drained = Vec::new();
        let mut tick = now;
        while monitor.deferred_len() > 0 {
            tick += SimDuration::from_mins(1);
            let got = monitor.drain_deferred(tick);
            assert!(!got.is_empty(), "non-empty queue must make progress");
            drained.extend(got);
        }
        let mut expected: Vec<PageKey> = deferred.clone();
        expected.sort();
        drained.sort();
        assert_eq!(drained, expected);
        // Regenerated pages lose their stale marks: a later request
        // records no staleness sample.
        monitor.observe_request(parked, tick + SimDuration::from_mins(1), false);
        assert_eq!(monitor.weighted_staleness().0, 1);
        // An empty queue drains to nothing, and the depth gauge went back
        // to zero with the last requeue.
        assert!(monitor.drain_deferred(tick).is_empty());
        assert_eq!(monitor.series.deferred_depth.get(), 0);
    }

    #[test]
    fn hybrid_priority_is_hottest_first() {
        let (db, mut monitor) = setup(ConsistencyPolicy::hybrid(1.0, Some(1)));
        let ev = db.events()[0].clone();
        // Medals is the hottest affected page by a wide margin.
        heat_pages(&mut monitor, &[PageKey::Medals], 50);
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let (outcome, _) = monitor.process_txn(&txn, SimTime::from_mins(2));
        assert_eq!(
            outcome.regenerated.first(),
            Some(&PageKey::Medals),
            "hottest page must be admitted first"
        );
    }

    #[test]
    fn hybrid_cold_pages_accrue_weighted_staleness_until_refilled() {
        let (db, mut monitor) = setup(ConsistencyPolicy::hybrid(0.0, None));
        let ev = db.events()[0].clone();
        let key = PageKey::Event(ev.id);
        let t0 = SimTime::from_mins(10);
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let (outcome, _) = monitor.process_txn(&txn, t0);
        assert!(outcome.invalidated.contains(&key));
        // Two requests at +60s and +120s observe 60 and 120 stale-seconds.
        monitor.observe_request(key, t0 + SimDuration::from_secs(60), false);
        monitor.observe_request(key, t0 + SimDuration::from_secs(120), false);
        let (count, sum) = monitor.weighted_staleness();
        assert_eq!(count, 2);
        assert!((sum - 180.0).abs() / 180.0 < 0.1, "sum {sum}");
        // A demand fill stops the clock.
        monitor.demand_fill(key);
        monitor.observe_request(key, t0 + SimDuration::from_mins(60), false);
        assert_eq!(monitor.weighted_staleness().0, 2);
    }

    #[test]
    fn deferral_fifo_depth_and_shed_export() {
        let reg = MetricsRegistry::new();
        let s = PolicySeries::default();
        s.bind(&reg, &[("site", "tokyo")]);
        s.deferred_depth.set(4096);
        s.deferred_shed.add(7);
        s.deferred_shed.add(0);
        s.pages_deferred.add(3);
        assert_eq!(s.deferred_depth.get(), 4096);
        assert_eq!(s.deferred_shed.get(), 7);
        // Depth is a gauge: it goes back down when the queue drains.
        s.deferred_depth.set(12);
        assert_eq!(s.deferred_depth.get(), 12);
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_trigger_regen_deferred_depth{site=\"tokyo\"} 12"));
        assert!(text.contains("nagano_trigger_regen_deferred_shed_total{site=\"tokyo\"} 7"));
        assert!(text.contains("nagano_trigger_pages_deferred_total{site=\"tokyo\"} 3"));
    }

    #[test]
    fn bind_exposes_histogram() {
        let (db, mut monitor) = setup(ConsistencyPolicy::Invalidate);
        let reg = MetricsRegistry::new();
        monitor.bind(&reg, &[("site", "tokyo")]);
        let ev = db.events()[0].clone();
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        monitor.process_txn(&txn, SimTime::ZERO);
        monitor.observe_request(PageKey::Event(ev.id), SimTime::from_secs(2), false);
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_trigger_txns_total{site=\"tokyo\"} 1"));
        assert!(text.contains("nagano_trigger_weighted_staleness_seconds_count{site=\"tokyo\"} 1"));
        // Time spent is modelled by the simulation, not recorded here.
        assert!(!text.contains("nagano_trigger_latency_seconds"), "{text}");
    }
}
