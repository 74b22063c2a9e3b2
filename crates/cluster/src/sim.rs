//! The 16-day discrete-event driver: workload in, figures out.
//!
//! One run wires together the full reproduction stack — seeded database,
//! page registry, per-site trigger monitors (with Figure-5 replication
//! delays), MSIRP routing over the live cluster state, and the request
//! model — and measures everything the paper's evaluation section reports.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rustc_hash::FxHashMap;

use nagano::serve::{self, Decision, Observation, Render};
use nagano_cache::{PageCache, StatsSnapshot};
use nagano_db::{seed_games, DeliverOutcome, GamesConfig, OlympicDb, Transaction, TxnId, TxnLog};
use nagano_httpd::HttpdMetrics;
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::{
    DeterministicRng, EventQueue, Histogram, LinkClass, LinkModel, SimDuration, SimTime,
    TimeSeries, Welford,
};
use nagano_telemetry::{
    json_snapshot, prometheus_text, slo_json, Counter, Gauge, HistogramHandle, Objective,
    SloEngine, SloOutcome, SloRule, Telemetry, Trace, TraceKind,
};
use nagano_trigger::TxnOutcome;
use nagano_workload::{Region, RequestModel, UpdateSchedule};

use crate::faults::{
    DataFaultKind, DataFaultPlanEntry, LinkFault, ServingFaultKind, ServingFaultPlanEntry,
    CATCHUP_BASE_BACKOFF_SECS, DR_EDGE, MAX_CATCHUP_RETRIES, PRIMARY_FEED, REPLICATION_EDGES,
};
use crate::monitor::{Processed, SiteMonitor};
use crate::policy::ConsistencyPolicy;
use crate::resilience::{BreakerConfig, CircuitBreaker, RetryBackoff, Tombstone, Tombstones};
use crate::state::{ClusterState, FailureKind};
use crate::topology::{region_latency_ms, Msirp, RouteDecision, SITES};

/// One scheduled failure or restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePlanEntry {
    /// When it happens.
    pub at: SimTime,
    /// What fails or recovers.
    pub kind: FailureKind,
    /// `false` = fail, `true` = restore.
    pub up: bool,
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Divide paper-scale request volumes by this (1,000 ⇒ ~635k
    /// simulated requests across the Games).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Dataset dimensions.
    pub games: GamesConfig,
    /// Consistency policy run at every site's trigger monitor.
    pub policy: ConsistencyPolicy,
    /// First simulated day (1-based, inclusive).
    pub start_day: u32,
    /// Last simulated day (inclusive).
    pub end_day: u32,
    /// Scheduled failures/restores.
    pub failure_plan: Vec<FailurePlanEntry>,
    /// Scheduled data-plane faults: replication-link misbehaviour and
    /// trigger-monitor crash/restart (see [`crate::faults`]).
    pub fault_plan: Vec<DataFaultPlanEntry>,
    /// Scheduled serving-plane faults: render slowdowns, backend outages,
    /// and cache cold-restarts (see [`crate::faults::ServingFaultKind`]).
    /// Empty by default.
    pub serving_fault_plan: Vec<ServingFaultPlanEntry>,
    /// Serving-path resilience: stale copies, per-request deadlines,
    /// seeded retry backoff, and a per-site circuit breaker (DESIGN.md
    /// §11). On a fault-free run none of it is ever taken: no stale
    /// serve, no trip, no retry.
    pub resilience: ServingResilience,
    /// 1996-style co-location: updates run **on the serving processors**,
    /// so page service slows down around update bursts. The 1998 design
    /// ran updates "on different processors from the ones serving pages"
    /// so "response times were not adversely affected around the times of
    /// peak updates" (§2).
    pub updates_on_serving_nodes: bool,
    /// When set, hourly telemetry flush events write per-hour registry
    /// snapshots (`telemetry_hourly.jsonl`) plus final `metrics.prom` /
    /// `metrics.json` / `traces.jsonl` / `slo.json` exports into this
    /// directory (typically `target/experiments/`). `None` disables all
    /// file output.
    pub export_dir: Option<PathBuf>,
    /// Service-level objectives evaluated over the run. Burn rates are
    /// tracked over hourly sim-time snapshots; verdicts land in
    /// [`ClusterReport::slo`] and the `slo.json` export. Defaults to
    /// [`ClusterConfig::default_slo_rules`].
    pub slo_rules: Vec<SloRule>,
    /// After the run, re-render every registry page and compare against
    /// each site's cache, counting mismatches into
    /// [`ClusterReport::stale_pages`]. Off by default (it costs one full
    /// render sweep per site); the convergence property tests turn it on.
    pub audit_convergence: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            scale: 1_000.0,
            seed: 0x1998,
            games: GamesConfig::full(),
            policy: ConsistencyPolicy::UpdateInPlace,
            start_day: 1,
            end_day: 16,
            failure_plan: Vec::new(),
            fault_plan: Vec::new(),
            serving_fault_plan: Vec::new(),
            resilience: ServingResilience::default(),
            updates_on_serving_nodes: false,
            export_dir: None,
            slo_rules: ClusterConfig::default_slo_rules(),
            audit_convergence: false,
        }
    }
}

impl ClusterConfig {
    /// The stock objectives: the paper's 60-second propagation bound,
    /// both as a good-fraction rule (burn-rate tracked) and a percentile
    /// rule over the same freshness histogram.
    pub fn default_slo_rules() -> Vec<SloRule> {
        let rule = |name: &str, objective| SloRule {
            name: name.to_string(),
            metric: "nagano_cluster_freshness_seconds".to_string(),
            objective,
        };
        vec![
            rule(
                "fresh-60s",
                Objective::FractionBelow {
                    bound: 60.0,
                    min_fraction: 0.99,
                },
            ),
            rule("fresh-p99", Objective::QuantileBelow { q: 99.0, max: 60.0 }),
        ]
    }
}

/// Serving-path resilience knobs: a per-request deadline (a socket
/// site's followers wait a fixed 2 s), then what only the simulation has,
/// because only its backends fail: the age bound of each complex's stale
/// copies ([`Tombstones`]), seeded retry backoff for failed regenerations
/// and a circuit breaker per site backend.
#[derive(Debug, Clone)]
pub struct ServingResilience {
    /// How long (seconds of sim time) the body an invalidation took out
    /// of a complex's cache may still be served.
    pub stale_max_age_secs: f64,
    /// Per-request deadline (seconds): a regeneration slower than this
    /// answers from the stale copy when one exists, and the fresh body
    /// lands in the background.
    pub request_budget_secs: f64,
    /// Breaker guarding each site's render/db backend.
    pub breaker: BreakerConfig,
    /// Base delay (seconds) for the full-jitter retry backoff taken when
    /// a regeneration fails with no stale copy to fall back on.
    pub retry_base_secs: f64,
    /// Cap (seconds) on any single backoff delay.
    pub retry_max_secs: f64,
    /// Bounded retry attempts per request.
    pub retry_max_attempts: u32,
}

impl Default for ServingResilience {
    fn default() -> Self {
        ServingResilience {
            stale_max_age_secs: 900.0,
            request_budget_secs: 2.0,
            breaker: BreakerConfig::default(),
            retry_base_secs: 0.05,
            retry_max_secs: 0.4,
            retry_max_attempts: 3,
        }
    }
}

/// Time-to-converge bookkeeping for one healed data-plane fault: opened
/// when the fault heals, closed at the first minute boundary where the
/// faulted site's replica watermark matches the master log *and* its
/// trigger monitor has processed up to that watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRecord {
    /// Human-readable fault description (edge name + fault, or
    /// `monitor-crash <site>`).
    pub label: String,
    /// The site that had to converge.
    pub site: usize,
    /// When the fault healed.
    pub healed_at: SimTime,
    /// First minute boundary at which the site was fully converged;
    /// `None` if it never converged before the run ended.
    pub converged_at: Option<SimTime>,
}

impl ConvergenceRecord {
    /// Heal → converged, if convergence was observed.
    pub fn time_to_converge(&self) -> Option<SimDuration> {
        self.converged_at.map(|c| c - self.healed_at)
    }
}

/// Everything a run measures. Counts are in *simulated* units; multiply
/// by `scale` for paper units (helpers provided).
#[derive(Debug)]
pub struct ClusterReport {
    /// The scale divisor used.
    pub scale: f64,
    /// Requests attempted.
    pub total_requests: u64,
    /// Requests no complex could serve.
    pub failed_requests: u64,
    /// Global request series, minute bins.
    pub per_minute: TimeSeries,
    /// Per-site request series, minute bins.
    pub per_site_minute: Vec<TimeSeries>,
    /// Requests by client region.
    pub by_region: FxHashMap<Region, u64>,
    /// Body bytes served per day (index 0 = day 1), simulated units.
    pub bytes_per_day: Vec<f64>,
    /// Home-page modem response times (seconds) per (day, region).
    pub response_by_day_region: FxHashMap<(u32, Region), Welford>,
    /// All modem home-page responses (seconds) — used against the §4
    /// design requirement of ≤30 s per page on a 28.8 kbps modem.
    pub modem_responses: Histogram,
    /// Server-side service time (ms) for requests within ±2 minutes of an
    /// update being applied at their serving site.
    pub service_near_updates: Welford,
    /// Server-side service time (ms) for all other requests.
    pub service_away_from_updates: Welford,
    /// Aggregated cache statistics across all sites: counts summed,
    /// `bytes_peak` the largest one site's cache reached.
    pub cache: StatsSnapshot,
    /// Requests answered from a stale copy, summed across sites.
    pub stale_served: u64,
    /// The largest age (seconds, on the minute clock) of any stale copy
    /// served; 0 when none was.
    pub stale_age_max_secs: f64,
    /// Responses by the row of the serve table that answered them.
    pub responses: Responses,
    /// Pages regenerated per day across sites (index 0 = day 1).
    pub regen_per_day: Vec<u64>,
    /// Modeled render CPU spent on trigger-driven regeneration (ms),
    /// summed across sites.
    pub regen_cpu_ms: u64,
    /// Modeled render CPU *avoided* by invalidating instead of
    /// regenerating (ms), summed across sites. Zero outside
    /// `Invalidate`/`Hybrid`.
    pub regen_saved_ms: u64,
    /// Sum of traffic-weighted staleness samples (seconds): each request
    /// that hits a page while it is stale-marked contributes its current
    /// staleness age. Approximate (log-bucketed histogram mean × count).
    pub weighted_staleness_sum_secs: f64,
    /// Number of traffic-weighted staleness samples behind the sum.
    pub weighted_staleness_samples: u64,
    /// Freshness: master-commit → site-visible latency (seconds).
    pub freshness: Welford,
    /// Freshness distribution (seconds) — percentile queries for the
    /// paper's update-propagation claim (p50/p95/p99/p999).
    pub freshness_hist: Histogram,
    /// Worst-case freshness in seconds.
    pub freshness_max: f64,
    /// End-to-end update-to-serve distribution (seconds): master commit →
    /// the first request at each site that serves a page the update
    /// touched in its fresh state. The root-to-leaf duration of a
    /// completed propagation trace lands here, one sample per site.
    pub update_to_serve: Histogram,
    /// Final SLO verdicts (with any burn-rate alerts that fired during
    /// the run), one per rule in [`ClusterConfig::slo_rules`].
    pub slo: Vec<SloOutcome>,
    /// Transactions applied at sites.
    pub updates_applied: u64,
    /// Transactions dropped by faulted replication links.
    pub replication_dropped: u64,
    /// Deliveries ignored at replicas as duplicates (reordered or re-sent
    /// messages that already arrived another way).
    pub replication_duplicates: u64,
    /// Transactions applied through watermark catch-up pulls (gap repair,
    /// post-heal resync, disaster-recovery re-feed).
    pub catch_up_applied: u64,
    /// Catch-up attempts that failed on a faulted link and were retried
    /// with exponential backoff.
    pub retries: u64,
    /// Trigger-monitor crash/restart recoveries completed.
    pub recoveries: u64,
    /// Staleness under failure: master-commit → site-visible latency
    /// (seconds) for transactions that reached a site via catch-up or
    /// monitor recovery rather than healthy streaming.
    pub staleness_hist: Histogram,
    /// Worst staleness-under-failure in seconds.
    pub staleness_max: f64,
    /// One record per healed data-plane fault: when the site reconverged.
    pub convergence: Vec<ConvergenceRecord>,
    /// Demand regenerations performed on the serving path (cache misses
    /// that rendered, on either serving path).
    pub demand_fills: u64,
    /// Demand regenerations that replaced a stale copy — the work
    /// the single-flight map is supposed to keep at one per stale epoch.
    pub stale_regens: u64,
    /// Distinct `(site, page, stale-epoch)` tuples behind
    /// [`Self::stale_regens`].
    pub stale_regen_keys: u64,
    /// Circuit-breaker closed→open transitions summed across sites.
    pub breaker_trips: u64,
    /// Render retry attempts burned against failed regenerations.
    pub render_retries: u64,
    /// Server-side latency (seconds) of every served request, including
    /// coalesced waits and fault-inflated renders. Report-local (never
    /// exported), so it cannot disturb byte-identical telemetry.
    pub serve_latency: Histogram,
    /// Final per-site replica watermarks (highest master txn id applied).
    pub site_watermarks: [u64; 4],
    /// Final per-site trigger-monitor watermarks (highest txn id DUP ran
    /// over).
    pub monitor_watermarks: [u64; 4],
    /// Master transaction log length at the end of the run.
    pub master_txns: u64,
    /// Stale cached pages found by the end-of-run audit; `Some(0)` means
    /// every cached body at every site matched a fresh render. `None`
    /// unless [`ClusterConfig::audit_convergence`] was set.
    pub stale_pages: Option<u64>,
    /// The run's telemetry: metric registry plus propagation and serving
    /// trace ring buffers. Export with
    /// [`nagano_telemetry::prometheus_text`] / [`json_snapshot`].
    pub telemetry: Arc<Telemetry>,
}

impl ClusterReport {
    /// Total requests in paper units.
    pub fn total_requests_paper(&self) -> f64 {
        self.total_requests as f64 * self.scale
    }

    /// Availability: fraction of requests served.
    pub fn availability(&self) -> f64 {
        if self.total_requests == 0 {
            return 1.0;
        }
        1.0 - self.failed_requests as f64 / self.total_requests as f64
    }

    /// Overall cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Peak minute: `(minute_index, simulated_count, paper_scale_count)`.
    pub fn peak_minute(&self) -> (usize, f64, f64) {
        let (idx, v) = self.per_minute.peak();
        (idx, v, v * self.scale)
    }

    /// Requests per site over the whole run, simulated units.
    pub fn per_site_totals(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for (i, ts) in self.per_site_minute.iter().enumerate() {
            out[i] = ts.total();
        }
        out
    }

    /// Mean regenerations per distinct `(page, stale-epoch)` pair that was
    /// rendered out of staleness — 1.0 when request coalescing is
    /// airtight, climbing toward the stampede size without it.
    pub fn regens_per_stale_key(&self) -> f64 {
        if self.stale_regen_keys == 0 {
            return 0.0;
        }
        self.stale_regens as f64 / self.stale_regen_keys as f64
    }

    /// Fraction of served responses answered from a stale copy.
    pub fn stale_serve_rate(&self) -> f64 {
        let served = self.total_requests - self.failed_requests;
        if served == 0 {
            return 0.0;
        }
        self.stale_served as f64 / served as f64
    }

    /// Requests per day (paper-scale millions), from the minute series.
    pub fn hits_per_day_paper_millions(&self) -> Vec<f64> {
        self.per_minute
            .rebin(1440)
            .bins()
            .iter()
            .map(|&v| v * self.scale / 1.0e6)
            .collect()
    }
}

/// Served responses counted by the [`Decision`] that answered them: a
/// fill that ended in a stale copy or a 503 counts as that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Responses {
    /// Answered by the cache outright.
    pub hit: u64,
    /// Answered from another request's regeneration of the page.
    pub join: u64,
    /// Answered from a stale copy.
    pub stale: u64,
    /// Answered by a demand fill.
    pub fill: u64,
    /// Answered 503.
    pub fail: u64,
}

impl Responses {
    fn count(&mut self, decision: Decision) {
        let cell = match decision {
            Decision::Hit => &mut self.hit,
            Decision::Join => &mut self.join,
            Decision::ServeStale => &mut self.stale,
            Decision::Fill => &mut self.fill,
            Decision::Fail => &mut self.fail,
        };
        *cell += 1;
    }
}

impl ClusterReport {
    /// A report with nothing counted yet, sized for `cfg`'s horizon.
    fn empty(cfg: &ClusterConfig, telemetry: &Arc<Telemetry>) -> Self {
        let horizon = SimDuration::from_days(cfg.end_day as u64);
        let minutes = || TimeSeries::new(SimDuration::from_mins(1), horizon);
        ClusterReport {
            scale: cfg.scale,
            total_requests: 0,
            failed_requests: 0,
            per_minute: minutes(),
            per_site_minute: (0..4).map(|_| minutes()).collect(),
            by_region: FxHashMap::default(),
            bytes_per_day: vec![0.0; cfg.end_day as usize],
            response_by_day_region: FxHashMap::default(),
            modem_responses: Histogram::for_latency(),
            service_near_updates: Welford::new(),
            service_away_from_updates: Welford::new(),
            cache: StatsSnapshot::default(),
            stale_served: 0,
            stale_age_max_secs: 0.0,
            responses: Responses::default(),
            regen_per_day: vec![0; cfg.end_day as usize],
            regen_cpu_ms: 0,
            regen_saved_ms: 0,
            weighted_staleness_sum_secs: 0.0,
            weighted_staleness_samples: 0,
            freshness: Welford::new(),
            freshness_hist: Histogram::new(1e-3, 600.0),
            freshness_max: 0.0,
            update_to_serve: Histogram::new(1e-3, 2_000_000.0),
            slo: Vec::new(),
            updates_applied: 0,
            replication_dropped: 0,
            replication_duplicates: 0,
            catch_up_applied: 0,
            retries: 0,
            recoveries: 0,
            staleness_hist: Histogram::new(1e-3, 100_000.0),
            staleness_max: 0.0,
            convergence: Vec::new(),
            demand_fills: 0,
            stale_regens: 0,
            stale_regen_keys: 0,
            breaker_trips: 0,
            render_retries: 0,
            serve_latency: Histogram::for_latency(),
            site_watermarks: [0; 4],
            monitor_watermarks: [0; 4],
            master_txns: 0,
            stale_pages: None,
            telemetry: Arc::clone(telemetry),
        }
    }
}

enum SimEvent {
    /// An update reaches the master database.
    MasterUpdate(usize),
    /// A shipped transaction arrives at the receiving end of a
    /// replication edge (index into [`REPLICATION_EDGES`]).
    EdgeDeliver(usize, Arc<Transaction>),
    /// A site attempts a watermark catch-up pull over its current feed.
    CatchUp(usize),
    /// A routing-tier failure-plan entry fires.
    Failure(usize),
    /// A data-plane fault-plan entry fires.
    DataFault(usize),
    /// A serving-plane fault-plan entry fires.
    ServingFault(usize),
    /// Hourly telemetry snapshot (only scheduled when `export_dir` is set).
    TelemetryFlush,
}

/// Generate a random failure soak plan: `events_per_day` component
/// failures per day across `start_day..=end_day`, each restored after 30
/// to 90 minutes. At most one complex-level failure is in flight at a
/// time (the production site's redundancy budget assumed no simultaneous
/// multi-complex outage; none occurred).
pub fn random_soak_plan(
    start_day: u32,
    end_day: u32,
    events_per_day: u32,
    seed: u64,
) -> Vec<FailurePlanEntry> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let cluster = ClusterState::new();
    let mut plan = Vec::new();
    // (restore_minute, site) of the currently scheduled complex outage.
    let mut complex_busy_until: i64 = -1;
    for day in start_day..=end_day {
        for _ in 0..events_per_day {
            let at_min = (day as u64 - 1) * 1440 + rng.index(1380) as u64;
            let duration = 30 + rng.index(61) as u64; // 30..=90 minutes
            let mut kind = cluster.random_failure_target(&mut rng);
            if let FailureKind::Complex { site } = kind {
                if (at_min as i64) <= complex_busy_until {
                    // Another complex is already down: demote to a frame
                    // failure at the same site.
                    kind = FailureKind::Frame { site, frame: 0 };
                } else {
                    complex_busy_until = (at_min + duration) as i64;
                }
            }
            for (at, up) in [(at_min, false), (at_min + duration, true)] {
                let at = SimTime::from_mins(at);
                plan.push(FailurePlanEntry { at, kind, up });
            }
        }
    }
    plan.sort_by_key(|e| e.at);
    plan
}

/// One serving trace is recorded per this many requests (prime, so the
/// sample is not phase-locked to any per-minute request pattern).
const SERVING_TRACE_SAMPLE: u64 = 199;

/// A short settle tail after the last simulated minute drains
/// replication still in flight at the horizon (commits in the final
/// minutes whose deliveries land just past it), so that a run whose
/// faults have all healed always ends converged.
const SETTLE_MINUTES: u64 = 10;

/// An in-flight update-lineage tree for one master transaction: rooted at
/// `nagano_cluster_txn_receipt`, it gains a distribute → traversal →
/// apply chain per site and closes each site's branch with a
/// `nagano_cache_first_fresh_hit` leaf when a request first serves a page
/// the transaction touched. The trace completes (and is pushed into the
/// propagation ring) once every site has both applied and served; updates
/// still waiting at the horizon flush in transaction order.
struct PendingTrace {
    trace: Trace,
    /// Index of the `nagano_cluster_txn_receipt` root span.
    root: usize,
    /// Sites that have applied the transaction.
    applied: usize,
    /// Per-site: a fresh serve has been observed.
    served: [bool; 4],
    /// Per-site index of the `nagano_cache_apply` span, the parent for
    /// that site's first-fresh-hit leaf.
    apply_span: [Option<usize>; 4],
}

/// How transactions reached a site's trigger monitor — the shape of the
/// lineage branch [`SimState::record_apply`] writes for them.
#[derive(Clone, Copy)]
enum Via {
    /// Streamed over a replication edge.
    Stream,
    /// Pulled by a watermark catch-up.
    CatchUp,
    /// Replayed from the replica by a restarted monitor.
    Recovery,
}

/// What a served request came to: body bytes, server time (ms), and
/// whether the cache answered it outright.
type Served = (u64, f64, bool);

/// The body a request is answered with, and the server time (ms) it took.
pub(crate) enum Answer {
    /// The cache entry's body at `version`; `hit` when the cache answered
    /// it outright.
    Fresh {
        body: bytes::Bytes,
        #[cfg_attr(
            not(debug_assertions),
            expect(dead_code, reason = "the response oracle reads it")
        )]
        version: u64,
        ms: f64,
        hit: bool,
    },
    /// A stale copy.
    Stale { copy: Tombstone, ms: f64 },
}

impl Answer {
    fn served(self) -> Served {
        match self {
            Answer::Fresh { body, ms, hit, .. } => (body.len() as u64, ms, hit),
            Answer::Stale { copy, ms } => (copy.body.len() as u64, ms, false),
        }
    }
}

/// One serving complex as the driver sees it: trigger monitor under the
/// run's policy and its cache, replica of the master log, and the fault
/// and resilience state of both planes.
struct Complex {
    monitor: SiteMonitor,
    /// The simulated httpd front end's request counters.
    httpd: HttpdMetrics,
    /// The master's transactions this site holds, under the master's ids:
    /// its length is the site's watermark. [`SimState::feed_log`] is the
    /// log it pulls from.
    replica: TxnLog,
    lag: Gauge,
    staleness: HistogramHandle,
    /// [`trigger_latency`] of every batch the monitor processed.
    trigger_latency: HistogramHandle,
    /// While the monitor is down the replica still advances; the monitor
    /// reads the replica past its watermark when it is back.
    monitor_up: bool,
    catchup_pending: bool,
    catchup_attempts: u32,
    /// Catch-up retries are exhausted: quiet until the link heals.
    gave_up: bool,
    last_apply_minute: i64,
    /// Render cost multiplier of an active `RenderSlowdown`.
    slowdown: f64,
    backend_down: bool,
    breaker: CircuitBreaker,
    /// The bodies invalidations took out of the cache, servable stale.
    tombstones: Tombstones,
    /// `nagano_cache_stale_served_total`: requests answered from
    /// `tombstones`.
    stale_served: Counter,
    /// In-flight regenerations: page slot → when the render lands. Requests
    /// arriving before then coalesce onto the flight instead of rendering
    /// again (the DES view of the per-shard single-flight maps in
    /// `nagano-cache`).
    inflight: FxHashMap<u32, SimTime>,
    /// Pages an update refreshed (regenerated or invalidated) whose first
    /// subsequent fresh serve has not been observed yet → the owning
    /// transaction. Newer writes overwrite older claims.
    fresh_waiting: FxHashMap<PageKey, TxnId>,
}

/// The run-wide cells of the shared registry.
struct Counters {
    requests: Counter,
    failed: Counter,
    applied: Counter,
    retries: Counter,
    dropped: Counter,
    catch_up: Counter,
    freshness: HistogramHandle,
    update_to_serve: HistogramHandle,
}

/// Everything a run carries from one event and one minute to the next.
struct SimState<'a> {
    cfg: &'a ClusterConfig,
    db: Arc<OlympicDb>,
    registry: Arc<PageRegistry>,
    model: RequestModel,
    schedule: UpdateSchedule,
    telemetry: Arc<Telemetry>,
    complexes: Vec<Complex>,
    counters: Counters,
    cluster: ClusterState,
    msirp: Msirp,
    queue: EventQueue<SimEvent>,
    report: ClusterReport,
    slo_engine: SloEngine,
    /// Data-plane faults active on the five replication edges.
    edge_fault: [Option<LinkFault>; 5],
    /// The start of the minute whose events and requests are running: the
    /// clock stale copies are kept and aged on.
    clock: SimTime,
    failed_over: bool,
    /// Master commit time per txn id (index id-1), for staleness and
    /// freshness accounting on every delivery path.
    commit_times: Vec<SimTime>,
    watches: Vec<ConvergenceRecord>,
    /// Regenerations per (site, page slot, stale-epoch): the stampede
    /// measurement — each site owns its cache, so each may take exactly
    /// one regeneration per stale epoch of a key.
    stale_regen_pairs: FxHashMap<(usize, u32, u64), u64>,
    /// Update-lineage trees in flight, by transaction.
    pending_traces: FxHashMap<TxnId, PendingTrace>,
    /// Per-hour registry snapshots, written out after the run.
    hourly_snapshots: Vec<String>,
    req_rng: DeterministicRng,
    apply_rng: DeterministicRng,
    /// Drawn only while a data-plane fault is active, so fault-free runs
    /// never touch it.
    fault_rng: DeterministicRng,
    /// Serving-plane backoff jitter, drawn only on failed-render retries.
    resilience_rng: DeterministicRng,
    /// The debug build's check of every response served.
    #[cfg(debug_assertions)]
    oracle: crate::oracle::ResponseOracle,
}

impl<'a> SimState<'a> {
    fn new(cfg: &'a ClusterConfig) -> Self {
        let mut rng = DeterministicRng::seed_from_u64(cfg.seed);
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &cfg.games);
        let registry = Arc::new(PageRegistry::build(&db, cfg.games.days));
        let model = RequestModel::new(&db, Arc::clone(&registry), cfg.scale);
        let schedule = UpdateSchedule::generate(&db, &mut rng.fork(1));
        let telemetry = Arc::new(Telemetry::new());
        let reg = &telemetry.registry;
        let counters = Counters {
            requests: reg.counter("nagano_cluster_requests_total", &[]),
            failed: reg.counter("nagano_cluster_failed_requests_total", &[]),
            applied: reg.counter("nagano_cluster_updates_applied_total", &[]),
            retries: reg.counter("nagano_cluster_retries_total", &[]),
            dropped: reg.counter("nagano_cluster_replication_dropped_total", &[]),
            catch_up: reg.counter("nagano_cluster_catch_up_txns_total", &[]),
            freshness: reg.histogram("nagano_cluster_freshness_seconds", &[], 1e-3, 600.0),
            // Wide range: a cold page's first fresh serve can trail the
            // commit by hours of simulated time.
            update_to_serve: reg.histogram(
                "nagano_cluster_update_to_serve_seconds",
                &[],
                1e-3,
                2_000_000.0,
            ),
        };
        let slo_engine = SloEngine::new(cfg.slo_rules.clone());
        // Forked in this order so the workload streams match fault-free
        // runs of earlier revisions draw for draw.
        let (req_rng, apply_rng, fault_rng, resilience_rng) =
            (rng.fork(2), rng.fork(3), rng.fork(4), rng.fork(5));
        let mut sim = SimState {
            cfg,
            complexes: complexes(cfg, &db, &registry, &telemetry),
            report: ClusterReport::empty(cfg, &telemetry),
            db,
            registry,
            model,
            schedule,
            telemetry,
            counters,
            cluster: ClusterState::new(),
            msirp: Msirp::nagano(),
            queue: EventQueue::new(),
            slo_engine,
            edge_fault: [None; 5],
            clock: SimTime::ZERO,
            failed_over: false,
            commit_times: Vec::new(),
            watches: Vec::new(),
            stale_regen_pairs: FxHashMap::default(),
            pending_traces: FxHashMap::default(),
            hourly_snapshots: Vec::new(),
            req_rng,
            apply_rng,
            fault_rng,
            resilience_rng,
            #[cfg(debug_assertions)]
            oracle: crate::oracle::ResponseOracle::new(cfg.resilience.stale_max_age_secs),
        };
        sim.seed_queue();
        sim
    }

    /// Master updates, the three plans, and the hourly flushes.
    fn seed_queue(&mut self) {
        let cfg = self.cfg;
        for (i, u) in self.schedule.updates().iter().enumerate() {
            if u.day >= cfg.start_day && u.day <= cfg.end_day {
                self.queue.schedule(u.at, SimEvent::MasterUpdate(i));
            }
        }
        for (i, f) in cfg.failure_plan.iter().enumerate() {
            self.queue.schedule(f.at, SimEvent::Failure(i));
        }
        for (i, f) in cfg.fault_plan.iter().enumerate() {
            self.queue.schedule(f.at, SimEvent::DataFault(i));
        }
        for (i, f) in cfg.serving_fault_plan.iter().enumerate() {
            self.queue.schedule(f.at, SimEvent::ServingFault(i));
        }
        if cfg.export_dir.is_some() || !self.slo_engine.is_empty() {
            let start_hour = (cfg.start_day as u64 - 1) * 24;
            let end_hour = cfg.end_day as u64 * 24;
            for hour in (start_hour + 1)..=end_hour {
                self.queue
                    .schedule(SimTime::from_hours(hour), SimEvent::TelemetryFlush);
            }
        }
    }

    // ---- data plane ---------------------------------------------------------

    fn on_master_update(&mut self, i: usize, at: SimTime) {
        let update = self.schedule.updates()[i];
        let txn = UpdateSchedule::apply(&update, &self.db, &mut self.apply_rng);
        debug_assert_eq!(txn.id.0 as usize, self.commit_times.len() + 1);
        self.commit_times.push(at);
        let mut trace = Trace::new(TraceKind::Propagation, txn.id.0);
        let root = trace.add_span("nagano_cluster_txn_receipt", txn.label.clone(), at, at);
        let pending = PendingTrace {
            trace,
            root,
            applied: 0,
            served: [false; 4],
            apply_span: [None; 4],
        };
        self.pending_traces.insert(txn.id, pending);
        // Ship over the two master-fed edges; the chained edges fan out
        // when Schaumburg applies.
        for edge in [0, 1] {
            self.ship(edge, at, &txn);
        }
    }

    /// Ship one transaction over a replication edge, applying whatever
    /// fault is active on it: schedules an [`SimEvent::EdgeDeliver`], or
    /// drops the shipment (partitioned link, lossy loss).
    fn ship(&mut self, edge: usize, at: SimTime, txn: &Arc<Transaction>) {
        let due = at + SimDuration::from_secs(REPLICATION_EDGES[edge].base_delay_secs);
        let deliver_at = match self.edge_fault[edge] {
            None => Some(due),
            Some(LinkFault::Partition) => None,
            Some(LinkFault::Lossy { drop_permille }) => {
                let lost = self.fault_rng.chance(drop_permille as f64 / 1000.0);
                (!lost).then_some(due)
            }
            Some(LinkFault::Delay { extra_secs }) => Some(due + SimDuration::from_secs(extra_secs)),
            Some(LinkFault::Reorder { jitter_secs }) => {
                let jitter = self.fault_rng.index(jitter_secs as usize + 1) as u64;
                Some(due + SimDuration::from_secs(jitter))
            }
        };
        let Some(deliver_at) = deliver_at else {
            self.report.replication_dropped += 1;
            return self.counters.dropped.incr();
        };
        let deliver = SimEvent::EdgeDeliver(edge, Arc::clone(txn));
        self.queue.schedule(deliver_at, deliver);
    }

    fn on_edge_deliver(&mut self, edge: usize, txn: &Arc<Transaction>, at: SimTime) {
        let s = REPLICATION_EDGES[edge].to;
        match self.complexes[s].replica.deliver(txn) {
            DeliverOutcome::Applied => {
                self.report.updates_applied += 1;
                self.counters.applied.incr();
                self.process_log(s, at, Via::Stream);
                // Schaumburg ships on to its chained sites.
                if s == 0 {
                    for chained in [2, 3] {
                        self.ship(chained, at, txn);
                    }
                }
            }
            DeliverOutcome::Duplicate => self.report.replication_duplicates += 1,
            // A message ahead of the watermark arrived: something before
            // it was lost or reordered. Pull the gap shortly (one pull
            // covers any number of gap signals).
            DeliverOutcome::Gap { .. } => {
                let c = &self.complexes[s];
                if !c.catchup_pending && !c.gave_up {
                    self.schedule_pull(s, at + SimDuration::from_secs(1));
                }
            }
        }
    }

    fn schedule_pull(&mut self, s: usize, at: SimTime) {
        self.complexes[s].catchup_pending = true;
        self.queue.schedule(at, SimEvent::CatchUp(s));
    }

    /// The edge `s` pulls over: its primary feed, or the DR re-feed
    /// while Schaumburg is failed over.
    fn feed_edge(&self, s: usize) -> usize {
        if s == 0 && self.failed_over {
            DR_EDGE
        } else {
            PRIMARY_FEED[s]
        }
    }

    /// The log a pull over `edge` reads: the master's, or the feeding
    /// site's replica.
    fn feed_log(&self, edge: usize) -> &TxnLog {
        match REPLICATION_EDGES[edge].from {
            None => self.db.log(),
            Some(site) => &self.complexes[site].replica,
        }
    }

    /// While `s`'s monitor is up, process its replica past the monitor's
    /// watermark as one batch at `at`, and book it as arrived `via`; the
    /// one way a transaction reaches a monitor. Returns what it processed.
    fn process_log(&mut self, s: usize, at: SimTime, via: Via) -> Vec<Arc<Transaction>> {
        let c = &mut self.complexes[s];
        if !c.monitor_up {
            return Vec::new();
        }
        let txns = c.replica.since(TxnId(c.monitor.trigger().watermark()));
        let processed = c.monitor.process_batch(&txns, at);
        self.record_apply(s, &txns, &processed, at, via);
        txns
    }

    fn on_catch_up(&mut self, s: usize, at: SimTime) {
        self.complexes[s].catchup_pending = false;
        let mut edge = self.feed_edge(s);
        let partitioned = |fault: Option<LinkFault>| matches!(fault, Some(LinkFault::Partition));
        // A partitioned primary Schaumburg feed triggers the paper's
        // disaster-recovery path: re-feed from Tokyo's replica.
        if s == 0
            && !self.failed_over
            && partitioned(self.edge_fault[edge])
            && !partitioned(self.edge_fault[DR_EDGE])
        {
            self.failed_over = true;
            edge = DR_EDGE;
        }
        let fault = self.edge_fault[edge];
        let attempt_fails = match fault {
            Some(LinkFault::Partition) => true,
            Some(LinkFault::Lossy { drop_permille }) => {
                self.fault_rng.chance(drop_permille as f64 / 1000.0)
            }
            _ => false,
        };
        if attempt_fails {
            self.report.retries += 1;
            self.counters.retries.incr();
            let c = &mut self.complexes[s];
            c.catchup_attempts += 1;
            if c.catchup_attempts <= MAX_CATCHUP_RETRIES {
                let backoff = CATCHUP_BASE_BACKOFF_SECS << (c.catchup_attempts - 1).min(6);
                self.schedule_pull(s, at + SimDuration::from_secs(backoff));
            } else {
                // Quiesce until the link heals; the heal entry
                // reschedules the pull.
                c.gave_up = true;
            }
            return;
        }
        let c = &mut self.complexes[s];
        c.catchup_attempts = 0;
        c.gave_up = false;
        // The pull pays the edge's base transfer delay (plus any injected
        // extra latency) — catching up is replication, not teleportation.
        let mut pull_secs = REPLICATION_EDGES[edge].base_delay_secs;
        if let Some(LinkFault::Delay { extra_secs }) = fault {
            pull_secs += extra_secs;
        }
        let applied_at = at + SimDuration::from_secs(pull_secs);
        let missed = self.complexes[s].replica.catch_up(self.feed_log(edge));
        if missed.is_empty() {
            return;
        }
        let pulled = missed.len() as u64;
        self.report.updates_applied += pulled;
        self.counters.applied.add(pulled);
        self.report.catch_up_applied += pulled;
        self.counters.catch_up.add(pulled);
        self.record_staleness(s, &missed, applied_at);
        // One DUP propagation over the union of the pulled transactions.
        self.process_log(s, applied_at, Via::CatchUp);
        if s == 0 {
            for txn in &missed {
                for chained in [2, 3] {
                    self.ship(chained, applied_at, txn);
                }
            }
        }
    }

    fn on_data_fault(&mut self, i: usize, at: SimTime) {
        let entry = self.cfg.fault_plan[i];
        match entry.kind {
            DataFaultKind::Link { edge, fault } if !entry.up => self.edge_fault[edge] = Some(fault),
            DataFaultKind::Link { edge, fault } => {
                self.edge_fault[edge] = None;
                if edge == 0 {
                    self.failed_over = false;
                }
                let s = REPLICATION_EDGES[edge].to;
                let c = &mut self.complexes[s];
                c.gave_up = false;
                c.catchup_attempts = 0;
                if !c.catchup_pending {
                    self.schedule_pull(s, at + SimDuration::from_secs(1));
                }
                let label = format!("{} {:?}", REPLICATION_EDGES[edge].name, fault);
                self.watch(label, s, at);
            }
            DataFaultKind::MonitorCrash { site } if !entry.up => {
                self.complexes[site].monitor_up = false;
            }
            DataFaultKind::MonitorCrash { site } => {
                // Restart: the monitor reads the replica past its watermark
                // through DUP, so no stale page survives recovery. The
                // replica already held that tail (distribution went on
                // while the monitor was down).
                let c = &mut self.complexes[site];
                c.monitor_up = true;
                c.monitor.trigger().stats().record_recovery();
                let missed = self.process_log(site, at, Via::Recovery);
                self.report.recoveries += 1;
                self.record_staleness(site, &missed, at);
                self.watch(format!("monitor-crash {}", SITES[site].name), site, at);
            }
        }
    }

    /// Open a convergence watch for `site`, healed at `at`.
    fn watch(&mut self, label: String, site: usize, at: SimTime) {
        self.watches.push(ConvergenceRecord {
            label,
            site,
            healed_at: at,
            converged_at: None,
        });
    }

    /// Book the DUP pass that applied `txns` at site `s` at `at`: apply
    /// clock, the day's regenerations, the stale copies its invalidations
    /// left, each traced transaction's lineage branch, the pages whose
    /// first fresh serve closes it (claimed by the newest transaction),
    /// and a streamed one's freshness sample.
    fn record_apply(
        &mut self,
        s: usize,
        txns: &[Arc<Transaction>],
        (outcome, deferred): &Processed,
        at: SimTime,
        via: Via,
    ) {
        let complex = &mut self.complexes[s];
        complex.last_apply_minute = at.minute_index() as i64;
        // A recovery with nothing past the watermark processed nothing.
        if !txns.is_empty() {
            let secs = trigger_latency(outcome).as_micros() as f64 / 1e6;
            complex.trigger_latency.record(secs);
        }
        let day_idx = at.day().min(self.cfg.end_day) as usize - 1;
        self.report.regen_per_day[day_idx] += outcome.regenerated.len() as u64;
        // Aged on the run loop's minute, not on a catch-up's later `at`.
        for (slot, body) in &outcome.removed {
            complex.tombstones.keep(*slot, body.clone(), self.clock);
            #[cfg(debug_assertions)]
            self.oracle.removed(s, *slot, body, self.clock);
        }
        supersede(
            &mut complex.tombstones,
            &self.registry,
            &outcome.regenerated,
        );
        #[cfg(debug_assertions)]
        self.oracle
            .refreshed(s, &self.registry, &outcome.regenerated);
        let mut applied_at = at;
        if let Via::Stream = via {
            // Visible-latency model: replication delay (already elapsed
            // at `at`) plus regeneration spread over the SMP's render
            // workers (DESIGN.md §6).
            let cache = complex.monitor.trigger().cache();
            let space = self.registry.space();
            let held = outcome
                .regenerated
                .iter()
                .filter_map(|&k| space.slot(k))
                .filter(|&slot| cache.contains(slot))
                .count();
            applied_at = at + SimDuration::from_secs_f64(held as f64 * 150.0 / 8.0 / 1_000.0);
            let visible = (applied_at - self.commit_times[txns[0].id.0 as usize - 1]).as_secs_f64();
            self.report.freshness.push(visible);
            self.counters.freshness.record(visible);
            self.report.freshness_max = self.report.freshness_max.max(visible);
        }
        let site = SITES[s].name;
        let hybrid = matches!(self.cfg.policy, ConsistencyPolicy::Hybrid(_));
        for txn in txns {
            let Some(p) = self.pending_traces.get_mut(&txn.id) else {
                continue;
            };
            let commit_at = self.commit_times[txn.id.0 as usize - 1];
            let t = &mut p.trace;
            let apply = match via {
                Via::Stream => {
                    let label = format!("site={site}");
                    let dist =
                        t.add_child(p.root, "nagano_cluster_distribute", label, commit_at, at);
                    let visited = format!("site={site} visited={}", outcome.visited);
                    let odg = t.add_child(dist, "nagano_odg_traversal", visited, at, at);
                    let counts = format!(
                        "site={site} regenerated={} invalidated={} tolerated={}",
                        outcome.regenerated.len(),
                        outcome.invalidated.len(),
                        outcome.tolerated.len()
                    );
                    let apply = t.add_child(odg, "nagano_cache_apply", counts, at, applied_at);
                    if hybrid {
                        hybrid_spans(t, apply, site, outcome, deferred.len(), at);
                    }
                    apply
                }
                Via::CatchUp => {
                    let label = format!("site={site} via=catch-up");
                    let dist =
                        t.add_child(p.root, "nagano_cluster_distribute", &label, commit_at, at);
                    t.add_child(dist, "nagano_cache_apply", label, at, at)
                }
                Via::Recovery => {
                    let label = format!("site={site} via=recovery");
                    let odg = t.add_child(p.root, "nagano_odg_traversal", &label, at, at);
                    t.add_child(odg, "nagano_cache_apply", label, at, at)
                }
            };
            p.apply_span[s] = Some(apply);
            p.applied += 1;
        }
        if let Some(last) = txns.last() {
            if self.pending_traces.contains_key(&last.id) {
                for &k in outcome.regenerated.iter().chain(&outcome.invalidated) {
                    complex.fresh_waiting.insert(k, last.id);
                }
            }
        }
    }

    /// Staleness under failure: commit → `at` for transactions that
    /// reached site `s` by catch-up or recovery rather than streaming.
    fn record_staleness(&mut self, s: usize, txns: &[Arc<Transaction>], at: SimTime) {
        for txn in txns {
            let staleness = (at - self.commit_times[txn.id.0 as usize - 1]).as_secs_f64();
            self.report.staleness_hist.record(staleness);
            self.complexes[s].staleness.record(staleness);
            self.report.staleness_max = self.report.staleness_max.max(staleness);
        }
    }

    // ---- serving plane ------------------------------------------------------

    fn on_serving_fault(&mut self, i: usize) {
        let entry = self.cfg.serving_fault_plan[i];
        match entry.kind {
            ServingFaultKind::RenderSlowdown { site, factor } => {
                self.complexes[site].slowdown = if entry.up { 1.0 } else { factor };
            }
            ServingFaultKind::BackendOutage { site } => {
                self.complexes[site].backend_down = !entry.up;
            }
            ServingFaultKind::CacheShardCrash { site, .. } => {
                // Cold restart: live entries, stale copies, and coalescing
                // state all vanish — the stampede window single-flight
                // flattens.
                let c = &mut self.complexes[site];
                c.monitor.trigger().cache().clear();
                c.tombstones.clear();
                c.inflight.clear();
                #[cfg(debug_assertions)]
                self.oracle.crashed(site);
            }
        }
    }

    fn on_telemetry_flush(&mut self, at: SimTime) {
        let hour = at.minute_index() / 60;
        self.slo_engine.observe_hour(hour, &self.telemetry.registry);
        if self.cfg.export_dir.is_some() {
            self.hourly_snapshots.push(format!(
                "{{\"hour\":{hour},\"snapshot\":{}}}",
                json_snapshot(&self.telemetry.registry)
            ));
        }
    }

    /// The per-minute heartbeat, run during the settle tail too so that
    /// deferred work and catch-up pulls cannot be stranded.
    fn heartbeat(&mut self, minute: u64, minute_end: SimTime) {
        for s in 0..self.complexes.len() {
            let c = &mut self.complexes[s];
            // Hotness: fold the minute's answered requests into each
            // monitor's EWMA, then give the Hybrid deferred queue a
            // budgeted drain slice (no-op under other policies).
            c.monitor.fold_hotness(minute);
            if c.monitor_up {
                let drained = c.monitor.drain_deferred(minute_end);
                supersede(&mut c.tombstones, &self.registry, &drained);
                #[cfg(debug_assertions)]
                self.oracle.refreshed(s, &self.registry, &drained);
                if !drained.is_empty() {
                    let day_idx = minute_end.day().min(self.cfg.end_day) as usize - 1;
                    self.report.regen_per_day[day_idx] += drained.len() as u64;
                    c.last_apply_minute = minute_end.minute_index() as i64;
                }
            }
        }
        // Data plane: refresh lag gauges, schedule catch-up pulls across
        // faulted feeds (and across the DR re-feed while failed over — it
        // is pull-only, nothing streams on it), and close convergence
        // watches.
        let master_len = self.db.log().len() as u64;
        for (s, site) in SITES.iter().enumerate() {
            let feed = self.feed_edge(s);
            let c = &self.complexes[s];
            // Every batch the replica took while the monitor was up, the
            // monitor processed there and then.
            debug_assert!(
                !c.monitor_up || c.monitor.trigger().watermark() == c.replica.len() as u64,
                "{}'s monitor is behind its replica",
                site.name
            );
            c.lag.set(master_len - c.replica.len() as u64);
            let behind = self.feed_log(feed).len() > c.replica.len();
            let pull_needed = (s == 0 && self.failed_over) || self.edge_fault[feed].is_some();
            if behind && pull_needed && !c.catchup_pending && !c.gave_up {
                self.schedule_pull(s, minute_end);
            }
        }
        for w in self.watches.iter_mut().filter(|w| w.converged_at.is_none()) {
            let c = &self.complexes[w.site];
            let applied = c.replica.len() as u64;
            if c.monitor_up && applied == master_len && c.monitor.trigger().watermark() == applied {
                w.converged_at = Some(minute_end);
            }
        }
    }

    /// This minute's client requests, all issued at its midpoint.
    fn client_minute(&mut self, minute: u64) {
        let t_mid = SimTime::from_mins(minute) + SimDuration::from_secs(30);
        let count = self.model.sample_minute_count(t_mid, &mut self.req_rng);
        for _ in 0..count {
            self.request(minute, t_mid);
        }
    }

    /// Route, dispatch and serve one client request, and account for it.
    fn request(&mut self, minute: u64, t_mid: SimTime) {
        self.report.total_requests += 1;
        self.counters.requests.incr();
        // Deterministic 1-in-N sampling keeps the serving-trace ring
        // representative without recording every request.
        let sampled = self.report.total_requests % SERVING_TRACE_SAMPLE == 1;
        let mut trace = sampled.then(|| Trace::new(TraceKind::Serving, self.report.total_requests));
        let sample = self.model.sample_request(t_mid, &mut self.req_rng);
        *self.report.by_region.entry(sample.region).or_insert(0) += 1;
        let addr = self.cluster.next_dns_address();
        let adverts = self.cluster.adverts(&self.msirp, addr);
        let RouteDecision::Site(site) = self.msirp.route(sample.region, addr, &adverts) else {
            if let Some(t) = trace.as_mut() {
                t.span_with("nagano_cluster_route", "no-site", t_mid, t_mid);
            }
            return self.fail(None, trace);
        };
        let s = site.0;
        let route = trace.as_mut().map(|t| {
            let label = format!("region={} site={}", sample.region.label(), SITES[s].name);
            t.add_span("nagano_cluster_route", label, t_mid, t_mid)
        });
        // Dispatcher picks a node (advisors skip dead ones); with a single
        // logical cache per site the node only matters for load
        // accounting.
        if self.cluster.site_mut(site).pick_node().is_none() {
            return self.fail(Some(s), trace);
        }
        // The request model samples pages of the site, each with a slot.
        let slot = self.registry.space().slot(sample.page);
        let served = slot.and_then(|slot| self.serve_request(s, sample.page, slot, t_mid));
        let Some((bytes, mut server_ms, cache_hit)) = served else {
            // Backend down, breaker open or retries exhausted, and no
            // stale copy within its age bound: the 503 path.
            if let (Some(t), Some(route)) = (trace.as_mut(), route) {
                let lookup = t.add_child(route, "nagano_cache_lookup", "miss", t_mid, t_mid);
                let render = "nagano_pagegen_render";
                t.add_child(lookup, render, "backend-down", t_mid, t_mid);
            }
            return self.fail(Some(s), trace);
        };
        // §2: in the 1996 design the serving processors also ran the
        // updates, so service slows in the minutes around an apply
        // (regeneration competes for the same CPUs).
        let since_apply = (minute as i64).saturating_sub(self.complexes[s].last_apply_minute);
        let near_update = since_apply.unsigned_abs() <= 2;
        if self.cfg.updates_on_serving_nodes && near_update {
            server_ms = server_ms * 8.0 + 150.0;
        }
        if near_update {
            self.report.service_near_updates.push(server_ms);
        } else {
            self.report.service_away_from_updates.push(server_ms);
        }
        self.report.serve_latency.record(server_ms / 1_000.0);
        self.report.per_minute.incr(t_mid);
        self.report.per_site_minute[s].incr(t_mid);
        let day = t_mid.day();
        self.report.bytes_per_day[day.min(self.cfg.end_day) as usize - 1] += bytes as f64;
        self.complexes[s].httpd.observe(200, bytes);
        self.close_lineage(s, sample.page, t_mid);
        if let (Some(mut t), Some(route)) = (trace, route) {
            let done = t_mid + SimDuration::from_secs_f64(server_ms / 1_000.0);
            let lookup_label = if cache_hit { "hit" } else { "miss" };
            let lookup = t.add_child(route, "nagano_cache_lookup", lookup_label, t_mid, t_mid);
            let render = format!("url={} bytes={bytes}", sample.page);
            t.add_child(lookup, "nagano_pagegen_render", render, t_mid, done);
            self.telemetry.serving.push(t);
        }
        // Response-time sampling: the paper's Figure 22 methodology
        // (28.8 kbps modem fetching the current home page). Its days 7–9
        // anomaly was "caused by problems external to the site": US paths
        // congested, by this factor, over those days.
        const US_CONGESTION: (u32, u32, f64) = (7, 9, 1.45);
        if sample.link == LinkClass::Modem28_8 && matches!(sample.page, PageKey::Home(_)) {
            let mut link = LinkModel::new(LinkClass::Modem28_8);
            let (c_lo, c_hi, factor) = US_CONGESTION;
            let is_us = matches!(sample.region, Region::UsEast | Region::UsWest);
            if is_us && (c_lo..=c_hi).contains(&day) {
                link = link.with_congestion(factor);
            }
            let server = SimDuration::from_secs_f64(
                (server_ms + region_latency_ms(sample.region, site)) / 1_000.0,
            );
            let est = link.sample(bytes, server, &mut self.req_rng);
            let by_day = self
                .report
                .response_by_day_region
                .entry((day, sample.region));
            by_day.or_default().push(est.response_secs);
            self.report.modem_responses.record(est.response_secs);
        }
    }

    /// Count a request no complex served, with a 503 at site `s`'s front
    /// end when it got that far.
    fn fail(&mut self, s: Option<usize>, trace: Option<Trace>) {
        self.report.failed_requests += 1;
        self.counters.failed.incr();
        if let Some(s) = s {
            self.complexes[s].httpd.observe(503, 0);
        }
        if let Some(trace) = trace {
            self.telemetry.serving.push(trace);
        }
    }

    /// Serve `page` at complex `s` at sim time `t` — the DES driver of
    /// [`nagano::serve`]: observe the cache, the flight map, the breaker
    /// and the backend, ask the table, and carry out its answer. `None`
    /// is a 503. Every response is counted by the decision that answered
    /// it, and a stale copy by its age; a debug build checks each one
    /// against the contract (`crate::oracle`).
    fn serve_request(&mut self, s: usize, page: PageKey, slot: u32, t: SimTime) -> Option<Served> {
        let c = &mut self.complexes[s];
        let cache = Arc::clone(c.monitor.trigger().cache());
        let cached = cache.get(slot);
        c.monitor.observe_request(page, t, cached.is_some());
        if cached.is_none() {
            // A demand fill caches its body at once and keeps the flight
            // open for as long as the render takes: with the body gone,
            // so is the flight.
            c.inflight.remove(&slot);
        }
        let lands_in = c.inflight.get(&slot).filter(|&&done| done > t);
        let lands_in = lands_in.map(|&done| (done - t).as_secs_f64());
        if lands_in.is_some() {
            cache.stats_handle().coalesce();
        }
        let stale = c.tombstones.get(slot, self.clock).cloned();
        let observed = Observation {
            fresh: cached.is_some(),
            flight: lands_in,
            tombstone: stale.is_some(),
            breaker_admits: c.breaker.allow(t.as_secs_f64()),
            backend_reachable: !c.backend_down,
            budget_secs: self.cfg.resilience.request_budget_secs,
        };
        let wait_ms = lands_in.unwrap_or(0.0) * 1_000.0;
        let fresh = |ms: f64, hit: bool| {
            let page = cached.clone()?;
            let (body, version) = (page.body, page.version);
            Some(Answer::Fresh {
                body,
                version,
                ms,
                hit,
            })
        };
        let (decision, render, answer) = match serve::decide(&observed) {
            Decision::Hit => (Decision::Hit, None, fresh(0.5, true)),
            Decision::Join => (Decision::Join, None, fresh(0.5 + wait_ms, false)),
            Decision::ServeStale => {
                let answer = stale.map(|copy| Answer::Stale { copy, ms: 0.5 });
                (Decision::ServeStale, None, answer)
            }
            Decision::Fill => self.fill(s, page, slot, t, stale),
            Decision::Fail => (Decision::Fail, None, None),
        };
        self.report.responses.count(decision);
        if let Some(Answer::Stale { copy, .. }) = &answer {
            self.complexes[s].stale_served.incr();
            let age_secs = copy.age_secs(self.clock);
            self.report.stale_age_max_secs = self.report.stale_age_max_secs.max(age_secs);
        }
        #[cfg(debug_assertions)]
        self.oracle
            .served(s, slot, self.clock, &observed, render, answer.as_ref());
        #[cfg(not(debug_assertions))]
        let _ = render;
        answer.map(Answer::served)
    }

    /// Render `page` for a request at complex `s`: a demand fill that
    /// opens a flight for its (slowdown-stretched) modelled cost, or —
    /// the backend being down — a failed attempt and its bounded, seeded
    /// retries. [`serve::after_render`] says what the request gets; the
    /// last render it was asked about is returned beside its answer.
    fn fill(
        &mut self,
        s: usize,
        page: PageKey,
        slot: u32,
        t: SimTime,
        stale: Option<Tombstone>,
    ) -> (Decision, Option<Render>, Option<Answer>) {
        let (now, tombstone) = (t.as_secs_f64(), stale.is_some());
        let res = &self.cfg.resilience;
        let budget = res.request_budget_secs;
        let c = &mut self.complexes[s];
        if c.backend_down {
            let (base, max) = (res.retry_base_secs, res.retry_max_secs);
            let mut backoff = RetryBackoff::new(base, max, res.retry_max_attempts);
            c.breaker.record_failure(now);
            // The lookup's 0.5 ms, then 5 ms an attempt.
            let mut latency_ms = 5.5;
            loop {
                let render = Render::Failed {
                    retries_left: backoff.remaining() > 0,
                };
                match serve::after_render(render, tombstone, budget) {
                    Decision::Fill => {
                        let delay = backoff.next_delay(&mut self.resilience_rng);
                        c.breaker.record_failure(now);
                        self.report.render_retries += 1;
                        latency_ms += 5.0 + delay.expect("an attempt is left") * 1_000.0;
                    }
                    Decision::ServeStale => {
                        let answer = stale.map(|copy| Answer::Stale {
                            copy,
                            ms: latency_ms,
                        });
                        return (Decision::ServeStale, Some(render), answer);
                    }
                    decision => return (decision, Some(render), None),
                }
            }
        }
        let out = c.monitor.demand_fill(page);
        c.tombstones.supersede(slot);
        self.report.demand_fills += 1;
        c.breaker.record_success();
        if let Some(copy) = &stale {
            self.report.stale_regens += 1;
            let epoch = (s, slot, copy.epoch);
            *self.stale_regen_pairs.entry(epoch).or_insert(0) += 1;
        }
        let cost_ms = out.cost_ms * c.slowdown;
        let secs = cost_ms / 1_000.0;
        let lands = t + SimDuration::from_secs_f64(secs);
        c.inflight.insert(slot, lands);
        let render = Render::Done { secs };
        match (serve::after_render(render, tombstone, budget), stale) {
            (Decision::ServeStale, Some(copy)) => {
                let answer = Answer::Stale { copy, ms: 0.5 };
                (Decision::ServeStale, Some(render), Some(answer))
            }
            _ => {
                let answer = Answer::Fresh {
                    body: out.body,
                    version: out.version,
                    ms: cost_ms,
                    hit: false,
                };
                (Decision::Fill, Some(render), Some(answer))
            }
        }
    }

    /// Update-lineage leaf: the first request that serves one of an
    /// update's refreshed pages closes that site's branch of the
    /// propagation tree, and the commit → serve gap is the end-to-end
    /// freshness sample. Requests are generated at the minute midpoint,
    /// so a request can precede an apply recorded later in the same
    /// minute — leave the entry for the next request in that case.
    fn close_lineage(&mut self, s: usize, page: PageKey, t: SimTime) {
        let waiting = &mut self.complexes[s].fresh_waiting;
        let Some(&txn_id) = waiting.get(&page) else {
            return;
        };
        let pending = self.pending_traces.get_mut(&txn_id);
        let Some(p) = pending.filter(|p| !p.served[s]) else {
            // The owning trace already served this site through another
            // page (or completed): the claim is stale.
            waiting.remove(&page);
            return;
        };
        let apply = p.apply_span[s].unwrap_or(p.root);
        let apply_end = p.trace.spans[apply].end;
        if t < apply_end {
            return;
        }
        waiting.remove(&page);
        p.served[s] = true;
        let commit_at = self.commit_times[txn_id.0 as usize - 1];
        let label = format!("site={} url={page}", SITES[s].name);
        let leaf = "nagano_cache_first_fresh_hit";
        p.trace.add_child(apply, leaf, label, apply_end, t);
        let update_to_serve = (t - commit_at).as_secs_f64();
        self.counters.update_to_serve.record(update_to_serve);
        if p.applied == SITES.len() && p.served.iter().all(|&done| done) {
            let p = self.pending_traces.remove(&txn_id).expect("pending trace");
            self.telemetry.propagation.push(p.trace);
        }
    }

    // ---- end of run ---------------------------------------------------------

    fn finish(mut self) -> ClusterReport {
        // Updates still awaiting an apply or a serve at the horizon flush
        // as-is, in transaction order, so same-seed runs export identical
        // trace sets.
        let mut unfinished: Vec<_> = self.pending_traces.drain().collect();
        unfinished.sort_by_key(|(id, _)| id.0);
        for (_, p) in unfinished {
            self.telemetry.propagation.push(p.trace);
        }
        let report = &mut self.report;
        for c in &self.complexes {
            report.cache += c.monitor.trigger().cache().stats();
            report.stale_served += c.stale_served.get();
            let s = c.monitor.trigger().stats().snapshot();
            report.regen_cpu_ms += s.regen_cpu_ms;
            report.regen_saved_ms += s.regen_saved_ms;
            let (samples, sum_secs) = c.monitor.weighted_staleness();
            report.weighted_staleness_sum_secs += sum_secs;
            report.weighted_staleness_samples += samples;
        }
        report.stale_regen_keys = self.stale_regen_pairs.len() as u64;
        report.breaker_trips = self.complexes.iter().map(|c| c.breaker.trips()).sum();
        report.freshness_hist = self.counters.freshness.snapshot();
        report.update_to_serve = self.counters.update_to_serve.snapshot();
        report.slo = self.slo_engine.finish(&self.telemetry.registry);
        report.master_txns = self.db.log().len() as u64;
        for (s, c) in self.complexes.iter().enumerate() {
            report.site_watermarks[s] = c.replica.len() as u64;
            report.monitor_watermarks[s] = c.monitor.trigger().watermark();
        }
        report.convergence = std::mem::take(&mut self.watches);
        if self.cfg.audit_convergence {
            self.report.stale_pages = Some(self.audit());
        }
        if let Some(dir) = &self.cfg.export_dir {
            self.export(dir);
        }
        self.report
    }

    /// Prove cache convergence the hard way: re-render every registry
    /// page and compare bodies against each site's cache. An absent entry
    /// is safe (invalidate policy, eviction, cold); a *mismatching* body
    /// is a stale page.
    fn audit(&self) -> u64 {
        let renderer = Renderer::new(Arc::clone(&self.db));
        let mut stale = 0u64;
        let space = self.registry.space();
        for (key, _) in self.registry.pages() {
            let fresh = renderer.render(*key);
            let Some(slot) = space.slot(*key) else {
                continue;
            };
            for c in &self.complexes {
                if let Some(cached) = c.monitor.trigger().cache().peek(slot) {
                    if cached.body != fresh.body {
                        stale += 1;
                    }
                }
            }
        }
        stale
    }

    /// Write the final exports. Failures (read-only fs, missing parents)
    /// must not invalidate a completed multi-minute simulation; the report
    /// itself still carries the full telemetry.
    fn export(&self, dir: &Path) {
        let registry = &self.telemetry.registry;
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join("metrics.prom"), prometheus_text(registry));
        let _ = std::fs::write(dir.join("metrics.json"), json_snapshot(registry));
        let mut lines = self.hourly_snapshots.join("\n");
        lines.push('\n');
        let _ = std::fs::write(dir.join("telemetry_hourly.jsonl"), lines);
        let mut traces = String::new();
        let (propagation, serving) = (
            self.telemetry.propagation.traces(),
            self.telemetry.serving.traces(),
        );
        for t in propagation.iter().chain(serving.iter()) {
            traces.push_str(&t.to_json());
            traces.push('\n');
        }
        let _ = std::fs::write(dir.join("traces.jsonl"), traces);
        let _ = std::fs::write(dir.join("slo.json"), slo_json(&self.report.slo));
    }
}

/// The pages in `keys` were regenerated: a fresh body supersedes each
/// one's stale copy.
fn supersede(tombstones: &mut Tombstones, registry: &PageRegistry, keys: &[PageKey]) {
    for &key in keys {
        if let Some(slot) = registry.space().slot(key) {
            tombstones.supersede(slot);
        }
    }
}

/// Modelled trigger-monitor service time of one processed batch: a
/// propagation visit per ODG node, an invalidation message per dropped
/// page, and the regeneration CPU spread over the SMP's render workers.
/// Calibrated to the paper's trigger-monitor throughput figures; a pure
/// function of the work done, so same-seed runs export identical
/// `nagano_trigger_latency_seconds` distributions.
fn trigger_latency(outcome: &TxnOutcome) -> SimDuration {
    const VISIT_COST_US: u64 = 20;
    const INVALIDATE_COST_US: u64 = 50;
    const RENDER_WORKERS: u64 = 8;
    let render_us = (outcome.render_ms * 1_000.0 / RENDER_WORKERS as f64).round() as u64;
    let invalidated = outcome.invalidated.len() as u64;
    SimDuration::from_micros(
        outcome.visited as u64 * VISIT_COST_US + invalidated * INVALIDATE_COST_US + render_us,
    )
}

/// The Hybrid scheduler's children of a streamed apply span: the
/// hot/cold ranking, and the `deferred` pages it parked.
fn hybrid_spans(
    t: &mut Trace,
    apply: usize,
    site: &str,
    outcome: &TxnOutcome,
    deferred: usize,
    at: SimTime,
) {
    let hot = outcome.regenerated.len() + deferred;
    let rank = format!("site={site} hot={hot} cold={}", outcome.invalidated.len());
    t.add_child(apply, "nagano_trigger_rank", rank, at, at);
    if deferred > 0 {
        let pages = format!("site={site} pages={deferred}");
        t.add_child(apply, "nagano_trigger_defer", pages, at, at);
    }
}

/// The four complexes in site order: a trigger monitor over one cache
/// each — the complex's serving nodes, modelled as one — its cells bound into the registry under a `site`
/// label, and an empty replica, which only the simulated links fill, so
/// that those decide which transactions arrive (and when).
fn complexes(
    cfg: &ClusterConfig,
    db: &Arc<OlympicDb>,
    registry: &Arc<PageRegistry>,
    telemetry: &Telemetry,
) -> Vec<Complex> {
    let reg = &telemetry.registry;
    SITES
        .iter()
        .map(|spec| {
            let labels = [("site", spec.name)];
            let monitor = SiteMonitor::new(
                cfg.policy,
                Renderer::new(Arc::clone(db)),
                Arc::new(PageCache::default()),
                Arc::clone(registry),
            );
            monitor.trigger().prewarm();
            monitor.bind(reg, &labels);
            monitor.trigger().cache().stats_handle().bind(reg, &labels);
            let stale_served = reg.counter("nagano_cache_stale_served_total", &labels);
            let httpd = HttpdMetrics::new();
            httpd.bind(reg, &labels);
            let staleness = "nagano_cluster_staleness_seconds";
            let trigger_latency = "nagano_trigger_latency_seconds";
            Complex {
                monitor,
                httpd,
                replica: TxnLog::new(),
                lag: reg.gauge("nagano_cluster_replication_lag_txns", &labels),
                staleness: reg.histogram(staleness, &labels, 1e-3, 100_000.0),
                trigger_latency: reg.histogram(trigger_latency, &labels, 1e-6, 600.0),
                monitor_up: true,
                catchup_pending: false,
                catchup_attempts: 0,
                gave_up: false,
                last_apply_minute: i64::MIN,
                slowdown: 1.0,
                backend_down: false,
                breaker: CircuitBreaker::new(cfg.resilience.breaker),
                tombstones: Tombstones::new(cfg.resilience.stale_max_age_secs),
                stale_served,
                inflight: FxHashMap::default(),
                fresh_waiting: FxHashMap::default(),
            }
        })
        .collect()
}

/// The simulation driver.
pub struct ClusterSim {
    config: ClusterConfig,
}

impl ClusterSim {
    /// New simulation with `config`.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.start_day >= 1 && config.end_day >= config.start_day);
        ClusterSim { config }
    }

    /// Run to completion: minute by minute, drain the events due, beat
    /// the heart, and serve the minute's client requests.
    pub fn run(&self) -> ClusterReport {
        let cfg = &self.config;
        let mut sim = SimState::new(cfg);
        let start_min = (cfg.start_day as u64 - 1) * 1440;
        let end_min = cfg.end_day as u64 * 1440;
        for minute in start_min..end_min + SETTLE_MINUTES {
            let minute_end = SimTime::from_mins(minute + 1);
            sim.clock = SimTime::from_mins(minute);
            while let Some((at, ev)) = sim.queue.pop_before(minute_end) {
                match ev {
                    SimEvent::MasterUpdate(i) => sim.on_master_update(i, at),
                    SimEvent::EdgeDeliver(edge, txn) => sim.on_edge_deliver(edge, &txn, at),
                    SimEvent::CatchUp(s) => sim.on_catch_up(s, at),
                    SimEvent::Failure(i) => {
                        let entry = cfg.failure_plan[i];
                        sim.cluster.apply(entry.kind, entry.up);
                    }
                    SimEvent::DataFault(i) => sim.on_data_fault(i, at),
                    SimEvent::ServingFault(i) => sim.on_serving_fault(i),
                    SimEvent::TelemetryFlush => sim.on_telemetry_flush(at),
                }
            }
            sim.heartbeat(minute, minute_end);
            // The settle tail has no client traffic past the horizon.
            if minute < end_min {
                sim.client_minute(minute);
            }
        }
        sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TOKYO;

    /// Small, fast configuration: two days at heavy scale-down.
    fn quick_config() -> ClusterConfig {
        ClusterConfig {
            scale: 20_000.0,
            seed: 42,
            games: GamesConfig::small(),
            start_day: 2,
            end_day: 3,
            ..Default::default()
        }
    }

    /// Like [`quick_config`] but over days 10–11, where the small Games
    /// schedule is update-dense (≈10 master txns/day) — fault windows on
    /// day 10 morning are guaranteed to intersect real update traffic.
    fn fault_config() -> ClusterConfig {
        ClusterConfig {
            start_day: 10,
            end_day: 11,
            ..quick_config()
        }
    }

    #[test]
    fn quick_run_serves_everything_with_high_hit_rate() {
        let report = ClusterSim::new(quick_config()).run();
        assert!(report.total_requests > 1_000, "{}", report.total_requests);
        assert_eq!(report.failed_requests, 0);
        assert_eq!(report.availability(), 1.0);
        // Update-in-place: hit rate near 100%.
        assert!(report.hit_rate() > 0.99, "hit rate {}", report.hit_rate());
        assert!(report.updates_applied > 0);
        assert!(report.cache.updates > 0, "pages updated in place");
    }

    #[test]
    fn invalidate_policy_lowers_hit_rate() {
        let mut cfg = quick_config();
        cfg.policy = ConsistencyPolicy::Invalidate;
        let inv = ClusterSim::new(cfg).run();
        let upd = ClusterSim::new(quick_config()).run();
        assert!(
            inv.hit_rate() < upd.hit_rate(),
            "invalidate {} vs update {}",
            inv.hit_rate(),
            upd.hit_rate()
        );
    }

    #[test]
    fn conservative_policy_is_much_worse() {
        let mut cfg = quick_config();
        cfg.policy = ConsistencyPolicy::Conservative96;
        let cons = ClusterSim::new(cfg).run();
        assert!(
            cons.hit_rate() < 0.95,
            "conservative hit rate {}",
            cons.hit_rate()
        );
    }

    #[test]
    fn hybrid_policy_trades_regen_cpu_for_bounded_staleness() {
        let mut cfg = quick_config();
        cfg.policy = ConsistencyPolicy::hybrid(0.5, Some(400));
        let hyb = ClusterSim::new(cfg).run();
        let upd = ClusterSim::new(quick_config()).run();
        let mut inv_cfg = quick_config();
        inv_cfg.policy = ConsistencyPolicy::Invalidate;
        let inv = ClusterSim::new(inv_cfg).run();

        assert_eq!(hyb.failed_requests, 0);
        // Both halves of the split exercised: hot pages updated in place,
        // the cold tail invalidated.
        assert!(hyb.cache.updates > 0, "no in-place updates");
        assert!(hyb.cache.invalidations > 0, "no cold-tail invalidations");
        // Less render CPU than full update-in-place, which saves nothing.
        assert!(
            hyb.regen_cpu_ms < upd.regen_cpu_ms,
            "hybrid {} ms vs update-in-place {} ms",
            hyb.regen_cpu_ms,
            upd.regen_cpu_ms
        );
        assert!(hyb.regen_saved_ms > 0);
        assert_eq!(upd.regen_saved_ms, 0);
        // Update-in-place never leaves a page stale, so no request ever
        // observes staleness; hybrid stays below pure invalidation.
        assert_eq!(upd.weighted_staleness_samples, 0);
        assert!(
            hyb.weighted_staleness_sum_secs < inv.weighted_staleness_sum_secs,
            "hybrid {}s vs invalidate {}s",
            hyb.weighted_staleness_sum_secs,
            inv.weighted_staleness_sum_secs
        );
        // Hit rate sits between the two pure policies.
        assert!(
            hyb.hit_rate() >= inv.hit_rate() && hyb.hit_rate() <= upd.hit_rate(),
            "inv {} <= hyb {} <= upd {}",
            inv.hit_rate(),
            hyb.hit_rate(),
            upd.hit_rate()
        );
    }

    #[test]
    fn hybrid_tight_budget_defers_work_without_dropping_pages() {
        fn metric_sum(prom: &str, name: &str) -> f64 {
            prom.lines()
                .filter(|l| l.starts_with(name))
                .filter_map(|l| l.split_whitespace().last())
                .filter_map(|v| v.parse::<f64>().ok())
                .sum()
        }
        // Update-dense days + a budget far below the per-batch render
        // cost: most hot pages must take the deferred path.
        let mut cfg = fault_config();
        cfg.policy = ConsistencyPolicy::hybrid(1.0, Some(50));
        let report = ClusterSim::new(cfg).run();
        let prom = prometheus_text(&report.telemetry.registry);
        assert!(
            metric_sum(&prom, "nagano_trigger_pages_deferred_total") > 0.0,
            "tight budget never deferred"
        );
        assert!(prom.contains("nagano_trigger_regen_saved_ms_total"));
        assert!(prom.contains("nagano_trigger_weighted_staleness_seconds"));
        // hot_fraction 1.0 has no cold tail: deferred pages keep serving
        // their old bytes instead of missing, so the hit rate stays at
        // update-in-place levels while per-batch CPU stays bounded.
        assert!(report.hit_rate() > 0.99, "hit rate {}", report.hit_rate());
        // Requests that land on a parked page record its staleness age.
        assert!(report.weighted_staleness_samples > 0);
        assert!(report.regen_cpu_ms > 0);
    }

    #[test]
    fn regions_route_to_their_complexes() {
        let report = ClusterSim::new(quick_config()).run();
        let totals = report.per_site_totals();
        // All four complexes serve traffic; Tokyo carries a large share
        // (Japan + Oceania + spillover).
        for (i, t) in totals.iter().enumerate() {
            assert!(*t > 0.0, "site {i} served nothing");
        }
        assert!(totals[TOKYO.0] > 0.15 * totals.iter().sum::<f64>());
    }

    #[test]
    fn complex_failure_degrades_elegantly() {
        let mut cfg = quick_config();
        cfg.failure_plan = vec![
            FailurePlanEntry {
                at: SimTime::at(2, 12, 0),
                kind: FailureKind::Complex { site: TOKYO.0 },
                up: false,
            },
            FailurePlanEntry {
                at: SimTime::at(2, 18, 0),
                kind: FailureKind::Complex { site: TOKYO.0 },
                up: true,
            },
        ];
        let report = ClusterSim::new(cfg).run();
        // Nothing fails: traffic reroutes to surviving complexes.
        assert_eq!(report.failed_requests, 0);
        assert_eq!(report.availability(), 1.0);
        // Tokyo's series is dark during the outage window.
        let tokyo = &report.per_site_minute[TOKYO.0];
        let outage_minutes = (1440 + 12 * 60 + 5)..(1440 + 17 * 60 + 55);
        let during: f64 = outage_minutes.clone().map(|m| tokyo.bins()[m]).sum();
        assert_eq!(during, 0.0, "Tokyo served during its outage");
        let after: f64 = ((1440 + 18 * 60 + 5)..(2 * 1440 - 1))
            .map(|m| tokyo.bins()[m])
            .sum();
        assert!(after > 0.0, "Tokyo never recovered");
    }

    #[test]
    fn freshness_stays_within_the_sixty_second_bound() {
        let report = ClusterSim::new(quick_config()).run();
        assert!(report.freshness.count() > 0);
        assert!(
            report.freshness_max < 60.0,
            "max freshness {}s",
            report.freshness_max
        );
        assert!(report.freshness.mean() < 20.0);
    }

    #[test]
    fn bytes_and_regions_accumulate() {
        let report = ClusterSim::new(quick_config()).run();
        assert!(report.bytes_per_day[1] > 0.0);
        assert!(report.by_region.len() >= 5);
        let region_total: u64 = report.by_region.values().sum();
        assert_eq!(region_total, report.total_requests);
        assert!(!report.response_by_day_region.is_empty());
    }

    #[test]
    fn colocation_degrades_service_times() {
        let mut cfg = quick_config();
        cfg.policy = ConsistencyPolicy::Conservative96;
        cfg.updates_on_serving_nodes = true;
        let colocated = ClusterSim::new(cfg).run();
        let separated = ClusterSim::new(quick_config()).run();
        assert!(colocated.service_near_updates.count() > 0);
        assert!(
            colocated.service_near_updates.mean()
                > colocated.service_away_from_updates.mean() * 3.0,
            "near {} vs away {}",
            colocated.service_near_updates.mean(),
            colocated.service_away_from_updates.mean()
        );
        // The 1998 separation keeps service flat around updates.
        let near = separated.service_near_updates.mean();
        let away = separated.service_away_from_updates.mean();
        assert!(
            (near - away).abs() < away.max(0.5),
            "1998 near {near} vs away {away}"
        );
    }

    #[test]
    fn modem_histogram_collects_home_page_fetches() {
        let report = ClusterSim::new(quick_config()).run();
        assert!(report.modem_responses.count() > 0);
        // Uncongested days: responses sit around 20 s, under the 30 s
        // requirement.
        assert!(report.modem_responses.median() > 10.0);
        assert!(report.modem_responses.median() < 30.0);
    }

    #[test]
    fn report_helpers_are_consistent() {
        let report = ClusterSim::new(quick_config()).run();
        // per_minute total equals served requests (total - failed).
        assert_eq!(
            report.per_minute.total() as u64,
            report.total_requests - report.failed_requests
        );
        // per-site totals sum to the same.
        let site_sum: f64 = report.per_site_totals().iter().sum();
        assert_eq!(
            site_sum as u64,
            report.total_requests - report.failed_requests
        );
        // Daily paper-unit series covers the configured horizon.
        assert_eq!(report.hits_per_day_paper_millions().len(), 3);
        let (idx, count, paper) = report.peak_minute();
        assert!(idx < report.per_minute.bins().len());
        assert!((count * report.scale - paper).abs() < 1e-6);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = ClusterSim::new(quick_config()).run();
        let b = ClusterSim::new(quick_config()).run();
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.cache.hits, b.cache.hits);
        assert_eq!(a.per_site_totals(), b.per_site_totals());
    }

    #[test]
    fn trigger_latency_is_a_function_of_the_work_done() {
        let outcome = TxnOutcome {
            visited: 3,
            invalidated: vec![PageKey::Medals],
            render_ms: 8.0,
            ..TxnOutcome::default()
        };
        // 3 visits, 1 invalidation, 8 ms of renders over 8 workers.
        let expected = SimDuration::from_micros(3 * 20 + 50 + 1_000);
        assert_eq!(trigger_latency(&outcome), expected);
        assert_eq!(trigger_latency(&TxnOutcome::default()), SimDuration::ZERO);
    }

    #[test]
    fn telemetry_exports_cover_every_subsystem() {
        let report = ClusterSim::new(quick_config()).run();
        let text = prometheus_text(&report.telemetry.registry);
        for needle in [
            "nagano_cache_hits_total{site=\"Tokyo\"}",
            "nagano_trigger_txns_total{site=\"Schaumburg\"}",
            "nagano_trigger_latency_seconds_count{site=\"Columbus\"}",
            "nagano_httpd_requests_total{site=\"Bethesda\"}",
            "nagano_cluster_requests_total",
            "nagano_cluster_freshness_seconds_count",
        ] {
            assert!(text.contains(needle), "missing {needle} in export");
        }
        let json = json_snapshot(&report.telemetry.registry);
        assert!(json.contains("\"name\":\"nagano_cluster_freshness_seconds\""));
        // The registry's counters agree with the report.
        let requests = report
            .telemetry
            .registry
            .counter("nagano_cluster_requests_total", &[]);
        assert_eq!(requests.get(), report.total_requests);
    }

    #[test]
    fn freshness_percentiles_are_ordered_and_bounded() {
        let report = ClusterSim::new(quick_config()).run();
        let h = &report.freshness_hist;
        assert_eq!(h.count(), report.freshness.count());
        let (p50, p95, p99) = (h.percentile(50.0), h.percentile(95.0), h.percentile(99.0));
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // ~5% bucket error on top of the 60 s design bound.
        assert!(p99 <= report.freshness_max * 1.06);
    }

    #[test]
    fn propagation_traces_are_complete_and_deterministic() {
        let a = ClusterSim::new(quick_config()).run();
        let b = ClusterSim::new(quick_config()).run();
        assert!(!a.telemetry.propagation.is_empty());
        let slow_a = a.telemetry.propagation.slowest(3);
        let slow_b = b.telemetry.propagation.slowest(3);
        // Identical seed ⇒ identical traces, span timestamps included.
        assert_eq!(slow_a, slow_b);
        // Every trace is a tree rooted at the transaction receipt, with at
        // least a distribute → traversal → apply chain per site.
        let trace = &slow_a[0];
        assert!(trace.spans.len() > 3 * SITES.len(), "{:?}", trace);
        assert_eq!(trace.spans[0].name, "nagano_cluster_txn_receipt");
        assert_eq!(trace.spans[0].parent, None);
        assert!(trace.spans[1..].iter().all(|s| s.parent.is_some()));
        assert!(trace.render().contains("site=Tokyo"));
        // A fully closed lineage tree exists: every site applied *and*
        // served, so the tree carries four first-fresh-hit leaves.
        let closed = a.telemetry.propagation.traces().into_iter().find(|t| {
            t.spans
                .iter()
                .filter(|s| s.name == "nagano_cache_first_fresh_hit")
                .count()
                == SITES.len()
        });
        let closed = closed.expect("no update closed its lineage at all four sites");
        assert_eq!(closed.spans.len(), 1 + 4 * SITES.len());
        // Serving traces sampled deterministically too, as parent-linked
        // route → lookup → render chains.
        assert!(!a.telemetry.serving.is_empty());
        assert_eq!(
            a.telemetry.serving.slowest(3),
            b.telemetry.serving.slowest(3)
        );
        let serve = &a.telemetry.serving.slowest(1)[0];
        assert_eq!(serve.spans[0].name, "nagano_cluster_route");
        assert!(serve
            .spans
            .iter()
            .any(|s| s.name == "nagano_pagegen_render" && s.parent.is_some()));
    }

    #[test]
    fn update_to_serve_lineage_feeds_the_freshness_histogram() {
        let report = ClusterSim::new(quick_config()).run();
        assert!(report.update_to_serve.count() > 0, "no lineage leaf closed");
        // Commit → first fresh serve can never beat commit → site-visible.
        assert!(report.update_to_serve.percentile(50.0) >= report.freshness_hist.percentile(50.0));
        // The registry carries the same histogram for /metrics scrapes.
        let text = prometheus_text(&report.telemetry.registry);
        assert!(text.contains("nagano_cluster_update_to_serve_seconds_count"));
    }

    #[test]
    fn default_slo_rules_pass_on_a_healthy_run() {
        let report = ClusterSim::new(quick_config()).run();
        assert_eq!(report.slo.len(), 2);
        for outcome in &report.slo {
            assert!(
                outcome.pass,
                "{} failed: observed {} vs target {}",
                outcome.rule.name, outcome.observed, outcome.target
            );
            assert!(outcome.alerts.is_empty(), "{:?}", outcome.alerts);
        }
        assert!(report.slo.iter().any(|o| o.count > 0));
    }

    #[test]
    fn violated_slo_fails_and_burns_its_budget() {
        // An absurdly tight freshness bound: every sample is bad, so the
        // rule fails and the multi-window burn-rate alert pages.
        let mut cfg = quick_config();
        cfg.slo_rules = vec![SloRule {
            name: "impossible".into(),
            metric: "nagano_cluster_freshness_seconds".into(),
            objective: Objective::FractionBelow {
                bound: 0.002,
                min_fraction: 0.99,
            },
        }];
        let report = ClusterSim::new(cfg).run();
        assert_eq!(report.slo.len(), 1);
        assert!(!report.slo[0].pass);
        assert!(
            report.slo[0].alerts.iter().any(|a| a.severity == "page"),
            "sustained 100% burn never paged: {:?}",
            report.slo[0].alerts
        );
    }

    #[test]
    fn partition_heals_and_replicas_converge() {
        let mut cfg = fault_config();
        cfg.audit_convergence = true;
        // Partition the Schaumburg → Bethesda edge for six hours on day 2.
        let kind = DataFaultKind::Link {
            edge: 3,
            fault: LinkFault::Partition,
        };
        cfg.fault_plan = vec![
            DataFaultPlanEntry {
                at: SimTime::at(10, 8, 0),
                kind,
                up: false,
            },
            DataFaultPlanEntry {
                at: SimTime::at(10, 12, 0),
                kind,
                up: true,
            },
        ];
        let report = ClusterSim::new(cfg).run();
        assert!(report.replication_dropped > 0, "partition dropped nothing");
        assert!(report.retries > 0, "no catch-up attempt hit the partition");
        assert!(report.catch_up_applied > 0, "nothing recovered via pull");
        assert!(report.staleness_hist.count() > 0);
        // Provable convergence: every replica and monitor ends at the
        // master watermark and no cached body is stale.
        assert_eq!(report.site_watermarks, [report.master_txns; 4]);
        assert_eq!(report.monitor_watermarks, [report.master_txns; 4]);
        assert_eq!(report.stale_pages, Some(0));
        let rec = report
            .convergence
            .iter()
            .find(|c| c.site == 2)
            .expect("a convergence record for Bethesda");
        let ttc = rec.time_to_converge().expect("Bethesda reconverged");
        assert!(
            ttc <= SimDuration::from_mins(10),
            "took {}s to converge",
            ttc.as_secs_f64()
        );
        // Routing never noticed: the data plane degraded, not serving.
        assert_eq!(report.failed_requests, 0);
        // The telemetry counters mirror the report.
        let text = prometheus_text(&report.telemetry.registry);
        assert!(text.contains(&format!("nagano_cluster_retries_total {}", report.retries)));
        assert!(text.contains(&format!(
            "nagano_cluster_replication_dropped_total {}",
            report.replication_dropped
        )));
    }

    #[test]
    fn the_dr_re_feed_takes_only_what_tokyo_holds() {
        let mut cfg = fault_config();
        cfg.audit_convergence = true;
        // Both master edges go down at 08:00; Schaumburg's heals at 11:00,
        // Tokyo's at 12:00. Tokyo is stuck at 08:00 meanwhile, so the
        // re-feed Schaumburg fails over to has nothing newer to give.
        let (down, schaumburg_up) = (SimTime::at(10, 8, 0), SimTime::at(10, 11, 0));
        let entry = |edge, at, up| DataFaultPlanEntry {
            at,
            kind: DataFaultKind::Link {
                edge,
                fault: LinkFault::Partition,
            },
            up,
        };
        cfg.fault_plan = vec![
            entry(0, down, false),
            entry(1, down, false),
            entry(0, schaumburg_up, true),
            entry(1, SimTime::at(10, 12, 0), true),
        ];
        let report = ClusterSim::new(cfg).run();
        let labels = [("site", SITES[0].name)];
        let stalest = report
            .telemetry
            .registry
            .histogram("nagano_cluster_staleness_seconds", &labels, 1e-3, 100_000.0)
            .max();
        let window = (schaumburg_up - down).as_secs_f64();
        assert!(
            stalest > 0.75 * window,
            "Schaumburg's stalest pull is {stalest} s of a {window} s partition"
        );
        assert_eq!(report.site_watermarks, [report.master_txns; 4]);
        assert_eq!(report.monitor_watermarks, [report.master_txns; 4]);
        assert_eq!(report.stale_pages, Some(0));
    }

    #[test]
    fn monitor_crash_recovery_leaves_no_stale_page() {
        let mut cfg = fault_config();
        cfg.audit_convergence = true;
        let kind = DataFaultKind::MonitorCrash { site: 3 };
        cfg.fault_plan = vec![
            DataFaultPlanEntry {
                at: SimTime::at(10, 8, 0),
                kind,
                up: false,
            },
            DataFaultPlanEntry {
                at: SimTime::at(10, 12, 0),
                kind,
                up: true,
            },
        ];
        let report = ClusterSim::new(cfg).run();
        assert_eq!(report.recoveries, 1);
        assert!(
            report.staleness_hist.count() > 0,
            "recovery replayed no missed txns"
        );
        // The restarted monitor re-ran DUP over the missed tail: nothing
        // stale survives, and its watermark matches the replica's.
        assert_eq!(report.stale_pages, Some(0));
        assert_eq!(report.monitor_watermarks, [report.master_txns; 4]);
        let rec = report
            .convergence
            .iter()
            .find(|c| c.site == 3)
            .expect("a convergence record for Tokyo");
        assert!(rec.converged_at.is_some());
        let text = prometheus_text(&report.telemetry.registry);
        assert!(text.contains("nagano_trigger_recoveries_total{site=\"Tokyo\"} 1"));
    }

    #[test]
    fn partitioned_primary_feed_fails_over_to_the_tokyo_refeed() {
        let mut cfg = fault_config();
        cfg.audit_convergence = true;
        let kind = DataFaultKind::Link {
            edge: 0,
            fault: LinkFault::Partition,
        };
        cfg.fault_plan = vec![
            DataFaultPlanEntry {
                at: SimTime::at(10, 8, 0),
                kind,
                up: false,
            },
            DataFaultPlanEntry {
                at: SimTime::at(10, 12, 0),
                kind,
                up: true,
            },
        ];
        let report = ClusterSim::new(cfg).run();
        // Schaumburg kept advancing through the partition by pulling the
        // Tokyo re-feed, so staleness stayed bounded by the pull cadence —
        // minutes, not the six-hour partition.
        assert!(report.catch_up_applied > 0);
        assert!(report.staleness_hist.count() > 0);
        assert!(
            report.staleness_max < 300.0,
            "staleness {}s suggests the DR re-feed never engaged",
            report.staleness_max
        );
        assert_eq!(report.site_watermarks, [report.master_txns; 4]);
        assert_eq!(report.stale_pages, Some(0));
        assert_eq!(report.failed_requests, 0);
    }

    #[test]
    fn lossy_link_converges_and_fault_runs_stay_deterministic() {
        let mut cfg = fault_config();
        let kind = DataFaultKind::Link {
            edge: 1,
            fault: LinkFault::Lossy { drop_permille: 500 },
        };
        cfg.fault_plan = vec![
            DataFaultPlanEntry {
                at: SimTime::at(10, 8, 0),
                kind,
                up: false,
            },
            DataFaultPlanEntry {
                at: SimTime::at(10, 12, 0),
                kind,
                up: true,
            },
        ];
        let a = ClusterSim::new(cfg.clone()).run();
        let b = ClusterSim::new(cfg).run();
        assert!(
            a.replication_dropped > 0,
            "a 50% lossy link dropped nothing"
        );
        assert!(a.catch_up_applied > 0, "gaps were never repaired");
        assert_eq!(a.site_watermarks, [a.master_txns; 4]);
        // Identical seed ⇒ identical faults, drops, retries, and repairs.
        assert_eq!(a.replication_dropped, b.replication_dropped);
        assert_eq!(a.replication_duplicates, b.replication_duplicates);
        assert_eq!(a.catch_up_applied, b.catch_up_applied);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.staleness_hist.count(), b.staleness_hist.count());
    }

    /// Update-dense days with the invalidate policy (so misses and stale
    /// tombstones actually occur).
    fn resilience_config() -> ClusterConfig {
        let mut cfg = fault_config();
        cfg.policy = ConsistencyPolicy::Invalidate;
        cfg
    }

    #[test]
    fn backend_outage_serves_stale_and_trips_the_breaker() {
        let mut cfg = resilience_config();
        // A four-hour outage over the update-dense morning: invalidated
        // pages miss while the backend is unreachable, so the tombstones
        // carry the traffic.
        let kind = ServingFaultKind::BackendOutage { site: 0 };
        cfg.serving_fault_plan = vec![
            ServingFaultPlanEntry {
                at: SimTime::at(10, 8, 0),
                kind,
                up: false,
            },
            ServingFaultPlanEntry {
                at: SimTime::at(10, 12, 0),
                kind,
                up: true,
            },
        ];
        let report = ClusterSim::new(cfg).run();
        assert!(
            report.availability() >= 0.99,
            "availability {}",
            report.availability()
        );
        assert!(
            report.stale_served > 0,
            "the outage never answered from a tombstone"
        );
        assert!(report.breaker_trips > 0, "the breaker never opened");
        assert!(report.stale_serve_rate() > 0.0);
        assert!(report.stale_serve_rate() < 0.05);
        // The stale-serve counter reaches the shared registry under the
        // site label.
        let text = prometheus_text(&report.telemetry.registry);
        assert!(text.contains("nagano_cache_stale_served_total{site=\"Schaumburg\"}"));
        // After the heal, regenerations replaced the tombstones — and
        // coalescing kept them near one per (key, stale-epoch).
        assert!(report.stale_regens > 0);
        assert!(report.regens_per_stale_key() >= 1.0);
        assert!(
            report.regens_per_stale_key() < 1.5,
            "stampede: {} regens per stale key",
            report.regens_per_stale_key()
        );
    }

    #[test]
    fn a_catch_ups_invalidations_age_from_the_minute_it_ran_in() {
        let cfg = resilience_config();
        let mut sim = SimState::new(&cfg);
        let minute = SimTime::at(10, 9, 0);
        sim.clock = minute;
        // A pull over a delayed link applies three minutes past the
        // minute the run loop is in.
        let outcome = TxnOutcome {
            removed: vec![(7, bytes::Bytes::from_static(b"old standings"))],
            ..TxnOutcome::default()
        };
        let applied_at = minute + SimDuration::from_mins(3);
        sim.record_apply(0, &[], &(outcome, Vec::new()), applied_at, Via::CatchUp);
        let copies = &sim.complexes[0].tombstones;
        let max_age = SimDuration::from_secs_f64(cfg.resilience.stale_max_age_secs);
        assert!(copies.get(7, minute + max_age).is_some());
        let a_minute_past = minute + max_age + SimDuration::from_mins(1);
        assert!(copies.get(7, a_minute_past).is_none(), "aged on the apply");
    }

    #[test]
    fn cache_shard_crash_coalesces_the_restart_stampede() {
        let mut cfg = resilience_config();
        cfg.serving_fault_plan = vec![ServingFaultPlanEntry {
            at: SimTime::at(10, 9, 0),
            kind: ServingFaultKind::CacheShardCrash { site: 0, node: 0 },
            up: false,
        }];
        let report = ClusterSim::new(cfg).run();
        // A cold cache is a refill problem, not an availability problem.
        assert_eq!(report.failed_requests, 0);
        assert!(report.demand_fills > 0, "the cold cache never refilled");
        assert!(
            report.cache.coalesced > 0,
            "no concurrent miss joined an in-flight regeneration"
        );
        let text = prometheus_text(&report.telemetry.registry);
        assert!(text.contains("nagano_cache_coalesced_total{site=\"Schaumburg\"}"));
    }

    #[test]
    fn scripted_serving_plan_meets_the_availability_floor() {
        let mut cfg = resilience_config();
        cfg.serving_fault_plan = crate::faults::scripted_serving_plan(10);
        let max_age = cfg.resilience.stale_max_age_secs;
        let report = ClusterSim::new(cfg).run();
        assert!(
            report.availability() >= 0.99,
            "availability {}",
            report.availability()
        );
        // Staleness is bounded by the policy: stale copies were served,
        // and none older than the configured max age.
        assert!(report.stale_served > 0, "{:?}", report.responses);
        assert_eq!(report.responses.stale, report.stale_served);
        assert!(
            report.stale_age_max_secs <= max_age,
            "a copy {} s old served",
            report.stale_age_max_secs
        );
        assert!(report.serve_latency.count() > 0);
        // p99 latency stays visible (and finite) through the slowdown.
        assert!(report.serve_latency.percentile(99.0).is_finite());
    }

    /// A day and a half of serving faults on Schaumburg, longer than the
    /// scripted day: a four-hour backend outage that outlives the stale
    /// copies' age bound, a cold restart, and a render slowdown past the
    /// request budget.
    fn long_serving_plan() -> Vec<ServingFaultPlanEntry> {
        let window = |kind, from, to| {
            [(from, false), (to, true)].map(|(at, up)| ServingFaultPlanEntry { at, kind, up })
        };
        let outage = ServingFaultKind::BackendOutage { site: 0 };
        let crash = ServingFaultKind::CacheShardCrash { site: 0, node: 0 };
        let slow = ServingFaultKind::RenderSlowdown {
            site: 0,
            factor: 2_000.0,
        };
        let mut plan = window(outage, SimTime::at(10, 8, 0), SimTime::at(10, 12, 0)).to_vec();
        plan.push(ServingFaultPlanEntry {
            at: SimTime::at(10, 14, 0),
            kind: crash,
            up: false,
        });
        plan.extend(window(slow, SimTime::at(10, 18, 0), SimTime::at(11, 12, 0)));
        plan
    }

    /// Run `base` under each of five policies, with every response held
    /// to the contract by the debug build's oracle (`crate::oracle`),
    /// which panics on a violation. On a `faulted` plan, each policy that
    /// drops pages must have served stale copies, so that the stale
    /// checks cannot pass vacuously; update-in-place keeps no copy.
    fn check_every_response(base: ClusterConfig, faulted: bool) {
        for policy in [
            ConsistencyPolicy::UpdateInPlace,
            ConsistencyPolicy::Invalidate,
            ConsistencyPolicy::Conservative96,
            ConsistencyPolicy::hybrid(0.5, Some(400)),
            ConsistencyPolicy::hybrid(0.25, Some(50)),
        ] {
            let mut cfg = base.clone();
            cfg.policy = policy;
            let max_age = cfg.resilience.stale_max_age_secs;
            let report = ClusterSim::new(cfg).run();
            let r = report.responses;
            let answered = r.hit + r.join + r.stale + r.fill + r.fail;
            assert_eq!(answered, report.total_requests, "{policy:?}: {r:?}");
            assert_eq!(r.fail, report.failed_requests, "{policy:?}: {r:?}");
            assert_eq!(r.stale, report.stale_served, "{policy:?}: {r:?}");
            assert!(report.stale_age_max_secs <= max_age, "{policy:?}");
            if faulted && policy != ConsistencyPolicy::UpdateInPlace {
                assert!(r.stale > 0, "{policy:?} served no stale copy: {r:?}");
            }
        }
    }

    #[test]
    fn every_response_holds_to_the_contract_on_the_scripted_plan() {
        let mut cfg = fault_config();
        cfg.serving_fault_plan = crate::faults::scripted_serving_plan(10);
        check_every_response(cfg, false);
    }

    /// At ten times the traffic of the other runs, so that copies are
    /// served at every age up to the bound.
    #[test]
    fn every_response_holds_to_the_contract_on_a_long_faulted_plan() {
        let mut cfg = fault_config();
        cfg.scale = 2_000.0;
        cfg.serving_fault_plan = long_serving_plan();
        check_every_response(cfg, true);
    }

    #[test]
    fn resilience_runs_are_deterministic() {
        let mut cfg = resilience_config();
        cfg.serving_fault_plan = crate::faults::scripted_serving_plan(10);
        let a = ClusterSim::new(cfg.clone()).run();
        let b = ClusterSim::new(cfg).run();
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.failed_requests, b.failed_requests);
        assert_eq!(a.stale_served, b.stale_served);
        assert_eq!(a.cache.coalesced, b.cache.coalesced);
        assert_eq!(a.demand_fills, b.demand_fills);
        assert_eq!(a.stale_regens, b.stale_regens);
        assert_eq!(a.render_retries, b.render_retries);
        assert_eq!(a.breaker_trips, b.breaker_trips);
    }

    /// Rows (a), (b) and (d) of the serve table (`nagano::serve`), which
    /// only the simulation reaches: a backend outage on Schaumburg that
    /// heals inside the breaker's open window, then a render slowdown
    /// past the request budget. Three runs of one seed: `short` has the
    /// stock 10 s window, which closes before the next minute's requests;
    /// `long` one that spans the heal; `slow` adds the slowdown to `long`.
    #[test]
    fn misses_are_answered_as_the_serve_table_says() {
        let window = |kind, from, to| {
            [(from, false), (to, true)].map(|(at, up)| ServingFaultPlanEntry { at, kind, up })
        };
        let run = |open_secs: f64, slowdown: bool| {
            let mut cfg = resilience_config();
            cfg.scale = 2_000.0;
            cfg.resilience.breaker.open_secs = open_secs;
            let outage = ServingFaultKind::BackendOutage { site: 0 };
            cfg.serving_fault_plan =
                window(outage, SimTime::at(10, 8, 0), SimTime::at(10, 9, 0)).to_vec();
            if slowdown {
                let slow = ServingFaultKind::RenderSlowdown {
                    site: 0,
                    factor: 2_000.0,
                };
                let (from, to) = (SimTime::at(10, 18, 0), SimTime::at(11, 12, 0));
                cfg.serving_fault_plan.extend(window(slow, from, to));
            }
            ClusterSim::new(cfg).run()
        };
        let short = run(10.0, false);
        let long = run(8.0 * 3_600.0, false);
        let slow = run(8.0 * 3_600.0, true);
        // (b) With the backend down, a refused miss without a tombstone
        // fails at once — no attempt, no retry, no second trip; with the
        // backend back it renders rather than turn the request away. So
        // the requests that fail are those that fail when the window
        // closes between one minute's requests and the next.
        assert!(short.failed_requests > 0);
        assert_eq!(long.failed_requests, short.failed_requests);
        assert_eq!(long.breaker_trips, 1);
        assert!(short.breaker_trips > 1);
        assert!(long.render_retries < short.render_retries);
        // (a) For the hours the open window outlasts the outage, a miss
        // with a tombstone is answered from it instead of rendered.
        assert!(
            long.stale_served > short.stale_served,
            "{} vs {}",
            long.stale_served,
            short.stale_served
        );
        assert!(long.demand_fills < short.demand_fills);
        assert!(long.stale_regens < short.stale_regens);
        // (d) A render past the budget still fills the cache, but the
        // request that led it gets the tombstone when there is one, and
        // the requests behind it join its flight.
        assert_eq!(slow.failed_requests, long.failed_requests);
        assert_eq!(slow.render_retries, long.render_retries);
        assert_eq!(slow.demand_fills, long.demand_fills);
        assert_eq!(slow.stale_regens, long.stale_regens);
        assert!(slow.stale_served > long.stale_served);
        assert!(slow.cache.coalesced > long.cache.coalesced);
    }

    #[test]
    fn a_fault_free_run_keeps_the_serving_counters_quiet() {
        let report = ClusterSim::new(quick_config()).run();
        assert_eq!(report.stale_served, 0);
        assert_eq!(report.cache.coalesced, 0);
        assert_eq!(report.stale_regens, 0);
        assert_eq!(report.breaker_trips, 0);
        assert_eq!(report.render_retries, 0);
        assert_eq!(report.regens_per_stale_key(), 0.0);
    }

    #[test]
    fn export_dir_receives_hourly_and_final_snapshots() {
        let dir = std::env::temp_dir().join("nagano-telemetry-test-42");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = quick_config();
        cfg.export_dir = Some(dir.clone());
        ClusterSim::new(cfg).run();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("nagano_cache_hits_total"));
        assert!(prom.contains("nagano_httpd_requests_total"));
        let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(json.starts_with("{\"metrics\":["));
        let hourly = std::fs::read_to_string(dir.join("telemetry_hourly.jsonl")).unwrap();
        // Two simulated days ⇒ 48 hourly snapshots.
        assert_eq!(hourly.lines().count(), 48);
        assert!(hourly.lines().next().unwrap().starts_with("{\"hour\":25,"));
        let traces = std::fs::read_to_string(dir.join("traces.jsonl")).unwrap();
        assert!(traces.lines().count() > 0);
        assert!(traces.contains("\"kind\":\"propagation\""));
        assert!(traces.contains("\"kind\":\"serving\""));
        assert!(traces.contains("\"name\":\"nagano_cache_first_fresh_hit\""));
        let slo = std::fs::read_to_string(dir.join("slo.json")).unwrap();
        assert!(slo.starts_with("{\"slo\":["));
        assert!(slo.contains("\"name\":\"fresh-60s\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
