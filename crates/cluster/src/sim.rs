//! The 16-day discrete-event driver: workload in, figures out.
//!
//! One run wires together the full reproduction stack — seeded database,
//! page registry, per-site trigger monitors (with Figure-5 replication
//! delays), MSIRP routing over the live cluster state, and the request
//! model — and measures everything the paper's evaluation section reports.

use std::path::PathBuf;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use nagano::{BreakerConfig, CircuitBreaker, RetryBackoff};
use nagano_cache::{CacheConfig, CacheFleet, StalePolicy, StatsSnapshot};
use nagano_db::{seed_games, DeliverOutcome, GamesConfig, OlympicDb, Replica, Transaction, TxnId};
use nagano_httpd::HttpdMetrics;
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::{
    DeterministicRng, EventQueue, Histogram, LinkClass, LinkModel, SimDuration, SimTime,
    TimeSeries, Welford,
};
use nagano_telemetry::{
    json_snapshot, prometheus_text, slo_json, Counter, SloEngine, SloOutcome, SloRule, Telemetry,
    Trace, TraceKind,
};
use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};
use nagano_workload::{Region, RequestModel, UpdateSchedule};

use crate::faults::{
    DataFaultKind, DataFaultPlanEntry, LinkFault, ServingFaultKind, ServingFaultPlanEntry,
    CATCHUP_BASE_BACKOFF_SECS, DR_EDGE, MAX_CATCHUP_RETRIES, PRIMARY_FEED, REPLICATION_EDGES,
};
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
    /// Serving-path resilience: stale tombstones, per-request deadlines,
    /// seeded retry backoff, and a per-site circuit breaker (DESIGN.md
    /// §11). On a fault-free run none of it is ever taken: no stale
    /// serve, no trip, no retry.
    pub resilience: ServingResilience,
    /// External congestion on US paths: `(first_day, last_day, factor)` —
    /// Figure 22's days 7–9 anomaly was "caused by problems external to
    /// the site".
    pub us_congestion: (u32, u32, f64),
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
    /// Service-level objectives evaluated over the run, one rule per line
    /// in the [`SloRule`] syntax (`name: 99% of <metric> < 30`,
    /// `name: p99 of <metric> < 60`). Burn rates are tracked over hourly
    /// sim-time snapshots; verdicts land in [`ClusterReport::slo`] and the
    /// `slo.json` export. Defaults to [`ClusterConfig::default_slo_rules`].
    pub slo_rules: Vec<String>,
    /// After the run, re-render every registry page and compare against
    /// each site's cache fleet, counting mismatches into
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
            us_congestion: (7, 9, 1.45),
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
    pub fn default_slo_rules() -> Vec<String> {
        vec![
            "fresh-60s: 99% of nagano_cluster_freshness_seconds < 60".to_string(),
            "fresh-p99: p99 of nagano_cluster_freshness_seconds < 60".to_string(),
        ]
    }
}

/// Serving-path resilience knobs, mirroring what the in-process
/// [`nagano::ServingSite`] runs: a [`StalePolicy`] installed on every
/// site's serving cache (evicted/invalidated bodies become bounded-age
/// tombstones), a per-request deadline, seeded retry backoff for failed
/// regenerations, and a circuit breaker per site backend.
#[derive(Debug, Clone)]
pub struct ServingResilience {
    /// Tombstone policy for every site's serving cache.
    pub stale: StalePolicy,
    /// Per-request deadline (seconds): a regeneration slower than this
    /// answers from the stale tombstone when one exists, and the fresh
    /// body lands in the background.
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
            stale: StalePolicy::bounded(900.0),
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
    /// Aggregated cache statistics across all sites.
    pub cache: StatsSnapshot,
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
    /// Demand regenerations that replaced a stale tombstone — the work
    /// the single-flight map is supposed to keep at one per stale epoch.
    pub stale_regens: u64,
    /// Distinct `(site, url, stale-epoch)` tuples behind
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

    /// Mean regenerations per distinct `(url, stale-epoch)` pair that was
    /// rendered out of staleness — 1.0 when request coalescing is
    /// airtight, climbing toward the stampede size without it.
    pub fn regens_per_stale_key(&self) -> f64 {
        if self.stale_regen_keys == 0 {
            return 0.0;
        }
        self.stale_regens as f64 / self.stale_regen_keys as f64
    }

    /// Fraction of served responses answered from a stale tombstone.
    pub fn stale_serve_rate(&self) -> f64 {
        let served = self.total_requests - self.failed_requests;
        if served == 0 {
            return 0.0;
        }
        self.cache.stale_served as f64 / served as f64
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

/// Ship one transaction over a replication edge, applying whatever fault
/// is active on it: schedules an [`SimEvent::EdgeDeliver`], or drops the
/// shipment (partitioned link, lossy loss). `fault_rng` is only drawn
/// when a fault is active, so fault-free runs never touch it.
#[allow(clippy::too_many_arguments)]
fn ship(
    queue: &mut EventQueue<SimEvent>,
    fault_rng: &mut DeterministicRng,
    edge_fault: &[Option<LinkFault>; 5],
    dropped: &mut u64,
    dropped_total: &Counter,
    edge: usize,
    at: SimTime,
    txn: &Arc<Transaction>,
) {
    let base = SimDuration::from_secs(REPLICATION_EDGES[edge].base_delay_secs);
    let deliver_at = match edge_fault[edge] {
        None => at + base,
        Some(LinkFault::Partition) => {
            *dropped += 1;
            dropped_total.incr();
            return;
        }
        Some(LinkFault::Lossy { drop_permille }) => {
            if fault_rng.chance(drop_permille as f64 / 1000.0) {
                *dropped += 1;
                dropped_total.incr();
                return;
            }
            at + base
        }
        Some(LinkFault::Delay { extra_secs }) => at + base + SimDuration::from_secs(extra_secs),
        Some(LinkFault::Reorder { jitter_secs }) => {
            at + base + SimDuration::from_secs(fault_rng.index(jitter_secs as usize + 1) as u64)
        }
    };
    queue.schedule(deliver_at, SimEvent::EdgeDeliver(edge, Arc::clone(txn)));
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
            if let FailureKind::Complex { .. } = kind {
                if (at_min as i64) <= complex_busy_until {
                    // Another complex is already down: demote to a frame
                    // failure at the same site.
                    let site = match kind {
                        FailureKind::Complex { site } => site,
                        _ => unreachable!(),
                    };
                    kind = FailureKind::Frame { site, frame: 0 };
                } else {
                    complex_busy_until = (at_min + duration) as i64;
                }
            }
            plan.push(FailurePlanEntry {
                at: SimTime::from_mins(at_min),
                kind,
                up: false,
            });
            plan.push(FailurePlanEntry {
                at: SimTime::from_mins(at_min + duration),
                kind,
                up: true,
            });
        }
    }
    plan.sort_by_key(|e| e.at);
    plan
}

/// One serving trace is recorded per this many requests (prime, so the
/// sample is not phase-locked to any per-minute request pattern).
const SERVING_TRACE_SAMPLE: u64 = 199;

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

    /// Run to completion.
    pub fn run(&self) -> ClusterReport {
        let cfg = &self.config;
        let mut rng = DeterministicRng::seed_from_u64(cfg.seed);
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &cfg.games);
        let registry = Arc::new(PageRegistry::build(&db, cfg.games.days));
        let model = RequestModel::new(&db, Arc::clone(&registry), cfg.scale);
        let mut update_rng = rng.fork(1);
        let schedule = UpdateSchedule::generate(&db, &mut update_rng);

        let telemetry = Arc::new(Telemetry::new());

        // One trigger monitor + single-member cache fleet per site, each
        // binding its live trigger/cache cells into the shared registry
        // under a `site` label.
        let cache_config = CacheConfig::default().with_stale(cfg.resilience.stale);
        let monitors: Vec<TriggerMonitor> = SITES
            .iter()
            .map(|spec| {
                let fleet = Arc::new(CacheFleet::new(1, cache_config.clone()));
                let m = TriggerMonitor::new(
                    Renderer::new(Arc::clone(&db)),
                    fleet,
                    Arc::clone(&registry),
                    cfg.policy,
                );
                m.prewarm();
                let labels = [("site", spec.name)];
                m.stats().bind(&telemetry.registry, &labels);
                m.fleet()
                    .member(0)
                    .stats_handle()
                    .bind(&telemetry.registry, &labels);
                m
            })
            .collect();

        // Per-site request counters (the simulated httpd front end).
        let httpd_metrics: Vec<HttpdMetrics> = SITES
            .iter()
            .map(|spec| {
                let m = HttpdMetrics::new();
                m.bind(&telemetry.registry, &[("site", spec.name)]);
                m
            })
            .collect();

        let requests_total = telemetry
            .registry
            .counter("nagano_cluster_requests_total", &[]);
        let failed_total = telemetry
            .registry
            .counter("nagano_cluster_failed_requests_total", &[]);
        let applied_total = telemetry
            .registry
            .counter("nagano_cluster_updates_applied_total", &[]);
        let freshness_hist =
            telemetry
                .registry
                .histogram("nagano_cluster_freshness_seconds", &[], 1e-3, 600.0);
        // Wide range: a cold page's first fresh serve can trail the
        // commit by hours of simulated time.
        let update_to_serve_hist = telemetry.registry.histogram(
            "nagano_cluster_update_to_serve_seconds",
            &[],
            1e-3,
            2_000_000.0,
        );
        let retries_total = telemetry
            .registry
            .counter("nagano_cluster_retries_total", &[]);
        let dropped_total = telemetry
            .registry
            .counter("nagano_cluster_replication_dropped_total", &[]);
        let catch_up_total = telemetry
            .registry
            .counter("nagano_cluster_catch_up_txns_total", &[]);
        let lag_gauges: Vec<_> = SITES
            .iter()
            .map(|spec| {
                telemetry.registry.gauge(
                    "nagano_cluster_replication_lag_txns",
                    &[("site", spec.name)],
                )
            })
            .collect();
        let staleness_hists: Vec<_> = SITES
            .iter()
            .map(|spec| {
                telemetry.registry.histogram(
                    "nagano_cluster_staleness_seconds",
                    &[("site", spec.name)],
                    1e-3,
                    100_000.0,
                )
            })
            .collect();

        // The Figure-5 replication endpoints, in site order, driven in
        // pull mode so that the simulated links decide exactly which
        // transactions arrive (and when): master feeds Schaumburg and
        // Tokyo; Columbus and Bethesda chain off Schaumburg.
        let replicas: Vec<Replica> = {
            let schaumburg = Replica::attach_pull(SITES[0].name, Arc::clone(&db));
            let columbus = Replica::attach_downstream_pull(SITES[1].name, &schaumburg);
            let bethesda = Replica::attach_downstream_pull(SITES[2].name, &schaumburg);
            let tokyo = Replica::attach_pull(SITES[3].name, Arc::clone(&db));
            vec![schaumburg, columbus, bethesda, tokyo]
        };

        // Data-plane fault state. The fault RNG (forked below, after the
        // workload streams) is drawn only while a fault is active, so
        // fault-free runs are unchanged by its existence.
        let mut edge_fault: [Option<LinkFault>; 5] = [None; 5];
        let mut monitor_up = [true; 4];
        let mut catchup_pending = [false; 4];
        let mut catchup_attempts = [0u32; 4];
        let mut gave_up = [false; 4];
        let mut failed_over = false;
        // Master commit time per txn id (index id-1), for staleness and
        // freshness accounting on every delivery path.
        let mut commit_times: Vec<SimTime> = Vec::new();
        let mut watches: Vec<ConvergenceRecord> = Vec::new();

        // Serving-plane fault state. Dormant without a serving fault plan.
        let res = &cfg.resilience;
        let mut slowdown: [f64; 4] = [1.0; 4];
        let mut backend_down: [bool; 4] = [false; 4];
        let mut breakers: Vec<CircuitBreaker> = (0..SITES.len())
            .map(|_| CircuitBreaker::new(res.breaker))
            .collect();
        // Per-site in-flight regenerations: url → when the render lands.
        // Requests arriving before `done_at` coalesce onto the flight
        // instead of rendering again (the DES view of the per-shard
        // single-flight maps in `nagano-cache`).
        let mut inflight: Vec<FxHashMap<String, SimTime>> =
            (0..SITES.len()).map(|_| FxHashMap::default()).collect();
        // Regenerations per (site, url, stale-epoch): the stampede
        // measurement — each site owns its cache, so each may take
        // exactly one regeneration per stale epoch of a key.
        let mut stale_regen_pairs: FxHashMap<(usize, String, u64), u64> = FxHashMap::default();

        let mut cluster = ClusterState::new();
        let msirp = Msirp::nagano();

        let horizon_days = cfg.end_day as u64;
        let mut report = ClusterReport {
            scale: cfg.scale,
            total_requests: 0,
            failed_requests: 0,
            per_minute: TimeSeries::new(
                SimDuration::from_mins(1),
                SimDuration::from_days(horizon_days),
            ),
            per_site_minute: (0..4)
                .map(|_| {
                    TimeSeries::new(
                        SimDuration::from_mins(1),
                        SimDuration::from_days(horizon_days),
                    )
                })
                .collect(),
            by_region: FxHashMap::default(),
            bytes_per_day: vec![0.0; cfg.end_day as usize],
            response_by_day_region: FxHashMap::default(),
            modem_responses: Histogram::for_latency(),
            service_near_updates: Welford::new(),
            service_away_from_updates: Welford::new(),
            cache: StatsSnapshot::default(),
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
            telemetry: Arc::clone(&telemetry),
        };

        // Seed the event queue: master updates + failure plan.
        let mut queue: EventQueue<SimEvent> = EventQueue::new();
        for (i, u) in schedule.updates().iter().enumerate() {
            if u.day >= cfg.start_day && u.day <= cfg.end_day {
                queue.schedule(u.at, SimEvent::MasterUpdate(i));
            }
        }
        for (i, f) in cfg.failure_plan.iter().enumerate() {
            queue.schedule(f.at, SimEvent::Failure(i));
        }
        for (i, f) in cfg.fault_plan.iter().enumerate() {
            queue.schedule(f.at, SimEvent::DataFault(i));
        }
        for (i, f) in cfg.serving_fault_plan.iter().enumerate() {
            queue.schedule(f.at, SimEvent::ServingFault(i));
        }
        // SLO rules are authored in code; a malformed line is a bug, not
        // a runtime condition.
        let mut slo_engine = SloEngine::new(
            cfg.slo_rules
                .iter()
                .map(|line| SloRule::parse(line).expect("invalid ClusterConfig SLO rule"))
                .collect(),
        );
        if cfg.export_dir.is_some() || !slo_engine.is_empty() {
            let start_hour = (cfg.start_day as u64 - 1) * 24;
            let end_hour = cfg.end_day as u64 * 24;
            for hour in (start_hour + 1)..=end_hour {
                queue.schedule(SimTime::from_hours(hour), SimEvent::TelemetryFlush);
            }
        }

        // Update-lineage trees in flight, by transaction.
        let mut pending_traces: FxHashMap<TxnId, PendingTrace> = FxHashMap::default();
        // Per-site: pages an update refreshed (regenerated or invalidated)
        // whose first subsequent fresh serve has not been observed yet →
        // the owning transaction. Newer writes overwrite older claims.
        let mut fresh_waiting: Vec<FxHashMap<PageKey, TxnId>> =
            (0..SITES.len()).map(|_| FxHashMap::default()).collect();
        let hybrid_policy = matches!(cfg.policy, ConsistencyPolicy::Hybrid(_));
        // Per-hour registry snapshots, written out after the run.
        let mut hourly_snapshots: Vec<String> = Vec::new();

        let mut last_apply_minute: [i64; 4] = [i64::MIN; 4];
        let start_min = (cfg.start_day as u64 - 1) * 1440;
        let end_min = cfg.end_day as u64 * 1440;
        let mut req_rng = rng.fork(2);
        let mut apply_rng = rng.fork(3);
        // Forked last so the workload streams above match fault-free runs
        // of earlier revisions draw-for-draw.
        let mut fault_rng = rng.fork(4);
        // Serving-plane backoff jitter. Forked after the data-plane fault
        // stream for the same reason, and drawn only on failed-render
        // retry paths, so runs without serving faults never touch it.
        let mut resilience_rng = rng.fork(5);

        // A short settle tail after the last simulated minute drains
        // replication still in flight at the horizon (commits in the
        // final minutes whose deliveries land just past it), so that a
        // run whose faults have all healed always ends converged.
        const SETTLE_MINUTES: u64 = 10;
        for minute in start_min..end_min + SETTLE_MINUTES {
            let minute_end = SimTime::from_mins(minute + 1);
            // Advance the cache clocks: stale-tombstone ages are measured
            // on sim time, not wall time.
            let secs = SimTime::from_mins(minute).as_secs_f64();
            for m in &monitors {
                m.fleet().set_now_secs(secs);
            }
            // Drain events due in this minute first.
            while let Some((at, ev)) = queue.pop_before(minute_end) {
                match ev {
                    SimEvent::MasterUpdate(i) => {
                        let update = schedule.updates()[i];
                        let txn = UpdateSchedule::apply(&update, &db, &mut apply_rng);
                        debug_assert_eq!(txn.id.0 as usize, commit_times.len() + 1);
                        commit_times.push(at);
                        let mut trace = Trace::new(TraceKind::Propagation, txn.id.0);
                        let root =
                            trace.add_span("nagano_cluster_txn_receipt", txn.label.clone(), at, at);
                        pending_traces.insert(
                            txn.id,
                            PendingTrace {
                                trace,
                                root,
                                applied: 0,
                                served: [false; 4],
                                apply_span: [None; 4],
                            },
                        );
                        // Ship over the two master-fed edges; the chained
                        // edges fan out when Schaumburg applies.
                        for edge in [0, 1] {
                            ship(
                                &mut queue,
                                &mut fault_rng,
                                &edge_fault,
                                &mut report.replication_dropped,
                                &dropped_total,
                                edge,
                                at,
                                &txn,
                            );
                        }
                    }
                    SimEvent::EdgeDeliver(edge, txn) => {
                        let s = REPLICATION_EDGES[edge].to;
                        match replicas[s].deliver(&txn) {
                            DeliverOutcome::Applied => {
                                report.updates_applied += 1;
                                applied_total.incr();
                                let commit_at = commit_times[txn.id.0 as usize - 1];
                                // While the monitor is down the replica still
                                // advances its log; DUP runs at recovery.
                                if monitor_up[s] {
                                    let shed_before = if hybrid_policy {
                                        monitors[s].stats().snapshot().deferred_shed
                                    } else {
                                        0
                                    };
                                    let outcome = monitors[s].process_txn_at(&txn, at);
                                    last_apply_minute[s] = at.minute_index() as i64;
                                    let day_idx = at.day().min(cfg.end_day) as usize - 1;
                                    report.regen_per_day[day_idx] +=
                                        outcome.regenerated.len() as u64;
                                    // Visible-latency model: replication delay
                                    // (already elapsed at `at`) plus
                                    // regeneration spread over the SMP's
                                    // render workers.
                                    let regen_cost_ms: f64 = outcome
                                        .regenerated
                                        .iter()
                                        .map(|&k| {
                                            monitors[s]
                                                .fleet()
                                                .member(0)
                                                .peek(&k.to_url())
                                                .map(|_| 1.0)
                                                .unwrap_or(0.0)
                                        })
                                        .sum::<f64>()
                                        * 150.0
                                        / 8.0;
                                    let applied_at =
                                        at + SimDuration::from_secs_f64(regen_cost_ms / 1_000.0);
                                    let visible = applied_at - commit_at;
                                    report.freshness.push(visible.as_secs_f64());
                                    freshness_hist.record(visible.as_secs_f64());
                                    report.freshness_max =
                                        report.freshness_max.max(visible.as_secs_f64());
                                    if let Some(p) = pending_traces.get_mut(&txn.id) {
                                        let site = SITES[s].name;
                                        let dist = p.trace.add_child(
                                            p.root,
                                            "nagano_cluster_distribute",
                                            format!("site={site}"),
                                            commit_at,
                                            at,
                                        );
                                        let odg = p.trace.add_child(
                                            dist,
                                            "nagano_odg_traversal",
                                            format!("site={site} visited={}", outcome.visited),
                                            at,
                                            at,
                                        );
                                        let apply = p.trace.add_child(
                                            odg,
                                            "nagano_cache_apply",
                                            format!(
                                                "site={site} regenerated={} invalidated={} tolerated={}",
                                                outcome.regenerated.len(),
                                                outcome.invalidated.len(),
                                                outcome.tolerated.len()
                                            ),
                                            at,
                                            applied_at,
                                        );
                                        if hybrid_policy {
                                            p.trace.add_child(
                                                apply,
                                                "nagano_trigger_rank",
                                                format!(
                                                    "site={site} hot={} cold={}",
                                                    outcome.regenerated.len()
                                                        + outcome.deferred.len(),
                                                    outcome.invalidated.len()
                                                ),
                                                at,
                                                at,
                                            );
                                            if !outcome.deferred.is_empty() {
                                                p.trace.add_child(
                                                    apply,
                                                    "nagano_trigger_defer",
                                                    format!(
                                                        "site={site} pages={}",
                                                        outcome.deferred.len()
                                                    ),
                                                    at,
                                                    at,
                                                );
                                            }
                                            let shed = monitors[s]
                                                .stats()
                                                .snapshot()
                                                .deferred_shed
                                                .saturating_sub(shed_before);
                                            if shed > 0 {
                                                p.trace.add_child(
                                                    apply,
                                                    "nagano_trigger_shed",
                                                    format!("site={site} pages={shed}"),
                                                    at,
                                                    at,
                                                );
                                            }
                                        }
                                        p.apply_span[s] = Some(apply);
                                        p.applied += 1;
                                        for &k in outcome
                                            .regenerated
                                            .iter()
                                            .chain(outcome.invalidated.iter())
                                        {
                                            fresh_waiting[s].insert(k, txn.id);
                                        }
                                    }
                                }
                                // Schaumburg re-publishes to its chained
                                // sites.
                                if s == 0 {
                                    for chained in [2, 3] {
                                        ship(
                                            &mut queue,
                                            &mut fault_rng,
                                            &edge_fault,
                                            &mut report.replication_dropped,
                                            &dropped_total,
                                            chained,
                                            at,
                                            &txn,
                                        );
                                    }
                                }
                            }
                            DeliverOutcome::Duplicate => {
                                report.replication_duplicates += 1;
                            }
                            DeliverOutcome::Gap { .. } => {
                                // A message ahead of the watermark arrived:
                                // something before it was lost or reordered.
                                // Pull the gap shortly (one pull covers any
                                // number of gap signals).
                                if !catchup_pending[s] && !gave_up[s] {
                                    catchup_pending[s] = true;
                                    queue.schedule(
                                        at + SimDuration::from_secs(1),
                                        SimEvent::CatchUp(s),
                                    );
                                }
                            }
                        }
                    }
                    SimEvent::CatchUp(s) => {
                        catchup_pending[s] = false;
                        let mut edge = if s == 0 && failed_over {
                            DR_EDGE
                        } else {
                            PRIMARY_FEED[s]
                        };
                        // A partitioned primary Schaumburg feed triggers the
                        // paper's disaster-recovery path: re-feed from
                        // Tokyo's re-published log.
                        if s == 0
                            && !failed_over
                            && matches!(edge_fault[edge], Some(LinkFault::Partition))
                            && !matches!(edge_fault[DR_EDGE], Some(LinkFault::Partition))
                        {
                            replicas[0].fail_over(&replicas[3]);
                            failed_over = true;
                            edge = DR_EDGE;
                        }
                        let fault = edge_fault[edge];
                        let attempt_fails = match fault {
                            Some(LinkFault::Partition) => true,
                            Some(LinkFault::Lossy { drop_permille }) => {
                                fault_rng.chance(drop_permille as f64 / 1000.0)
                            }
                            _ => false,
                        };
                        if attempt_fails {
                            report.retries += 1;
                            retries_total.incr();
                            catchup_attempts[s] += 1;
                            if catchup_attempts[s] <= MAX_CATCHUP_RETRIES {
                                let backoff =
                                    CATCHUP_BASE_BACKOFF_SECS << (catchup_attempts[s] - 1).min(6);
                                catchup_pending[s] = true;
                                queue.schedule(
                                    at + SimDuration::from_secs(backoff),
                                    SimEvent::CatchUp(s),
                                );
                            } else {
                                // Quiesce until the link heals; the heal
                                // entry reschedules the pull.
                                gave_up[s] = true;
                            }
                        } else {
                            catchup_attempts[s] = 0;
                            gave_up[s] = false;
                            // The pull pays the edge's base transfer delay
                            // (plus any injected extra latency) — catching
                            // up is replication, not teleportation.
                            let mut pull_secs = REPLICATION_EDGES[edge].base_delay_secs;
                            if let Some(LinkFault::Delay { extra_secs }) = fault {
                                pull_secs += extra_secs;
                            }
                            let applied_at = at + SimDuration::from_secs(pull_secs);
                            let missed = replicas[s].catch_up();
                            if !missed.is_empty() {
                                for txn in &missed {
                                    report.updates_applied += 1;
                                    applied_total.incr();
                                    report.catch_up_applied += 1;
                                    catch_up_total.incr();
                                    let staleness = (applied_at
                                        - commit_times[txn.id.0 as usize - 1])
                                        .as_secs_f64();
                                    report.staleness_hist.record(staleness);
                                    staleness_hists[s].record(staleness);
                                    report.staleness_max = report.staleness_max.max(staleness);
                                }
                                if monitor_up[s] {
                                    // One DUP propagation over the union of
                                    // the pulled transactions.
                                    let outcome = monitors[s].process_batch_at(&missed, applied_at);
                                    last_apply_minute[s] = applied_at.minute_index() as i64;
                                    let day_idx = applied_at.day().min(cfg.end_day) as usize - 1;
                                    report.regen_per_day[day_idx] +=
                                        outcome.regenerated.len() as u64;
                                    // Lineage under faults: these txns
                                    // reached the site by pull, and the
                                    // batch DUP pass is attributed to the
                                    // newest of them (its write wins).
                                    let site = SITES[s].name;
                                    for txn in &missed {
                                        if let Some(p) = pending_traces.get_mut(&txn.id) {
                                            let commit_at = commit_times[txn.id.0 as usize - 1];
                                            let dist = p.trace.add_child(
                                                p.root,
                                                "nagano_cluster_distribute",
                                                format!("site={site} via=catch-up"),
                                                commit_at,
                                                applied_at,
                                            );
                                            let apply = p.trace.add_child(
                                                dist,
                                                "nagano_cache_apply",
                                                format!("site={site} via=catch-up"),
                                                applied_at,
                                                applied_at,
                                            );
                                            p.apply_span[s] = Some(apply);
                                            p.applied += 1;
                                        }
                                    }
                                    if let Some(last) = missed.last() {
                                        if pending_traces.contains_key(&last.id) {
                                            for &k in outcome
                                                .regenerated
                                                .iter()
                                                .chain(outcome.invalidated.iter())
                                            {
                                                fresh_waiting[s].insert(k, last.id);
                                            }
                                        }
                                    }
                                }
                                if s == 0 {
                                    for txn in &missed {
                                        for chained in [2, 3] {
                                            ship(
                                                &mut queue,
                                                &mut fault_rng,
                                                &edge_fault,
                                                &mut report.replication_dropped,
                                                &dropped_total,
                                                chained,
                                                applied_at,
                                                txn,
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                    SimEvent::DataFault(i) => {
                        let entry = cfg.fault_plan[i];
                        match entry.kind {
                            DataFaultKind::Link { edge, fault } => {
                                if !entry.up {
                                    edge_fault[edge] = Some(fault);
                                } else {
                                    edge_fault[edge] = None;
                                    if edge == 0 && failed_over {
                                        replicas[0].restore_primary();
                                        failed_over = false;
                                    }
                                    let s = REPLICATION_EDGES[edge].to;
                                    gave_up[s] = false;
                                    catchup_attempts[s] = 0;
                                    if !catchup_pending[s] {
                                        catchup_pending[s] = true;
                                        queue.schedule(
                                            at + SimDuration::from_secs(1),
                                            SimEvent::CatchUp(s),
                                        );
                                    }
                                    watches.push(ConvergenceRecord {
                                        label: format!(
                                            "{} {:?}",
                                            REPLICATION_EDGES[edge].name, fault
                                        ),
                                        site: s,
                                        healed_at: at,
                                        converged_at: None,
                                    });
                                }
                            }
                            DataFaultKind::MonitorCrash { site } => {
                                if !entry.up {
                                    monitor_up[site] = false;
                                } else {
                                    monitor_up[site] = true;
                                    // Restart: resume from the monitor's
                                    // processed watermark — replay the local
                                    // log tail through DUP so no stale page
                                    // survives recovery.
                                    let missed = replicas[site]
                                        .local_log()
                                        .since(TxnId(monitors[site].watermark()));
                                    let outcome = monitors[site].recover_at(&missed, at);
                                    report.recoveries += 1;
                                    last_apply_minute[site] = at.minute_index() as i64;
                                    let day_idx = at.day().min(cfg.end_day) as usize - 1;
                                    report.regen_per_day[day_idx] +=
                                        outcome.regenerated.len() as u64;
                                    // Lineage: the replica already held the
                                    // log tail (distribution happened while
                                    // the monitor was down); recovery is the
                                    // DUP replay that makes caches catch up.
                                    let site_name = SITES[site].name;
                                    for txn in &missed {
                                        if let Some(p) = pending_traces.get_mut(&txn.id) {
                                            let odg = p.trace.add_child(
                                                p.root,
                                                "nagano_odg_traversal",
                                                format!("site={site_name} via=recovery"),
                                                at,
                                                at,
                                            );
                                            let apply = p.trace.add_child(
                                                odg,
                                                "nagano_cache_apply",
                                                format!("site={site_name} via=recovery"),
                                                at,
                                                at,
                                            );
                                            p.apply_span[site] = Some(apply);
                                            p.applied += 1;
                                        }
                                    }
                                    if let Some(last) = missed.last() {
                                        if pending_traces.contains_key(&last.id) {
                                            for &k in outcome
                                                .regenerated
                                                .iter()
                                                .chain(outcome.invalidated.iter())
                                            {
                                                fresh_waiting[site].insert(k, last.id);
                                            }
                                        }
                                    }
                                    for txn in &missed {
                                        let staleness = (at - commit_times[txn.id.0 as usize - 1])
                                            .as_secs_f64();
                                        report.staleness_hist.record(staleness);
                                        staleness_hists[site].record(staleness);
                                        report.staleness_max = report.staleness_max.max(staleness);
                                    }
                                    watches.push(ConvergenceRecord {
                                        label: format!("monitor-crash {}", SITES[site].name),
                                        site,
                                        healed_at: at,
                                        converged_at: None,
                                    });
                                }
                            }
                        }
                    }
                    SimEvent::Failure(i) => {
                        let entry = cfg.failure_plan[i];
                        cluster.apply(entry.kind, entry.up);
                    }
                    SimEvent::ServingFault(i) => {
                        let entry = cfg.serving_fault_plan[i];
                        match entry.kind {
                            ServingFaultKind::RenderSlowdown { site, factor } => {
                                slowdown[site] = if entry.up { 1.0 } else { factor };
                            }
                            ServingFaultKind::BackendOutage { site } => {
                                backend_down[site] = !entry.up;
                            }
                            ServingFaultKind::CacheShardCrash { site, node } => {
                                // Cold restart: live entries, tombstones,
                                // and coalescing state all vanish — the
                                // stampede window single-flight flattens.
                                let fleet = monitors[site].fleet();
                                fleet.member(node.min(fleet.len() - 1)).clear();
                                inflight[site].clear();
                            }
                        }
                    }
                    SimEvent::TelemetryFlush => {
                        let hour = at.minute_index() / 60;
                        slo_engine.observe_hour(hour, &telemetry.registry);
                        if cfg.export_dir.is_some() {
                            hourly_snapshots.push(format!(
                                "{{\"hour\":{hour},\"snapshot\":{}}}",
                                json_snapshot(&telemetry.registry)
                            ));
                        }
                    }
                }
            }

            // Hotness heartbeat: fold each fleet's window-hit counters into
            // its EWMA, then give the Hybrid deferred queue a budgeted
            // drain slice (no-op under other policies). Runs during the
            // settle tail too so deferred work cannot be stranded.
            for s in 0..SITES.len() {
                monitors[s].fleet().fold_hotness(minute);
                // Expire over-age tombstones so the stale maps stay
                // bounded by the policy, not the run length.
                monitors[s].fleet().member(0).prune_stale();
                if monitor_up[s] {
                    let drained = monitors[s].drain_deferred(minute_end);
                    if !drained.is_empty() {
                        let day_idx = minute_end.day().min(cfg.end_day) as usize - 1;
                        report.regen_per_day[day_idx] += drained.len() as u64;
                        last_apply_minute[s] = minute_end.minute_index() as i64;
                    }
                }
            }

            // Data-plane heartbeat: refresh lag gauges, schedule catch-up
            // pulls across faulted feeds (and across the DR re-feed while
            // failed over — it is pull-only, nothing streams on it), and
            // close convergence watches.
            for s in 0..SITES.len() {
                lag_gauges[s].set(replicas[s].lag());
                let feed_edge = if s == 0 && failed_over {
                    DR_EDGE
                } else {
                    PRIMARY_FEED[s]
                };
                let behind = replicas[s].feed_len() > replicas[s].applied().0;
                let pull_needed = (s == 0 && failed_over) || edge_fault[feed_edge].is_some();
                if behind && pull_needed && !catchup_pending[s] && !gave_up[s] {
                    catchup_pending[s] = true;
                    queue.schedule(minute_end, SimEvent::CatchUp(s));
                }
            }
            if !watches.is_empty() {
                let master_len = db.log().len() as u64;
                for w in watches.iter_mut().filter(|w| w.converged_at.is_none()) {
                    let applied = replicas[w.site].applied().0;
                    if monitor_up[w.site]
                        && applied == master_len
                        && monitors[w.site].watermark() == applied
                    {
                        w.converged_at = Some(minute_end);
                    }
                }
            }
            if minute >= end_min {
                continue; // settle tail: no client traffic past the horizon
            }

            // Generate this minute's client requests.
            let t_mid = SimTime::from_mins(minute) + SimDuration::from_secs(30);
            let count = model.sample_minute_count(t_mid, &mut req_rng);
            let day = t_mid.day();
            let day_idx = day.min(cfg.end_day) as usize - 1;
            for _ in 0..count {
                report.total_requests += 1;
                requests_total.incr();
                // Deterministic 1-in-N sampling keeps the serving-trace
                // ring representative without recording every request.
                let sampled = report.total_requests % SERVING_TRACE_SAMPLE == 1;
                let mut trace =
                    sampled.then(|| Trace::new(TraceKind::Serving, report.total_requests));
                let sample = model.sample_request(t_mid, &mut req_rng);
                *report.by_region.entry(sample.region).or_insert(0) += 1;
                let addr = cluster.next_dns_address();
                let adverts = cluster.adverts(&msirp, addr);
                let RouteDecision::Site(site) = msirp.route(sample.region, addr, &adverts) else {
                    report.failed_requests += 1;
                    failed_total.incr();
                    if let Some(mut trace) = trace {
                        trace.span_with("nagano_cluster_route", "no-site", t_mid, t_mid);
                        telemetry.serving.push(trace);
                    }
                    continue;
                };
                let route_idx = trace.as_mut().map(|tr| {
                    tr.add_span(
                        "nagano_cluster_route",
                        format!(
                            "region={} site={}",
                            sample.region.label(),
                            SITES[site.0].name
                        ),
                        t_mid,
                        t_mid,
                    )
                });
                // Dispatcher picks a node (advisors skip dead ones); with
                // a single logical cache per site the node only matters
                // for load accounting.
                if cluster.site_mut(site).pick_node().is_none() {
                    report.failed_requests += 1;
                    failed_total.incr();
                    httpd_metrics[site.0].observe(503, 0);
                    if let Some(mut trace) = trace {
                        let route = route_idx.expect("sampled trace has a route span");
                        trace.add_child(route, "nagano_cluster_dispatch", "no-node", t_mid, t_mid);
                        telemetry.serving.push(trace);
                    }
                    continue;
                }
                let url = sample.page.to_url();
                let monitor = &monitors[site.0];
                monitor.observe_request(sample.page, t_mid);
                let member = monitor.fleet().member(0);
                let now_secs = t_mid.as_secs_f64();
                let budget = res.request_budget_secs;
                let flight = inflight[site.0].get(&url).copied().filter(|&d| d > t_mid);
                let served: Option<(u64, f64, bool)> = match monitor.fleet().get_from(0, &url) {
                    Some(page) => {
                        if let Some(done_at) = flight {
                            // The body is cached but its regeneration
                            // is still in flight from an earlier
                            // request: this follower coalesces onto
                            // the flight and waits out the remainder
                            // instead of rendering again.
                            member.stats_handle().coalesce();
                            let wait_secs = (done_at - t_mid).as_secs_f64();
                            if wait_secs <= budget {
                                Some((page.body.len() as u64, 0.5 + wait_secs * 1_000.0, false))
                            } else if let Some(stale) = member.serve_stale(&url) {
                                Some((stale.body.len() as u64, 0.5, false))
                            } else {
                                Some((page.body.len() as u64, 0.5 + wait_secs * 1_000.0, false))
                            }
                        } else {
                            Some((page.body.len() as u64, 0.5, true))
                        }
                    }
                    None if backend_down[site.0] => {
                        inflight[site.0].remove(&url);
                        let breaker = &mut breakers[site.0];
                        let mut latency_ms = 0.5;
                        if breaker.allow(now_secs) {
                            // One failed render attempt; the bounded
                            // seeded-backoff retry loop only runs when
                            // no stale copy can answer instead.
                            breaker.record_failure(now_secs);
                            latency_ms += 5.0;
                            if member.peek_stale(&url).is_none() {
                                let mut backoff = RetryBackoff::new(
                                    res.retry_base_secs,
                                    res.retry_max_secs,
                                    res.retry_max_attempts,
                                );
                                while let Some(delay) = backoff.next_delay(&mut resilience_rng) {
                                    breaker.record_failure(now_secs);
                                    report.render_retries += 1;
                                    latency_ms += 5.0 + delay * 1_000.0;
                                }
                            }
                        }
                        member
                            .serve_stale(&url)
                            .map(|stale| (stale.body.len() as u64, latency_ms, false))
                    }
                    None => {
                        inflight[site.0].remove(&url);
                        // This request leads the regeneration; an
                        // active slowdown stretches the modelled cost.
                        let stale_before = member.peek_stale(&url);
                        let out = monitor.demand_fill(0, sample.page);
                        report.demand_fills += 1;
                        let breaker = &mut breakers[site.0];
                        breaker.allow(now_secs); // half-open probe when recovering
                        breaker.record_success();
                        if let Some(s) = &stale_before {
                            report.stale_regens += 1;
                            *stale_regen_pairs
                                .entry((site.0, url.clone(), s.epoch))
                                .or_insert(0) += 1;
                        }
                        let cost_ms = out.cost_ms * slowdown[site.0];
                        let done_at = t_mid + SimDuration::from_secs_f64(cost_ms / 1_000.0);
                        inflight[site.0].insert(url.clone(), done_at);
                        if cost_ms / 1_000.0 <= budget {
                            Some((out.body.len() as u64, cost_ms, false))
                        } else if let Some(stale) = stale_before {
                            // Deadline exceeded: answer from the
                            // tombstone now — the fresh body already
                            // landed for the next request.
                            member.stats_handle().stale_serve();
                            Some((stale.body.len() as u64, 0.5, false))
                        } else {
                            Some((out.body.len() as u64, cost_ms, false))
                        }
                    }
                };
                let Some((bytes, mut server_ms, cache_hit)) = served else {
                    // Backend down, breaker open or retries exhausted, and
                    // no stale copy within its age bound: the 503 path.
                    report.failed_requests += 1;
                    failed_total.incr();
                    httpd_metrics[site.0].observe(503, 0);
                    if let Some(mut trace) = trace {
                        let route = route_idx.expect("sampled trace has a route span");
                        let lookup =
                            trace.add_child(route, "nagano_cache_lookup", "miss", t_mid, t_mid);
                        trace.add_child(
                            lookup,
                            "nagano_pagegen_render",
                            "backend-down",
                            t_mid,
                            t_mid,
                        );
                        telemetry.serving.push(trace);
                    }
                    continue;
                };
                // §2: in the 1996 design the serving processors also ran
                // the updates, so service slows in the minutes around an
                // apply (regeneration competes for the same CPUs).
                let near_update = (minute as i64)
                    .saturating_sub(last_apply_minute[site.0])
                    .unsigned_abs()
                    <= 2;
                if cfg.updates_on_serving_nodes && near_update {
                    server_ms = server_ms * 8.0 + 150.0;
                }
                if near_update {
                    report.service_near_updates.push(server_ms);
                } else {
                    report.service_away_from_updates.push(server_ms);
                }
                report.serve_latency.record(server_ms / 1_000.0);
                report.per_minute.incr(t_mid);
                report.per_site_minute[site.0].incr(t_mid);
                report.bytes_per_day[day_idx] += bytes as f64;
                httpd_metrics[site.0].observe(200, bytes);

                // Update-lineage leaf: the first request that serves one
                // of an update's refreshed pages closes that site's branch
                // of the propagation tree, and the commit → serve gap is
                // the end-to-end freshness sample. Requests are generated
                // at the minute midpoint, so a request can precede an
                // apply recorded later in the same minute — leave the
                // entry for the next request in that case.
                if let Some(&txn_id) = fresh_waiting[site.0].get(&sample.page) {
                    match pending_traces.get_mut(&txn_id) {
                        Some(p) if !p.served[site.0] => {
                            let apply = p.apply_span[site.0].unwrap_or(p.root);
                            let apply_end = p.trace.spans[apply].end;
                            if t_mid >= apply_end {
                                fresh_waiting[site.0].remove(&sample.page);
                                p.served[site.0] = true;
                                let commit_at = commit_times[txn_id.0 as usize - 1];
                                p.trace.add_child(
                                    apply,
                                    "nagano_cache_first_fresh_hit",
                                    format!("site={} url={url}", SITES[site.0].name),
                                    apply_end,
                                    t_mid,
                                );
                                update_to_serve_hist.record((t_mid - commit_at).as_secs_f64());
                                if p.applied == SITES.len() && p.served.iter().all(|&done| done) {
                                    let p = pending_traces.remove(&txn_id).expect("pending trace");
                                    telemetry.propagation.push(p.trace);
                                }
                            }
                        }
                        _ => {
                            // The owning trace already served this site
                            // through another page (or completed): the
                            // claim is stale.
                            fresh_waiting[site.0].remove(&sample.page);
                        }
                    }
                }

                if let Some(mut trace) = trace {
                    let done = t_mid + SimDuration::from_secs_f64(server_ms / 1_000.0);
                    let route = route_idx.expect("sampled trace has a route span");
                    let lookup = trace.add_child(
                        route,
                        "nagano_cache_lookup",
                        if cache_hit { "hit" } else { "miss" },
                        t_mid,
                        t_mid,
                    );
                    trace.add_child(
                        lookup,
                        "nagano_pagegen_render",
                        format!("url={url} bytes={bytes}"),
                        t_mid,
                        done,
                    );
                    telemetry.serving.push(trace);
                }

                // Response-time sampling: the paper's Figure 22 methodology
                // (28.8 kbps modem fetching the current home page).
                if sample.link == LinkClass::Modem28_8 {
                    if let PageKey::Home(_) = sample.page {
                        let mut link = LinkModel::new(LinkClass::Modem28_8);
                        let (c_lo, c_hi, factor) = cfg.us_congestion;
                        let is_us = matches!(sample.region, Region::UsEast | Region::UsWest);
                        if is_us && (c_lo..=c_hi).contains(&day) {
                            link = link.with_congestion(factor);
                        }
                        let server = SimDuration::from_secs_f64(
                            (server_ms + region_latency_ms(sample.region, site)) / 1_000.0,
                        );
                        let est = link.sample(bytes, server, &mut req_rng);
                        report
                            .response_by_day_region
                            .entry((day, sample.region))
                            .or_default()
                            .push(est.response_secs);
                        report.modem_responses.record(est.response_secs);
                    }
                }
            }
        }

        // Updates still awaiting an apply or a serve at the horizon flush
        // as-is, in transaction order, so same-seed runs export identical
        // trace sets.
        let mut unfinished: Vec<(TxnId, PendingTrace)> = pending_traces.into_iter().collect();
        unfinished.sort_by_key(|(id, _)| id.0);
        for (_, p) in unfinished {
            telemetry.propagation.push(p.trace);
        }

        // Aggregate cache stats across sites.
        let mut agg = StatsSnapshot::default();
        for m in &monitors {
            let s = m.fleet().aggregate_stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.inserts += s.inserts;
            agg.updates += s.updates;
            agg.invalidations += s.invalidations;
            agg.evictions += s.evictions;
            agg.bytes_current += s.bytes_current;
            agg.bytes_peak += s.bytes_peak;
            agg.stale_served += s.stale_served;
            agg.coalesced += s.coalesced;
        }
        report.cache = agg;
        report.stale_regen_keys = stale_regen_pairs.len() as u64;
        report.breaker_trips = breakers.iter().map(CircuitBreaker::trips).sum();
        for m in &monitors {
            let s = m.stats().snapshot();
            report.regen_cpu_ms += s.regen_cpu_ms;
            report.regen_saved_ms += s.regen_saved_ms;
            report.weighted_staleness_sum_secs += s.weighted_staleness_sum_secs;
            report.weighted_staleness_samples += s.weighted_staleness_count;
        }
        report.freshness_hist = freshness_hist.snapshot();
        report.update_to_serve = update_to_serve_hist.snapshot();
        report.slo = slo_engine.finish(&telemetry.registry);
        report.master_txns = db.log().len() as u64;
        for s in 0..SITES.len() {
            report.site_watermarks[s] = replicas[s].applied().0;
            report.monitor_watermarks[s] = monitors[s].watermark();
        }
        report.convergence = watches;

        if cfg.audit_convergence {
            // Prove cache convergence the hard way: re-render every
            // registry page and compare bodies against each site's cache.
            // An absent entry is safe (invalidate policy, eviction, cold);
            // a *mismatching* body is a stale page.
            let renderer = Renderer::new(Arc::clone(&db));
            let mut stale = 0u64;
            for (key, _) in registry.pages() {
                let fresh = renderer.render(*key);
                for m in &monitors {
                    if let Some(cached) = m.fleet().member(0).peek(&key.to_url()) {
                        if cached.body != fresh.body {
                            stale += 1;
                        }
                    }
                }
            }
            report.stale_pages = Some(stale);
        }

        if let Some(dir) = &cfg.export_dir {
            // Export failures (read-only fs, missing parents) must not
            // invalidate a completed multi-minute simulation; the report
            // itself still carries the full telemetry.
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(
                dir.join("metrics.prom"),
                prometheus_text(&telemetry.registry),
            );
            let _ = std::fs::write(dir.join("metrics.json"), json_snapshot(&telemetry.registry));
            let mut lines = hourly_snapshots.join("\n");
            lines.push('\n');
            let _ = std::fs::write(dir.join("telemetry_hourly.jsonl"), lines);
            let mut traces = String::new();
            for t in telemetry
                .propagation
                .traces()
                .iter()
                .chain(telemetry.serving.traces().iter())
            {
                traces.push_str(&t.to_json());
                traces.push('\n');
            }
            let _ = std::fs::write(dir.join("traces.jsonl"), traces);
            let _ = std::fs::write(dir.join("slo.json"), slo_json(&report.slo));
        }
        report
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
        cfg.slo_rules = vec!["impossible: 99% of nagano_cluster_freshness_seconds < 0.002".into()];
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
            report.cache.stale_served > 0,
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
        let report = ClusterSim::new(cfg).run();
        assert!(
            report.availability() >= 0.99,
            "availability {}",
            report.availability()
        );
        // Staleness is bounded by the policy: a served tombstone can
        // never be older than the configured max age.
        let max_age = ServingResilience::default().stale.max_age_secs;
        assert!(report.serve_latency.count() > 0);
        assert!(max_age <= 900.0);
        // p99 latency stays visible (and finite) through the slowdown.
        assert!(report.serve_latency.percentile(99.0).is_finite());
    }

    #[test]
    fn resilience_runs_are_deterministic() {
        let mut cfg = resilience_config();
        cfg.serving_fault_plan = crate::faults::scripted_serving_plan(10);
        let a = ClusterSim::new(cfg.clone()).run();
        let b = ClusterSim::new(cfg).run();
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.failed_requests, b.failed_requests);
        assert_eq!(a.cache.stale_served, b.cache.stale_served);
        assert_eq!(a.cache.coalesced, b.cache.coalesced);
        assert_eq!(a.demand_fills, b.demand_fills);
        assert_eq!(a.stale_regens, b.stale_regens);
        assert_eq!(a.render_retries, b.render_retries);
        assert_eq!(a.breaker_trips, b.breaker_trips);
    }

    #[test]
    fn a_fault_free_run_keeps_the_serving_counters_quiet() {
        let report = ClusterSim::new(quick_config()).run();
        assert_eq!(report.cache.stale_served, 0);
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
