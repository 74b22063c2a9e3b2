//! The [`ServingSite`] facade: one SP2-complex worth of the production
//! system — database, renderer, trigger monitor, and a fleet of serving
//! caches — behind a small API.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use nagano_cache::{
    CacheConfig, CacheFleet, FlightOutcome, FlightToken, PageCache, StaleCopy, StatsSnapshot,
};
use nagano_db::{seed_games, EventId, GamesConfig, OlympicDb};
use nagano_httpd::{none_match, Handler, Request, Response, RetryAfterHint, Server, ServerConfig};
use nagano_odg::StalenessPolicy;
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::sync::Mutex;
use nagano_trigger::{
    ConsistencyPolicy, PageUrls, TriggerMonitor, TriggerRunner, TriggerStatsSnapshot,
};

use crate::resilience::CircuitBreaker;
use crate::serve::{self, Decision, Observation, Render};

/// Configuration for a serving site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Synthetic Games dimensions.
    pub games: GamesConfig,
    /// Number of serving caches (the production SP2 had eight serving
    /// UPs per frame).
    pub fleet_size: usize,
    /// Per-cache configuration.
    pub cache: CacheConfig,
    /// Consistency policy for the trigger monitor.
    pub policy: ConsistencyPolicy,
    /// DUP staleness policy.
    pub staleness: StalenessPolicy,
    /// Per-request latency budget in seconds: a miss that coalesces onto
    /// another node-local regeneration waits at most this long before
    /// falling back to a stale copy, and a miss whose own render takes
    /// longer is answered from the stale copy (DESIGN.md §11a).
    pub request_budget_secs: f64,
}

impl SiteConfig {
    /// Paper-scale Games, eight serving caches, update-in-place.
    pub fn full() -> Self {
        SiteConfig {
            games: GamesConfig::full(),
            fleet_size: 8,
            cache: CacheConfig::default(),
            policy: ConsistencyPolicy::UpdateInPlace,
            staleness: StalenessPolicy::Strict,
            request_budget_secs: 2.0,
        }
    }

    /// Small Games for tests and examples.
    pub fn small() -> Self {
        SiteConfig {
            games: GamesConfig::small(),
            fleet_size: 2,
            ..Self::full()
        }
    }
}

/// A page served by the site.
#[derive(Debug, Clone)]
pub struct ServedPage {
    /// The page body.
    pub body: Bytes,
    /// Whether it came from the cache (vs generated on demand).
    pub cache_hit: bool,
    /// Server-side cost in modelled CPU milliseconds.
    pub cost_ms: f64,
    /// Cache version of the entry: 1 on first insert, bumped by every
    /// in-place update that changes the bytes — a regeneration that
    /// reproduces them keeps it. Doubles as the HTTP entity tag, so a
    /// client holding it is answered `304` for as long as the page reads
    /// the same, however often DUP had the page re-derived in between.
    pub version: u64,
    /// Whether the body is a tombstoned stale copy served because fresh
    /// regeneration was unavailable within budget (serve-stale-on-error).
    pub stale: bool,
}

impl ServedPage {
    /// A page answered from what a cache holds, as a miss.
    fn cached(body: Bytes, version: u64, stale: bool) -> Self {
        ServedPage {
            body,
            cache_hit: false,
            cost_ms: 0.5,
            version,
            stale,
        }
    }

    /// A miss answered from `member`'s tombstone, counted as a stale serve.
    fn stale(member: &PageCache, copy: StaleCopy) -> Self {
        member.stats_handle().stale_serve();
        ServedPage::cached(copy.body, copy.version, true)
    }
}

/// Result of one [`ServingSite::pump`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpOutcome {
    /// Transactions processed.
    pub txns: u64,
    /// Pages regenerated in place.
    pub regenerated: u64,
    /// Pages invalidated.
    pub invalidated: u64,
}

/// Point-in-time metrics for the site.
#[derive(Debug, Clone, Copy)]
pub struct SiteMetrics {
    /// Aggregated cache statistics over the fleet.
    pub cache: StatsSnapshot,
    /// Trigger-monitor statistics.
    pub trigger: TriggerStatsSnapshot,
    /// Object dependence graph size (nodes, edges).
    pub odg: (usize, usize),
    /// Number of pages in the registry.
    pub pages: usize,
}

/// One serving complex: database + trigger monitor + cache fleet.
pub struct ServingSite {
    db: Arc<OlympicDb>,
    registry: Arc<PageRegistry>,
    monitor: Arc<TriggerMonitor>,
    fleet: Arc<CacheFleet>,
    txn_rx: crossbeam::channel::Receiver<Arc<nagano_db::Transaction>>,
    marquee: (EventId, EventId),
    /// Breaker around the render/db backend, visible in `/status`. The
    /// live site has no wall clock: breaker time is the request tick
    /// count, so `open_secs: 10` means "fail fast for ten requests".
    breaker: Mutex<CircuitBreaker>,
    /// Monotonic request counter doubling as the breaker's clock.
    ticks: AtomicU64,
    request_budget_secs: f64,
    /// Live `Retry-After` advisory for shed 503s, derived from breaker
    /// state; installed into servers bound via [`ServingSite::serve_http`].
    retry_hint: RetryAfterHint,
}

impl ServingSite {
    /// Seed the Games, build the registry, construct the trigger monitor,
    /// and prewarm every page (the production prefetch).
    pub fn build(config: SiteConfig) -> Self {
        let db = Arc::new(OlympicDb::new());
        let marquee = seed_games(&db, &config.games);
        let registry = Arc::new(PageRegistry::build(&db, config.games.days));
        let fleet = Arc::new(CacheFleet::with_keys(
            config.fleet_size,
            config.cache.clone(),
            PageUrls::of(&registry),
        ));
        let monitor = Arc::new(TriggerMonitor::new(
            Renderer::new(Arc::clone(&db)),
            Arc::clone(&fleet),
            Arc::clone(&registry),
            config.policy,
        ));
        monitor.set_staleness_policy(config.staleness);
        let txn_rx = db.subscribe();
        monitor.prewarm();
        ServingSite {
            db,
            registry,
            monitor,
            fleet,
            txn_rx,
            marquee,
            breaker: Mutex::new(CircuitBreaker::default()),
            ticks: AtomicU64::new(0),
            request_budget_secs: config.request_budget_secs,
            retry_hint: RetryAfterHint::default(),
        }
    }

    /// The site database (mutations here feed the trigger monitor).
    pub fn db(&self) -> &Arc<OlympicDb> {
        &self.db
    }

    /// The page registry.
    pub fn registry(&self) -> &Arc<PageRegistry> {
        &self.registry
    }

    /// The trigger monitor.
    pub fn monitor(&self) -> &Arc<TriggerMonitor> {
        &self.monitor
    }

    /// The serving cache fleet. Its pages are keyed by slot in the
    /// registry's page space ([`PageRegistry::space`]); a URL names one
    /// through the fleet's [`PageUrls`] key space.
    pub fn fleet(&self) -> &Arc<CacheFleet> {
        &self.fleet
    }

    /// The marquee event ids `(figure_skating, ski_jumping)` pinned by the
    /// seeder.
    pub fn marquee_events(&self) -> (EventId, EventId) {
        self.marquee
    }

    /// Serve one request path from serving node `node` — the FastCGI
    /// server-program path: check the cache; on a miss, coalesce onto any
    /// in-flight regeneration of the same page (single-flight), otherwise
    /// generate, cache locally, and register dependencies. When the
    /// breaker is open, or a coalesced wait or the render overruns the
    /// request budget, a tombstoned stale copy is served instead
    /// (`stale: true`; [`crate::serve`] has the table). Returns `None` for
    /// paths that are not part of the site: a path that does not parse,
    /// or names a day, entity or story the Games do not have.
    pub fn handle(&self, node: usize, path: &str) -> Option<ServedPage> {
        let (key, slot) = self.page(path)?;
        Some(self.serve(node, key, slot))
    }

    /// The page `path` names and its slot, if it is a page of the site.
    fn page(&self, path: &str) -> Option<(PageKey, u32)> {
        let key = PageKey::parse(path)?;
        Some((key, self.registry.space().slot(key)?))
    }

    /// The one lookup behind [`ServingSite::handle`] and
    /// [`ServingSite::respond`]: take a request tick, look page `key`, in
    /// `slot`, up on `node`, and answer a miss as
    /// [`ServingSite::handle_miss`] does.
    fn serve(&self, node: usize, key: PageKey, slot: u32) -> ServedPage {
        let now = self.ticks.fetch_add(1, Relaxed) as f64;
        match self.fleet.get_from(node, slot) {
            Some(page) => ServedPage {
                cache_hit: true,
                ..ServedPage::cached(page.body, page.version, false)
            },
            None => self.handle_miss(node, key, slot, now),
        }
    }

    /// The slow path of [`ServingSite::serve`]: observe the key's flight,
    /// freshness, tombstone and breaker, and do what [`serve::decide`] says
    /// (DESIGN.md §11a). `now` is the request tick observed before the
    /// cache lookup.
    fn handle_miss(&self, node: usize, key: PageKey, slot: u32, now: f64) -> ServedPage {
        let member = self.fleet.member(node);
        let budget_secs = self.request_budget_secs;
        loop {
            let flight = member.join_or_lead(slot, Duration::from_secs_f64(budget_secs));
            let (fresh, stale) = (member.peek(slot), member.peek_stale(slot));
            let breaker_admits = self.breaker.lock().allow(now);
            let observed = Observation {
                fresh: fresh.is_some(),
                // A follower has waited already: its flight landed, or it
                // did not within the budget.
                flight: match flight {
                    FlightOutcome::Lead(_) => None,
                    FlightOutcome::Joined(_) => Some(0.0),
                    FlightOutcome::TimedOut => Some(f64::INFINITY),
                },
                tombstone: stale.is_some(),
                breaker_admits,
                backend_reachable: true, // the in-process renderer cannot fail
                budget_secs,
            };
            match (serve::decide(&observed), flight) {
                (Decision::Join, FlightOutcome::Joined(page)) => {
                    return ServedPage::cached(page.body, page.version, false)
                }
                // (c) Lead the flight's replacement, or join the follower
                // that leads it.
                (Decision::Join, FlightOutcome::TimedOut) => continue,
                (Decision::Fill, FlightOutcome::Lead(token)) => {
                    return self.fill(node, key, slot, token, stale)
                }
                // Filled between this request's miss and its lead.
                (Decision::Hit, FlightOutcome::Lead(token)) => {
                    member.complete_flight(token, fresh.clone());
                    let page = fresh.expect("the table hits only a fresh entry");
                    return ServedPage::cached(page.body, page.version, false);
                }
                (Decision::ServeStale, flight) => {
                    if let FlightOutcome::Lead(token) = flight {
                        member.complete_flight(token, None);
                    }
                    let copy = stale.expect("the table serves only a held tombstone");
                    return ServedPage::stale(member, copy);
                }
                (decision, _) => unreachable!("{decision:?} for a site's miss"),
            }
        }
    }

    /// Lead the regeneration of `key`: demand-fill it on `node`, record
    /// the success in the breaker (the in-process renderer cannot fail;
    /// the failure edges are the cluster simulation's), hand the page to
    /// the flight's followers, and answer as [`serve::after_render`] says.
    fn fill(
        &self,
        node: usize,
        key: PageKey,
        slot: u32,
        token: FlightToken,
        stale: Option<StaleCopy>,
    ) -> ServedPage {
        #[expect(
            clippy::disallowed_methods,
            reason = "the request budget is a promise to a real client, kept in host time"
        )]
        let started = Instant::now();
        let fill = self.monitor.demand_fill(node, key);
        let secs = started.elapsed().as_secs_f64();
        self.breaker.lock().record_success();
        self.publish_retry_after();
        let member = self.fleet.member(node);
        member.complete_flight(token, member.peek(slot));
        let budget = self.request_budget_secs;
        let decision = serve::after_render(Render::Done { secs }, stale.is_some(), budget);
        match (decision, stale) {
            (Decision::ServeStale, Some(copy)) => ServedPage::stale(member, copy),
            _ => ServedPage {
                cost_ms: fill.cost_ms,
                ..ServedPage::cached(fill.body, fill.version, false)
            },
        }
    }

    /// Serve one parsed HTTP request from serving node `node` — the path
    /// behind [`ServingSite::http_handler`]: the page as
    /// [`ServingSite::handle`] serves it, its body a refcount bump of the
    /// cached buffer, answered `304` when the `If-None-Match` validator
    /// names its version (so revalidating a hit never touches the render
    /// pool) and `200` with that version as the entity tag otherwise.
    pub fn respond(&self, node: usize, req: &Request) -> Response {
        let Some((key, slot)) = self.page(&req.path) else {
            return Response::not_found();
        };
        let page = self.serve(node, key, slot);
        let validator = req.if_none_match.as_deref();
        let mut response = if validator.is_some_and(|field| none_match(field, page.version)) {
            Response::not_modified(page.version)
        } else {
            Response::page(page.body, page.version)
        };
        response.stale = page.stale;
        response
    }

    /// Run `f` against the backend circuit breaker (status inspection,
    /// fault injection in tests). Republish the `Retry-After` hint
    /// afterwards so shed responses reflect the new state.
    pub fn with_breaker<R>(&self, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let r = f(&mut self.breaker.lock());
        self.publish_retry_after();
        r
    }

    /// The live `Retry-After` advisory derived from breaker state. An
    /// open breaker advertises its remaining open window; a healthy site
    /// advertises [`RetryAfterHint::HEALTHY_SECS`].
    pub fn retry_after_hint(&self) -> RetryAfterHint {
        self.retry_hint.clone()
    }

    fn publish_retry_after(&self) {
        let now = self.ticks.load(Relaxed) as f64;
        let window = self.breaker.lock().retry_after_secs(now);
        let secs = if window > 0.0 {
            window.ceil() as u32
        } else {
            RetryAfterHint::HEALTHY_SECS
        };
        self.retry_hint.set_secs(secs);
    }

    /// Synchronously process every transaction committed since the last
    /// pump (tests and replay harnesses; live deployments use
    /// [`ServingSite::spawn_trigger_runner`]).
    pub fn pump(&self) -> PumpOutcome {
        let mut outcome = PumpOutcome::default();
        while let Ok(txn) = self.txn_rx.try_recv() {
            let o = self.monitor.process_txn(&txn);
            outcome.txns += 1;
            outcome.regenerated += o.regenerated.len() as u64;
            outcome.invalidated += o.invalidated.len() as u64;
        }
        outcome
    }

    /// Spawn the background trigger monitor thread over a fresh
    /// subscription (live-deployment shape). Updates committed *after*
    /// this call are processed automatically until the runner is dropped.
    pub fn spawn_trigger_runner(&self) -> TriggerRunner {
        TriggerRunner::spawn(Arc::clone(&self.monitor), self.db.subscribe())
    }

    /// An HTTP handler serving this site from node `node`, with
    /// ETag/If-None-Match revalidation: the cache version is the entity
    /// tag, so browser caches revalidate dynamic pages with a 55-byte 304
    /// instead of a 55 KB transfer — until DUP bumps the version.
    pub fn http_handler(self: &Arc<Self>, node: usize) -> Arc<dyn Handler> {
        let site = Arc::clone(self);
        Arc::new(move |req: &Request| site.respond(node, req))
    }

    /// Bind an HTTP server for serving node `node`. Shed 503s advertise
    /// the site's live breaker-derived `Retry-After`, which replaces the
    /// config's [`ServerConfig::retry_after`].
    pub fn serve_http(
        self: &Arc<Self>,
        addr: &str,
        node: usize,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let config = self.install_retry_hint(config);
        Server::bind(addr, self.http_handler(node), config)
    }

    /// `config` advertising the site's live `Retry-After` hint.
    fn install_retry_hint(&self, config: ServerConfig) -> ServerConfig {
        ServerConfig {
            retry_after: self.retry_hint.clone(),
            ..config
        }
    }

    /// The `/status` JSON document: registry size, ODG dimensions,
    /// trigger progress (transactions, replication watermark, pages
    /// regenerated and how many of them changed — the rest is the no-op
    /// share of update-in-place — were answered by their stamps, and were
    /// patched rather than composed, deferred-regeneration queue depth and
    /// shed count), and per-node cache occupancy. Hand-assembled with
    /// deterministic key order so same-state sites produce byte-identical
    /// documents.
    pub fn status_json(&self) -> String {
        let trig = self.monitor.stats().snapshot();
        let (odg_nodes, odg_edges) = self.monitor.graph_size();
        let (breaker_state, breaker_trips) = {
            let b = self.breaker.lock();
            (b.state_name(), b.trips())
        };
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"pages\":{},\"odg\":{{\"nodes\":{},\"edges\":{}}},\
             \"trigger\":{{\"txns\":{},\"watermark\":{},\"pages_regenerated\":{},\
             \"pages_changed\":{},\"pages_revalidated\":{},\"pages_forgotten\":{},\
             \"pages_patched\":{},\"deferred_depth\":{},\"deferred_shed\":{}}},\
             \"breaker\":{{\"state\":\"{}\",\"trips\":{}}},\"caches\":[",
            self.registry.len(),
            odg_nodes,
            odg_edges,
            trig.txns,
            self.monitor.watermark(),
            trig.pages_regenerated,
            trig.pages_changed,
            trig.pages_revalidated,
            trig.pages_forgotten,
            trig.pages_patched,
            trig.deferred_depth,
            trig.deferred_shed,
            breaker_state,
            breaker_trips,
        ));
        for (i, member) in self.fleet.members().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = member.stats();
            out.push_str(&format!(
                "{{\"node\":{},\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{}}}",
                i,
                member.len(),
                member.bytes(),
                s.hits,
                s.misses,
            ));
        }
        out.push_str("]}");
        out
    }

    /// The page handler for `node` wrapped in an [`nagano_httpd::AdminPlane`]:
    /// `/metrics` scrapes `registry` as Prometheus text, `/healthz`
    /// probes liveness, `/status` returns [`ServingSite::status_json`],
    /// and every other path serves pages as [`ServingSite::http_handler`].
    pub fn admin_handler(
        self: &Arc<Self>,
        node: usize,
        registry: Arc<nagano_telemetry::MetricsRegistry>,
    ) -> Arc<dyn Handler> {
        let site = Arc::clone(self);
        let status: nagano_httpd::StatusFn = Arc::new(move || site.status_json());
        Arc::new(
            nagano_httpd::AdminPlane::new(registry, status).with_inner(self.http_handler(node)),
        )
    }

    /// Bind an HTTP server for serving node `node` with the admin plane
    /// attached, scrapeable over TCP while the site serves page traffic.
    pub fn serve_admin_http(
        self: &Arc<Self>,
        addr: &str,
        node: usize,
        registry: Arc<nagano_telemetry::MetricsRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let config = self.install_retry_hint(config);
        Server::bind(addr, self.admin_handler(node, registry), config)
    }

    /// Bring a recovered serving node back: resynchronise its cache from
    /// a healthy peer so it rejoins rotation warm and version-consistent.
    /// Returns the number of pages copied.
    pub fn recover_node(&self, node: usize) -> usize {
        let donor = (0..self.fleet.len())
            .find(|&i| i != node)
            .expect("fleet has another member");
        self.fleet.resync(donor, node)
    }

    /// Register this site's live metric cells — trigger counters, the
    /// propagation-latency histogram, and per-node cache statistics —
    /// into a telemetry registry. Counters appear under the
    /// `nagano_trigger_*` / `nagano_cache_*` names with the given labels
    /// (cache cells additionally carry a `node` label per fleet member),
    /// so one registry can hold several sites distinguished by label.
    pub fn bind_telemetry(
        &self,
        registry: &nagano_telemetry::MetricsRegistry,
        labels: &[(&str, &str)],
    ) {
        self.monitor.stats().bind(registry, labels);
        for (i, member) in self.fleet.members().iter().enumerate() {
            let node = i.to_string();
            let mut node_labels: Vec<(&str, &str)> = labels.to_vec();
            node_labels.push(("node", node.as_str()));
            member.stats_handle().bind(registry, &node_labels);
        }
    }

    /// Current metrics.
    pub fn metrics(&self) -> SiteMetrics {
        SiteMetrics {
            cache: self.fleet.aggregate_stats(),
            trigger: self.monitor.stats().snapshot(),
            odg: self.monitor.graph_size(),
            pages: self.registry.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_simcore::sync::blocking;
    use std::collections::BTreeMap;

    fn site() -> ServingSite {
        ServingSite::build(SiteConfig::small())
    }

    #[test]
    fn build_prewarms_everything() {
        let s = site();
        let m = s.metrics();
        assert_eq!(m.cache.inserts as usize, m.pages * 2); // 2 fleet members
        assert!(m.odg.0 > 0 && m.odg.1 > 0);
    }

    #[test]
    fn handle_serves_cache_hits() {
        let s = site();
        let page = s.handle(0, "/medals").unwrap();
        assert!(page.cache_hit);
        assert!(page.cost_ms < 1.0);
        assert!(s.handle(1, "/day/3/").unwrap().cache_hit);
        assert!(s.handle(0, "/nonexistent").is_none());
    }

    #[test]
    fn ids_the_games_do_not_have_are_not_pages() {
        let s = site();
        let (rows, graph) = (s.fleet().member(0).len(), s.monitor().graph_size());
        let mut paths: Vec<String> = ["/athletes/4294967295", "/day/0/", "/news/99999"]
            .into_iter()
            .map(String::from)
            .collect();
        paths.extend((1_000_000..1_000_100).map(|id| format!("/athletes/{id}")));
        for path in &paths {
            assert!(s.handle(0, path).is_none(), "{path}");
            let response = s.respond(0, &get_request(path, None));
            assert_eq!(response.status, nagano_httpd::Status::NotFound, "{path}");
        }
        assert_eq!(s.fleet().member(0).len(), rows, "nothing cached");
        assert_eq!(s.monitor().graph_size(), graph, "nothing registered");
    }

    #[test]
    fn the_fleets_url_adapters_agree_with_its_slots() {
        let s = site();
        let (fleet, space) = (s.fleet(), s.registry().space());
        let exported: BTreeMap<String, (Bytes, u64)> = fleet
            .member(0)
            .export_entries()
            .into_iter()
            .map(|(url, body, _, version)| (url, (body, version)))
            .collect();
        assert_eq!(exported.len(), s.registry().len());
        for &(key, _) in s.registry().pages() {
            let (url, slot) = (key.to_url(), space.slot(key).unwrap());
            let by_url = fleet.get_from(0, &url).unwrap();
            let by_slot = fleet.member(0).peek(slot).unwrap();
            assert_eq!(
                (&by_url.body, by_url.version),
                (&by_slot.body, by_slot.version)
            );
            assert_eq!(
                exported[&url],
                (by_slot.body.clone(), by_slot.version),
                "{url}"
            );
            assert!(fleet.member(0).contains(&url));
            // A distribution by URL lands in the page's slot.
            let body = Bytes::from(format!("{url}, again"));
            assert!(fleet.distribute(&url, body.clone(), 1.0), "{url}");
            assert_eq!(fleet.member(1).peek(slot).unwrap().body, body, "{url}");
        }
        assert!(fleet.get_from(0, "/athletes/4294967295").is_none());
    }

    /// A site built from `config` whose fleet then lets every page go.
    fn cold(config: SiteConfig) -> ServingSite {
        let s = ServingSite::build(config);
        s.fleet().clear();
        s
    }

    #[test]
    fn cold_site_demand_fills() {
        let s = cold(SiteConfig::small());
        let first = s.handle(0, "/medals").unwrap();
        assert!(!first.cache_hit);
        assert!(first.cost_ms > 10.0);
        let second = s.handle(0, "/medals").unwrap();
        assert!(second.cache_hit);
        // Demand fill is node-local.
        let other_node = s.handle(1, "/medals").unwrap();
        assert!(!other_node.cache_hit);
    }

    #[test]
    fn update_flow_refreshes_in_place() {
        let s = site();
        let ev = s.db().events()[0].clone();
        let before = s.handle(0, &PageKey::Event(ev.id).to_url()).unwrap();
        let athletes = s.db().athletes_of_sport(ev.sport);
        s.db().record_results(
            ev.id,
            &[
                (athletes[0].id, 10.0),
                (athletes[1].id, 9.0),
                (athletes[2].id, 8.0),
            ],
            true,
            ev.day,
        );
        let outcome = s.pump();
        assert_eq!(outcome.txns, 1);
        assert!(outcome.regenerated > 5);
        assert_eq!(outcome.invalidated, 0);
        let after = s.handle(0, &PageKey::Event(ev.id).to_url()).unwrap();
        assert!(after.cache_hit, "updated in place, not invalidated");
        assert_ne!(after.body, before.body);
        // Pump with nothing queued is a no-op.
        assert_eq!(s.pump(), PumpOutcome::default());
    }

    #[test]
    fn http_end_to_end() {
        use nagano_httpd::HttpClient;
        let s = Arc::new(site());
        let server = s
            .serve_http("127.0.0.1:0", 0, ServerConfig::default())
            .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (code, body) = client.get("/medals").unwrap();
        assert_eq!(code, 200);
        assert!(body.len() > 5_000);
        let (code, _) = client.get("/bogus/path").unwrap();
        assert_eq!(code, 404);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn conditional_get_revalidates_with_304_until_dup_updates() {
        use nagano_httpd::HttpClient;
        let s = Arc::new(site());
        let server = s
            .serve_http("127.0.0.1:0", 0, ServerConfig::default())
            .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        // First fetch: 200 with an ETag.
        let (code, body, etag) = client.get_conditional("/medals", None).unwrap();
        assert_eq!(code, 200);
        let etag = etag.expect("etag present");
        assert!(!body.is_empty());
        // Revalidation: 304, empty body — the browser-cache path that
        // saved a 55 KB modem transfer in 1998.
        let (code, body, _) = client.get_conditional("/medals", Some(&etag)).unwrap();
        assert_eq!(code, 304);
        assert!(body.is_empty());
        // An update bumps the cache version → revalidation now misses.
        let ev = s.db().events()[0].clone();
        let a = s.db().athletes_of_sport(ev.sport)[0].clone();
        s.db().record_results(ev.id, &[(a.id, 9.0)], true, ev.day);
        s.pump();
        let (code, body, new_etag) = client.get_conditional("/medals", Some(&etag)).unwrap();
        assert_eq!(code, 200);
        assert!(!body.is_empty());
        assert_ne!(new_etag, Some(etag));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn a_final_changes_the_etag_of_podium_countries_only() {
        let s = site();
        let ev = s.db().events()[0].clone();
        let podium: Vec<_> = s.db().athletes_of_sport(ev.sport)[..3].to_vec();
        let on_podium = |c| podium.iter().any(|a| a.country == c);
        let countries = s.db().countries();
        let winner = podium[0].country;
        let bystander = countries.iter().map(|c| c.id).find(|&c| !on_podium(c));
        let bystander = bystander.expect("a country off the podium");
        let tags = |path: &str| -> Vec<u64> {
            (0..s.fleet().len())
                .map(|node| s.handle(node, path).unwrap().version)
                .collect()
        };
        let paths = [
            PageKey::Country(bystander).to_url(),
            PageKey::Country(winner).to_url(),
            "/medals".to_string(),
        ];
        let before = paths.each_ref().map(|p| tags(p));

        let placements: Vec<_> = podium
            .iter()
            .zip([9.0, 8.0, 7.0])
            .map(|(a, score)| (a.id, score))
            .collect();
        s.db().record_results(ev.id, &placements, true, ev.day);
        let outcome = s.pump();

        // DUP had every country page re-derived; the medal box of all but
        // the podium's came out as it was, and the client that holds the
        // old tag is answered 304 by every node.
        let regenerated_countries = countries.len() as u64;
        assert!(outcome.regenerated > regenerated_countries);
        let trigger = s.metrics().trigger;
        assert_eq!(trigger.pages_regenerated, outcome.regenerated);
        assert!(
            trigger.pages_changed + (regenerated_countries - 3) <= trigger.pages_regenerated,
            "{trigger:?}"
        );
        assert!(trigger.pages_changed > 0);
        let status = s.status_json();
        assert!(status.contains(&format!(
            "\"pages_regenerated\":{},\"pages_changed\":{},\"pages_revalidated\":{},\
             \"pages_forgotten\":{},\"pages_patched\":{}",
            trigger.pages_regenerated,
            trigger.pages_changed,
            trigger.pages_revalidated,
            trigger.pages_forgotten,
            trigger.pages_patched
        )));
        // Kept by their stamps and patched are two ways of not composing.
        assert!(
            trigger.pages_revalidated + trigger.pages_patched <= trigger.pages_regenerated,
            "{trigger:?}"
        );
        assert!(trigger.pages_revalidated >= regenerated_countries - 3);
        for (path, before) in paths.iter().zip(&before) {
            let moved = *path != paths[0];
            for (node, version) in before.iter().enumerate() {
                let tag = format!("\"v{version}\"");
                let resp = s.respond(node, &get_request(path, Some(&tag)));
                let expected = if moved {
                    nagano_httpd::Status::Ok
                } else {
                    nagano_httpd::Status::NotModified
                };
                assert_eq!(resp.status, expected, "{path} on node {node}");
            }
            assert_eq!(tags(path) != *before, moved, "{path}");
        }
    }

    fn get_request(path: &str, inm: Option<&str>) -> Request {
        let mut req = Request::empty();
        req.method.push_str("GET");
        req.path.push_str(path);
        req.keep_alive = true;
        req.if_none_match = inm.map(str::to_string);
        req
    }

    #[test]
    fn respond_304_never_touches_the_render_pool() {
        let s = site();
        let before = s.metrics().trigger;
        // Prewarmed entries are at version 1; a matching validator must
        // revalidate from the cache entry alone.
        let resp = s.respond(0, &get_request("/medals", Some("\"v1\"")));
        assert_eq!(resp.status, nagano_httpd::Status::NotModified);
        assert!(resp.body.is_empty());
        // A stale validator gets the full page, still without rendering.
        let resp = s.respond(0, &get_request("/medals", Some("\"v9\"")));
        assert_eq!(resp.status, nagano_httpd::Status::Ok);
        assert!(!resp.body.is_empty());
        let after = s.metrics().trigger;
        assert_eq!(before.pages_regenerated, after.pages_regenerated);
        assert_eq!(before.regen_cpu_ms, after.regen_cpu_ms);
    }

    #[test]
    fn weak_listed_and_star_validators_revalidate_on_a_hit_and_on_a_miss() {
        let warm = site();
        let cold = cold(SiteConfig::small());
        // A first request for a page a cold site holds nowhere is a miss,
        // which fills version 1 — the version every prewarmed page has.
        let fields = ["W/\"v1\"", "\"v0\", \"v1\"", "*"];
        for (field, path) in fields.into_iter().zip(["/medals", "/welcome", "/day/3/"]) {
            assert!(cold.fleet().member(0).peek(path).is_none(), "{path}");
            for (s, how) in [(&cold, "miss"), (&warm, "hit")] {
                let resp = s.respond(0, &get_request(path, Some(field)));
                assert_eq!(resp.status, nagano_httpd::Status::NotModified, "{how}");
                assert!(resp.body.is_empty(), "{field} on a {how}");
            }
            let resp = warm.respond(0, &get_request(path, Some("W/\"v2\", \"v3\"")));
            assert_eq!(resp.status, nagano_httpd::Status::Ok, "{path}");
        }
    }

    #[test]
    fn every_node_serves_its_own_version_after_a_shared_distribution() {
        let s = site();
        // A demand fill on node 1 alone: its entry now runs one version
        // ahead of node 0's, and stays ahead through every distribution,
        // which shares one body between them.
        s.monitor().demand_fill(1, PageKey::Medals);
        let ev = s.db().events()[0].clone();
        let a = s.db().athletes_of_sport(ev.sport)[0].clone();
        s.db().record_results(ev.id, &[(a.id, 9.0)], true, ev.day);
        s.pump();
        for (node, etag, other) in [(0, "\"v2\"", "\"v3\""), (1, "\"v3\"", "\"v2\"")] {
            let cached = s.fleet().member(node).peek("/medals").unwrap();
            let resp = s.respond(node, &get_request("/medals", None));
            let mut wire = Vec::new();
            resp.write_to(&mut wire, true).unwrap();
            let split = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let head = std::str::from_utf8(&wire[..split]).unwrap();
            assert!(
                head.contains(&format!("ETag: {etag}\r\n")),
                "node {node}: {head}"
            );
            let length = format!("Content-Length: {}\r\n", cached.body.len());
            assert!(head.contains(&length), "node {node}: {head}");
            assert_eq!(&wire[split..], &cached.body[..], "node {node}");
            // The tag it served revalidates on this node; the other's not.
            let resp = s.respond(node, &get_request("/medals", Some(etag)));
            assert_eq!(resp.status, nagano_httpd::Status::NotModified);
            let resp = s.respond(node, &get_request("/medals", Some(other)));
            assert_eq!(resp.status, nagano_httpd::Status::Ok);
        }
    }

    #[test]
    fn respond_reuses_cached_body_allocation() {
        let s = site();
        let cached = s.fleet().member(0).peek("/medals").unwrap().body;
        let resp = s.respond(0, &get_request("/medals", None));
        assert_eq!(
            resp.body.as_ptr(),
            cached.as_ptr(),
            "hit body must be a refcounted view of the cache buffer"
        );
    }

    #[test]
    fn marquee_events_exposed() {
        let s = site();
        let (fs, sj) = s.marquee_events();
        assert!(s.db().event(fs).is_some());
        assert!(s.db().event(sj).is_some());
    }

    #[test]
    fn recovered_node_rejoins_warm_and_consistent() {
        let s = site();
        // Node 1 "fails": loses its cache.
        s.fleet().member(1).clear();
        assert!(
            !s.handle(1, "/medals").unwrap().cache_hit,
            "cold after failure"
        );
        // Recovery resyncs from node 0.
        let copied = s.recover_node(1);
        assert_eq!(copied, s.registry().len());
        let a = s.handle(0, "/day/3/").unwrap();
        let b = s.handle(1, "/day/3/").unwrap();
        assert!(b.cache_hit);
        assert_eq!(a.body, b.body);
        assert_eq!(a.version, b.version, "entity tags agree after resync");
    }

    #[test]
    fn metrics_track_activity() {
        let s = site();
        s.handle(0, "/medals");
        s.handle(0, "/medals");
        let m = s.metrics();
        assert_eq!(m.cache.hits, 2);
        assert_eq!(m.trigger.txns, 0);
    }

    #[test]
    fn bind_telemetry_exposes_live_cells() {
        use nagano_telemetry::{prometheus_text, MetricsRegistry};
        let s = site();
        let registry = MetricsRegistry::new();
        s.bind_telemetry(&registry, &[("site", "test")]);
        s.handle(0, "/medals");
        s.handle(0, "/medals");
        let hits = registry.counter(
            "nagano_cache_hits_total",
            &[("site", "test"), ("node", "0")],
        );
        assert_eq!(hits.get(), 2);
        let text = prometheus_text(&registry);
        assert!(text.contains("nagano_cache_hits_total{node=\"0\",site=\"test\"} 2"));
        assert!(text.contains("nagano_trigger_txns_total{site=\"test\"} 0"));
    }

    #[test]
    fn status_json_reports_live_state() {
        let s = site();
        s.handle(0, "/medals");
        let doc = s.status_json();
        assert!(doc.starts_with(&format!("{{\"pages\":{}", s.registry().len())));
        assert!(doc.contains("\"deferred_depth\":0"));
        assert!(doc.contains("\"breaker\":{\"state\":\"closed\",\"trips\":0}"));
        assert!(doc.contains("\"node\":0") && doc.contains("\"node\":1"));
        assert!(doc.contains("\"hits\":1"));
        // Deterministic: identical state, identical bytes.
        assert_eq!(doc, s.status_json());
        // A tripped breaker shows up.
        s.with_breaker(|b| {
            for _ in 0..10 {
                b.record_failure(0.0);
            }
        });
        assert!(s
            .status_json()
            .contains("\"breaker\":{\"state\":\"open\",\"trips\":1}"));
    }

    #[test]
    fn open_breaker_serves_stale_copy() {
        let mut cfg = SiteConfig::small();
        cfg.cache = CacheConfig::default().with_stale(nagano_cache::StalePolicy::bounded(3600.0));
        let s = ServingSite::build(cfg);
        let url = PageKey::parse("/medals").unwrap().to_url();
        let before = s.handle(0, "/medals").unwrap();
        assert!(before.cache_hit && !before.stale);
        // Invalidate the page (tombstoning it) and trip the breaker.
        s.fleet().invalidate_everywhere(&url);
        s.with_breaker(|b| {
            for _ in 0..10 {
                b.record_failure(0.0);
            }
        });
        assert!(s.with_breaker(|b| b.state_name() == "open"));
        let page = s.handle(0, "/medals").unwrap();
        assert!(page.stale, "open breaker falls back to the stale copy");
        assert!(!page.cache_hit);
        assert_eq!(page.body, before.body);
        assert_eq!(s.metrics().cache.stale_served, 1);
    }

    #[test]
    fn retry_after_hint_tracks_breaker_state() {
        let s = Arc::new(site());
        let config = ServerConfig {
            retry_after: RetryAfterHint::new(7),
            ..Default::default()
        };
        let server = s.serve_http("127.0.0.1:0", 0, config).unwrap();
        let hint = s.retry_after_hint();
        assert_eq!(hint.get_secs(), 2, "healthy: 2 s, not the config's");
        // Breaker opens (default window 10 tick-seconds): the hint now
        // advertises the remaining open window.
        s.with_breaker(|b| {
            for _ in 0..10 {
                b.record_failure(0.0);
            }
        });
        assert_eq!(hint.get_secs(), 10);
        // Recovery closes it; the hint returns to the floor.
        s.with_breaker(|b| {
            let now = 1e9; // far past the open window
            assert!(b.allow(now));
            b.record_success();
            b.record_success();
        });
        assert_eq!(hint.get_secs(), 2);
        server.shutdown();
    }

    #[test]
    fn open_breaker_without_stale_copy_still_serves() {
        let s = cold(SiteConfig::small());
        s.with_breaker(|b| {
            for _ in 0..10 {
                b.record_failure(0.0);
            }
        });
        // No stale policy, nothing cached: availability wins — the
        // request is rendered anyway rather than turned away.
        let page = s.handle(0, "/medals").unwrap();
        assert!(!page.stale && !page.cache_hit);
        assert!(!page.body.is_empty());
    }

    #[test]
    fn followers_past_the_budget_without_a_tombstone_render_once() {
        let s = Arc::new(cold(SiteConfig {
            request_budget_secs: 0.05,
            ..SiteConfig::small()
        }));
        let member = Arc::clone(s.fleet().member(0));
        let cold = member.stats();
        // A leader that outlives every follower's budget.
        let FlightOutcome::Lead(token) = member.join_or_lead("/medals", Duration::from_secs(1))
        else {
            panic!("nothing was in flight");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.handle(0, "/medals").unwrap())
            })
            .collect();
        let pages: Vec<ServedPage> = followers
            .into_iter()
            .map(|t| blocking!(t.join()).unwrap())
            .collect();
        member.complete_flight(token, None);
        // One follower led the replacement flight and the others joined
        // it: one render, so one insert at version 1 and no update.
        let stats = member.stats();
        let filled = (stats.inserts - cold.inserts, stats.updates - cold.updates);
        assert_eq!(filled, (1, 0), "{stats:?}");
        for page in pages {
            assert!(!page.stale && !page.body.is_empty());
            assert_eq!(page.version, 1);
        }
    }

    #[test]
    fn a_render_past_the_budget_is_answered_from_the_tombstone() {
        let mut cfg = SiteConfig::small();
        cfg.cache = CacheConfig::default().with_stale(nagano_cache::StalePolicy::bounded(3600.0));
        cfg.request_budget_secs = 0.0;
        let s = ServingSite::build(cfg);
        let before = s.handle(0, "/medals").unwrap();
        s.fleet().invalidate_everywhere("/medals");
        let page = s.handle(0, "/medals").unwrap();
        assert!(page.stale, "no render fits a zero budget");
        assert_eq!(page.body, before.body);
        assert_eq!(s.metrics().cache.stale_served, 1);
        // The fresh body landed for the next request.
        let next = s.handle(0, "/medals").unwrap();
        assert!(next.cache_hit && !next.stale);
    }

    #[test]
    fn admin_handler_serves_metrics_status_and_pages() {
        use nagano_httpd::HttpClient;
        use nagano_telemetry::MetricsRegistry;
        let s = Arc::new(site());
        let registry = Arc::new(MetricsRegistry::new());
        s.bind_telemetry(&registry, &[("site", "t")]);
        let server = s
            .serve_admin_http("127.0.0.1:0", 0, registry, ServerConfig::default())
            .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (code, body) = client.get("/medals").unwrap();
        assert_eq!(code, 200);
        assert!(body.len() > 5_000);
        let (code, body) = client.get("/metrics").unwrap();
        assert_eq!(code, 200);
        let text = String::from_utf8(body.to_vec()).unwrap();
        assert!(text.contains("nagano_cache_hits_total"));
        let (code, body) = client.get("/status").unwrap();
        assert_eq!(code, 200);
        assert!(body.starts_with(b"{\"pages\":"));
        let (code, body) = client.get("/healthz").unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"ok\n");
        drop(client);
        server.shutdown();
    }
}
