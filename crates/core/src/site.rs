//! The [`ServingSite`] facade: one serving node of the production system —
//! database, renderer, trigger monitor and the node's serving cache —
//! behind a small API.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use nagano_cache::{CacheConfig, FlightOutcome, FlightToken, PageCache, StatsSnapshot};
use nagano_db::{seed_games, EventId, GamesConfig, OlympicDb};
use nagano_httpd::{none_match, Handler, Request, Response, Server, ServerConfig};
use nagano_odg::StalenessPolicy;
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_trigger::{
    ConsistencyPolicy, PageUrls, TriggerMonitor, TriggerRunner, TriggerStatsSnapshot,
};

use crate::serve::{self, Decision, Observation};

/// How long a miss waits on another request's regeneration of its page
/// before presuming that leader dead and leading or joining the
/// replacement (DESIGN.md §11a, row (c)).
const FOLLOWER_PATIENCE: Duration = Duration::from_secs(2);

/// Configuration for a serving site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Synthetic Games dimensions.
    pub games: GamesConfig,
    /// The serving cache's configuration.
    pub cache: CacheConfig,
    /// Consistency policy for the trigger monitor.
    pub policy: ConsistencyPolicy,
    /// DUP staleness policy.
    pub staleness: StalenessPolicy,
}

impl SiteConfig {
    /// Paper-scale Games, an unbounded cache, update-in-place.
    pub fn full() -> Self {
        SiteConfig {
            games: GamesConfig::full(),
            cache: CacheConfig::default(),
            policy: ConsistencyPolicy::UpdateInPlace,
            staleness: StalenessPolicy::Strict,
        }
    }

    /// Small Games for tests and examples.
    pub fn small() -> Self {
        SiteConfig {
            games: GamesConfig::small(),
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
}

impl ServedPage {
    /// A page answered from what a cache holds, as a miss.
    fn cached(body: Bytes, version: u64) -> Self {
        ServedPage {
            body,
            cache_hit: false,
            cost_ms: 0.5,
            version,
        }
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
    /// The serving cache's statistics.
    pub cache: StatsSnapshot,
    /// Trigger-monitor statistics.
    pub trigger: TriggerStatsSnapshot,
    /// Object dependence graph size (nodes, edges).
    pub odg: (usize, usize),
    /// Number of pages in the registry.
    pub pages: usize,
}

/// One serving node: database + trigger monitor + serving cache. The
/// paper's complex had several such nodes behind one trigger monitor; the
/// cluster simulation models them as one cache per complex, and a site on a
/// socket is one node.
pub struct ServingSite {
    db: Arc<OlympicDb>,
    registry: Arc<PageRegistry>,
    monitor: Arc<TriggerMonitor>,
    cache: Arc<PageCache>,
    txn_rx: crossbeam::channel::Receiver<Arc<nagano_db::Transaction>>,
    marquee: (EventId, EventId),
}

impl ServingSite {
    /// Seed the Games, build the registry, construct the trigger monitor,
    /// and prewarm every page (the production prefetch).
    pub fn build(config: SiteConfig) -> Self {
        let db = Arc::new(OlympicDb::new());
        let marquee = seed_games(&db, &config.games);
        let registry = Arc::new(PageRegistry::build(&db, config.games.days));
        let cache = Arc::new(PageCache::with_keys(
            config.cache.clone(),
            PageUrls::of(&registry),
        ));
        let monitor = Arc::new(TriggerMonitor::new(
            Renderer::new(Arc::clone(&db)),
            Arc::clone(&cache),
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
            cache,
            txn_rx,
            marquee,
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

    /// The serving cache, as the trigger monitor distributes to it. Its
    /// pages are keyed by slot in the registry's page space
    /// ([`PageRegistry::space`]); a URL names one through the cache's
    /// [`PageUrls`] key space. Named for the fleet of serving nodes the
    /// wall-clock harness still walks (ROADMAP 1(h)).
    pub fn fleet(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The marquee event ids `(figure_skating, ski_jumping)` pinned by the
    /// seeder.
    pub fn marquee_events(&self) -> (EventId, EventId) {
        self.marquee
    }

    /// Serve one request path — the FastCGI server-program path: check
    /// the cache; on a miss, coalesce onto any in-flight regeneration of
    /// the same page (single-flight), otherwise generate, cache, and
    /// register dependencies ([`crate::serve`] has the table). Returns
    /// `None` for paths that are not part of the site: a path that does
    /// not parse, or names a day, entity or story the Games do not have.
    pub fn handle(&self, path: &str) -> Option<ServedPage> {
        let (key, slot) = self.page(path)?;
        Some(self.serve(key, slot))
    }

    /// The page `path` names and its slot, if it is a page of the site.
    fn page(&self, path: &str) -> Option<(PageKey, u32)> {
        let key = PageKey::parse(path)?;
        Some((key, self.registry.space().slot(key)?))
    }

    /// The one lookup behind [`ServingSite::handle`] and
    /// [`ServingSite::respond`]: look page `key`, in `slot`, up, and
    /// answer a miss as [`ServingSite::handle_miss`] does.
    fn serve(&self, key: PageKey, slot: u32) -> ServedPage {
        match self.cache.get(slot) {
            Some(page) => ServedPage {
                cache_hit: true,
                ..ServedPage::cached(page.body, page.version)
            },
            None => self.handle_miss(key, slot),
        }
    }

    /// The slow path of [`ServingSite::serve`]: observe the key's flight
    /// and freshness, and do what [`serve::decide`] says (DESIGN.md §11a).
    /// The site keeps no tombstone, and its in-process renderer cannot
    /// fail, so the breaker and the backend are observed as they always
    /// are here: admitting and reachable. The table then answers only
    /// Hit, Join or Fill.
    fn handle_miss(&self, key: PageKey, slot: u32) -> ServedPage {
        let cache = &self.cache;
        loop {
            let flight = cache.join_or_lead(slot, FOLLOWER_PATIENCE);
            let fresh = cache.peek(slot);
            let observed = Observation {
                fresh: fresh.is_some(),
                // A follower has waited already: its flight landed, or it
                // did not within the patience.
                flight: match flight {
                    FlightOutcome::Lead(_) => None,
                    FlightOutcome::Joined(_) => Some(0.0),
                    FlightOutcome::TimedOut => Some(f64::INFINITY),
                },
                tombstone: false,
                breaker_admits: true,
                backend_reachable: true,
                budget_secs: FOLLOWER_PATIENCE.as_secs_f64(),
            };
            match (serve::decide(&observed), flight) {
                (Decision::Join, FlightOutcome::Joined(page)) => {
                    return ServedPage::cached(page.body, page.version)
                }
                // (c) Lead the flight's replacement, or join the follower
                // that leads it.
                (Decision::Join, FlightOutcome::TimedOut) => continue,
                (Decision::Fill, FlightOutcome::Lead(token)) => return self.fill(key, slot, token),
                // Filled between this request's miss and its lead.
                (Decision::Hit, FlightOutcome::Lead(token)) => {
                    cache.complete_flight(token, fresh.clone());
                    let page = fresh.expect("the table hits only a fresh entry");
                    return ServedPage::cached(page.body, page.version);
                }
                (decision, _) => unreachable!("{decision:?} for a site's miss"),
            }
        }
    }

    /// Lead the regeneration of `key`: demand-fill it and hand the page to
    /// the flight's followers.
    fn fill(&self, key: PageKey, slot: u32, token: FlightToken) -> ServedPage {
        let fill = self.monitor.demand_fill(key);
        let cache = &self.cache;
        cache.complete_flight(token, cache.peek(slot));
        ServedPage {
            cost_ms: fill.cost_ms,
            ..ServedPage::cached(fill.body, fill.version)
        }
    }

    /// Serve one parsed HTTP request — the path behind
    /// [`ServingSite::http_handler`]: the page as [`ServingSite::handle`]
    /// serves it, its body a refcount bump of the cached buffer, answered
    /// `304` when the `If-None-Match` validator names its version (so
    /// revalidating a hit never touches the render pool) and `200` with
    /// that version as the entity tag otherwise.
    ///
    /// The site is one serving node: `node` is ignored. It stays for the
    /// wall-clock harness, which passes 0, until ROADMAP 1(h).
    pub fn respond(&self, _node: usize, req: &Request) -> Response {
        let Some((key, slot)) = self.page(&req.path) else {
            return Response::not_found();
        };
        let page = self.serve(key, slot);
        let validator = req.if_none_match.as_deref();
        if validator.is_some_and(|field| none_match(field, page.version)) {
            Response::not_modified(page.version)
        } else {
            Response::page(page.body, page.version)
        }
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

    /// An HTTP handler serving this site, with ETag/If-None-Match
    /// revalidation: the cache version is the entity tag, so browser
    /// caches revalidate dynamic pages with a 55-byte 304 instead of a
    /// 55 KB transfer — until DUP bumps the version.
    pub fn http_handler(self: &Arc<Self>) -> Arc<dyn Handler> {
        let site = Arc::clone(self);
        Arc::new(move |req: &Request| site.respond(0, req))
    }

    /// Bind an HTTP server for this site. `node` is ignored, as
    /// [`ServingSite::respond`]'s is.
    pub fn serve_http(
        self: &Arc<Self>,
        addr: &str,
        _node: usize,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::bind(addr, self.http_handler(), config)
    }

    /// The `/status` JSON document: registry size, ODG dimensions,
    /// trigger progress (transactions, replication watermark, pages
    /// regenerated and how many of them changed — the rest is the no-op
    /// share of update-in-place — were answered by their stamps, and were
    /// patched rather than composed), and the cache's occupancy. A site's
    /// monitor keeps no deferred queue: only the simulation's hybrid policy
    /// defers. Hand-assembled with deterministic key order so same-state sites
    /// produce byte-identical documents.
    pub fn status_json(&self) -> String {
        let trig = self.monitor.stats().snapshot();
        let (odg_nodes, odg_edges) = self.monitor.graph_size();
        let cache = &self.cache;
        let stats = cache.stats();
        format!(
            "{{\"pages\":{},\"odg\":{{\"nodes\":{},\"edges\":{}}},\
             \"trigger\":{{\"txns\":{},\"watermark\":{},\"pages_regenerated\":{},\
             \"pages_changed\":{},\"pages_revalidated\":{},\"pages_patched\":{}}},\
             \"cache\":{{\"entries\":{},\
             \"bytes\":{},\"hits\":{},\"misses\":{}}}}}",
            self.registry.len(),
            odg_nodes,
            odg_edges,
            trig.txns,
            self.monitor.watermark(),
            trig.pages_regenerated,
            trig.pages_changed,
            trig.pages_revalidated,
            trig.pages_patched,
            cache.len(),
            cache.bytes(),
            stats.hits,
            stats.misses,
        )
    }

    /// The page handler wrapped in an [`nagano_httpd::AdminPlane`]:
    /// `/metrics` scrapes `registry` as Prometheus text, `/healthz`
    /// probes liveness, `/status` returns [`ServingSite::status_json`],
    /// and every other path serves pages as [`ServingSite::http_handler`].
    pub fn admin_handler(
        self: &Arc<Self>,
        registry: Arc<nagano_telemetry::MetricsRegistry>,
    ) -> Arc<dyn Handler> {
        let site = Arc::clone(self);
        let status: nagano_httpd::StatusFn = Arc::new(move || site.status_json());
        Arc::new(nagano_httpd::AdminPlane::new(registry, status).with_inner(self.http_handler()))
    }

    /// Bind an HTTP server for this site with the admin plane attached,
    /// scrapeable over TCP while the site serves page traffic.
    pub fn serve_admin_http(
        self: &Arc<Self>,
        addr: &str,
        registry: Arc<nagano_telemetry::MetricsRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::bind(addr, self.admin_handler(registry), config)
    }

    /// Register this site's live metric cells — trigger counters and the
    /// cache's statistics — into a telemetry registry. They appear under
    /// the `nagano_trigger_*` / `nagano_cache_*` names with the given
    /// labels, as a complex's do in the cluster simulation, so one registry
    /// can hold several sites distinguished by label. A site keeps no stale
    /// copy, defers no regeneration and weighs no request by staleness:
    /// those are the cluster simulation's (DESIGN.md §12), so it exports
    /// no series of them.
    pub fn bind_telemetry(
        &self,
        registry: &nagano_telemetry::MetricsRegistry,
        labels: &[(&str, &str)],
    ) {
        self.monitor.stats().bind(registry, labels);
        self.cache.stats_handle().bind(registry, labels);
    }

    /// Current metrics.
    pub fn metrics(&self) -> SiteMetrics {
        SiteMetrics {
            cache: self.cache.stats(),
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
        assert_eq!(m.cache.inserts as usize, m.pages);
        assert!(m.odg.0 > 0 && m.odg.1 > 0);
    }

    #[test]
    fn handle_serves_cache_hits() {
        let s = site();
        let page = s.handle("/medals").unwrap();
        assert!(page.cache_hit);
        assert!(page.cost_ms < 1.0);
        assert!(s.handle("/day/3/").unwrap().cache_hit);
        assert!(s.handle("/nonexistent").is_none());
    }

    #[test]
    fn ids_the_games_do_not_have_are_not_pages() {
        let s = site();
        let (rows, graph) = (s.fleet().len(), s.monitor().graph_size());
        let mut paths: Vec<String> = ["/athletes/4294967295", "/day/0/", "/news/99999"]
            .into_iter()
            .map(String::from)
            .collect();
        paths.extend((1_000_000..1_000_100).map(|id| format!("/athletes/{id}")));
        for path in &paths {
            assert!(s.handle(path).is_none(), "{path}");
            let response = s.respond(0, &get_request(path, None));
            assert_eq!(response.status, nagano_httpd::Status::NotFound, "{path}");
        }
        assert_eq!(s.fleet().len(), rows, "nothing cached");
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
            assert_eq!(fleet.peek(slot).unwrap().body, body, "{url}");
        }
        assert!(fleet.get_from(0, "/athletes/4294967295").is_none());
    }

    /// A site built from `config` whose cache then lets every page go.
    fn cold(config: SiteConfig) -> ServingSite {
        let s = ServingSite::build(config);
        s.fleet().clear();
        s
    }

    #[test]
    fn cold_site_demand_fills() {
        let s = cold(SiteConfig::small());
        let first = s.handle("/medals").unwrap();
        assert!(!first.cache_hit);
        assert!(first.cost_ms > 10.0);
        let second = s.handle("/medals").unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.version, first.version);
    }

    #[test]
    fn update_flow_refreshes_in_place() {
        let s = site();
        let ev = s.db().events()[0].clone();
        let before = s.handle(&PageKey::Event(ev.id).to_url()).unwrap();
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
        let after = s.handle(&PageKey::Event(ev.id).to_url()).unwrap();
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
    fn an_invalidated_page_filled_again_never_reuses_a_tag() {
        let s = ServingSite::build(SiteConfig {
            policy: ConsistencyPolicy::Invalidate,
            ..SiteConfig::small()
        });
        let before = s.handle("/medals").unwrap();
        let old = format!("\"v{}\"", before.version);
        // A final moves the standings: the pump drops the page, and the
        // next request fills it anew.
        let ev = s.db().events()[0].clone();
        let podium: Vec<_> = s.db().athletes_of_sport(ev.sport)[..3]
            .iter()
            .zip([9.0, 8.0, 7.0])
            .map(|(a, score)| (a.id, score))
            .collect();
        s.db().record_results(ev.id, &podium, true, ev.day);
        s.pump();
        assert!(s.fleet().peek("/medals").is_none(), "invalidated");
        let resp = s.respond(0, &get_request("/medals", Some(&old)));
        assert_eq!(resp.status, nagano_httpd::Status::Ok);
        let fresh = Renderer::new(Arc::clone(s.db())).render(PageKey::Medals);
        assert!(resp.body == fresh.body && resp.body != before.body);
        let after = s.fleet().peek("/medals").unwrap().version;
        assert!(after > before.version, "{after} after {}", before.version);
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
        let tag = |path: &str| s.handle(path).unwrap().version;
        let paths = [
            PageKey::Country(bystander).to_url(),
            PageKey::Country(winner).to_url(),
            "/medals".to_string(),
        ];
        let before = paths.each_ref().map(|p| tag(p));

        let placements: Vec<_> = podium
            .iter()
            .zip([9.0, 8.0, 7.0])
            .map(|(a, score)| (a.id, score))
            .collect();
        s.db().record_results(ev.id, &placements, true, ev.day);
        let outcome = s.pump();

        // DUP had every country page re-derived; the medal box of all but
        // the podium's came out as it was, and the client that holds the
        // old tag is answered 304.
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
             \"pages_patched\":{}",
            trigger.pages_regenerated,
            trigger.pages_changed,
            trigger.pages_revalidated,
            trigger.pages_patched
        )));
        // Kept by their stamps and patched are two ways of not composing.
        assert!(
            trigger.pages_revalidated + trigger.pages_patched <= trigger.pages_regenerated,
            "{trigger:?}"
        );
        assert!(trigger.pages_revalidated >= regenerated_countries - 3);
        for (path, &before) in paths.iter().zip(&before) {
            let moved = *path != paths[0];
            let old = format!("\"v{before}\"");
            let resp = s.respond(0, &get_request(path, Some(&old)));
            let expected = if moved {
                nagano_httpd::Status::Ok
            } else {
                nagano_httpd::Status::NotModified
            };
            assert_eq!(resp.status, expected, "{path}");
            assert_eq!(tag(path) != before, moved, "{path}");
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
        // which fills the version after the one the cold restart dropped:
        // 2, where every prewarmed page has 1.
        let fields = |v: u64| {
            [
                format!("W/\"v{v}\""),
                format!("\"v0\", \"v{v}\""),
                "*".into(),
            ]
        };
        for (i, path) in ["/medals", "/welcome", "/day/3/"].into_iter().enumerate() {
            assert!(cold.fleet().peek(path).is_none(), "{path}");
            for (s, version, how) in [(&cold, 2, "miss"), (&warm, 1, "hit")] {
                let field = &fields(version)[i];
                let resp = s.respond(0, &get_request(path, Some(field)));
                assert_eq!(resp.status, nagano_httpd::Status::NotModified, "{how}");
                assert!(resp.body.is_empty(), "{field} on a {how}");
            }
            let resp = warm.respond(0, &get_request(path, Some("W/\"v2\", \"v3\"")));
            assert_eq!(resp.status, nagano_httpd::Status::Ok, "{path}");
        }
    }

    #[test]
    fn respond_reuses_cached_body_allocation() {
        let s = site();
        let cached = s.fleet().peek("/medals").unwrap().body;
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
    fn metrics_track_activity() {
        let s = site();
        s.handle("/medals");
        s.handle("/medals");
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
        s.handle("/medals");
        s.handle("/medals");
        let hits = registry.counter("nagano_cache_hits_total", &[("site", "test")]);
        assert_eq!(hits.get(), 2);
        let text = prometheus_text(&registry);
        assert!(text.contains("nagano_cache_hits_total{site=\"test\"} 2"));
        assert!(text.contains("nagano_trigger_txns_total{site=\"test\"} 0"));
        assert!(text.contains("nagano_cache_coalesced_total{site=\"test\"} 0"));
        assert!(!text.contains("node="), "{text}");
        // The cache keeps no stale copy: it has no series of stale serves.
        assert!(!text.contains("nagano_cache_stale_served_total"), "{text}");
    }

    #[test]
    fn status_json_reports_live_state() {
        let s = site();
        s.handle("/medals");
        let doc = s.status_json();
        assert!(doc.starts_with(&format!("{{\"pages\":{}", s.registry().len())));
        // The trigger object ends at the patch count: a site defers
        // nothing, so it reports no deferred queue.
        assert!(doc.contains("\"pages_patched\":0},\"cache\":"), "{doc}");
        let cache = s.fleet();
        let expected = format!(
            "\"cache\":{{\"entries\":{},\"bytes\":{},\"hits\":1,\"misses\":0}}}}",
            cache.len(),
            cache.bytes()
        );
        assert!(doc.ends_with(&expected), "{doc}");
        // Deterministic: identical state, identical bytes.
        assert_eq!(doc, s.status_json());
    }

    #[test]
    fn followers_past_the_budget_without_a_tombstone_render_once() {
        let s = Arc::new(cold(SiteConfig::small()));
        let cache = Arc::clone(s.fleet());
        let cold = cache.stats();
        // A leader that outlives every follower's patience.
        let FlightOutcome::Lead(token) = cache.join_or_lead("/medals", Duration::from_secs(1))
        else {
            panic!("nothing was in flight");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.handle("/medals").unwrap())
            })
            .collect();
        let pages: Vec<ServedPage> = followers
            .into_iter()
            .map(|t| blocking!(t.join()).unwrap())
            .collect();
        cache.complete_flight(token, None);
        // One follower led the replacement flight and the others joined
        // it: one render, so one insert and no update, at the version after
        // the one the cold restart dropped.
        let stats = cache.stats();
        let filled = (stats.inserts - cold.inserts, stats.updates - cold.updates);
        assert_eq!(filled, (1, 0), "{stats:?}");
        for page in pages {
            assert!(!page.body.is_empty());
            assert_eq!(page.version, 2);
        }
    }

    #[test]
    fn admin_handler_serves_metrics_status_and_pages() {
        use nagano_httpd::HttpClient;
        use nagano_telemetry::MetricsRegistry;
        let s = Arc::new(site());
        let registry = Arc::new(MetricsRegistry::new());
        s.bind_telemetry(&registry, &[("site", "t")]);
        let server = s
            .serve_admin_http("127.0.0.1:0", registry, ServerConfig::default())
            .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (code, body) = client.get("/medals").unwrap();
        assert_eq!(code, 200);
        assert!(body.len() > 5_000);
        let (code, body) = client.get("/metrics").unwrap();
        assert_eq!(code, 200);
        let text = String::from_utf8(body.to_vec()).unwrap();
        assert!(text.contains("nagano_cache_hits_total"));
        // The trigger-latency model is the simulation's, not a measurement.
        assert!(!text.contains("nagano_trigger_latency_seconds"), "{text}");
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
