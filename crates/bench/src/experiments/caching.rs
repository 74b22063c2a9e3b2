//! Caching experiments: the headline hit-rate comparison, real-socket
//! serving throughput, DUP propagation scaling, and the cache memory
//! footprint.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use serde_json::json;

use nagano::{ServingSite, SiteConfig};
use nagano_db::{seed_games, OlympicDb};
use nagano_httpd::{Handler, HttpClient, Request, Response, Server, ServerConfig};
use nagano_odg::{DupEngine, NodeId};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::{DeterministicRng, SimDuration, SimTime};
use nagano_trigger::ConsistencyPolicy;
use nagano_workload::RequestModel;
use rustc_hash::FxHashMap;

use super::{games_for, report_for_policy};
use crate::fmt::TextTable;
use crate::{ExpConfig, ExpResult};

/// The headline comparison: hit rate under each consistency strategy.
pub fn hitrate(config: &ExpConfig) -> ExpResult {
    let mut table = TextTable::new(["policy", "hit rate (%)", "regen/inval events"]);
    let mut json_rows = Vec::new();

    let mut add_cluster = |policy: ConsistencyPolicy| -> f64 {
        let report = report_for_policy(config, policy);
        let hr = report.hit_rate() * 100.0;
        let churn = report.cache.updates + report.cache.invalidations;
        table.row([
            policy.label().to_string(),
            format!("{hr:.2}"),
            crate::fmt::thousands(churn as f64),
        ]);
        json_rows.push(json!({"policy": policy.label(), "hit_rate": hr / 100.0}));
        hr
    };
    let dup_update = add_cluster(ConsistencyPolicy::UpdateInPlace);
    let dup_inval = add_cluster(ConsistencyPolicy::Invalidate);
    let conservative = add_cluster(ConsistencyPolicy::Conservative96);

    // TTL and no-cache baselines: replay the same request stream with
    // pure bookkeeping (a TTL cache needs no dependence information —
    // and can serve stale pages, which is why the paper rejects it).
    let (ttl_rate, nocache_rate) = ttl_and_nocache(config);
    table.row([
        "ttl-60s".to_string(),
        format!("{:.2}", ttl_rate * 100.0),
        "n/a (serves stale)".to_string(),
    ]);
    table.row([
        "no-cache".to_string(),
        format!("{:.2}", nocache_rate * 100.0),
        "n/a".to_string(),
    ]);
    json_rows.push(json!({"policy": "ttl-60s", "hit_rate": ttl_rate}));
    json_rows.push(json!({"policy": "no-cache", "hit_rate": nocache_rate}));

    let verdict = format!(
        "Paper: DUP + update-in-place ≈100% hit rate (1998) vs ≈80% with conservative \
         invalidation (1996).\nMeasured: update-in-place {dup_update:.1}%, precise \
         invalidation {dup_inval:.1}%, conservative-96 {conservative:.1}% — same ordering, \
         same ≈20-point gap between the 1998 and 1996 designs."
    );
    ExpResult {
        id: "hitrate",
        title: "Cache hit rate by consistency policy (16-day replay)",
        rendered: table.render(),
        json: json!({ "rows": json_rows }),
        verdict,
    }
}

/// Replay hit/miss bookkeeping for a TTL cache and the no-cache baseline.
fn ttl_and_nocache(config: &ExpConfig) -> (f64, f64) {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &games_for(config));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let model = RequestModel::new(&db, registry, config.scale);
    let mut rng = DeterministicRng::seed_from_u64(config.seed ^ 0x77);
    let ttl = SimDuration::from_secs(60);
    let mut expiry: FxHashMap<String, SimTime> = FxHashMap::default();
    let (mut hits, mut total) = (0u64, 0u64);
    for minute in 0..16 * 1440u64 {
        let t = SimTime::from_mins(minute) + SimDuration::from_secs(30);
        let n = model.sample_minute_count(t, &mut rng);
        for _ in 0..n {
            let page = model.sample_page(t, &mut rng);
            let url = page.to_url();
            total += 1;
            match expiry.get(&url) {
                Some(&e) if t < e => hits += 1,
                _ => {
                    expiry.insert(url, t + ttl);
                }
            }
        }
    }
    let ttl_rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    (ttl_rate, 0.0) // no-cache: every request generates
}

/// Closed-loop capacity at `addr`: 8 keep-alive clients, one scoped
/// thread each, together issue `requests` GETs, each answered 200. Each
/// client walks `paths` round-robin from its own offset, so every client
/// sees the same page mix. Returns pages per second and the nearest-rank
/// median latency in milliseconds.
#[expect(
    clippy::disallowed_methods,
    reason = "capacity is real-socket wall-clock throughput by design"
)]
fn capacity(addr: SocketAddr, paths: &[String], requests: usize) -> (f64, f64) {
    const CLIENTS: usize = 8;
    let start = Instant::now();
    let mut latencies_us: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let share = (c..requests).step_by(CLIENTS).len();
                    paths
                        .iter()
                        .cycle()
                        .skip(c)
                        .take(share)
                        .map(|path| {
                            let sent = Instant::now();
                            let (code, _) = client.get(path).unwrap();
                            assert_eq!(code, 200, "GET {path}");
                            sent.elapsed().as_micros() as u64
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    let p50_ms = latencies_us
        .get(latencies_us.len().saturating_sub(1) / 2)
        .map_or(0.0, |&us| us as f64 / 1_000.0);
    (latencies_us.len() as f64 / elapsed, p50_ms)
}

/// Serving throughput over real sockets: static pages vs cached dynamic
/// pages vs uncached dynamic generation.
pub fn throughput(config: &ExpConfig) -> ExpResult {
    // Requests per configuration, quick or full: an uncached page burns
    // its modelled ~150 ms of CPU, so those runs are a few dozen.
    let (cached_requests, uncached_requests) = if config.quick {
        (20_000, 16)
    } else {
        (100_000, 80)
    };
    let server_cfg = || ServerConfig {
        workers: 8,
        ..Default::default()
    };

    // Warm site serving from cache.
    let site = Arc::new(ServingSite::build(if config.quick {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    }));
    let server = site.serve_http("127.0.0.1:0", 0, server_cfg()).unwrap();

    let static_paths = vec![
        "/welcome".to_string(),
        "/nagano".to_string(),
        "/fun".to_string(),
    ];
    let (static_rps, static_p50) = capacity(server.addr(), &static_paths, cached_requests);

    let events = site.db().events();
    let dynamic_paths: Vec<String> = events
        .iter()
        .take(6)
        .map(|e| PageKey::Event(e.id).to_url())
        .chain([PageKey::Medals.to_url(), PageKey::Home(7).to_url()])
        .collect();
    let (cached_rps, cached_p50) = capacity(server.addr(), &dynamic_paths, cached_requests);
    server.shutdown();

    // Uncached dynamic: regenerate on every request, burning the modelled
    // CPU cost for real (FastCGI server program without the cache).
    let renderer = Renderer::new(Arc::clone(site.db())).with_simulated_cpu(1.0);
    let uncached_handler: Arc<dyn Handler> =
        Arc::new(move |req: &Request| match PageKey::parse(&req.path) {
            Some(key) => Response::html(renderer.render(key).body),
            None => Response::not_found(),
        });
    let uncached_server = Server::bind("127.0.0.1:0", uncached_handler, server_cfg()).unwrap();
    let (uncached_rps, uncached_p50) =
        capacity(uncached_server.addr(), &dynamic_paths, uncached_requests);
    uncached_server.shutdown();

    let mut table = TextTable::new(["configuration", "pages/s", "p50 latency (ms)"]);
    for (name, rps, p50_ms) in [
        ("static pages", static_rps, static_p50),
        ("cached dynamic (DUP)", cached_rps, cached_p50),
        ("uncached dynamic", uncached_rps, uncached_p50),
    ] {
        table.row([
            name.to_string(),
            format!("{rps:.0}"),
            format!("{p50_ms:.2}"),
        ]);
    }
    let ratio_cached = cached_rps / static_rps.max(1.0);
    let speedup = cached_rps / uncached_rps.max(0.1);
    let verdict = format!(
        "Paper: cached dynamic pages served 'at roughly the same rates as static pages'; \
         a single server serves several hundred cacheable dynamic pages/s, while uncached \
         dynamic generation is orders of magnitude slower.\n\
         Measured: cached-dynamic/static ratio {ratio_cached:.2}; caching speedup over \
         uncached generation {speedup:.0}x; uncached {:.0} pages/s vs cached {:.0}.",
        uncached_rps, cached_rps
    );
    ExpResult {
        id: "throughput",
        title: "Serving throughput: static vs cached-dynamic vs uncached-dynamic (real sockets)",
        rendered: table.render(),
        json: json!({
            "static_rps": static_rps,
            "cached_rps": cached_rps,
            "uncached_rps": uncached_rps,
            "cached_vs_static": ratio_cached,
            "cache_speedup": speedup,
        }),
        verdict,
    }
}

/// DUP propagation scaling plus the "one update → 128 pages" fan-out.
pub fn odg_scaling(config: &ExpConfig) -> ExpResult {
    let mut table = TextTable::new([
        "graph (data x objects, fanout)",
        "edges",
        "affected",
        "propagate (us)",
    ]);
    let shapes: &[(u32, u32, u32)] = if config.quick {
        &[(100, 500, 5), (1_000, 5_000, 5)]
    } else {
        &[
            (100, 500, 5),
            (1_000, 5_000, 5),
            (5_000, 25_000, 10),
            (20_000, 100_000, 10),
        ]
    };
    let mut json_rows = Vec::new();
    // Fastest and slowest propagation over the sweep.
    let mut span = (f64::INFINITY, 0.0f64);
    for &(n_data, n_obj, fanout) in shapes {
        let mut engine = DupEngine::new();
        for d in 0..n_data {
            for k in 0..fanout {
                let o = (d * 31 + k * 7919) % n_obj;
                engine
                    .add_dependency(NodeId(d), NodeId(1_000_000 + o), 1.0)
                    .unwrap();
            }
        }
        let changed: Vec<NodeId> = (0..10.min(n_data)).map(NodeId).collect();
        // Size the engine's scratch, then time the traversal.
        let warm = engine.propagate_ids(&changed);
        let reps = if config.quick { 20 } else { 200 };
        #[expect(
            clippy::disallowed_methods,
            reason = "the traversal is timed in host time"
        )]
        let t0 = Instant::now();
        for _ in 0..reps {
            engine.propagate_ids(&changed);
        }
        let propagate_us = t0.elapsed().as_micros() as f64 / reps as f64;
        span = (span.0.min(propagate_us), span.1.max(propagate_us));
        table.row([
            format!("{n_data} x {n_obj}, f={fanout}"),
            crate::fmt::thousands(engine.graph().edge_count() as f64),
            warm.stale.len().to_string(),
            format!("{propagate_us:.1}"),
        ]);
        json_rows.push(json!({
            "data": n_data, "objects": n_obj, "fanout": fanout,
            "edges": engine.graph().edge_count(),
            "affected": warm.stale.len(),
            "propagate_us": propagate_us,
        }));
    }

    // Site-level fan-out: one final cross-country-style result update.
    let site = ServingSite::build(if config.quick {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    });
    let ev = site
        .db()
        .events()
        .into_iter()
        .find(|e| e.name.contains("Cross-Country"))
        .unwrap_or_else(|| site.db().events()[0].clone());
    let pool = site.db().athletes_of_sport(ev.sport);
    let placements: Vec<_> = pool
        .iter()
        .take(30)
        .enumerate()
        .map(|(i, a)| (a.id, 100.0 - i as f64))
        .collect();
    site.db().record_results(ev.id, &placements, true, ev.day);
    let outcome = site.pump();
    let affected = outcome.regenerated + outcome.invalidated;

    let verdict = format!(
        "Paper: one typical cross-country update changed 128 Web pages; DUP finds the \
         affected set by graph traversal, and is 'considerably easier to implement' on a \
         simple ODG.\n\
         Measured: one final '{}' update with {} entrants affected {} pages; the one \
         traversal (slot table, reused scratch) propagates 10 changes over the simple \
         ODGs above in {:.1}-{:.1} us, and the same traversal serves the site's graph of \
         weighted edges and hybrid fragment vertices.",
        ev.name,
        placements.len(),
        affected,
        span.0,
        span.1
    );
    ExpResult {
        id: "odg",
        title: "DUP propagation: scaling sweep + single-update page fan-out",
        rendered: table.render(),
        json: json!({ "sweep": json_rows, "single_update_affected": affected }),
        verdict,
    }
}

/// Cache memory footprint: one copy of every cached object.
pub fn memory(config: &ExpConfig) -> ExpResult {
    let site = ServingSite::build(if config.quick {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    });
    let m = site.metrics();
    let bytes = m.cache.bytes_current;
    let pages = site.fleet().len();
    let mut table = TextTable::new(["metric", "value"]);
    table
        .row([
            "cached pages (one copy)".to_string(),
            crate::fmt::thousands(pages as f64),
        ])
        .row([
            "cache bytes".to_string(),
            format!("{:.1} MB", bytes as f64 / 1.0e6),
        ])
        .row([
            "mean page size".to_string(),
            format!("{:.1} KB", bytes as f64 / pages.max(1) as f64 / 1_000.0),
        ])
        .row([
            "ODG nodes / edges".to_string(),
            format!("{} / {}", m.odg.0, m.odg.1),
        ]);
    // Extrapolate to the paper's 21,000-dynamic-page bilingual site.
    let per_page = bytes as f64 / pages.max(1) as f64;
    let extrapolated_mb = per_page * 21_000.0 / 1.0e6;
    let verdict = format!(
        "Paper: ≤175 MB for a single copy of all cached objects; everything fit in memory, \
         no replacement ever ran.\nMeasured: {:.1} MB for {} pages ({:.1} KB/page); \
         extrapolated to the paper's 21,000 bilingual dynamic pages: {extrapolated_mb:.0} MB \
         — the same 'fits comfortably in one machine's memory' regime.",
        bytes as f64 / 1.0e6,
        pages,
        per_page / 1_000.0
    );
    ExpResult {
        id: "memory",
        title: "Cache memory footprint (single copy of all cached objects)",
        rendered: table.render(),
        json: json!({
            "pages": pages,
            "bytes": bytes,
            "per_page_bytes": per_page,
            "extrapolated_21k_mb": extrapolated_mb,
        }),
        verdict,
    }
}
