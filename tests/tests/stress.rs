//! Stress test: real HTTP load against a site while the update stream
//! runs live — no errors, no stale reads, hit rate stays at 100%.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use nagano::{ServingSite, SiteConfig};
use nagano_db::AthleteId;
use nagano_httpd::{HttpClient, ServerConfig};
use nagano_pagegen::PageKey;
use nagano_simcore::sync::blocking;

#[test]
fn live_updates_under_http_load_lose_nothing() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let runner = site.spawn_trigger_runner();
    let server = site
        .serve_http(
            "127.0.0.1:0",
            0,
            ServerConfig {
                workers: 6,
                ..Default::default()
            },
        )
        .unwrap();

    // Load over the hot pages the updates keep touching: 4 readers, one
    // keep-alive client each, GET them round-robin until the burst ends.
    let events = site.db().events();
    let paths: Vec<String> = [
        PageKey::Medals,
        PageKey::Home(3),
        PageKey::Event(events[0].id),
        PageKey::Sport(events[0].sport),
    ]
    .into_iter()
    .map(|key| key.to_url())
    .collect();
    let ev = events[0].clone();
    let pool = site.db().athletes_of_sport(ev.sport);
    let done = AtomicBool::new(false);
    let addr = server.addr();
    let (reads, ok200, errors) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let (paths, done) = (&paths, &done);
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let (mut sent, mut ok, mut errors) = (0u64, 0u64, 0u64);
                    for path in paths.iter().cycle().skip(r) {
                        if done.load(Relaxed) {
                            break;
                        }
                        sent += 1;
                        match client.get(path) {
                            Ok((200, _)) => ok += 1,
                            Ok(_) => {}
                            Err(_) => errors += 1,
                        }
                    }
                    (sent, ok, errors)
                })
            })
            .collect();

        // Meanwhile, a burst of result updates lands.
        for round in 0..20u32 {
            let placements: Vec<(AthleteId, f64)> = pool
                .iter()
                .take(4)
                .enumerate()
                .map(|(i, a)| (a.id, 100.0 - i as f64 - round as f64 * 0.01))
                .collect();
            site.db()
                .record_results(ev.id, &placements, round == 19, ev.day);
            blocking!(std::thread::sleep(Duration::from_millis(20)));
        }
        done.store(true, Relaxed);

        readers
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1, acc.2 + t.2))
    });
    let processed = runner.stop();
    assert_eq!(errors, 0, "no failed requests under live updates");
    assert_eq!(ok200, reads, "every response a 200");
    assert!(reads > 500, "requests {reads}");
    assert_eq!(processed, 20, "every update processed");

    // Update-in-place: the load never caused a miss on node 0 beyond the
    // (zero) expected — everything stayed resident.
    let stats = site.fleet().member(0).stats();
    assert_eq!(stats.misses, 0, "hot pages must never miss");
    assert!(stats.updates > 0, "pages were updated in place during load");

    // Final content is fresh: the served event page equals a fresh render.
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (code, body) = client.get(&PageKey::Event(ev.id).to_url()).unwrap();
    assert_eq!(code, 200);
    let fresh = nagano_pagegen::Renderer::new(Arc::clone(site.db())).render(PageKey::Event(ev.id));
    assert_eq!(body, fresh.body, "served page matches a fresh render");

    drop(client);
    server.shutdown();
}

#[test]
fn conditional_gets_under_updates_never_see_stale_304() {
    // A client holding an ETag must never receive 304 for a page whose
    // content changed: the version bump guarantees revalidation misses.
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let server = site
        .serve_http("127.0.0.1:0", 0, ServerConfig::default())
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let ev = site.db().events()[0].clone();
    let pool = site.db().athletes_of_sport(ev.sport);
    let path = PageKey::Event(ev.id).to_url();

    let (_, mut last_body, mut last_etag) = client.get_conditional(&path, None).unwrap();
    for round in 0..10u32 {
        site.db().record_results(
            ev.id,
            &[(
                pool[round as usize % pool.len().min(4)].id,
                50.0 + round as f64,
            )],
            false,
            ev.day,
        );
        site.pump();
        let (code, body, etag) = client.get_conditional(&path, last_etag.as_deref()).unwrap();
        // Content always changes (new result row), so a 304 here would be
        // a staleness bug.
        assert_eq!(code, 200, "round {round}: stale 304");
        assert_ne!(body, last_body, "round {round}: body did not change");
        assert_ne!(etag, last_etag, "round {round}: etag did not change");
        last_body = body;
        last_etag = etag;
        // Re-validating immediately (no change) is a 304.
        let (code, body, _) = client.get_conditional(&path, last_etag.as_deref()).unwrap();
        assert_eq!(code, 304);
        assert!(body.is_empty());
    }
    drop(client);
    server.shutdown();
}
