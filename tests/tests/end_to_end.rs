//! End-to-end tests: database update → trigger monitor → cache → HTTP
//! client, across the full stack.

use std::sync::Arc;

use nagano::{ServingSite, SiteConfig};
use nagano_db::{AthleteId, Photo, PhotoId};
use nagano_httpd::{HttpClient, ServerConfig};
use nagano_pagegen::{PageKey, Renderer};

fn podium(site: &ServingSite, event: nagano_db::EventId) -> Vec<(AthleteId, f64)> {
    let ev = site.db().event(event).unwrap();
    site.db()
        .athletes_of_sport(ev.sport)
        .iter()
        .take(6)
        .enumerate()
        .map(|(i, a)| (a.id, 100.0 - i as f64))
        .collect()
}

#[test]
fn results_flow_to_http_clients_without_cache_misses() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let server = site
        .serve_http("127.0.0.1:0", 0, ServerConfig::default())
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let ev = site.db().events()[0].clone();
    let event_url = PageKey::Event(ev.id).to_url();
    let (code, before) = client.get(&event_url).unwrap();
    assert_eq!(code, 200);

    // Post results; process them; the page changes but stays cached.
    let misses_before = site.metrics().cache.misses;
    site.db()
        .record_results(ev.id, &podium(&site, ev.id), true, ev.day);
    site.pump();
    let (code, after) = client.get(&event_url).unwrap();
    assert_eq!(code, 200);
    assert_ne!(before, after, "page must reflect the new results");
    assert_eq!(
        site.metrics().cache.misses,
        misses_before,
        "update-in-place must not cause a single miss"
    );

    // The winning athlete's page reflects the result too.
    let winner = podium(&site, ev.id)[0].0;
    let (_, athlete_page) = client.get(&PageKey::Athlete(winner).to_url()).unwrap();
    let html = String::from_utf8(athlete_page.to_vec()).unwrap();
    assert!(html.contains("rank 1"), "winner page shows the gold");

    drop(client);
    server.shutdown();
}

#[test]
fn every_registry_page_is_servable_over_http() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let server = site
        .serve_http("127.0.0.1:0", 0, ServerConfig::default())
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for (key, meta) in site.registry().pages() {
        let (code, body) = client.get(&key.to_url()).unwrap();
        assert_eq!(code, 200, "page {key}");
        assert!(!body.is_empty());
        // Bodies land near their registered nominal sizes.
        assert!(
            body.len() + 4096 >= meta.bytes,
            "{key}: {} vs {}",
            body.len(),
            meta.bytes
        );
    }
    drop(client);
    server.shutdown();
}

#[test]
fn all_fleet_nodes_serve_identical_content_after_updates() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let ev = site.db().events()[1].clone();
    site.db()
        .record_results(ev.id, &podium(&site, ev.id), true, ev.day);
    site.pump();
    // The site is one serving node: what it serves, and what every member
    // the fleet lists holds, is a fresh render of every affected page.
    let renderer = Renderer::new(Arc::clone(site.db()));
    for key in [
        PageKey::Event(ev.id),
        PageKey::Medals,
        PageKey::Home(ev.day),
        PageKey::Sport(ev.sport),
    ] {
        let fresh = renderer.render(key).body;
        let served = site.handle(&key.to_url()).unwrap();
        assert!(served.cache_hit, "{key}");
        assert_eq!(served.body, fresh, "{key}: served stale");
        for member in site.fleet().members() {
            let held = member.peek(&key.to_url()).unwrap().body;
            assert_eq!(held, fresh, "{key}: a member diverged");
        }
    }
}

#[test]
fn background_runner_keeps_site_fresh_under_live_updates() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let runner = site.spawn_trigger_runner();
    let ev = site.db().events()[2].clone();
    let url = PageKey::Event(ev.id).to_url();
    let v0 = site.fleet().peek(&url).unwrap().version;
    for round in 0..5 {
        site.db()
            .record_results(ev.id, &podium(&site, ev.id), round == 4, ev.day);
    }
    let processed = runner.stop();
    assert_eq!(processed, 5);
    // Every round appends its rows to the page, so its bytes change
    // once per database state the runner derived it from — five if it
    // kept up, fewer if it trailed: a transaction processed after a later
    // one committed reproduces the cached bytes and keeps the version.
    let cached = site.fleet().peek(&url).unwrap();
    assert!(
        (v0 + 1..=v0 + 5).contains(&cached.version),
        "version {v0} -> {}",
        cached.version
    );
    assert_fresh(&site, PageKey::Event(ev.id));
    // Final results awarded medals; the standings page shows a country
    // with gold.
    let medals = site.handle("/medals").unwrap();
    assert!(medals.cache_hit);
    let standings = site.db().medal_standings();
    assert!(standings[0].1.gold >= 1);
}

/// Commit into `site` more photos than a queue of commits used to hold,
/// each of no event (it marks no page), then a final; returns its page.
fn burst_then_final(site: &ServingSite) -> PageKey {
    let db = site.db();
    for i in 0..BURST {
        let (id, bytes) = (PhotoId(1_000_000 + i), 40_000);
        db.add_photo(Photo {
            id,
            day: 1,
            about_event: None,
            bytes,
        });
    }
    let ev = db.events()[0].clone();
    db.record_results(ev.id, &podium(site, ev.id), true, ev.day);
    PageKey::Event(ev.id)
}

const BURST: u32 = 1_100;

fn assert_fresh(site: &ServingSite, key: PageKey) {
    let cached = site.fleet().peek(&key.to_url()).unwrap();
    let fresh = Renderer::new(Arc::clone(site.db())).render(key);
    assert_eq!(cached.body, fresh.body, "{key} is stale");
}

#[test]
fn one_pump_processes_every_commit_of_a_long_burst() {
    let site = ServingSite::build(SiteConfig::small());
    let key = burst_then_final(&site);
    assert_eq!(site.pump().txns, u64::from(BURST) + 1);
    assert_fresh(&site, key);
}

#[test]
fn a_runner_processes_every_commit_of_a_long_burst() {
    let site = ServingSite::build(SiteConfig::small());
    let runner = site.spawn_trigger_runner();
    let key = burst_then_final(&site);
    assert_eq!(runner.stop(), u64::from(BURST) + 1);
    assert_fresh(&site, key);
}

#[test]
fn invalidation_policy_serves_fresh_content_via_demand_miss() {
    let mut cfg = SiteConfig::small();
    cfg.policy = nagano_trigger::ConsistencyPolicy::Invalidate;
    let site = ServingSite::build(cfg);
    let ev = site.db().events()[0].clone();
    let url = PageKey::Event(ev.id).to_url();
    site.db()
        .record_results(ev.id, &podium(&site, ev.id), true, ev.day);
    site.pump();
    // Page was dropped; the next request regenerates it fresh.
    let served = site.handle(&url).unwrap();
    assert!(!served.cache_hit);
    let html = String::from_utf8(served.body.to_vec()).unwrap();
    assert!(html.contains("<table class=\"results\">"));
    // And it is cached again afterwards.
    assert!(site.handle(&url).unwrap().cache_hit);
}
