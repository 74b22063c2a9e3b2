//! The DUP correctness invariant, property-tested across random
//! update/request interleavings:
//!
//! **after the trigger monitor has processed all pending transactions,
//! every cached page equals a fresh render of that page.**
//!
//! This is exactly what the paper's system guarantees: cached dynamic
//! pages never serve content older than the last processed database
//! change, whether the policy regenerates in place or invalidates. The
//! two policies a serving site runs are checked on a site; the 1996
//! baseline, which only the cluster simulation runs, on its policy layer
//! over a monitor and its cache.

use proptest::prelude::*;
use std::sync::Arc;

use nagano::{ServingSite, SiteConfig};
use nagano_cache::{CacheConfig, PageCache};
use nagano_cluster::{ConsistencyPolicy, SiteMonitor};
use nagano_db::{seed_games, AthleteId, GamesConfig, OlympicDb, TxnId};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::SimTime;
use nagano_trigger::PageUrls;

/// What the checks drive under a policy: a serving site for the two it
/// can be built with, else the simulation's policy layer, served as a
/// site serves — a hit, or a demand fill — and fed the site database's
/// transactions as a site's pump is.
enum Node {
    Site(ServingSite),
    Layer {
        db: Arc<OlympicDb>,
        registry: Arc<PageRegistry>,
        monitor: Box<SiteMonitor>,
    },
}

impl Node {
    /// The small Games, prewarmed, under `policy`.
    fn build(policy: ConsistencyPolicy) -> Node {
        if let ConsistencyPolicy::UpdateInPlace | ConsistencyPolicy::Invalidate = policy {
            let mut cfg = SiteConfig::small();
            cfg.policy = policy.on_monitor();
            return Node::Site(ServingSite::build(cfg));
        }
        let db = Arc::new(OlympicDb::new());
        let games = GamesConfig::small();
        seed_games(&db, &games);
        let registry = Arc::new(PageRegistry::build(&db, games.days));
        let cache = PageCache::with_keys(CacheConfig::default(), PageUrls::of(&registry));
        let renderer = Renderer::new(Arc::clone(&db));
        let monitor = SiteMonitor::new(policy, renderer, Arc::new(cache), Arc::clone(&registry));
        monitor.trigger().prewarm();
        Node::Layer {
            db,
            registry,
            monitor: Box::new(monitor),
        }
    }

    fn db(&self) -> &Arc<OlympicDb> {
        match self {
            Node::Site(site) => site.db(),
            Node::Layer { db, .. } => db,
        }
    }

    fn registry(&self) -> &Arc<PageRegistry> {
        match self {
            Node::Site(site) => site.registry(),
            Node::Layer { registry, .. } => registry,
        }
    }

    fn cache(&self) -> &Arc<PageCache> {
        match self {
            Node::Site(site) => site.fleet(),
            Node::Layer { monitor, .. } => monitor.trigger().cache(),
        }
    }

    fn handle(&mut self, key: PageKey) {
        match self {
            Node::Site(site) => {
                site.handle(&key.to_url());
            }
            Node::Layer { monitor, .. } => {
                if monitor.trigger().cache().get(&key.to_url()).is_none() {
                    monitor.demand_fill(key);
                }
            }
        }
    }

    /// Process every transaction committed since the last pump.
    fn pump(&mut self) {
        match self {
            Node::Site(site) => {
                site.pump();
            }
            Node::Layer { db, monitor, .. } => {
                let next = |m: &SiteMonitor| TxnId(m.trigger().watermark() + 1);
                while let Some(txn) = db.log().get(next(monitor)) {
                    monitor.process_txn(&txn, SimTime::ZERO);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Record results for event index `e` (mod events), `final` flag.
    Results(u8, bool),
    /// Serve some pages.
    Browse,
    /// Process pending transactions.
    Pump,
    /// Publish a news story.
    News(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..12u8, any::<bool>()).prop_map(|(e, f)| Op::Results(e, f)),
        Just(Op::Browse),
        Just(Op::Pump),
        (0..20u8).prop_map(Op::News),
    ]
}

fn check_consistency(node: &Node) {
    // After a pump, every cached body must equal a fresh render.
    let renderer = Renderer::new(Arc::clone(node.db()));
    let probes: Vec<PageKey> = node
        .registry()
        .pages()
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| {
            matches!(
                k,
                PageKey::Medals
                    | PageKey::Home(_)
                    | PageKey::Event(_)
                    | PageKey::Sport(_)
                    | PageKey::Fragment(_)
            )
        })
        .take(40)
        .collect();
    for key in probes {
        if let Some(cached) = node.cache().peek(&key.to_url()) {
            let fresh = renderer.render(key);
            assert_eq!(
                cached.body, fresh.body,
                "stale page served for {key} — DUP missed a dependency"
            );
        }
    }
}

fn run_scenario(policy: ConsistencyPolicy, ops: &[Op]) {
    let mut node = Node::build(policy);
    let db = Arc::clone(node.db());
    let events = db.events();
    for op in ops {
        match op {
            Op::Results(e, is_final) => {
                let ev = &events[*e as usize % events.len()];
                let pool = db.athletes_of_sport(ev.sport);
                let placements: Vec<(AthleteId, f64)> = pool
                    .iter()
                    .take(4)
                    .enumerate()
                    .map(|(i, a)| (a.id, 50.0 - i as f64))
                    .collect();
                db.record_results(ev.id, &placements, *is_final, ev.day);
            }
            Op::Browse => {
                for key in [
                    PageKey::Medals,
                    PageKey::Home(3),
                    PageKey::Event(events[0].id),
                ] {
                    node.handle(key);
                }
            }
            Op::Pump => {
                node.pump();
                check_consistency(&node);
            }
            Op::News(n) => {
                db.publish_news(nagano_db::NewsArticle {
                    id: nagano_db::NewsId(5_000 + *n as u32),
                    day: 3,
                    title: format!("story {n}"),
                    body: "…".into(),
                    about_event: Some(events[*n as usize % events.len()].id),
                });
            }
        }
    }
    node.pump();
    check_consistency(&node);
}

proptest! {
    // Site construction is comparatively expensive; a moderate case count
    // still explores thousands of operations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn update_in_place_never_serves_stale(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_scenario(ConsistencyPolicy::UpdateInPlace, &ops);
    }

    #[test]
    fn invalidate_never_serves_stale(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_scenario(ConsistencyPolicy::Invalidate, &ops);
    }

    #[test]
    fn conservative_never_serves_stale(ops in proptest::collection::vec(op_strategy(), 1..15)) {
        run_scenario(ConsistencyPolicy::Conservative96, &ops);
    }
}

#[test]
fn hit_rate_ordering_matches_the_paper() {
    // Replay an identical scripted load under each policy; the 1998
    // policy must dominate precise invalidation, which must dominate the
    // 1996 baseline.
    let mut rates = Vec::new();
    for policy in [
        ConsistencyPolicy::UpdateInPlace,
        ConsistencyPolicy::Invalidate,
        ConsistencyPolicy::Conservative96,
    ] {
        let mut node = Node::build(policy);
        let db = Arc::clone(node.db());
        let events = db.events();
        // Interleave: browse 40 pages, then an update, 10 rounds.
        for round in 0..10u32 {
            for i in 0..40u32 {
                let key = match i % 4 {
                    0 => PageKey::Medals,
                    1 => PageKey::Home(3),
                    2 => PageKey::Event(events[(i % 8) as usize].id),
                    _ => PageKey::Athlete(nagano_db::AthleteId(i % 20 + 1)),
                };
                node.handle(key);
            }
            let ev = &events[(round % 8) as usize];
            let pool = db.athletes_of_sport(ev.sport);
            let placements: Vec<(AthleteId, f64)> = pool
                .iter()
                .take(3)
                .enumerate()
                .map(|(i, a)| (a.id, 10.0 - i as f64))
                .collect();
            db.record_results(ev.id, &placements, false, ev.day);
            node.pump();
        }
        rates.push((policy.label(), node.cache().stats().hit_rate()));
    }
    assert!(
        rates[0].1 >= rates[1].1 && rates[1].1 > rates[2].1,
        "ordering violated: {rates:?}"
    );
    assert!(rates[0].1 > 0.999, "update-in-place {rates:?}");
    assert!(
        rates[2].1 < 0.9,
        "conservative should miss a lot: {rates:?}"
    );
}
