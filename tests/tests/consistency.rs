//! The DUP correctness invariant, property-tested across random
//! update/request interleavings:
//!
//! **after the trigger monitor has processed all pending transactions,
//! every cached page equals a fresh render of that page.**
//!
//! This is exactly what the paper's system guarantees: cached dynamic
//! pages never serve content older than the last processed database
//! change, whether the policy regenerates in place or invalidates.

use proptest::prelude::*;
use std::sync::Arc;

use nagano::{ServingSite, SiteConfig};
use nagano_db::AthleteId;
use nagano_pagegen::{PageKey, Renderer};
use nagano_trigger::ConsistencyPolicy;

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

fn check_consistency(site: &ServingSite) {
    // After a pump, every cached body must equal a fresh render.
    let renderer = Renderer::new(Arc::clone(site.db()));
    let probes: Vec<PageKey> = site
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
        if let Some(cached) = site.fleet().peek(&key.to_url()) {
            let fresh = renderer.render(key);
            assert_eq!(
                cached.body, fresh.body,
                "stale page served for {key} — DUP missed a dependency"
            );
        }
    }
}

fn run_scenario(policy: ConsistencyPolicy, ops: &[Op]) {
    let mut cfg = SiteConfig::small();
    cfg.policy = policy;
    let site = ServingSite::build(cfg);
    let events = site.db().events();
    for op in ops {
        match op {
            Op::Results(e, is_final) => {
                let ev = &events[*e as usize % events.len()];
                let pool = site.db().athletes_of_sport(ev.sport);
                let placements: Vec<(AthleteId, f64)> = pool
                    .iter()
                    .take(4)
                    .enumerate()
                    .map(|(i, a)| (a.id, 50.0 - i as f64))
                    .collect();
                site.db()
                    .record_results(ev.id, &placements, *is_final, ev.day);
            }
            Op::Browse => {
                for key in [
                    PageKey::Medals,
                    PageKey::Home(3),
                    PageKey::Event(events[0].id),
                ] {
                    site.handle(&key.to_url());
                }
            }
            Op::Pump => {
                site.pump();
                check_consistency(&site);
            }
            Op::News(n) => {
                site.db().publish_news(nagano_db::NewsArticle {
                    id: nagano_db::NewsId(5_000 + *n as u32),
                    day: 3,
                    title: format!("story {n}"),
                    body: "…".into(),
                    about_event: Some(events[*n as usize % events.len()].id),
                });
            }
        }
    }
    site.pump();
    check_consistency(&site);
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
        let mut cfg = SiteConfig::small();
        cfg.policy = policy;
        let site = ServingSite::build(cfg);
        let events = site.db().events();
        // Interleave: browse 40 pages, then an update, 10 rounds.
        for round in 0..10u32 {
            for i in 0..40u32 {
                let key = match i % 4 {
                    0 => PageKey::Medals,
                    1 => PageKey::Home(3),
                    2 => PageKey::Event(events[(i % 8) as usize].id),
                    _ => PageKey::Athlete(nagano_db::AthleteId(i % 20 + 1)),
                };
                site.handle(&key.to_url());
            }
            let ev = &events[(round % 8) as usize];
            let pool = site.db().athletes_of_sport(ev.sport);
            let placements: Vec<(AthleteId, f64)> = pool
                .iter()
                .take(3)
                .enumerate()
                .map(|(i, a)| (a.id, 10.0 - i as f64))
                .collect();
            site.db().record_results(ev.id, &placements, false, ev.day);
            site.pump();
        }
        rates.push((policy.label(), site.metrics().cache.hit_rate()));
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
