//! Property tests for the page layer: URL round-trips, parser totality,
//! renderer determinism, and dependency-derivation invariants.

use proptest::prelude::*;
use std::sync::Arc;

use nagano_db::{
    seed_games, AthleteId, CountryId, EventId, GamesConfig, NewsId, OlympicDb, SportId,
};
use nagano_pagegen::{FragmentKey, PageKey, Renderer};

fn arbitrary_key() -> impl Strategy<Value = PageKey> {
    prop_oneof![
        (1..=16u32).prop_map(PageKey::Home),
        Just(PageKey::Welcome),
        (0..100_000u32).prop_map(|n| PageKey::News(NewsId(n))),
        (1..=16u32).prop_map(PageKey::NewsIndex),
        (0..1_000u32).prop_map(|n| PageKey::Venue(SportId(n))),
        (0..1_000u32).prop_map(|n| PageKey::Sport(SportId(n))),
        (0..10_000u32).prop_map(|n| PageKey::Event(EventId(n))),
        (0..1_000u32).prop_map(|n| PageKey::Country(CountryId(n))),
        (0..100_000u32).prop_map(|n| PageKey::Athlete(AthleteId(n))),
        Just(PageKey::Medals),
        Just(PageKey::Nagano),
        Just(PageKey::Fun),
        (0..10_000u32).prop_map(|n| PageKey::Fragment(FragmentKey::ResultTable(EventId(n)))),
        Just(PageKey::Fragment(FragmentKey::MedalTable)),
        (1..=16u32).prop_map(|d| PageKey::Fragment(FragmentKey::Headlines(d))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every key round-trips through its URL.
    #[test]
    fn url_roundtrip(key in arbitrary_key()) {
        let url = key.to_url();
        prop_assert_eq!(PageKey::parse(&url), Some(key), "url {}", url);
        // Object keys are prefixed URLs.
        prop_assert_eq!(key.object_key(), format!("page:{url}"));
    }

    /// The URL parser never panics on arbitrary strings.
    #[test]
    fn parser_is_total(path in "\\PC{0,60}") {
        let _ = PageKey::parse(&path);
    }

    /// Parsing any "/a/b/c"-shaped path never panics and, when it
    /// succeeds, re-serialises to an equivalent key.
    #[test]
    fn slashy_paths_parse_consistently(segments in proptest::collection::vec("[a-z0-9]{1,10}", 0..5)) {
        let path = format!("/{}", segments.join("/"));
        if let Some(key) = PageKey::parse(&path) {
            prop_assert_eq!(PageKey::parse(&key.to_url()), Some(key));
        }
    }
}

proptest! {
    // Rendering is heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rendering is deterministic and its dependency lists are sane:
    /// dynamic pages depend on something, static pages on nothing, and
    /// every dependency weight is positive and finite.
    #[test]
    fn render_invariants(selector in proptest::collection::vec(0..15usize, 1..8)) {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let renderer = Renderer::new(Arc::clone(&db));
        let keys: Vec<PageKey> = vec![
            PageKey::Home(2),
            PageKey::Home(14),
            PageKey::Welcome,
            PageKey::NewsIndex(3),
            PageKey::Venue(SportId(1)),
            PageKey::Sport(SportId(1)),
            PageKey::Event(EventId(1)),
            PageKey::Event(EventId(2)),
            PageKey::Country(CountryId(1)),
            PageKey::Athlete(AthleteId(1)),
            PageKey::Medals,
            PageKey::Nagano,
            PageKey::Fun,
            PageKey::Fragment(FragmentKey::ResultTable(EventId(1))),
            PageKey::Fragment(FragmentKey::MedalTable),
        ];
        for &i in &selector {
            let key = keys[i];
            let a = renderer.render(key);
            let b = renderer.render(key);
            prop_assert_eq!(&a.body, &b.body, "nondeterministic body for {}", key);
            prop_assert_eq!(&a.deps, &b.deps);
            if key.is_dynamic() {
                prop_assert!(!a.deps.is_empty(), "{} has no dependencies", key);
            } else {
                prop_assert!(a.deps.is_empty(), "static {} has dependencies", key);
            }
            for dep in a.deps.iter() {
                prop_assert!(dep.weight.is_finite() && dep.weight > 0.0);
                prop_assert!(
                    dep.data_key.starts_with("data:") || dep.data_key.starts_with("page:"),
                    "bad dep namespace {}",
                    dep.data_key
                );
            }
            prop_assert!(a.cost_ms > 0.0);
            prop_assert!(!a.body.is_empty());
        }
    }
}
