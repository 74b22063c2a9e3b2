//! Property tests for the page layer: URL round-trips, parser totality,
//! the page space's slots and data vertices, renderer determinism, and
//! dependency-derivation invariants.

use proptest::prelude::*;
use std::sync::Arc;

use nagano_db::{
    seed_games, AthleteId, CountryId, DataKey, Datum, EventId, GamesConfig, NewsId, OlympicDb,
    PhotoId, SportId,
};
use nagano_pagegen::{FragmentKey, PageKey, PageRegistry, PageSpace, Renderer};

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

/// The full Games' registry.
fn full_registry() -> PageRegistry {
    let db = OlympicDb::new();
    seed_games(&db, &GamesConfig::full());
    PageRegistry::build(&db, 16)
}

#[test]
fn every_page_and_story_of_the_games_has_a_slot_of_its_own() {
    let registry = full_registry();
    let space = registry.space();
    let news = (1_000..17_000).map(|n| PageKey::News(NewsId(n)));
    let keys: Vec<PageKey> = registry
        .pages()
        .iter()
        .map(|&(k, _)| k)
        .chain(news)
        .collect();
    let mut taken = vec![false; space.len() as usize];
    for key in keys {
        let Some(slot) = space.slot(key) else {
            panic!("{key} has no slot");
        };
        assert!(slot < space.len(), "{key}: slot {slot}");
        assert_eq!(space.key(slot), Some(key), "slot {slot}");
        // A registered story is listed twice: once from the registry, once
        // from the span.
        let story = matches!(key, PageKey::News(_));
        assert!(!taken[slot as usize] || story, "{key}: slot {slot} taken");
        taken[slot as usize] = true;
    }
    assert!(taken.iter().all(|&t| t), "every slot is a page");
}

#[test]
fn each_familys_first_id_past_its_span_has_no_slot() {
    let db = OlympicDb::new();
    let games = GamesConfig::full();
    seed_games(&db, &games);
    let space = PageSpace::build(&db, games.days);
    let sports = db.sports().len() as u32 + 1;
    let events = games.events + 1;
    let past = [
        PageKey::Home(games.days + 1),
        PageKey::NewsIndex(games.days + 1),
        PageKey::Fragment(FragmentKey::Headlines(games.days + 1)),
        PageKey::Sport(SportId(sports)),
        PageKey::Venue(SportId(sports)),
        PageKey::Event(EventId(events)),
        PageKey::Fragment(FragmentKey::ResultTable(EventId(events))),
        PageKey::Country(CountryId(games.countries + 1)),
        PageKey::Athlete(AthleteId(games.athletes + 1)),
        PageKey::News(NewsId((games.days + 1) * 1_000)),
        // And the id before the first.
        PageKey::Home(0),
        PageKey::Athlete(AthleteId(0)),
        PageKey::News(NewsId(999)),
    ];
    for key in past {
        assert_eq!(space.slot(key), None, "{key:?}");
    }
}

/// The small Games' page space, built once.
fn small_space() -> PageSpace {
    static SPACE: std::sync::OnceLock<PageSpace> = std::sync::OnceLock::new();
    *SPACE.get_or_init(|| {
        let db = OlympicDb::new();
        seed_games(&db, &GamesConfig::small());
        PageSpace::build(&db, 16)
    })
}

/// A key of any family with any id.
fn any_id_key() -> impl Strategy<Value = PageKey> {
    prop_oneof![
        any::<u32>().prop_map(PageKey::Home),
        any::<u32>().prop_map(|n| PageKey::News(NewsId(n))),
        any::<u32>().prop_map(PageKey::NewsIndex),
        any::<u32>().prop_map(|n| PageKey::Venue(SportId(n))),
        any::<u32>().prop_map(|n| PageKey::Sport(SportId(n))),
        any::<u32>().prop_map(|n| PageKey::Event(EventId(n))),
        any::<u32>().prop_map(|n| PageKey::Country(CountryId(n))),
        any::<u32>().prop_map(|n| PageKey::Athlete(AthleteId(n))),
        any::<u32>().prop_map(|n| PageKey::Fragment(FragmentKey::ResultTable(EventId(n)))),
        any::<u32>().prop_map(|d| PageKey::Fragment(FragmentKey::Headlines(d))),
    ]
}

/// A datum of any kind with id `n`, and the text its key is spelled as.
fn datum(kind: usize, n: u32) -> (Datum, String) {
    match kind {
        0 => (Datum::Sport(SportId(n)), format!("data:sport:{n}")),
        1 => (Datum::Event(EventId(n)), format!("data:event:{n}")),
        2 => (Datum::Athlete(AthleteId(n)), format!("data:athlete:{n}")),
        3 => (Datum::Country(CountryId(n)), format!("data:country:{n}")),
        4 => (Datum::News(NewsId(n)), format!("data:news:{n}")),
        5 => (Datum::Photo(PhotoId(n)), format!("data:photo:{n}")),
        6 => (Datum::Today(n), format!("data:today:{n}")),
        7 => (Datum::Medals, "data:medals:standings".into()),
        8 => {
            let f = FragmentKey::ResultTable(EventId(n));
            (Datum::Fragment(f), format!("page:/fragments/results/{n}"))
        }
        9 => (
            Datum::Fragment(FragmentKey::MedalTable),
            "page:/fragments/medals".into(),
        ),
        _ => {
            let f = FragmentKey::Headlines(n);
            (Datum::Fragment(f), format!("page:/fragments/headlines/{n}"))
        }
    }
}

/// The kinds [`datum`] makes.
const KINDS: usize = 11;

/// What holds of one datum's key in `space`: its text is the canonical
/// one — a fragment's its page's object key — and its vertex, if it has
/// one, is its slot for a fragment and above every slot for the rest.
fn check_datum(space: &PageSpace, datum: Datum, text: &str) -> Option<u32> {
    let key = DataKey::new(datum);
    assert_eq!(&*key, text, "{datum:?}");
    let vertex = space.vertex(datum);
    match datum {
        Datum::Fragment(f) => {
            assert_eq!(PageKey::Fragment(f).object_key(), text);
            assert_eq!(vertex, space.slot(PageKey::Fragment(f)), "{text}");
        }
        _ => assert!(
            vertex.is_none_or(|v| v >= space.len()),
            "{text}: {vertex:?}"
        ),
    }
    vertex
}

#[test]
fn data_keys_are_spelled_canonically_and_never_share_a_vertex() {
    // Every kind at every id up to 4,095 — more than any family of the
    // Games has rows — at the ends of its id range, and across the edges of
    // a family's run of vertices.
    let space = small_space();
    let edges = [(1 << 28) - 1, 1 << 28, u32::MAX - 1, u32::MAX];
    let mut taken = std::collections::BTreeMap::new();
    for kind in 0..KINDS {
        for n in (0..4_096).chain(edges) {
            let (datum, text) = datum(kind, n);
            if let Some(vertex) = check_datum(&space, datum, &text) {
                let other = taken.insert(vertex, datum);
                assert!(
                    other.is_none_or(|d| d == datum),
                    "{other:?} and {datum:?}: {vertex}"
                );
            }
        }
    }
    // Medals and the medal table have one key each; no id reaches a vertex
    // past its run.
    let (max, _) = datum(0, u32::MAX);
    assert_eq!(space.vertex(max), None);
    assert_eq!(
        space.vertex(Datum::Medals),
        Some(space.len() + 7 * (1 << 28))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two data keys of any kinds and ids: each spelled canonically, and
    /// on one vertex only if they are one key.
    #[test]
    fn two_data_keys_share_a_vertex_only_if_they_are_one(
        a in (0..KINDS, prop_oneof![0..64u32, 0..(1u32 << 28), any::<u32>()]),
        b in (0..KINDS, prop_oneof![0..64u32, 0..(1u32 << 28), any::<u32>()]),
    ) {
        let space = small_space();
        let ((da, ta), (db, tb)) = (datum(a.0, a.1), datum(b.0, b.1));
        let (va, vb) = (check_datum(&space, da, &ta), check_datum(&space, db, &tb));
        if va.is_some() && va == vb {
            prop_assert_eq!(da, db);
        }
        prop_assert_eq!(DataKey::new(da) == DataKey::new(db), da == db);
    }

    /// Any id of any family maps to no slot or to a slot in range that
    /// maps back to it; no slot past the end maps to a page.
    #[test]
    fn any_id_has_no_slot_or_one_in_range(key in any_id_key(), slot in any::<u32>()) {
        let space = small_space();
        if let Some(slot) = space.slot(key) {
            prop_assert!(slot < space.len(), "{:?}: slot {}", key, slot);
            prop_assert_eq!(space.key(slot), Some(key));
        }
        prop_assert_eq!(space.key(slot).is_some(), slot < space.len());
    }

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
