//! Fragment-composition byte-equivalence suite (ISSUE 10, the PR-5
//! pattern).
//!
//! Fragment mode changes *how* pages are produced — skeleton plans plus
//! independently cached fragments instead of whole-page renders — but it
//! must never change a single served byte. The property: for an
//! arbitrary seed, day mix, and transaction prefix, every `PageKey` the
//! fragment-mode monitor serves is byte-identical to the legacy
//! whole-page renderer, with matching cache versions. A version counts
//! the times a page's bytes changed, so versions match where the two
//! modes pass through the same bytes: when each transaction is processed
//! before the next is committed. A monitor that lags the database does
//! not — a whole-page render reads every table as it is *now*, a
//! composition the fragments as of the transactions processed so far —
//! and there the bytes both end on are compared and each mode's versions
//! are held to the byte changes that mode can have seen (this is where
//! ISSUE 16's "versions agree between the two modes" does not hold; see
//! DESIGN §14a "No-op regenerations"). Each content
//! category also gets a plain named driver so a regression pinpoints the
//! page family that broke.
//!
//! The same generators drive the renderer differential at the bottom: a
//! long-lived `Renderer` (warm section memo: fragments, country rosters,
//! home-page event blocks) against a fresh one after every transaction of
//! a prefix, and after mutations that change nothing but one section —
//! rendering onto nothing, onto the body it returned one state earlier
//! (handed back exactly when the page did not change), and onto bodies
//! that are the page's but for one byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use bytes::Bytes;
use nagano_cache::{CacheConfig, CacheFleet, FragmentStore};
use nagano_db::{
    seed_games, Athlete, AthleteId, Event, EventPhase, GamesConfig, NewsArticle, NewsId, OlympicDb,
    Photo, PhotoId, Transaction,
};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::{DeterministicRng, SimTime};
use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};

fn fresh_db() -> Arc<OlympicDb> {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    db
}

/// A prewarmed fragment-mode monitor and a prewarmed legacy monitor over
/// the SAME db, each with its own two-member fleet.
fn monitor_pair(
    db: &Arc<OlympicDb>,
    policy: ConsistencyPolicy,
) -> (TriggerMonitor, TriggerMonitor, Arc<PageRegistry>) {
    let registry = Arc::new(PageRegistry::build(db, 16));
    let fragmented = TriggerMonitor::new(
        Renderer::new(Arc::clone(db)),
        Arc::new(CacheFleet::new(2, CacheConfig::default())),
        Arc::clone(&registry),
        policy,
    )
    .with_fragments(Arc::new(FragmentStore::new()));
    let legacy = TriggerMonitor::new(
        Renderer::new(Arc::clone(db)),
        Arc::new(CacheFleet::new(2, CacheConfig::default())),
        Arc::clone(&registry),
        policy,
    );
    fragmented.prewarm();
    legacy.prewarm();
    (fragmented, legacy, registry)
}

/// Transaction `i` of a deterministic mixed prefix: a result batch
/// against a random event (random podium size, ~30% finals) or a news
/// story on the touched day — together these dirty every fragment class
/// (result tables, the medal table, headline strips).
fn next_txn(
    db: &OlympicDb,
    rng: &mut DeterministicRng,
    events: &[Event],
    i: usize,
) -> Arc<Transaction> {
    let ev = &events[rng.index(events.len())];
    if rng.chance(0.25) {
        db.publish_news(NewsArticle {
            id: NewsId(9_000 + i as u32),
            day: ev.day,
            title: format!("Late report {i}"),
            body: format!("Fragment-equivalence probe on day {}", ev.day),
            about_event: Some(ev.id),
        })
    } else {
        let pool = db.athletes_of_sport(ev.sport);
        let take = (3 + rng.index(5)).min(pool.len());
        let placements: Vec<(AthleteId, f64)> = pool
            .iter()
            .take(take)
            .enumerate()
            .map(|(i, a)| (a.id, 95.0 - i as f64 - rng.f64()))
            .collect();
        db.record_results(ev.id, &placements, rng.chance(0.3), ev.day)
    }
}

/// Canonical cache view of fleet member `member`: url → (body, version).
fn cache_state(monitor: &TriggerMonitor, member: usize) -> BTreeMap<String, (Vec<u8>, u64)> {
    monitor
        .fleet()
        .member(member)
        .export_entries()
        .into_iter()
        .map(|(key, body, _cost, version)| (key, (body.to_vec(), version)))
        .collect()
}

fn sorted(mut keys: Vec<PageKey>) -> Vec<PageKey> {
    keys.sort();
    keys
}

/// The core property. Drives both monitors txn-by-txn, asserting the
/// per-txn stale sets match, then checks the full final cache state
/// (keys, bodies AND versions) and — under update-in-place, where every
/// cached page is fresh — that every registry page equals a from-scratch
/// whole-page render.
///
/// With `lagging`, the whole prefix is committed before the first
/// transaction is processed, and the two modes no longer pass through the
/// same bytes: the first whole-page render of a page lands on its final
/// bytes, a composition splices fragments and a skeleton as of the
/// transactions processed so far. The versions are then held to what a
/// version means rather than to each other: a whole-page version moved by
/// exactly one if the page ends on other bytes than it was prewarmed with
/// and not at all otherwise, and a composed page's version moved at least
/// as often as that and at most once per regeneration.
fn check_fragment_equivalence(seed: u64, n: usize, lagging: bool) {
    let db = fresh_db();
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let events = db.events();
    let (fragmented, legacy, registry) = monitor_pair(&db, ConsistencyPolicy::UpdateInPlace);
    let prewarmed = [cache_state(&legacy, 0), cache_state(&legacy, 1)];
    let now = SimTime::from_mins(5);
    let mut committed: Vec<_> = (0..if lagging { n } else { 0 })
        .map(|i| next_txn(&db, &mut rng, &events, i))
        .collect();
    let mut regenerations: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..n {
        if !lagging {
            committed.push(next_txn(&db, &mut rng, &events, i));
        }
        let f = fragmented.process_txn_at(&committed[i], now);
        let l = legacy.process_txn_at(&committed[i], now);
        assert_eq!(
            sorted(f.regenerated.clone()),
            sorted(l.regenerated.clone()),
            "txn {i}: regenerated sets diverge between fragment and whole-page modes"
        );
        if !lagging {
            assert_eq!(f.changed, l.changed, "txn {i}: other pages changed");
        }
        for key in &l.regenerated {
            *regenerations.entry(key.to_url()).or_default() += 1;
        }
    }
    for (member, prewarmed) in prewarmed.iter().enumerate() {
        let (composed, whole) = (
            cache_state(&fragmented, member),
            cache_state(&legacy, member),
        );
        if !lagging {
            assert_eq!(
                composed, whole,
                "member {member}: fragment-composed cache diverges from whole-page cache"
            );
            continue;
        }
        assert!(
            composed.keys().eq(whole.keys()),
            "member {member}: the two modes cache different pages"
        );
        for (url, (body, version)) in &whole {
            let (composed_body, composed_version) = &composed[url];
            assert_eq!(composed_body, body, "member {member}: {url}: bytes diverge");
            let (was, base) = &prewarmed[url];
            let regenerated = regenerations.get(url).copied().unwrap_or(0);
            assert_eq!(
                *version,
                base + u64::from(body != was),
                "member {member}: {url}: a whole-page version counts the one change of bytes"
            );
            assert!(
                (*version..=base + regenerated).contains(composed_version),
                "member {member}: {url}: composed version {composed_version} outside \
                 {version}..={base}+{regenerated}"
            );
        }
    }
    // Third leg: composition must also agree with the *renderer itself*,
    // not merely with the legacy monitor's copy of its output.
    let fresh = Renderer::new(Arc::clone(&db));
    for key in registry.pages().iter().map(|(k, _)| *k) {
        let cached = fragmented
            .fleet()
            .member(0)
            .peek(&key.to_url())
            .unwrap_or_else(|| panic!("{key:?} missing from fragment-mode fleet"));
        assert_eq!(
            cached.body,
            fresh.render(key).body,
            "{key:?}: composed bytes diverge from a fresh whole-page render"
        );
    }
}

/// Named per-category driver: each transaction of the script is committed
/// (by the iterator) and then processed by both monitors; afterwards every
/// cached page whose url starts with one of `prefixes` must be identical
/// across the two modes, bytes and version — and some version must have
/// moved — and at least `min_pages` such pages must exist (guarding
/// against a vacuous pass if urls are renamed).
fn check_category(
    txns: impl IntoIterator<Item = Arc<Transaction>>,
    fragmented: &TriggerMonitor,
    legacy: &TriggerMonitor,
    prefixes: &[&str],
    min_pages: usize,
) {
    let now = SimTime::from_mins(5);
    for txn in txns {
        fragmented.process_txn_at(&txn, now);
        legacy.process_txn_at(&txn, now);
    }
    let frag_state = cache_state(fragmented, 0);
    let legacy_state = cache_state(legacy, 0);
    let mut compared = 0usize;
    let mut updated = 0usize;
    for (url, entry) in &legacy_state {
        if prefixes.iter().any(|p| url.starts_with(p)) {
            let composed = frag_state
                .get(url)
                .unwrap_or_else(|| panic!("{url} missing from fragment-mode fleet"));
            assert_eq!(composed, entry, "{url}: category bytes/version diverge");
            compared += 1;
            updated += usize::from(entry.1 > 1);
        }
    }
    assert!(
        compared >= min_pages,
        "only {compared} pages matched {prefixes:?} — category check is vacuous"
    );
    assert!(
        updated > 0,
        "no page matching {prefixes:?} was ever updated"
    );
}

fn final_podium(db: &OlympicDb, ev: nagano_db::EventId) -> Vec<(AthleteId, f64)> {
    let event = db.event(ev).unwrap();
    db.athletes_of_sport(event.sport)
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, a)| (a.id, 90.0 - i as f64))
        .collect()
}

#[test]
fn result_pages_compose_identically() {
    let db = fresh_db();
    let (fragmented, legacy, _registry) = monitor_pair(&db, ConsistencyPolicy::UpdateInPlace);
    let evs: Vec<_> = db.events().iter().take(3).cloned().collect();
    let txns = evs
        .iter()
        .enumerate()
        .map(|(i, ev)| db.record_results(ev.id, &final_podium(&db, ev.id), i % 2 == 0, ev.day));
    check_category(
        txns,
        &fragmented,
        &legacy,
        &["/events/", "/sports/", "/fragments/results/"],
        3,
    );
}

#[test]
fn medal_pages_compose_identically() {
    let db = fresh_db();
    let (fragmented, legacy, _registry) = monitor_pair(&db, ConsistencyPolicy::UpdateInPlace);
    // Finals move the medal standings — the shared MedalTable fragment
    // plus every country page's inline medal box.
    let evs: Vec<_> = db.events().iter().take(2).cloned().collect();
    let txns = evs
        .iter()
        .map(|ev| db.record_results(ev.id, &final_podium(&db, ev.id), true, ev.day));
    check_category(txns, &fragmented, &legacy, &["/medals", "/countries/"], 2);
}

#[test]
fn news_pages_compose_identically() {
    let db = fresh_db();
    let (fragmented, legacy, _registry) = monitor_pair(&db, ConsistencyPolicy::UpdateInPlace);
    let ev = db.events()[0].clone();
    // One update to an existing story, one brand-new story: both touch
    // the day's Headlines fragment and the news index.
    let existing = db.news_on_day(ev.day).first().map(|a| a.id);
    let stories = [
        Some(NewsArticle {
            id: NewsId(9_900),
            day: ev.day,
            title: "Stop-press".into(),
            body: "Fresh story for the headline strip".into(),
            about_event: Some(ev.id),
        }),
        existing.map(|id| NewsArticle {
            id,
            day: ev.day,
            title: "Corrected headline".into(),
            body: "Updated body".into(),
            about_event: None,
        }),
    ];
    let txns = stories.into_iter().flatten().map(|a| db.publish_news(a));
    check_category(
        txns,
        &fragmented,
        &legacy,
        &["/news", "/fragments/headlines/"],
        2,
    );
}

#[test]
fn home_and_welcome_pages_compose_identically() {
    let db = fresh_db();
    let (fragmented, legacy, _registry) = monitor_pair(&db, ConsistencyPolicy::UpdateInPlace);
    let ev = db.events()[1].clone();
    let txns = [false, true]
        .into_iter()
        .map(|is_final| db.record_results(ev.id, &final_podium(&db, ev.id), is_final, ev.day));
    check_category(txns, &fragmented, &legacy, &["/day/", "/welcome"], 2);
}

/// The renderer differential: `warm` has rendered every earlier state of
/// `db`, a fresh renderer none. For every registered page — fragment
/// pages included — they must return the same bytes and the same
/// dependencies, whole-page (`fragment_mode` off: `render`) and composed
/// (`fragment_mode` on: `plan` + `render_fragment`). `held` is what an
/// update-in-place cache would hold: the body `warm` returned for each
/// page one state ago. Rendering onto it returns the fresh render's bytes
/// too, and returns `held`'s own allocation exactly when those are its
/// bytes.
fn assert_warm_equals_fresh(
    warm: &Renderer,
    db: &Arc<OlympicDb>,
    registry: &PageRegistry,
    held: &mut BTreeMap<PageKey, Bytes>,
    at: &str,
) {
    // A new oracle per page: nothing it splices was rendered for another.
    let fresh = || Renderer::new(Arc::clone(db));
    for key in registry.pages().iter().map(|(k, _)| *k) {
        let (w, f) = (warm.render(key), fresh().render(key));
        assert_eq!(w.body, f.body, "{at}: {key:?}: warm render diverges");
        assert_eq!(w.deps, f.deps, "{at}: {key:?}: warm deps diverge");

        let onto = warm.render_onto(key, held.get(&key));
        assert_eq!(onto.body, f.body, "{at}: {key:?}: render onto diverges");
        assert_eq!(onto.deps, f.deps, "{at}: {key:?}: deps onto diverge");
        if let Some(previous) = held.get(&key) {
            assert_eq!(
                onto.body.as_ptr() == previous.as_ptr(),
                *previous == f.body,
                "{at}: {key:?}: the held body comes back iff the page is unchanged"
            );
        }
        held.insert(key, onto.body);

        let (wp, fp) = (warm.plan(key), fresh().plan(key));
        assert_eq!(wp.deps(), fp.deps(), "{at}: {key:?}: plan deps diverge");
        assert_eq!(wp.slots(), fp.slots(), "{at}: {key:?}: plan slots diverge");
        let composed = wp
            .compose(|slot| Some(warm.render_fragment(slot).body))
            .expect("every slot resolves");
        assert_eq!(composed, f.body, "{at}: {key:?}: warm composition diverges");
        for &slot in wp.slots() {
            let (ws, fs) = (warm.render_fragment(slot), fresh().render_fragment(slot));
            assert_eq!(ws.body, fs.body, "{at}: {slot:?}: warm fragment diverges");
            assert_eq!(
                ws.deps, fs.deps,
                "{at}: {slot:?}: warm fragment deps diverge"
            );
        }
    }
}

/// `render_onto` may hand `previous` back only when a fresh render would
/// be byte-equal to it, whatever `previous` is: for every page, bodies
/// that are the page's but cut short, extended, or off by one byte — in
/// the head, the inner HTML, the padding or the close — are answered
/// with the page, in an allocation of its own; a copy of the page is
/// answered with itself.
fn assert_render_onto_compares_every_byte(
    warm: &Renderer,
    registry: &PageRegistry,
    rng: &mut DeterministicRng,
    at: &str,
) {
    for key in registry.pages().iter().map(|(k, _)| *k) {
        let page = warm.render(key).body;
        let copy = Bytes::copy_from_slice(&page);
        let onto = warm.render_onto(key, Some(&copy)).body;
        assert_eq!(
            onto.as_ptr(),
            copy.as_ptr(),
            "{at}: {key:?}: a copy is kept"
        );

        let len = page.len();
        let mut others: Vec<Vec<u8>> = vec![
            Vec::new(),
            page[..len - 1].to_vec(),
            page[..len / 2].to_vec(),
            [&page[..], b"\n"].concat(),
            [&page[..], &page[..]].concat(),
        ];
        let flips = [
            0,
            len - 1,
            len - 20,
            len / 2,
            rng.index(len),
            rng.index(len),
        ];
        others.extend(flips.map(|at| {
            let mut other = page.to_vec();
            other[at] ^= 0x20;
            other
        }));
        for other in others {
            let other = Bytes::from(other);
            let onto = warm.render_onto(key, Some(&other)).body;
            assert_eq!(onto, page, "{at}: {key:?}: rendered onto other bytes");
            assert_ne!(onto.as_ptr(), other.as_ptr(), "{at}: {key:?}");
        }
    }
}

fn check_renderer_differential(seed: u64, n: usize) {
    let db = fresh_db();
    let registry = PageRegistry::build(&db, 16);
    let events = db.events();
    let warm = Renderer::new(Arc::clone(&db));
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut held = BTreeMap::new();
    let mut check = |at: &str| assert_warm_equals_fresh(&warm, &db, &registry, &mut held, at);
    check("seeded");
    for i in 0..n {
        next_txn(&db, &mut rng, &events, i);
        check(&format!("seed {seed} txn {i}"));
    }
    assert_render_onto_compares_every_byte(&warm, &registry, &mut rng, &format!("seed {seed}"));
    // The mutations the random prefix never draws: a story re-published
    // under its id on another day, and a photo.
    let ev = &events[rng.index(events.len())];
    let moved_to = ev.day % 16 + 1;
    for day in [ev.day, moved_to] {
        db.publish_news(NewsArticle {
            id: NewsId(8_000),
            day,
            title: format!("Moving story, day {day}"),
            body: "Re-published under one id".into(),
            about_event: None,
        });
        check(&format!("seed {seed} story on {day}"));
    }
    db.add_photo(Photo {
        id: PhotoId(8_000),
        day: ev.day,
        about_event: Some(ev.id),
        bytes: 40_000,
    });
    check(&format!("seed {seed} photo"));

    // Mutations that change only a memoised section's bytes. A final on
    // this event first, so that its winner's name is on a home page.
    let podium = final_podium(&db, ev.id);
    db.record_results(ev.id, &podium, true, ev.day);
    check(&format!("seed {seed} final"));
    // The winner under another name (roster, gold line, result table),
    // then in another country (two rosters).
    let winner = db.athlete(podium[0].0).unwrap();
    let renamed = Athlete {
        name: format!("{} II", winner.name),
        ..winner.clone()
    };
    db.load_athlete(renamed.clone());
    check(&format!("seed {seed} renamed"));
    let other_country = db
        .countries()
        .iter()
        .map(|c| c.id)
        .find(|&c| c != winner.country)
        .unwrap();
    db.load_athlete(Athlete {
        country: other_country,
        ..renamed
    });
    check(&format!("seed {seed} transferred"));
    // The event under another name, then in another phase, by reload.
    let renamed = Event {
        name: format!("{} (rescheduled)", ev.name),
        ..db.event(ev.id).unwrap()
    };
    db.load_event(renamed.clone());
    check(&format!("seed {seed} event renamed"));
    db.load_event(Event {
        phase: EventPhase::InProgress,
        ..renamed
    });
    check(&format!("seed {seed} event reopened"));
    // A second final with the podium reversed: new rank-1 row.
    let reversed: Vec<_> = podium.iter().rev().copied().collect();
    db.record_results(ev.id, &reversed, true, ev.day);
    check(&format!("seed {seed} second final"));
    // A phase that moves with no rows recorded: only the home-page block
    // of the event shows it.
    if let Some(idle) = db
        .events()
        .into_iter()
        .find(|e| e.phase == EventPhase::Scheduled)
    {
        for is_final in [false, true] {
            db.record_results(idle.id, &[], is_final, idle.day);
            check(&format!("seed {seed} rowless results, final {is_final}"));
        }
    }
}

#[test]
fn warm_renderer_equals_fresh_renderer_plain_seeds() {
    for seed in [1, 42, 0x1998] {
        check_renderer_differential(seed, 6);
    }
}

#[test]
fn fragment_equivalence_plain_seeds() {
    for seed in [1, 42, 0x1998] {
        check_fragment_equivalence(seed, 4, false);
        check_fragment_equivalence(seed, 4, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_fragment_composition_is_byte_equivalent(
        seed in 0u64..(1u64 << 32),
        n in 1usize..7,
        lagging in any::<bool>(),
    ) {
        check_fragment_equivalence(seed, n, lagging);
    }

    #[test]
    fn prop_warm_renderer_equals_fresh_renderer(seed in 0u64..(1u64 << 32), n in 1usize..7) {
        check_renderer_differential(seed, n);
    }
}
