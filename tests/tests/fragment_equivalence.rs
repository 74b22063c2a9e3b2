//! Cached bytes ≡ fresh render, after every transaction.
//!
//! Pages are composed from fragments: a fragment is a registered page of
//! its own and a hybrid ODG vertex, and the renderer splices its one
//! memoised render into every page that embeds it (DESIGN.md §14). None
//! of that may change a single served byte. The property: for an
//! arbitrary seed and transaction prefix — result batches, news stories
//! (new, and re-published under their id on another day), photos — after
//! *each* transaction the monitor processes, every entry of every fleet
//! member is byte-identical to what a fresh `Renderer` makes of the
//! database. Under update-in-place every registered page is there to be
//! compared; under invalidation every entry still present is. A page DUP
//! failed to mark, an edge a regeneration failed to register, a memoised
//! section spliced past its revision: each shows up here as a stale page,
//! by name. The same check runs over a replay of the Games' whole update
//! schedule (the benchmark's `check_site`, after every update), and each
//! content category also gets a plain named driver so a regression
//! pinpoints the page family that broke.
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
use nagano_cache::{CacheConfig, CacheFleet};
use nagano_db::{
    seed_games, Athlete, AthleteId, Event, EventPhase, GamesConfig, NewsArticle, NewsId, OlympicDb,
    Photo, PhotoId, Transaction,
};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::{DeterministicRng, SimTime};
use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};
use nagano_workload::UpdateSchedule;

fn seeded_db(games: &GamesConfig) -> Arc<OlympicDb> {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, games);
    db
}

fn fresh_db() -> Arc<OlympicDb> {
    seeded_db(&GamesConfig::small())
}

/// A prewarmed monitor over `db` with a two-member fleet.
fn monitor_for(db: &Arc<OlympicDb>, policy: ConsistencyPolicy) -> TriggerMonitor {
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(db)),
        Arc::new(CacheFleet::new(2, CacheConfig::default())),
        Arc::new(PageRegistry::build(db, 16)),
        policy,
    );
    monitor.prewarm();
    monitor
}

/// Transaction `i` of a deterministic mixed prefix against a random
/// event: a result batch (random podium size, ~30% finals), a new story
/// on the event's day, one of three standing stories re-published under
/// its id on that day (its first appearance, or a move from wherever it
/// was), or a photo of the event — together these dirty every fragment
/// class (result tables, the medal table, headline strips) and every
/// page that reads a table of its own.
fn next_txn(
    db: &OlympicDb,
    rng: &mut DeterministicRng,
    events: &[Event],
    i: usize,
) -> Arc<Transaction> {
    let ev = &events[rng.index(events.len())];
    let kind = rng.f64();
    if kind < 0.15 {
        db.publish_news(NewsArticle {
            id: NewsId(9_000 + i as u32),
            day: ev.day,
            title: format!("Late report {i}"),
            body: format!("Fragment-equivalence probe on day {}", ev.day),
            about_event: Some(ev.id),
        })
    } else if kind < 0.3 {
        let id = NewsId(8_500 + rng.index(3) as u32);
        db.publish_news(NewsArticle {
            id,
            day: ev.day,
            title: format!("Standing story {}, now on day {}", id.0, ev.day),
            body: "Re-published under one id".into(),
            about_event: None,
        })
    } else if kind < 0.45 {
        db.add_photo(Photo {
            id: PhotoId(9_000 + i as u32),
            day: ev.day,
            about_event: Some(ev.id),
            bytes: 40_000,
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

/// Every entry of every member of `monitor`'s fleet is what a renderer
/// that has rendered nothing before makes of `db` now; with
/// `never_missing` (update-in-place) every registered page is an entry.
/// Returns the number of entries compared.
fn assert_cache_is_fresh(
    monitor: &TriggerMonitor,
    db: &Arc<OlympicDb>,
    never_missing: Option<&PageRegistry>,
    at: &str,
) -> usize {
    let fresh = Renderer::new(Arc::clone(db));
    // The cached body last found fresh, by url: members share one
    // allocation per distributed page, so all but the first are as a
    // rule compared by address.
    let mut found_fresh: BTreeMap<String, Bytes> = BTreeMap::new();
    let mut compared = 0;
    for (node, member) in monitor.fleet().members().iter().enumerate() {
        if let Some(registry) = never_missing {
            assert_eq!(
                member.len(),
                registry.len(),
                "{at}: node {node}: pages missing"
            );
        }
        for (url, body, _cost, _version) in member.export_entries() {
            compared += 1;
            if found_fresh
                .get(&url)
                .is_some_and(|seen| seen.as_ptr() == body.as_ptr())
            {
                continue;
            }
            let key = PageKey::parse(&url).unwrap_or_else(|| panic!("{at}: cached key {url}"));
            assert!(
                body == fresh.render(key).body,
                "{at}: node {node}: {key} is stale"
            );
            found_fresh.insert(url, body);
        }
    }
    compared
}

/// The core property: commit a transaction, process it, and find nothing
/// stale in any serving cache — `n` times over. With `batched`, the whole
/// prefix is committed first and processed as one batch (one propagation
/// over the union of the changes, as a recovering monitor does).
fn check_cache_equals_fresh(seed: u64, n: usize, policy: ConsistencyPolicy, batched: bool) {
    let db = fresh_db();
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let events = db.events();
    let monitor = monitor_for(&db, policy);
    let registry = PageRegistry::build(&db, 16);
    let never_missing = (policy == ConsistencyPolicy::UpdateInPlace).then_some(&registry);
    let now = SimTime::from_mins(5);
    if batched {
        let txns: Vec<_> = (0..n)
            .map(|i| next_txn(&db, &mut rng, &events, i))
            .collect();
        monitor.process_batch_at(&txns, now);
        let at = format!("seed {seed}, {policy:?}, batch of {n}");
        assert_cache_is_fresh(&monitor, &db, never_missing, &at);
        return;
    }
    for i in 0..n {
        let txn = next_txn(&db, &mut rng, &events, i);
        monitor.process_txn_at(&txn, now);
        let at = format!("seed {seed}, {policy:?}, txn {i} ({:?})", txn.changes);
        let compared = assert_cache_is_fresh(&monitor, &db, never_missing, &at);
        assert!(compared > 0, "{at}: nothing left to compare");
    }
}

/// The Games' own update schedule — result postings, finals, a photo after
/// every final, news — replayed on a site of `games` dimensions the way
/// the benchmark's `update_storm` replays it (commit, then process), with
/// nothing stale after any update. Returns (updates, pages regenerated,
/// pages that came out as other bytes).
fn check_schedule_replay(games: &GamesConfig, seed: u64) -> (usize, usize, usize) {
    let db = seeded_db(games);
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let registry = PageRegistry::build(&db, 16);
    let schedule = UpdateSchedule::generate(
        &db,
        &mut DeterministicRng::seed_from_u64(seed ^ 0x5550_4441_5445),
    );
    let mut rng = DeterministicRng::seed_from_u64(seed ^ 0x0041_5050_4c59);
    let (mut regenerated, mut changed) = (0, 0);
    for (i, update) in schedule.updates().iter().enumerate() {
        let txn = UpdateSchedule::apply(update, &db, &mut rng);
        let outcome = monitor.process_txn(&txn);
        regenerated += outcome.regenerated.len();
        changed += outcome.changed;
        let at = format!("schedule seed {seed}, update {i} ({:?})", update.kind);
        assert_cache_is_fresh(&monitor, &db, Some(&registry), &at);
    }
    (schedule.len(), regenerated, changed)
}

/// Named per-category driver: each transaction of the script is committed
/// (by the iterator) and then processed; afterwards every cached page
/// whose url starts with one of `prefixes` must be a fresh render's bytes
/// — and some version must have moved — and at least `min_pages` such
/// pages must exist (guarding against a vacuous pass if urls are renamed).
fn check_category(
    txns: impl IntoIterator<Item = Arc<Transaction>>,
    monitor: &TriggerMonitor,
    db: &Arc<OlympicDb>,
    prefixes: &[&str],
    min_pages: usize,
) {
    let now = SimTime::from_mins(5);
    for txn in txns {
        monitor.process_txn_at(&txn, now);
    }
    let fresh = Renderer::new(Arc::clone(db));
    let mut compared = 0usize;
    let mut updated = 0usize;
    for (url, body, _cost, version) in monitor.fleet().member(0).export_entries() {
        if prefixes.iter().any(|p| url.starts_with(p)) {
            let key = PageKey::parse(&url).unwrap();
            assert_eq!(
                body,
                fresh.render(key).body,
                "{url}: category bytes diverge"
            );
            compared += 1;
            updated += usize::from(version > 1);
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
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let evs: Vec<_> = db.events().iter().take(3).cloned().collect();
    let txns = evs
        .iter()
        .enumerate()
        .map(|(i, ev)| db.record_results(ev.id, &final_podium(&db, ev.id), i % 2 == 0, ev.day));
    check_category(
        txns,
        &monitor,
        &db,
        &["/events/", "/sports/", "/fragments/results/"],
        3,
    );
}

#[test]
fn medal_pages_compose_identically() {
    let db = fresh_db();
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    // Finals move the medal standings — the shared MedalTable fragment
    // plus every country page's inline medal box.
    let evs: Vec<_> = db.events().iter().take(2).cloned().collect();
    let txns = evs
        .iter()
        .map(|ev| db.record_results(ev.id, &final_podium(&db, ev.id), true, ev.day));
    check_category(txns, &monitor, &db, &["/medals", "/countries/"], 2);
}

#[test]
fn news_pages_compose_identically() {
    let db = fresh_db();
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
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
    check_category(txns, &monitor, &db, &["/news", "/fragments/headlines/"], 2);
}

#[test]
fn home_and_welcome_pages_compose_identically() {
    let db = fresh_db();
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let ev = db.events()[1].clone();
    let txns = [false, true]
        .into_iter()
        .map(|is_final| db.record_results(ev.id, &final_podium(&db, ev.id), is_final, ev.day));
    check_category(txns, &monitor, &db, &["/day/", "/welcome"], 2);
}

/// The renderer differential: `warm` has rendered every earlier state of
/// `db`, a fresh renderer none. For every registered page — fragment
/// pages included — they must return the same bytes and the same
/// dependencies. `held` is what an update-in-place cache would hold: the
/// body `warm` returned for each page one state ago. Rendering onto it
/// returns the fresh render's bytes too, and returns `held`'s own
/// allocation exactly when those are its bytes.
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
        for policy in [
            ConsistencyPolicy::UpdateInPlace,
            ConsistencyPolicy::Invalidate,
        ] {
            check_cache_equals_fresh(seed, 8, policy, false);
            check_cache_equals_fresh(seed, 8, policy, true);
        }
    }
}

#[test]
fn no_page_is_stale_after_any_update_of_the_games_schedule() {
    // Seed 7 files its first photo as update 14 of the small Games and as
    // update 6 of the full ones.
    // Work counts pinned with the bytes: a dead edge — registered, never
    // read — raises `regenerated` and leaves `changed`; a missing one is a
    // stale page in the replay itself.
    assert_eq!(
        check_schedule_replay(&GamesConfig::small(), 7),
        (78, 918, 656)
    );
    assert_eq!(
        check_schedule_replay(&GamesConfig::full(), 7),
        (304, 13_658, 6_097)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_fragment_composition_is_byte_equivalent(
        seed in 0u64..(1u64 << 32),
        n in 1usize..10,
        invalidate in any::<bool>(),
        batched in any::<bool>(),
    ) {
        let policy = if invalidate {
            ConsistencyPolicy::Invalidate
        } else {
            ConsistencyPolicy::UpdateInPlace
        };
        check_cache_equals_fresh(seed, n, policy, batched);
    }

    #[test]
    fn prop_warm_renderer_equals_fresh_renderer(seed in 0u64..(1u64 << 32), n in 1usize..7) {
        check_renderer_differential(seed, n);
    }
}
