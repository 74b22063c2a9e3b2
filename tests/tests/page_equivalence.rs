//! Cached bytes ≡ fresh render, after every transaction.
//!
//! Pages are composed from fragments: a fragment is a registered page of
//! its own and a hybrid ODG vertex, and the renderer splices its one
//! memoised render into every page that embeds it (DESIGN.md §14). None
//! of that may change a single served byte. The property: for an
//! arbitrary seed and transaction prefix — result batches, news stories
//! (new, and re-published under their id on another day), photos — after
//! *each* transaction the monitor processes, every entry of the serving
//! cache is byte-identical to what a fresh `Renderer` makes of the
//! database. Under update-in-place every registered page is there to be
//! compared; under invalidation every entry still present is. A page DUP
//! failed to mark, an edge a regeneration failed to register, a memoised
//! section spliced past its revision: each shows up here as a stale page,
//! by name. The same check runs over a replay of the Games' whole update
//! schedule (the benchmark's `check_site`, after every update) — once more
//! on a fleet disturbed behind the monitor's back — and each
//! content category also gets a plain named driver so a regression
//! pinpoints the page family that broke. Over the same schedule, the
//! monitor's dependence graph, numbered by arithmetic over typed keys, is
//! held against the one the benchmark harness interns from their text.
//!
//! The same generators drive the renderer differential at the bottom: a
//! long-lived `Renderer` (warm section memo: fragments, country rosters,
//! home-page event blocks) against a fresh one after every transaction of
//! a prefix, and after mutations that change nothing but one section —
//! rendering onto nothing, onto the body it returned one state earlier
//! (handed back exactly when the page did not change), and onto bodies
//! that are the page's but for one byte. Rendering onto the body it
//! returned last is also where the renderer may skip composing the page
//! altogether (DESIGN.md §14a, "Page freshness") — keeping the body, or
//! patching the sections of it that moved: the tests after the
//! differential's helpers pin which pages that happens to after a final,
//! a standings move, a result posting, a story and a mutation that moves
//! one revision source alone, and race it against commits.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use bytes::Bytes;
use nagano_cache::{CacheConfig, PageCache, ReplacementPolicy};
use nagano_db::{
    seed_games, Athlete, AthleteId, Datum, Event, EventPhase, GamesConfig, NewsArticle, NewsId,
    OlympicDb, Photo, PhotoId, Transaction,
};
use nagano_odg::graph::OdgSnapshot;
use nagano_odg::{DupEngine, Interner, NodeId, NodeKind};
use nagano_pagegen::{
    Dependency, FragmentKey, PageKey, PageMemo, PageRegistry, PageSpace, RenderOutput, Renderer,
};
use nagano_simcore::sync::blocking;
use nagano_simcore::DeterministicRng;
use nagano_trigger::{ConsistencyPolicy, PageUrls, TriggerMonitor};
use nagano_workload::UpdateSchedule;

fn seeded_db(games: &GamesConfig) -> Arc<OlympicDb> {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, games);
    db
}

fn fresh_db() -> Arc<OlympicDb> {
    seeded_db(&GamesConfig::small())
}

/// A prewarmed monitor over `db`.
fn monitor_for(db: &Arc<OlympicDb>, policy: ConsistencyPolicy) -> TriggerMonitor {
    monitor_on(db, CacheConfig::default(), policy)
}

/// A prewarmed monitor over `db` with a cache of `config`.
fn monitor_on(
    db: &Arc<OlympicDb>,
    config: CacheConfig,
    policy: ConsistencyPolicy,
) -> TriggerMonitor {
    let registry = Arc::new(PageRegistry::build(db, 16));
    let cache = PageCache::with_keys(config, PageUrls::of(&registry));
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(db)),
        Arc::new(cache),
        registry,
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

/// Every entry of `monitor`'s cache is what a renderer that has rendered
/// nothing before makes of `db` now; with `never_missing`
/// (update-in-place) every registered page is an entry. Returns the
/// number of entries compared.
fn assert_cache_is_fresh(
    monitor: &TriggerMonitor,
    db: &Arc<OlympicDb>,
    never_missing: Option<&PageRegistry>,
    at: &str,
) -> usize {
    let fresh = Renderer::new(Arc::clone(db));
    let cache = monitor.cache();
    if let Some(registry) = never_missing {
        assert_eq!(cache.len(), registry.len(), "{at}: pages missing");
    }
    let entries = cache.export_entries();
    for (url, body, _cost, _version) in &entries {
        let key = PageKey::parse(url).unwrap_or_else(|| panic!("{at}: cached key {url}"));
        assert!(*body == fresh.render(key).body, "{at}: {key} is stale");
    }
    entries.len()
}

/// The core property: commit a transaction, process it, and find nothing
/// stale in the serving cache — `n` times over. With `batched`, the whole
/// prefix is committed first and processed as one batch (one propagation
/// over the union of the changes, as a recovering monitor does).
fn check_cache_equals_fresh(seed: u64, n: usize, policy: ConsistencyPolicy, batched: bool) {
    let db = fresh_db();
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let events = db.events();
    let monitor = monitor_for(&db, policy);
    let registry = PageRegistry::build(&db, 16);
    let never_missing = (policy == ConsistencyPolicy::UpdateInPlace).then_some(&registry);
    if batched {
        let txns: Vec<_> = (0..n)
            .map(|i| next_txn(&db, &mut rng, &events, i))
            .collect();
        monitor.process_batch(&txns);
        let at = format!("seed {seed}, {policy:?}, batch of {n}");
        assert_cache_is_fresh(&monitor, &db, never_missing, &at);
        return;
    }
    for i in 0..n {
        let txn = next_txn(&db, &mut rng, &events, i);
        monitor.process_txn(&txn);
        let at = format!("seed {seed}, {policy:?}, txn {i} ({:?})", txn.changes);
        let compared = assert_cache_is_fresh(&monitor, &db, never_missing, &at);
        assert!(compared > 0, "{at}: nothing left to compare");
    }
}

/// The Games' own update schedule — result postings, finals, a photo after
/// every final, news — replayed on a site of `games` dimensions the way
/// the benchmark's `update_storm` replays it (commit, then process), with
/// nothing stale after any update ([`replay_schedule`]) and nothing but the
/// monitor's distributions writing to the cache, so that the entry of
/// every page held keeps the memo of its body. Returns (updates, pages
/// regenerated, pages that came out as other bytes, pages answered from
/// their stamps, pages patched, the fleet digest): the digest is
/// FNV-1a-64 over the cache's entries after the replay, sorted by url,
/// each as url, body and version (8 bytes, little-endian).
fn check_schedule_replay(games: &GamesConfig, seed: u64) -> Replay {
    let db = seeded_db(games);
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let replay = replay_schedule(&db, &monitor, seed, true, |_| {});
    let held = monitor.cache().export_entries();
    let remembered = |(url, ..): &(String, _, _, _)| monitor.cache().has_memo(url);
    assert!(held.iter().all(remembered), "schedule seed {seed}");
    replay
}

/// Replay the schedule of seed `seed` on `monitor`'s site, calling
/// `disturb` with an update's index before the update is committed. After
/// every update, every body the cache holds is a fresh render; with
/// `complete`, every registered page is held.
fn replay_schedule(
    db: &Arc<OlympicDb>,
    monitor: &TriggerMonitor,
    seed: u64,
    complete: bool,
    mut disturb: impl FnMut(usize),
) -> Replay {
    let registry = PageRegistry::build(db, 16);
    let schedule = UpdateSchedule::generate(
        db,
        &mut DeterministicRng::seed_from_u64(seed ^ 0x5550_4441_5445),
    );
    let mut rng = DeterministicRng::seed_from_u64(seed ^ 0x0041_5050_4c59);
    let (mut regenerated, mut changed, mut revalidated, mut patched) = (0, 0, 0, 0);
    for (i, update) in schedule.updates().iter().enumerate() {
        disturb(i);
        let txn = UpdateSchedule::apply(update, db, &mut rng);
        let outcome = monitor.process_txn(&txn);
        regenerated += outcome.regenerated.len();
        changed += outcome.changed;
        revalidated += outcome.revalidated;
        patched += outcome.patched;
        let at = format!("schedule seed {seed}, update {i} ({:?})", update.kind);
        assert_cache_is_fresh(monitor, db, complete.then_some(&registry), &at);
    }
    let stats = monitor.stats().snapshot();
    assert_eq!(
        (
            stats.pages_changed,
            stats.pages_revalidated,
            stats.pages_patched
        ),
        (changed as u64, revalidated as u64, patched as u64)
    );
    let mut entries = monitor.cache().export_entries();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (url, body, _cost, version) in &entries {
        for bytes in [url.as_bytes(), body, &version.to_le_bytes()] {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let len = schedule.len();
    (len, regenerated, changed, revalidated, patched, digest)
}

/// What [`check_schedule_replay`] returns.
type Replay = (usize, usize, usize, usize, usize, u64);

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
    for txn in txns {
        monitor.process_txn(&txn);
    }
    let fresh = Renderer::new(Arc::clone(db));
    let mut compared = 0usize;
    let mut updated = 0usize;
    for (url, body, _cost, version) in monitor.cache().export_entries() {
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

/// A country none of whose athletes is among `placed`.
fn a_country_off(db: &OlympicDb, placed: &[(AthleteId, f64)]) -> nagano_db::CountryId {
    let placed: Vec<_> = placed
        .iter()
        .map(|&(a, _)| db.athlete(a).unwrap().country)
        .collect();
    let countries = db.countries();
    let off = countries.iter().rev().find(|c| !placed.contains(&c.id));
    off.expect("a country off the podium").id
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

/// What an update-in-place cache holds for each page: a body, and the memo
/// the renderer returned with it if the cache kept that.
type Held = BTreeMap<PageKey, (Bytes, Option<Box<PageMemo>>)>;

/// Render `key` onto what `held` holds and hold what comes back, memo and
/// all; returns the render, and the body it was rendered onto.
fn render_held(warm: &Renderer, held: &mut Held, key: PageKey) -> (RenderOutput, Option<Bytes>) {
    let (previous, memo) = held.remove(&key).unzip();
    let (out, memo) = warm.render_onto(key, previous.as_ref().map(|b| (b, memo.flatten())));
    held.insert(key, (out.body.clone(), Some(memo)));
    (out, previous)
}

/// The renderer differential: `warm` has rendered every earlier state of
/// `db`, a fresh renderer none. For every registered page — fragment
/// pages included — they must return the same bytes and the same
/// dependencies. `held` is what an update-in-place cache would hold: the
/// body `warm` returned for each page one state ago, with its memo.
/// Rendering onto it returns the fresh render's bytes too, and returns
/// `held`'s own allocation exactly when those are its bytes.
fn assert_warm_equals_fresh(
    warm: &Renderer,
    db: &Arc<OlympicDb>,
    registry: &PageRegistry,
    held: &mut Held,
    at: &str,
) {
    // A new oracle per page: nothing it splices was rendered for another.
    let fresh = || Renderer::new(Arc::clone(db));
    for key in registry.pages().iter().map(|(k, _)| *k) {
        let (w, f) = (warm.render(key), fresh().render(key));
        assert_eq!(w.body, f.body, "{at}: {key:?}: warm render diverges");
        assert_eq!(w.deps, f.deps, "{at}: {key:?}: warm deps diverge");

        let (onto, previous) = render_held(warm, held, key);
        assert_eq!(onto.body, f.body, "{at}: {key:?}: render onto diverges");
        assert_eq!(onto.deps, f.deps, "{at}: {key:?}: deps onto diverge");
        if let Some(previous) = previous {
            assert_eq!(
                onto.body.as_ptr() == previous.as_ptr(),
                previous == f.body,
                "{at}: {key:?}: the held body comes back iff the page is unchanged"
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
        let onto = warm.render_onto(key, Some((&copy, None))).0.body;
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
            let onto = warm.render_onto(key, Some((&other, None))).0.body;
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

/// Render `key` onto the body held for it, hold what comes back, and say
/// whether anything the page was made from had moved: whether the renderer
/// composed or patched it rather than hand the held body back by its
/// stamps.
fn moved(warm: &Renderer, held: &mut Held, key: PageKey) -> bool {
    !render_held(warm, held, key).0.revalidated
}

/// How [`answered`] found a page answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// By its stamps: the held body.
    Kept,
    /// Patched, and the moved sections came out as the bytes they replace:
    /// the held body.
    PatchedToHeld,
    /// Patched into a body of other bytes.
    Patched,
    /// Composed.
    Composed,
}

/// Render `key` onto the body held for it, hold what comes back — which
/// must be what a fresh renderer makes of `db` — and say how the renderer
/// answered.
fn answered(warm: &Renderer, db: &Arc<OlympicDb>, held: &mut Held, key: PageKey) -> Answer {
    let (out, previous) = render_held(warm, held, key);
    let fresh = Renderer::new(Arc::clone(db)).render(key);
    assert_eq!(out.body, fresh.body, "{key}: diverges from a fresh render");
    assert_eq!(
        out.deps, fresh.deps,
        "{key}: deps diverge from a fresh render"
    );
    let same = previous.is_some_and(|h| h.as_ptr() == out.body.as_ptr());
    match (out.revalidated, out.patched, same) {
        (true, _, _) => Answer::Kept,
        (false, true, true) => Answer::PatchedToHeld,
        (false, true, false) => Answer::Patched,
        (false, false, _) => Answer::Composed,
    }
}

/// `warm` and the body it last returned for every page, which it knows to
/// be that: the state an update-in-place site regenerates from.
fn warm_site(db: &Arc<OlympicDb>, registry: &PageRegistry) -> (Renderer, Held) {
    let warm = Renderer::new(Arc::clone(db));
    let mut held = BTreeMap::new();
    assert_warm_equals_fresh(&warm, db, registry, &mut held, "prewarm");
    assert_warm_equals_fresh(&warm, db, registry, &mut held, "first regeneration");
    (warm, held)
}

#[test]
fn a_final_is_composed_for_its_podium_countries_only() {
    let db = fresh_db();
    let registry = PageRegistry::build(&db, 16);
    let countries: Vec<_> = db.countries().iter().map(|c| c.id).collect();
    let warm = Renderer::new(Arc::clone(&db));
    let mut held = BTreeMap::new();
    let composed_now = |held: &mut Held| -> Vec<bool> {
        let pages = countries.iter().map(|&c| PageKey::Country(c));
        pages.map(|key| moved(&warm, held, key)).collect()
    };
    // Onto nothing, and onto a body held without the memo it came with:
    // composed. From then on, not.
    assert!(composed_now(&mut held).iter().all(|&c| c), "no body held");
    held.values_mut().for_each(|(_, memo)| *memo = None);
    assert!(composed_now(&mut held).iter().all(|&c| c), "no memo held");
    assert!(composed_now(&mut held).iter().all(|&c| !c), "nothing moved");

    let ev = db.events()[0].clone();
    let podium = final_podium(&db, ev.id);
    db.record_results(ev.id, &podium, true, ev.day);
    let on_podium = |c| {
        let athlete = |&(a, _): &(AthleteId, f64)| db.athlete(a).unwrap().country == c;
        podium.iter().any(athlete)
    };
    let expected: Vec<bool> = countries.iter().map(|&c| on_podium(c)).collect();
    assert!(expected.contains(&true) && expected.contains(&false));
    let before: BTreeMap<PageKey, *const u8> =
        held.iter().map(|(&k, (b, _))| (k, b.as_ptr())).collect();
    assert_eq!(composed_now(&mut held), expected, "after a final");
    for (&c, &moved) in countries.iter().zip(&expected) {
        let key = PageKey::Country(c);
        assert_eq!(held[&key].0.as_ptr() != before[&key], moved, "{key}");
    }
    assert!(composed_now(&mut held).iter().all(|&c| !c), "settled again");
    assert_warm_equals_fresh(&warm, &db, &registry, &mut held, "after the final");
}

/// One mutation per revision source a read can be covered by, each moving
/// that source alone: the pages that read under it are composed or
/// patched, a page that does not is kept, and every page is what a fresh
/// renderer makes.
#[test]
fn each_revision_source_moved_alone_is_noticed_by_its_readers() {
    let db = fresh_db();
    let registry = PageRegistry::build(&db, 16);
    let (warm, mut held) = warm_site(&db, &registry);
    let mut check = |at: &str, read_it: &[PageKey], did_not: &[PageKey]| {
        for &key in read_it {
            assert!(
                moved(&warm, &mut held, key),
                "{at}: {key} kept by its stamps"
            );
        }
        for &key in did_not {
            assert!(!moved(&warm, &mut held, key), "{at}: {key} not kept");
        }
        assert_warm_equals_fresh(&warm, &db, &registry, &mut held, at);
    };
    let events = db.events();
    let ev = &events[0];
    let podium = final_podium(&db, ev.id);
    let country_of = |i: usize| db.athlete(podium[i].0).unwrap().country;
    let bystander = a_country_off(&db, &podium);

    // `Results(e)`: a phase that moves with no row recorded.
    let other_day = PageKey::Home(ev.day % 16 + 1);
    db.record_results(ev.id, &[], false, ev.day);
    check(
        "rowless phase move",
        &[PageKey::Home(ev.day), PageKey::Sport(ev.sport)],
        &[other_day, PageKey::Country(bystander), PageKey::Medals],
    );

    // `Medals` and `MedalRow` of the podium's countries: a final, and a
    // second one with the podium reversed.
    let reversed: Vec<_> = podium.iter().rev().copied().collect();
    for (at, placements) in [("final", &podium), ("second final", &reversed)] {
        db.record_results(ev.id, placements, true, ev.day);
        check(
            at,
            &[
                PageKey::Country(country_of(0)),
                PageKey::Country(country_of(2)),
                PageKey::Medals,
                other_day,
            ],
            &[PageKey::Country(bystander), PageKey::NewsIndex(ev.day)],
        );
    }

    // `News(d)` of both days: a story re-published onto another day.
    let (from, to) = (ev.day, ev.day % 16 + 1);
    let third = to % 16 + 1;
    let story = |day| NewsArticle {
        id: NewsId(8_000),
        day,
        title: format!("Moving story, day {day}"),
        body: "Re-published under one id".into(),
        about_event: None,
    };
    db.publish_news(story(from));
    check(
        "story published",
        &[PageKey::NewsIndex(from), PageKey::Home(from)],
        &[PageKey::NewsIndex(to), PageKey::Home(to), PageKey::Medals],
    );
    db.publish_news(story(to));
    check(
        "story moved",
        &[
            PageKey::NewsIndex(from),
            PageKey::Home(from),
            PageKey::NewsIndex(to),
            PageKey::Home(to),
        ],
        &[
            PageKey::NewsIndex(third),
            PageKey::Home(third),
            PageKey::Country(bystander),
        ],
    );

    // `Loads`: an athlete transferred between countries. Every stamp
    // counts the loads, so only a page that reads nothing sits it out.
    let winner = db.athlete(podium[0].0).unwrap();
    db.load_athlete(Athlete {
        country: bystander,
        ..winner.clone()
    });
    check(
        "athlete transferred",
        &[
            PageKey::Country(winner.country),
            PageKey::Country(bystander),
            PageKey::Medals,
        ],
        &[PageKey::Welcome],
    );
}

/// After a final on day `d`, every other day's home page differs only in
/// the medal table it splices, and each is patched — the table rewritten
/// in the body it had, the very dependency list it had handed back. The
/// first to splice the table finds its memo behind and brings it up inside
/// the patch: a moved section costs a section render, not a page compose.
#[test]
fn after_a_final_the_other_days_home_pages_are_patched() {
    let db = fresh_db();
    let registry = PageRegistry::build(&db, 16);
    let (warm, mut held) = warm_site(&db, &registry);
    let ev = db.events()[0].clone();
    let others: Vec<PageKey> = (1..=16)
        .filter(|&day| day != ev.day)
        .map(PageKey::Home)
        .collect();
    let lists: Vec<Arc<[Dependency]>> = others
        .iter()
        .map(|&key| render_held(&warm, &mut held, key).0.deps)
        .collect();
    db.record_results(ev.id, &final_podium(&db, ev.id), true, ev.day);
    for (&key, list) in others.iter().zip(&lists) {
        let (out, previous) = render_held(&warm, &mut held, key);
        let fresh = Renderer::new(Arc::clone(&db)).render(key).body;
        assert!(out.body == fresh, "{key}: diverges from a fresh render");
        assert_ne!(Some(out.body), previous, "{key} changed");
        assert_eq!((out.patched, out.revalidated), (true, false), "{key}");
        assert!(Arc::ptr_eq(&out.deps, list), "{key}: the list it had");
    }
    let patched = render_held(&warm, &mut held, others[1]).0;
    assert!(patched.revalidated, "a patched body is kept by its stamps");
    assert_warm_equals_fresh(&warm, &db, &registry, &mut held, "after the final");
}

/// Fifteen countries with a medal of each colour fill the medal table; a
/// final whose podium is three other countries moves the standings and
/// leaves every row of the table as it was. Every page that splices the
/// table but the final's own day — the other days' home pages, the medals
/// page, the table's fragment page — is then patched back to the body the
/// cache holds: the same allocation, the same version.
#[test]
fn a_standings_move_off_the_medal_table_is_patched_back_to_the_held_body() {
    let db = seeded_db(&GamesConfig::full());
    // An athlete of each of eighteen countries.
    let athlete_of = |c| db.athletes_of_country(c).first().map(|a: &Athlete| a.id);
    let countries = db.countries();
    let athletes: Vec<AthleteId> = countries
        .iter()
        .filter_map(|c| athlete_of(c.id))
        .take(18)
        .collect();
    let (table, off) = athletes.split_at(15);
    let ev = db.events()[0].clone();
    let podium = |athletes: [AthleteId; 3]| athletes.map(|a| (a, 1.0));
    for i in 0..15 {
        let medallists = [table[i], table[(i + 1) % 15], table[(i + 2) % 15]];
        db.record_results(ev.id, &podium(medallists), true, ev.day);
    }
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let cache = monitor.cache();
    let pages: Vec<PageKey> = (1..=16)
        .filter(|&day| day != ev.day)
        .map(PageKey::Home)
        .chain([PageKey::Medals, PageKey::Fragment(FragmentKey::MedalTable)])
        .collect();
    let entry = |key: PageKey| cache.peek(&key.to_url()).unwrap();
    let table = || db.medal_standings()[..15].to_vec();
    let rows = table();
    let off_table_final = |medallists| db.record_results(ev.id, &podium(medallists), true, ev.day);
    // Prewarm left the renderer knowing the body the cache holds for every
    // page: the first such final is answered like the second.
    let mut patched = 0;
    for medallists in [[off[0], off[1], off[2]], [off[1], off[2], off[0]]] {
        let before: Vec<_> = pages.iter().map(|&key| entry(key)).collect();
        let outcome = monitor.process_txn(&off_table_final(medallists));
        assert_eq!(table(), rows, "the table's rows moved");
        for (&key, before) in pages.iter().zip(&before) {
            let after = entry(key);
            assert_eq!(after.version, before.version, "{key}: version bumped");
            assert_eq!(
                after.body.as_ptr(),
                before.body.as_ptr(),
                "{key}: another body"
            );
        }
        // Every one of them was patched back — the first to splice the
        // table brought its memo up inside its patch — and three more pages
        // were patched to new bytes: the final's own day, with its new gold
        // line, the event's result table and its sport's page.
        assert_eq!(outcome.patched, pages.len() + 3, "{outcome:?}");
        patched += outcome.patched as u64;
    }
    assert_eq!(monitor.stats().snapshot().pages_patched, patched);
}

/// A posting that adds a row to one event's result table moves that table
/// alone on its sport's page: the sport page, the first to splice it,
/// brings the table's memo up inside its patch, and every section after the
/// table lies where it lay, shifted by the row. The table's fragment page
/// then finds the memo current and is patched too; so is the day's home
/// page, though it is the only page that splices the event's own block,
/// which the posting moved as well: the patch renders that block itself.
#[test]
fn a_result_table_that_grows_a_row_is_patched_into_its_sport_page() {
    let db = fresh_db();
    // A second event of the first event's sport: its table follows the
    // first's on the sport's page.
    let ev = db.events()[0].clone();
    db.load_event(Event {
        id: nagano_db::EventId(1_000),
        name: "Second heat".into(),
        ..ev.clone()
    });
    let registry = PageRegistry::build(&db, 16);
    let (warm, mut held) = warm_site(&db, &registry);
    let sport = PageKey::Sport(ev.sport);
    let tables = |body: &[u8]| -> Vec<usize> {
        let page = std::str::from_utf8(body).unwrap();
        let at = page.match_indices("<table class=\"results\">");
        at.map(|(at, _)| at).collect()
    };
    let before = tables(&held[&sport].0);
    let athlete = db.athletes_of_sport(ev.sport)[0].id;
    db.record_results(ev.id, &[(athlete, 9.5)], false, ev.day);
    let fragment = PageKey::Fragment(FragmentKey::ResultTable(ev.id));
    let mut answer = |key| answered(&warm, &db, &mut held, key);
    assert_eq!(answer(sport), Answer::Patched, "{sport}");
    assert_eq!(answer(fragment), Answer::Patched, "{fragment}");
    assert_eq!(answer(PageKey::Home(ev.day)), Answer::Patched);
    let after = tables(&held[&sport].0);
    let grown = after[1] - before[1];
    assert!(after[0] == before[0] && grown > 0, "{before:?} → {after:?}");
    let shifted: Vec<usize> = before[1..].iter().map(|at| at + grown).collect();
    assert_eq!(after[1..], shifted, "every table after the one that grew");
}

/// A story published on day `d` changes the day's headline strip and the
/// edges it lists: the strip's fragment page and the home page of that day
/// are composed, though their own reads stood — a changed edge list is
/// what still composes a page that splices. The same story re-published
/// under a new title lists the same edges: the strip's page, the first to
/// splice it, brings its memo up inside its patch, and the home page is
/// patched too.
#[test]
fn a_new_story_composes_its_days_home_page_and_a_retitled_one_patches_it() {
    let db = fresh_db();
    let registry = PageRegistry::build(&db, 16);
    let (warm, mut held) = warm_site(&db, &registry);
    let day = db.events()[0].day;
    let strip = PageKey::Fragment(FragmentKey::Headlines(day));
    let mut answer = |key| answered(&warm, &db, &mut held, key);
    for (title, how) in [
        ("Stop-press", Answer::Composed),
        ("Corrected", Answer::Patched),
    ] {
        db.publish_news(NewsArticle {
            id: NewsId(9_000),
            day,
            title: title.into(),
            body: "A story of the day".into(),
            about_event: None,
        });
        assert_eq!(answer(strip), how, "{title}: {strip}");
        assert_eq!(answer(PageKey::Home(day)), how, "{title}");
    }
}

/// Finals land on one thread while another renders the day's home page,
/// the medals page and two country pages onto the bodies it holds. Every
/// body that comes back — the held one or a new one — must be the page of
/// a state that was committed while the render ran: that of a replica
/// database the same finals are applied to one by one. (In this build the
/// renderer also composes every page it keeps, under the view it kept it
/// by, and compares.)
#[test]
fn held_bodies_come_back_only_for_the_state_seen_while_finals_land() {
    use nagano_db::EventId;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::sync::mpsc;
    use std::time::Duration;

    const FINALS: usize = 40;
    // Day 1 has no seeded events: give it forty of its own, in both.
    let build = || {
        let db = fresh_db();
        let sport = db.sports()[0].id;
        for i in 0..FINALS as u32 {
            db.load_event(Event {
                id: EventId(1_000 + i),
                sport,
                name: format!("Heat {i}"),
                day: 1,
                hour: 9,
                popularity: 1.0,
                phase: EventPhase::Scheduled,
            });
        }
        db
    };
    let (db, replica) = (build(), build());
    let podium = final_podium(&db, EventId(1_000));
    let commit = |db: &OlympicDb, i: usize| {
        db.record_results(EventId(1_000 + i as u32), &podium, true, 1);
    };
    let winner = db.athlete(podium[0].0).unwrap().country;
    let bystander = a_country_off(&db, &podium);
    let keys = [
        PageKey::Home(1),
        PageKey::Medals,
        PageKey::Country(winner),
        PageKey::Country(bystander),
    ];
    // states[k]: the four pages once k finals have landed.
    let fresh =
        |db: &Arc<OlympicDb>| keys.map(|key| Renderer::new(Arc::clone(db)).render(key).body);
    let mut states = vec![fresh(&replica)];
    for i in 0..FINALS {
        commit(&replica, i);
        states.push(fresh(&replica));
    }
    let states = Arc::new(states);

    // Finals begun and finals landed: the state a render sees lies between
    // `landed` read before it and `begun` read after it.
    let begun = Arc::new(AtomicUsize::new(0));
    let landed = Arc::new(AtomicUsize::new(0));
    let renders = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicBool::new(false));
    let (finished, watchdog) = mpsc::channel();

    let committer = std::thread::spawn({
        let (db, begun, landed, renders, failed, finished) = (
            Arc::clone(&db),
            Arc::clone(&begun),
            Arc::clone(&landed),
            Arc::clone(&renders),
            Arc::clone(&failed),
            finished.clone(),
        );
        let podium = podium.clone();
        move || {
            for i in 0..FINALS {
                // Let each final go as one render ends, so that it lands
                // inside the next.
                let seen = renders.load(SeqCst);
                while renders.load(SeqCst) == seen && !failed.load(SeqCst) {
                    std::thread::yield_now();
                }
                begun.store(i + 1, SeqCst);
                db.record_results(EventId(1_000 + i as u32), &podium, true, 1);
                landed.store(i + 1, SeqCst);
            }
            let _ = finished.send(());
        }
    });
    let rendering = std::thread::spawn({
        let (db, landed, states) = (Arc::clone(&db), Arc::clone(&landed), Arc::clone(&states));
        move || {
            let warm = Renderer::new(db);
            let mut held: Vec<Option<(Bytes, Box<PageMemo>)>> = keys.map(|_| None).into();
            let (mut kept, mut verdict) = (0, Ok(()));
            let mut done = false;
            while !done && verdict.is_ok() {
                // One more pass once every final has landed.
                done = landed.load(SeqCst) == FINALS;
                for (page, key) in keys.iter().enumerate() {
                    let lo = landed.load(SeqCst);
                    let (previous, memo) = held[page].take().unzip();
                    let (out, memo) = warm.render_onto(*key, previous.as_ref().map(|b| (b, memo)));
                    let hi = begun.load(SeqCst);
                    if !(lo..=hi).any(|k| states[k][page] == out.body) {
                        verdict = Err(format!("{key} is of no state between {lo} and {hi}"));
                        failed.store(true, SeqCst);
                        break;
                    }
                    let is_held = |h: &Bytes| h.as_ptr() == out.body.as_ptr();
                    kept += usize::from(previous.as_ref().is_some_and(is_held));
                    held[page] = Some((out.body, memo));
                    renders.fetch_add(1, SeqCst);
                }
            }
            let _ = finished.send(());
            verdict.map(|()| (kept, held))
        }
    });

    for _ in 0..2 {
        watchdog
            .recv_timeout(Duration::from_secs(60))
            .expect("render and commit deadlocked (or ran for over a minute)");
    }
    blocking!(committer.join()).expect("committer panicked");
    let (kept, held) = blocking!(rendering.join())
        .expect("renderer panicked")
        .unwrap_or_else(|why| panic!("{why}"));
    assert!(kept > 0, "no render was handed its held body back");
    for (page, held) in held.iter().enumerate() {
        assert!(
            held.as_ref().map(|(body, _)| body) == Some(&states[FINALS][page]),
            "{}: not the last state",
            keys[page]
        );
    }
}

/// With debug assertions on, the renderer composes every page it keeps by
/// its stamps and panics on a difference: every suite of the workspace
/// then cross-checks each revalidation it causes. A test profile that
/// turns them off (or a run of this suite with `--release`) would lose
/// that silently.
#[test]
fn the_test_profile_compiles_the_renderers_oracle_in() {
    let mut compiled_in = false;
    debug_assert!({
        compiled_in = true;
        compiled_in
    });
    assert!(
        compiled_in,
        "built without debug assertions: no page kept by its stamps is composed to compare"
    );
}

#[test]
fn warm_renderer_equals_fresh_renderer_plain_seeds() {
    for seed in [1, 42, 0x1998] {
        check_renderer_differential(seed, 6);
    }
}

#[test]
fn page_equivalence_plain_seeds() {
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
    // The first photo is filed as update 14 of the small Games (seed 7)
    // and as update 6 of the full ones (seed 1998: the replay the
    // benchmark's ledger counts, DESIGN.md §13a).
    // Work counts pinned with the bytes: a dead edge — registered, never
    // read — raises `regenerated` and leaves `changed`; a missing one is a
    // stale page in the replay itself; a read that lost its stamp lowers
    // `revalidated`, one logged under too coarse a stamp as well; a splice
    // left unlogged or dated wrong moves `patched`. (One logged under a
    // stamp that does not cover it fails the renderer's debug-build
    // oracle, which composes every page it keeps or patches.) `patched`
    // counts pages patched to new bytes and back to the held body alike.
    // Prewarm distributes every body with its memo, and a patch brings a
    // section whose memo is behind up itself, so a page's first
    // regeneration and the first splicer of a moved section are answered
    // like every later one: a moved edge list is what still composes a
    // page that splices.
    // The fleet digest pins the served bytes and versions themselves: the
    // full replay's is the one DESIGN.md §13a's ledger records.
    assert_eq!(
        check_schedule_replay(&GamesConfig::small(), 7),
        (78, 918, 656, 260, 312, 0xec1a_9efa_f8f3_16c8)
    );
    assert_eq!(
        check_schedule_replay(&GamesConfig::full(), 1998),
        (304, 13_499, 5_994, 7_401, 1_768, 0x91ed_1afc_e3e6_9bf7)
    );
}

/// The graph the benchmark harness mirrors the monitor's with: every
/// vertex a name — a page's object key, a datum's key text — interned, and
/// each page's dependencies registered as `TriggerMonitor::register_render`
/// registers them. Beside it, the name of each vertex the monitor numbers
/// a datum by, which no two names may share.
#[derive(Default)]
struct NamedGraph {
    dup: DupEngine,
    names: Interner,
    monitors: BTreeMap<u32, String>,
}

impl NamedGraph {
    fn register(&mut self, space: &PageSpace, key: PageKey, deps: &[Dependency]) {
        let object = self.names.intern(&key.object_key());
        self.dup.graph_mut().ensure_node(object, NodeKind::Object);
        for dep in deps {
            let data = self.names.intern(&dep.data_key);
            if self.dup.add_dependency(data, object, dep.weight).is_err() {
                let _ = self.dup.add_dependency(data, object, 1.0);
            }
            let datum = dep.data_key.datum();
            let vertex = space.vertex(datum).expect("every datum read has a vertex");
            assert_eq!(
                vertex < space.len(),
                matches!(datum, Datum::Fragment(_)),
                "{datum:?}: vertex {vertex}"
            );
            let name = self
                .monitors
                .entry(vertex)
                .or_insert_with(|| dep.data_key.to_string());
            assert_eq!(name, &*dep.data_key, "two keys share vertex {vertex}");
        }
    }

    /// Its vertices and edges by name.
    fn named(&self) -> Named {
        named(self.dup.graph().snapshot(), |id| {
            self.names.name(NodeId(id)).expect("interned").to_string()
        })
    }

    /// The monitor's vertices and edges, by the same names.
    fn monitors(&self, monitor: &TriggerMonitor, space: &PageSpace) -> Named {
        named(monitor.graph_snapshot(), |id| match space.key(id) {
            Some(page) => page.object_key(),
            None => self.monitors.get(&id).expect("a datum read").clone(),
        })
    }
}

/// A graph's vertices `(name, kind)` and edges `(from, to, weight)`, each
/// sorted by name.
type Named = (Vec<(String, NodeKind)>, Vec<(String, String, f64)>);

fn named(graph: OdgSnapshot, name: impl Fn(u32) -> String) -> Named {
    let mut nodes: Vec<_> = graph
        .nodes
        .into_iter()
        .map(|(id, kind)| (name(id), kind))
        .collect();
    nodes.sort_by(|a, b| a.0.cmp(&b.0));
    let edges = graph.edges.into_iter();
    let mut edges: Vec<_> = edges
        .map(|(from, to, w)| (name(from), name(to), w))
        .collect();
    edges.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    (nodes, edges)
}

#[test]
fn the_monitors_graph_is_the_graph_of_every_pages_dependency_text() {
    // The monitor numbers a datum's vertex by arithmetic over its typed
    // key; the harness's mirror interns the key's text. After prewarm, and
    // after every update of the full Games, the two are one graph: edge
    // for edge, weight for weight, no two keys on one vertex, and no datum
    // but a fragment in the page range.
    let db = seeded_db(&GamesConfig::full());
    let monitor = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let registry = PageRegistry::build(&db, 16);
    let space = *registry.space();
    let fresh = Renderer::new(Arc::clone(&db));
    let mut named = NamedGraph::default();
    for &(key, _) in registry.pages() {
        named.register(&space, key, &fresh.render(key).deps);
    }
    let prewarmed = named.named();
    assert!(prewarmed.1.len() > 2_000, "{} edges", prewarmed.1.len());
    assert!(
        named.monitors(&monitor, &space) == prewarmed,
        "after prewarm"
    );
    let schedule = UpdateSchedule::generate(
        &db,
        &mut DeterministicRng::seed_from_u64(1998 ^ 0x5550_4441_5445),
    );
    let mut rng = DeterministicRng::seed_from_u64(1998 ^ 0x0041_5050_4c59);
    for update in schedule.updates() {
        let txn = UpdateSchedule::apply(update, &db, &mut rng);
        for &key in &monitor.process_txn(&txn).regenerated {
            named.register(&space, key, &fresh.render(key).deps);
        }
    }
    let after = named.named();
    assert!(after.1.len() > prewarmed.1.len(), "the Games add edges");
    assert!(named.monitors(&monitor, &space) == after, "after the Games");
}

/// The ways the cache comes to hold other than what the monitor last
/// distributed, taken in turn by the disturbed replay.
#[derive(Debug, Clone, Copy)]
enum Disturbance {
    /// A demand fill of one page.
    DemandFill,
    /// An oversized fill that evicts every other page of its shard,
    /// invalidated again.
    Eviction,
    /// The cache cleared, as a serving node's cold restart.
    Clear,
    /// One page invalidated.
    Invalidation,
}

#[test]
fn no_page_is_stale_after_any_update_of_the_games_schedule_on_a_disturbed_fleet() {
    // The full replay, with the cache disturbed behind the monitor's back
    // every eight updates from the eighth on: from there an entry must
    // keep its memo no longer than it holds the body the memo is of, or a
    // regeneration answers the page from a memo of other bytes (DESIGN.md
    // §14a, "Page freshness").
    const EVERY: usize = 8;
    const SHARDS: usize = 16;
    const KINDS: [Disturbance; 4] = [
        Disturbance::DemandFill,
        Disturbance::Eviction,
        Disturbance::Clear,
        Disturbance::Invalidation,
    ];
    let seed = 1998;
    let db = seeded_db(&GamesConfig::full());
    let registry = PageRegistry::build(&db, 16);
    // Four times what every page of the site targets: nothing but the
    // oversized fills evicts, each a shard's whole budget.
    let budget = 4 * registry
        .pages()
        .iter()
        .map(|(_, m)| m.bytes as u64)
        .sum::<u64>();
    let config = CacheConfig::bounded(budget, ReplacementPolicy::Lru).with_shards(SHARDS);
    let monitor = monitor_on(&db, config, ConsistencyPolicy::UpdateInPlace);
    let cache = Arc::clone(monitor.cache());
    let fill = Bytes::from(vec![b'x'; (budget / SHARDS as u64) as usize]);
    let pages: Vec<PageKey> = registry.pages().iter().map(|&(k, _)| k).collect();
    let mut rng = DeterministicRng::seed_from_u64(seed ^ 0x4449_5354);
    let mut seen = [0; KINDS.len()];
    let replay = replay_schedule(&db, &monitor, seed, false, |i| {
        if i % EVERY != EVERY - 1 {
            return;
        }
        let kind = (i / EVERY) % KINDS.len();
        seen[kind] += 1;
        match KINDS[kind] {
            Disturbance::DemandFill => {
                monitor.demand_fill(pages[rng.index(pages.len())]);
            }
            Disturbance::Eviction => {
                // A story never filed: a page of the site the cache does
                // not hold.
                let junk = format!("/news/{}", 1_500 + i);
                let before = cache.len();
                cache.put(&junk, fill.clone());
                assert!(cache.invalidate(&junk).is_some());
                assert!(cache.len() < before, "update {i}: nothing evicted");
            }
            Disturbance::Clear => cache.clear(),
            Disturbance::Invalidation => {
                let key = pages[rng.index(pages.len())];
                cache.invalidate(&key.to_url());
            }
        }
    });
    assert_eq!(replay.0, 304);
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    assert!(!pages.iter().all(|&key| cache.has_memo(&key.to_url())));
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

}

proptest! {
    // The oracle of a path that skips composing: 96 prefixes, ~6 s beside
    // the schedule replay above, which takes longer on the other core.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_warm_renderer_equals_fresh_renderer(seed in 0u64..(1u64 << 32), n in 1usize..7) {
        check_renderer_differential(seed, n);
    }
}
