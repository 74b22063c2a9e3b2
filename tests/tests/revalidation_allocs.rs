//! A regeneration the renderer answers from revision stamps allocates
//! nothing between the probe and the distribution; one it patches
//! allocates nothing in the renderer once warm (DESIGN.md §14a, "Page
//! freshness"); one whose bytes change allocates no body once a body of
//! its page's size is parked to be written over (DESIGN.md §14a, "One
//! body buffer"); one it composes allocates no data key, nor does a
//! commit (DESIGN.md §14, "Reading is registering"). Nor does a
//! distribution of a changed page, nor the one visit that answers a page
//! unmoved or takes its body and memo out of its entry (DESIGN.md §14a,
//! "The row").
//!
//! Nor does the per-request work of a warm hit on the socket path: reading
//! the head off the wire, answering it `200` or `304`, and framing the
//! answer. Nor does a cost lookup, nor writing a page's URL through its
//! `Display`.
//!
//! A binary of its own, because it counts through the global allocator.
//! Every count holds of both builds: a build with debug assertions also
//! composes every page it keeps and finishes every page it writes over
//! afresh, to compare, and records each lock-order edge the first time it
//! is taken, but that work runs `Uncounted`
//! (`nagano_simcore::uncounted`), and the counter skips it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use nagano::{ServingSite, SiteConfig};
use nagano_cache::{CacheConfig, Memo, PageCache, Visit};
use nagano_db::{
    seed_games, AthleteId, EventId, GamesConfig, NewsArticle, NewsId, OlympicDb, SportId,
};
use nagano_httpd::{Request, RequestReader, Status};
use nagano_pagegen::{CostModel, FragmentKey, PageKey, PageRegistry, Renderer};
use nagano_simcore::uncounted::is_uncounted;
use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Those of them of at least [`LARGE`] bytes.
    static LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The smallest allocation counted as large: below the size of every page
/// but a fragment's (2–3 KB), above any row, list or head.
const LARGE: usize = 4 * 1024;

struct Counting;

impl Counting {
    fn count(size: usize) {
        // A checker's work is not the path's it checks.
        if is_uncounted() {
            return;
        }
        // A thread that is being torn down has nowhere left to count.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        if size >= LARGE {
            let _ = LARGE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every call is handed to `System` unchanged; the counters, and
// the depth `is_uncounted` reads, are `const`-initialised thread-local
// `Cell`s, which allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and how often this thread allocated meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What `f` returns, and how often this thread allocated [`LARGE`] bytes
/// or more meanwhile.
fn counted_large<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LARGE_ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, LARGE_ALLOCATIONS.with(Cell::get) - before)
}

fn podium(db: &OlympicDb, event: EventId) -> Vec<(AthleteId, f64)> {
    let sport = db.event(event).unwrap().sport;
    let athletes = db.athletes_of_sport(sport);
    let scored = athletes.iter().take(3).zip([9.0, 8.0, 7.0]);
    scored.map(|(a, score)| (a.id, score)).collect()
}

#[test]
fn a_revalidated_regeneration_allocates_nothing() {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let cache = Arc::new(PageCache::new(CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&cache),
        registry,
        ConsistencyPolicy::UpdateInPlace,
    );
    monitor.prewarm();
    // The stages of `TriggerMonitor::regenerate`, one at a time, for every
    // country page — what a final marks stale — with a renderer of the
    // test's own in the monitor's place. Returns, per country, whether
    // the page was composed.
    let regenerating = Renderer::new(Arc::clone(&db));
    let countries = db.countries();
    let regenerate_countries = || -> Vec<bool> {
        let fresh = Renderer::new(Arc::clone(&db));
        let regenerate = |country: &nagano_db::Country| {
            let key = PageKey::Country(country.id);
            let slot = space.slot(key).unwrap();
            let (held, memo) = cache.take_held(slot).expect("update in place");
            let ((out, memo), rendering) =
                counted(|| regenerating.render_onto(key, Some((&held, memo))));
            assert!(out.body == fresh.render(key).body, "{key} is stale");
            let (kept, revalidated) = (out.body.as_ptr() == held.as_ptr(), out.revalidated);
            let (changed, behind) = counted(|| {
                monitor.register_render(key, &out);
                cache.distribute_with(slot, out.body, Some(memo))
            });
            assert_eq!(changed, !kept, "{key}");
            if revalidated {
                assert!(kept, "{key}");
                assert_eq!(rendering, 0, "{key}: allocated while revalidating");
                assert_eq!(behind, 0, "{key}: allocated behind the renderer");
            }
            !revalidated
        };
        countries.iter().map(regenerate).collect()
    };

    // The first final finds the cache prewarmed with the memos of the
    // monitor's renderer, which are of no use to this one: it knows nothing
    // of those bodies. The second finds the memos it made itself.
    let events = db.events();
    let placed = |event| -> Vec<_> {
        let placed = podium(&db, event);
        let country = |&(a, _): &(AthleteId, f64)| db.athlete(a).unwrap().country;
        placed.iter().map(country).collect()
    };
    db.record_results(
        events[0].id,
        &podium(&db, events[0].id),
        true,
        events[0].day,
    );
    assert!(regenerate_countries().iter().all(|&composed| composed));
    db.record_results(
        events[1].id,
        &podium(&db, events[1].id),
        true,
        events[1].day,
    );
    let on_podium = placed(events[1].id);
    let expected: Vec<bool> = countries
        .iter()
        .map(|c| on_podium.contains(&c.id))
        .collect();
    assert!(expected.contains(&true) && expected.contains(&false));
    assert_eq!(regenerate_countries(), expected);
}

#[test]
fn a_distribution_and_a_visit_to_a_settled_row_allocate_nothing() {
    // A page the cache holds, whose entry the distributions write over.
    const PAGE: u32 = 48;
    let cache = PageCache::new(CacheConfig::default());
    let bodies: Vec<Bytes> = (0..4).map(|i| Bytes::from(vec![b'a' + i; 6_000])).collect();
    cache.distribute_with(PAGE, bodies[0].clone(), None);
    for body in &bodies[1..] {
        let (changed, allocated) = counted(|| cache.distribute_with(PAGE, body.clone(), None));
        assert!(changed, "the bytes changed");
        assert_eq!(allocated, 0, "a changed page's distribution allocated");
    }
    let memo: Memo = Box::new(7_u8);
    let (changed, allocated) =
        counted(|| cache.distribute_with(PAGE, bodies[0].clone(), Some(memo)));
    assert!(changed && allocated == 0, "{allocated} allocations");
    let page = cache.peek(PAGE).unwrap();
    assert_eq!((page.body.as_ptr(), page.version), (bodies[0].as_ptr(), 5));
    // The cache's half of the one visit a regeneration makes: the page
    // answered from its body and memo, or its body and memo taken out of
    // its entry.
    let (visit, allocated) = counted(|| cache.answer_or_take(PAGE, |_, &memo: &u8| Some(memo)));
    assert!(matches!(visit, Visit::Answered(7)) && allocated == 0);
    let (visit, allocated) = counted(|| cache.answer_or_take(PAGE, |_, _: &u8| None::<()>));
    let Visit::Taken(Some((held, Some(memo)))) = visit else {
        panic!("the cache holds the page and the memo of it");
    };
    assert!(held.as_ptr() == bodies[0].as_ptr() && *memo == 7 && allocated == 0);
    assert!(!cache.has_memo(PAGE));
}

#[test]
fn the_one_visit_of_a_regeneration_allocates_nothing() {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let cache = Arc::new(PageCache::new(CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&cache),
        registry,
        ConsistencyPolicy::UpdateInPlace,
    );
    monitor.prewarm();
    // Every country page visited as `TriggerMonitor::regenerate` visits
    // it, inside the monitor's renderer's one pass: per page, whether it
    // was answered unmoved, and how often the visit allocated — the
    // renderer's answer and the cache's visit to the row together.
    let countries: Vec<PageKey> = db
        .countries()
        .iter()
        .map(|c| PageKey::Country(c.id))
        .collect();
    let visit_countries = || -> Vec<(bool, u64)> {
        monitor
            .renderer()
            .answer_unmoved(&countries, |key, answer| {
                let slot = space.slot(key).unwrap();
                let (visit, allocated) =
                    counted(|| cache.answer_or_take(slot, |b, m| answer(b, m)));
                (matches!(visit, Visit::Answered(_)), allocated)
            })
    };
    // Nothing moved since prewarm: every page is answered.
    let visits = visit_countries();
    assert!(visits.iter().all(|&(answered, _)| answered), "{visits:?}");
    // A final moves the pages of the countries it places: theirs are taken
    // out, the others answered.
    let event = db.events()[0].clone();
    db.record_results(event.id, &podium(&db, event.id), true, event.day);
    let again = visit_countries();
    assert!(again.iter().any(|&(answered, _)| answered), "{again:?}");
    assert!(again.iter().any(|&(answered, _)| !answered), "{again:?}");
    for (answered, allocated) in visits.into_iter().chain(again) {
        assert_eq!(allocated, 0, "answered: {answered}");
    }
}

#[test]
fn a_changed_regeneration_allocates_no_body_once_one_is_parked() {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let cache = Arc::new(PageCache::new(CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&cache),
        registry,
        ConsistencyPolicy::UpdateInPlace,
    );
    monitor.prewarm();
    // Every posting of an event's results adds a row to the page of each
    // athlete it places: every one of those pages changes, and all are of
    // one size. They are rendered by the monitor's own renderer, onto the
    // bodies prewarm distributed with its memos.
    let event = db.events()[0].clone();
    let placed = podium(&db, event.id);
    let regenerating = monitor.renderer();
    let fresh = Renderer::new(Arc::clone(&db));
    let mut large = Vec::new();
    for posting in 0..4 {
        let scores: Vec<_> = placed
            .iter()
            .map(|&(a, s)| (a, s + posting as f64))
            .collect();
        db.record_results(event.id, &scores, false, event.day);
        for &(athlete, _) in &placed {
            let key = PageKey::Athlete(athlete);
            let slot = space.slot(key).unwrap();
            let (held, memo) = cache.take_held(slot).expect("update in place");
            let (out, allocated) = counted_large(|| {
                let (out, memo) = regenerating.render_onto(key, Some((&held, memo)));
                monitor.register_render(key, &out);
                let body = out.body.clone();
                assert!(
                    cache.distribute_with(slot, out.body, Some(memo)),
                    "{key} changed"
                );
                body
            });
            assert!(out == fresh.render(key).body, "{key} is stale");
            large.push(allocated);
        }
    }
    // Every page's old body is parked as it is replaced — on a page's
    // first regeneration the prewarmed body, whose memo kept its content
    // length — and the next page is written over it: all but
    // the very first page, which found none parked yet.
    assert!(large[0] >= 1, "{large:?}");
    assert!(large[1..].iter().all(|&n| n == 0), "{large:?}");
}

#[test]
fn a_patched_regeneration_allocates_nothing_in_the_renderer_once_warm() {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let cache = Arc::new(PageCache::new(CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&cache),
        registry,
        ConsistencyPolicy::UpdateInPlace,
    );
    monitor.prewarm();
    // A final moves the medal table every home page splices, and the
    // block of its own event on its day's. Each final below regenerates
    // the sixteen home pages, in day order, the way
    // `TriggerMonitor::regenerate` does, with a renderer of the test's
    // own: per page, its day, whether it was patched and how often the
    // render allocated.
    let regenerating = Renderer::new(Arc::clone(&db));
    let fresh = Renderer::new(Arc::clone(&db));
    let regenerate_home_pages = |event: &nagano_db::Event| -> Vec<(u32, bool, u64)> {
        db.record_results(event.id, &podium(&db, event.id), true, event.day);
        let pages = (1..=16).map(|day| {
            let key = PageKey::Home(day);
            let slot = space.slot(key).unwrap();
            let (held, memo) = cache.take_held(slot).expect("update in place");
            let ((out, memo), rendering) =
                counted(|| regenerating.render_onto(key, Some((&held, memo))));
            assert!(out.body == fresh.render(key).body, "{key} is stale");
            monitor.register_render(key, &out);
            assert!(
                cache.distribute_with(slot, out.body, Some(memo)),
                "{key} changed"
            );
            (day, out.patched, rendering)
        });
        pages.collect()
    };
    // The first final finds the cache prewarmed with the memos of the
    // monitor's renderer, of no use to this one: every page is composed. In the next two every page is patched. The
    // first page to splice the moved table brings the table's memo up
    // inside its patch, and the page of the final's own day its event's
    // block and result table: each may allocate what rendering a section
    // does — its edge list, the standings — as the compose it replaced
    // did. The second final also warms the thread's scratch and parks a
    // home page's body for the next to be written over; in the third, every
    // other patched page allocates nothing.
    let events = db.events();
    let first = regenerate_home_pages(&events[0]);
    assert!(first.iter().all(|&(_, patched, _)| !patched), "{first:?}");
    for (i, event) in events[1..3].iter().enumerate() {
        let pages = regenerate_home_pages(event);
        for &(day, patched, allocated) in &pages {
            assert!(patched, "{pages:?}");
            let brings_a_section_up = day == 1 || day == event.day;
            if i == 1 && !brings_a_section_up {
                assert_eq!(allocated, 0, "day {day}: {pages:?}");
            }
        }
    }
}

#[test]
fn a_warm_hit_allocates_nothing() {
    let site = ServingSite::build(SiteConfig::small());
    let paths = ["/medals", "/day/3/", "/athletes/7", "/fragments/results/2"];
    // Every page is prewarmed and a hit records no recency on an unbounded
    // cache, so nothing is owed a warm-up: the very first hit is counted.
    for path in paths {
        let (page, allocated) = counted(|| site.handle(path));
        assert!(page.unwrap().cache_hit, "{path}");
        assert_eq!(allocated, 0, "{path}: a hit allocated");
    }
    // A worker's scratch, reused for every request it reads and answers.
    let mut parse = RequestReader::new();
    let mut request = Request::empty();
    let mut head = Vec::new();
    for path in paths {
        let version = site.handle(path).unwrap().version;
        let fetch = format!("GET {path} HTTP/1.1\r\nHost: nagano\r\n\r\n");
        let revalidate =
            format!("GET {path} HTTP/1.1\r\nHost: nagano\r\nIf-None-Match: \"v{version}\"\r\n\r\n");
        for (wire, status) in [(fetch, Status::Ok), (revalidate, Status::NotModified)] {
            // The first pass grows the scratch to this request's size.
            for pass in 0..2 {
                let mut wire = wire.as_bytes();
                let (read, reading) = counted(|| parse.read_into(&mut wire, &mut request));
                assert!(read.is_ok() && wire.is_empty(), "{path}");
                let (response, responding) = counted(|| site.respond(0, &request));
                assert_eq!(response.status, status, "{path}");
                let ((), framing) = counted(|| response.serialize_head(true, &mut head));
                if pass == 1 {
                    let counts = (reading, responding, framing);
                    assert_eq!(counts, (0, 0, 0), "{path}: {status:?} allocated");
                }
            }
        }
    }
    // A path the site does not have is answered from a canned body.
    for path in ["/no/such/page", "/athletes/99999999"] {
        request.path.clear();
        request.path.push_str(path);
        request.if_none_match = None;
        for pass in 0..2 {
            let (response, responding) = counted(|| site.respond(0, &request));
            assert_eq!(response.status, Status::NotFound, "{path}");
            if pass == 1 {
                assert_eq!(responding, 0, "{path}: a 404 allocated");
            }
        }
    }
}

#[test]
fn a_composed_page_and_a_commit_allocate_no_key_per_datum() {
    // A data key spells its text in place: a compose allocates for its
    // dependency list, not for each key on it, and a commit for its list
    // of changes, not for each change. Fifty-one stories on one day give
    // that day's news index fifty-one dependencies; a result posting of
    // thirty athletes names some sixty records.
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let day = 3;
    for seq in 0..51 {
        db.publish_news(NewsArticle {
            id: NewsId(day * 1_000 + seq),
            day,
            title: format!("Story {seq}"),
            body: "Filed from Nagano.".into(),
            about_event: None,
        });
    }
    // Composed onto the page's own body, without a memo to answer from;
    // the first time warms the renderer's section memo and scratch.
    let renderer = Renderer::new(Arc::clone(&db));
    let key = PageKey::NewsIndex(day);
    let held = renderer.render(key).body;
    let composing = || renderer.render_onto(key, Some((&held, None)));
    composing();
    let ((out, _), allocated) = counted(composing);
    assert!(!out.revalidated && !out.patched, "composed");
    assert_eq!(out.deps.len(), 52);
    assert!(allocated < 52 / 4, "{allocated} allocations, 52 keys");
    // The second posting of the same placements: the tables' indexes hold
    // room for it.
    let event = db.events()[0].id;
    let athletes = db.athletes();
    let placed: Vec<_> = athletes.iter().take(30).map(|a| (a.id, 1.0)).collect();
    db.record_results(event, &placed, false, day);
    let (txn, allocated) = counted(|| db.record_results(event, &placed, false, day));
    let changes = txn.changes.len();
    assert!(changes >= 40, "{changes} changes");
    assert!(
        allocated < changes as u64 / 4,
        "{allocated} allocations, {changes} changes"
    );
}

#[test]
fn a_cost_lookup_allocates_nothing() {
    // The cost is keyed by the bytes of the page's URL, spelled into a
    // buffer of the thread's own: the first lookup grows it to the longest
    // URL here, and none allocates after.
    let model = CostModel::new();
    let keys = [
        PageKey::Welcome,
        PageKey::Venue(SportId(2)),
        PageKey::Home(3),
        PageKey::Athlete(AthleteId(1_234)),
        PageKey::Fragment(FragmentKey::Headlines(9)),
        PageKey::Fragment(FragmentKey::ResultTable(EventId(17))),
    ];
    let costs: Vec<f64> = keys.iter().map(|&key| model.cost_ms(key)).collect();
    for (&key, &cost) in keys.iter().zip(&costs) {
        let (again, allocated) = counted(|| model.cost_ms(key));
        assert_eq!((again, allocated), (cost, 0), "{key}");
    }
}

#[test]
fn a_key_displays_without_allocating() {
    use std::fmt::Write;
    let keys = [
        PageKey::Welcome,
        PageKey::Home(3),
        PageKey::Athlete(AthleteId(1_234)),
        PageKey::Fragment(FragmentKey::ResultTable(EventId(17))),
    ];
    let mut buf = String::with_capacity(64);
    for key in keys {
        buf.clear();
        let (written, allocated) = counted(|| write!(buf, "{key}"));
        assert!(written.is_ok() && buf == key.to_url(), "{key:?}");
        assert_eq!(allocated, 0, "{key:?}");
    }
}
