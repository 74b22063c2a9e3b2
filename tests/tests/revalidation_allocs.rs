//! A regeneration the renderer answers from revision stamps allocates
//! nothing between the probe and the distribution; one it patches
//! allocates nothing in the renderer once warm (DESIGN.md §14a, "Page
//! freshness"); one whose bytes change allocates no body once a body of
//! its page's size is parked to be written over (DESIGN.md §14a, "One
//! body buffer").
//!
//! A binary of its own, because it counts through the global allocator.
//! The render halves hold of an optimised build only — a build with debug
//! assertions composes every page it keeps and finishes every page it
//! writes over afresh, to compare — so CI also runs this file with
//! `--release`; the registration and the distribution of a kept page
//! allocate nothing in either build. Nor does a warm hit on the serving
//! path, from the request path to the cached body.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use nagano::{ServingSite, SiteConfig};
use nagano_cache::{CacheConfig, CacheFleet};
use nagano_db::{seed_games, AthleteId, EventId, GamesConfig, OlympicDb};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
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
        // A thread that is being torn down has nowhere left to count.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        if size >= LARGE {
            let _ = LARGE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every call is handed to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell`, which allocates nothing itself.
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
    let fleet = Arc::new(CacheFleet::new(8, CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&fleet),
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
            let held = fleet.distributed(slot).expect("update in place").body;
            let (out, rendering) = counted(|| regenerating.render_onto(key, Some(&held)));
            assert!(out.body == fresh.render(key).body, "{key} is stale");
            let (kept, revalidated) = (out.body.as_ptr() == held.as_ptr(), out.revalidated);
            let (changed, behind) = counted(|| {
                monitor.register_render(key, &out);
                fleet.distribute(slot, out.body, out.cost_ms)
            });
            assert_eq!(changed, !kept, "{key}");
            if revalidated {
                assert!(kept, "{key}");
                if !cfg!(debug_assertions) {
                    assert_eq!(rendering, 0, "{key}: allocated while revalidating");
                }
                assert_eq!(behind, 0, "{key}: allocated behind the renderer");
            }
            !revalidated
        };
        countries.iter().map(regenerate).collect()
    };

    // The first final finds the renderer knowing nothing of the bodies
    // the fleet was prewarmed with; the second finds it knowing them all.
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
fn a_changed_regeneration_allocates_no_body_once_one_is_parked() {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let fleet = Arc::new(CacheFleet::new(8, CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&fleet),
        registry,
        ConsistencyPolicy::UpdateInPlace,
    );
    monitor.prewarm();
    // Every posting of an event's results adds a row to the page of each
    // athlete it places: every one of those pages changes, and all are of
    // one size. They are rendered by the monitor's own renderer, whose page
    // memo holds a reference to every body prewarm distributed: no other
    // renderer could ever write over one of those.
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
            let held = fleet.distributed(slot).expect("update in place").body;
            let (out, allocated) = counted_large(|| {
                let out = regenerating.render_onto(key, Some(&held));
                monitor.register_render(key, &out);
                let body = out.body.clone();
                assert!(
                    fleet.distribute(slot, out.body, out.cost_ms),
                    "{key} changed"
                );
                body
            });
            assert!(out == fresh.render(key).body, "{key} is stale");
            large.push(allocated);
        }
    }
    // Every page's old body is parked as it is replaced — on a page's
    // first regeneration the prewarmed body, which the page memo kept with
    // its content length — and the next page is written over it: all but
    // the very first page, which found none parked yet.
    assert!(large[0] >= 1, "{large:?}");
    if !cfg!(debug_assertions) {
        assert!(large[1..].iter().all(|&n| n == 0), "{large:?}");
    }
}

#[test]
fn a_patched_regeneration_allocates_nothing_in_the_renderer_once_warm() {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let fleet = Arc::new(CacheFleet::new(8, CacheConfig::default()));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let space = *registry.space();
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::clone(&fleet),
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
            let held = fleet.distributed(slot).expect("update in place").body;
            let (out, rendering) = counted(|| regenerating.render_onto(key, Some(&held)));
            assert!(out.body == fresh.render(key).body, "{key} is stale");
            monitor.register_render(key, &out);
            assert!(
                fleet.distribute(slot, out.body, out.cost_ms),
                "{key} changed"
            );
            (day, out.patched, rendering)
        });
        pages.collect()
    };
    // The first final finds the renderer knowing no body the fleet holds:
    // every page is composed. In the next two every page is patched. The
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
            if i == 1 && !brings_a_section_up && !cfg!(debug_assertions) {
                assert_eq!(allocated, 0, "day {day}: {pages:?}");
            }
        }
    }
}

#[test]
fn a_warm_hit_allocates_nothing() {
    let site = ServingSite::build(SiteConfig::small());
    let paths = ["/medals", "/day/3/", "/athletes/7", "/fragments/results/2"];
    // The first hit on a page marks it for the hotness window, which may
    // grow that list; a hit on a page already marked writes a count.
    for path in paths {
        assert!(site.handle(0, path).unwrap().cache_hit, "{path}");
    }
    for path in paths {
        let (page, allocated) = counted(|| site.handle(0, path));
        assert!(page.unwrap().cache_hit, "{path}");
        assert_eq!(allocated, 0, "{path}: a hit allocated");
    }
}
