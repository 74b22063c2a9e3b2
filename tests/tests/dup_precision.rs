//! Regeneration-precision suite at fragment granularity (ISSUE 10).
//!
//! Byte-equivalence (`page_equivalence.rs`) proves pages composed
//! from fragments serve the right bytes; this suite pins *which objects*
//! DUP marks, fragments being hybrid vertices of their own: a single
//! result transaction marks exactly one fragment — the event's
//! `ResultTable` — beside the pages embedding it; a medal-moving final
//! marks the shared `MedalTable` once no matter how many pages embed it;
//! and a fragment whose accumulated staleness lands exactly on the DUP
//! threshold regenerates (the `>=` edge), while one epsilon above the
//! weight is tolerated.

use std::sync::Arc;

use nagano_cache::{CacheConfig, CacheFleet};
use nagano_db::{seed_games, AthleteId, EventId, GamesConfig, OlympicDb};
use nagano_odg::StalenessPolicy;
use nagano_pagegen::{FragmentKey, PageKey, PageRegistry, Renderer};
use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};

fn setup(policy: ConsistencyPolicy) -> (Arc<OlympicDb>, TriggerMonitor) {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let monitor = TriggerMonitor::new(
        Renderer::new(Arc::clone(&db)),
        Arc::new(CacheFleet::new(2, CacheConfig::default())),
        registry,
        policy,
    );
    monitor.prewarm();
    (db, monitor)
}

fn podium(db: &OlympicDb, ev: EventId) -> Vec<(AthleteId, f64)> {
    let event = db.event(ev).unwrap();
    db.athletes_of_sport(event.sport)
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, a)| (a.id, 90.0 - i as f64))
        .collect()
}

fn fragment_keys(keys: &[PageKey]) -> Vec<FragmentKey> {
    let mut frags: Vec<FragmentKey> = keys
        .iter()
        .filter_map(|k| match k {
            PageKey::Fragment(f) => Some(*f),
            _ => None,
        })
        .collect();
    frags.sort();
    frags
}

/// A single (non-final) result under a threshold that tolerates the
/// day's weight-0.5 `Headlines` edge marks exactly ONE fragment — the
/// event's `ResultTable` — and the pages embedding it.
#[test]
fn single_result_txn_rerenders_exactly_one_fragment() {
    let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
    // 0.6 sits above the Headlines data edge (0.5) and below a full
    // strength-1.0 edge, isolating the ResultTable.
    monitor.set_staleness_policy(StalenessPolicy::Threshold(0.6));
    let ev = db.events()[0].clone();
    let txn = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
    let outcome = monitor.process_txn(&txn);

    assert_eq!(
        fragment_keys(&outcome.regenerated),
        vec![FragmentKey::ResultTable(ev.id)],
        "exactly the event's result table must re-render"
    );
    // The event page reads no result rows of its own: it is marked
    // through the fragment it embeds, and lands the correct bytes.
    assert!(outcome.regenerated.contains(&PageKey::Event(ev.id)));
    let cached = monitor
        .fleet()
        .member(0)
        .peek(&PageKey::Event(ev.id).to_url())
        .unwrap();
    assert_eq!(
        cached.body,
        Renderer::new(Arc::clone(&db))
            .render(PageKey::Event(ev.id))
            .body
    );
}

/// A medal-moving final dirties the `MedalTable` fragment that several
/// pages embed (the standings page and every day-home page). The shared
/// fragment is marked ONCE; each embedder is marked through it.
#[test]
fn medal_table_shared_by_many_pages_renders_once() {
    let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
    let ev = db.events()[0].clone();
    let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
    let outcome = monitor.process_txn(&txn);

    // Strict policy: the final touches exactly three fragments — the
    // event's results, the standings table, and the day's headlines.
    assert_eq!(
        fragment_keys(&outcome.regenerated),
        vec![
            FragmentKey::ResultTable(ev.id),
            FragmentKey::MedalTable,
            FragmentKey::Headlines(ev.day),
        ],
        "a final dirties results + medal table + headlines, each once"
    );

    // The medal table is embedded by the standings page and the day-home
    // pages; all of them must be refreshed in this outcome, yet the
    // fragment itself appeared only once above.
    let embedders: Vec<&PageKey> = outcome
        .regenerated
        .iter()
        .filter(|k| matches!(k, PageKey::Medals | PageKey::Home(_)))
        .collect();
    assert!(
        embedders.len() >= 2,
        "medal table must fan out to at least standings + a home page, got {embedders:?}"
    );
    // And the fan-out still serves fresh standings everywhere.
    let fresh = Renderer::new(Arc::clone(&db));
    for key in [PageKey::Medals, PageKey::Home(ev.day)] {
        let cached = monitor.fleet().member(0).peek(&key.to_url()).unwrap();
        assert_eq!(cached.body, fresh.render(key).body, "{key:?}");
    }
}

/// DUP threshold edge semantics at fragment granularity: `Headlines`
/// accumulates staleness 0.5 from a result day-edge. A threshold of
/// exactly 0.5 must mark it stale (`>=`), one just above must tolerate
/// it — the fragment stays cached, slightly obsolete.
#[test]
fn fragment_exactly_at_dup_threshold_regenerates() {
    let headline = |day| PageKey::Fragment(FragmentKey::Headlines(day));

    // At the threshold: stale.
    let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
    monitor.set_staleness_policy(StalenessPolicy::Threshold(0.5));
    let ev = db.events()[0].clone();
    let txn = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
    let outcome = monitor.process_txn(&txn);
    assert!(
        outcome.regenerated.contains(&headline(ev.day)),
        "staleness == threshold must regenerate (>= edge), got {:?}",
        outcome.regenerated
    );

    // Just above: tolerated, and only the result table is marked.
    let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
    monitor.set_staleness_policy(StalenessPolicy::Threshold(0.5 + 1e-9));
    let ev = db.events()[0].clone();
    let txn = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
    let outcome = monitor.process_txn(&txn);
    assert!(
        outcome.tolerated.contains(&headline(ev.day)),
        "staleness below threshold must be tolerated, got {:?}",
        outcome.tolerated
    );
    assert!(!outcome.regenerated.contains(&headline(ev.day)));
    assert_eq!(
        fragment_keys(&outcome.regenerated),
        vec![FragmentKey::ResultTable(ev.id)],
        "only the result-table fragment renders when headlines are tolerated"
    );
}
