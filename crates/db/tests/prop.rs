//! Property tests for the database: medal accounting, index consistency,
//! and transaction-log integrity under random mutation sequences.

use proptest::prelude::*;
use std::sync::Arc;

use nagano_db::{seed_games, AthleteId, EventId, GamesConfig, NewsArticle, NewsId, OlympicDb};

#[derive(Debug, Clone)]
enum Op {
    /// (event selector, placement count, is_final)
    Results(u8, u8, bool),
    News(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..12u8, 1..10u8, any::<bool>()).prop_map(|(e, n, f)| Op::Results(e, n, f)),
        (0..500u16).prop_map(Op::News),
    ]
}

fn seeded() -> Arc<OlympicDb> {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Medal accounting: gold/silver/bronze totals equal the number of
    /// finals recorded (with enough entrants), and standings stay sorted.
    #[test]
    fn medal_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let db = seeded();
        let events = db.events();
        let mut expected_golds = 0u32;
        let mut expected_silvers = 0u32;
        let mut expected_bronzes = 0u32;
        let mut news_ids = std::collections::BTreeSet::new();
        for op in &ops {
            match op {
                Op::Results(e, n, is_final) => {
                    let ev = &events[*e as usize % events.len()];
                    let pool = db.athletes_of_sport(ev.sport);
                    let take = (*n as usize).min(pool.len());
                    if take == 0 {
                        continue;
                    }
                    let placements: Vec<(AthleteId, f64)> = pool
                        .iter()
                        .take(take)
                        .enumerate()
                        .map(|(i, a)| (a.id, 100.0 - i as f64))
                        .collect();
                    db.record_results(ev.id, &placements, *is_final, ev.day);
                    if *is_final {
                        expected_golds += (take >= 1) as u32;
                        expected_silvers += (take >= 2) as u32;
                        expected_bronzes += (take >= 3) as u32;
                    }
                }
                Op::News(n) => {
                    if news_ids.insert(*n) {
                        db.publish_news(NewsArticle {
                            id: NewsId(*n as u32 + 10_000),
                            day: 3,
                            title: format!("story {n}"),
                            body: "x".into(),
                            about_event: None,
                        });
                    }
                }
            }
        }
        let standings = db.medal_standings();
        let golds: u32 = standings.iter().map(|(_, m)| m.gold).sum();
        let silvers: u32 = standings.iter().map(|(_, m)| m.silver).sum();
        let bronzes: u32 = standings.iter().map(|(_, m)| m.bronze).sum();
        prop_assert_eq!(golds, expected_golds);
        prop_assert_eq!(silvers, expected_silvers);
        prop_assert_eq!(bronzes, expected_bronzes);
        // Standings sorted by gold then total.
        for w in standings.windows(2) {
            let (a, b) = (&w[0].1, &w[1].1);
            prop_assert!(
                a.gold > b.gold || (a.gold == b.gold && a.total() >= b.total()),
                "standings out of order"
            );
        }
    }

    /// The per-event result index agrees with a full table scan, and
    /// ranks within one posting are 1..=k.
    #[test]
    fn result_index_consistency(ops in proptest::collection::vec((0..12u8, 1..8u8), 1..40)) {
        let db = seeded();
        let events = db.events();
        for (e, n) in &ops {
            let ev = &events[*e as usize % events.len()];
            let pool = db.athletes_of_sport(ev.sport);
            let take = (*n as usize).min(pool.len());
            if take == 0 {
                continue;
            }
            let placements: Vec<(AthleteId, f64)> = pool
                .iter()
                .take(take)
                .enumerate()
                .map(|(i, a)| (a.id, 10.0 - i as f64))
                .collect();
            db.record_results(ev.id, &placements, false, ev.day);
        }
        for ev in &events {
            let via_index = db.results_for_event(ev.id);
            // Scan all athletes' results for this event as the reference.
            let mut via_scan = 0usize;
            for a in db.athletes() {
                via_scan += db
                    .results_for_athlete(a.id)
                    .iter()
                    .filter(|r| r.event == ev.id)
                    .count();
            }
            prop_assert_eq!(via_index.len(), via_scan, "event {}", ev.id);
            // Ranks start at 1 within each posting batch.
            if let Some(first) = via_index.first() {
                prop_assert_eq!(first.rank, 1);
            }
        }
    }

    /// The transaction log is dense, ordered, and replayable via since().
    #[test]
    fn txn_log_integrity(ops in proptest::collection::vec((0..12u8, 1..5u8), 1..40)) {
        let db = seeded();
        let events = db.events();
        for (e, n) in &ops {
            let ev = &events[*e as usize % events.len()];
            let pool = db.athletes_of_sport(ev.sport);
            let take = (*n as usize).min(pool.len());
            if take == 0 {
                continue;
            }
            let placements: Vec<(AthleteId, f64)> = pool
                .iter()
                .take(take)
                .map(|a| (a.id, 5.0))
                .collect();
            db.record_results(ev.id, &placements, false, ev.day);
        }
        let log = db.log();
        let n = log.len();
        for i in 1..=n {
            let txn = log.get(nagano_db::TxnId(i as u64)).expect("dense ids");
            prop_assert_eq!(txn.id.0, i as u64);
            prop_assert!(!txn.changes.is_empty());
            // Every results transaction names its event.
            prop_assert!(txn.changes.iter().any(|c| c.data_key.starts_with("data:event:")
                || c.data_key.starts_with("data:news:")));
        }
        // since(k) returns exactly the suffix.
        let mid = n / 2;
        let tail = log.since(nagano_db::TxnId(mid as u64));
        prop_assert_eq!(tail.len(), n - mid);
        if let Some(first) = tail.first() {
            prop_assert_eq!(first.id.0, mid as u64 + 1);
        }
    }
}

#[test]
fn results_for_missing_event_is_empty() {
    let db = seeded();
    assert!(db.results_for_event(EventId(9_999)).is_empty());
}
