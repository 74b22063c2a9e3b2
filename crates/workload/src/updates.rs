//! The database update schedule: when results, news, and photos arrive.
//!
//! Results flowed from venue scoring systems into the master database as
//! events progressed: intermediate standings during competition, final
//! standings (and medals) at the end. §3.1: up to 58,000 pages were
//! regenerated on the busiest day, an average of 20,000/day, and pages
//! reflected new results "within a maximum of sixty seconds".

use std::sync::Arc;

use nagano_db::{AthleteId, EventId, NewsArticle, NewsId, OlympicDb, Photo, PhotoId, Transaction};
use nagano_simcore::{DeterministicRng, SimTime};

/// What kind of update arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Result standings for an event; `is_final` awards medals.
    Results {
        /// The event.
        event: EventId,
        /// Whether these are the final standings.
        is_final: bool,
    },
    /// An editorial news story.
    News {
        /// Sequence number within the day.
        seq: u32,
        /// Event the story covers, if any.
        about: Option<EventId>,
    },
    /// A classified photo.
    Photo {
        /// Event depicted.
        event: EventId,
        /// Sequence number for the event.
        seq: u32,
    },
}

/// One scheduled database update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledUpdate {
    /// When the update reaches the master database.
    pub at: SimTime,
    /// Day of the Games (1-based).
    pub day: u32,
    /// The payload kind.
    pub kind: UpdateKind,
}

/// The full Games update schedule, sorted by time.
#[derive(Debug, Clone, Default)]
pub struct UpdateSchedule {
    updates: Vec<ScheduledUpdate>,
}

impl UpdateSchedule {
    /// Generate the schedule for a seeded database.
    ///
    /// Per event: two intermediate result postings in the hour before the
    /// final, then the final standings on the hour. Per day: a morning and
    /// an evening news story (plus one per finished marquee event), and a
    /// photo shortly after each final.
    pub fn generate(db: &OlympicDb, rng: &mut DeterministicRng) -> Self {
        let mut updates = Vec::new();
        for event in db.events() {
            let final_at = SimTime::at(event.day, event.hour, rng.index(10) as u32);
            for (k, minutes_before) in [(0u32, 40u32), (1, 20)] {
                let at = final_at - nagano_simcore::SimDuration::from_mins(minutes_before as u64);
                let _ = k;
                updates.push(ScheduledUpdate {
                    at,
                    day: event.day,
                    kind: UpdateKind::Results {
                        event: event.id,
                        is_final: false,
                    },
                });
            }
            updates.push(ScheduledUpdate {
                at: final_at,
                day: event.day,
                kind: UpdateKind::Results {
                    event: event.id,
                    is_final: true,
                },
            });
            // Photo desk files a classified shot ~15 minutes after the
            // final; marquee events also get a story.
            updates.push(ScheduledUpdate {
                at: final_at + nagano_simcore::SimDuration::from_mins(15),
                day: event.day,
                kind: UpdateKind::Photo {
                    event: event.id,
                    seq: 0,
                },
            });
            if event.popularity >= 10.0 {
                updates.push(ScheduledUpdate {
                    at: final_at + nagano_simcore::SimDuration::from_mins(25),
                    day: event.day,
                    kind: UpdateKind::News {
                        seq: 90 + event.id.0 % 10,
                        about: Some(event.id),
                    },
                });
            }
        }
        // Editorial cadence: morning + evening stories every day.
        let days = db.events().iter().map(|e| e.day).max().unwrap_or(1);
        for day in 1..=days {
            for (seq, hour) in [(0u32, 8u32), (1, 21)] {
                updates.push(ScheduledUpdate {
                    at: SimTime::at(day, hour, rng.index(60) as u32),
                    day,
                    kind: UpdateKind::News { seq, about: None },
                });
            }
        }
        updates.sort_by_key(|u| u.at);
        UpdateSchedule { updates }
    }

    /// The updates, time-sorted.
    pub fn updates(&self) -> &[ScheduledUpdate] {
        &self.updates
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Updates scheduled on a given day.
    pub fn on_day(&self, day: u32) -> impl Iterator<Item = &ScheduledUpdate> {
        self.updates.iter().filter(move |u| u.day == day)
    }

    /// Apply one update to the database, committing a transaction.
    ///
    /// For results, placements are drawn from the event's sport entry list
    /// — 8 to 30 athletes, matching the fan-out that made one cross-country
    /// update touch 128 pages.
    pub fn apply(
        update: &ScheduledUpdate,
        db: &OlympicDb,
        rng: &mut DeterministicRng,
    ) -> Arc<Transaction> {
        match update.kind {
            UpdateKind::Results { event, is_final } => {
                // The entry list by id, through a view that is gone before
                // `record_results` asks for the write lock: the lock
                // prefers writers, so a view still alive would deadlock.
                let mut pool: Vec<AthleteId> = {
                    let view = db.view();
                    let sport = view.event(event).expect("scheduled event exists").sport;
                    view.athlete_ids_of_sport(sport).to_vec()
                };
                assert!(!pool.is_empty(), "sport without athletes");
                let n = (8 + rng.index(23)).min(pool.len());
                // Deterministic shuffle-by-selection of n distinct athletes.
                for k in 0..n {
                    let j = k + rng.index(pool.len() - k);
                    pool.swap(k, j);
                }
                let placements: Vec<(AthleteId, f64)> = pool[..n]
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| (a, 100.0 - i as f64 - rng.f64()))
                    .collect();
                db.record_results(event, &placements, is_final, update.day)
            }
            UpdateKind::News { seq, about } => {
                let id = NewsId(update.day * 1_000 + seq);
                db.publish_news(NewsArticle {
                    id,
                    day: update.day,
                    title: match about {
                        Some(ev) => format!("Drama at event {}", ev.0),
                        None => format!("Day {} round-up #{}", update.day, seq),
                    },
                    body: "Full report from our correspondents in Nagano.".into(),
                    about_event: about,
                })
            }
            UpdateKind::Photo { event, seq } => db.add_photo(Photo {
                id: PhotoId(event.0 * 100 + seq),
                day: update.day,
                about_event: Some(event),
                bytes: 30_000 + rng.index(50_000) as u32,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{seed_games, GamesConfig};

    fn setup() -> (Arc<OlympicDb>, UpdateSchedule, DeterministicRng) {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let mut rng = DeterministicRng::seed_from_u64(11);
        let sched = UpdateSchedule::generate(&db, &mut rng);
        (db, sched, rng)
    }

    #[test]
    fn schedule_is_time_sorted_and_complete() {
        let (db, sched, _) = setup();
        assert!(!sched.is_empty());
        for w in sched.updates().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // 3 result postings + 1 photo per event, plus ≥2 news per day.
        let n_events = db.events().len();
        assert!(sched.len() >= n_events * 4 + 2 * 14);
    }

    #[test]
    fn each_event_gets_two_partials_then_a_final() {
        let (db, sched, _) = setup();
        let ev = db.events()[0].id;
        let mut postings: Vec<(SimTime, bool)> = sched
            .updates()
            .iter()
            .filter_map(|u| match u.kind {
                UpdateKind::Results { event, is_final } if event == ev => Some((u.at, is_final)),
                _ => None,
            })
            .collect();
        postings.sort();
        assert_eq!(postings.len(), 3);
        assert_eq!(
            postings.iter().map(|&(_, f)| f).collect::<Vec<_>>(),
            vec![false, false, true]
        );
    }

    #[test]
    fn applying_results_records_rows_and_medals() {
        let (db, sched, mut rng) = setup();
        let final_update = sched
            .updates()
            .iter()
            .find(|u| matches!(u.kind, UpdateKind::Results { is_final: true, .. }))
            .copied()
            .unwrap();
        let txn = UpdateSchedule::apply(&final_update, &db, &mut rng);
        assert!(txn.changes.len() >= 8, "changes {}", txn.changes.len());
        let standings = db.medal_standings();
        assert!(standings.iter().any(|(_, m)| m.gold > 0));
    }

    #[test]
    fn applying_full_schedule_is_clean() {
        let (db, sched, mut rng) = setup();
        for u in sched.updates() {
            UpdateSchedule::apply(u, &db, &mut rng);
        }
        let (_, _, _, _, results, news, photos) = db.counts();
        assert!(results > 0);
        assert!(news >= 28, "news {news}");
        assert_eq!(photos, db.events().len());
        assert_eq!(db.log().len(), sched.len());
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let a = UpdateSchedule::generate(&db, &mut DeterministicRng::seed_from_u64(3));
        let b = UpdateSchedule::generate(&db, &mut DeterministicRng::seed_from_u64(3));
        assert_eq!(a.updates(), b.updates());
    }

    #[test]
    fn on_day_filters() {
        let (_, sched, _) = setup();
        let day2: Vec<_> = sched.on_day(2).collect();
        assert!(day2.iter().all(|u| u.day == 2));
        assert!(!day2.is_empty());
    }
}
