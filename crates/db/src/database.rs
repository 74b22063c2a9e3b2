//! The site database: typed tables + transaction log.
//!
//! Mirrors the paper's master results database. Initial content (sports,
//! events, athletes, countries compiled "over the preceding year") is
//! *loaded* without logging; everything that changes during the Games —
//! results arriving from venues, medal tallies, news, photos — goes
//! through logged mutation methods so the trigger monitor sees precisely
//! which records changed.
//!
//! Reads go through a [`DbView`]: one read lock for as many queries as the
//! caller composes, rows by reference, every by-column query answered from
//! a secondary index the write path maintains. The owned-`Vec` methods on
//! [`OlympicDb`] are one-query views for callers that keep the rows.

use std::sync::Arc;

use nagano_simcore::sync::{RwLock, RwLockReadGuard};

use crate::key::Datum;
use crate::schema::{
    Athlete, AthleteId, Country, CountryId, Event, EventId, EventPhase, MedalCount, NewsArticle,
    NewsId, Photo, PhotoId, ResultId, ResultRow, Sport, SportId,
};
use crate::table::{Counters, Index, Slot, Table};
use crate::txn::{RecordChange, Transaction, TxnLog};

/// Revision stamps of the data the memoised page sections — and, summed
/// over what a page read, whole pages — are rendered from (result table
/// and home-page line of an event, medal table, medal box of a country,
/// headlines of a day, roster of a country). A mutation bumps the stamp of
/// every section whose bytes it can change, under the same write lock as
/// the rows, so a stamp and the rows read through one [`DbView`] always
/// belong together.
#[derive(Debug, Default)]
struct Revisions {
    /// Unlogged loads: seeding may rewrite any row a section prints
    /// (athlete names, country codes, event names), so it counts towards
    /// every stamp — and is the whole stamp of what only loads write.
    loads: u64,
    results: Counters<EventId>,
    medals: u64,
    /// One country's tally: a final bumps its podium countries' only,
    /// where `medals` moves for every country at once.
    medal_rows: Counters<CountryId>,
    news: Counters<u32>,
}

#[derive(Debug, Default)]
struct Tables {
    sports: Table<SportId, Sport>,
    events: Table<EventId, Event>,
    athletes: Table<AthleteId, Athlete>,
    countries: Table<CountryId, Country>,
    results: Table<ResultId, ResultRow>,
    medals: Table<CountryId, MedalCount>,
    news: Table<NewsId, NewsArticle>,
    photos: Table<PhotoId, Photo>,
    events_by_day: Index<u32, EventId>,
    events_by_sport: Index<SportId, EventId>,
    athletes_by_country: Index<CountryId, AthleteId>,
    athletes_by_sport: Index<SportId, AthleteId>,
    results_by_event: Index<EventId, ResultId>,
    results_by_athlete: Index<AthleteId, ResultId>,
    news_by_day: Index<u32, NewsId>,
    photos_by_event: Index<EventId, PhotoId>,
    next_result: u32,
    revisions: Revisions,
}

impl Tables {
    fn put_event(&mut self, e: Event) {
        let (id, day, sport) = (e.id, e.day, e.sport);
        if let Some(old) = self.events.upsert(id, e) {
            self.events_by_day.remove(old.day, id);
            self.events_by_sport.remove(old.sport, id);
        }
        self.events_by_day.insert(day, id);
        self.events_by_sport.insert(sport, id);
    }

    fn put_athlete(&mut self, a: Athlete) {
        let (id, country, sport) = (a.id, a.country, a.sport);
        if let Some(old) = self.athletes.upsert(id, a) {
            self.athletes_by_country.remove(old.country, id);
            self.athletes_by_sport.remove(old.sport, id);
        }
        self.athletes_by_country.insert(country, id);
        self.athletes_by_sport.insert(sport, id);
    }

    /// The caller bumps the event's results revision, once per batch.
    fn put_result(&mut self, r: ResultRow) {
        self.results_by_event.insert(r.event, r.id);
        self.results_by_athlete.insert(r.athlete, r.id);
        self.results.upsert(r.id, r);
    }

    /// Re-publishing an id replaces the story, possibly on another day.
    fn put_news(&mut self, n: NewsArticle) {
        let (id, day) = (n.id, n.day);
        if let Some(old) = self.news.upsert(id, n) {
            self.news_by_day.remove(old.day, id);
            self.revisions.news.bump(old.day);
        }
        self.news_by_day.insert(day, id);
        self.revisions.news.bump(day);
    }

    fn put_photo(&mut self, p: Photo) {
        let (id, about) = (p.id, p.about_event);
        if let Some(old_event) = self.photos.upsert(id, p).and_then(|old| old.about_event) {
            self.photos_by_event.remove(old_event, id);
        }
        if let Some(event) = about {
            self.photos_by_event.insert(event, id);
        }
    }
}

/// The Olympic site database.
#[derive(Debug, Default)]
pub struct OlympicDb {
    tables: RwLock<Tables>,
    log: TxnLog,
}

impl OlympicDb {
    /// New empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transaction log.
    pub fn log(&self) -> &TxnLog {
        &self.log
    }

    /// A read snapshot: every query on it sees the same committed state.
    ///
    /// The view holds the tables' read lock until dropped, and the lock
    /// prefers waiting writers: calling any other method of this database
    /// on the same thread while a view is alive can deadlock behind a
    /// commit (a debug build panics there instead). Query the view instead.
    pub fn view(&self) -> DbView<'_> {
        DbView {
            t: self.tables.read(),
        }
    }

    // ----- unlogged initial loading -------------------------------------

    /// Load a sport (seeding; not logged).
    pub fn load_sport(&self, s: Sport) {
        let mut t = self.tables.write();
        t.revisions.loads += 1;
        t.sports.upsert(s.id, s);
    }

    /// Load an event (seeding; not logged).
    pub fn load_event(&self, e: Event) {
        let mut t = self.tables.write();
        t.revisions.loads += 1;
        t.put_event(e);
    }

    /// Load an athlete (seeding; not logged).
    pub fn load_athlete(&self, a: Athlete) {
        let mut t = self.tables.write();
        t.revisions.loads += 1;
        t.put_athlete(a);
    }

    /// Load a country (seeding; not logged). Starts its medal tally at 0.
    pub fn load_country(&self, c: Country) {
        let mut t = self.tables.write();
        t.revisions.loads += 1;
        t.medals.upsert(c.id, MedalCount::default());
        t.countries.upsert(c.id, c);
    }

    // ----- logged mutations ----------------------------------------------

    /// Record a batch of results for `event`, in placement order (first
    /// element = rank 1). When `is_final`, medals are awarded to the top
    /// three and the event moves to [`EventPhase::Final`].
    ///
    /// This is the hot mutation of the Games: one call corresponds to one
    /// "new results received" moment in Figure 15, and its transaction
    /// names every underlying datum the change touches — a country once
    /// per placed athlete of it (the `dedup_by` below only drops
    /// neighbours, and an athlete's key sits between). A consumer that
    /// weighs changes must count a key once per transaction, as
    /// `TriggerMonitor` does; the list itself stays as it is, because the
    /// benchmark pins every change-set of the schedule by digest.
    pub fn record_results(
        &self,
        event: EventId,
        placements: &[(AthleteId, f64)],
        is_final: bool,
        day: u32,
    ) -> Arc<Transaction> {
        // An athlete and a country per placement; event, sport, medals
        // and day after them.
        let mut changes: Vec<RecordChange> = Vec::with_capacity(2 * placements.len() + 4);
        let label;
        {
            let mut t = self.tables.write();
            let name = match t.events.get(event) {
                Some(e) => e.name.as_str(),
                None => panic!("unknown event {event}"),
            };
            label = format!(
                "{} results for {name}",
                if is_final { "final" } else { "partial" }
            );
            for (rank0, &(athlete, score)) in placements.iter().enumerate() {
                t.next_result += 1;
                let id = ResultId(t.next_result);
                t.put_result(ResultRow {
                    id,
                    event,
                    athlete,
                    rank: rank0 as u32 + 1,
                    score,
                    is_final,
                });
                changes.push(RecordChange::update(Datum::Athlete(athlete)));
                if let Some(a) = t.athletes.get(athlete) {
                    changes.push(RecordChange::update(Datum::Country(a.country)));
                }
            }
            changes.push(RecordChange::update(Datum::Event(event)));
            if let Some(e) = t.events.get(event) {
                changes.push(RecordChange::update(Datum::Sport(e.sport)));
            }
            let mut phase_moved = false;
            if is_final {
                if let Some(e) = t.events.get_mut(event) {
                    phase_moved = e.phase != EventPhase::Final;
                    e.phase = EventPhase::Final;
                }
                let medal_countries: Vec<CountryId> = placements
                    .iter()
                    .take(3)
                    .filter_map(|&(a, _)| t.athletes.get(a).map(|x| x.country))
                    .collect();
                for (i, &c) in medal_countries.iter().enumerate() {
                    // A podium athlete's country may never have been
                    // loaded: its tally starts here, like a loaded one's.
                    let tally = t.medals.get_or_insert_default(c);
                    match i {
                        0 => tally.gold += 1,
                        1 => tally.silver += 1,
                        _ => tally.bronze += 1,
                    }
                    t.revisions.medal_rows.bump(c);
                }
                t.revisions.medals += 1;
                changes.push(RecordChange::update(Datum::Medals));
            } else if let Some(e) = t.events.get_mut(event) {
                if e.phase == EventPhase::Scheduled {
                    phase_moved = true;
                    e.phase = EventPhase::InProgress;
                }
            }
            // Rows or no rows, a phase that moved changes what the home
            // page prints for the event.
            if phase_moved || !placements.is_empty() {
                t.revisions.results.bump(event);
            }
            changes.push(RecordChange::update(Datum::Today(day)));
        }
        changes.dedup_by(|a, b| a.data_key == b.data_key);
        self.log.append(changes, label, day)
    }

    /// Publish a news story.
    pub fn publish_news(&self, article: NewsArticle) -> Arc<Transaction> {
        let day = article.day;
        let mut changes = vec![
            RecordChange::insert(Datum::News(article.id)),
            RecordChange::update(Datum::Today(day)),
        ];
        if let Some(ev) = article.about_event {
            changes.push(RecordChange::update(Datum::Event(ev)));
        }
        let label = format!("news: {}", article.title);
        self.tables.write().put_news(article);
        self.log.append(changes, label, day)
    }

    /// File a classified photo.
    pub fn add_photo(&self, photo: Photo) -> Arc<Transaction> {
        let day = photo.day;
        let mut changes = vec![RecordChange::insert(Datum::Photo(photo.id))];
        if let Some(ev) = photo.about_event {
            changes.push(RecordChange::update(Datum::Event(ev)));
        }
        let label = format!("photo {}", photo.id);
        self.tables.write().put_photo(photo);
        self.log.append(changes, label, day)
    }

    // ----- owned one-query reads --------------------------------------------

    /// Fetch a sport.
    pub fn sport(&self, id: SportId) -> Option<Sport> {
        self.view().sport(id).cloned()
    }

    /// Fetch an event.
    pub fn event(&self, id: EventId) -> Option<Event> {
        self.view().event(id).cloned()
    }

    /// Fetch an athlete.
    pub fn athlete(&self, id: AthleteId) -> Option<Athlete> {
        self.view().athlete(id).cloned()
    }

    /// Fetch a country.
    pub fn country(&self, id: CountryId) -> Option<Country> {
        self.view().country(id).cloned()
    }

    /// Fetch a news article.
    pub fn news(&self, id: NewsId) -> Option<NewsArticle> {
        self.view().news(id).cloned()
    }

    /// All sports (id order).
    pub fn sports(&self) -> Vec<Sport> {
        let t = self.tables.read();
        t.sports.iter().map(|(_, s)| s.clone()).collect()
    }

    /// All events (id order).
    pub fn events(&self) -> Vec<Event> {
        let t = self.tables.read();
        t.events.iter().map(|(_, e)| e.clone()).collect()
    }

    /// All countries (id order).
    pub fn countries(&self) -> Vec<Country> {
        let t = self.tables.read();
        t.countries.iter().map(|(_, c)| c.clone()).collect()
    }

    /// All athletes (id order).
    pub fn athletes(&self) -> Vec<Athlete> {
        let t = self.tables.read();
        t.athletes.iter().map(|(_, a)| a.clone()).collect()
    }

    /// Events concluding on `day`, id order.
    pub fn events_on_day(&self, day: u32) -> Vec<Event> {
        self.view().events_on_day(day).cloned().collect()
    }

    /// Events of a sport, id order.
    pub fn events_of_sport(&self, sport: SportId) -> Vec<Event> {
        self.view().events_of_sport(sport).cloned().collect()
    }

    /// Athletes of a country, id order.
    pub fn athletes_of_country(&self, country: CountryId) -> Vec<Athlete> {
        self.view().athletes_of_country(country).cloned().collect()
    }

    /// Athletes competing in a sport, id order.
    pub fn athletes_of_sport(&self, sport: SportId) -> Vec<Athlete> {
        self.view().athletes_of_sport(sport).cloned().collect()
    }

    /// Results recorded for an event, in insertion order.
    pub fn results_for_event(&self, event: EventId) -> Vec<ResultRow> {
        self.view().results_for_event(event).cloned().collect()
    }

    /// Results involving an athlete, id order.
    pub fn results_for_athlete(&self, athlete: AthleteId) -> Vec<ResultRow> {
        self.view().results_for_athlete(athlete).cloned().collect()
    }

    /// Medal standings sorted by gold, then total, then id.
    pub fn medal_standings(&self) -> Vec<(CountryId, MedalCount)> {
        self.view().medal_standings()
    }

    /// News published on `day`, id order.
    pub fn news_on_day(&self, day: u32) -> Vec<NewsArticle> {
        self.view().news_on_day(day).cloned().collect()
    }

    /// Photos about an event, id order.
    pub fn photos_for_event(&self, event: EventId) -> Vec<Photo> {
        self.view().photos_for_event(event).cloned().collect()
    }

    /// Row counts: (sports, events, athletes, countries, results, news,
    /// photos).
    pub fn counts(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        let t = self.tables.read();
        (
            t.sports.len(),
            t.events.len(),
            t.athletes.len(),
            t.countries.len(),
            t.results.len(),
            t.news.len(),
            t.photos.len(),
        )
    }
}

/// The rows of `table` an index lists, in index (= key) order.
fn rows<'a, K: Slot, R>(table: &'a Table<K, R>, keys: &'a [K]) -> impl Iterator<Item = &'a R> {
    keys.iter().filter_map(move |&k| table.get(k))
}

/// One consistent read snapshot of the database (see [`OlympicDb::view`]):
/// borrowed rows, indexed by-column queries, and the revision stamps of
/// the fragment sources, all under a single read lock.
pub struct DbView<'a> {
    t: RwLockReadGuard<'a, Tables>,
}

impl DbView<'_> {
    /// Fetch a sport.
    pub fn sport(&self, id: SportId) -> Option<&Sport> {
        self.t.sports.get(id)
    }

    /// Fetch an event.
    pub fn event(&self, id: EventId) -> Option<&Event> {
        self.t.events.get(id)
    }

    /// Fetch an athlete.
    pub fn athlete(&self, id: AthleteId) -> Option<&Athlete> {
        self.t.athletes.get(id)
    }

    /// Fetch a country.
    pub fn country(&self, id: CountryId) -> Option<&Country> {
        self.t.countries.get(id)
    }

    /// Fetch a news article.
    pub fn news(&self, id: NewsId) -> Option<&NewsArticle> {
        self.t.news.get(id)
    }

    /// Events concluding on `day`, id order.
    pub fn events_on_day(&self, day: u32) -> impl Iterator<Item = &Event> {
        rows(&self.t.events, self.t.events_by_day.get(day))
    }

    /// Events of a sport, id order.
    pub fn events_of_sport(&self, sport: SportId) -> impl Iterator<Item = &Event> {
        rows(&self.t.events, self.t.events_by_sport.get(sport))
    }

    /// Athletes of a country, id order.
    pub fn athletes_of_country(&self, country: CountryId) -> impl Iterator<Item = &Athlete> {
        rows(&self.t.athletes, self.t.athletes_by_country.get(country))
    }

    /// Athletes competing in a sport, id order.
    pub fn athletes_of_sport(&self, sport: SportId) -> impl Iterator<Item = &Athlete> {
        rows(&self.t.athletes, self.athlete_ids_of_sport(sport))
    }

    /// The ids of the athletes competing in a sport, in order, straight
    /// off the index: for a caller that draws from the entry list and
    /// never looks at a row.
    pub fn athlete_ids_of_sport(&self, sport: SportId) -> &[AthleteId] {
        self.t.athletes_by_sport.get(sport)
    }

    /// Results recorded for an event, in insertion order.
    pub fn results_for_event(&self, event: EventId) -> impl Iterator<Item = &ResultRow> {
        rows(&self.t.results, self.t.results_by_event.get(event))
    }

    /// Results involving an athlete, id order.
    pub fn results_for_athlete(&self, athlete: AthleteId) -> impl Iterator<Item = &ResultRow> {
        rows(&self.t.results, self.t.results_by_athlete.get(athlete))
    }

    /// Medal standings sorted by gold, then total, then id.
    pub fn medal_standings(&self) -> Vec<(CountryId, MedalCount)> {
        let mut rows: Vec<(CountryId, MedalCount)> =
            self.t.medals.iter().map(|(id, m)| (id, *m)).collect();
        rows.sort_by(|a, b| {
            b.1.gold
                .cmp(&a.1.gold)
                .then(b.1.total().cmp(&a.1.total()))
                .then(a.0.cmp(&b.0))
        });
        rows
    }

    /// One country's medal tally.
    pub fn medals_of(&self, country: CountryId) -> Option<MedalCount> {
        self.t.medals.get(country).copied()
    }

    /// News published on `day`, id order.
    pub fn news_on_day(&self, day: u32) -> impl Iterator<Item = &NewsArticle> {
        rows(&self.t.news, self.t.news_by_day.get(day))
    }

    /// Photos about an event, id order.
    pub fn photos_for_event(&self, event: EventId) -> impl Iterator<Item = &Photo> {
        rows(&self.t.photos, self.t.photos_by_event.get(event))
    }

    /// Stamp of the rows no logged mutation writes — sports, countries,
    /// athletes, and everything of an event but its phase: moves on any
    /// load.
    pub fn loads_revision(&self) -> u64 {
        self.t.revisions.loads
    }

    /// Stamp of everything `event`'s result table and its line on the home
    /// page are rendered from: moves when results are recorded for it or
    /// its phase moves, and on any load.
    pub fn results_revision(&self, event: EventId) -> u64 {
        let r = &self.t.revisions;
        r.loads + r.results.get(event)
    }

    /// Stamp of the medal standings: moves when a final awards medals,
    /// and on any load.
    pub fn medals_revision(&self) -> u64 {
        self.t.revisions.loads + self.t.revisions.medals
    }

    /// Stamp of `country`'s own medal tally: moves when a final puts one
    /// of its athletes on the podium (once per medal), and on any load.
    pub fn medal_row_revision(&self, country: CountryId) -> u64 {
        let r = &self.t.revisions;
        r.loads + r.medal_rows.get(country)
    }

    /// Stamp of the news of `day`: moves when a story is published on (or
    /// moved off) that day, and on any load.
    pub fn news_revision(&self, day: u32) -> u64 {
        let r = &self.t.revisions;
        r.loads + r.news.get(day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> OlympicDb {
        let db = OlympicDb::new();
        db.load_country(Country {
            id: CountryId(1),
            code: "NOR".into(),
            name: "Norway".into(),
        });
        db.load_country(Country {
            id: CountryId(2),
            code: "JPN".into(),
            name: "Japan".into(),
        });
        db.load_sport(Sport {
            id: SportId(1),
            name: "Cross Country Skiing".into(),
            venue: "Snow Harp".into(),
        });
        db.load_event(Event {
            id: EventId(1),
            sport: SportId(1),
            name: "Men's 10km Classical".into(),
            day: 3,
            hour: 10,
            popularity: 1.0,
            phase: EventPhase::Scheduled,
        });
        for (i, c) in [(1, 1), (2, 1), (3, 2), (4, 2)] {
            db.load_athlete(Athlete {
                id: AthleteId(i),
                name: format!("Athlete {i}"),
                country: CountryId(c),
                sport: SportId(1),
            });
        }
        db
    }

    #[test]
    fn loading_is_not_logged() {
        let db = tiny_db();
        assert!(db.log().is_empty());
        assert_eq!(db.counts(), (1, 1, 4, 2, 0, 0, 0));
    }

    #[test]
    fn final_results_award_medals_and_log_everything() {
        let db = tiny_db();
        let txn = db.record_results(
            EventId(1),
            &[
                (AthleteId(3), 100.0),
                (AthleteId(1), 95.0),
                (AthleteId(2), 90.0),
            ],
            true,
            3,
        );
        // Standings: JPN gold (athlete 3), NOR silver+bronze.
        let standings = db.medal_standings();
        assert_eq!(standings[0].0, CountryId(2));
        assert_eq!(standings[0].1.gold, 1);
        assert_eq!(standings[1].0, CountryId(1));
        assert_eq!(standings[1].1.silver, 1);
        assert_eq!(standings[1].1.bronze, 1);
        // Event phase flips to Final.
        assert_eq!(db.event(EventId(1)).unwrap().phase, EventPhase::Final);
        // Transaction names athletes, countries, event, sport, medals, today.
        let keys: Vec<&str> = txn.changes.iter().map(|c| c.data_key.as_str()).collect();
        assert!(keys.contains(&"data:athlete:3"));
        assert!(keys.contains(&"data:country:2"));
        assert!(keys.contains(&"data:event:1"));
        assert!(keys.contains(&"data:sport:1"));
        assert!(keys.contains(&"data:medals:standings"));
        assert!(keys.contains(&"data:today:3"));
        assert!(txn.label.contains("final"));
    }

    #[test]
    fn partial_results_do_not_award_medals() {
        let db = tiny_db();
        let txn = db.record_results(EventId(1), &[(AthleteId(1), 50.0)], false, 3);
        assert_eq!(db.medal_standings()[0].1.total(), 0);
        assert_eq!(db.event(EventId(1)).unwrap().phase, EventPhase::InProgress);
        let mut data = txn.changes.iter().map(|c| c.data_key.datum());
        assert!(!data.any(|d| d == Datum::Medals));
    }

    #[test]
    fn results_queries() {
        let db = tiny_db();
        db.record_results(
            EventId(1),
            &[(AthleteId(1), 1.0), (AthleteId(2), 2.0)],
            false,
            3,
        );
        db.record_results(EventId(1), &[(AthleteId(1), 3.0)], false, 3);
        let by_event = db.results_for_event(EventId(1));
        assert_eq!(by_event.len(), 3);
        assert_eq!(by_event[0].rank, 1);
        let by_athlete = db.results_for_athlete(AthleteId(1));
        assert_eq!(by_athlete.len(), 2);
        assert!(db.results_for_event(EventId(9)).is_empty());
    }

    #[test]
    fn news_and_photos_log_related_event() {
        let db = tiny_db();
        let t1 = db.publish_news(NewsArticle {
            id: NewsId(1),
            day: 3,
            title: "Upset in the classical".into(),
            body: "…".into(),
            about_event: Some(EventId(1)),
        });
        assert!(t1.changes.iter().any(|c| c.data_key == "data:news:1"));
        assert!(t1.changes.iter().any(|c| c.data_key == "data:event:1"));
        let t2 = db.add_photo(Photo {
            id: PhotoId(1),
            day: 3,
            about_event: Some(EventId(1)),
            bytes: 40_000,
        });
        assert!(t2.changes.iter().any(|c| c.data_key == "data:photo:1"));
        assert_eq!(db.news_on_day(3).len(), 1);
        assert_eq!(db.photos_for_event(EventId(1)).len(), 1);
    }

    #[test]
    fn the_log_records_mutations() {
        let db = tiny_db();
        db.record_results(EventId(1), &[(AthleteId(1), 1.0)], false, 3);
        let txn = db.log().get(crate::TxnId(1)).unwrap();
        assert_eq!(txn.id.0, 1);
        assert_eq!(txn.day, 3);
    }

    #[test]
    fn selector_queries() {
        let db = tiny_db();
        assert_eq!(db.events_on_day(3).len(), 1);
        assert!(db.events_on_day(9).is_empty());
        assert_eq!(db.events_of_sport(SportId(1)).len(), 1);
        assert_eq!(db.athletes_of_country(CountryId(1)).len(), 2);
        assert_eq!(db.athletes_of_sport(SportId(1)).len(), 4);
    }

    #[test]
    fn a_podium_country_never_loaded_gets_its_tally_row() {
        let db = tiny_db();
        db.load_athlete(Athlete {
            id: AthleteId(5),
            name: "Athlete 5".into(),
            country: CountryId(9),
            sport: SportId(1),
        });
        let placements = [(AthleteId(5), 3.0), (AthleteId(1), 2.0)];
        let txn = db.record_results(EventId(1), &placements, true, 3);
        assert_eq!(db.log().len(), 1, "the final is logged, once");
        assert_eq!(db.log().get(txn.id).map(|t| t.id), Some(txn.id));
        assert!(txn.changes.iter().any(|c| c.data_key == "data:country:9"));
        let gold = MedalCount {
            gold: 1,
            ..MedalCount::default()
        };
        assert_eq!(db.medal_standings()[0], (CountryId(9), gold));
        assert_eq!(db.view().medals_of(CountryId(9)), Some(gold));
        assert!(db.country(CountryId(9)).is_none());
        assert_eq!(db.event(EventId(1)).unwrap().phase, EventPhase::Final);
    }

    #[test]
    #[should_panic(expected = "unknown event")]
    fn results_for_unknown_event_panic() {
        let db = tiny_db();
        db.record_results(EventId(42), &[(AthleteId(1), 1.0)], false, 1);
    }

    // ----- revision stamps -------------------------------------------------

    /// `tiny_db` plus a second event, so a stamp that must not move has
    /// somewhere to stand.
    fn two_event_db() -> OlympicDb {
        let db = tiny_db();
        db.load_event(Event {
            id: EventId(2),
            sport: SportId(1),
            name: "Women's 5km Classical".into(),
            day: 4,
            hour: 9,
            popularity: 1.0,
            phase: EventPhase::Scheduled,
        });
        db
    }

    /// Every stamp a memoised section or a page can be validated against:
    /// [results(1), results(2), medals, news(3), news(4), loads,
    /// medal_row(1), medal_row(2)] — result table and home-page block of
    /// an event, medal table, headlines of a day, country rosters, the
    /// medal box of a country page.
    fn stamps(db: &OlympicDb) -> [u64; 8] {
        let v = db.view();
        [
            v.results_revision(EventId(1)),
            v.results_revision(EventId(2)),
            v.medals_revision(),
            v.news_revision(3),
            v.news_revision(4),
            v.loads_revision(),
            v.medal_row_revision(CountryId(1)),
            v.medal_row_revision(CountryId(2)),
        ]
    }

    /// Which stamps `mutate` moved.
    fn moved(db: &OlympicDb, mutate: impl FnOnce(&OlympicDb)) -> [bool; 8] {
        let before = stamps(db);
        mutate(db);
        let after = stamps(db);
        std::array::from_fn(|i| {
            assert!(after[i] >= before[i], "stamp {i} went backwards");
            after[i] != before[i]
        })
    }

    fn story(id: u32, day: u32) -> NewsArticle {
        NewsArticle {
            id: NewsId(id),
            day,
            title: format!("story {id}"),
            body: "…".into(),
            about_event: Some(EventId(1)),
        }
    }

    #[test]
    fn partial_results_bump_only_their_event() {
        let db = two_event_db();
        let m = moved(&db, |db| {
            db.record_results(EventId(1), &[(AthleteId(1), 50.0)], false, 3);
        });
        assert_eq!(m, [true, false, false, false, false, false, false, false]);
    }

    #[test]
    fn a_phase_that_moves_without_rows_bumps_its_event() {
        let db = two_event_db();
        let rowless = |is_final| {
            moved(&db, |db| {
                db.record_results(EventId(1), &[], is_final, 3);
            })
        };
        // Scheduled → in progress: the home page's phase label changes.
        assert_eq!(
            rowless(false),
            [true, false, false, false, false, false, false, false]
        );
        // Already in progress, nothing recorded: nothing to show.
        assert_eq!(rowless(false), [false; 8]);
        // In progress → final; every final counts as a medal award, but
        // one without a podium moves no country's tally.
        assert_eq!(
            rowless(true),
            [true, false, true, false, false, false, false, false]
        );
        assert_eq!(
            rowless(true),
            [false, false, true, false, false, false, false, false]
        );
    }

    #[test]
    fn final_results_bump_their_event_and_the_medals() {
        let db = two_event_db();
        let m = moved(&db, |db| {
            db.record_results(EventId(2), &[(AthleteId(3), 9.0)], true, 4);
        });
        // Athlete 3 competes for country 2.
        assert_eq!(m, [false, true, true, false, false, false, false, true]);
    }

    #[test]
    fn a_final_bumps_its_podium_countries_rows_once_per_medal() {
        let db = two_event_db();
        db.load_country(Country {
            id: CountryId(3),
            code: "FIN".into(),
            name: "Finland".into(),
        });
        db.load_athlete(Athlete {
            id: AthleteId(5),
            name: "Athlete 5".into(),
            country: CountryId(3),
            sport: SportId(1),
        });
        let rows = |db: &OlympicDb| {
            let v = db.view();
            [1, 2, 3].map(|c| v.medal_row_revision(CountryId(c)))
        };
        let before = rows(&db);
        // Gold to country 2, silver and bronze to country 1; country 3 is
        // placed fourth and named by the transaction, but wins nothing.
        let placements = [3, 1, 2, 5].map(|a| (AthleteId(a), 10.0 - a as f64));
        let txn = db.record_results(EventId(1), &placements, true, 3);
        assert!(txn.changes.iter().any(|c| c.data_key == "data:country:3"));
        let after = rows(&db);
        assert_eq!(
            [0, 1, 2].map(|i| after[i] - before[i]),
            [2, 1, 0],
            "one bump per medal, none without"
        );
    }

    #[test]
    fn news_bumps_its_day_and_a_republished_id_both_days() {
        let db = two_event_db();
        let m = moved(&db, |db| {
            db.publish_news(story(1, 3));
        });
        assert_eq!(m, [false, false, false, true, false, false, false, false]);
        // Same id, same day: the headline text can change.
        let m = moved(&db, |db| {
            db.publish_news(story(1, 3));
        });
        assert_eq!(m, [false, false, false, true, false, false, false, false]);
        // Same id, other day: it leaves day 3's strip and joins day 4's.
        let m = moved(&db, |db| {
            db.publish_news(story(1, 4));
        });
        assert_eq!(m, [false, false, false, true, true, false, false, false]);
        assert!(db.news_on_day(3).is_empty());
        assert_eq!(db.news_on_day(4).len(), 1);
    }

    #[test]
    fn photos_bump_nothing() {
        let db = two_event_db();
        let m = moved(&db, |db| {
            db.add_photo(Photo {
                id: PhotoId(1),
                day: 3,
                about_event: Some(EventId(1)),
                bytes: 40_000,
            });
        });
        assert_eq!(m, [false; 8]);
    }

    #[test]
    fn every_load_bumps_every_stamp() {
        let db = two_event_db();
        let m = moved(&db, |db| {
            db.load_sport(Sport {
                id: SportId(2),
                name: "Biathlon".into(),
                venue: "Nozawa Onsen".into(),
            })
        });
        assert_eq!(m, [true; 8], "load_sport");
        let m = moved(&db, |db| {
            db.load_event(Event {
                id: EventId(3),
                sport: SportId(1),
                name: "Relay".into(),
                day: 5,
                hour: 11,
                popularity: 1.0,
                phase: EventPhase::Scheduled,
            })
        });
        assert_eq!(m, [true; 8], "load_event");
        let m = moved(&db, |db| {
            db.load_athlete(Athlete {
                id: AthleteId(1),
                name: "Renamed".into(),
                country: CountryId(2),
                sport: SportId(1),
            })
        });
        assert_eq!(m, [true; 8], "load_athlete");
        let m = moved(&db, |db| {
            db.load_country(Country {
                id: CountryId(1),
                code: "NOR".into(),
                name: "Norge".into(),
            })
        });
        assert_eq!(m, [true; 8], "load_country");
    }

    // ----- index ≡ scan ------------------------------------------------------

    use proptest::prelude::*;

    /// A mutation over small id spaces, so re-loads and re-publications
    /// move rows between index buckets.
    #[derive(Debug, Clone)]
    enum Op {
        Event {
            id: u32,
            day: u32,
            sport: u32,
        },
        Athlete {
            id: u32,
            country: u32,
            sport: u32,
        },
        Results {
            event: u32,
            first: u32,
            n: u32,
            is_final: bool,
        },
        News {
            id: u32,
            day: u32,
        },
        Photo {
            id: u32,
            event: Option<u32>,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1..6u32, 1..4u32, 1..3u32).prop_map(|(id, day, sport)| Op::Event { id, day, sport }),
            (1..9u32, 1..3u32, 1..3u32).prop_map(|(id, country, sport)| Op::Athlete {
                id,
                country,
                sport
            }),
            (1..6u32, 1..9u32, 1..4u32, any::<bool>()).prop_map(|(event, first, n, is_final)| {
                Op::Results {
                    event,
                    first,
                    n,
                    is_final,
                }
            }),
            (1..6u32, 1..4u32).prop_map(|(id, day)| Op::News { id, day }),
            (1..6u32, proptest::option::of(1..6u32))
                .prop_map(|(id, event)| Op::Photo { id, event }),
        ]
    }

    fn apply(db: &OlympicDb, op: &Op) {
        match *op {
            Op::Event { id, day, sport } => db.load_event(Event {
                id: EventId(id),
                sport: SportId(sport),
                name: format!("event {id}"),
                day,
                hour: 10,
                popularity: 1.0,
                phase: EventPhase::Scheduled,
            }),
            Op::Athlete { id, country, sport } => db.load_athlete(Athlete {
                id: AthleteId(id),
                name: format!("athlete {id}"),
                country: CountryId(country),
                sport: SportId(sport),
            }),
            Op::Results {
                event,
                first,
                n,
                is_final,
            } => {
                if db.event(EventId(event)).is_some() {
                    let placements: Vec<(AthleteId, f64)> = (first..first + n)
                        .map(|a| (AthleteId(a), a as f64))
                        .collect();
                    db.record_results(EventId(event), &placements, is_final, 1);
                }
            }
            Op::News { id, day } => {
                db.publish_news(story(id, day));
            }
            Op::Photo { id, event } => {
                db.add_photo(Photo {
                    id: PhotoId(id),
                    day: 1,
                    about_event: event.map(EventId),
                    bytes: 1,
                });
            }
        }
    }

    /// The oracle: filter one whole table, in key order.
    fn scan<K: Slot, R: Clone>(
        db: &OlympicDb,
        table: impl Fn(&Tables) -> &Table<K, R>,
        keep: impl Fn(&R) -> bool,
    ) -> Vec<R> {
        let t = db.tables.read();
        let rows = table(&t).iter().filter(|(_, r)| keep(r));
        rows.map(|(_, r)| r.clone()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any mutation sequence every indexed query returns exactly
        /// what a filter over the whole table returns, in the same order.
        #[test]
        fn indexed_queries_equal_full_scans(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let db = OlympicDb::new();
            for c in 1..3 {
                db.load_country(Country {
                    id: CountryId(c),
                    code: format!("C{c}"),
                    name: format!("Country {c}"),
                });
            }
            for op in &ops {
                apply(&db, op);
            }
            for day in 0..5 {
                prop_assert_eq!(db.events_on_day(day), scan(&db, |t| &t.events, |e| e.day == day));
                prop_assert_eq!(db.news_on_day(day), scan(&db, |t| &t.news, |n| n.day == day));
            }
            for sport in (0..4).map(SportId) {
                prop_assert_eq!(
                    db.events_of_sport(sport),
                    scan(&db, |t| &t.events, |e| e.sport == sport)
                );
                prop_assert_eq!(
                    db.athletes_of_sport(sport),
                    scan(&db, |t| &t.athletes, |a| a.sport == sport)
                );
                let ids = db.view().athlete_ids_of_sport(sport).to_vec();
                let rows = db.athletes_of_sport(sport);
                prop_assert_eq!(ids, rows.iter().map(|a| a.id).collect::<Vec<_>>());
            }
            for country in (0..4).map(CountryId) {
                prop_assert_eq!(
                    db.athletes_of_country(country),
                    scan(&db, |t| &t.athletes, |a| a.country == country)
                );
            }
            for event in (0..7).map(EventId) {
                prop_assert_eq!(
                    db.results_for_event(event),
                    scan(&db, |t| &t.results, |r| r.event == event)
                );
                prop_assert_eq!(
                    db.photos_for_event(event),
                    scan(&db, |t| &t.photos, |p| p.about_event == Some(event))
                );
            }
            for athlete in (0..13).map(AthleteId) {
                prop_assert_eq!(
                    db.results_for_athlete(athlete),
                    scan(&db, |t| &t.results, |r| r.athlete == athlete)
                );
            }
        }
    }
}
