//! The renderer's one way to the database: reading is registering.
//!
//! The paper makes the application "responsible for communicating data
//! dependencies between underlying data and objects to the cache". Here
//! that is not a second list kept in step with the reads: [`Reads`] holds
//! the render's one read snapshot behind a private field, its query
//! methods are the only way [`crate::render`] can reach a row, and each
//! pushes the ODG edge for the data key its answer changes with as it is
//! made. A read without an edge, or an edge without a read, does not
//! compile.
//!
//! **What registers nothing.** A logged mutation — a result batch, a
//! story, a photo — is what DUP propagates; a row only the unlogged
//! seeding loads write names no data key any transaction will ever carry.
//! Those lookups are the methods below that take `&self`: the names of
//! athletes, countries and sports, a country's roster, and of an event
//! everything but its phase ([`EventInfo`]). A page printing an athlete's
//! name beside a result is refreshed by the edge of the read that found
//! the result, not by one for the name.
//!
//! **Weights** are the caller's where today's pages differ in how much a
//! datum matters to them, and fixed here where they do not.

use nagano_db::schema::{medals_data_key, today_data_key};
use nagano_db::{
    Athlete, AthleteId, Country, CountryId, DbView, Event, EventId, EventPhase, MedalCount,
    NewsArticle, NewsId, OlympicDb, Photo, ResultRow, Sport, SportId,
};

use crate::key::{FragmentKey, PageKey};
use crate::render::Dependency;

/// Of an event, what no logged mutation writes. Its phase is read — and
/// registered — through [`Reads::phase`].
#[derive(Clone, Copy)]
pub(crate) struct EventInfo<'v> {
    pub id: EventId,
    pub name: &'v str,
    pub day: u32,
    pub sport: SportId,
    phase: EventPhase,
}

impl<'v> EventInfo<'v> {
    fn of(row: &'v Event) -> Self {
        EventInfo {
            id: row.id,
            name: &row.name,
            day: row.day,
            sport: row.sport,
            phase: row.phase,
        }
    }
}

/// One read snapshot of the database and the dependency list the reads
/// made through this handle are registered in.
pub(crate) struct Reads<'v> {
    view: &'v DbView<'v>,
    /// `None` while a fragment is spliced into a page: the page owes an
    /// edge to the fragment object ([`Reads::inline_fragment`] pushed it),
    /// not to the data the fragment reads.
    deps: Option<&'v mut Vec<Dependency>>,
}

impl<'v> Reads<'v> {
    /// Run `render` over one read snapshot of `db`, registering in `deps`.
    ///
    /// The snapshot holds the tables' read lock, which prefers waiting
    /// writers: `render` must not reach for `db` itself, or it deadlocks
    /// behind a waiting commit.
    pub(crate) fn over<T>(
        db: &OlympicDb,
        deps: &mut Vec<Dependency>,
        render: impl FnOnce(&mut Reads<'_>) -> T,
    ) -> T {
        let view = db.view();
        render(&mut Reads {
            view: &view,
            deps: Some(deps),
        })
    }

    /// A handle over the same snapshot registering in `deps` instead: what
    /// a memoised section is rendered through, so that its edges can be
    /// kept with its HTML.
    pub(crate) fn section<'s>(&'s self, deps: &'s mut Vec<Dependency>) -> Reads<'s> {
        Reads {
            view: self.view,
            deps: Some(deps),
        }
    }

    /// Register the hybrid edge `page:/fragments/… → this page` of
    /// Figure 15 and return the handle `f` is to be spliced through — the
    /// only one that registers nothing, so a fragment cannot be spliced
    /// without its edge.
    pub(crate) fn inline_fragment(&mut self, f: FragmentKey, weight: f64) -> Reads<'_> {
        self.push(PageKey::Fragment(f).object_key(), weight);
        Reads {
            view: self.view,
            deps: None,
        }
    }

    /// Register edges a section was memoised with.
    pub(crate) fn register(&mut self, deps: &[Dependency]) {
        for d in deps {
            self.push(&d.data_key, d.weight);
        }
    }

    /// A list names a key once, at the weight it was first read at.
    fn push(&mut self, data_key: impl AsRef<str> + Into<String>, weight: f64) {
        let Some(deps) = self.deps.as_deref_mut() else {
            return;
        };
        if deps.iter().all(|d| d.data_key != data_key.as_ref()) {
            deps.push(Dependency {
                data_key: data_key.into(),
                weight,
            });
        }
    }

    // ----- reads of what transactions change ------------------------------

    /// Events concluding on `day`, id order: `data:today:day`.
    pub(crate) fn events_on_day(
        &mut self,
        day: u32,
        weight: f64,
    ) -> impl Iterator<Item = EventInfo<'v>> + 'v {
        self.push(today_data_key(day), weight);
        self.view.events_on_day(day).map(EventInfo::of)
    }

    /// Events of a sport, id order: `data:sport:sport`.
    pub(crate) fn events_of_sport(
        &mut self,
        sport: SportId,
    ) -> impl Iterator<Item = EventInfo<'v>> + 'v {
        self.push(sport.data_key(), 1.0);
        self.view.events_of_sport(sport).map(EventInfo::of)
    }

    /// The phase `event` is in: `data:event:id`.
    pub(crate) fn phase(&mut self, event: &EventInfo<'_>) -> EventPhase {
        self.push(event.id.data_key(), 1.0);
        event.phase
    }

    /// Results recorded for an event, insertion order: `data:event:event`.
    pub(crate) fn results_for_event(
        &mut self,
        event: EventId,
    ) -> impl Iterator<Item = &'v ResultRow> + 'v {
        self.push(event.data_key(), 1.0);
        self.view.results_for_event(event)
    }

    /// Results involving an athlete, id order: `data:athlete:athlete`.
    pub(crate) fn results_for_athlete(
        &mut self,
        athlete: AthleteId,
    ) -> impl Iterator<Item = &'v ResultRow> + 'v {
        self.push(athlete.data_key(), 1.0);
        self.view.results_for_athlete(athlete)
    }

    /// Medal standings, best first: `data:medals:standings`.
    pub(crate) fn medal_standings(&mut self) -> Vec<(CountryId, MedalCount)> {
        self.push(medals_data_key(), 1.0);
        self.view.medal_standings()
    }

    /// One country's tally: `data:country:country`, and the standings at a
    /// quarter — a change to them slightly affects every country page, and
    /// a weight below 1 lets the threshold policy tolerate it.
    pub(crate) fn medals_of(&mut self, country: CountryId) -> Option<MedalCount> {
        self.push(country.data_key(), 1.0);
        self.push(medals_data_key(), 0.25);
        self.view.medals_of(country)
    }

    /// A story: `data:news:id`.
    pub(crate) fn news(&mut self, id: NewsId) -> Option<&'v NewsArticle> {
        self.push(id.data_key(), 1.0);
        self.view.news(id)
    }

    /// Stories published on `day`, id order: `data:today:day` at
    /// `day_weight` for the list, and `data:news:id` at `story_weight` for
    /// each story as it is yielded — a caller that takes eight registers
    /// eight.
    pub(crate) fn news_on_day(
        &mut self,
        day: u32,
        day_weight: f64,
        story_weight: f64,
    ) -> impl Iterator<Item = &'v NewsArticle> + '_ {
        self.push(today_data_key(day), day_weight);
        self.view
            .news_on_day(day)
            .inspect(move |story| self.push(story.id.data_key(), story_weight))
    }

    /// Photos about an event, id order: `data:photo:id` for each as it is
    /// yielded. (That there is one more reaches the page through the
    /// event's result-table fragment: `add_photo` names `data:event:…`.)
    pub(crate) fn photos_for_event(
        &mut self,
        event: EventId,
        weight: f64,
    ) -> impl Iterator<Item = &'v Photo> + '_ {
        self.view
            .photos_for_event(event)
            .inspect(move |photo| self.push(photo.id.data_key(), weight))
    }

    // ----- lookups of what only seeding writes: no edge -------------------

    /// A sport's name and venue.
    pub(crate) fn sport(&self, id: SportId) -> Option<&'v Sport> {
        self.view.sport(id)
    }

    /// A country's name and code.
    pub(crate) fn country(&self, id: CountryId) -> Option<&'v Country> {
        self.view.country(id)
    }

    /// An athlete's name, country and sport.
    pub(crate) fn athlete(&self, id: AthleteId) -> Option<&'v Athlete> {
        self.view.athlete(id)
    }

    /// Athletes of a country, id order.
    pub(crate) fn athletes_of_country(
        &self,
        country: CountryId,
    ) -> impl Iterator<Item = &'v Athlete> + 'v {
        self.view.athletes_of_country(country)
    }

    /// An event's name, day and sport.
    pub(crate) fn event(&self, id: EventId) -> Option<EventInfo<'v>> {
        self.view.event(id).map(EventInfo::of)
    }

    // ----- revision stamps of the memoised sections' sources --------------

    /// See [`DbView::loads_revision`].
    pub(crate) fn loads_revision(&self) -> u64 {
        self.view.loads_revision()
    }

    /// See [`DbView::results_revision`].
    pub(crate) fn results_revision(&self, event: EventId) -> u64 {
        self.view.results_revision(event)
    }

    /// See [`DbView::medals_revision`].
    pub(crate) fn medals_revision(&self) -> u64 {
        self.view.medals_revision()
    }

    /// See [`DbView::news_revision`].
    pub(crate) fn news_revision(&self, day: u32) -> u64 {
        self.view.news_revision(day)
    }
}
