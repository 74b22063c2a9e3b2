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
//! Those lookups are the last five methods below: the names of athletes,
//! countries and sports, a country's roster, and of an event everything
//! but its phase ([`EventInfo`]). A page printing an athlete's
//! name beside a result is refreshed by the edge of the read that found
//! the result, not by one for the name.
//!
//! **Weights** are the caller's where today's pages differ in how much a
//! datum matters to them, and fixed here where they do not.
//!
//! **Reading is also dating.** The same methods say which of the
//! database's typed revision stamps ([`Source`]) moves whenever their
//! answer can — or that none does: a row is reached through
//! [`Reads::rows`] alone, which takes that decision and logs it in the
//! page's [`Coverage`]. While every stamp a page logged reads what it
//! read then, a render would make every read it made and get every
//! answer it got: the page cannot have changed (DESIGN.md §14a, "Page
//! freshness"). A memoised section the page splices is dated apart from
//! those reads, by a [`Splice`] of its own: while the page's own reads
//! stand, a section that moved changes those bytes of the page and no
//! others.

use nagano_db::{
    Athlete, AthleteId, Country, CountryId, DataKey, Datum, DbView, Event, EventId, EventPhase,
    MedalCount, NewsArticle, NewsId, OlympicDb, Photo, ResultRow, Sport, SportId,
};

use crate::key::FragmentKey;
use crate::render::{Dependency, Splice};

/// The typed revision stamp of `nagano-db` that covers a read: the one a
/// mutation bumps whenever it can change the read's answer. Every stamp is
/// monotonic and counts the unlogged loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Source {
    /// [`DbView::loads_revision`]: rows only seeding writes.
    Loads,
    /// [`DbView::results_revision`]: an event's result rows and phase.
    Results(EventId),
    /// [`DbView::medals_revision`]: the standings as a whole.
    Medals,
    /// [`DbView::medal_row_revision`]: one country's tally.
    MedalRow(CountryId),
    /// [`DbView::news_revision`]: the stories of a day.
    News(u32),
}

/// What the reads of one page, or of one section, were covered by: each
/// source its own reads logged, once, and the sum of their stamps as the
/// reads saw them — stamps only grow, so the sum is reached again only
/// with every source where it was; and, apart from them, the sections the
/// page spliced, in page order.
#[derive(Debug, Default)]
pub(crate) struct Coverage {
    sources: Vec<Source>,
    stamps: u64,
    /// A read was made that no stamp covers: nothing short of composing
    /// the page again says whether it changed.
    uncovered: bool,
    splices: Vec<Splice>,
}

impl Coverage {
    /// An empty record.
    pub(crate) const fn new() -> Self {
        Coverage {
            sources: Vec::new(),
            stamps: 0,
            uncovered: false,
            splices: Vec::new(),
        }
    }

    /// Empty the record, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.sources.clear();
        self.stamps = 0;
        self.uncovered = false;
        self.splices.clear();
    }

    /// An empty record with room for all that the reads of a section
    /// memoised under a source may log: that source, and the loads.
    pub(crate) fn for_section() -> Self {
        Coverage {
            sources: Vec::with_capacity(2),
            ..Coverage::default()
        }
    }

    fn log(&mut self, view: &DbView<'_>, source: Option<Source>) {
        match source {
            None => self.uncovered = true,
            // Nothing more to learn: the page will be composed whatever
            // else it reads (an athlete page's first read decides that).
            Some(_) if self.uncovered => {}
            Some(source) if self.sources.contains(&source) => {}
            Some(source) => {
                self.sources.push(source);
                self.stamps += stamp(view, source);
            }
        }
    }

    /// Take over what `other` logged, into the buffers this one has.
    pub(crate) fn refill(&mut self, other: &Coverage) {
        self.sources.clear();
        self.sources.extend_from_slice(&other.sources);
        self.stamps = other.stamps;
        self.uncovered = other.uncovered;
        self.splices.clear();
        self.splices.extend_from_slice(&other.splices);
    }

    /// Move the splices `head` bytes on: from the inner HTML they were
    /// composed into to the body finished from it.
    pub(crate) fn offset(&mut self, head: usize) {
        for splice in &mut self.splices {
            splice.start += head as u32;
        }
    }

    /// The sections spliced, in page order.
    pub(crate) fn splices(&self) -> &[Splice] {
        &self.splices
    }

    /// The same, to be rewritten in place.
    pub(crate) fn splices_mut(&mut self) -> &mut [Splice] {
        &mut self.splices
    }

    /// Whether every read was covered, and by `source` or by the loads
    /// (which every stamp counts): what holds of a section memoised under
    /// `source`'s stamp.
    pub(crate) fn is_within(&self, source: Source) -> bool {
        let within = |s: &Source| *s == source || *s == Source::Loads;
        !self.uncovered && self.sources.iter().all(within)
    }
}

fn stamp(view: &DbView<'_>, source: Source) -> u64 {
    match source {
        Source::Loads => view.loads_revision(),
        Source::Results(event) => view.results_revision(event),
        Source::Medals => view.medals_revision(),
        Source::MedalRow(country) => view.medal_row_revision(country),
        Source::News(day) => view.news_revision(day),
    }
}

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

/// One read snapshot of the database, the dependency list the reads made
/// through this handle are registered in, and the log of what covers them.
pub(crate) struct Reads<'v> {
    /// Rows are read through [`Reads::rows`] only.
    view: &'v DbView<'v>,
    /// `None` while a fragment is spliced into a page: the page owes an
    /// edge to the fragment object ([`Reads::inline_fragment`] pushed it),
    /// not to the data the fragment reads.
    deps: Option<&'v mut Vec<Dependency>>,
    /// `None` when nobody will ask: a render onto nothing is kept by no
    /// memo, and a section is held against its source in debug builds only.
    coverage: Option<&'v mut Coverage>,
}

impl<'v> Reads<'v> {
    /// Run `render` over one read snapshot of `db`, registering in `deps`
    /// and logging in `coverage`, if any.
    ///
    /// The snapshot holds the tables' read lock, which prefers waiting
    /// writers: `render` must not reach for `db` itself, or it deadlocks
    /// behind a waiting commit.
    pub(crate) fn over<T>(
        db: &OlympicDb,
        deps: &mut Vec<Dependency>,
        coverage: Option<&mut Coverage>,
        render: impl FnOnce(&mut Reads<'_>) -> T,
    ) -> T {
        let view = db.view();
        render(&mut Reads {
            view: &view,
            deps: Some(deps),
            coverage,
        })
    }

    /// A handle over the same snapshot registering in `deps` and logging
    /// in `within` instead: what a memoised section is rendered through, so
    /// that its edges can be kept with its HTML and its reads held against
    /// the source it is memoised under (`Section::source`).
    pub(crate) fn section<'s>(
        &'s self,
        deps: &'s mut Vec<Dependency>,
        within: Option<&'s mut Coverage>,
    ) -> Reads<'s> {
        Reads {
            view: self.view,
            deps: Some(deps),
            coverage: within,
        }
    }

    /// A handle over the same snapshot that registers and logs nothing:
    /// what a patch brings a section up through, for the page it patches
    /// keeps the dependency list and the splices it had.
    pub(crate) fn unregistered(&self) -> Reads<'_> {
        Reads {
            view: self.view,
            deps: None,
            coverage: None,
        }
    }

    /// Register the hybrid edge `page:/fragments/… → this page` of
    /// Figure 15 and return the handle `f` is to be spliced through — the
    /// only one that registers nothing, so a fragment cannot be spliced
    /// without its edge. The splice of `f` is logged as this page's all
    /// the same: its bytes become this page's.
    pub(crate) fn inline_fragment(&mut self, f: FragmentKey, weight: f64) -> Reads<'_> {
        self.push(Datum::Fragment(f), weight);
        Reads {
            view: self.view,
            deps: None,
            coverage: self.coverage.as_deref_mut(),
        }
    }

    /// Whether every source `logged` names still reads, in this snapshot,
    /// what it read when it was logged — and no read went uncovered: the
    /// page's own reads, not its splices.
    pub(crate) fn finds_unmoved(&self, logged: &Coverage) -> bool {
        let now = logged.sources.iter().map(|&s| stamp(self.view, s));
        !logged.uncovered && now.sum::<u64>() == logged.stamps
    }

    /// The snapshot, for a read whose answer moves only when `source`'s
    /// stamp does — `None`: when no stamp says.
    fn rows(&mut self, source: Option<Source>) -> &'v DbView<'v> {
        if let Some(coverage) = self.coverage.as_deref_mut() {
            coverage.log(self.view, source);
        }
        self.view
    }

    /// `source`'s stamp in this snapshot: what a memoised section is
    /// valid by, and what the page splicing it dates that splice by. It is
    /// not logged among the page's own reads — [`Reads::spliced`] logs
    /// the splice.
    pub(crate) fn stamp(&self, source: Source) -> u64 {
        stamp(self.view, source)
    }

    /// Log that the page spliced a section, as `splice` says.
    pub(crate) fn spliced(&mut self, splice: Splice) {
        if let Some(coverage) = self.coverage.as_deref_mut() {
            coverage.splices.push(splice);
        }
    }

    /// Register edges a section was memoised with.
    pub(crate) fn register(&mut self, deps: &[Dependency]) {
        for d in deps {
            self.add(d.data_key.datum(), d.weight, || d.data_key);
        }
    }

    /// Register the edge from `datum`.
    fn push(&mut self, datum: Datum, weight: f64) {
        self.add(datum, weight, || DataKey::new(datum));
    }

    /// A list names a datum once, at the weight it was first read at: its
    /// key is made only then.
    fn add(&mut self, datum: Datum, weight: f64, key: impl FnOnce() -> DataKey) {
        let Some(deps) = self.deps.as_deref_mut() else {
            return;
        };
        if deps.iter().all(|d| d.data_key.datum() != datum) {
            deps.push(Dependency {
                data_key: key(),
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
        self.push(Datum::Today(day), weight);
        self.rows(Some(Source::Loads))
            .events_on_day(day)
            .map(EventInfo::of)
    }

    /// Events of a sport, id order: `data:sport:sport`.
    pub(crate) fn events_of_sport(
        &mut self,
        sport: SportId,
    ) -> impl Iterator<Item = EventInfo<'v>> + 'v {
        self.push(Datum::Sport(sport), 1.0);
        self.rows(Some(Source::Loads))
            .events_of_sport(sport)
            .map(EventInfo::of)
    }

    /// The phase `event` is in: `data:event:id`.
    pub(crate) fn phase(&mut self, event: &EventInfo<'_>) -> EventPhase {
        self.push(Datum::Event(event.id), 1.0);
        self.rows(Some(Source::Results(event.id)));
        event.phase
    }

    /// Results recorded for an event, insertion order: `data:event:event`.
    pub(crate) fn results_for_event(
        &mut self,
        event: EventId,
    ) -> impl Iterator<Item = &'v ResultRow> + 'v {
        self.push(Datum::Event(event), 1.0);
        self.rows(Some(Source::Results(event)))
            .results_for_event(event)
    }

    /// Results involving an athlete, id order: `data:athlete:athlete`.
    pub(crate) fn results_for_athlete(
        &mut self,
        athlete: AthleteId,
    ) -> impl Iterator<Item = &'v ResultRow> + 'v {
        self.push(Datum::Athlete(athlete), 1.0);
        self.rows(None).results_for_athlete(athlete)
    }

    /// Medal standings, best first: `data:medals:standings`.
    pub(crate) fn medal_standings(&mut self) -> Vec<(CountryId, MedalCount)> {
        self.push(Datum::Medals, 1.0);
        self.rows(Some(Source::Medals)).medal_standings()
    }

    /// One country's tally: `data:country:country`, and the standings at a
    /// quarter — a change to them slightly affects every country page, and
    /// a weight below 1 lets the threshold policy tolerate it.
    pub(crate) fn medals_of(&mut self, country: CountryId) -> Option<MedalCount> {
        self.push(Datum::Country(country), 1.0);
        self.push(Datum::Medals, 0.25);
        self.rows(Some(Source::MedalRow(country)))
            .medals_of(country)
    }

    /// A story: `data:news:id`.
    pub(crate) fn news(&mut self, id: NewsId) -> Option<&'v NewsArticle> {
        self.push(Datum::News(id), 1.0);
        self.rows(None).news(id)
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
        self.push(Datum::Today(day), day_weight);
        self.rows(Some(Source::News(day)))
            .news_on_day(day)
            .inspect(move |story| self.push(Datum::News(story.id), story_weight))
    }

    /// Photos about an event, id order: `data:photo:id` for each as it is
    /// yielded. (That there is one more reaches the page through the
    /// event's result-table fragment: `add_photo` names `data:event:…`.)
    pub(crate) fn photos_for_event(
        &mut self,
        event: EventId,
        weight: f64,
    ) -> impl Iterator<Item = &'v Photo> + '_ {
        self.rows(None)
            .photos_for_event(event)
            .inspect(move |photo| self.push(Datum::Photo(photo.id), weight))
    }

    // ----- lookups of what only seeding writes: no edge -------------------

    /// A sport's name and venue.
    pub(crate) fn sport(&mut self, id: SportId) -> Option<&'v Sport> {
        self.rows(Some(Source::Loads)).sport(id)
    }

    /// A country's name and code.
    pub(crate) fn country(&mut self, id: CountryId) -> Option<&'v Country> {
        self.rows(Some(Source::Loads)).country(id)
    }

    /// An athlete's name, country and sport.
    pub(crate) fn athlete(&mut self, id: AthleteId) -> Option<&'v Athlete> {
        self.rows(Some(Source::Loads)).athlete(id)
    }

    /// Athletes of a country, id order.
    pub(crate) fn athletes_of_country(
        &mut self,
        country: CountryId,
    ) -> impl Iterator<Item = &'v Athlete> + 'v {
        self.rows(Some(Source::Loads)).athletes_of_country(country)
    }

    /// An event's name, day and sport.
    pub(crate) fn event(&mut self, id: EventId) -> Option<EventInfo<'v>> {
        self.rows(Some(Source::Loads)).event(id).map(EventInfo::of)
    }
}
