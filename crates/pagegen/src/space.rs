//! Dense page slots: every page a seeded Games can serve, numbered
//! `0..len()`.
//!
//! A slot is the one key a page has below the request parser: the serving
//! caches find a page's row by it, the trigger monitor its dependency
//! list and its vertex in the dependence graph. It is plain arithmetic
//! over the key, because entity ids are the dense `1..=n` the database's
//! tables already address by. Each family of pages has a base and a span:
//!
//! | slots | pages |
//! |---|---|
//! | `3 × (day − 1) + 0, 1, 2` | [`PageKey::Home`], [`PageKey::NewsIndex`], the day's headline strip |
//! | 5 after the days | the medals page, the medal table, welcome, Nagano, fun |
//! | `2 × (sport − 1) + 0, 1` | [`PageKey::Sport`], [`PageKey::Venue`] |
//! | `2 × (event − 1) + 0, 1` | [`PageKey::Event`], the event's result table |
//! | `country − 1` | [`PageKey::Country`] |
//! | `athlete − 1` | [`PageKey::Athlete`] |
//! | `news − 1000` | [`PageKey::News`], `days × 1000` of them |
//!
//! Slot order is the registry's order ([`crate::PageRegistry::pages`]).
//! A news id is `day × 1000 + seq`, so the news family spans every id the
//! Games can file, and a story filed mid-Games has a slot from the start.
//! A key outside the space — a day, entity or story the Games do not have
//! — has no slot: it is not a page of the site.
//!
//! The data a page reads have vertices too ([`PageSpace::vertex`]), by the
//! same kind of arithmetic over what their keys name ([`Datum`]), above
//! every slot: a family of data per run of 2^28 ids — sport, event,
//! athlete, country, news, photo, today, medals — from `len()` up. A
//! fragment is the one exception: it is a page, and its vertex is its slot.

use nagano_db::{Datum, OlympicDb};

use crate::key::{FragmentKey, PageKey};

/// Pages per day: home, news index, headline strip.
const PER_DAY: u32 = 3;
/// The pages that have no id: medals, medal table, welcome, Nagano, fun.
const SINGLES: [PageKey; 5] = [
    PageKey::Medals,
    PageKey::Fragment(FragmentKey::MedalTable),
    PageKey::Welcome,
    PageKey::Nagano,
    PageKey::Fun,
];
/// News ids one day can file (`day × 1000 + seq`).
const NEWS_PER_DAY: u32 = 1_000;
/// Ids per family of data vertices: the eight families fill `2^31`.
const FAMILY_IDS: u32 = 1 << 28;

/// The slot layout of one seeded Games. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSpace {
    days: u32,
    sports: u32,
    events: u32,
    countries: u32,
    athletes: u32,
    /// Where each family after the days starts.
    singles: u32,
    sport_base: u32,
    event_base: u32,
    country_base: u32,
    athlete_base: u32,
    news_base: u32,
    len: u32,
}

/// `id - 1` if `id` is one of `1..=span`.
fn offset(id: u32, span: u32) -> Option<u32> {
    (1..=span).contains(&id).then(|| id - 1)
}

impl PageSpace {
    /// The space of `db`'s Games over `days` days: each entity family
    /// spans its largest id.
    pub fn build(db: &OlympicDb, days: u32) -> Self {
        // Each list is in id order: its last id is its largest.
        Self::with_spans(
            days,
            db.sports().last().map_or(0, |s| s.id.0),
            db.events().last().map_or(0, |e| e.id.0),
            db.countries().last().map_or(0, |c| c.id.0),
            db.athletes().last().map_or(0, |a| a.id.0),
        )
    }

    /// The space of `days` days and the given entity spans.
    fn with_spans(days: u32, sports: u32, events: u32, countries: u32, athletes: u32) -> Self {
        let singles = PER_DAY * days;
        let sport_base = singles + SINGLES.len() as u32;
        let event_base = sport_base + 2 * sports;
        let country_base = event_base + 2 * events;
        let athlete_base = country_base + countries;
        let news_base = athlete_base + athletes;
        PageSpace {
            days,
            sports,
            events,
            countries,
            athletes,
            singles,
            sport_base,
            event_base,
            country_base,
            athlete_base,
            news_base,
            len: news_base + NEWS_PER_DAY * days,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the space has no slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `key`'s slot, or `None` if the Games have no such page.
    pub fn slot(&self, key: PageKey) -> Option<u32> {
        let day = |d: u32, page: u32| Some(PER_DAY * offset(d, self.days)? + page);
        let pair =
            |base: u32, id: u32, span: u32, page: u32| Some(base + 2 * offset(id, span)? + page);
        match key {
            PageKey::Home(d) => day(d, 0),
            PageKey::NewsIndex(d) => day(d, 1),
            PageKey::Fragment(FragmentKey::Headlines(d)) => day(d, 2),
            PageKey::Medals => Some(self.singles),
            PageKey::Fragment(FragmentKey::MedalTable) => Some(self.singles + 1),
            PageKey::Welcome => Some(self.singles + 2),
            PageKey::Nagano => Some(self.singles + 3),
            PageKey::Fun => Some(self.singles + 4),
            PageKey::Sport(s) => pair(self.sport_base, s.0, self.sports, 0),
            PageKey::Venue(s) => pair(self.sport_base, s.0, self.sports, 1),
            PageKey::Event(e) => pair(self.event_base, e.0, self.events, 0),
            PageKey::Fragment(FragmentKey::ResultTable(e)) => {
                pair(self.event_base, e.0, self.events, 1)
            }
            PageKey::Country(c) => Some(self.country_base + offset(c.0, self.countries)?),
            PageKey::Athlete(a) => Some(self.athlete_base + offset(a.0, self.athletes)?),
            PageKey::News(n) => {
                let at = n.0.checked_sub(NEWS_PER_DAY)?;
                (at < NEWS_PER_DAY * self.days).then(|| self.news_base + at)
            }
        }
    }

    /// The vertex of `datum` in the object dependence graph: a fragment's
    /// slot, or `len() + family × 2^28 + id` above every page. `None` for a
    /// fragment the Games do not have, and for an id of `2^28` or more —
    /// no Games file that many rows of a family.
    pub fn vertex(&self, datum: Datum) -> Option<u32> {
        let (family, id) = match datum {
            Datum::Fragment(f) => return self.slot(PageKey::Fragment(f)),
            Datum::Sport(s) => (0, s.0),
            Datum::Event(e) => (1, e.0),
            Datum::Athlete(a) => (2, a.0),
            Datum::Country(c) => (3, c.0),
            Datum::News(n) => (4, n.0),
            Datum::Photo(p) => (5, p.0),
            Datum::Today(day) => (6, day),
            Datum::Medals => (7, 0),
        };
        if id >= FAMILY_IDS {
            return None;
        }
        self.len.checked_add(family * FAMILY_IDS + id)
    }

    /// The page in `slot`, or `None` past the last slot.
    pub fn key(&self, slot: u32) -> Option<PageKey> {
        use nagano_db::{AthleteId, CountryId, EventId, NewsId, SportId};
        let key = if slot < self.singles {
            let day = slot / PER_DAY + 1;
            match slot % PER_DAY {
                0 => PageKey::Home(day),
                1 => PageKey::NewsIndex(day),
                _ => PageKey::Fragment(FragmentKey::Headlines(day)),
            }
        } else if slot < self.sport_base {
            SINGLES[(slot - self.singles) as usize]
        } else if slot < self.event_base {
            let s = SportId((slot - self.sport_base) / 2 + 1);
            match (slot - self.sport_base) % 2 {
                0 => PageKey::Sport(s),
                _ => PageKey::Venue(s),
            }
        } else if slot < self.country_base {
            let e = EventId((slot - self.event_base) / 2 + 1);
            match (slot - self.event_base) % 2 {
                0 => PageKey::Event(e),
                _ => PageKey::Fragment(FragmentKey::ResultTable(e)),
            }
        } else if slot < self.athlete_base {
            PageKey::Country(CountryId(slot - self.country_base + 1))
        } else if slot < self.news_base {
            PageKey::Athlete(AthleteId(slot - self.athlete_base + 1))
        } else if slot < self.len {
            PageKey::News(NewsId(slot - self.news_base + NEWS_PER_DAY))
        } else {
            return None;
        };
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{AthleteId, CountryId, EventId, NewsId, SportId};

    #[test]
    fn families_sit_side_by_side() {
        let space = PageSpace::with_spans(2, 1, 2, 1, 3);
        let expected = [
            PageKey::Home(1),
            PageKey::NewsIndex(1),
            PageKey::Fragment(FragmentKey::Headlines(1)),
            PageKey::Home(2),
            PageKey::NewsIndex(2),
            PageKey::Fragment(FragmentKey::Headlines(2)),
            PageKey::Medals,
            PageKey::Fragment(FragmentKey::MedalTable),
            PageKey::Welcome,
            PageKey::Nagano,
            PageKey::Fun,
            PageKey::Sport(SportId(1)),
            PageKey::Venue(SportId(1)),
            PageKey::Event(EventId(1)),
            PageKey::Fragment(FragmentKey::ResultTable(EventId(1))),
            PageKey::Event(EventId(2)),
            PageKey::Fragment(FragmentKey::ResultTable(EventId(2))),
            PageKey::Country(CountryId(1)),
            PageKey::Athlete(AthleteId(1)),
            PageKey::Athlete(AthleteId(2)),
            PageKey::Athlete(AthleteId(3)),
            PageKey::News(NewsId(1_000)),
        ];
        for (slot, key) in expected.into_iter().enumerate() {
            assert_eq!(space.slot(key), Some(slot as u32), "{key:?}");
            assert_eq!(space.key(slot as u32), Some(key), "slot {slot}");
        }
        assert_eq!(space.len(), 21 + 2_000);
        assert_eq!(
            space.key(space.len() - 1),
            Some(PageKey::News(NewsId(2_999)))
        );
        assert_eq!(space.key(space.len()), None);
    }

    #[test]
    fn keys_the_games_do_not_have_have_no_slot() {
        let space = PageSpace::with_spans(16, 14, 68, 72, 2_300);
        for key in [
            PageKey::Home(0),
            PageKey::Home(17),
            PageKey::Athlete(AthleteId(0)),
            PageKey::Athlete(AthleteId(2_301)),
            PageKey::Athlete(AthleteId(u32::MAX)),
            PageKey::Venue(SportId(15)),
            PageKey::Fragment(FragmentKey::ResultTable(EventId(69))),
            PageKey::News(NewsId(999)),
            PageKey::News(NewsId(17_000)),
            PageKey::News(NewsId(99_999)),
        ] {
            assert_eq!(space.slot(key), None, "{key:?}");
        }
    }
}
