//! Domain rows for a Winter Games: the entities the 1998 site's nine
//! content categories were built from (§3.1).
//!
//! A row's identity in the object dependence graph is its **data key**
//! ([`crate::DataKey`]): a family and the row's id.

use serde::{Deserialize, Serialize};

/// `n` in decimal, written to the end of `buf`, without going through
/// `fmt`: ids, days and ranks are spelled once per link or row of every
/// regenerated page, and an id once per new data key.
pub(crate) fn digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &buf[i..]
}

/// Append `n` in decimal to `out`, without going through `fmt`.
pub fn push_decimal(out: &mut String, n: impl Into<u64>) {
    let mut buf = [0; 20];
    let digits = digits(n.into(), &mut buf);
    out.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl crate::table::Slot for $name {
            fn slot(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A sport (e.g. cross-country skiing).
    SportId,
    "sport"
);
id_type!(
    /// A medal event within a sport.
    EventId,
    "event"
);
id_type!(
    /// A competitor.
    AthleteId,
    "athlete"
);
id_type!(
    /// A participating country.
    CountryId,
    "country"
);
id_type!(
    /// One result record for one athlete at one event stage.
    ResultId,
    "result"
);
id_type!(
    /// A news article.
    NewsId,
    "news"
);
id_type!(
    /// A classified photograph.
    PhotoId,
    "photo"
);

/// A sport and the venue it takes place at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sport {
    /// Identifier.
    pub id: SportId,
    /// Display name.
    pub name: String,
    /// Venue name ("Venues" category pages).
    pub venue: String,
}

/// Completion state of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventPhase {
    /// Not yet started.
    Scheduled,
    /// Heats/intermediate stages underway — partial results exist.
    InProgress,
    /// Final results posted; medals awarded.
    Final,
}

/// One medal event (e.g. "Women's Figure Skating Free Skating").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Identifier.
    pub id: EventId,
    /// Owning sport.
    pub sport: SportId,
    /// Display name.
    pub name: String,
    /// Day of the Games it concludes on (1-based).
    pub day: u32,
    /// Local hour the final is scheduled at.
    pub hour: u32,
    /// Relative audience draw (drives the workload model's interest
    /// spikes, e.g. the figure-skating peak).
    pub popularity: f64,
    /// Current completion state.
    pub phase: EventPhase,
}

/// A competitor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Athlete {
    /// Identifier.
    pub id: AthleteId,
    /// Display name.
    pub name: String,
    /// Country represented.
    pub country: CountryId,
    /// Sport competed in.
    pub sport: SportId,
}

/// A participating country.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Country {
    /// Identifier.
    pub id: CountryId,
    /// IOC-style three-letter code.
    pub code: String,
    /// Display name.
    pub name: String,
}

/// One result row: athlete's standing at an event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultRow {
    /// Identifier.
    pub id: ResultId,
    /// Event.
    pub event: EventId,
    /// Athlete.
    pub athlete: AthleteId,
    /// Standing (1 = first).
    pub rank: u32,
    /// Sport-specific score/time.
    pub score: f64,
    /// Whether this row belongs to the event's final standings.
    pub is_final: bool,
}

/// Per-country medal tally (the "medal standings" page data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MedalCount {
    /// Gold medals.
    pub gold: u32,
    /// Silver medals.
    pub silver: u32,
    /// Bronze medals.
    pub bronze: u32,
}

impl MedalCount {
    /// Total medals.
    pub fn total(&self) -> u32 {
        self.gold + self.silver + self.bronze
    }
}

/// A hand-edited news story, dynamically combined with results/photos.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NewsArticle {
    /// Identifier.
    pub id: NewsId,
    /// Day published.
    pub day: u32,
    /// Headline.
    pub title: String,
    /// Body text.
    pub body: String,
    /// Event the story covers, if any.
    pub about_event: Option<EventId>,
}

/// A classified photo, inserted into news/result/athlete/country pages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Photo {
    /// Identifier.
    pub id: PhotoId,
    /// Day taken.
    pub day: u32,
    /// Event depicted, if any.
    pub about_event: Option<EventId>,
    /// Nominal encoded size in bytes (drives Figure 21 traffic volumes).
    pub bytes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_decimal_matches_fmt() {
        for n in [
            0,
            7,
            10,
            99,
            100,
            1998,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(EventId(5).to_string(), "event5");
        assert_eq!(CountryId(1).to_string(), "country1");
    }

    #[test]
    fn medal_count_total() {
        let m = MedalCount {
            gold: 2,
            silver: 1,
            bronze: 4,
        };
        assert_eq!(m.total(), 7);
        assert_eq!(MedalCount::default().total(), 0);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use rustc_hash::FxHashSet;
        let mut set = FxHashSet::default();
        set.insert(EventId(1));
        set.insert(EventId(1));
        set.insert(EventId(2));
        assert_eq!(set.len(), 2);
        assert!(EventId(1) < EventId(2));
    }
}
