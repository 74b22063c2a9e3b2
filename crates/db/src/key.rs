//! Data keys: the one identity of every datum a transaction can name and
//! a page can read — a row family and an id, or a fragment.
//!
//! A [`DataKey`] is compared, hashed and numbered by what it names (its
//! [`Datum`]): the trigger monitor computes the key's vertex in the object
//! dependence graph from it by arithmetic. Its canonical text
//! (`data:event:12`, `data:medals:standings`, `page:/fragments/results/12`)
//! is spelled into a buffer inside the key when the key is made — no heap,
//! no `fmt` — and read byte for byte through `Deref<Target = str>` by
//! whatever wants names: a graph built from names, a digest of change sets.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use serde::{Deserialize, Serialize};

use crate::schema::{digits, AthleteId, CountryId, EventId, NewsId, PhotoId, SportId};

/// A cacheable page fragment (Figure 15 of the paper).
///
/// Fragments are *hybrid* ODG vertices: they are cached objects in their
/// own right and underlying data for the composed pages that embed them —
/// which is why their key lives beside the data keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FragmentKey {
    /// Result table for one event.
    ResultTable(EventId),
    /// The medal-standings table.
    MedalTable,
    /// News headline strip for one day.
    Headlines(u32),
}

/// What a [`DataKey`] names: one record of a family, or a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datum {
    /// A sport: `data:sport:id`.
    Sport(SportId),
    /// An event, its results and phase: `data:event:id`.
    Event(EventId),
    /// An athlete's results: `data:athlete:id`.
    Athlete(AthleteId),
    /// A country's tally: `data:country:id`.
    Country(CountryId),
    /// A story: `data:news:id`.
    News(NewsId),
    /// A photo: `data:photo:id`.
    Photo(PhotoId),
    /// The per-day "today" summary of a day: `data:today:day`.
    Today(u32),
    /// The medal standings, one logical record: `data:medals:standings`.
    Medals,
    /// A fragment, as the data the pages that embed it read: its object
    /// name, `page:` and its URL.
    Fragment(FragmentKey),
}

/// The longest text: `page:/fragments/headlines/4294967295`.
const TEXT_MAX: usize = 36;

/// A datum and its canonical text. `Copy`, and compared and hashed by the
/// [`Datum`] alone: the text is a function of it.
#[derive(Clone, Copy)]
pub struct DataKey {
    datum: Datum,
    len: u8,
    text: [u8; TEXT_MAX],
}

impl DataKey {
    /// The key of `datum`, its text spelled in place.
    pub fn new(datum: Datum) -> Self {
        let (prefix, id) = match datum {
            Datum::Sport(s) => ("data:sport:", Some(s.0)),
            Datum::Event(e) => ("data:event:", Some(e.0)),
            Datum::Athlete(a) => ("data:athlete:", Some(a.0)),
            Datum::Country(c) => ("data:country:", Some(c.0)),
            Datum::News(n) => ("data:news:", Some(n.0)),
            Datum::Photo(p) => ("data:photo:", Some(p.0)),
            Datum::Today(day) => ("data:today:", Some(day)),
            Datum::Medals => ("data:medals:standings", None),
            Datum::Fragment(FragmentKey::ResultTable(e)) => ("page:/fragments/results/", Some(e.0)),
            Datum::Fragment(FragmentKey::MedalTable) => ("page:/fragments/medals", None),
            Datum::Fragment(FragmentKey::Headlines(day)) => {
                ("page:/fragments/headlines/", Some(day))
            }
        };
        let mut key = DataKey {
            datum,
            len: 0,
            text: [0; TEXT_MAX],
        };
        let mut len = prefix.len();
        key.text[..len].copy_from_slice(prefix.as_bytes());
        if let Some(id) = id {
            let mut buf = [0; 20];
            let id = digits(u64::from(id), &mut buf);
            key.text[len..len + id.len()].copy_from_slice(id);
            len += id.len();
        }
        // At most `TEXT_MAX`.
        key.len = len as u8;
        key
    }

    /// What the key names.
    pub fn datum(&self) -> Datum {
        self.datum
    }

    /// The canonical text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.text[..usize::from(self.len)]).expect("ASCII key")
    }
}

impl Deref for DataKey {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for DataKey {
    fn eq(&self, other: &Self) -> bool {
        self.datum == other.datum
    }
}

impl Eq for DataKey {}

impl Hash for DataKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.datum.hash(state);
    }
}

/// Against a name: what a reader of names compares a key with.
impl PartialEq<&str> for DataKey {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for DataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DataKey").field(&self.as_str()).finish()
    }
}

impl fmt::Display for DataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One datum of every kind with id `n`.
    fn every_kind(n: u32) -> [Datum; 11] {
        [
            Datum::Sport(SportId(n)),
            Datum::Event(EventId(n)),
            Datum::Athlete(AthleteId(n)),
            Datum::Country(CountryId(n)),
            Datum::News(NewsId(n)),
            Datum::Photo(PhotoId(n)),
            Datum::Today(n),
            Datum::Medals,
            Datum::Fragment(FragmentKey::ResultTable(EventId(n))),
            Datum::Fragment(FragmentKey::MedalTable),
            Datum::Fragment(FragmentKey::Headlines(n)),
        ]
    }

    #[test]
    fn data_keys_are_canonical() {
        let key = DataKey::new;
        assert_eq!(key(Datum::Event(EventId(12))), "data:event:12");
        assert_eq!(key(Datum::Athlete(AthleteId(7))), "data:athlete:7");
        assert_eq!(key(Datum::Medals), "data:medals:standings");
        assert_eq!(key(Datum::Today(3)), "data:today:3");
        let results = Datum::Fragment(FragmentKey::ResultTable(EventId(12)));
        assert_eq!(key(results), "page:/fragments/results/12");
        // Every kind, at both ends of the id space.
        for n in [0, 1, 10, u32::MAX] {
            let texts = [
                format!("data:sport:{n}"),
                format!("data:event:{n}"),
                format!("data:athlete:{n}"),
                format!("data:country:{n}"),
                format!("data:news:{n}"),
                format!("data:photo:{n}"),
                format!("data:today:{n}"),
                "data:medals:standings".to_string(),
                format!("page:/fragments/results/{n}"),
                "page:/fragments/medals".to_string(),
                format!("page:/fragments/headlines/{n}"),
            ];
            for (datum, text) in every_kind(n).into_iter().zip(texts) {
                let k = key(datum);
                assert_eq!(&*k, text, "{datum:?}");
                assert_eq!(k.datum(), datum);
            }
        }
        let longest = key(Datum::Fragment(FragmentKey::Headlines(u32::MAX)));
        assert_eq!(longest.len(), TEXT_MAX);
    }

    #[test]
    fn keys_are_equal_by_what_they_name() {
        let a = DataKey::new(Datum::Country(CountryId(3)));
        assert_eq!(a, DataKey::new(Datum::Country(CountryId(3))));
        assert_ne!(a, DataKey::new(Datum::Athlete(AthleteId(3))));
        assert_ne!(a, DataKey::new(Datum::Country(CountryId(30))));
        assert_eq!(format!("{a:?}"), r#"DataKey("data:country:3")"#);
    }
}
