//! Typed page identities.
//!
//! Every servable URL on the site maps to one [`PageKey`]; every key has a
//! canonical URL (`to_url`) and parses back (`parse`). Below the parser a
//! page is keyed by its slot in the page space ([`crate::PageSpace`]); a
//! dependency on a fragment names it by its data key, whose text is the
//! fragment's [`PageKey::object_key`].

use nagano_db::schema::push_decimal;
use nagano_db::{AthleteId, CountryId, EventId, NewsId, SportId};
use serde::{Deserialize, Serialize};

/// A cacheable page fragment (Figure 15 of the paper): a page of its own,
/// and data of the pages that embed it — whose dependency on it is the
/// data key `Datum::Fragment`, spelled as the fragment's
/// [`PageKey::object_key`].
pub use nagano_db::FragmentKey;

/// Identity of one servable page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PageKey {
    /// Per-day home page ("Today" category; a different home page was
    /// created each day of the Games).
    Home(u32),
    /// The "how to / what is" page.
    Welcome,
    /// One news article.
    News(NewsId),
    /// The news index for one day.
    NewsIndex(u32),
    /// Venue information for a sport.
    Venue(SportId),
    /// A sport's results/scores page.
    Sport(SportId),
    /// One event's page.
    Event(EventId),
    /// A country's collated page.
    Country(CountryId),
    /// An athlete's collated page.
    Athlete(AthleteId),
    /// The medal standings page.
    Medals,
    /// Information about Nagano (static).
    Nagano,
    /// Children's activities (static).
    Fun,
    /// A cacheable page fragment.
    Fragment(FragmentKey),
}

impl PageKey {
    /// Canonical URL path.
    pub fn to_url(self) -> String {
        let mut out = String::with_capacity(24);
        self.push_url(&mut out);
        out
    }

    /// Append the canonical URL path to `out` — the renderer writes the
    /// links of a page into its body without a `String` per link.
    pub fn push_url(self, out: &mut String) {
        let (prefix, id, suffix) = self.url_parts();
        out.push_str(prefix);
        if let Some(id) = id {
            push_decimal(out, id);
        }
        out.push_str(suffix);
    }

    /// The canonical URL path in three parts: the text before the page's
    /// id, the id if the page has one, and the text after it.
    fn url_parts(self) -> (&'static str, Option<u32>, &'static str) {
        let (prefix, id) = match self {
            PageKey::Home(d) => return ("/day/", Some(d), "/"),
            PageKey::Welcome => ("/welcome", None),
            PageKey::News(n) => ("/news/", Some(n.0)),
            PageKey::NewsIndex(d) => ("/news/day/", Some(d)),
            PageKey::Venue(s) => ("/venues/", Some(s.0)),
            PageKey::Sport(s) => ("/sports/", Some(s.0)),
            PageKey::Event(e) => ("/events/", Some(e.0)),
            PageKey::Country(c) => ("/countries/", Some(c.0)),
            PageKey::Athlete(a) => ("/athletes/", Some(a.0)),
            PageKey::Medals => ("/medals", None),
            PageKey::Nagano => ("/nagano", None),
            PageKey::Fun => ("/fun", None),
            PageKey::Fragment(FragmentKey::ResultTable(e)) => ("/fragments/results/", Some(e.0)),
            PageKey::Fragment(FragmentKey::MedalTable) => ("/fragments/medals", None),
            PageKey::Fragment(FragmentKey::Headlines(d)) => ("/fragments/headlines/", Some(d)),
        };
        (prefix, id, "")
    }

    /// The ODG object-vertex name for this page.
    pub fn object_key(self) -> String {
        let mut out = String::with_capacity(32);
        out.push_str("page:");
        self.push_url(&mut out);
        out
    }

    /// Parse a URL path back into a key. Returns `None` for unknown paths.
    pub fn parse(path: &str) -> Option<PageKey> {
        let path = path.strip_suffix('/').unwrap_or(path);
        let mut parts = path.split('/').filter(|s| !s.is_empty());
        let head = parts.next();
        let key = match head {
            Some("day") => PageKey::Home(parts.next()?.parse().ok()?),
            Some("welcome") => PageKey::Welcome,
            Some("news") => match parts.next()? {
                "day" => PageKey::NewsIndex(parts.next()?.parse().ok()?),
                n => PageKey::News(NewsId(n.parse().ok()?)),
            },
            Some("venues") => PageKey::Venue(SportId(parts.next()?.parse().ok()?)),
            Some("sports") => PageKey::Sport(SportId(parts.next()?.parse().ok()?)),
            Some("events") => PageKey::Event(EventId(parts.next()?.parse().ok()?)),
            Some("countries") => PageKey::Country(CountryId(parts.next()?.parse().ok()?)),
            Some("athletes") => PageKey::Athlete(AthleteId(parts.next()?.parse().ok()?)),
            Some("medals") => PageKey::Medals,
            Some("nagano") => PageKey::Nagano,
            Some("fun") => PageKey::Fun,
            Some("fragments") => match parts.next()? {
                "results" => PageKey::Fragment(FragmentKey::ResultTable(EventId(
                    parts.next()?.parse().ok()?,
                ))),
                "medals" => PageKey::Fragment(FragmentKey::MedalTable),
                "headlines" => {
                    PageKey::Fragment(FragmentKey::Headlines(parts.next()?.parse().ok()?))
                }
                _ => return None,
            },
            _ => return None,
        };
        // Reject trailing junk.
        if parts.next().is_some() {
            return None;
        }
        Some(key)
    }

    /// Whether this page is dynamic (built from database content) or
    /// static (served as-is).
    pub fn is_dynamic(self) -> bool {
        !matches!(
            self,
            PageKey::Welcome | PageKey::Nagano | PageKey::Fun | PageKey::Venue(_)
        )
    }

    /// Content category (the paper's nine categories; fragments report the
    /// category of the page family they feed).
    pub fn category(self) -> &'static str {
        match self {
            PageKey::Home(_) => "Today",
            PageKey::Welcome => "Welcome",
            PageKey::News(_) | PageKey::NewsIndex(_) => "News",
            PageKey::Venue(_) => "Venues",
            PageKey::Sport(_) | PageKey::Event(_) => "Sports",
            PageKey::Country(_) => "Countries",
            PageKey::Athlete(_) => "Athletes",
            PageKey::Medals => "Today",
            PageKey::Nagano => "Nagano",
            PageKey::Fun => "Fun",
            PageKey::Fragment(_) => "Sports",
        }
    }
}

/// The canonical URL path, written straight into the formatter.
impl std::fmt::Display for PageKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (prefix, id, suffix) = self.url_parts();
        f.write_str(prefix)?;
        if let Some(id) = id {
            write!(f, "{id}")?;
        }
        f.write_str(suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_keys() -> Vec<PageKey> {
        vec![
            PageKey::Home(14),
            PageKey::Welcome,
            PageKey::News(NewsId(7)),
            PageKey::NewsIndex(3),
            PageKey::Venue(SportId(2)),
            PageKey::Sport(SportId(2)),
            PageKey::Event(EventId(11)),
            PageKey::Country(CountryId(4)),
            PageKey::Athlete(AthleteId(99)),
            PageKey::Medals,
            PageKey::Nagano,
            PageKey::Fun,
            PageKey::Fragment(FragmentKey::ResultTable(EventId(11))),
            PageKey::Fragment(FragmentKey::MedalTable),
            PageKey::Fragment(FragmentKey::Headlines(5)),
        ]
    }

    #[test]
    fn url_roundtrip_for_every_variant() {
        for key in all_sample_keys() {
            let url = key.to_url();
            assert_eq!(PageKey::parse(&url), Some(key), "url {url}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "/",
            "/unknown",
            "/events/",
            "/events/abc",
            "/athletes/1/extra",
            "/fragments/bogus/1",
            "/news/day/",
        ] {
            assert_eq!(PageKey::parse(bad), None, "path {bad}");
        }
    }

    #[test]
    fn object_key_prefixes_url() {
        assert_eq!(PageKey::Medals.object_key(), "page:/medals");
        assert_eq!(PageKey::Event(EventId(3)).object_key(), "page:/events/3");
        for key in all_sample_keys() {
            assert_eq!(key.object_key(), format!("page:{}", key.to_url()));
        }
    }

    #[test]
    fn urls_are_spelled_as_published() {
        let published = [
            "/day/14/",
            "/welcome",
            "/news/7",
            "/news/day/3",
            "/venues/2",
            "/sports/2",
            "/events/11",
            "/countries/4",
            "/athletes/99",
            "/medals",
            "/nagano",
            "/fun",
            "/fragments/results/11",
            "/fragments/medals",
            "/fragments/headlines/5",
        ];
        let keys = all_sample_keys();
        assert_eq!(keys.len(), published.len());
        // `push_url` appends: what the buffer held stays in front.
        let mut buf = String::from("page:");
        for (key, url) in keys.into_iter().zip(published) {
            assert_eq!(key.to_url(), url, "{key:?}");
            buf.truncate("page:".len());
            key.push_url(&mut buf);
            assert_eq!(buf.strip_prefix("page:"), Some(url), "{key:?}");
            assert_eq!(key.object_key(), buf, "{key:?}");
        }
    }

    #[test]
    fn static_vs_dynamic_split() {
        assert!(!PageKey::Welcome.is_dynamic());
        assert!(!PageKey::Nagano.is_dynamic());
        assert!(!PageKey::Fun.is_dynamic());
        assert!(!PageKey::Venue(SportId(1)).is_dynamic());
        assert!(PageKey::Home(1).is_dynamic());
        assert!(PageKey::Event(EventId(1)).is_dynamic());
        assert!(PageKey::Fragment(FragmentKey::MedalTable).is_dynamic());
    }

    #[test]
    fn categories_cover_the_paper_list() {
        use std::collections::BTreeSet;
        let cats: BTreeSet<&str> = all_sample_keys().iter().map(|k| k.category()).collect();
        for want in [
            "Today",
            "Welcome",
            "News",
            "Venues",
            "Sports",
            "Countries",
            "Athletes",
            "Nagano",
            "Fun",
        ] {
            assert!(cats.contains(want), "missing category {want}");
        }
    }

    #[test]
    fn display_is_url() {
        assert_eq!(PageKey::Home(3).to_string(), "/day/3/");
        for key in all_sample_keys() {
            assert_eq!(key.to_string(), key.to_url(), "{key:?}");
        }
    }

    #[test]
    fn home_url_trailing_slash_normalises() {
        assert_eq!(PageKey::parse("/day/3"), Some(PageKey::Home(3)));
        assert_eq!(PageKey::parse("/day/3/"), Some(PageKey::Home(3)));
    }
}
