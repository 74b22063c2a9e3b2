//! Typed page identities.
//!
//! Every servable URL on the site maps to one [`PageKey`]; every key has a
//! canonical URL (`to_url`) and parses back (`parse`). Below the parser a
//! page is keyed by its slot in the page space ([`crate::PageSpace`]); a
//! dependency on a fragment names it by [`PageKey::object_key`].

use nagano_db::schema::push_decimal;
use nagano_db::{AthleteId, CountryId, EventId, NewsId, SportId};
use serde::{Deserialize, Serialize};

/// A cacheable page fragment (Figure 15 of the paper).
///
/// Fragments are *hybrid* ODG vertices: they are cached objects in their
/// own right and underlying data for the composed pages that embed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FragmentKey {
    /// Result table for one event.
    ResultTable(EventId),
    /// The medal-standings table.
    MedalTable,
    /// News headline strip for one day.
    Headlines(u32),
}

impl FragmentKey {
    /// Canonical URL of the fragment (fragments are servable, e.g. for
    /// the CBS feed the paper mentions).
    pub fn to_url(self) -> String {
        PageKey::Fragment(self).to_url()
    }
}

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
        let (prefix, id) = match self {
            PageKey::Home(d) => {
                out.push_str("/day/");
                push_decimal(out, d);
                return out.push('/');
            }
            PageKey::Welcome => return out.push_str("/welcome"),
            PageKey::News(n) => ("/news/", n.0),
            PageKey::NewsIndex(d) => ("/news/day/", d),
            PageKey::Venue(s) => ("/venues/", s.0),
            PageKey::Sport(s) => ("/sports/", s.0),
            PageKey::Event(e) => ("/events/", e.0),
            PageKey::Country(c) => ("/countries/", c.0),
            PageKey::Athlete(a) => ("/athletes/", a.0),
            PageKey::Medals => return out.push_str("/medals"),
            PageKey::Nagano => return out.push_str("/nagano"),
            PageKey::Fun => return out.push_str("/fun"),
            PageKey::Fragment(FragmentKey::ResultTable(e)) => ("/fragments/results/", e.0),
            PageKey::Fragment(FragmentKey::MedalTable) => return out.push_str("/fragments/medals"),
            PageKey::Fragment(FragmentKey::Headlines(d)) => ("/fragments/headlines/", d),
        };
        out.push_str(prefix);
        push_decimal(out, id);
    }

    /// The ODG object-vertex name for this page.
    pub fn object_key(self) -> String {
        let mut out = String::with_capacity(32);
        out.push_str("page:");
        self.push_url(&mut out);
        out
    }

    /// The page whose object-vertex name `name` is ([`PageKey::object_key`]),
    /// if it is one: a dependency on it is the hybrid edge of Figure 15.
    pub fn from_object_key(name: &str) -> Option<PageKey> {
        PageKey::parse(name.strip_prefix("page:")?)
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

impl std::fmt::Display for PageKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_url())
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
            assert_eq!(PageKey::from_object_key(&key.object_key()), Some(key));
        }
        assert_eq!(PageKey::from_object_key("/medals"), None);
        assert_eq!(PageKey::from_object_key("data:medals"), None);
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
        assert_eq!(FragmentKey::Headlines(5).to_url(), "/fragments/headlines/5");
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
    }

    #[test]
    fn home_url_trailing_slash_normalises() {
        assert_eq!(PageKey::parse("/day/3"), Some(PageKey::Home(3)));
        assert_eq!(PageKey::parse("/day/3/"), Some(PageKey::Home(3)));
    }
}
