//! The page registry: the full enumerable page space of a seeded Games.
//!
//! §3.1: the 1998 site held ~87,000 unique pages of which ~21,000 were
//! dynamically created. Our synthetic page space reproduces the *structure*
//! (every category, every per-entity page, every fragment); the absolute
//! count scales with the seeded dataset and language multiplier.

use nagano_db::OlympicDb;
use rustc_hash::FxHashMap;

use crate::key::{FragmentKey, PageKey};
use crate::render::target_bytes;

/// Metadata for one page in the registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageMeta {
    /// Whether the page is rebuilt from database content.
    pub dynamic: bool,
    /// Nominal transfer size in bytes.
    pub bytes: usize,
    /// Relative request popularity weight (before day-of-games
    /// modulation by the workload model).
    pub weight: f64,
}

/// The enumerated page space.
#[derive(Debug, Clone)]
pub struct PageRegistry {
    pages: Vec<(PageKey, PageMeta)>,
    index: FxHashMap<PageKey, usize>,
    days: u32,
}

impl PageRegistry {
    /// Build the registry for a seeded database covering `days` days.
    ///
    /// Popularity weights encode the access skew the paper describes:
    /// home/today pages dominate, medal standings and marquee events are
    /// hot, the long tail of athletes and countries is cold but wide.
    pub fn build(db: &OlympicDb, days: u32) -> Self {
        let mut pages: Vec<(PageKey, PageMeta)> = Vec::new();
        let mut push = |key: PageKey, weight: f64| {
            let meta = PageMeta {
                dynamic: key.is_dynamic(),
                bytes: target_bytes(key),
                weight,
            };
            pages.push((key, meta));
        };

        for day in 1..=days {
            push(PageKey::Home(day), 300.0);
            push(PageKey::NewsIndex(day), 30.0);
            push(PageKey::Fragment(FragmentKey::Headlines(day)), 2.0);
        }
        push(PageKey::Medals, 150.0);
        push(PageKey::Fragment(FragmentKey::MedalTable), 2.0);
        push(PageKey::Welcome, 20.0);
        push(PageKey::Nagano, 10.0);
        push(PageKey::Fun, 8.0);

        for sport in db.sports() {
            push(PageKey::Sport(sport.id), 40.0);
            push(PageKey::Venue(sport.id), 4.0);
        }
        for event in db.events() {
            push(PageKey::Event(event.id), 10.0 * event.popularity);
            push(PageKey::Fragment(FragmentKey::ResultTable(event.id)), 0.5);
        }
        for (i, country) in db.countries().iter().enumerate() {
            // Zipf-ish tail over countries.
            push(PageKey::Country(country.id), 12.0 / (i as f64 + 1.0).sqrt());
        }
        for (i, athlete) in db.athletes().iter().enumerate() {
            push(PageKey::Athlete(athlete.id), 6.0 / (i as f64 + 1.0));
        }
        for article in (1..=days).flat_map(|d| db.news_on_day(d)) {
            push(PageKey::News(article.id), 15.0);
        }

        let index = pages
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (*k, i))
            .collect();
        PageRegistry { pages, index, days }
    }

    /// Number of days covered.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// All pages with metadata.
    pub fn pages(&self) -> &[(PageKey, PageMeta)] {
        &self.pages
    }

    /// Metadata for one page.
    pub fn meta(&self, key: PageKey) -> Option<PageMeta> {
        self.index.get(&key).map(|&i| self.pages[i].1)
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Count of dynamic pages.
    pub fn dynamic_count(&self) -> usize {
        self.pages.iter().filter(|(_, m)| m.dynamic).count()
    }

    /// Keys of every dynamic page (the prefetch set the trigger monitor
    /// warms at startup).
    pub fn dynamic_pages(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.pages
            .iter()
            .filter(|(_, m)| m.dynamic)
            .map(|(k, _)| *k)
    }

    /// Total nominal bytes of one copy of every dynamic page (the §5
    /// "maximum memory required for a single copy of all cached objects"
    /// figure).
    pub fn dynamic_bytes(&self) -> u64 {
        self.pages
            .iter()
            .filter(|(_, m)| m.dynamic)
            .map(|(_, m)| m.bytes as u64)
            .sum()
    }

    /// The popularity weights, aligned with [`Self::pages`] (input to a
    /// weighted sampler).
    pub fn weights(&self) -> Vec<f64> {
        self.pages.iter().map(|(_, m)| m.weight).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{seed_games, GamesConfig};
    use std::sync::Arc;

    fn registry() -> PageRegistry {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        PageRegistry::build(&db, 16)
    }

    #[test]
    fn covers_every_category() {
        let reg = registry();
        use std::collections::BTreeSet;
        let cats: BTreeSet<&str> = reg.pages().iter().map(|(k, _)| k.category()).collect();
        assert!(cats.len() >= 8, "categories {cats:?}");
    }

    #[test]
    fn page_counts_match_dataset() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let reg = PageRegistry::build(&db, 16);
        let cfg = GamesConfig::small();
        // homes + news-index + headlines per day; medals(+frag);
        // welcome/nagano/fun; sport+venue per sport; event+fragment per
        // event; country per country; athlete per athlete.
        let n_sports = db.sports().len();
        let expected = 16 * 3
            + 2
            + 3
            + n_sports * 2
            + cfg.events as usize * 2
            + cfg.countries as usize
            + cfg.athletes as usize;
        assert_eq!(reg.len(), expected);
    }

    #[test]
    fn full_scale_page_space_has_thousands_of_dynamic_pages() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::full());
        let reg = PageRegistry::build(&db, 16);
        // 2,300 athletes + 72 countries + 68×2 events/fragments + … —
        // the per-language page space is in the thousands (the paper's
        // 21,000 counts two full languages plus news archives).
        assert!(
            reg.dynamic_count() > 2_500,
            "dynamic {}",
            reg.dynamic_count()
        );
        assert!(reg.len() > reg.dynamic_count());
    }

    #[test]
    fn meta_lookup_and_weights_align() {
        let reg = registry();
        let (key, meta) = reg.pages()[0];
        assert_eq!(reg.meta(key), Some(meta));
        assert_eq!(reg.weights().len(), reg.len());
        assert!(reg.weights().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn home_pages_dominate_weights() {
        let reg = registry();
        let home_w = reg.meta(PageKey::Home(1)).unwrap().weight;
        let max_other = reg
            .pages()
            .iter()
            .filter(|(k, _)| !matches!(k, PageKey::Home(_)))
            .map(|(_, m)| m.weight)
            .fold(0.0, f64::max);
        assert!(home_w >= max_other, "home {home_w} vs {max_other}");
    }

    #[test]
    fn dynamic_bytes_accumulates() {
        let reg = registry();
        assert_eq!(
            reg.dynamic_bytes(),
            reg.pages()
                .iter()
                .filter(|(_, m)| m.dynamic)
                .map(|(_, m)| m.bytes as u64)
                .sum::<u64>()
        );
        assert_eq!(reg.dynamic_pages().count(), reg.dynamic_count());
    }
}
