//! The composite request model: how many requests arrive each minute, and
//! what each one asks for.
//!
//! rate(t) = day_total(day) × Σ_regions share_r · diurnal_r(t) × spike(t) / 1440
//!
//! `spike(t)` is a Gaussian bump around each marquee final (the Women's
//! Figure Skating free skate drove the audited 110,414 hits/minute record;
//! the Men's Ski Jumping final drove 98,000/minute). Page selection uses a
//! per-day popularity table: the current day's home page dominates, event
//! pages are boosted on their day, old home pages decay, and during a
//! spike most of the surge goes to the marquee's pages.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use nagano_db::OlympicDb;
use nagano_pagegen::{PageKey, PageRegistry};
use nagano_simcore::sync::Mutex;
use nagano_simcore::{DeterministicRng, LinkClass, SimTime};

use crate::calendar::GamesCalendar;
use crate::diurnal::DiurnalShape;
use crate::geo::{GeoMix, Region};

/// A marquee-event traffic spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// Centre of the bump.
    pub at: SimTime,
    /// Peak multiplier added on top of the base rate (0.8 = +80%).
    pub magnitude: f64,
    /// Standard deviation of the bump in minutes.
    pub width_mins: f64,
    /// The event drawing the crowd.
    pub event: nagano_db::EventId,
    /// Home audience of the marquee: the surge traffic is dominated by
    /// this region (the ski-jump surge was Japanese — which is why Tokyo
    /// served 72,000 of the 98,000 requests that minute).
    pub home_region: Option<Region>,
}

/// One sampled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    /// Page requested.
    pub page: PageKey,
    /// Client region.
    pub region: Region,
    /// Client link technology.
    pub link: LinkClass,
}

/// The full request model.
pub struct RequestModel {
    registry: Arc<PageRegistry>,
    geo: GeoMix,
    diurnal: DiurnalShape,
    calendar: GamesCalendar,
    /// Divide paper-scale volumes by this (1000 → ~635k simulated
    /// requests for the whole Games).
    scale: f64,
    spikes: Vec<Spike>,
    marquee_sport: FxHashMap<nagano_db::EventId, nagano_db::SportId>,
    /// Per-day page CDF cache.
    day_tables: Mutex<FxHashMap<u32, Arc<DayTable>>>,
}

struct DayTable {
    cdf: Vec<f64>,
}

impl RequestModel {
    /// Build the model. Marquee spikes are derived from the seeded events
    /// with popularity ≥ 10 (the pinned figure-skating and ski-jumping
    /// finals).
    pub fn new(db: &OlympicDb, registry: Arc<PageRegistry>, scale: f64) -> Self {
        assert!(scale >= 1.0, "scale divides paper volumes");
        let mut spikes = Vec::new();
        let mut marquee_sport = FxHashMap::default();
        for ev in db.events() {
            if ev.popularity >= 10.0 {
                let home_region = if ev.name.contains("Ski Jumping") {
                    Some(Region::Japan)
                } else if ev.name.contains("Figure Skating") {
                    Some(Region::UsEast)
                } else {
                    None
                };
                spikes.push(Spike {
                    at: SimTime::at(ev.day, ev.hour, 0),
                    magnitude: ev.popularity / 15.0, // fs: ~1.7x extra, sj: ~1.0x
                    width_mins: 25.0,
                    event: ev.id,
                    home_region,
                });
                marquee_sport.insert(ev.id, ev.sport);
            }
        }
        RequestModel {
            registry,
            geo: GeoMix::nagano(),
            diurnal: DiurnalShape::web_1998(),
            calendar: GamesCalendar::nagano(),
            scale,
            spikes,
            marquee_sport,
            day_tables: Mutex::new(FxHashMap::default()),
        }
    }

    /// The scale divisor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The calendar in use.
    pub fn calendar(&self) -> &GamesCalendar {
        &self.calendar
    }

    /// The geographic mix in use.
    pub fn geo(&self) -> &GeoMix {
        &self.geo
    }

    /// The configured spikes.
    pub fn spikes(&self) -> &[Spike] {
        &self.spikes
    }

    /// The diurnal multiplier blended over regions at `t`.
    pub fn diurnal_mixture(&self, t: SimTime) -> f64 {
        Region::ALL
            .iter()
            .map(|&r| self.geo.share(r) * self.diurnal.multiplier(r, t))
            .sum()
    }

    /// The spike multiplier at `t` (≥ 1).
    pub fn spike_multiplier(&self, t: SimTime) -> f64 {
        let mut m = 1.0;
        for s in &self.spikes {
            let dt_min = (t.as_secs_f64() - s.at.as_secs_f64()) / 60.0;
            m += s.magnitude * (-(dt_min * dt_min) / (2.0 * s.width_mins * s.width_mins)).exp();
        }
        m
    }

    /// Expected (scaled) requests arriving in the minute containing `t`.
    pub fn rate_per_minute(&self, t: SimTime) -> f64 {
        let day_total = self.calendar.day_millions(t.day()) * 1.0e6 / self.scale;
        day_total * self.diurnal_mixture(t) * self.spike_multiplier(t) / 1440.0
    }

    /// The un-scaled (paper units) rate for reporting.
    pub fn rate_per_minute_paper(&self, t: SimTime) -> f64 {
        self.rate_per_minute(t) * self.scale
    }

    /// Sample a Poisson count of requests for the minute containing `t`
    /// (normal approximation above λ=50, exact inversion below).
    pub fn sample_minute_count(&self, t: SimTime, rng: &mut DeterministicRng) -> u64 {
        let lambda = self.rate_per_minute(t);
        sample_poisson(lambda, rng)
    }

    /// Sample one request at `t`.
    pub fn sample_request(&self, t: SimTime, rng: &mut DeterministicRng) -> RequestSample {
        // During a marquee spike, the surge component of the traffic comes
        // from the event's home audience.
        let region = match self.spike_home_region(t, rng) {
            Some(r) => r,
            None => {
                // Region ∝ share × its diurnal activity right now.
                let weights: Vec<f64> = Region::ALL
                    .iter()
                    .map(|&r| self.geo.share(r) * self.diurnal.multiplier(r, t))
                    .collect();
                Region::ALL[rng.weighted_index(&weights)]
            }
        };
        let page = self.sample_page(t, rng);
        let link = sample_link(rng);
        RequestSample { page, region, link }
    }

    /// If `t` falls in a biased spike window, return the home region with
    /// probability equal to the surge's share of current traffic.
    fn spike_home_region(&self, t: SimTime, rng: &mut DeterministicRng) -> Option<Region> {
        for s in &self.spikes {
            let Some(home) = s.home_region else { continue };
            let dt_min = (t.as_secs_f64() - s.at.as_secs_f64()) / 60.0;
            if dt_min.abs() < 2.0 * s.width_mins {
                let bump =
                    s.magnitude * (-(dt_min * dt_min) / (2.0 * s.width_mins * s.width_mins)).exp();
                // The surge is `bump/(1+bump)` of traffic; ~92% of it is
                // the home audience.
                if rng.chance(bump / (1.0 + bump) * 0.92) {
                    return Some(home);
                }
            }
        }
        None
    }

    /// Sample just a page at `t`.
    pub fn sample_page(&self, t: SimTime, rng: &mut DeterministicRng) -> PageKey {
        // During a spike, the surge concentrates on the marquee pages.
        for s in &self.spikes {
            let dt_min = ((t.as_secs_f64() - s.at.as_secs_f64()) / 60.0).abs();
            if dt_min < 2.0 * s.width_mins {
                let bump =
                    s.magnitude * (-(dt_min * dt_min) / (2.0 * s.width_mins * s.width_mins)).exp();
                let p_hot = bump / (1.0 + bump);
                if rng.chance(p_hot) {
                    let sport = self.marquee_sport[&s.event];
                    return match rng.index(4) {
                        0 => PageKey::Home(t.day()),
                        1 => PageKey::Event(s.event),
                        2 => PageKey::Sport(sport),
                        _ => PageKey::Medals,
                    };
                }
            }
        }
        let table = self.day_table(t.day());
        let u = rng.f64();
        let idx = match table
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => (i + 1).min(table.cdf.len() - 1),
            Err(i) => i.min(table.cdf.len() - 1),
        };
        self.registry.pages()[idx].0
    }

    /// Unnormalised per-page popularity weights on `day` (static registry
    /// weight × day-of-games modifier), in registry order. This is the
    /// distribution [`RequestModel::sample_page`] draws from outside spike
    /// windows; the `hybrid` experiment uses it to report how much request
    /// traffic the hottest fraction of pages captures.
    pub fn popularity_weights(&self, day: u32) -> Vec<(PageKey, f64)> {
        self.registry
            .pages()
            .iter()
            .map(|(key, meta)| (*key, meta.weight * day_modifier(*key, day)))
            .collect()
    }

    fn day_table(&self, day: u32) -> Arc<DayTable> {
        let mut tables = self.day_tables.lock();
        Arc::clone(tables.entry(day).or_insert_with(|| {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(self.registry.len());
            for (key, meta) in self.registry.pages() {
                acc += meta.weight * day_modifier(*key, day);
                cdf.push(acc);
            }
            assert!(acc > 0.0, "empty popularity table");
            for v in &mut cdf {
                *v /= acc;
            }
            if let Some(last) = cdf.last_mut() {
                *last = 1.0;
            }
            Arc::new(DayTable { cdf })
        }))
    }
}

/// Day-of-games popularity modulation for a page.
fn day_modifier(key: PageKey, day: u32) -> f64 {
    match key {
        // Clients overwhelmingly read the *current* day's home page; old
        // days decay fast, future days do not exist yet.
        PageKey::Home(d)
        | PageKey::NewsIndex(d)
        | PageKey::Fragment(nagano_pagegen::FragmentKey::Headlines(d)) => {
            if d > day {
                0.0
            } else {
                1.0 / (1.0 + 2.0 * (day - d) as f64).powi(2)
            }
        }
        PageKey::News(id) => {
            // News ids encode their publication day (day*1000+seq).
            let published = id.0 / 1_000;
            if published > day {
                0.0
            } else {
                1.0 / (1.0 + (day - published) as f64)
            }
        }
        _ => 1.0,
    }
}

fn sample_link(rng: &mut DeterministicRng) -> LinkClass {
    // 1998 client mix: modems dominate.
    let r = rng.f64();
    if r < 0.62 {
        LinkClass::Modem28_8
    } else if r < 0.80 {
        LinkClass::Modem56
    } else if r < 0.90 {
        LinkClass::Isdn64
    } else {
        LinkClass::T1
    }
}

/// Sample a Poisson deviate.
pub fn sample_poisson(lambda: f64, rng: &mut DeterministicRng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 50.0 {
        // Knuth inversion.
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.f64();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerical guard
            }
        }
    }
    // Normal approximation with continuity correction.
    let x = lambda + lambda.sqrt() * rng.normal() + 0.5;
    x.max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{seed_games, GamesConfig};

    fn model(scale: f64) -> (Arc<OlympicDb>, RequestModel) {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::full());
        let registry = Arc::new(PageRegistry::build(&db, 16));
        let model = RequestModel::new(&db, registry, scale);
        (db, model)
    }

    #[test]
    fn daily_totals_track_the_calendar() {
        let (_, m) = model(1000.0);
        // Integrate the rate over day 7 in 10-minute steps.
        let mut total = 0.0;
        for step in 0..144 {
            let t = SimTime::at(7, 0, 0) + nagano_simcore::SimDuration::from_mins(step * 10);
            total += m.rate_per_minute(t) * 10.0;
        }
        let expected = 56.8e6 / 1000.0;
        let err = (total - expected).abs() / expected;
        assert!(err < 0.15, "day-7 total {total:.0} vs {expected:.0}");
    }

    #[test]
    fn marquee_spikes_exist_and_peak_on_their_days() {
        let (db, m) = model(1000.0);
        assert_eq!(m.spikes().len(), 2);
        let fs = m
            .spikes()
            .iter()
            .max_by(|a, b| a.magnitude.partial_cmp(&b.magnitude).unwrap())
            .unwrap();
        assert_eq!(db.event(fs.event).unwrap().day, 14);
        assert!(m.spike_multiplier(fs.at) > 2.5);
        // Far from any spike the multiplier is ~1.
        assert!((m.spike_multiplier(SimTime::at(2, 3, 0)) - 1.0).abs() < 0.05);
    }

    #[test]
    fn peak_minute_is_on_day_14_and_dwarfs_the_average() {
        let (_, m) = model(1000.0);
        // Scan every 5 minutes of the Games for the max paper-scale rate.
        let mut peak = (SimTime::ZERO, 0.0);
        for mins in (0..16 * 1440).step_by(5) {
            let t = SimTime::from_mins(mins as u64);
            let r = m.rate_per_minute_paper(t);
            if r > peak.1 {
                peak = (t, r);
            }
        }
        assert_eq!(peak.0.day(), 14, "peak at {}", peak.0);
        // Paper: 110,414 hits in the peak minute.
        assert!(
            (80_000.0..150_000.0).contains(&peak.1),
            "peak rate {:.0}",
            peak.1
        );
    }

    #[test]
    fn page_sampling_prefers_current_home_page() {
        let (_, m) = model(1000.0);
        let mut rng = DeterministicRng::seed_from_u64(4);
        let t = SimTime::at(5, 12, 0);
        let mut home_today = 0;
        let mut home_old = 0;
        let n = 20_000;
        for _ in 0..n {
            match m.sample_page(t, &mut rng) {
                PageKey::Home(5) => home_today += 1,
                PageKey::Home(_) => home_old += 1,
                _ => {}
            }
        }
        assert!(
            home_today > home_old * 3,
            "today {home_today} old {home_old}"
        );
        assert!(home_today as f64 / n as f64 > 0.10);
    }

    #[test]
    fn future_pages_are_never_requested() {
        let (_, m) = model(1000.0);
        let mut rng = DeterministicRng::seed_from_u64(9);
        let t = SimTime::at(3, 15, 0);
        for _ in 0..5_000 {
            match m.sample_page(t, &mut rng) {
                PageKey::Home(d) | PageKey::NewsIndex(d) => assert!(d <= 3, "future day {d}"),
                _ => {}
            }
        }
    }

    #[test]
    fn spike_traffic_concentrates_on_marquee_pages() {
        let (db, m) = model(1000.0);
        let fs = m.spikes()[m
            .spikes()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.magnitude.partial_cmp(&b.1.magnitude).unwrap())
            .unwrap()
            .0];
        let mut rng = DeterministicRng::seed_from_u64(12);
        let mut marquee_hits = 0;
        let n = 10_000;
        let sport = db.event(fs.event).unwrap().sport;
        for _ in 0..n {
            match m.sample_page(fs.at, &mut rng) {
                PageKey::Event(e) if e == fs.event => marquee_hits += 1,
                PageKey::Sport(s) if s == sport => marquee_hits += 1,
                PageKey::Home(14) | PageKey::Medals => marquee_hits += 1,
                _ => {}
            }
        }
        assert!(
            marquee_hits as f64 / n as f64 > 0.5,
            "marquee share {}",
            marquee_hits as f64 / n as f64
        );
    }

    #[test]
    fn request_samples_cover_regions_and_links() {
        use rustc_hash::FxHashSet;
        let (_, m) = model(1000.0);
        let mut rng = DeterministicRng::seed_from_u64(2);
        let mut regions = FxHashSet::default();
        let mut links = FxHashSet::default();
        for _ in 0..5_000 {
            let s = m.sample_request(SimTime::at(6, 20, 0), &mut rng);
            regions.insert(s.region);
            links.insert(s.link);
        }
        assert!(regions.len() >= 5);
        assert!(links.len() >= 3);
    }

    #[test]
    fn poisson_sampler_moments() {
        let mut rng = DeterministicRng::seed_from_u64(77);
        for &lambda in &[3.0, 40.0, 500.0] {
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| sample_poisson(lambda, &mut rng) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < lambda * 0.05 + 0.5,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn minute_counts_follow_the_rate() {
        let (_, m) = model(100.0);
        let mut rng = DeterministicRng::seed_from_u64(31);
        let t = SimTime::at(7, 20, 0);
        let lambda = m.rate_per_minute(t);
        let n = 200;
        let mean: f64 = (0..n)
            .map(|_| m.sample_minute_count(t, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - lambda).abs() / lambda < 0.05,
            "mean {mean} λ {lambda}"
        );
    }
}
