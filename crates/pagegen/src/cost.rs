//! The page generation cost model.
//!
//! §2: "A static page typically requires 2 to 10 milliseconds of CPU time
//! to generate. By contrast, a dynamic page can consume several orders of
//! magnitude more CPU time" (the paper's reference \[8\]). Costs here are
//! *modelled* CPU milliseconds used by the simulation; when a benchmark
//! needs to burn real CPU (the server-throughput experiment) it calls
//! [`spin_for`] with a scale factor.

use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::key::{FragmentKey, PageKey};

/// Deterministic per-page CPU cost model (milliseconds).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Multiplier applied to every dynamic cost (1.0 = paper-calibrated).
    pub dynamic_scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { dynamic_scale: 1.0 }
    }
}

impl CostModel {
    /// Paper-calibrated model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Static page cost: deterministically jittered in the paper's
    /// 2–10 ms band, keyed by the page identity.
    pub fn static_cost_ms(&self, key: PageKey) -> f64 {
        // Cheap deterministic hash → [0, 1).
        let h = url_hash(key);
        2.0 + 8.0 * (h % 1024) as f64 / 1024.0
    }

    /// Generation cost of a page in modelled CPU milliseconds.
    ///
    /// Composed pages (home) are the most expensive; fragments the
    /// cheapest dynamic objects. All dynamic costs are 10–100× the static
    /// band, matching the "orders of magnitude" claim.
    pub fn cost_ms(&self, key: PageKey) -> f64 {
        if !key.is_dynamic() {
            return self.static_cost_ms(key);
        }
        let base = match key {
            PageKey::Home(_) => 400.0,
            PageKey::Medals => 150.0,
            PageKey::Sport(_) => 200.0,
            PageKey::Event(_) => 150.0,
            PageKey::Country(_) => 180.0,
            PageKey::Athlete(_) => 120.0,
            PageKey::News(_) => 80.0,
            PageKey::NewsIndex(_) => 120.0,
            PageKey::Fragment(FragmentKey::ResultTable(_)) => 60.0,
            PageKey::Fragment(FragmentKey::MedalTable) => 70.0,
            PageKey::Fragment(FragmentKey::Headlines(_)) => 50.0,
            // Static variants handled above.
            PageKey::Welcome | PageKey::Nagano | PageKey::Fun | PageKey::Venue(_) => {
                unreachable!("static pages handled above")
            }
        };
        // ±20% deterministic jitter so pages of one family differ.
        let h = url_hash(key);
        let jitter = 0.8 + 0.4 * (h % 4096) as f64 / 4096.0;
        base * jitter * self.dynamic_scale
    }

    /// Cost of serving a page straight from the cache (a hash lookup plus
    /// a buffer hand-off — the paper serves cached dynamic pages "at
    /// roughly the same rates as static pages").
    pub fn cache_hit_cost_ms(&self) -> f64 {
        0.5
    }
}

thread_local! {
    /// The buffer a page's URL is spelled into to be hashed, one per
    /// thread: cleared, never freed, so a cost lookup allocates nothing
    /// once the thread's longest URL has grown it.
    static URL: Cell<String> = const { Cell::new(String::new()) };
}

/// The hash of `key`'s URL, the bytes [`PageKey::push_url`] writes.
fn url_hash(key: PageKey) -> u64 {
    let mut url = URL.take();
    url.clear();
    key.push_url(&mut url);
    let h = fxhash_key(&url);
    URL.set(url);
    h
}

fn fxhash_key(s: &str) -> u64 {
    // FxHash-style multiply-xor fold; deterministic across runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Burn approximately `ms * scale` milliseconds of real CPU. Used by the
/// throughput benches to make "expensive dynamic generation" physically
/// real without sleeping (sleep would free the core and overstate
/// capacity).
pub fn spin_for(ms: f64, scale: f64) -> u64 {
    let budget = Duration::from_secs_f64((ms * scale / 1_000.0).max(0.0));
    #[expect(
        clippy::disallowed_methods,
        reason = "burning real CPU is this function's purpose; only benches call it"
    )]
    let start = Instant::now();
    let mut acc: u64 = 0;
    while start.elapsed() < budget {
        for i in 0..512u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        black_box(acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{AthleteId, EventId, SportId};

    #[test]
    fn static_costs_in_paper_band() {
        let m = CostModel::new();
        for key in [
            PageKey::Welcome,
            PageKey::Nagano,
            PageKey::Fun,
            PageKey::Venue(SportId(3)),
        ] {
            let c = m.cost_ms(key);
            assert!((2.0..10.0).contains(&c), "static cost {c}");
        }
    }

    #[test]
    fn dynamic_costs_are_orders_of_magnitude_higher() {
        let m = CostModel::new();
        let static_max = 10.0;
        for key in [
            PageKey::Home(3),
            PageKey::Event(EventId(5)),
            PageKey::Athlete(AthleteId(9)),
            PageKey::Medals,
        ] {
            let c = m.cost_ms(key);
            assert!(c >= static_max * 4.0, "dynamic cost {c} for {key}");
        }
        // Home is the most expensive family.
        assert!(m.cost_ms(PageKey::Home(3)) > m.cost_ms(PageKey::Athlete(AthleteId(9))));
    }

    #[test]
    fn costs_are_deterministic() {
        let m = CostModel::new();
        assert_eq!(m.cost_ms(PageKey::Home(7)), m.cost_ms(PageKey::Home(7)));
        // Different pages of one family differ (jitter).
        assert_ne!(m.cost_ms(PageKey::Home(7)), m.cost_ms(PageKey::Home(8)));
    }

    #[test]
    fn scale_multiplies_dynamic_only() {
        let base = CostModel::new();
        let scaled = CostModel { dynamic_scale: 2.0 };
        let k = PageKey::Event(EventId(1));
        assert!((scaled.cost_ms(k) / base.cost_ms(k) - 2.0).abs() < 1e-12);
        assert_eq!(
            scaled.cost_ms(PageKey::Welcome),
            base.cost_ms(PageKey::Welcome)
        );
    }

    #[test]
    fn cache_hit_is_static_class_or_cheaper() {
        let m = CostModel::new();
        assert!(m.cache_hit_cost_ms() <= 2.0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock is what this test measures"
    )]
    fn spin_for_burns_roughly_the_budget() {
        let start = std::time::Instant::now();
        spin_for(20.0, 1.0);
        let elapsed = start.elapsed().as_secs_f64() * 1_000.0;
        assert!(elapsed >= 18.0, "elapsed {elapsed}ms");
        // Zero budget returns promptly.
        let start = std::time::Instant::now();
        spin_for(0.0, 1.0);
        assert!(start.elapsed().as_millis() < 50);
    }
}
