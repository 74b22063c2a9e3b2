//! The consistency policies the simulation runs at each complex's trigger
//! monitor: the two a serving site runs too, and the two that only the
//! simulation can, because they need its request clock ([`Hybrid`]) or
//! exist to be compared against (the 1996 baseline). [`crate::monitor`]
//! drives them over the monitor's steps.
//!
//! [`Hybrid`]: ConsistencyPolicy::Hybrid

/// Parameters for [`ConsistencyPolicy::Hybrid`].
///
/// Both knobs are integers so the policy stays `Eq + Hash` (experiment
/// memoisation keys on the full policy value) and so two same-seed runs
/// can never disagree over a float parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// Hot fraction in permille (0..=1000): the share of *tracked* pages
    /// treated as hot. 1000 behaves like `UpdateInPlace`, 0 like
    /// `Invalidate`.
    pub hot_permille: u16,
    /// Per-batch regeneration budget in milliseconds of modeled render
    /// cost; [`HybridConfig::UNBOUNDED`] disables the budget. Hot pages
    /// past the budget go to the deferred queue instead of being dropped.
    pub regen_budget_ms: u32,
}

impl HybridConfig {
    /// Sentinel for "no budget" (every hot page regenerates in-batch).
    pub const UNBOUNDED: u32 = u32::MAX;

    /// Build from a hot fraction in `[0.0, 1.0]` and an optional budget.
    pub fn new(hot_fraction: f64, regen_budget_ms: Option<u32>) -> Self {
        let permille = (hot_fraction.clamp(0.0, 1.0) * 1000.0).round() as u16;
        HybridConfig {
            hot_permille: permille,
            regen_budget_ms: regen_budget_ms.unwrap_or(Self::UNBOUNDED),
        }
    }

    /// The hot fraction as a float in `[0.0, 1.0]`.
    pub fn hot_fraction(self) -> f64 {
        self.hot_permille.min(1000) as f64 / 1000.0
    }

    /// The budget in milliseconds, `None` if unbounded.
    pub fn budget_ms(self) -> Option<f64> {
        (self.regen_budget_ms != Self::UNBOUNDED).then_some(self.regen_budget_ms as f64)
    }
}

/// What a complex does with the pages its trigger monitor marks stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConsistencyPolicy {
    /// Regenerate stale pages immediately and update them in place in
    /// the serving cache — the 1998 production policy. Hot pages are
    /// never invalidated, so they never miss.
    #[default]
    UpdateInPlace,
    /// Invalidate exactly the stale pages (precise DUP); the next request
    /// pays the regeneration cost.
    Invalidate,
    /// Hotness-aware split (DESIGN.md §12): regenerate stale pages
    /// hottest-first under a per-batch budget, invalidate the cold tail,
    /// defer in-budget overflow to a bounded queue drained on later sim
    /// ticks. The paper's "frequently accessed obsolete objects are
    /// generally updated in the cache in place" made precise.
    Hybrid(HybridConfig),
    /// The 1996 baseline: no precise dependence information, so entire
    /// content sections are invalidated on any change that touches them.
    /// Preserves consistency but causes high post-update miss rates
    /// (~80% overall hit rate at the 1996 site).
    Conservative96,
}

impl ConsistencyPolicy {
    /// Convenience constructor for [`ConsistencyPolicy::Hybrid`].
    pub fn hybrid(hot_fraction: f64, regen_budget_ms: Option<u32>) -> Self {
        ConsistencyPolicy::Hybrid(HybridConfig::new(hot_fraction, regen_budget_ms))
    }

    /// Short identifier used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ConsistencyPolicy::UpdateInPlace => "dup-update-in-place",
            ConsistencyPolicy::Invalidate => "dup-invalidate",
            ConsistencyPolicy::Hybrid(_) => "dup-hybrid",
            ConsistencyPolicy::Conservative96 => "conservative-96",
        }
    }

    /// Filesystem-safe identifier that distinguishes differently
    /// parameterised `Hybrid` policies (export directories must not
    /// collide between sweep points).
    pub fn slug(self) -> String {
        match self {
            ConsistencyPolicy::Hybrid(cfg) => {
                let budget = match cfg.budget_ms() {
                    Some(ms) => format!("{}ms", ms as u64),
                    None => "unbounded".to_string(),
                };
                format!("dup-hybrid-{:04}p-{budget}", cfg.hot_permille)
            }
            other => other.label().to_string(),
        }
    }

    /// The policy the trigger monitor composes itself: the two a serving
    /// site runs. Under the other two [`crate::monitor::SiteMonitor`]
    /// drives the monitor's steps and never asks it to compose them.
    pub fn on_monitor(self) -> nagano_trigger::ConsistencyPolicy {
        match self {
            ConsistencyPolicy::Invalidate => nagano_trigger::ConsistencyPolicy::Invalidate,
            _ => nagano_trigger::ConsistencyPolicy::UpdateInPlace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        use std::collections::BTreeSet;
        let labels: BTreeSet<&str> = [
            ConsistencyPolicy::UpdateInPlace,
            ConsistencyPolicy::Invalidate,
            ConsistencyPolicy::hybrid(0.5, None),
            ConsistencyPolicy::Conservative96,
        ]
        .into_iter()
        .map(|p| p.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn hybrid_config_round_trips() {
        let cfg = HybridConfig::new(0.25, Some(400));
        assert_eq!(cfg.hot_permille, 250);
        assert_eq!(cfg.hot_fraction(), 0.25);
        assert_eq!(cfg.budget_ms(), Some(400.0));
        let unbounded = HybridConfig::new(1.0, None);
        assert_eq!(unbounded.hot_permille, 1000);
        assert_eq!(unbounded.budget_ms(), None);
        // Out-of-range fractions clamp rather than wrap.
        assert_eq!(HybridConfig::new(7.0, None).hot_permille, 1000);
        assert_eq!(HybridConfig::new(-1.0, None).hot_permille, 0);
    }

    #[test]
    fn slugs_distinguish_hybrid_parameterisations() {
        use std::collections::BTreeSet;
        let slugs: BTreeSet<String> = [
            ConsistencyPolicy::UpdateInPlace,
            ConsistencyPolicy::Invalidate,
            ConsistencyPolicy::hybrid(0.25, Some(400)),
            ConsistencyPolicy::hybrid(0.5, Some(400)),
            ConsistencyPolicy::hybrid(0.5, None),
            ConsistencyPolicy::Conservative96,
        ]
        .into_iter()
        .map(|p| p.slug())
        .collect();
        assert_eq!(slugs.len(), 6);
        assert_eq!(
            ConsistencyPolicy::hybrid(0.5, Some(400)).slug(),
            "dup-hybrid-0500p-400ms"
        );
        assert_eq!(
            ConsistencyPolicy::UpdateInPlace.slug(),
            "dup-update-in-place"
        );
    }

    #[test]
    fn default_is_the_1998_policy() {
        assert_eq!(
            ConsistencyPolicy::default(),
            ConsistencyPolicy::UpdateInPlace
        );
        assert_eq!(
            ConsistencyPolicy::default().on_monitor(),
            nagano_trigger::ConsistencyPolicy::default()
        );
    }
}
