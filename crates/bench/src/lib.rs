//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a function from an [`ExpConfig`] to an
//! [`ExpResult`] (a printable table plus machine-readable JSON). The
//! `reproduce` binary runs them by id:
//!
//! ```text
//! cargo run --release -p nagano-bench --bin reproduce -- all
//! cargo run --release -p nagano-bench --bin reproduce -- fig20 hitrate
//! ```
//!
//! | id | paper artifact |
//! |---|---|
//! | `fig18` | hits by hour per serving location |
//! | `fig20` | hits by day (millions) |
//! | `fig21` | traffic in billions of bytes per day |
//! | `fig22` | response times by day and region |
//! | `fig23` | request breakdown by geography |
//! | `table1` | response comparison, non-US sites |
//! | `table2` | response comparison, US sites |
//! | `hitrate` | DUP/prefetch ≈100% vs 1996 baseline ≈80% |
//! | `throughput` | static vs cached-dynamic vs uncached-dynamic service rates |
//! | `peak` | peak minute + Tokyo ski-jump moment |
//! | `odg` | DUP propagation scaling + the 128-page update |
//! | `memory` | single-copy cache footprint |
//! | `avail` | availability under escalating failures |
//! | `fresh` | update-to-visible latency |
//! | `nav` | 1996 vs 1998 page-structure navigation cost |
//! | `regen` | pages regenerated per day |
//! | `hybrid` | hotness-aware hybrid propagation sweep (regen CPU vs weighted staleness) |
//! | `slo` | freshness SLO verdicts + lineage-derived update-to-serve percentiles by policy |
//! | `staleness` | ablation: weighted staleness threshold |
//! | `batching` | ablation: coalesced trigger processing |
//! | `shift` | ablation: MSIRP 8⅓% traffic shifting |
//! | `mix` | supplementary: request share by content category |
//! | `contention` | 1996 co-located updates vs 1998 separation |
//! | `soak` | random-failure soak across the Games (availability) |
//! | `chaos` | data-plane fault injection: scripted lossy/partitioned links + monitor crashes |
//! | `resilience` | serving-plane fault injection: render slowdown, backend outages, cache cold-restart |
//! | `summary` | one-screen headline scoreboard |

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;

use serde_json::Value;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Divide paper-scale request volumes by this.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Quick mode: smaller datasets / shorter windows, for CI and tests.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1_000.0,
            seed: 0x1998,
            quick: false,
        }
    }
}

impl ExpConfig {
    /// The fast configuration used by integration tests.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 20_000.0,
            seed: 0x1998,
            quick: true,
        }
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Experiment id (e.g. `fig20`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The rendered table/chart text.
    pub rendered: String,
    /// Machine-readable values.
    pub json: Value,
    /// Comparison note: paper-reported vs measured.
    pub verdict: String,
}

impl ExpResult {
    /// Full printable block.
    pub fn display(&self) -> String {
        format!(
            "==== {} — {} ====\n{}\n{}\n",
            self.id, self.title, self.rendered, self.verdict
        )
    }
}

/// All experiment ids in canonical order.
pub const ALL_EXPERIMENTS: [&str; 27] = [
    "fig18",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "table1",
    "table2",
    "hitrate",
    "throughput",
    "peak",
    "odg",
    "memory",
    "avail",
    "fresh",
    "nav",
    "regen",
    "hybrid",
    "slo",
    "staleness",
    "batching",
    "shift",
    "mix",
    "contention",
    "soak",
    "chaos",
    "resilience",
    "summary",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, config: &ExpConfig) -> Option<ExpResult> {
    use experiments as e;
    Some(match id {
        "fig18" => e::figures::fig18(config),
        "fig20" => e::figures::fig20(config),
        "fig21" => e::figures::fig21(config),
        "fig22" => e::figures::fig22(config),
        "fig23" => e::figures::fig23(config),
        "table1" => e::tables::table1(config),
        "table2" => e::tables::table2(config),
        "hitrate" => e::caching::hitrate(config),
        "throughput" => e::caching::throughput(config),
        "peak" => e::systems::peak(config),
        "odg" => e::caching::odg_scaling(config),
        "memory" => e::caching::memory(config),
        "avail" => e::systems::avail(config),
        "fresh" => e::systems::fresh(config),
        "nav" => e::systems::nav(config),
        "regen" => e::systems::regen(config),
        "hybrid" => e::hybrid::hybrid(config),
        "slo" => e::slo::slo(config),
        "staleness" => e::ablations::staleness(config),
        "batching" => e::ablations::batching(config),
        "shift" => e::ablations::shift(config),
        "mix" => e::ablations::mix(config),
        "contention" => e::systems::contention(config),
        "soak" => e::systems::soak(config),
        "chaos" => e::systems::chaos(config),
        "resilience" => e::systems::resilience(config),
        "summary" => e::systems::summary(config),
        _ => return None,
    })
}
