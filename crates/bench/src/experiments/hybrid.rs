//! Hotness-aware hybrid propagation sweep (DESIGN.md §12).
//!
//! §2 of the paper: "frequently accessed obsolete pages are generally
//! updated in place", while colder pages can simply be invalidated. The
//! `hybrid` experiment sweeps the hot fraction from pure invalidation (0)
//! to pure update-in-place (1) and reports the trade the scheduler makes:
//! regeneration CPU spent vs traffic-weighted staleness vs hit ratio.

use std::sync::Arc;

use serde_json::json;

use nagano_cluster::ConsistencyPolicy;
use nagano_db::{seed_games, OlympicDb};
use nagano_pagegen::PageRegistry;
use nagano_workload::RequestModel;

use crate::fmt::TextTable;
use crate::{ExpConfig, ExpResult};

/// Per-batch regeneration budget (ms of modeled render cost) used across
/// the sweep; overflow beyond it goes to the deferred queue.
const BUDGET_MS: u32 = 400;

/// The hot fractions swept, in experiment order.
const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Mid-Games day used for the static traffic-capture column.
const CAPTURE_DAY: u32 = 8;

/// Share (%) of request traffic the hottest `fraction` of pages captures,
/// from the workload popularity table — the Zipf-like concentration that
/// makes a small hot set worth regenerating eagerly.
fn traffic_capture(weights: &[f64], fraction: f64) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let hot_count = (weights.len() as f64 * fraction).round() as usize;
    let hot: f64 = weights.iter().take(hot_count).sum();
    // An empty f64 sum is -0.0 (and `max` may keep either zero);
    // normalise so fraction 0 prints as plain 0.0.
    let pct = hot / total * 100.0;
    if pct == 0.0 {
        0.0
    } else {
        pct
    }
}

/// The comparison fields of a pure-policy reference run.
fn reference_json(report: &nagano_cluster::ClusterReport) -> serde_json::Value {
    json!({
        "regen_cpu_ms": report.regen_cpu_ms,
        "regen_saved_ms": report.regen_saved_ms,
        "weighted_staleness_sum_secs": report.weighted_staleness_sum_secs,
        "hit_rate": report.hit_rate(),
    })
}

/// Sweep `hot_fraction` ∈ {0, ¼, ½, ¾, 1} at a fixed per-batch budget and
/// compare against the pure policies.
pub fn hybrid(config: &ExpConfig) -> ExpResult {
    // Popularity concentration from the workload model (no simulation).
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &super::games_for(config));
    let registry = Arc::new(PageRegistry::build(&db, 16));
    let model = RequestModel::new(&db, registry, config.scale.max(1.0));
    let mut weights: Vec<f64> = model
        .popularity_weights(CAPTURE_DAY)
        .into_iter()
        .map(|(_, w)| w)
        .collect();
    weights.sort_by(|a, b| b.total_cmp(a));

    let mut table = TextTable::new([
        "hot fraction",
        "traffic captured (%)",
        "regen CPU (ms)",
        "regen saved (ms)",
        "weighted staleness (req·s)",
        "stale requests",
        "hit rate (%)",
    ]);
    let mut json_rows = Vec::new();
    let mut sweep = Vec::new();
    for f in FRACTIONS {
        let policy = ConsistencyPolicy::hybrid(f, Some(BUDGET_MS));
        let report = super::report_for_policy(config, policy);
        let capture = traffic_capture(&weights, f);
        table.row([
            format!("{f:.2}"),
            format!("{capture:.1}"),
            report.regen_cpu_ms.to_string(),
            report.regen_saved_ms.to_string(),
            format!("{:.0}", report.weighted_staleness_sum_secs),
            report.weighted_staleness_samples.to_string(),
            format!("{:.2}", report.hit_rate() * 100.0),
        ]);
        json_rows.push(json!({
            "hot_fraction": f,
            "traffic_captured_pct": capture,
            "regen_cpu_ms": report.regen_cpu_ms,
            "regen_saved_ms": report.regen_saved_ms,
            "weighted_staleness_sum_secs": report.weighted_staleness_sum_secs,
            "weighted_staleness_samples": report.weighted_staleness_samples,
            "hit_rate": report.hit_rate(),
        }));
        sweep.push(report);
    }

    let uip = super::report_for_policy(config, ConsistencyPolicy::UpdateInPlace);
    let inv = super::report_for_policy(config, ConsistencyPolicy::Invalidate);
    for (label, report) in [("update-in-place", &uip), ("invalidate", &inv)] {
        table.row([
            format!("{label} (ref)"),
            "-".to_string(),
            report.regen_cpu_ms.to_string(),
            report.regen_saved_ms.to_string(),
            format!("{:.0}", report.weighted_staleness_sum_secs),
            report.weighted_staleness_samples.to_string(),
            format!("{:.2}", report.hit_rate() * 100.0),
        ]);
    }

    let h05 = &sweep[2];
    let cpu_below_uip = h05.regen_cpu_ms < uip.regen_cpu_ms;
    let staleness_below_invalidate =
        h05.weighted_staleness_sum_secs < inv.weighted_staleness_sum_secs;
    let cpu_cut = (1.0 - h05.regen_cpu_ms as f64 / uip.regen_cpu_ms.max(1) as f64) * 100.0;
    let verdict = format!(
        "Paper §2: frequently accessed obsolete pages are updated in place while colder \
         pages may simply be invalidated.\n\
         Measured: at hot_fraction 0.5 (budget {BUDGET_MS} ms/batch) the scheduler spends \
         {:.0}% less regeneration CPU than update-in-place ({} vs {} ms) while keeping \
         traffic-weighted staleness at {:.0} request-seconds vs pure invalidation's {:.0} — \
         acceptance checks {}.",
        cpu_cut,
        h05.regen_cpu_ms,
        uip.regen_cpu_ms,
        h05.weighted_staleness_sum_secs,
        inv.weighted_staleness_sum_secs,
        if cpu_below_uip && staleness_below_invalidate {
            "hold"
        } else {
            "FAILED"
        }
    );
    ExpResult {
        id: "hybrid",
        title: "Hotness-aware hybrid propagation: regen CPU vs weighted staleness",
        rendered: table.render(),
        json: json!({
            "budget_ms": BUDGET_MS,
            "capture_day": CAPTURE_DAY,
            "rows": json_rows,
            "reference": json!({
                "update_in_place": reference_json(&uip),
                "invalidate": reference_json(&inv),
            }),
            "checks": json!({
                "cpu_below_uip": cpu_below_uip,
                "staleness_below_invalidate": staleness_below_invalidate,
            }),
        }),
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::traffic_capture;

    #[test]
    fn capture_endpoints_and_monotonicity() {
        let w = [3.0, 2.0, 1.0, 0.0];
        assert_eq!(traffic_capture(&w, 0.0), 0.0);
        assert_eq!(traffic_capture(&w, 1.0), 100.0);
        assert!(traffic_capture(&w, 0.5) > traffic_capture(&w, 0.25));
        assert_eq!(traffic_capture(&[], 0.5), 0.0);
    }
}
