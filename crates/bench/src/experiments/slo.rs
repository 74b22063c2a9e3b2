//! Freshness SLO sweep across propagation policies (DESIGN.md §9).
//!
//! §2 of the paper claims updated pages become consistent "within a
//! matter of seconds" after a trigger fires. The `slo` experiment turns
//! that promise into service-level objectives and evaluates them per
//! policy: each 16-day run carries the default freshness rules
//! ([`ClusterConfig::default_slo_rules`]), and update-lineage tracing
//! additionally measures **update-to-serve** latency — commit to the
//! first request that observes the refreshed page at each site — whose
//! percentiles come straight from the trace trees' root-to-leaf spans.

use serde_json::json;

use nagano_cluster::ClusterConfig;
use nagano_cluster::ConsistencyPolicy;

use crate::fmt::TextTable;
use crate::{ExpConfig, ExpResult};

/// Per-batch regeneration budget for the Hybrid points, matching the
/// `hybrid` experiment sweep.
const BUDGET_MS: u32 = 400;

/// The policies compared, in table order.
fn policies() -> Vec<(&'static str, ConsistencyPolicy)> {
    vec![
        ("update-in-place", ConsistencyPolicy::UpdateInPlace),
        ("invalidate", ConsistencyPolicy::Invalidate),
        (
            "hybrid 0.25",
            ConsistencyPolicy::hybrid(0.25, Some(BUDGET_MS)),
        ),
        (
            "hybrid 0.50",
            ConsistencyPolicy::hybrid(0.5, Some(BUDGET_MS)),
        ),
        (
            "hybrid 0.75",
            ConsistencyPolicy::hybrid(0.75, Some(BUDGET_MS)),
        ),
    ]
}

/// Evaluate the freshness SLOs and lineage-derived update-to-serve
/// percentiles for every policy.
pub fn slo(config: &ExpConfig) -> ExpResult {
    let rules: Vec<String> = ClusterConfig::default_slo_rules()
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut table = TextTable::new([
        "policy",
        "u2s p50 (s)",
        "u2s p95 (s)",
        "u2s p99 (s)",
        "u2s p99.9 (s)",
        "fresh p99 (s)",
        "SLO",
        "alerts",
    ]);
    let mut json_rows = Vec::new();
    let mut all_pass = true;
    let mut leaves = 0u64;
    let mut worst_p99 = 0.0f64;
    for (label, policy) in policies() {
        let report = super::report_for_policy(config, policy);
        let u2s = &report.update_to_serve;
        leaves += u2s.count();
        worst_p99 = worst_p99.max(u2s.percentile(99.0));
        let passed = report.slo.iter().filter(|o| o.pass).count();
        let alerts: usize = report.slo.iter().map(|o| o.alerts.len()).sum();
        all_pass &= passed == report.slo.len();
        table.row([
            label.to_string(),
            format!("{:.1}", u2s.percentile(50.0)),
            format!("{:.1}", u2s.percentile(95.0)),
            format!("{:.1}", u2s.percentile(99.0)),
            format!("{:.1}", u2s.percentile(99.9)),
            format!("{:.1}", report.freshness_hist.percentile(99.0)),
            format!("{passed}/{}", report.slo.len()),
            alerts.to_string(),
        ]);
        json_rows.push(json!({
            "policy": label,
            "slug": policy.slug(),
            "update_to_serve_count": u2s.count(),
            "update_to_serve_p50_secs": u2s.percentile(50.0),
            "update_to_serve_p95_secs": u2s.percentile(95.0),
            "update_to_serve_p99_secs": u2s.percentile(99.0),
            "update_to_serve_p999_secs": u2s.percentile(99.9),
            "freshness_p50_secs": report.freshness_hist.percentile(50.0),
            "freshness_p99_secs": report.freshness_hist.percentile(99.0),
            "slo": report.slo.iter().map(|o| json!({
                "rule": o.rule.name,
                "observed": o.observed,
                "target": o.target,
                "count": o.count,
                "pass": o.pass,
                "alerts": o.alerts.len(),
            })).collect::<Vec<_>>(),
        }));
    }

    let verdict = format!(
        "Paper §2: triggered page updates reach the caches within a matter of seconds, so \
         every policy should hold the freshness objectives ({}).\n\
         Measured: {} lineage-traced first-fresh-hit leaves across 5 policies; worst-case \
         update-to-serve p99 {:.1} s; SLO verdicts {}.\n\
         Note: update-to-serve closes at the first *request* for the refreshed page, so its \
         tail measures audience interest in cold pages; cache-side freshness (propagation \
         alone) is the seconds-scale column the SLOs gate.",
        rules.join("; "),
        leaves,
        worst_p99,
        if all_pass {
            "hold for every policy"
        } else {
            "FAILED"
        }
    );
    ExpResult {
        id: "slo",
        title: "Freshness SLOs and lineage-derived update-to-serve latency by policy",
        rendered: table.render(),
        json: json!({
            "rules": rules,
            "budget_ms": BUDGET_MS,
            "rows": json_rows,
            "checks": json!({ "all_policies_pass": all_pass }),
        }),
        verdict,
    }
}
