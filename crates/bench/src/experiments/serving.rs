//! Real-TCP serving hot-path benchmark (DESIGN.md §13).
//!
//! Boots a prewarmed [`ServingSite`] behind `nagano-httpd` and drives it
//! with the open-loop load harness ([`crate::loadgen`]): a paced run
//! (latency percentiles at a fixed arrival rate) and a closed-loop run
//! (capacity: every connection issues its schedule back-to-back). Full
//! mode adds a worker-count sweep.
//!
//! The request **schedule** is seed-deterministic and fingerprinted, and
//! it is all the committed `BENCH_serving.json` carries: CI checks that
//! the benchmark still describes today's workload. The wall-clock figures
//! of one short run on a shared machine are noise, so they are printed in
//! the table and recorded nowhere; measured serving numbers are
//! `BENCHMARK.json`'s (`benchmark/`, DESIGN.md §13a).

use std::sync::Arc;

use serde_json::json;

use nagano::{ServingSite, SiteConfig};
use nagano_httpd::ServerConfig;
use nagano_workload::RequestModel;

use crate::fmt::TextTable;
use crate::loadgen::{execute, LoadPlan, PlanConfig, RunReport};
use crate::{ExpConfig, ExpResult};

/// Mid-Games day whose popularity table shapes the page mix.
const DAY: u32 = 8;

/// Fraction of requests that revalidate with `If-None-Match`.
const INM_FRACTION: f64 = 0.3;

/// Worker counts swept in full mode (closed loop).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct RunReports {
    latency: RunReport,
    capacity: RunReport,
}

/// Boot a site behind `workers` server threads and run both plans
/// against it.
fn run_plans(
    config: &ExpConfig,
    workers: usize,
    warmup_plan: &LoadPlan,
    latency_plan: &LoadPlan,
    capacity_plan: &LoadPlan,
) -> RunReports {
    let site = Arc::new(ServingSite::build(if config.quick {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    }));
    let server_cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = site
        .serve_http("127.0.0.1:0", 0, server_cfg)
        .expect("bind benchmark server");
    // Unmeasured warmup: fault in code paths, allocator arenas, and the
    // kernel's accept/connection state before the paced run.
    let _ = execute(warmup_plan, server.addr());
    let latency = execute(latency_plan, server.addr());
    let capacity = execute(capacity_plan, server.addr());
    server.shutdown();
    RunReports { latency, capacity }
}

/// The servable-page popularity table for the benchmark day.
fn popularity_pages(config: &ExpConfig) -> Vec<(String, f64)> {
    let site = ServingSite::build(if config.quick {
        let mut c = SiteConfig::small();
        c.prewarm = false;
        c
    } else {
        let mut c = SiteConfig::full();
        c.prewarm = false;
        c
    });
    let model = RequestModel::new(
        site.db(),
        Arc::clone(site.registry()),
        config.scale.max(1.0),
    );
    model
        .popularity_weights(DAY)
        .into_iter()
        .map(|(key, w)| (key.to_url(), w))
        .collect()
}

/// Serving benchmark over real TCP.
pub fn serving(config: &ExpConfig) -> ExpResult {
    let pages = popularity_pages(config);
    // Connection count stays modest: the harness and server share the
    // machine, and drowning a small core count in client threads
    // measures the scheduler, not the serving path.
    let (connections, rate_rps, duration_secs) = if config.quick {
        (4, 2_000.0, 0.5)
    } else {
        (4, 4_000.0, 3.0)
    };
    let latency_plan = LoadPlan::generate(
        PlanConfig {
            seed: config.seed,
            connections,
            rate_rps,
            duration_secs,
            inm_fraction: INM_FRACTION,
            closed_loop: false,
        },
        &pages,
    );
    let capacity_plan = LoadPlan::generate(
        PlanConfig {
            closed_loop: true,
            ..latency_plan.config.clone()
        },
        &pages,
    );
    let warmup_plan = LoadPlan::generate(
        PlanConfig {
            seed: config.seed ^ 0x5743, // distinct stream, same shape
            duration_secs: 0.1,
            closed_loop: true,
            ..latency_plan.config.clone()
        },
        &pages,
    );
    let workers = ServerConfig::from_env().workers;
    let run = run_plans(config, workers, &warmup_plan, &latency_plan, &capacity_plan);

    let mut table = TextTable::new([
        "run",
        "rps",
        "rps/core",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "p99.9 (ms)",
        "304 (%)",
        "shed (%)",
        "errors",
    ]);
    let mut row = |label: &str, r: &RunReport| {
        table.row([
            label.to_string(),
            format!("{:.0}", r.rps),
            format!("{:.0}", r.per_core_rps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.3}", r.p999_ms),
            format!("{:.1}", 100.0 * r.not_modified_ratio()),
            format!("{:.1}", 100.0 * r.shed_rate()),
            r.errors.to_string(),
        ]);
    };
    row(&format!("paced, {workers} workers"), &run.latency);
    row(&format!("capacity, {workers} workers"), &run.capacity);
    let mut errors = run.latency.errors + run.capacity.errors;

    // Worker sweep: capacity as server threads scale (full mode only —
    // the quick CI run keeps to the one shape).
    if !config.quick {
        for w in WORKER_SWEEP {
            let m = run_plans(config, w, &warmup_plan, &latency_plan, &capacity_plan);
            row(&format!("capacity, {w} workers"), &m.capacity);
            errors += m.capacity.errors;
        }
    }

    // No measured figure below: the verdict and the JSON are committed,
    // and a committed file must reproduce byte for byte.
    let verdict = format!(
        "Paper §3.2: the serving path must sustain Olympic request rates from the cache \
         without touching the page-generation machinery.\n\
         Replayed schedule {:016x} ({} requests over {} pages, {:.0}% conditional) paced and \
         closed-loop over real TCP: every response arrived — acceptance checks {}. The \
         wall-clock figures are in the table only; measured serving numbers are \
         BENCHMARK.json's (DESIGN.md §13a).",
        latency_plan.digest(),
        latency_plan.requests.len(),
        pages.len(),
        100.0 * INM_FRACTION,
        if errors == 0 { "hold" } else { "FAILED" }
    );

    ExpResult {
        id: "serving",
        title: "Serving hot path over real TCP: latency and capacity on a fixed schedule",
        rendered: table.render(),
        json: json!({
            "schedule": json!({
                "seed": config.seed,
                "day": DAY,
                "connections": connections,
                "rate_rps": rate_rps,
                "duration_secs": duration_secs,
                "inm_fraction": INM_FRACTION,
                "pages": pages.len(),
                "requests": latency_plan.requests.len(),
                "digest": format!("{:016x}", latency_plan.digest()),
                "capacity_digest": format!("{:016x}", capacity_plan.digest()),
            }),
            "measured": "wall-clock; printed by `reproduce serving`, not recorded — see BENCHMARK.json and DESIGN.md §13a",
        }),
        verdict,
    }
}
