//! The determinism contract, end to end (DESIGN.md §10): two cluster
//! runs with the same seed must export **byte-identical** telemetry —
//! the Prometheus text, the JSON snapshot, the hourly JSONL series,
//! the update-lineage trace trees, and the SLO verdicts.
//! This is the runtime twin of the static gate in `clippy.toml`, which
//! keeps wall clocks, entropy-seeded hashers and randomized-order maps
//! out of the sim paths; this test catches anything clippy cannot see.

use std::path::{Path, PathBuf};

use nagano_cluster::{scripted_chaos_plan, scripted_serving_plan, ClusterConfig, ClusterSim};
use nagano_db::GamesConfig;
use nagano_simcore::SimTime;

const EXPORTS: [&str; 5] = [
    "metrics.prom",
    "metrics.json",
    "telemetry_hourly.jsonl",
    "traces.jsonl",
    "slo.json",
];

/// Run a one-day sim exporting telemetry into a fresh subdirectory of
/// the cargo-provided test tmpdir; returns the export directory.
fn run_exporting(seed: u64, tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism")
        .join(tag);
    // Stale files from a previous test run must not mask a regression.
    let _ = std::fs::remove_dir_all(&dir);
    ClusterSim::new(ClusterConfig {
        scale: 20_000.0,
        seed,
        games: GamesConfig::small(),
        start_day: 3,
        end_day: 3,
        export_dir: Some(dir.clone()),
        ..Default::default()
    })
    .run();
    dir
}

#[test]
fn same_seed_runs_export_byte_identical_telemetry() {
    let a = run_exporting(42, "seed42_a");
    let b = run_exporting(42, "seed42_b");
    for name in EXPORTS {
        let left = std::fs::read(a.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let right = std::fs::read(b.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        assert!(!left.is_empty(), "{name} must not be empty");
        assert_eq!(
            left, right,
            "{name} differs between two same-seed runs — nondeterminism leaked into telemetry"
        );
    }
}

/// Like [`run_exporting`], but over the update-dense day 10 with the
/// day-0 slice of the scripted chaos schedule active: lossy and delayed
/// replication links, catch-up retries, and the convergence audit all
/// on the clock.
fn run_chaos_exporting(seed: u64, tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    ClusterSim::new(ClusterConfig {
        scale: 20_000.0,
        seed,
        games: GamesConfig::small(),
        start_day: 10,
        end_day: 10,
        fault_plan: scripted_chaos_plan(10)
            .into_iter()
            .filter(|e| e.at < SimTime::at(11, 0, 0))
            .collect(),
        export_dir: Some(dir.clone()),
        audit_convergence: true,
        ..Default::default()
    })
    .run();
    dir
}

#[test]
fn same_seed_chaos_runs_export_byte_identical_telemetry() {
    // Fault injection is part of the deterministic surface: drops,
    // delivery jitter, catch-up retries, and recovery replays must all
    // replay exactly from the seed.
    let a = run_chaos_exporting(42, "chaos42_a");
    let b = run_chaos_exporting(42, "chaos42_b");
    for name in EXPORTS {
        let left = std::fs::read(a.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let right = std::fs::read(b.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        assert!(!left.is_empty(), "{name} must not be empty");
        assert_eq!(
            left, right,
            "{name} differs between two same-seed chaos runs — fault \
             injection leaked nondeterminism into telemetry"
        );
    }
    // The chaos schedule must actually exercise the fault-path metrics.
    let prom = std::fs::read_to_string(a.join("metrics.prom")).expect("read chaos metrics.prom");
    for metric in [
        "nagano_cluster_replication_lag_txns",
        "nagano_cluster_retries_total",
        "nagano_trigger_recoveries_total",
    ] {
        assert!(prom.contains(metric), "{metric} missing from chaos export");
    }
}

/// Like [`run_exporting`], but under the hotness-aware Hybrid policy on
/// the update-dense day 10: EWMA folds, priority ranking, budget
/// deferral, and drain ticks are all on the deterministic surface.
fn run_hybrid_exporting(seed: u64, tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    ClusterSim::new(ClusterConfig {
        scale: 20_000.0,
        seed,
        games: GamesConfig::small(),
        start_day: 10,
        end_day: 10,
        policy: nagano_cluster::ConsistencyPolicy::hybrid(0.5, Some(400)),
        export_dir: Some(dir.clone()),
        ..Default::default()
    })
    .run();
    dir
}

#[test]
fn same_seed_hybrid_runs_export_byte_identical_telemetry() {
    let a = run_hybrid_exporting(42, "hybrid42_a");
    let b = run_hybrid_exporting(42, "hybrid42_b");
    for name in EXPORTS {
        let left = std::fs::read(a.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let right = std::fs::read(b.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        assert!(!left.is_empty(), "{name} must not be empty");
        assert_eq!(
            left, right,
            "{name} differs between two same-seed Hybrid runs — the \
             hotness scheduler leaked nondeterminism into telemetry"
        );
    }
    // The scheduler's own metrics are part of the exported surface.
    let prom = std::fs::read_to_string(a.join("metrics.prom")).expect("read hybrid metrics.prom");
    for metric in [
        "nagano_trigger_regen_saved_ms_total",
        "nagano_trigger_regen_cpu_ms_total",
        "nagano_trigger_pages_deferred_total",
        "nagano_trigger_weighted_staleness_seconds",
    ] {
        assert!(prom.contains(metric), "{metric} missing from hybrid export");
    }
}

/// Like [`run_exporting`], but with the scripted serving-fault schedule
/// active, so that the serving-plane resilience machinery is taken: render
/// slowdowns, a backend outage (breaker trips + seeded retry backoff),
/// and a cache cold-restart are all on the deterministic surface.
fn run_resilience_exporting(seed: u64, tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    ClusterSim::new(ClusterConfig {
        scale: 20_000.0,
        seed,
        games: GamesConfig::small(),
        start_day: 10,
        end_day: 10,
        policy: nagano_cluster::ConsistencyPolicy::Invalidate,
        serving_fault_plan: scripted_serving_plan(10),
        export_dir: Some(dir.clone()),
        ..Default::default()
    })
    .run();
    dir
}

#[test]
fn same_seed_resilience_runs_export_byte_identical_telemetry() {
    // The resilience paths draw retry jitter from their own fork of the
    // run seed; two same-seed runs must still replay byte-identically.
    let a = run_resilience_exporting(42, "resilience42_a");
    let b = run_resilience_exporting(42, "resilience42_b");
    for name in EXPORTS {
        let left = std::fs::read(a.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let right = std::fs::read(b.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        assert!(!left.is_empty(), "{name} must not be empty");
        assert_eq!(
            left, right,
            "{name} differs between two same-seed resilience runs — the \
             serving-plane fault machinery leaked nondeterminism into telemetry"
        );
    }
    // The schedule must actually exercise the resilience metrics.
    let prom =
        std::fs::read_to_string(a.join("metrics.prom")).expect("read resilience metrics.prom");
    for metric in [
        "nagano_cache_stale_served_total",
        "nagano_cache_coalesced_total",
    ] {
        assert!(
            prom.contains(metric),
            "{metric} missing from resilience export"
        );
    }
}

#[test]
fn different_seeds_actually_change_the_exports() {
    // Guard against the vacuous version of the test above: if the
    // exports ignored the workload entirely they would trivially match.
    let a = run_exporting(42, "seed42_c");
    let c = run_exporting(43, "seed43");
    let left = std::fs::read(a.join("metrics.json")).expect("read seed-42 metrics.json");
    let right = std::fs::read(c.join("metrics.json")).expect("read seed-43 metrics.json");
    assert_ne!(left, right, "seed must influence exported telemetry");
}
