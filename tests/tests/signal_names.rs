//! One vocabulary for every signal the system emits (DESIGN.md §9, §10):
//! each metric name and each trace span name is
//! `nagano_<subsystem>_<name>`, and each metric is documented,
//! backtick-quoted, in DESIGN.md. The names are read from what the code
//! actually registers and exports, so a name held in a variable or built
//! at run time is checked like a literal one.
//!
//! The sources: one quick Hybrid day under the scripted chaos and
//! serving-fault plans, exported to disk (`metrics.prom`,
//! `traces.jsonl`), and a socket site's cells bound into a registry
//! behind its admin plane. The two export a cache's and a trigger
//! monitor's signals alike: every `nagano_cache_*` and `nagano_trigger_*`
//! series of a bound site is one the simulation exports, under the same
//! label keys, and a site exports none that could only read 0 there.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use nagano::{ServingSite, SiteConfig};
use nagano_cluster::{
    scripted_chaos_plan, scripted_serving_plan, ClusterConfig, ClusterSim, ConsistencyPolicy,
};
use nagano_db::GamesConfig;
use nagano_simcore::SimTime;
use nagano_telemetry::{parse_prometheus_line, MetricsRegistry};

/// The segment allowed directly after `nagano_`.
const SUBSYSTEMS: &[&str] = &[
    "bench",
    "cache",
    "cluster",
    "core",
    "db",
    "httpd",
    "odg",
    "pagegen",
    "sim",
    "site",
    "telemetry",
    "trigger",
    "workload",
];

/// Every metric and span name the two sources emit.
struct Names {
    metrics: BTreeSet<String>,
    spans: BTreeSet<String>,
    /// Every series the simulation exported, as its name and label keys.
    sim_series: BTreeSet<Series>,
}

/// A series' name and the keys of its labels, in order.
type Series = (String, Vec<String>);

fn names() -> &'static Names {
    static NAMES: OnceLock<Names> = OnceLock::new();
    NAMES.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("signal_names");
        // A stale export from an earlier run must not stand in for this one.
        let _ = std::fs::remove_dir_all(&dir);
        ClusterSim::new(ClusterConfig {
            scale: 20_000.0,
            seed: 42,
            games: GamesConfig::small(),
            start_day: 10,
            end_day: 10,
            policy: ConsistencyPolicy::hybrid(0.5, Some(400)),
            fault_plan: scripted_chaos_plan(10)
                .into_iter()
                .filter(|e| e.at < SimTime::at(11, 0, 0))
                .collect(),
            serving_fault_plan: scripted_serving_plan(10),
            export_dir: Some(dir.clone()),
            ..Default::default()
        })
        .run();
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
        };
        let prom = read("metrics.prom");
        let mut metrics: BTreeSet<String> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .map(str::to_string)
            .collect();
        let sim_series = prom
            .lines()
            .filter_map(parse_prometheus_line)
            .map(|(name, labels, _)| (name, labels.into_iter().map(|(k, _)| k).collect()))
            .collect();
        let spans = read("traces.jsonl")
            .split("\"name\":\"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .map(str::to_string)
            .collect();

        let site = Arc::new(ServingSite::build(SiteConfig::small()));
        let registry = Arc::new(MetricsRegistry::new());
        site.bind_telemetry(&registry, &[]);
        let _admin = site.admin_handler(Arc::clone(&registry));
        metrics.extend(registry.samples().into_iter().map(|s| s.name));
        Names {
            metrics,
            spans,
            sim_series,
        }
    })
}

/// `nagano_<subsystem>_<name>`: a known subsystem, a non-empty name, and
/// nothing but `[a-z0-9_]`.
fn conforms(name: &str) -> bool {
    let charset = name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    let known = name.strip_prefix("nagano_").is_some_and(|rest| {
        SUBSYSTEMS.iter().any(|sub| {
            rest.strip_prefix(sub)
                .and_then(|tail| tail.strip_prefix('_'))
                .is_some_and(|tail| !tail.is_empty())
        })
    });
    charset && known
}

#[test]
fn the_name_rule_accepts_and_rejects_what_it_should() {
    assert!(conforms("nagano_cache_hits_total"));
    assert!(conforms("nagano_cluster_txn_receipt"));
    assert!(!conforms("cache_hits_total"), "no prefix");
    assert!(!conforms("nagano_bogus_value"), "unknown subsystem");
    assert!(!conforms("nagano_cache"), "no name");
    assert!(!conforms("nagano_cache_"), "empty name");
    assert!(!conforms("nagano_cachehits_total"), "subsystem runs on");
    assert!(!conforms("Nagano_Cache_Apply"), "uppercase");
}

/// The names in `names` that break the `nagano_<subsystem>_<name>` rule.
fn nonconforming(names: &BTreeSet<String>) -> Vec<&String> {
    names.iter().filter(|n| !conforms(n)).collect()
}

#[test]
fn every_metric_name_is_nagano_subsystem_name() {
    let metrics = &names().metrics;
    // Both sources must have contributed: the admin plane's own counter
    // and a histogram whose name the sim holds in a variable.
    for metric in [
        "nagano_httpd_admin_scrapes_total",
        "nagano_cluster_staleness_seconds",
    ] {
        assert!(metrics.contains(metric), "{metric} not seen");
    }
    let bad = nonconforming(metrics);
    assert!(
        bad.is_empty(),
        "metrics not nagano_<subsystem>_<name>: {bad:?}"
    );
}

#[test]
fn every_span_name_is_nagano_subsystem_name() {
    let spans = &names().spans;
    assert!(!spans.is_empty(), "no spans exported");
    let bad = nonconforming(spans);
    assert!(
        bad.is_empty(),
        "spans not nagano_<subsystem>_<name>: {bad:?}"
    );
}

#[test]
fn every_metric_is_documented_in_design() {
    let design =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../DESIGN.md"))
            .expect("read DESIGN.md");
    // Backtick quoting is required: a bare substring match would let
    // `nagano_cache_hits` ride on `nagano_cache_hits_total`'s row.
    let missing: Vec<&String> = names()
        .metrics
        .iter()
        .filter(|m| !design.contains(&format!("`{m}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from DESIGN.md's metric table: {missing:?}"
    );
}

/// The series a socket site exports under `prefix` once bound as the
/// simulation binds a complex's: under a `site` label.
fn site_series(prefix: &str) -> Vec<Series> {
    let site = ServingSite::build(SiteConfig::small());
    let registry = MetricsRegistry::new();
    site.bind_telemetry(&registry, &[("site", "socket")]);
    registry
        .samples()
        .into_iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| (s.name, s.labels.into_iter().map(|(k, _)| k).collect()))
        .collect()
}

#[test]
fn a_sites_cache_series_are_the_simulations() {
    let cache = site_series("nagano_cache_");
    assert!(cache.len() >= 9, "{cache:?}");
    let sim = &names().sim_series;
    let missing: Vec<&Series> = cache.iter().filter(|s| !sim.contains(*s)).collect();
    assert!(
        missing.is_empty(),
        "cache series a site exports and the simulation does not: {missing:?}"
    );
}

#[test]
fn a_sites_trigger_series_are_the_simulations() {
    let trigger = site_series("nagano_trigger_");
    assert!(trigger.len() >= 11, "{trigger:?}");
    let sim = &names().sim_series;
    let missing: Vec<&Series> = trigger.iter().filter(|s| !sim.contains(*s)).collect();
    assert!(
        missing.is_empty(),
        "trigger series a site exports and the simulation does not: {missing:?}"
    );
    // A site cannot run the hybrid policy, so it defers nothing, and
    // nothing tells its monitor what staleness a request saw.
    for zero in [
        "nagano_trigger_pages_deferred_total",
        "nagano_trigger_regen_deferred_depth",
        "nagano_trigger_regen_deferred_shed_total",
        "nagano_trigger_weighted_staleness_seconds",
    ] {
        assert!(
            trigger.iter().all(|(name, _)| !name.starts_with(zero)),
            "a site exports {zero}"
        );
        assert!(
            sim.iter().any(|(name, _)| name.starts_with(zero)),
            "the simulation exports no {zero}"
        );
    }
}
