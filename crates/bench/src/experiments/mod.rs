//! Experiment implementations, grouped by theme.

pub mod ablations;
pub mod caching;
pub mod figures;
pub mod hybrid;
pub mod slo;
pub mod systems;
pub mod tables;

use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashMap;

use nagano_cluster::ConsistencyPolicy;
use nagano_cluster::{ClusterConfig, ClusterReport, ClusterSim, ServingResilience};
use nagano_db::GamesConfig;
use nagano_simcore::sync::Mutex;

use crate::ExpConfig;

/// Games dimensions for a config: quick mode shrinks the dataset.
pub fn games_for(config: &ExpConfig) -> GamesConfig {
    if config.quick {
        GamesConfig::small()
    } else {
        GamesConfig::full()
    }
}

/// Build the standard 16-day cluster configuration. Telemetry snapshots
/// (hourly JSON lines plus final Prometheus/JSON exports) land under
/// `target/experiments/telemetry/<policy>/`.
pub fn cluster_config(config: &ExpConfig, policy: ConsistencyPolicy) -> ClusterConfig {
    ClusterConfig {
        scale: config.scale,
        seed: config.seed,
        games: games_for(config),
        policy,
        start_day: 1,
        end_day: 16,
        failure_plan: Vec::new(),
        fault_plan: Vec::new(),
        serving_fault_plan: Vec::new(),
        resilience: ServingResilience::default(),
        updates_on_serving_nodes: false,
        export_dir: Some(
            std::path::PathBuf::from("target/experiments/telemetry").join(policy.slug()),
        ),
        slo_rules: ClusterConfig::default_slo_rules(),
        audit_convergence: false,
    }
}

type ReportKey = (u64, u64, bool, ConsistencyPolicy);

fn report_cache() -> &'static Mutex<FxHashMap<ReportKey, Arc<ClusterReport>>> {
    static CACHE: OnceLock<Mutex<FxHashMap<ReportKey, Arc<ClusterReport>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// The memoized full-Games simulation under the production policy. Every
/// figure experiment reads from the same run, so `reproduce all` pays for
/// the 16-day simulation once.
pub fn full_report(config: &ExpConfig) -> Arc<ClusterReport> {
    report_for_policy(config, ConsistencyPolicy::UpdateInPlace)
}

/// Memoized full-Games simulation under an arbitrary policy.
pub fn report_for_policy(config: &ExpConfig, policy: ConsistencyPolicy) -> Arc<ClusterReport> {
    let key: ReportKey = (config.scale.to_bits(), config.seed, config.quick, policy);
    if let Some(r) = report_cache().checked_lock().unwrap().get(&key) {
        return Arc::clone(r);
    }
    let report = Arc::new(ClusterSim::new(cluster_config(config, policy)).run());
    report_cache()
        .checked_lock()
        .unwrap()
        .insert(key, Arc::clone(&report));
    report
}
