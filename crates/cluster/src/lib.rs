//! Simulation of the Nagano site's global serving architecture (§3–§4).
//!
//! The production system served from four complexes — Schaumburg (4 SP2
//! frames), Columbus (3), Bethesda (3), Tokyo (3), 13 frames / 143
//! processors in all. Requests were routed by **MSIRP** (Multiple Single
//! IP Routing): twelve single-IP-routed addresses cycled by round-robin
//! DNS, each advertised by a primary and a secondary Network Dispatcher
//! with OSPF costs, giving 1/12-granularity traffic shifting and automatic
//! failover through four tiers (server → frame → dispatcher → complex) —
//! what the paper calls *elegant degradation*.
//!
//! * [`topology`] — sites, frames/nodes, region↔site OSPF cost matrix,
//!   the 12-address MSIRP table and route selection.
//! * [`state`] — live cluster state: per-node health, dispatcher health,
//!   advisor-driven node selection, failure injection.
//! * [`sim`] — the 16-day discrete-event driver combining the workload
//!   model, per-site trigger monitors with replication delays, routing,
//!   and measurement (the source of Figures 18, 20–23 and the peak /
//!   availability / freshness experiments). In debug builds it checks
//!   every response it serves against the contract of a fresh body or a
//!   bounded-age copy (DESIGN.md §11a).
//! * [`policy`] and [`monitor`] — the consistency policies each complex's
//!   trigger monitor runs: update-in-place and invalidation, which a
//!   serving site runs too, and the hotness-ranked hybrid and the 1996
//!   section invalidation, which need the simulation's request clock and
//!   drive the monitor's mark / refresh / invalidate steps themselves.
//! * [`remote`] — parameterised models of the *other* web sites measured
//!   in Tables 1–2 (competitor ISP home pages).
//! * [`faults`] — deterministic data-plane fault plans: lossy / delayed /
//!   reordered / partitioned replication edges and trigger-monitor
//!   crash/recovery, scheduled on the sim clock.
//! * [`resilience`] — the circuit breaker, seeded retry backoff and stale
//!   copies that the serving plan's backend outages exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod faults;
mod hotness;
pub mod monitor;
#[cfg(debug_assertions)]
mod oracle;
pub mod policy;
pub mod remote;
pub mod resilience;
pub mod sim;
pub mod state;
pub mod topology;

pub use faults::{
    random_fault_plan, scripted_chaos_plan, scripted_serving_plan, DataFaultKind,
    DataFaultPlanEntry, EdgeSpec, LinkFault, ServingFaultKind, ServingFaultPlanEntry,
    REPLICATION_EDGES,
};
pub use monitor::SiteMonitor;
pub use policy::{ConsistencyPolicy, HybridConfig};
pub use remote::RemoteSite;
pub use resilience::{BreakerConfig, CircuitBreaker, RetryBackoff, Tombstones};
pub use sim::{
    random_soak_plan, ClusterConfig, ClusterReport, ClusterSim, ConvergenceRecord,
    FailurePlanEntry, ServingResilience,
};
pub use state::{ClusterState, FailureKind, SiteState};
pub use topology::{Advert, Msirp, RouteDecision, SiteId, SITES};
