//! Deterministic data-plane fault injection: the replication edges of
//! Figure 5 and the per-site trigger monitors, faulted on the sim clock.
//!
//! The routing tier already degrades elegantly ([`crate::state`]); this
//! module stresses the *propagation* tier. A data fault plan is a
//! seeded, sim-clock-scheduled list of [`DataFaultPlanEntry`]s: link
//! faults (drop / delay / reorder / full partition) on each replication
//! edge plus crash/restart faults on per-site trigger monitors. The simulation applies them and
//! every component behind the fault recovers from its watermark:
//! replicas pull the gap with `TxnLog::catch_up`, Schaumburg pulls from
//! Tokyo's replica when its primary feed is partitioned, and a
//! restarted monitor re-runs DUP over the transactions it missed.

use nagano_simcore::{DeterministicRng, SimTime};

/// How a replication link misbehaves while a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Each shipped transaction is independently dropped with probability
    /// `drop_permille / 1000`; catch-up pulls fail at the same rate.
    Lossy {
        /// Drop probability in permille (200 = 20%).
        drop_permille: u16,
    },
    /// Every shipment (and catch-up pull) takes `extra_secs` longer than
    /// the edge's base delay.
    Delay {
        /// Added latency in seconds.
        extra_secs: u64,
    },
    /// Each shipment's delay is stretched by a uniform `0..=jitter_secs`,
    /// so transactions can arrive out of order (the replica's in-order
    /// gate turns that into gap + duplicate traffic).
    Reorder {
        /// Maximum added jitter in seconds.
        jitter_secs: u64,
    },
    /// Nothing gets through until the fault heals.
    Partition,
}

/// What a data-plane fault entry targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFaultKind {
    /// A fault on one replication edge (index into [`REPLICATION_EDGES`]).
    Link {
        /// Edge index.
        edge: usize,
        /// The misbehaviour while down (ignored on the heal entry).
        fault: LinkFault,
    },
    /// The site's trigger monitor crashes (down) or restarts (up). While
    /// down, the site's replica keeps taking transactions but
    /// no DUP runs, so the site's caches go stale until recovery replays
    /// the log tail past the monitor's watermark.
    MonitorCrash {
        /// Site index (see [`crate::topology::SITES`]).
        site: usize,
    },
}

/// One scheduled data-plane fault or heal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataFaultPlanEntry {
    /// When it happens.
    pub at: SimTime,
    /// What faults or heals.
    pub kind: DataFaultKind,
    /// `false` = fault starts, `true` = fault heals.
    pub up: bool,
}

/// One directed replication edge of the Figure-5 topology.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSpec {
    /// Human-readable name (used in fault-tier reports).
    pub name: &'static str,
    /// Feeding site index, or `None` for the Nagano master.
    pub from: Option<usize>,
    /// Fed site index.
    pub to: usize,
    /// Healthy one-way shipping delay in seconds. The chained delays
    /// reproduce the per-site replication delays of
    /// [`crate::topology::SITES`] exactly (Schaumburg/Tokyo at +2 s,
    /// Columbus/Bethesda at +2+3 = +5 s).
    pub base_delay_secs: u64,
}

/// The five replication edges: master feeds Schaumburg and Tokyo,
/// Columbus and Bethesda chain off Schaumburg, and Tokyo can re-feed
/// Schaumburg for disaster recovery (pull-only; exercised when the
/// primary Nagano → Schaumburg edge is partitioned).
pub const REPLICATION_EDGES: [EdgeSpec; 5] = [
    EdgeSpec {
        name: "nagano->schaumburg",
        from: None,
        to: 0,
        base_delay_secs: 2,
    },
    EdgeSpec {
        name: "nagano->tokyo",
        from: None,
        to: 3,
        base_delay_secs: 2,
    },
    EdgeSpec {
        name: "schaumburg->columbus",
        from: Some(0),
        to: 1,
        base_delay_secs: 3,
    },
    EdgeSpec {
        name: "schaumburg->bethesda",
        from: Some(0),
        to: 2,
        base_delay_secs: 3,
    },
    EdgeSpec {
        name: "tokyo->schaumburg (DR re-feed)",
        from: Some(3),
        to: 0,
        base_delay_secs: 4,
    },
];

/// Each site's primary feed edge (index into [`REPLICATION_EDGES`]),
/// indexed by site.
pub const PRIMARY_FEED: [usize; 4] = [0, 2, 3, 1];

/// The Tokyo → Schaumburg disaster-recovery edge (pull-only; never used
/// for streaming while the primary feed is healthy).
pub const DR_EDGE: usize = 4;

/// Catch-up retry schedule over a faulted link: first retry after
/// [`CATCHUP_BASE_BACKOFF_SECS`], doubling each attempt, for at most
/// [`MAX_CATCHUP_RETRIES`] attempts; after that the replica goes
/// quiescent until the link heals (the heal reschedules it).
pub const CATCHUP_BASE_BACKOFF_SECS: u64 = 5;
/// See [`CATCHUP_BASE_BACKOFF_SECS`].
pub const MAX_CATCHUP_RETRIES: u32 = 8;

/// The scripted 3-day chaos schedule behind the `chaos` experiment: two
/// faults per day, escalating tiers — lossy and slow links on day one,
/// reordering and a trigger-monitor crash on day two, full partitions
/// (including the one that forces the Tokyo → Schaumburg disaster
/// recovery) on day three.
pub fn scripted_chaos_plan(start_day: u32) -> Vec<DataFaultPlanEntry> {
    let d = |offset: u32, h: u32, m: u32| SimTime::at(start_day + offset, h, m);
    let window = |kind: DataFaultKind, from: SimTime, to: SimTime| {
        [
            DataFaultPlanEntry {
                at: from,
                kind,
                up: false,
            },
            DataFaultPlanEntry {
                at: to,
                kind,
                up: true,
            },
        ]
    };
    let mut plan = Vec::new();
    // Tier 1 (day 1): degraded links.
    plan.extend(window(
        DataFaultKind::Link {
            edge: 0,
            fault: LinkFault::Lossy { drop_permille: 200 },
        },
        d(0, 9, 0),
        d(0, 11, 0),
    ));
    plan.extend(window(
        DataFaultKind::Link {
            edge: 1,
            fault: LinkFault::Delay { extra_secs: 45 },
        },
        d(0, 13, 0),
        d(0, 15, 0),
    ));
    // Tier 2 (day 2): reordering + a trigger-monitor crash.
    plan.extend(window(
        DataFaultKind::Link {
            edge: 2,
            fault: LinkFault::Reorder { jitter_secs: 30 },
        },
        d(1, 9, 0),
        d(1, 11, 0),
    ));
    plan.extend(window(
        DataFaultKind::MonitorCrash { site: 3 },
        d(1, 13, 0),
        d(1, 14, 0),
    ));
    // Tier 3 (day 3): partitions — the first forces Schaumburg onto the
    // Tokyo disaster-recovery re-feed.
    plan.extend(window(
        DataFaultKind::Link {
            edge: 0,
            fault: LinkFault::Partition,
        },
        d(2, 9, 0),
        d(2, 11, 0),
    ));
    plan.extend(window(
        DataFaultKind::Link {
            edge: 3,
            fault: LinkFault::Partition,
        },
        d(2, 13, 0),
        d(2, 14, 0),
    ));
    plan.sort_by_key(|e| e.at);
    plan
}

/// A serving-plane fault: the request → cache → regenerate path of one
/// site, as opposed to the replication data plane above (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServingFaultKind {
    /// Demand regeneration at `site` takes `factor ×` its modelled cost
    /// (an overloaded or thrashing backend; the paper's "pathologically
    /// long time to calculate" tier).
    RenderSlowdown {
        /// Site index (see [`crate::topology::SITES`]).
        site: usize,
        /// Cost multiplier while active (10.0 = ten times slower).
        factor: f64,
    },
    /// The render/db backend at `site` is unreachable: demand fills fail
    /// outright until the outage heals. Serving survives on cache hits,
    /// stale tombstones, and the circuit breaker's fail-fast path.
    BackendOutage {
        /// Site index.
        site: usize,
    },
    /// A serving node at `site` cold-restarts: the complex's cache loses
    /// its live entries, stale tombstones, and in-flight coalescing state
    /// — the stampede-on-restart scenario single-flight exists for. A
    /// point event: the crash *is* the fault, so plan entries carry
    /// `up: false` and no heal.
    CacheShardCrash {
        /// Site index.
        site: usize,
        /// The node that crashed. A complex's nodes are modelled as its
        /// one cache, so whichever node it is, that cache restarts.
        node: usize,
    },
}

/// One scheduled serving-plane fault or heal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingFaultPlanEntry {
    /// When it happens.
    pub at: SimTime,
    /// What faults or heals.
    pub kind: ServingFaultKind,
    /// `false` = fault starts, `true` = fault heals. Always `false` for
    /// [`ServingFaultKind::CacheShardCrash`] (a point event).
    pub up: bool,
}

/// The scripted one-day serving-fault schedule behind the `resilience`
/// experiment: a 10× render slowdown through the morning peak, two
/// backend outages, and one cache cold-restart in between — the
/// acceptance scenario of DESIGN.md §11 (≥ 99% non-error responses with
/// bounded staleness).
pub fn scripted_serving_plan(day: u32) -> Vec<ServingFaultPlanEntry> {
    let at = |h: u32, m: u32| SimTime::at(day, h, m);
    let window = |kind: ServingFaultKind, from: SimTime, to: SimTime| {
        [
            ServingFaultPlanEntry {
                at: from,
                kind,
                up: false,
            },
            ServingFaultPlanEntry {
                at: to,
                kind,
                up: true,
            },
        ]
    };
    let mut plan = Vec::new();
    // The morning peak regenerates ten times slower.
    plan.extend(window(
        ServingFaultKind::RenderSlowdown {
            site: 0,
            factor: 10.0,
        },
        at(9, 0),
        at(11, 0),
    ));
    // First backend outage, mid-afternoon.
    plan.extend(window(
        ServingFaultKind::BackendOutage { site: 0 },
        at(13, 0),
        at(13, 20),
    ));
    // A serving cache cold-restarts between the outages: the stampede
    // window the single-flight maps must flatten.
    plan.push(ServingFaultPlanEntry {
        at: at(14, 30),
        kind: ServingFaultKind::CacheShardCrash { site: 0, node: 1 },
        up: false,
    });
    // Second outage, evening, on a different site.
    plan.extend(window(
        ServingFaultKind::BackendOutage { site: 2 },
        at(16, 0),
        at(16, 15),
    ));
    plan.sort_by_key(|e| e.at);
    plan
}

/// Generate a random data-plane fault plan: `events_per_day` faults per
/// day across `start_day..=end_day`, each healing after 10 to 45
/// minutes. At most one fault is in flight per edge or monitor at a time
/// (a colliding draw is skipped), so heals are unambiguous. Deterministic
/// in `seed`; the `soak` experiment mixes this with the routing-tier
/// [`random_soak_plan`](crate::sim::random_soak_plan).
pub fn random_fault_plan(
    start_day: u32,
    end_day: u32,
    events_per_day: u32,
    seed: u64,
) -> Vec<DataFaultPlanEntry> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut plan = Vec::new();
    // Busy-until minute per edge (5) and per monitor (4).
    let mut edge_busy: [i64; 5] = [-1; 5];
    let mut monitor_busy: [i64; 4] = [-1; 4];
    for day in start_day..=end_day {
        for _ in 0..events_per_day {
            let at_min = (day as u64 - 1) * 1440 + rng.index(1380) as u64;
            // Window 10..=45 min; 4-in-5 draws fault a link, 1-in-5
            // crashes a monitor.
            let duration = 10 + rng.index(36) as u64;
            let kind = if rng.index(5) < 4 {
                let edge = rng.index(4); // primary edges only; DR stays up
                let fault = match rng.index(4) {
                    0 => LinkFault::Lossy {
                        drop_permille: 100 + rng.index(301) as u16,
                    },
                    1 => LinkFault::Delay {
                        extra_secs: 15 + rng.range_u64(0, 45),
                    },
                    2 => LinkFault::Reorder {
                        jitter_secs: 5 + rng.range_u64(0, 25),
                    },
                    _ => LinkFault::Partition,
                };
                if (at_min as i64) <= edge_busy[edge] {
                    continue;
                }
                edge_busy[edge] = (at_min + duration) as i64;
                DataFaultKind::Link { edge, fault }
            } else {
                let site = rng.index(4);
                if (at_min as i64) <= monitor_busy[site] {
                    continue;
                }
                monitor_busy[site] = (at_min + duration) as i64;
                DataFaultKind::MonitorCrash { site }
            };
            plan.push(DataFaultPlanEntry {
                at: SimTime::from_mins(at_min),
                kind,
                up: false,
            });
            plan.push(DataFaultPlanEntry {
                at: SimTime::from_mins(at_min + duration),
                kind,
                up: true,
            });
        }
    }
    plan.sort_by_key(|e| e.at);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_reproduce_the_per_site_replication_delays() {
        use crate::topology::SITES;
        for (s, spec) in SITES.iter().enumerate() {
            let mut delay = 0;
            let mut site = s;
            // Walk the primary-feed chain back to the master.
            loop {
                let edge = REPLICATION_EDGES[PRIMARY_FEED[site]];
                assert_eq!(edge.to, site);
                delay += edge.base_delay_secs;
                match edge.from {
                    Some(up) => site = up,
                    None => break,
                }
            }
            assert_eq!(
                delay, spec.replication_delay_secs,
                "site {} chained delay",
                spec.name
            );
        }
    }

    #[test]
    fn scripted_plan_is_paired_and_ordered() {
        let plan = scripted_chaos_plan(3);
        assert_eq!(plan.len(), 12, "six faults, each with a heal");
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        // Every fault entry has a matching heal of the same kind.
        for e in plan.iter().filter(|e| !e.up) {
            assert!(
                plan.iter().any(|h| h.up && h.kind == e.kind && h.at > e.at),
                "unhealed fault {e:?}"
            );
        }
        // The DR tier is present: a partition of the primary Schaumburg feed.
        assert!(plan.iter().any(|e| matches!(
            e.kind,
            DataFaultKind::Link {
                edge: 0,
                fault: LinkFault::Partition
            }
        )));
    }

    #[test]
    fn serving_plan_matches_the_acceptance_scenario() {
        let plan = scripted_serving_plan(5);
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        // One 10× render slowdown.
        let slowdowns: Vec<_> = plan
            .iter()
            .filter(|e| matches!(e.kind, ServingFaultKind::RenderSlowdown { .. }))
            .collect();
        assert_eq!(slowdowns.len(), 2, "one slowdown window (fault + heal)");
        assert!(slowdowns.iter().any(
            |e| matches!(e.kind, ServingFaultKind::RenderSlowdown { factor, .. } if factor == 10.0)
        ));
        // Two backend outages.
        assert_eq!(
            plan.iter()
                .filter(|e| matches!(e.kind, ServingFaultKind::BackendOutage { .. }) && !e.up)
                .count(),
            2
        );
        // One shard crash, a point event with no heal.
        let crashes: Vec<_> = plan
            .iter()
            .filter(|e| matches!(e.kind, ServingFaultKind::CacheShardCrash { .. }))
            .collect();
        assert_eq!(crashes.len(), 1);
        assert!(!crashes[0].up);
        // Every windowed fault has a later matching heal.
        for e in plan
            .iter()
            .filter(|e| !e.up && !matches!(e.kind, ServingFaultKind::CacheShardCrash { .. }))
        {
            assert!(
                plan.iter().any(|h| h.up && h.kind == e.kind && h.at > e.at),
                "unhealed serving fault {e:?}"
            );
        }
        // All of it lands inside the requested day.
        assert!(plan
            .iter()
            .all(|e| e.at >= SimTime::at(5, 0, 0) && e.at < SimTime::at(6, 0, 0)));
    }

    #[test]
    fn random_plan_is_deterministic_and_non_overlapping() {
        let a = random_fault_plan(2, 4, 5, 77);
        let b = random_fault_plan(2, 4, 5, 77);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // Rebuild per-target windows and check no overlap.
        for target in 0..5 {
            let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
            for e in a.iter().filter(|e| {
                matches!(e.kind, DataFaultKind::Link { edge, .. } if edge == target) && !e.up
            }) {
                let heal = a
                    .iter()
                    .find(|h| h.up && h.kind == e.kind && h.at > e.at)
                    .expect("paired heal");
                windows.push((e.at, heal.at));
            }
            windows.sort_by_key(|w| w.0);
            assert!(
                windows.windows(2).all(|w| w[0].1 < w[1].0),
                "edge {target} fault windows overlap"
            );
        }
        let c = random_fault_plan(2, 4, 5, 78);
        assert_ne!(a, c, "different seed, different plan");
    }
}
