//! Propagation policy equivalence suite (ISSUE 5).
//!
//! The `Hybrid` scheduler must *degenerate* exactly: with every page hot
//! and no budget it is `UpdateInPlace`; with every page cold it is
//! `Invalidate`. And under every policy, batch processing may coalesce
//! *work* but must never change final *state* relative to sequential
//! processing. Each property has a plain seeded `#[test]` driver (so the
//! core logic always runs) plus a proptest wrapper over random seeds.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use nagano_cache::{CacheConfig, PageCache};
use nagano_db::{seed_games, AthleteId, GamesConfig, OlympicDb, Transaction};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_simcore::{DeterministicRng, SimTime};
use nagano_trigger::{ConsistencyPolicy, PageUrls, TriggerMonitor, TxnOutcome};

fn fresh_db() -> Arc<OlympicDb> {
    let db = Arc::new(OlympicDb::new());
    seed_games(&db, &GamesConfig::small());
    db
}

/// A prewarmed monitor over `db`.
fn monitor_for(db: &Arc<OlympicDb>, policy: ConsistencyPolicy) -> TriggerMonitor {
    let registry = Arc::new(PageRegistry::build(db, 16));
    let urls = PageUrls::of(&registry);
    let cache = Arc::new(PageCache::with_keys(CacheConfig::default(), urls));
    let monitor = TriggerMonitor::new(Renderer::new(Arc::clone(db)), cache, registry, policy);
    monitor.prewarm();
    monitor
}

/// Deterministic pseudo-random result batch: `n` transactions against
/// randomly chosen events with randomly sized podiums. Committed to the
/// shared `db` up front so every monitor renders the same final state.
fn generate_txns(
    db: &Arc<OlympicDb>,
    rng: &mut DeterministicRng,
    n: usize,
) -> Vec<Arc<Transaction>> {
    let events = db.events();
    (0..n)
        .map(|_| {
            let ev = &events[rng.index(events.len())];
            let pool = db.athletes_of_sport(ev.sport);
            let take = (3 + rng.index(5)).min(pool.len());
            let placements: Vec<(AthleteId, f64)> = pool
                .iter()
                .take(take)
                .enumerate()
                .map(|(i, a)| (a.id, 95.0 - i as f64 - rng.f64()))
                .collect();
            db.record_results(ev.id, &placements, rng.chance(0.3), ev.day)
        })
        .collect()
}

/// Canonical view of the monitor's cache: url → (body, version).
fn cache_state(monitor: &TriggerMonitor) -> BTreeMap<String, (Vec<u8>, u64)> {
    monitor
        .cache()
        .export_entries()
        .into_iter()
        .map(|(key, body, _cost, version)| (key, (body.to_vec(), version)))
        .collect()
}

/// Like [`cache_state`] but without versions — batch coalescing is
/// allowed to regenerate a page fewer times than sequential processing,
/// so only keys and bodies must agree.
fn cache_contents(monitor: &TriggerMonitor) -> BTreeMap<String, Vec<u8>> {
    monitor
        .cache()
        .export_entries()
        .into_iter()
        .map(|(key, body, _cost, _version)| (key, body.to_vec()))
        .collect()
}

fn sorted(mut keys: Vec<PageKey>) -> Vec<PageKey> {
    keys.sort();
    keys
}

/// The pages an outcome *touched* (regenerated ∪ invalidated ∪ deferred),
/// sorted — the per-txn set the degenerate hybrids must reproduce.
fn touched(outcome: &TxnOutcome) -> Vec<PageKey> {
    let mut keys: Vec<PageKey> = outcome
        .regenerated
        .iter()
        .chain(&outcome.invalidated)
        .chain(&outcome.deferred)
        .copied()
        .collect();
    keys.sort();
    keys
}

/// Drive both monitors over the same transactions txn-by-txn and check
/// the per-txn outcome page sets plus the final cache state (bodies AND
/// versions — the degenerate forms must do the same work, not just reach
/// the same bytes).
fn check_degenerate_equivalence(
    seed: u64,
    n: usize,
    hybrid: ConsistencyPolicy,
    pure: ConsistencyPolicy,
) {
    let db = fresh_db();
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let txns = generate_txns(&db, &mut rng, n);
    let hybrid_monitor = monitor_for(&db, hybrid);
    let pure_monitor = monitor_for(&db, pure);
    let now = SimTime::from_mins(5);
    for (i, txn) in txns.iter().enumerate() {
        let h = hybrid_monitor.process_txn_at(txn, now);
        let p = pure_monitor.process_txn_at(txn, now);
        assert_eq!(
            touched(&h),
            touched(&p),
            "txn {i}: touched page sets diverge ({hybrid:?} vs {pure:?})"
        );
        assert_eq!(
            sorted(h.tolerated.clone()),
            sorted(p.tolerated.clone()),
            "txn {i}: tolerated sets diverge"
        );
    }
    assert_eq!(
        hybrid_monitor.deferred_len(),
        0,
        "degenerate hybrid must never defer"
    );
    assert_eq!(
        cache_state(&hybrid_monitor),
        cache_state(&pure_monitor),
        "final cache state diverges ({hybrid:?} vs {pure:?})"
    );
}

/// Hybrid with everything hot and no budget regenerates exactly what
/// `UpdateInPlace` regenerates (the regenerated/invalidated split must
/// match, not just the union).
fn check_hybrid_full_hot_is_update_in_place(seed: u64, n: usize) {
    let db = fresh_db();
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let txns = generate_txns(&db, &mut rng, n);
    let hybrid = monitor_for(&db, ConsistencyPolicy::hybrid(1.0, None));
    let uip = monitor_for(&db, ConsistencyPolicy::UpdateInPlace);
    let now = SimTime::from_mins(5);
    for (i, txn) in txns.iter().enumerate() {
        let h = hybrid.process_txn_at(txn, now);
        let p = uip.process_txn_at(txn, now);
        assert_eq!(
            sorted(h.regenerated.clone()),
            sorted(p.regenerated.clone()),
            "txn {i}: regenerated sets diverge"
        );
        assert!(h.invalidated.is_empty(), "txn {i}: full-hot invalidated");
        assert!(h.deferred.is_empty(), "txn {i}: unbounded budget deferred");
    }
    assert_eq!(cache_state(&hybrid), cache_state(&uip));
}

/// Hybrid with everything cold invalidates exactly what `Invalidate`
/// invalidates.
fn check_hybrid_full_cold_is_invalidate(seed: u64, n: usize) {
    let db = fresh_db();
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let txns = generate_txns(&db, &mut rng, n);
    let hybrid = monitor_for(&db, ConsistencyPolicy::hybrid(0.0, Some(400)));
    let inv = monitor_for(&db, ConsistencyPolicy::Invalidate);
    let now = SimTime::from_mins(5);
    for (i, txn) in txns.iter().enumerate() {
        let h = hybrid.process_txn_at(txn, now);
        let p = inv.process_txn_at(txn, now);
        assert_eq!(
            sorted(h.invalidated.clone()),
            sorted(p.invalidated.clone()),
            "txn {i}: invalidated sets diverge"
        );
        assert!(h.regenerated.is_empty(), "txn {i}: full-cold regenerated");
        assert!(h.deferred.is_empty(), "txn {i}: full-cold deferred");
    }
    assert_eq!(cache_state(&hybrid), cache_state(&inv));
}

/// Give a monitor's hotness tracker a deterministic traffic profile so a
/// mid-range hot fraction produces a non-trivial hot/cold split: requests
/// the cache answered, for every page it holds, folded as of minute 1.
fn heat(monitor: &TriggerMonitor, rng: &mut DeterministicRng) {
    let keys: Vec<PageKey> = monitor
        .cache()
        .export_entries()
        .into_iter()
        .map(|(url, ..)| PageKey::parse(&url).expect("a cached page's URL"))
        .collect();
    for &key in &keys {
        // Zipf-ish: a few pages get many hits, most get few or none.
        let hits = if rng.chance(0.2) {
            20 + rng.index(30)
        } else {
            rng.index(3)
        };
        for _ in 0..hits {
            monitor.observe_request(key, SimTime::from_mins(1), true);
        }
    }
    monitor.fold_hotness(1);
}

/// `process_batch` must leave the cache in the same final *state* as
/// sequential `process_txn` calls under every policy (coalescing may
/// skip duplicate work, never change content). Bounded-budget hybrids
/// drain their deferred queues before comparison.
fn check_batch_matches_sequential(seed: u64, n: usize) {
    let policies = [
        ConsistencyPolicy::UpdateInPlace,
        ConsistencyPolicy::Invalidate,
        ConsistencyPolicy::Conservative96,
        ConsistencyPolicy::hybrid(0.5, None),
        ConsistencyPolicy::hybrid(0.75, Some(50)),
    ];
    for policy in policies {
        let db = fresh_db();
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let txns = generate_txns(&db, &mut rng, n);
        let batched = monitor_for(&db, policy);
        let sequential = monitor_for(&db, policy);
        // Identical traffic on both monitors: the hot/cold split is a
        // pure function of the (shared) hotness profile, so it cannot
        // depend on batching.
        let mut heat_rng = DeterministicRng::seed_from_u64(seed ^ 0xbeef);
        heat(&batched, &mut heat_rng);
        let mut heat_rng = DeterministicRng::seed_from_u64(seed ^ 0xbeef);
        heat(&sequential, &mut heat_rng);

        let now = SimTime::from_mins(5);
        batched.process_batch_at(&txns, now);
        for txn in &txns {
            sequential.process_txn_at(txn, now);
        }
        // Budget overflow parks pages instead of dropping them; pump the
        // drain tick until both queues are empty (progress per tick is
        // guaranteed, so this terminates).
        for monitor in [&batched, &sequential] {
            let mut guard = 0;
            while monitor.deferred_len() > 0 {
                monitor.drain_deferred(now);
                guard += 1;
                assert!(guard < 100_000, "deferred queue failed to drain");
            }
        }
        assert_eq!(
            cache_contents(&batched),
            cache_contents(&sequential),
            "batch vs sequential state diverges under {policy:?}"
        );
    }
}

#[test]
fn hybrid_full_hot_matches_update_in_place() {
    for seed in [1, 42, 0x1998] {
        check_hybrid_full_hot_is_update_in_place(seed, 4);
        check_degenerate_equivalence(
            seed,
            4,
            ConsistencyPolicy::hybrid(1.0, None),
            ConsistencyPolicy::UpdateInPlace,
        );
    }
}

#[test]
fn hybrid_full_cold_matches_invalidate() {
    for seed in [1, 42, 0x1998] {
        check_hybrid_full_cold_is_invalidate(seed, 4);
        check_degenerate_equivalence(
            seed,
            4,
            ConsistencyPolicy::hybrid(0.0, Some(400)),
            ConsistencyPolicy::Invalidate,
        );
    }
}

#[test]
fn batch_equals_sequential_under_every_policy() {
    for seed in [7, 42] {
        check_batch_matches_sequential(seed, 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_hybrid_full_hot_matches_update_in_place(seed in 0u64..(1u64 << 32), n in 1usize..6) {
        check_hybrid_full_hot_is_update_in_place(seed, n);
    }

    #[test]
    fn prop_hybrid_full_cold_matches_invalidate(seed in 0u64..(1u64 << 32), n in 1usize..6) {
        check_hybrid_full_cold_is_invalidate(seed, n);
    }

    #[test]
    fn prop_batch_equals_sequential(seed in 0u64..(1u64 << 32), n in 1usize..5) {
        check_batch_matches_sequential(seed, n);
    }
}
