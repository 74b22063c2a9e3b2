//! Serving-path resilience properties (DESIGN.md §11a): the
//! single-flight stampede pin — **exactly one regeneration per
//! (key, stale-epoch)** no matter how many concurrent misses race —
//! plus the serve-stale guarantees: a follower observes the fresh body
//! or a within-budget stale copy, never an error while a stale copy
//! exists, and tombstones respect the staleness age bound.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use nagano_cache::{CacheConfig, FlightOutcome, PageCache, StalePolicy};
use nagano_cluster::{BreakerConfig, CircuitBreaker, RetryBackoff};
use nagano_simcore::sync::blocking;
use nagano_simcore::DeterministicRng;
use proptest::prelude::*;

fn stale_cache() -> Arc<PageCache> {
    Arc::new(PageCache::new(
        CacheConfig::default().with_stale(StalePolicy::bounded(900.0)),
    ))
}

/// One stampede round: the main thread leads a flight for `key`, then
/// `followers` threads pile onto the same miss while it is open.
/// Returns the number of actual regenerations (body renders) the round
/// performed — the property is that this is always exactly 1.
fn stampede_round(cache: &Arc<PageCache>, key: u32, followers: usize, fresh: &str) -> usize {
    let token = match cache.join_or_lead(key, Duration::from_secs(5)) {
        FlightOutcome::Lead(t) => t,
        other => panic!("first miss must lead the flight, got {other:?}"),
    };
    let handles: Vec<_> = (0..followers)
        .map(|_| {
            let c = Arc::clone(cache);
            thread::spawn(move || c.join_or_lead(key, Duration::from_secs(5)))
        })
        .collect();
    // Let followers attach, then render once and publish.
    blocking!(thread::sleep(Duration::from_millis(10)));
    cache.put(key, Bytes::copy_from_slice(fresh.as_bytes()));
    let page = cache.peek(key).expect("leader just inserted the body");
    cache.complete_flight(token, Some(page));
    let renders = 1usize;

    for h in handles {
        match blocking!(h.join()).expect("follower thread panicked") {
            // The single-flight contract: followers get the leader's
            // body without rendering.
            FlightOutcome::Joined(page) => assert_eq!(&page.body[..], fresh.as_bytes()),
            // Raced in after completion: the serving path re-checks the
            // cache, finds the fresh body, and renders nothing.
            FlightOutcome::Lead(t) => {
                let cached = cache.peek(key).expect("fresh body must be cached");
                assert_eq!(&cached.body[..], fresh.as_bytes());
                cache.complete_flight(t, Some(cached));
            }
            // Never an error while a stale copy exists: a timed-out
            // follower must have a within-budget fallback.
            FlightOutcome::TimedOut => {
                let copy = cache
                    .serve_stale(key)
                    .expect("timed-out follower must find a stale copy to serve");
                assert!(
                    copy.age_secs <= 900.0,
                    "stale fallback beyond the policy bound: {} s",
                    copy.age_secs
                );
            }
        }
    }
    renders
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any number of concurrent misses, across any number of
    /// invalidation rounds, regenerates each key exactly once per
    /// stale epoch — the stampede number the `resilience` experiment
    /// bounds at cluster scale.
    #[test]
    fn exactly_one_regeneration_per_key_and_stale_epoch(
        followers in 2usize..6,
        rounds in 1usize..4,
    ) {
        let cache = stale_cache();
        // A page's slot.
        let key = 17;
        let mut regens = 0usize;
        for round in 0..rounds {
            if round > 0 {
                // live → stale transition bumps the epoch and leaves a
                // tombstone behind.
                prop_assert!(cache.invalidate(key));
                prop_assert_eq!(cache.stale_epoch(key), round as u64);
            }
            regens += stampede_round(&cache, key, followers, &format!("body-{round}"));
        }
        prop_assert_eq!(regens, rounds, "one regeneration per (key, stale-epoch)");
    }

    /// The retry schedule is part of the deterministic surface: the
    /// same seed yields the same jittered delays, every delay respects
    /// the cap, and the attempt budget is exact.
    #[test]
    fn retry_backoff_is_seeded_bounded_and_exhausts(seed in any::<u64>()) {
        let delays = |seed: u64| -> Vec<f64> {
            let mut rng = DeterministicRng::seed_from_u64(seed);
            let mut backoff = RetryBackoff::new(0.05, 0.4, 4);
            std::iter::from_fn(|| backoff.next_delay(&mut rng)).collect()
        };
        let a = delays(seed);
        let b = delays(seed);
        prop_assert_eq!(&a, &b, "same seed must replay the same schedule");
        prop_assert_eq!(a.len(), 4, "attempt budget is exact");
        for d in &a {
            prop_assert!(*d > 0.0 && *d <= 0.4, "delay {d} outside (0, max]");
        }
    }

    /// Consecutive failures always trip the breaker at the configured
    /// threshold, and the open window rejects until it elapses.
    #[test]
    fn breaker_trips_at_threshold_and_reopens_after_window(
        threshold in 1u32..8,
        open_secs in 1.0f64..60.0,
    ) {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_secs,
            probe_successes: 1,
        });
        for i in 0..threshold {
            prop_assert!(b.allow(f64::from(i)), "breaker must stay closed before the threshold");
            b.record_failure(f64::from(i));
        }
        prop_assert_eq!(b.trips(), 1, "threshold consecutive failures trip once");
        let tripped_at = f64::from(threshold - 1);
        prop_assert!(!b.allow(tripped_at + open_secs * 0.5), "open window must reject");
        prop_assert!(b.allow(tripped_at + open_secs + 0.001), "half-open probe after the window");
        b.record_success();
        prop_assert!(b.allow(tripped_at + open_secs + 0.002), "probe success re-closes");
    }
}

#[test]
fn stale_copies_respect_the_age_bound() {
    const MEDALS: u32 = 48;
    let cache = PageCache::new(CacheConfig::default().with_stale(StalePolicy::bounded(60.0)));
    cache.set_now_secs(0.0);
    cache.put(MEDALS, Bytes::from_static(b"gold: 1"));
    cache.invalidate(MEDALS);
    cache.set_now_secs(59.0);
    let copy = cache.serve_stale(MEDALS).expect("within the bound");
    assert_eq!(&copy.body[..], b"gold: 1");
    assert!(copy.age_secs <= 60.0);
    // Past the bound the heartbeat prune retires the tombstone: the
    // caller sees a miss, never an over-age body.
    cache.set_now_secs(61.0);
    cache.prune_stale();
    assert!(
        cache.serve_stale(MEDALS).is_none(),
        "over-age stale copy must not be served"
    );
}
