//! Serving-path resilience properties (DESIGN.md §11a): the
//! single-flight stampede pin — **exactly one regeneration per
//! (key, stale-epoch)**, an epoch being each invalidation of the key, no
//! matter how many concurrent misses race — where every follower observes
//! the leader's fresh body; plus the breaker's and the retry schedule's
//! bounds, and the simulation's stale copies' age bound.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use nagano_cache::{FlightOutcome, PageCache};
use nagano_cluster::{BreakerConfig, CircuitBreaker, RetryBackoff, Tombstones};
use nagano_simcore::sync::blocking;
use nagano_simcore::{DeterministicRng, SimTime};
use proptest::prelude::*;

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
            // The leader published well within every follower's patience.
            FlightOutcome::TimedOut => panic!("a follower timed out"),
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
        let cache = Arc::new(PageCache::default());
        // A page's slot.
        let key = 17;
        let (mut regens, mut invalidations) = (0usize, 0usize);
        for round in 0..rounds {
            if round > 0 {
                // A live → stale transition: the last round's body leaves.
                let gone = cache.invalidate(key).map(|body| body.to_vec());
                prop_assert_eq!(gone, Some(format!("body-{}", round - 1).into_bytes()));
                invalidations += 1;
            }
            regens += stampede_round(&cache, key, followers, &format!("body-{round}"));
        }
        prop_assert_eq!(regens, invalidations + 1, "one regeneration per (key, stale-epoch)");
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
    let cache = PageCache::default();
    cache.put(MEDALS, Bytes::from_static(b"gold: 1"));
    let mut copies = Tombstones::new(60.0);
    let body = cache.invalidate(MEDALS).expect("cached");
    copies.keep(MEDALS, body, SimTime::ZERO);
    let copy = copies
        .get(MEDALS, SimTime::from_secs(59))
        .expect("within the bound");
    assert_eq!(&copy.body[..], b"gold: 1");
    // Past the bound the caller sees a miss, never an over-age body.
    assert!(
        copies.get(MEDALS, SimTime::from_secs(61)).is_none(),
        "over-age stale copy must not be served"
    );
}
