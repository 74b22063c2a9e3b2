//! Serving-path resilience primitives of the simulation (DESIGN.md §11).
//!
//! Three small, clock-free building blocks behind the fault plan's backend
//! outages (the request budget is compared in one place, [`nagano::serve`]):
//!
//! * [`CircuitBreaker`] — a three-state (Closed → Open → HalfOpen)
//!   breaker around a complex's render/db backend. Time is *passed in*
//!   as sim-time seconds, so the type never reads a wall clock.
//! * [`RetryBackoff`] — bounded exponential backoff with full jitter
//!   drawn from a caller-supplied [`DeterministicRng`], so retry
//!   schedules are reproducible under a fixed seed.
//! * [`Tombstones`] — the last body each invalidation took out of a
//!   complex's cache, servable while younger than an age bound. Time is
//!   passed in as [`SimTime`].

use bytes::Bytes;
use nagano_simcore::{DeterministicRng, SimTime};
use rustc_hash::FxHashMap;

/// Breaker state, in the order transitions happen.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed {
        /// Consecutive failures seen so far (reset on success).
        consecutive_failures: u32,
    },
    /// Tripped: requests fail fast (serve stale / shed) until `until`.
    Open {
        /// Time (seconds, caller's clock) when the breaker half-opens.
        until: f64,
    },
    /// Probing: a limited number of trial requests are let through.
    HalfOpen {
        /// Successful probes so far.
        probes_ok: u32,
    },
}

/// Configuration for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Seconds the breaker stays Open before probing.
    pub open_secs: f64,
    /// Successful probes that close a HalfOpen breaker.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_secs: 10.0,
            probe_successes: 2,
        }
    }
}

/// A three-state circuit breaker. All methods take `now` in sim-time
/// seconds; the breaker only compares and stores these values.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Breaker trips since construction (Closed/HalfOpen → Open edges).
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            trips: 0,
        }
    }

    /// Should this request be attempted against the backend? `false`
    /// means fail fast (serve stale or shed). An Open breaker whose
    /// window has elapsed transitions to HalfOpen and lets the probe
    /// through.
    pub fn allow(&mut self, now: f64) -> bool {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen { .. } => true,
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen { probes_ok: 0 };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful backend call.
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed { .. } => {
                self.state = BreakerState::Closed {
                    consecutive_failures: 0,
                };
            }
            BreakerState::HalfOpen { probes_ok } => {
                let probes_ok = probes_ok + 1;
                self.state = if probes_ok >= self.config.probe_successes {
                    BreakerState::Closed {
                        consecutive_failures: 0,
                    }
                } else {
                    BreakerState::HalfOpen { probes_ok }
                };
            }
            BreakerState::Open { .. } => {} // stray completion; ignore
        }
    }

    /// Record a failed (or timed-out) backend call.
    pub fn record_failure(&mut self, now: f64) {
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let consecutive_failures = consecutive_failures + 1;
                if consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                } else {
                    self.state = BreakerState::Closed {
                        consecutive_failures,
                    };
                }
            }
            // A failed probe re-opens immediately.
            BreakerState::HalfOpen { .. } => self.trip(now),
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: f64) {
        self.trips += 1;
        self.state = BreakerState::Open {
            until: now + self.config.open_secs,
        };
    }

    /// Breaker trips since construction.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Bounded exponential backoff with full jitter.
///
/// Attempt `n` (0-based) sleeps `uniform(0, base · 2ⁿ)` seconds, capped
/// at `max_secs` — AWS-style "full jitter", which de-synchronises
/// retrying clients better than equal jitter at the same load. Jitter
/// comes from a caller-supplied seeded RNG, never a global one.
#[derive(Debug, Clone, Copy)]
pub struct RetryBackoff {
    base_secs: f64,
    max_secs: f64,
    max_attempts: u32,
    attempt: u32,
}

impl RetryBackoff {
    /// A backoff schedule of at most `max_attempts` retries starting at
    /// `base_secs`, with per-sleep cap `max_secs`.
    pub fn new(base_secs: f64, max_secs: f64, max_attempts: u32) -> Self {
        RetryBackoff {
            base_secs,
            max_secs,
            max_attempts,
            attempt: 0,
        }
    }

    /// The next jittered sleep in seconds, or `None` once the attempt
    /// budget is spent (give up; serve stale or shed).
    pub fn next_delay(&mut self, rng: &mut DeterministicRng) -> Option<f64> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let ceiling = (self.base_secs * f64::from(1u32 << self.attempt.min(20))).min(self.max_secs);
        self.attempt += 1;
        Some(rng.range_f64(0.0, ceiling))
    }

    /// Retries remaining.
    pub fn remaining(&self) -> u32 {
        self.max_attempts - self.attempt
    }
}

/// A stale copy of a page: the body an invalidation took out of the
/// cache.
#[derive(Debug, Clone)]
pub struct Tombstone {
    /// The body the entry held when it was removed.
    pub body: Bytes,
    /// The page's stale epoch when it was removed: 1 for its first
    /// live → stale transition, counted up from there.
    pub epoch: u64,
    since: SimTime,
}

impl Tombstone {
    /// Seconds from when the copy was kept to `now`.
    pub fn age_secs(&self, now: SimTime) -> f64 {
        now.since(self.since).as_secs_f64()
    }
}

/// One complex's stale copies, by page slot: a request the cache cannot
/// answer may still be served one of them while it is no older than the
/// age bound (serve-stale-on-error). A fresh body of the page supersedes
/// its copy; a cold restart wipes every copy and every epoch.
///
/// Only invalidations leave copies: the simulation's caches are
/// unbounded, so nothing is evicted.
#[derive(Debug)]
pub struct Tombstones {
    max_age_secs: f64,
    copies: FxHashMap<u32, Tombstone>,
    /// Live → stale transitions per page. Kept apart from `copies`, so a
    /// page's epoch outlives the copy a fresh body supersedes.
    epochs: FxHashMap<u32, u64>,
}

impl Tombstones {
    /// An empty store whose copies may be served up to `max_age_secs`
    /// after they were kept.
    pub fn new(max_age_secs: f64) -> Self {
        Tombstones {
            max_age_secs,
            copies: FxHashMap::default(),
            epochs: FxHashMap::default(),
        }
    }

    /// Keep `body`, which an invalidation took out of `slot`'s entry at
    /// `now`, as the page's stale copy, in the page's next stale epoch.
    pub fn keep(&mut self, slot: u32, body: Bytes, now: SimTime) {
        let epoch = self.epochs.entry(slot).or_insert(0);
        *epoch += 1;
        let epoch = *epoch;
        self.copies.insert(
            slot,
            Tombstone {
                body,
                epoch,
                since: now,
            },
        );
    }

    /// A fresh body of `slot` is cached: its stale copy is superseded.
    pub fn supersede(&mut self, slot: u32) {
        self.copies.remove(&slot);
    }

    /// `slot`'s stale copy, if it is no older than the bound at `now`.
    pub fn get(&self, slot: u32, now: SimTime) -> Option<&Tombstone> {
        let copy = self.copies.get(&slot)?;
        (copy.age_secs(now) <= self.max_age_secs).then_some(copy)
    }

    /// A cold restart: every copy and every epoch goes.
    pub fn clear(&mut self) {
        self.copies.clear();
        self.epochs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_name(b: &CircuitBreaker) -> &'static str {
        match b.state {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half_open",
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probes() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_secs: 10.0,
            probe_successes: 2,
        });
        assert_eq!(state_name(&b), "closed");
        assert!(b.allow(0.0));
        b.record_failure(0.0);
        b.record_failure(1.0);
        assert_eq!(state_name(&b), "closed");
        b.record_failure(2.0);
        assert_eq!(state_name(&b), "open");
        assert_eq!(b.trips(), 1);
        // Fail fast while open.
        assert!(!b.allow(5.0));
        // Window elapses → half-open, probes admitted.
        assert!(b.allow(12.0));
        assert_eq!(state_name(&b), "half_open");
        b.record_success();
        assert_eq!(state_name(&b), "half_open");
        b.record_success();
        assert_eq!(state_name(&b), "closed");
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_secs: 5.0,
            probe_successes: 1,
        });
        b.record_failure(0.0);
        assert!(b.allow(5.0)); // half-open probe
        b.record_failure(5.0);
        assert_eq!(state_name(&b), "open");
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(9.0));
        assert!(b.allow(10.0));
        b.record_success();
        assert_eq!(state_name(&b), "closed");
    }

    #[test]
    fn closed_failures_reset_on_success() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            ..BreakerConfig::default()
        });
        b.record_failure(0.0);
        b.record_success();
        b.record_failure(1.0);
        assert_eq!(state_name(&b), "closed", "success reset the streak");
    }

    #[test]
    fn backoff_is_bounded_jittered_and_seeded() {
        let mut rng = DeterministicRng::seed_from_u64(42);
        let mut bo = RetryBackoff::new(0.1, 2.0, 4);
        let mut ceilings = [0.1, 0.2, 0.4, 0.8].into_iter();
        let mut delays = Vec::new();
        while let Some(d) = bo.next_delay(&mut rng) {
            let ceiling = ceilings.next().unwrap();
            assert!((0.0..ceiling).contains(&d), "{d} within [0, {ceiling})");
            delays.push(d);
        }
        assert_eq!(delays.len(), 4, "budget of 4 attempts");
        assert_eq!(bo.remaining(), 0);
        // Same seed → same schedule.
        let mut rng2 = DeterministicRng::seed_from_u64(42);
        let mut bo2 = RetryBackoff::new(0.1, 2.0, 4);
        let replay: Vec<f64> = std::iter::from_fn(|| bo2.next_delay(&mut rng2)).collect();
        assert_eq!(delays, replay);
    }

    #[test]
    fn backoff_caps_at_max() {
        let mut rng = DeterministicRng::seed_from_u64(7);
        let mut bo = RetryBackoff::new(1.0, 3.0, 40);
        for _ in 0..40 {
            let d = bo.next_delay(&mut rng).unwrap();
            assert!(d < 3.0, "per-sleep cap holds even at huge exponents");
        }
        assert!(bo.next_delay(&mut rng).is_none());
    }

    const MEDALS: u32 = 48;

    fn at_secs(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn an_invalidation_is_kept_in_the_pages_next_epoch() {
        let mut t = Tombstones::new(900.0);
        assert!(t.get(MEDALS, at_secs(0)).is_none());
        t.keep(MEDALS, Bytes::from_static(b"gold: 1"), at_secs(0));
        let copy = t.get(MEDALS, at_secs(0)).unwrap();
        assert_eq!((&copy.body[..], copy.epoch), (&b"gold: 1"[..], 1));
        t.keep(MEDALS, Bytes::from_static(b"gold: 2"), at_secs(60));
        let copy = t.get(MEDALS, at_secs(60)).unwrap();
        assert_eq!((&copy.body[..], copy.epoch), (&b"gold: 2"[..], 2));
    }

    #[test]
    fn a_copy_is_served_up_to_the_age_bound_on_the_clock_it_is_handed() {
        let mut t = Tombstones::new(900.0);
        // Kept in minute 10; served on the minute clock while the bound
        // holds, at 15 minutes exactly too, and not a minute later.
        t.keep(
            MEDALS,
            Bytes::from_static(b"gold: 1"),
            SimTime::from_mins(10),
        );
        assert!(t.get(MEDALS, SimTime::from_mins(24)).is_some());
        assert!(t.get(MEDALS, SimTime::from_mins(25)).is_some());
        assert!(t.get(MEDALS, SimTime::from_mins(26)).is_none());
        // Aged on the time it was kept, not on a later one: a copy kept at
        // minute 25 is fresh at minute 26.
        t.keep(
            MEDALS,
            Bytes::from_static(b"gold: 2"),
            SimTime::from_mins(25),
        );
        assert!(t.get(MEDALS, SimTime::from_mins(26)).is_some());
        assert!(t.get(MEDALS, SimTime::from_mins(41)).is_none());
    }

    #[test]
    fn a_fresh_body_supersedes_the_copy_but_not_the_epoch() {
        let mut t = Tombstones::new(900.0);
        t.keep(MEDALS, Bytes::from_static(b"gold: 1"), at_secs(0));
        t.supersede(MEDALS);
        assert!(t.get(MEDALS, at_secs(0)).is_none());
        // The next invalidation is the page's second live → stale.
        t.keep(MEDALS, Bytes::from_static(b"gold: 2"), at_secs(0));
        assert_eq!(t.get(MEDALS, at_secs(0)).unwrap().epoch, 2);
    }

    #[test]
    fn a_cold_restart_wipes_copies_and_epochs() {
        let mut t = Tombstones::new(900.0);
        t.keep(MEDALS, Bytes::from_static(b"gold: 1"), at_secs(0));
        t.clear();
        assert!(t.get(MEDALS, at_secs(0)).is_none());
        // Counted from the first epoch again.
        t.keep(MEDALS, Bytes::from_static(b"gold: 2"), at_secs(0));
        assert_eq!(t.get(MEDALS, at_secs(0)).unwrap().epoch, 1);
    }
}
