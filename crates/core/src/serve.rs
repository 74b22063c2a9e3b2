//! The serve decision (DESIGN.md §11a): what a request does when the
//! cache alone cannot answer it.
//!
//! One pure table, shared by both drivers. [`crate::ServingSite`] fills an
//! [`Observation`] from its cache's real single-flight map, with no
//! tombstone (it keeps none), the breaker admitting and the backend
//! reachable (its in-process renderer cannot fail), so it meets only the
//! rows that answer Hit, Join or Fill. The cluster simulation fills one
//! from sim time, its flight map, its tombstones, its breaker and its
//! fault plan, and after rendering asks [`after_render`] too. Neither
//! decides anything itself: each asks and carries out the answer.
//! Nothing here reads a clock, a socket or a lock. DESIGN.md §11a has the
//! table; the tests below spell out every combination of its inputs.

/// Everything the table reads, as the caller observed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// A fresh entry for the key is cached.
    pub fresh: bool,
    /// Seconds until the key's in-flight regeneration lands; `None` when
    /// none is in flight and the request would lead one. A caller that
    /// has waited on the flight already reports `0.0` when it landed and
    /// `f64::INFINITY` when it did not land within the budget.
    pub flight: Option<f64>,
    /// A stale tombstone within its age bound is held.
    pub tombstone: bool,
    /// The backend's circuit breaker admits a render.
    pub breaker_admits: bool,
    /// The backend answers, as far as the caller can tell.
    pub backend_reachable: bool,
    /// The request's latency budget in seconds.
    pub budget_secs: f64,
}

/// What the caller's own render came to — the input of [`after_render`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Render {
    /// The page was rendered and cached, taking `secs`.
    Done {
        /// Seconds the render took.
        secs: f64,
    },
    /// The backend did not answer.
    Failed {
        /// The caller's bounded backoff has another attempt.
        retries_left: bool,
    },
}

/// What to do with the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Serve the fresh cached entry.
    Hit,
    /// Wait on the open flight and serve what it lands; once it is gone,
    /// lead or join its replacement.
    Join,
    /// Serve the stale tombstone.
    ServeStale,
    /// Render the page (again); after a render, serve what it produced.
    Fill,
    /// Answer 503.
    Fail,
}

/// The decision for a request the cache did not simply answer.
pub fn decide(o: &Observation) -> Decision {
    match o.flight {
        Some(lands_in_secs) if lands_in_secs <= o.budget_secs => Decision::Join,
        Some(_) if o.tombstone => Decision::ServeStale,
        // (c) Availability over latency: with nothing else to serve, wait
        // for the flight — or lead its replacement, never a render beside it.
        Some(_) => Decision::Join,
        None if o.fresh => Decision::Hit,
        None if o.breaker_admits => Decision::Fill,
        // (a) An open breaker fails fast onto the tombstone.
        None if o.tombstone => Decision::ServeStale,
        // (b) With nothing to fail fast onto, render anyway — unless the
        // backend is known to be down.
        None if o.backend_reachable => Decision::Fill,
        None => Decision::Fail,
    }
}

/// The decision once the caller's own render is over.
pub fn after_render(render: Render, tombstone: bool, budget_secs: f64) -> Decision {
    match render {
        // (d) Too slow for this request: the tombstone answers it, and the
        // fresh body is already cached for the next one.
        Render::Done { secs } if secs > budget_secs && tombstone => Decision::ServeStale,
        Render::Done { .. } => Decision::Fill,
        Render::Failed { .. } if tombstone => Decision::ServeStale,
        Render::Failed { retries_left: true } => Decision::Fill,
        Render::Failed { .. } => Decision::Fail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Decision::{Fail, Fill, Hit, Join, ServeStale};

    const BUDGET: f64 = 2.0;
    /// A flight that lands within the budget, one that does not, none.
    const WITHIN: Option<f64> = Some(1.5);
    const PAST: Option<f64> = Some(2.5);
    const NONE: Option<f64> = None;

    /// `(rule, flight, fresh, tombstone, breaker admits, backend reachable, decision)`.
    type Row = (&'static str, Option<f64>, bool, bool, bool, bool, Decision);

    /// Every combination of the observation's inputs.
    #[rustfmt::skip]
    const TABLE: [Row; 48] = [
        ("join",  WITHIN, false, false, false, false, Join),
        ("join",  WITHIN, false, false, false, true,  Join),
        ("join",  WITHIN, false, false, true,  false, Join),
        ("join",  WITHIN, false, false, true,  true,  Join),
        ("join",  WITHIN, false, true,  false, false, Join),
        ("join",  WITHIN, false, true,  false, true,  Join),
        ("join",  WITHIN, false, true,  true,  false, Join),
        ("join",  WITHIN, false, true,  true,  true,  Join),
        ("join",  WITHIN, true,  false, false, false, Join),
        ("join",  WITHIN, true,  false, false, true,  Join),
        ("join",  WITHIN, true,  false, true,  false, Join),
        ("join",  WITHIN, true,  false, true,  true,  Join),
        ("join",  WITHIN, true,  true,  false, false, Join),
        ("join",  WITHIN, true,  true,  false, true,  Join),
        ("join",  WITHIN, true,  true,  true,  false, Join),
        ("join",  WITHIN, true,  true,  true,  true,  Join),
        ("(c)",   PAST,   false, false, false, false, Join),
        ("(c)",   PAST,   false, false, false, true,  Join),
        ("(c)",   PAST,   false, false, true,  false, Join),
        ("(c)",   PAST,   false, false, true,  true,  Join),
        ("stale", PAST,   false, true,  false, false, ServeStale),
        ("stale", PAST,   false, true,  false, true,  ServeStale),
        ("stale", PAST,   false, true,  true,  false, ServeStale),
        ("stale", PAST,   false, true,  true,  true,  ServeStale),
        ("(c)",   PAST,   true,  false, false, false, Join),
        ("(c)",   PAST,   true,  false, false, true,  Join),
        ("(c)",   PAST,   true,  false, true,  false, Join),
        ("(c)",   PAST,   true,  false, true,  true,  Join),
        ("stale", PAST,   true,  true,  false, false, ServeStale),
        ("stale", PAST,   true,  true,  false, true,  ServeStale),
        ("stale", PAST,   true,  true,  true,  false, ServeStale),
        ("stale", PAST,   true,  true,  true,  true,  ServeStale),
        ("(b)",   NONE,   false, false, false, false, Fail),
        ("(b)",   NONE,   false, false, false, true,  Fill),
        ("fill",  NONE,   false, false, true,  false, Fill),
        ("fill",  NONE,   false, false, true,  true,  Fill),
        ("(a)",   NONE,   false, true,  false, false, ServeStale),
        ("(a)",   NONE,   false, true,  false, true,  ServeStale),
        ("fill",  NONE,   false, true,  true,  false, Fill),
        ("fill",  NONE,   false, true,  true,  true,  Fill),
        ("hit",   NONE,   true,  false, false, false, Hit),
        ("hit",   NONE,   true,  false, false, true,  Hit),
        ("hit",   NONE,   true,  false, true,  false, Hit),
        ("hit",   NONE,   true,  false, true,  true,  Hit),
        ("hit",   NONE,   true,  true,  false, false, Hit),
        ("hit",   NONE,   true,  true,  false, true,  Hit),
        ("hit",   NONE,   true,  true,  true,  false, Hit),
        ("hit",   NONE,   true,  true,  true,  true,  Hit),
    ];

    /// `(rule, render, tombstone, decision)` for every render outcome.
    #[rustfmt::skip]
    const AFTER_RENDER: [(&str, Render, bool, Decision); 8] = [
        ("fill",  Render::Done { secs: 1.5 },                false, Fill),
        ("fill",  Render::Done { secs: 1.5 },                true,  Fill),
        ("fill",  Render::Done { secs: 2.5 },                false, Fill),
        ("(d)",   Render::Done { secs: 2.5 },                true,  ServeStale),
        ("retry", Render::Failed { retries_left: true },     false, Fill),
        ("stale", Render::Failed { retries_left: true },     true,  ServeStale),
        ("fail",  Render::Failed { retries_left: false },    false, Fail),
        ("stale", Render::Failed { retries_left: false },    true,  ServeStale),
    ];

    #[test]
    fn the_table_answers_every_observation() {
        let mut seen = std::collections::BTreeSet::new();
        for (rule, flight, fresh, tombstone, breaker_admits, backend_reachable, expected) in TABLE {
            let observed = Observation {
                fresh,
                flight,
                tombstone,
                breaker_admits,
                backend_reachable,
                budget_secs: BUDGET,
            };
            assert_eq!(decide(&observed), expected, "rule {rule}: {observed:?}");
            assert!(seen.insert(format!(
                "{flight:?}{fresh}{tombstone}{breaker_admits}{backend_reachable}"
            )));
        }
        for (rule, render, tombstone, expected) in AFTER_RENDER {
            assert_eq!(
                after_render(render, tombstone, BUDGET),
                expected,
                "rule {rule}: {render:?}"
            );
        }
        for rule in ["(a)", "(b)", "(c)"] {
            assert!(TABLE.iter().any(|row| row.0 == rule), "{rule} has no row");
        }
        assert!(AFTER_RENDER.iter().any(|row| row.0 == "(d)"));
    }

    /// The rows the site reaches: no tombstone, the breaker admitting,
    /// the backend reachable, and a flight absent, landed or timed out.
    #[test]
    fn the_sites_observations_are_answered_hit_join_or_fill() {
        for flight in [None, Some(0.0), Some(f64::INFINITY)] {
            for fresh in [false, true] {
                let observed = Observation {
                    fresh,
                    flight,
                    tombstone: false,
                    breaker_admits: true,
                    backend_reachable: true,
                    budget_secs: BUDGET,
                };
                let expected = match flight {
                    None if fresh => Hit,
                    None => Fill,
                    Some(_) => Join,
                };
                assert_eq!(decide(&observed), expected, "{observed:?}");
            }
        }
    }

    #[test]
    fn a_flight_landing_exactly_at_the_budget_is_joined() {
        let observed = Observation {
            fresh: false,
            flight: Some(BUDGET),
            tombstone: true,
            breaker_admits: true,
            backend_reachable: true,
            budget_secs: BUDGET,
        };
        assert_eq!(decide(&observed), Join);
        let render = Render::Done { secs: BUDGET };
        assert_eq!(after_render(render, true, BUDGET), Fill);
    }
}
