//! Declarative service-level objectives with multi-window burn-rate
//! alerts.
//!
//! The paper's implicit freshness contract ("an update is visible at
//! every serving site within seconds") becomes an explicit, evaluable
//! rule here. A [`SloRule`] is a value built in code; it displays as one
//! line of text, the form reports quote:
//!
//! ```text
//! fresh-30s: 99% of nagano_cluster_update_to_serve_seconds < 30
//! serve-p99: p99 of nagano_httpd_request_seconds < 0.25
//! ```
//!
//! * `<name>: <pct>% of <metric> < <bound>` — at least `pct`% of the
//!   observations in histogram `<metric>` must fall below `<bound>`
//!   ([`Objective::FractionBelow`]). The complement `1 - pct/100` is the
//!   rule's error budget, which feeds burn-rate alerting.
//! * `<name>: p<q> of <metric> < <max>` — the `q`-th percentile of
//!   `<metric>` must stay below `<max>` ([`Objective::QuantileBelow`]).
//!
//! An [`SloEngine`] owns a rule set, consumes hourly registry snapshots
//! on the sim clock, and tracks burn rate over the standard paired
//! windows (1 h / 6 h at 6× budget → `page`; 6 h / 24 h at 3× budget →
//! `ticket`). Alerts are recorded on the rising edge and land in the
//! deterministic `slo.json` export next to the final pass/fail verdicts.
//! Everything is pure arithmetic over sim-time data: same seed, same
//! bytes.

use nagano_simcore::Histogram;

use crate::export::{finite, json_escape};
use crate::registry::{MetricValue, MetricsRegistry};

/// What a rule asserts about a histogram metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// `p<q> of <metric> < <max>`: the q-th percentile stays under `max`.
    QuantileBelow {
        /// Percentile in `(0, 100)`, e.g. `99.0` or `99.9`.
        q: f64,
        /// Upper bound the percentile must stay below.
        max: f64,
    },
    /// `<pct>% of <metric> < <bound>`: at least `min_fraction` of all
    /// observations fall below `bound`.
    FractionBelow {
        /// Threshold an observation must fall below to count as good.
        bound: f64,
        /// Required good fraction in `(0, 1]`, e.g. `0.99`.
        min_fraction: f64,
    },
}

/// One named objective over one histogram metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Rule name, used in exports and alerts.
    pub name: String,
    /// Histogram metric the rule evaluates (label sets are merged).
    pub metric: String,
    /// The assertion itself.
    pub objective: Objective,
}

impl SloRule {
    /// The allowed bad fraction, for rules that have one
    /// (`FractionBelow`); burn-rate tracking only applies to these.
    pub fn error_budget(&self) -> Option<f64> {
        match self.objective {
            Objective::FractionBelow { min_fraction, .. } => Some(1.0 - min_fraction),
            Objective::QuantileBelow { .. } => None,
        }
    }

    /// Human/export rendering of the objective, e.g. `p99 < 30` or
    /// `99% < 30`.
    pub fn objective_text(&self) -> String {
        match self.objective {
            Objective::QuantileBelow { q, max } => format!("p{q} < {max}"),
            Objective::FractionBelow {
                bound,
                min_fraction,
            } => format!("{}% < {bound}", min_fraction * 100.0),
        }
    }
}

impl std::fmt::Display for SloRule {
    /// The rule's line form, e.g. `fresh-60s: 99% of m < 60`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, metric) = (&self.name, &self.metric);
        match self.objective {
            Objective::QuantileBelow { q, max } => write!(f, "{name}: p{q} of {metric} < {max}"),
            Objective::FractionBelow {
                bound,
                min_fraction,
            } => write!(f, "{name}: {}% of {metric} < {bound}", min_fraction * 100.0),
        }
    }
}

/// One burn-rate alert: the error budget was being consumed `burn_rate`
/// times faster than sustainable over both paired windows.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnAlert {
    /// `page` (fast burn) or `ticket` (slow burn).
    pub severity: &'static str,
    /// The long window that confirmed the burn, in hours.
    pub window_hours: usize,
    /// Hour label (from `observe_hour`) at which the alert fired.
    pub at_hour: u64,
    /// Budget-normalised burn rate over the long window at fire time.
    pub burn_rate: f64,
}

/// The standard paired burn-rate windows: (long, short, factor,
/// severity). Both windows must burn faster than `factor ×` budget for
/// the alert to fire — the short window confirms the burn is current,
/// the long window that it is material.
const BURN_WINDOWS: [(usize, usize, f64, &str); 2] = [(6, 1, 6.0, "page"), (24, 6, 3.0, "ticket")];

/// Tracks hourly good/bad counts for one rule and fires multi-window
/// burn-rate alerts on rising edges.
#[derive(Debug, Clone, Default)]
struct BurnTracker {
    /// Per-hour `(hour_label, good, bad)` in observation order.
    hours: Vec<(u64, u64, u64)>,
    /// Whether each window pair was firing after the last observation.
    firing: [bool; BURN_WINDOWS.len()],
    alerts: Vec<BurnAlert>,
}

impl BurnTracker {
    fn observe(&mut self, hour: u64, good: u64, bad: u64, budget: f64) {
        self.hours.push((hour, good, bad));
        let budget = budget.max(1e-9);
        for (i, (long, short, factor, severity)) in BURN_WINDOWS.iter().enumerate() {
            if self.hours.len() < *long {
                continue;
            }
            let long_burn = self.window_bad_fraction(*long) / budget;
            let short_burn = self.window_bad_fraction(*short) / budget;
            let now_firing = long_burn > *factor && short_burn > *factor;
            if now_firing && !self.firing[i] {
                self.alerts.push(BurnAlert {
                    severity,
                    window_hours: *long,
                    at_hour: hour,
                    burn_rate: long_burn,
                });
            }
            self.firing[i] = now_firing;
        }
    }

    /// Bad fraction over the trailing `window` observed hours.
    fn window_bad_fraction(&self, window: usize) -> f64 {
        let tail = &self.hours[self.hours.len().saturating_sub(window)..];
        let (good, bad) = tail
            .iter()
            .fold((0u64, 0u64), |(g, b), (_, hg, hb)| (g + hg, b + hb));
        if good + bad == 0 {
            0.0
        } else {
            bad as f64 / (good + bad) as f64
        }
    }
}

/// Final verdict for one rule, with any burn-rate alerts that fired
/// along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// The rule evaluated.
    pub rule: SloRule,
    /// Observed value: the percentile for `QuantileBelow`, the good
    /// fraction for `FractionBelow`.
    pub observed: f64,
    /// Target the observation is compared against: `max` or
    /// `min_fraction`.
    pub target: f64,
    /// Observations in the underlying histogram (0 ⇒ vacuous pass).
    pub count: u64,
    /// Whether the objective held at end of run.
    pub pass: bool,
    /// Burn-rate alerts, in firing order.
    pub alerts: Vec<BurnAlert>,
}

/// Evaluates a rule set against a [`MetricsRegistry`], consuming hourly
/// snapshots for burn-rate tracking.
#[derive(Debug, Default)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    trackers: Vec<BurnTracker>,
    /// Cumulative `(good, bad)` counts at the previous hourly snapshot,
    /// used to difference the monotone histogram into per-hour counts.
    prev: Vec<(u64, u64)>,
}

impl SloEngine {
    /// An engine over the given rules.
    pub fn new(rules: Vec<SloRule>) -> Self {
        let n = rules.len();
        SloEngine {
            rules,
            trackers: vec![BurnTracker::default(); n],
            prev: vec![(0, 0); n],
        }
    }

    /// Whether the engine has any rules to evaluate.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Feed one hourly snapshot: differences each fraction-type rule's
    /// cumulative good/bad counts into this hour's tally and advances
    /// the burn-rate windows.
    pub fn observe_hour(&mut self, hour: u64, registry: &MetricsRegistry) {
        for (i, rule) in self.rules.iter().enumerate() {
            let Some(budget) = rule.error_budget() else {
                continue;
            };
            let Objective::FractionBelow { bound, .. } = rule.objective else {
                continue;
            };
            let (good_cum, bad_cum) = match metric_histogram(registry, &rule.metric) {
                Some(h) => cumulative_good_bad(&h, bound),
                None => (0, 0),
            };
            let (pg, pb) = self.prev[i];
            let good = good_cum.saturating_sub(pg);
            let bad = bad_cum.saturating_sub(pb);
            self.prev[i] = (good_cum, bad_cum);
            self.trackers[i].observe(hour, good, bad, budget);
        }
    }

    /// Evaluate every rule against the registry's final state.
    pub fn finish(&self, registry: &MetricsRegistry) -> Vec<SloOutcome> {
        self.rules
            .iter()
            .zip(&self.trackers)
            .map(|(rule, tracker)| {
                let hist = metric_histogram(registry, &rule.metric);
                let count = hist.as_ref().map_or(0, Histogram::count);
                let (observed, target, pass) = match (rule.objective, &hist) {
                    (Objective::QuantileBelow { q, max }, Some(h)) => {
                        let v = h.percentile(q);
                        (v, max, v < max)
                    }
                    (Objective::QuantileBelow { max, .. }, None) => (0.0, max, true),
                    (
                        Objective::FractionBelow {
                            bound,
                            min_fraction,
                        },
                        Some(h),
                    ) => {
                        let good = 1.0 - h.fraction_above(bound);
                        (good, min_fraction, good >= min_fraction)
                    }
                    (Objective::FractionBelow { min_fraction, .. }, None) => {
                        (1.0, min_fraction, true)
                    }
                };
                SloOutcome {
                    rule: rule.clone(),
                    observed,
                    target,
                    count,
                    pass,
                    alerts: tracker.alerts.clone(),
                }
            })
            .collect()
    }
}

/// Merge every histogram sample named `name` (across label sets) into
/// one histogram; `None` if the metric is absent or not a histogram.
fn metric_histogram(registry: &MetricsRegistry, name: &str) -> Option<Histogram> {
    let mut merged: Option<Histogram> = None;
    for sample in registry.samples() {
        if sample.name != name {
            continue;
        }
        if let MetricValue::Histogram(h) = &sample.value {
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => m.merge(h),
            }
        }
    }
    merged
}

/// Cumulative `(good, bad)` observation counts relative to `bound`.
fn cumulative_good_bad(h: &Histogram, bound: f64) -> (u64, u64) {
    let count = h.count();
    let bad = (h.fraction_above(bound) * count as f64).round() as u64;
    (count.saturating_sub(bad), bad.min(count))
}

/// Render outcomes as the deterministic `slo.json` document.
pub fn slo_json(outcomes: &[SloOutcome]) -> String {
    let mut out = String::from("{\"slo\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match o.rule.objective {
            Objective::QuantileBelow { .. } => "quantile_below",
            Objective::FractionBelow { .. } => "fraction_below",
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"metric\":\"{}\",\"objective\":\"{}\",\
             \"kind\":\"{kind}\",\"observed\":{},\"target\":{},\
             \"count\":{},\"pass\":{},\"alerts\":[",
            json_escape(&o.rule.name),
            json_escape(&o.rule.metric),
            json_escape(&o.rule.objective_text()),
            finite(o.observed),
            finite(o.target),
            o.count,
            o.pass,
        ));
        for (j, a) in o.alerts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"window_hours\":{},\"at_hour\":{},\
                 \"burn_rate\":{:.4}}}",
                a.severity, a.window_hours, a.at_hour, a.burn_rate,
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `name: <pct>% of m < <bound>`.
    fn fraction(name: &str, pct: f64, bound: f64) -> SloRule {
        SloRule {
            name: name.into(),
            metric: "m".into(),
            objective: Objective::FractionBelow {
                bound,
                min_fraction: pct / 100.0,
            },
        }
    }

    #[test]
    fn a_rule_displays_as_its_line() {
        let fresh = fraction("fresh-30s", 99.0, 30.0);
        assert_eq!(fresh.to_string(), "fresh-30s: 99% of m < 30");
        assert_eq!(fresh.error_budget(), Some(1.0 - 0.99));
        assert_eq!(fresh.objective_text(), "99% < 30");
        let tail = SloRule {
            name: "serve-p99".into(),
            metric: "nagano_httpd_request_seconds".into(),
            objective: Objective::QuantileBelow { q: 99.9, max: 0.25 },
        };
        assert_eq!(
            tail.to_string(),
            "serve-p99: p99.9 of nagano_httpd_request_seconds < 0.25"
        );
        assert_eq!(tail.error_budget(), None);
        assert_eq!(tail.objective_text(), "p99.9 < 0.25");
    }

    fn registry_with(name: &str, values: &[f64]) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let h = reg.histogram(name, &[], 1e-3, 1_000.0);
        for &v in values {
            h.record(v);
        }
        reg
    }

    #[test]
    fn quantile_rule_passes_and_fails() {
        let reg = registry_with("m", &[1.0; 100]);
        let rule = SloRule {
            name: "r".into(),
            metric: "m".into(),
            objective: Objective::QuantileBelow { q: 99.0, max: 2.0 },
        };
        let out = SloEngine::new(vec![rule.clone()]).finish(&reg);
        assert!(out[0].pass, "{out:?}");
        assert_eq!(out[0].count, 100);

        let reg = registry_with("m", &[10.0; 100]);
        let out = SloEngine::new(vec![rule]).finish(&reg);
        assert!(!out[0].pass, "{out:?}");
        assert!(out[0].observed > 2.0);
    }

    #[test]
    fn fraction_rule_counts_good_share() {
        // 95 fast + 5 slow: passes a 90% objective, fails a 99% one.
        let mut values = vec![0.5; 95];
        values.extend([100.0; 5]);
        let reg = registry_with("m", &values);
        let lenient = fraction("ok", 90.0, 1.0);
        let strict = fraction("no", 99.0, 1.0);
        let out = SloEngine::new(vec![lenient, strict]).finish(&reg);
        assert!(out[0].pass, "{out:?}");
        assert!(!out[1].pass, "{out:?}");
        assert!((out[1].observed - 0.95).abs() < 0.01, "{out:?}");
    }

    #[test]
    fn absent_metric_is_a_vacuous_pass() {
        let reg = MetricsRegistry::new();
        let rule = SloRule {
            metric: "missing".into(),
            ..fraction("r", 99.0, 1.0)
        };
        let out = SloEngine::new(vec![rule]).finish(&reg);
        assert!(out[0].pass);
        assert_eq!(out[0].count, 0);
    }

    #[test]
    fn sustained_burn_pages_once_on_the_rising_edge() {
        // Budget 1%: a steady 10% bad rate burns at 10× — over both the
        // 1 h and 6 h windows once six hours accumulate.
        let rule = fraction("r", 99.0, 1.0);
        let reg = MetricsRegistry::new();
        let h = reg.histogram("m", &[], 1e-3, 1_000.0);
        let mut engine = SloEngine::new(vec![rule]);
        for hour in 0..8 {
            for _ in 0..90 {
                h.record(0.5);
            }
            for _ in 0..10 {
                h.record(500.0);
            }
            engine.observe_hour(hour, &reg);
        }
        let out = engine.finish(&reg);
        let pages: Vec<_> = out[0]
            .alerts
            .iter()
            .filter(|a| a.severity == "page")
            .collect();
        assert_eq!(pages.len(), 1, "rising edge only: {:?}", out[0].alerts);
        assert_eq!(pages[0].at_hour, 5, "fires once the 6 h window fills");
        assert!(pages[0].burn_rate > 6.0);
        assert!(!out[0].pass);
    }

    #[test]
    fn healthy_service_never_alerts() {
        let rule = fraction("r", 99.0, 1.0);
        let reg = MetricsRegistry::new();
        let h = reg.histogram("m", &[], 1e-3, 1_000.0);
        let mut engine = SloEngine::new(vec![rule]);
        for hour in 0..30 {
            for _ in 0..1000 {
                h.record(0.5);
            }
            engine.observe_hour(hour, &reg);
        }
        let out = engine.finish(&reg);
        assert!(out[0].pass);
        assert!(out[0].alerts.is_empty(), "{:?}", out[0].alerts);
    }

    #[test]
    fn slo_json_is_deterministic_and_well_formed() {
        let rule = fraction("r", 99.0, 1.0);
        let reg = registry_with("m", &[0.5; 10]);
        let engine = SloEngine::new(vec![rule]);
        let json = slo_json(&engine.finish(&reg));
        assert!(json.starts_with("{\"slo\":["));
        assert!(json.contains("\"name\":\"r\""));
        assert!(json.contains("\"pass\":true"));
        assert!(json.contains("\"alerts\":[]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, slo_json(&engine.finish(&reg)));
    }
}
