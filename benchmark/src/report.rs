//! Metric names, units and directions, how a run's value for a metric
//! comes out of its rounds, and the result documents: the strict
//! one-line result the driver reads, and the detailed per-round document
//! `run` collects from each workload's process.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::loadgen::Tally;
use crate::stats::{best_tenth, mean, median, percentile_of};
use crate::workloads::{Block, RoundResult, TxnTiming};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the site sees. `BENCHMARK.json` lists the same metrics
/// with their bounds; a test keeps the two in step.
pub const END_TO_END: [MetricDef; 8] = [
    lower("setup_s", "s"),
    lower("rss_mb", "MB"),
    higher("read_rps", "1/s"),
    lower("read_p50_us", "us"),
    lower("read_p90_us", "us"),
    lower("update_visible_p50_us", "us"),
    lower("update_visible_p90_us", "us"),
    higher("regen_pages_per_s", "1/s"),
];

/// One layer each; the prefix names the crate. Work counts are "lower is
/// better": the same result from fewer visits, renders or bytes.
pub const PER_LAYER: [MetricDef; 27] = [
    lower("httpd.parse_ns", "ns"),
    lower("httpd.write_ns", "ns"),
    lower("httpd.socket_us", "us"),
    higher("httpd.served", "count"),
    lower("httpd.shed", "count"),
    lower("httpd.quiet_read_p50_us", "us"),
    lower("httpd.quiet_read_p90_us", "us"),
    lower("core.respond_hit_ns", "ns"),
    lower("core.handle_miss_us", "us"),
    lower("cache.get_ns", "ns"),
    higher("cache.hit_share", "share"),
    lower("cache.evictions", "count"),
    lower("cache.distribute_us", "us"),
    lower("db.commit_us", "us"),
    lower("db.history_slowdown_x", "x"),
    lower("odg.propagate_us", "us"),
    lower("odg.nodes_visited", "count"),
    lower("odg.stale_per_txn", "count"),
    lower("pagegen.render_us", "us"),
    lower("pagegen.bytes_per_page", "B"),
    lower("trigger.process_txn_us", "us"),
    lower("trigger.self_us", "us"),
    higher("trigger.self_nonneg_share", "share"),
    lower("trigger.handoff_us", "us"),
    lower("trigger.txns", "count"),
    lower("trigger.pages_regenerated", "count"),
    lower("trace.overhead_share", "share"),
];

/// Printed beside the metrics, never gated: tails too unstable to bound
/// on this box, the transaction as a whole (commit + visible), and counts.
pub const DIAGNOSTICS: [MetricDef; 8] = [
    lower("read_p99_us", "us"),
    lower("update_visible_p99_us", "us"),
    lower("txn_p50_us", "us"),
    lower("txn_p90_us", "us"),
    lower("txn_max_us", "us"),
    higher("rounds", "count"),
    higher("trace.replay_hits", "count"),
    lower("trace.replay_misses", "count"),
];

/// One workload's process, summed up.
pub struct WorkloadReport {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub digest: u64,
    /// The measured rounds, in order.
    pub rounds: Vec<RoundResult>,
    /// Values of the process as a whole: `rss_mb`, the traced layers.
    pub whole: BTreeMap<&'static str, f64>,
    /// Every read of every round, warm-up included.
    pub reads: Tally,
    pub txns_committed: u64,
    pub pages_checked: u64,
    /// Failed checks and what was wrong; a failed read adds its reason
    /// here too, but counts under `reads.failed`.
    pub failures: Vec<String>,
    failed_checks: u64,
}

/// Every transaction of the schedule as it runs undisturbed: per
/// ordinal, the median over the best tenth (shortest commit call to
/// visible) of its repetitions in `rounds`. Every replay commits the same
/// transactions in the same order, so an ordinal's repetitions did the
/// same work. Empty when no round replayed the whole schedule.
fn undisturbed_txns(rounds: &[&RoundResult]) -> Vec<TxnTiming> {
    let len = rounds.iter().map(|r| r.txns.len()).max().unwrap_or(0);
    let replays: Vec<_> = rounds.iter().filter(|r| r.txns.len() == len).collect();
    (0..len)
        .map(|i| {
            let pick = |field: fn(&TxnTiming) -> u64| {
                let mut reps: Vec<(f64, f64)> = replays
                    .iter()
                    .map(|r| (-(r.txns[i].txn_ns as f64), field(&r.txns[i]) as f64))
                    .collect();
                best_tenth(&mut reps) as u64
            };
            TxnTiming {
                txn_ns: pick(|t| t.txn_ns),
                visible_ns: pick(|t| t.visible_ns),
            }
        })
        .collect()
}

/// Every block of reads of every connection as it runs undisturbed:
/// per connection and block, the mean over the best tenth (shortest) of
/// its repetitions in `rounds`. A connection walks the same stretch of
/// the read schedule in every round, so a block's repetitions sent the
/// same requests. A block that fewer than half of the rounds got to is
/// left out: on `serve_under_updates` the reads last as long as the
/// replay beside them does.
fn undisturbed_blocks(rounds: &[&RoundResult]) -> Vec<Vec<Block>> {
    let connections = rounds.iter().map(|r| r.blocks.len()).max().unwrap_or(0);
    let mut blocks = vec![Vec::new(); connections];
    for (c, blocks) in blocks.iter_mut().enumerate() {
        for j in 0.. {
            let reps: Vec<&Block> = rounds
                .iter()
                .filter_map(|r| r.blocks.get(c)?.get(j))
                .collect();
            if reps.is_empty() || reps.len() * 2 < rounds.len() {
                break;
            }
            let pick = |field: fn(&Block) -> f64| {
                let mut reps: Vec<(f64, f64)> = reps
                    .iter()
                    .map(|b| (-f64::from(b.duration_us), field(b)))
                    .collect();
                best_tenth(&mut reps)
            };
            blocks.push(Block {
                reads: reps[0].reads,
                duration_us: pick(|b| f64::from(b.duration_us)).round() as u32,
                p50_us: pick(|b| b.p50_us),
                p90_us: pick(|b| b.p90_us),
                p99_us: pick(|b| b.p99_us),
            });
        }
    }
    blocks
}

/// The value of `name` over `rounds`. A build, a block of reads and a
/// transaction are each compared with their repetitions and read off the
/// best tenth of them; a figure of a round as a whole is the median over
/// the rounds. `None` when no round has it.
fn over_rounds(rounds: &[&RoundResult], name: &str) -> Option<f64> {
    let of_blocks = |field: fn(&Block) -> f64| {
        let blocks: Vec<f64> = undisturbed_blocks(rounds)
            .iter()
            .flatten()
            .map(field)
            .collect();
        (!blocks.is_empty()).then(|| mean(&blocks))
    };
    let of_txns = |field: fn(&TxnTiming) -> u64, q: f64| {
        let mut ns: Vec<u64> = undisturbed_txns(rounds).iter().map(field).collect();
        (!ns.is_empty()).then(|| percentile_of(&mut ns, q) as f64 / 1e3)
    };
    match name {
        "setup_s" => {
            let mut builds: Vec<(f64, f64)> =
                rounds.iter().map(|r| (-r.setup_s, r.setup_s)).collect();
            (!builds.is_empty()).then(|| best_tenth(&mut builds))
        }
        // The connections read side by side, each at its own pace (one
        // that never got a block measured: at the pace of the others).
        "read_rps" => {
            let blocks = undisturbed_blocks(rounds);
            let paces: Vec<f64> = blocks
                .iter()
                .filter(|blocks| !blocks.is_empty())
                .map(|blocks| {
                    let reads: f64 = blocks.iter().map(|b| f64::from(b.reads)).sum();
                    let us: f64 = blocks.iter().map(|b| f64::from(b.duration_us)).sum();
                    reads * 1e6 / us
                })
                .collect();
            (!paces.is_empty()).then(|| mean(&paces) * blocks.len() as f64)
        }
        "read_p50_us" => of_blocks(|b| b.p50_us),
        "read_p90_us" => of_blocks(|b| b.p90_us),
        "read_p99_us" => of_blocks(|b| b.p99_us),
        "update_visible_p50_us" => of_txns(|t| t.visible_ns, 0.50),
        "update_visible_p90_us" => of_txns(|t| t.visible_ns, 0.90),
        "update_visible_p99_us" => of_txns(|t| t.visible_ns, 0.99),
        "txn_p50_us" => of_txns(|t| t.txn_ns, 0.50),
        "txn_p90_us" => of_txns(|t| t.txn_ns, 0.90),
        "txn_max_us" => of_txns(|t| t.txn_ns, 1.0),
        "regen_pages_per_s" => {
            let replay_ns: u64 = undisturbed_txns(rounds).iter().map(|t| t.txn_ns).sum();
            let pages: Vec<f64> = rounds.iter().map(|r| r.regenerated as f64).collect();
            (replay_ns > 0).then(|| median(&pages) / (replay_ns as f64 / 1e9))
        }
        _ => {
            let whole: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.values.get(name).copied())
                .collect();
            (!whole.is_empty()).then(|| median(&whole))
        }
    }
}

impl WorkloadReport {
    pub fn new(workload: &'static str, traced: bool, seed: u64, seconds: f64, digest: u64) -> Self {
        WorkloadReport {
            workload,
            traced,
            seed,
            seconds,
            digest,
            rounds: Vec::new(),
            whole: BTreeMap::new(),
            reads: Tally::default(),
            txns_committed: 0,
            pages_checked: 0,
            failures: Vec::new(),
            failed_checks: 0,
        }
    }

    /// Fold one measured round in.
    pub fn add_round(&mut self, round: RoundResult) {
        self.count(&format!("round {}", self.rounds.len()), &round);
        self.rounds.push(round);
    }

    /// Fold in a round whose timings are discarded: its operations and
    /// its checks still count.
    pub fn add_unmeasured(&mut self, round: &RoundResult) {
        self.count("warm-up round", round);
    }

    fn count(&mut self, which: &str, r: &RoundResult) {
        self.reads.merge(&r.reads);
        self.txns_committed += r.txns_committed;
        self.pages_checked += r.pages_checked;
        self.failed_checks += r.failures.len() as u64;
        if let Some(why) = &r.reads.first_failure {
            self.failures.push(format!("{which}: read {why}"));
        }
        for why in &r.failures {
            self.failures.push(format!("{which}: {why}"));
        }
    }

    /// Record a value that belongs to the whole process, not to a round.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.whole.insert(name, value);
    }

    pub fn fail(&mut self, why: String) {
        self.failed_checks += 1;
        self.failures.push(why);
    }

    /// Reads and committed transactions are the operations attempted.
    pub fn attempted(&self) -> u64 {
        self.reads.attempted + self.txns_committed
    }

    /// Every failed read and every failed check is a failure.
    pub fn failed(&self) -> u64 {
        self.reads.failed + self.failed_checks
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// A metric's value for the workload, if anything measured it.
    fn measured(&self, name: &str) -> Option<f64> {
        match name {
            "rounds" => Some(self.rounds.len() as f64),
            _ => self
                .whole
                .get(name)
                .copied()
                .or_else(|| over_rounds(&self.rounds.iter().collect::<Vec<_>>(), name)),
        }
    }

    /// A metric's value for the workload; 0 when nothing measured it.
    pub fn value(&self, name: &str) -> f64 {
        self.measured(name).unwrap_or(0.0)
    }

    /// The same metric from each round alone, in order.
    fn per_round(&self, name: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .filter_map(|r| over_rounds(&[r], name))
            .collect()
    }

    /// The same metric from every third round, three ways: what the run
    /// would have said had it been a third as long. `compare` calls a
    /// value unresolved when these disagree by more than the bound.
    fn per_third(&self, name: &str) -> Vec<f64> {
        (0..3)
            .filter_map(|k| {
                let third: Vec<_> = self.rounds.iter().skip(k).step_by(3).collect();
                over_rounds(&third, name)
            })
            .collect()
    }

    fn gated(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Everything worth printing: the gated metrics first, then whatever
    /// else was measured (a measuring run also sees some per-layer
    /// figures, a traced run the end-to-end ones of its one round).
    fn printed(&self) -> impl Iterator<Item = &'static MetricDef> + '_ {
        let gated = self.gated();
        let rest = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .filter(move |m| !gated.iter().any(|g| g.name == m.name));
        gated
            .iter()
            .chain(rest)
            .chain(&DIAGNOSTICS)
            .filter(|m| self.measured(m.name).is_some())
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let mut metrics = Map::new();
        for m in self.gated() {
            metrics.insert(
                m.name.to_string(),
                json!({"value": self.value(m.name), "unit": m.unit}),
            );
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted().max(1),
            "failed": self.failed(),
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("a JSON value serialises")
    }

    /// Everything, per round: what `run` stores and `compare` reads.
    pub fn detail(&self) -> Value {
        let mut metrics = Map::new();
        for m in self.printed() {
            metrics.insert(
                m.name.to_string(),
                json!({
                    "unit": m.unit,
                    "better": if m.higher_is_better { "higher" } else { "lower" },
                    "value": self.value(m.name),
                    "rounds": self.per_round(m.name),
                    "thirds": self.per_third(m.name),
                }),
            );
        }
        json!({
            "workload": self.workload,
            "mode": if self.traced { "trace" } else { "measure" },
            "seed": self.seed,
            "seconds": self.seconds,
            "inputs_digest": format!("{:#018x}", self.digest),
            "correct": self.correct(),
            "attempted": self.attempted(),
            "ok": self.reads.ok + self.txns_committed,
            "failed": self.failed(),
            "not_modified": self.reads.not_modified,
            "bodies_checked": self.reads.bodies_checked,
            "txns_committed": self.txns_committed,
            "pages_checked": self.pages_checked,
            "failures": self.failures.clone(),
            "metrics": Value::Object(metrics),
        })
    }

    /// Every metric by name with its unit, the value of every round
    /// beside the value of the run, then the counts.
    pub fn print(&self) {
        println!(
            "== {} ({}) seed {} inputs {:#018x}",
            self.workload,
            if self.traced { "trace" } else { "measure" },
            self.seed,
            self.digest
        );
        for m in self.printed() {
            let each: Vec<String> = self
                .per_round(m.name)
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect();
            println!(
                "{:<28} {:>14.3} {:<6} [{}]",
                m.name,
                self.value(m.name),
                m.unit,
                each.join(" ")
            );
        }
        println!(
            "attempted {} ok {} failed {} (304: {}, bodies compared: {}, txns: {}, cached pages compared: {})",
            self.attempted(),
            self.reads.ok + self.txns_committed,
            self.failed(),
            self.reads.not_modified,
            self.reads.bodies_checked,
            self.txns_committed,
            self.pages_checked
        );
        for why in &self.failures {
            println!("FAILED {why}");
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc[key].as_array().expect("a list of metrics");
            assert_eq!(listed.len(), table.len(), "{key}: metric count");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(entry["name"].as_str(), Some(m.name), "{key}: order");
                assert_eq!(entry["unit"].as_str(), Some(m.unit), "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry["better"].as_str(), Some(better), "{}", m.name);
            }
        }
        // The workloads it gates are workloads of this program, in its
        // order. `small_cache` is measured by `run` but not gated: see
        // README, "Why `small_cache` is not gated".
        let gated: Vec<_> = doc["workloads"]
            .as_array()
            .expect("a list of workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("a name").to_string())
            .collect();
        let ours: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .filter(|name| name != "small_cache")
            .collect();
        assert_eq!(gated, ours);
    }

    fn round(
        setup_s: f64,
        blocks: &[(u32, f64)],
        txns: &[(u64, u64)],
        hit_share: f64,
    ) -> RoundResult {
        let block = |&(duration_us, p50_us)| Block {
            reads: 100,
            duration_us,
            p50_us,
            p90_us: 2.0 * p50_us,
            p99_us: 3.0 * p50_us,
        };
        RoundResult {
            setup_s,
            // Two connections with the same blocks.
            blocks: vec![blocks.iter().map(block).collect(); 2],
            txns: txns
                .iter()
                .map(|&(txn_ns, visible_ns)| TxnTiming { txn_ns, visible_ns })
                .collect(),
            regenerated: 30,
            values: [("cache.hit_share", hit_share)].into_iter().collect(),
            ..RoundResult::default()
        }
    }

    #[test]
    fn a_value_is_read_off_the_undisturbed_repetitions_of_each_piece() {
        // Round 1 was interrupted: a slow build, its first block at half
        // speed, the second transaction held up for 9 ms.
        let quiet = round(
            0.020,
            &[(1000, 9.0), (1250, 12.0)],
            &[
                (1_000_000, 900_000),
                (3_000_000, 2_800_000),
                (500_000, 450_000),
            ],
            1.0,
        );
        let noisy = round(
            0.045,
            &[(2000, 19.0), (1200, 11.0)],
            &[
                (1_100_000, 990_000),
                (12_000_000, 11_800_000),
                (480_000, 430_000),
            ],
            0.5,
        );
        let both = [&quiet, &noisy];
        let value = |name| over_rounds(&both, name).unwrap();
        assert_eq!(value("setup_s"), 0.020);
        // Per block the faster repetition, and its latencies: block 0 of
        // the quiet round, block 1 of the noisy one. 200 reads in 2.2 ms
        // on each of two connections.
        assert_eq!(value("read_rps"), 2.0 * 200.0 * 1e6 / 2200.0);
        assert_eq!(value("read_p50_us"), 10.0);
        assert_eq!(value("read_p90_us"), 20.0);
        // Per ordinal the faster repetition: 1.0, 3.0 and 0.48 ms.
        assert_eq!(value("update_visible_p50_us"), 900.0);
        assert_eq!(value("update_visible_p90_us"), 2800.0);
        assert_eq!(value("txn_max_us"), 3000.0);
        assert_eq!(value("regen_pages_per_s"), 30.0 / 4.48e-3);
        // A figure of a round as a whole: the median over the rounds.
        assert_eq!(value("cache.hit_share"), 0.75);
        assert_eq!(over_rounds(&both, "no_such_metric"), None);
        // One round alone reads as itself.
        assert_eq!(
            over_rounds(&[&noisy], "update_visible_p90_us"),
            Some(11_800.0)
        );
        assert_eq!(over_rounds(&[&noisy], "setup_s"), Some(0.045));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = WorkloadReport::new("hot_hits", false, 1, 1.0, 2);
        for m in &END_TO_END {
            r.set(m.name, 2.0);
        }
        let v: Value = serde_json::from_str(&r.driver_line()).unwrap();
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["metrics"].as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(v["metrics"]["read_rps"]["value"].as_f64(), Some(2.0));
        assert_eq!(v["metrics"]["read_rps"]["unit"].as_str(), Some("1/s"));
        assert_eq!(v["attempted"].as_u64(), Some(1), "attempted is at least 1");
        r.fail("boom".into());
        let v: Value = serde_json::from_str(&r.driver_line()).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["failed"].as_u64(), Some(1));
    }
}
