//! `compare A.json B.json`: for every workload and end-to-end metric,
//! how far B's value is from A's, against the bound `BENCHMARK.json`
//! fixes for the metric.

use serde_json::Value;

use crate::stats::quartile_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// One side's value depends on which third of its rounds it is read
    /// off by more than the bound: the two values cannot be told apart
    /// at this bound.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `worse_by` is B's change for the worse as a share of
/// A's median (negative when B is better), as the driver measures it.
pub fn judge(
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
    higher_is_better: bool,
    bound: f64,
) -> (f64, Verdict) {
    let worse_by = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let verdict = if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

fn thirds(metric: &Value) -> Vec<f64> {
    metric["thirds"]
        .as_array()
        .map(|w| w.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Print the comparison table; returns how many pairings were not `same`.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<usize, String> {
    let metrics = benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a["workloads"]
        .as_object()
        .ok_or("first file has no workloads")?;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread A", "spread B"
    );
    let mut differing = 0;
    for (workload, run_a) in workloads {
        let run_b = &b["workloads"][workload.as_str()];
        if run_b.is_null() {
            return Err(format!("second file has no workload {workload}"));
        }
        for m in metrics {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let bound = m["bound"].as_f64().ok_or("metric without a bound")?;
            let higher = m["better"].as_str() == Some("higher");
            let (ma, mb) = (&run_a["metrics"][name], &run_b["metrics"][name]);
            let (Some(va), Some(vb)) = (ma["value"].as_f64(), mb["value"].as_f64()) else {
                return Err(format!("{workload}: {name} is missing from a file"));
            };
            let (sa, sb) = (quartile_spread(&thirds(ma)), quartile_spread(&thirds(mb)));
            let (worse_by, verdict) = judge(va, vb, sa, sb, higher, bound);
            if verdict != Verdict::Same {
                differing += 1;
            }
            println!(
                "{workload:<20} {name:<24} {va:>14.3} {vb:>14.3} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                worse_by * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0,
                verdict.word()
            );
        }
    }
    println!("{differing} pairings differ");
    Ok(differing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 10% slower against a 5% bound.
        assert_eq!(
            judge(100.0, 110.0, 0.01, 0.01, false, 0.05).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 90.0, 0.01, 0.01, false, 0.05).1,
            Verdict::Better
        );
        assert_eq!(
            judge(100.0, 103.0, 0.01, 0.01, false, 0.05).1,
            Verdict::Same
        );
        // Higher is better flips the sign.
        let (by, v) = judge(100.0, 110.0, 0.0, 0.0, true, 0.05);
        assert!((by + 0.10).abs() < 1e-12);
        assert_eq!(v, Verdict::Better);
        assert_eq!(judge(100.0, 80.0, 0.0, 0.0, true, 0.05).1, Verdict::Worse);
        // Thirds that disagree by more than the bound settle nothing.
        assert_eq!(
            judge(100.0, 150.0, 0.20, 0.01, false, 0.05).1,
            Verdict::Unresolved
        );
    }
}
