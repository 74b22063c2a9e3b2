//! End to end: `run --smoke` drives all four workloads and the checker
//! over real sockets (small Games, one second of short rounds), then
//! traces them; `compare` reads what it wrote.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_nagano-benchmark");

#[test]
fn smoke_run_measures_traces_and_compares_all_four_workloads() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let run = Command::new(EXE)
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "smoke run failed:\n{stdout}");

    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc["machine"]["network"].as_str(), Some("loopback"));
    let benchmark: Value = serde_json::from_str(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    let measured = doc["workloads"].as_object().unwrap();
    assert_eq!(measured.len(), 4, "run measures all four workloads");
    for name in measured.keys() {
        let name = name.as_str();
        for (section, list) in [("workloads", "end_to_end"), ("layers", "per_layer")] {
            let run = &doc[section][name];
            assert_eq!(run["correct"].as_bool(), Some(true), "{name} {section}");
            assert_eq!(run["failed"].as_u64(), Some(0), "{name} {section}");
            assert!(run["attempted"].as_u64().unwrap() > 0, "{name} {section}");
            assert!(
                run["pages_checked"].as_u64().unwrap() > 0,
                "{name} {section}"
            );
            for metric in benchmark[list].as_array().unwrap() {
                let metric = metric["name"].as_str().unwrap();
                let value = run["metrics"][metric]["value"].as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {metric} missing from {section}"
                );
                if section == "workloads" {
                    assert!(value.unwrap() > 0.0, "{name}: {metric} is zero");
                    let rounds = run["metrics"][metric]["rounds"].as_array().unwrap().len();
                    if metric == "rss_mb" {
                        assert_eq!(rounds, 0, "{name}: rss_mb belongs to the process");
                    } else {
                        assert!(rounds >= 3, "{name}: {metric} has {rounds} rounds");
                    }
                }
            }
        }
        // Sanity pins that hold at any size.
        let hit_share = doc["layers"][name]["metrics"]["cache.hit_share"]["value"]
            .as_f64()
            .unwrap();
        if name == "small_cache" {
            assert!(hit_share < 1.0, "a bounded cache must miss");
        } else {
            assert_eq!(
                hit_share, 1.0,
                "{name}: an unbounded prewarmed cache never misses"
            );
        }
    }

    let compared = Command::new(EXE)
        .arg("compare")
        .args([&out, &out])
        .arg("--benchmark")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .output()
        .expect("start compare");
    let table = String::from_utf8_lossy(&compared.stdout);
    assert_eq!(
        table.lines().filter(|l| l.contains("    0.00%")).count(),
        32,
        "a file differs from itself:\n{table}"
    );
    assert!(
        !table
            .lines()
            .any(|l| l.ends_with(" worse") || l.ends_with(" better")),
        "{table}"
    );
}

#[test]
fn a_workload_process_ends_with_the_drivers_result_line() {
    let run = Command::new(EXE)
        .args([
            "--workload",
            "update_storm",
            "--seed",
            "3",
            "--seconds",
            "0.5",
        ])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "workload failed:\n{stdout}");
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<_> = last.as_object().unwrap().keys().cloned().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(last["correct"].as_bool(), Some(true));
    assert_eq!(last["metrics"].as_object().unwrap().len(), 8);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--workload", "hot_hits", "--trace", "2"],
        &["--workload", "hot_hits", "--seconds", "0"],
        &["frobnicate"],
        &[],
    ] {
        let run = Command::new(EXE).args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
