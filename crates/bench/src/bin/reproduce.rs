//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [--quick] [--scale N] [--seed S] [--out DIR] <ids... | all>
//! ```
//!
//! Prints each experiment's table and paper-vs-measured verdict, and
//! writes machine-readable JSON to `target/experiments/<id>.json`.

use std::io::Write;

use nagano_bench::{run_experiment, ExpConfig, ALL_EXPERIMENTS};

/// Experiments that additionally write a `BENCH_<id>.json` copy — the
/// perf-trajectory artifacts CI uploads so later changes have a recorded
/// baseline to compare against.
const BENCH_IDS: &[&str] = &["hybrid", "slo", "resilience"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir = "target/experiments".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => config = ExpConfig::quick(),
            "--scale" => {
                i += 1;
                config.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"));
            }
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--out" => {
                i += 1;
                out_dir = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--out needs a dir"));
            }
            "--help" | "-h" => usage(""),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage("no experiments selected");
    }
    if ids.iter().any(|s| s == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    println!(
        "nagano reproduce — scale 1:{}, seed {}, {} mode\n",
        config.scale,
        config.seed,
        if config.quick { "quick" } else { "full" }
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "run times are reported in host time"
    )]
    let started = std::time::Instant::now();
    for id in &ids {
        #[expect(
            clippy::disallowed_methods,
            reason = "run times are reported in host time"
        )]
        let t0 = std::time::Instant::now();
        match run_experiment(id, &config) {
            Some(result) => {
                println!("{}", result.display());
                println!("[{} took {:.1}s]\n", id, t0.elapsed().as_secs_f64());
                let path = format!("{out_dir}/{id}.json");
                let mut f = std::fs::File::create(&path).expect("write json");
                let blob = serde_json::json!({
                    "id": result.id,
                    "title": result.title,
                    "verdict": result.verdict,
                    "scale": config.scale,
                    "seed": config.seed,
                    "quick": config.quick,
                    "data": result.json,
                });
                let pretty = serde_json::to_string_pretty(&blob).unwrap();
                writeln!(f, "{pretty}").unwrap();
                if BENCH_IDS.contains(&id.as_str()) {
                    let bench_path = format!("{out_dir}/BENCH_{id}.json");
                    let mut bf = std::fs::File::create(&bench_path).expect("write bench json");
                    writeln!(bf, "{pretty}").unwrap();
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                eprintln!("known: {}", ALL_EXPERIMENTS.join(", "));
                std::process::exit(2);
            }
        }
    }
    println!(
        "all {} experiment(s) complete in {:.1}s; JSON in {out_dir}/",
        ids.len(),
        started.elapsed().as_secs_f64()
    );
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: reproduce [--quick] [--scale N] [--seed S] [--out DIR] <ids...|all>");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
