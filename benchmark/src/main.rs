//! Wall-clock benchmark of the serve and update pipelines.
//!
//! ```text
//! nagano-benchmark run     [--seed N] [--seconds S] [--smoke] [--out FILE]
//! nagano-benchmark trace   [--seed N] [--seconds S] [--smoke] [--out FILE]
//! nagano-benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! nagano-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! `run` measures the four workloads, each in its own process so that
//! `rss_mb` is per workload, then traces them; `trace` only traces. The
//! last form is one workload's process: rounds for `--seconds`, every
//! metric printed by name, the one-line JSON result last. See `README.md`.

mod compare;
mod loadgen;
mod plan;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};

use plan::{Inputs, DEFAULT_SEED, DEFAULT_SEED_DIGEST};
use report::{peak_rss_mb, WorkloadReport};
use workloads::{
    run_round, Shape, Workload, CONNECTIONS, CONNECTIONS_BESIDE_UPDATES, SERVER_WORKERS,
};

/// Seconds of rounds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

/// Measured rounds a run has at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Seconds measured per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

/// Line prefix of the per-window document a workload's process prints
/// for `run` to collect.
const DETAIL_PREFIX: &str = "detail ";

struct Options {
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    traced: bool,
    workload: Option<Workload>,
    out: Option<PathBuf>,
    benchmark: PathBuf,
    positional: Vec<String>,
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        seconds: None,
        smoke: false,
        traced: false,
        workload: None,
        out: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--benchmark" => o.benchmark = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// Where trace logs and `run` documents go unless `--out` says otherwise:
/// the package's `out/` directory, seen from the repository root.
fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// One workload in this process: measure (`--trace 0`) or trace
/// (`--trace 1`), print everything, end with the driver's result line.
fn workload_process(workload: Workload, o: &Options) -> ExitCode {
    let seconds = o.seconds();
    let shape = Shape::for_seconds(seconds);
    let inputs = Inputs::generate(o.seed, o.smoke);
    let mut report = WorkloadReport::new(workload.name(), o.traced, o.seed, seconds, inputs.digest);
    if o.seed == DEFAULT_SEED && !o.smoke && inputs.digest != DEFAULT_SEED_DIGEST {
        report.fail(format!(
            "inputs for the default seed drifted: digest {:#018x}, pinned {:#018x}",
            inputs.digest, DEFAULT_SEED_DIGEST
        ));
    }
    if o.traced {
        // A few rounds over TCP for the figures only a socket has (the
        // first round of a process runs slow and is not one of them),
        // then the in-process replays.
        report.add_unmeasured(&run_round(workload, &inputs, &shape));
        for _ in 0..MIN_ROUNDS {
            report.add_round(run_round(workload, &inputs, &shape));
        }
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        match trace::trace_layers(
            workload,
            &inputs,
            report.value("read_p50_us"),
            report.value("update_visible_p50_us"),
            &path,
        ) {
            Ok(layers) => {
                for (name, value) in layers.values {
                    report.set(name, value);
                }
                for why in layers.failures {
                    report.fail(why);
                }
                println!("{} spans written to {}", layers.spans, path.display());
            }
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    } else {
        // The first round of a process runs slow (page faults, lazy
        // initialisation): spend it unmeasured, checks included. Then
        // rounds for `--seconds`, not starting one that would overrun.
        let t0 = Instant::now();
        report.add_unmeasured(&run_round(workload, &inputs, &shape));
        let mut longest = t0.elapsed();
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while report.rounds.len() < MIN_ROUNDS || Instant::now() + longest <= end {
            let t0 = Instant::now();
            report.add_round(run_round(workload, &inputs, &shape));
            longest = longest.max(t0.elapsed());
        }
    }
    report.set("rss_mb", peak_rss_mb());
    report.print();
    println!("{DETAIL_PREFIX}{}", report.detail());
    println!("{}", report.driver_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine() -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "server_workers": SERVER_WORKERS,
        "connections": CONNECTIONS,
        "connections_beside_updates": CONNECTIONS_BESIDE_UPDATES,
        "beside_updates": "reads on core 0, trigger runner on core 1",
        "generator_threads": "one per connection",
        "load": "closed loop",
        "network": "loopback",
        "rustc": first_line_of("rustc", &["-V"]),
        "git_commit": first_line_of("git", &["rev-parse", "HEAD"]),
    })
}

/// Run `workload` in a child process and return its detail document.
fn spawn_workload(workload: Workload, traced: bool, o: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(doc) => detail = serde_json::from_str::<Value>(doc).ok(),
            // The child's last line is the driver's result; `run` has the
            // same numbers in the detail document.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    detail.ok_or_else(|| {
        format!(
            "{} ended with {} and no result",
            workload.name(),
            output.status
        )
    })
}

/// `run` and `trace`: every workload in its own process, one after the
/// other, collected into one document.
fn run_all(o: &Options, measure: bool) -> ExitCode {
    let machine = machine();
    println!("machine {machine}");
    let mut failed = false;
    let mut collect = |traced: bool| {
        let mut docs = Map::new();
        for workload in Workload::ALL {
            match spawn_workload(workload, traced, o) {
                Ok(doc) => {
                    if doc["correct"].as_bool() != Some(true) {
                        failed = true;
                    }
                    docs.insert(workload.name().to_string(), doc);
                }
                Err(why) => {
                    println!("FAILED {why}");
                    failed = true;
                }
            }
        }
        Value::Object(docs)
    };
    let workloads = if measure { collect(false) } else { Value::Null };
    let layers = collect(true);
    let doc = json!({
        "machine": machine,
        "seed": o.seed,
        "seconds": o.seconds(),
        "smoke": o.smoke,
        "workloads": workloads,
        "layers": layers,
    });
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(if measure { "run.json" } else { "trace.json" }));
    let text = serde_json::to_string_pretty(&doc).expect("a JSON value serialises");
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text + "\n"));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            println!("FAILED writing {}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(o: &Options) -> Result<usize, String> {
    let [_, a, b] = o.positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    compare::compare(
        &load(Path::new(a))?,
        &load(Path::new(b))?,
        &load(&o.benchmark)?,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    match (o.positional.first().map(String::as_str), o.workload) {
        (None, Some(workload)) => workload_process(workload, &o),
        (Some("run"), None) => run_all(&o, true),
        (Some("trace"), None) => run_all(&o, false),
        (Some("compare"), None) => match compare_files(&o) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: run | trace | compare A.json B.json | --workload NAME --seed N --seconds S --trace 0|1"
            );
            ExitCode::from(2)
        }
    }
}
