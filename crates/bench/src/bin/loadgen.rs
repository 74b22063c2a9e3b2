//! Standalone open-loop TCP load harness for `nagano-httpd`.
//!
//! ```text
//! loadgen [options]
//!   --addr HOST:PORT   target an already-running server (default:
//!                      boot a prewarmed site on an ephemeral port)
//!   --seed N           schedule seed                       [0x1998]
//!   --connections N    keep-alive client connections       [8]
//!   --rate N           aggregate arrival rate, req/s       [5000]
//!   --duration SECS    schedule horizon                    [5]
//!   --inm F            If-None-Match fraction, 0..1        [0.3]
//!   --day N            popularity day for the page mix     [8]
//!   --closed-loop      ignore pacing; back-to-back capacity run
//!   --workers N        self-served httpd worker threads    [env/8]
//!   --quick            self-served site uses the small Games
//!   --digest-only      print the schedule fingerprint and exit
//!   --json             emit the full report as JSON
//! ```
//!
//! The schedule is byte-deterministic for a seed; latencies are
//! wall-clock. Percentiles are exact (nearest rank over every sample).

use std::net::SocketAddr;
use std::sync::Arc;

use nagano::{ServingSite, SiteConfig};
use nagano_bench::loadgen::{execute, LoadPlan, PlanConfig};
use nagano_httpd::ServerConfig;
use nagano_workload::RequestModel;

struct Opts {
    addr: Option<SocketAddr>,
    seed: u64,
    connections: usize,
    rate_rps: f64,
    duration_secs: f64,
    inm_fraction: f64,
    day: u32,
    closed_loop: bool,
    workers: Option<usize>,
    quick: bool,
    digest_only: bool,
    json: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: None,
        seed: 0x1998,
        connections: 8,
        rate_rps: 5_000.0,
        duration_secs: 5.0,
        inm_fraction: 0.3,
        day: 8,
        closed_loop: false,
        workers: None,
        quick: false,
        digest_only: false,
        json: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag {
            "--addr" => {
                opts.addr = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--addr needs HOST:PORT")),
                )
            }
            "--seed" => opts.seed = parse_num(&value(), "--seed"),
            "--connections" => opts.connections = parse_num(&value(), "--connections"),
            "--rate" => opts.rate_rps = parse_num(&value(), "--rate"),
            "--duration" => opts.duration_secs = parse_num(&value(), "--duration"),
            "--inm" => opts.inm_fraction = parse_num(&value(), "--inm"),
            "--day" => opts.day = parse_num(&value(), "--day"),
            "--workers" => opts.workers = Some(parse_num(&value(), "--workers")),
            "--closed-loop" => opts.closed_loop = true,
            "--quick" => opts.quick = true,
            "--digest-only" => opts.digest_only = true,
            "--json" => opts.json = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    opts
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} got unparsable value {s:?}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--seed N] [--connections N] [--rate N]\n\
         \x20              [--duration SECS] [--inm F] [--day N] [--closed-loop]\n\
         \x20              [--workers N] [--quick] [--digest-only] [--json]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let opts = parse_opts();

    // Page mix: the Olympic popularity table for the chosen day, from a
    // site of the chosen scale (no prewarm needed just for the table).
    let site_cfg = if opts.quick {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    };
    let pages: Vec<(String, f64)> = {
        let mut table_cfg = site_cfg.clone();
        table_cfg.prewarm = false;
        let site = ServingSite::build(table_cfg);
        let model = RequestModel::new(site.db(), Arc::clone(site.registry()), 1.0);
        model
            .popularity_weights(opts.day)
            .into_iter()
            .map(|(key, w)| (key.to_url(), w))
            .collect()
    };
    let plan = LoadPlan::generate(
        PlanConfig {
            seed: opts.seed,
            connections: opts.connections,
            rate_rps: opts.rate_rps,
            duration_secs: opts.duration_secs,
            inm_fraction: opts.inm_fraction,
            closed_loop: opts.closed_loop,
        },
        &pages,
    );
    if opts.digest_only {
        println!(
            "schedule digest {:016x} ({} requests over {} pages)",
            plan.digest(),
            plan.requests.len(),
            plan.paths.len()
        );
        return;
    }

    // Target: an external server, or a self-served prewarmed site.
    let server_cfg = opts
        .workers
        .map_or_else(ServerConfig::from_env, |w| ServerConfig {
            workers: w.max(1),
            ..ServerConfig::from_env()
        });
    let self_served = opts.addr.is_none();
    let (addr, server) = match opts.addr {
        Some(addr) => (addr, None),
        None => {
            eprintln!(
                "booting {} site ({} workers)...",
                if opts.quick { "small" } else { "full" },
                server_cfg.workers,
            );
            let site = Arc::new(ServingSite::build(site_cfg));
            let server = site
                .serve_http("127.0.0.1:0", 0, server_cfg)
                .expect("bind load-test server");
            (server.addr(), Some((site, server)))
        }
    };

    eprintln!(
        "driving {addr}: {} requests, {} connections, {} ({} req/s for {}s, {}% conditional)",
        plan.requests.len(),
        plan.config.connections,
        if opts.closed_loop {
            "closed loop"
        } else {
            "open loop"
        },
        opts.rate_rps,
        opts.duration_secs,
        100.0 * opts.inm_fraction,
    );
    let report = execute(&plan, addr);
    if let Some((_, server)) = server {
        server.shutdown();
    }

    if opts.json {
        let blob = serde_json::json!({
            "schedule": serde_json::json!({
                "seed": opts.seed,
                "day": opts.day,
                "connections": opts.connections,
                "rate_rps": opts.rate_rps,
                "duration_secs": opts.duration_secs,
                "inm_fraction": opts.inm_fraction,
                "closed_loop": opts.closed_loop,
                "pages": plan.paths.len(),
                "requests": plan.requests.len(),
                "digest": format!("{:016x}", plan.digest()),
            }),
            "self_served": self_served,
            "measured": report.to_json(),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&blob).expect("render json")
        );
    } else {
        println!("{}", report.summary_line());
    }
    if report.errors > 0 {
        std::process::exit(1);
    }
}
