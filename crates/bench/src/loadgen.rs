//! Open-loop TCP load harness for `nagano-httpd` (DESIGN.md §13).
//!
//! The harness splits load generation into two halves so the experiment
//! pipeline can pin one and measure the other:
//!
//! * [`LoadPlan::generate`] — a **seed-deterministic request schedule**:
//!   exponential inter-arrival times at a configured aggregate rate,
//!   pages drawn from the Olympic popularity weights (Zipf-like), a
//!   configured fraction of conditional (`If-None-Match`) requests, and
//!   round-robin assignment over a fixed set of keep-alive connections.
//!   The schedule is pure data; [`LoadPlan::digest`] fingerprints it so
//!   CI can verify the committed benchmark was produced from exactly
//!   this schedule.
//! * [`execute`] — drives the schedule against a live server over real
//!   TCP sockets, one blocking thread per connection, and reports
//!   wall-clock latency percentiles, RPS, shed rate, and 304 ratio.
//!   Latency is measured from each request's *scheduled* start, not its
//!   send time, so queueing delay behind a slow server is charged to
//!   the server (the open-loop / coordinated-omission-free convention).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rustc_hash::FxHashMap;

use nagano_httpd::read_response_full;
use nagano_simcore::{DeterministicRng, Exponential};

/// Parameters of a load plan. Everything here is part of the schedule
/// fingerprint: two runs with equal configs and equal page tables
/// produce byte-identical schedules.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// RNG seed for arrivals, page choice, and conditional-request mix.
    pub seed: u64,
    /// Number of keep-alive client connections (one thread each).
    pub connections: usize,
    /// Aggregate arrival rate in requests per second.
    pub rate_rps: f64,
    /// Schedule horizon in seconds.
    pub duration_secs: f64,
    /// Probability a request revalidates with `If-None-Match` using the
    /// last entity tag its connection saw for that page.
    pub inm_fraction: f64,
    /// When set, the executor ignores arrival times and each connection
    /// issues its requests back-to-back — the closed-loop capacity
    /// measurement. The schedule (page mix, conditional mix) is
    /// unchanged, so open- and closed-loop runs are comparable.
    pub closed_loop: bool,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Scheduled start, microseconds from run start.
    pub at_micros: u64,
    /// Connection (and thread) this request rides on.
    pub conn: u32,
    /// Index into [`LoadPlan::paths`].
    pub page: u32,
    /// Whether to send `If-None-Match` when a validator is known.
    pub conditional: bool,
}

/// A fully materialised request schedule.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The generating configuration.
    pub config: PlanConfig,
    /// The servable paths, in popularity-table order.
    pub paths: Vec<String>,
    /// The schedule, ordered by arrival time.
    pub requests: Vec<PlannedRequest>,
}

impl LoadPlan {
    /// Generate the schedule for `pages` — `(path, weight)` pairs, e.g.
    /// from `RequestModel::popularity_weights` mapped through
    /// `PageKey::to_url`. Zero-weight pages are kept in the table (so
    /// indices line up with the caller's) but never drawn.
    pub fn generate(config: PlanConfig, pages: &[(String, f64)]) -> LoadPlan {
        assert!(config.connections > 0, "need at least one connection");
        assert!(!pages.is_empty(), "need at least one page");
        let total: f64 = pages.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "popularity weights sum to zero");
        let mut cdf = Vec::with_capacity(pages.len());
        let mut acc = 0.0;
        for (_, w) in pages {
            acc += w.max(0.0) / total;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }

        let mut rng = DeterministicRng::seed_from_u64(config.seed);
        let exp = Exponential::new(config.rate_rps);
        let mut requests = Vec::new();
        let mut t = 0.0_f64;
        let mut i = 0_usize;
        loop {
            t += exp.sample(&mut rng);
            if t >= config.duration_secs {
                break;
            }
            let u = rng.f64();
            let page = cdf.partition_point(|&p| p <= u).min(pages.len() - 1) as u32;
            let conditional = rng.chance(config.inm_fraction);
            requests.push(PlannedRequest {
                at_micros: (t * 1e6) as u64,
                conn: (i % config.connections) as u32,
                page,
                conditional,
            });
            i += 1;
        }
        LoadPlan {
            config,
            paths: pages.iter().map(|(p, _)| p.clone()).collect(),
            requests,
        }
    }

    /// FNV-1a fingerprint of the schedule: every request tuple plus the
    /// path table. Two plans with equal digests issue byte-identical
    /// request streams (modulo wall-clock pacing).
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for p in &self.paths {
            eat(p.as_bytes());
            eat(&[0]);
        }
        for r in &self.requests {
            eat(&r.at_micros.to_le_bytes());
            eat(&r.conn.to_le_bytes());
            eat(&r.page.to_le_bytes());
            eat(&[u8::from(r.conditional)]);
        }
        h
    }
}

/// Aggregate results of one executed plan.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Requests that completed with any HTTP response.
    pub completed: u64,
    /// 200 responses.
    pub ok200: u64,
    /// 304 Not Modified responses.
    pub not_modified: u64,
    /// 503 shed responses.
    pub shed: u64,
    /// Transport errors (failed sends/reads; not counted in `completed`).
    pub errors: u64,
    /// Reconnects after the server closed a connection.
    pub reconnects: u64,
    /// Total body bytes received.
    pub body_bytes: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Latency percentiles in milliseconds, measured from the scheduled
    /// start (open loop) or the send time (closed loop).
    pub p50_ms: f64,
    /// 95th percentile latency.
    pub p95_ms: f64,
    /// 99th percentile latency.
    pub p99_ms: f64,
    /// 99.9th percentile latency.
    pub p999_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
    /// Completed requests per second.
    pub rps: f64,
    /// `rps` divided by the machine's available parallelism.
    pub per_core_rps: f64,
}

impl RunReport {
    /// Fraction of completed responses that were 503 sheds.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed, self.completed)
    }

    /// Fraction of completed responses that were 304s.
    pub fn not_modified_ratio(&self) -> f64 {
        ratio(self.not_modified, self.completed)
    }

    /// Machine-readable form (the `measured` block of
    /// `BENCH_serving.json`).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "completed": self.completed,
            "ok200": self.ok200,
            "not_modified": self.not_modified,
            "shed": self.shed,
            "errors": self.errors,
            "reconnects": self.reconnects,
            "body_bytes": self.body_bytes,
            "elapsed_secs": self.elapsed_secs,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "max_ms": self.max_ms,
            "rps": self.rps,
            "per_core_rps": self.per_core_rps,
            "shed_rate": self.shed_rate(),
            "not_modified_ratio": self.not_modified_ratio(),
        })
    }

    /// One human-readable summary line.
    pub fn summary_line(&self) -> String {
        format!(
            "{:>8.0} rps ({:>8.0}/core)  p50 {:>7.3}ms  p95 {:>7.3}ms  p99 {:>7.3}ms  \
             p99.9 {:>7.3}ms  304 {:>4.1}%  shed {:>4.1}%  err {}",
            self.rps,
            self.per_core_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.p999_ms,
            100.0 * self.not_modified_ratio(),
            100.0 * self.shed_rate(),
            self.errors,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-connection raw tallies, merged by [`execute`].
#[derive(Debug, Default)]
struct ConnTally {
    latencies_us: Vec<u64>,
    ok200: u64,
    not_modified: u64,
    shed: u64,
    errors: u64,
    reconnects: u64,
    body_bytes: u64,
}

/// Execute `plan` against a live server at `addr`. Spawns one blocking
/// thread per connection; returns once every scheduled request has been
/// attempted.
pub fn execute(plan: &LoadPlan, addr: SocketAddr) -> RunReport {
    let mut per_conn: Vec<Vec<PlannedRequest>> = vec![Vec::new(); plan.config.connections];
    for r in &plan.requests {
        per_conn[r.conn as usize].push(*r);
    }
    let closed_loop = plan.config.closed_loop;
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness measures real-socket wall-clock latency by design"
    )]
    let start = Instant::now();
    let tallies: Vec<ConnTally> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .map(|reqs| {
                let paths = &plan.paths;
                s.spawn(move || drive_connection(addr, &reqs, paths, start, closed_loop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut report = RunReport {
        elapsed_secs: elapsed,
        ..RunReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for t in tallies {
        report.ok200 += t.ok200;
        report.not_modified += t.not_modified;
        report.shed += t.shed;
        report.errors += t.errors;
        report.reconnects += t.reconnects;
        report.body_bytes += t.body_bytes;
        latencies.extend(t.latencies_us);
    }
    report.completed = report.ok200 + report.not_modified + report.shed;
    latencies.sort_unstable();
    report.p50_ms = percentile_ms(&latencies, 0.50);
    report.p95_ms = percentile_ms(&latencies, 0.95);
    report.p99_ms = percentile_ms(&latencies, 0.99);
    report.p999_ms = percentile_ms(&latencies, 0.999);
    report.max_ms = latencies.last().map_or(0.0, |&us| us as f64 / 1_000.0);
    if elapsed > 0.0 {
        report.rps = report.completed as f64 / elapsed;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.per_core_rps = report.rps / cores as f64;
    report
}

/// Exact percentile (nearest-rank on the sorted sample), in ms.
fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1_000.0
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            stream,
            reader: BufReader::new(read_half),
        })
    }

    /// Send one GET and read the response; `scratch` is the reused
    /// request-bytes buffer.
    fn round_trip(
        &mut self,
        path: &str,
        etag: Option<&str>,
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<(u16, Bytes, Option<String>)> {
        scratch.clear();
        scratch.extend_from_slice(b"GET ");
        scratch.extend_from_slice(path.as_bytes());
        scratch.extend_from_slice(b" HTTP/1.1\r\nHost: nagano\r\nConnection: keep-alive\r\n");
        if let Some(tag) = etag {
            scratch.extend_from_slice(b"If-None-Match: ");
            scratch.extend_from_slice(tag.as_bytes());
            scratch.extend_from_slice(b"\r\n");
        }
        scratch.extend_from_slice(b"\r\n");
        self.stream.write_all(scratch)?;
        read_response_full(&mut self.reader).map_err(|e| match e {
            nagano_httpd::ParseError::Io(e) => e,
            nagano_httpd::ParseError::ConnectionClosed => std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ),
            nagano_httpd::ParseError::Malformed(m) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, m)
            }
        })
    }
}

fn drive_connection(
    addr: SocketAddr,
    reqs: &[PlannedRequest],
    paths: &[String],
    start: Instant,
    closed_loop: bool,
) -> ConnTally {
    let mut tally = ConnTally {
        latencies_us: Vec::with_capacity(reqs.len()),
        ..ConnTally::default()
    };
    let Ok(mut conn) = Conn::open(addr) else {
        tally.errors += reqs.len() as u64;
        return tally;
    };
    // Last entity tag seen per page, for the conditional-GET mix.
    let mut etags: FxHashMap<u32, String> = FxHashMap::default();
    let mut scratch: Vec<u8> = Vec::with_capacity(128);
    for r in reqs {
        // Open loop: sleep until the scheduled start and charge latency
        // from it. If we are already late (server backlog), the delay is
        // the server's fault and stays in the measurement.
        let sched = start + Duration::from_micros(r.at_micros);
        #[expect(clippy::disallowed_methods, reason = "real-socket latency measurement")]
        let t0 = if closed_loop {
            Instant::now()
        } else {
            let now = Instant::now();
            if sched > now {
                std::thread::sleep(sched - now);
            }
            sched
        };
        let path = &paths[r.page as usize];
        let etag = if r.conditional {
            etags.get(&r.page).map(String::as_str)
        } else {
            None
        };
        match conn.round_trip(path, etag, &mut scratch) {
            Ok((code, body, new_etag)) => {
                tally.latencies_us.push(t0.elapsed().as_micros() as u64);
                tally.body_bytes += body.len() as u64;
                match code {
                    200 => {
                        tally.ok200 += 1;
                        if let Some(tag) = new_etag {
                            etags.insert(r.page, tag);
                        }
                    }
                    304 => tally.not_modified += 1,
                    503 => {
                        // Accept-queue sheds close the connection after
                        // the 503; reopen unconditionally so either shed
                        // flavour leaves a usable connection.
                        tally.shed += 1;
                        tally.reconnects += 1;
                        match Conn::open(addr) {
                            Ok(c) => conn = c,
                            Err(_) => {
                                tally.errors += 1;
                                break;
                            }
                        }
                    }
                    _ => tally.errors += 1,
                }
            }
            Err(_) => {
                tally.errors += 1;
                tally.reconnects += 1;
                match Conn::open(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use nagano_httpd::{none_match, Request, Response, Server, ServerConfig};

    fn sample_pages() -> Vec<(String, f64)> {
        vec![
            ("/hot".to_string(), 8.0),
            ("/warm".to_string(), 2.0),
            ("/cold".to_string(), 1.0),
            ("/never".to_string(), 0.0),
        ]
    }

    fn plan_config(seed: u64) -> PlanConfig {
        PlanConfig {
            seed,
            connections: 3,
            rate_rps: 5_000.0,
            duration_secs: 0.2,
            inm_fraction: 0.25,
            closed_loop: false,
        }
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let a = LoadPlan::generate(plan_config(0x1998), &sample_pages());
        let b = LoadPlan::generate(plan_config(0x1998), &sample_pages());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.digest(), b.digest());
        let c = LoadPlan::generate(plan_config(0x1999), &sample_pages());
        assert_ne!(a.digest(), c.digest(), "seed must perturb the schedule");
    }

    #[test]
    fn schedule_digest_is_pinned() {
        // Guards the generator against accidental reordering of RNG
        // draws: any change to the arrival/page/conditional sampling
        // sequence is a breaking change to committed benchmarks and must
        // show up here.
        let plan = LoadPlan::generate(plan_config(0x1998), &sample_pages());
        assert_eq!(
            format!("{:016x}", plan.digest()),
            "1d7bef67b2d43839",
            "schedule generator output changed; recommit BENCH_serving.json if intentional"
        );
    }

    #[test]
    fn schedule_respects_shape_knobs() {
        let plan = LoadPlan::generate(plan_config(0x1998), &sample_pages());
        let n = plan.requests.len();
        assert!(n > 500, "~1000 arrivals expected, got {n}");
        // Arrival times are sorted and inside the horizon.
        assert!(plan
            .requests
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros));
        assert!(plan.requests.iter().all(|r| r.at_micros < 200_000));
        // Round-robin over connections.
        assert!(plan.requests.iter().all(|r| r.conn < 3));
        // Popularity ordering: /hot drawn more than /cold, /never not at all.
        let count = |page: u32| plan.requests.iter().filter(|r| r.page == page).count();
        assert!(count(0) > count(2), "hot {} cold {}", count(0), count(2));
        assert_eq!(count(3), 0, "zero-weight page must never be drawn");
        // Conditional mix is near the configured fraction.
        let cond = plan.requests.iter().filter(|r| r.conditional).count();
        let frac = cond as f64 / n as f64;
        assert!((0.15..0.35).contains(&frac), "conditional fraction {frac}");
    }

    #[test]
    fn executor_drives_a_live_server() {
        let handler = Arc::new(|req: &Request| {
            let validator = req.if_none_match.as_deref();
            if validator.is_some_and(|field| none_match(field, 7)) {
                Response::not_modified(7)
            } else {
                Response::page(Bytes::from_static(b"<html>load</html>"), 7)
            }
        });
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let plan = LoadPlan::generate(
            PlanConfig {
                seed: 7,
                connections: 2,
                rate_rps: 2_000.0,
                duration_secs: 0.15,
                inm_fraction: 0.5,
                closed_loop: false,
            },
            &[("/page".to_string(), 1.0)],
        );
        let report = execute(&plan, server.addr());
        assert_eq!(report.errors, 0);
        assert_eq!(report.completed as usize, plan.requests.len());
        assert!(report.ok200 > 0);
        assert!(
            report.not_modified > 0,
            "conditional revalidations must 304 once the etag is learned"
        );
        assert!(report.p50_ms >= 0.0 && report.p99_ms >= report.p50_ms);
        assert!(report.rps > 0.0 && report.per_core_rps > 0.0);
        assert_eq!(report.shed, 0);
        server.shutdown();
    }

    #[test]
    fn executor_counts_sheds_and_reconnects() {
        let handler = Arc::new(|_req: &Request| Response::overloaded(1));
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let plan = LoadPlan::generate(
            PlanConfig {
                seed: 7,
                connections: 1,
                rate_rps: 300.0,
                duration_secs: 0.1,
                inm_fraction: 0.0,
                closed_loop: true,
            },
            &[("/x".to_string(), 1.0)],
        );
        let report = execute(&plan, server.addr());
        assert_eq!(report.shed, report.completed);
        assert!(report.shed_rate() > 0.99);
        assert!(report.reconnects >= report.shed);
        server.shutdown();
    }

    #[test]
    fn percentiles_are_exact_on_small_samples() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 51.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }
}
