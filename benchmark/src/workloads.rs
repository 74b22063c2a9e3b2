//! The four workloads. A run is a sequence of *rounds*; every round
//! starts from a freshly built site and replays the update schedule at
//! most once on it, because replaying it repeatedly on one site is not
//! stationary (see README, "Why sites are rebuilt"). Every round has a
//! read part and an update part, so every end-to-end metric has a value
//! on every workload; what differs is which part dominates, the cache
//! bound, and whether the two parts overlap in time.
//!
//! A round yields *pieces* that every other round repeats: one site
//! build, every block of 128 reads of every connection (a connection
//! walks the same stretch of the read schedule in every round), and every
//! transaction of the update schedule. `report` compares each piece with
//! its repetitions and reads every metric off the best tenth of them,
//! which is what keeps a value steady on a shared host whose interference
//! only ever slows a piece down.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use nagano::ServingSite;
use nagano_cache::{CacheConfig, ReplacementPolicy};
use nagano_httpd::{Server, ServerConfig};
use nagano_pagegen::{PageKey, Renderer};
use nagano_simcore::DeterministicRng;
use nagano_workload::UpdateSchedule;

use crate::loadgen::{closed_loop, Sample, Tally};
use crate::plan::Inputs;
use crate::stats::percentile;

/// Server worker threads. The box has two cores; the server gets both.
pub const SERVER_WORKERS: usize = 2;

/// Closed-loop keep-alive connections (one generator thread each) where
/// nothing else runs beside the reads: with the two workers they keep
/// both cores busy, so no read waits for an idle core to wake up.
pub const CONNECTIONS: usize = 2;

/// Connections of `serve_under_updates`. The trigger runner takes one
/// core; one generator and the worker it talks to, which take turns,
/// take the other. A second connection would put five busy threads on
/// two cores, and the figures would be the scheduler's (measured: with
/// two connections `regen_pages_per_s` moved 22 % under interference
/// that moves it 6 % with one).
pub const CONNECTIONS_BESIDE_UPDATES: usize = 1;

/// `serve_under_updates`: the core of the generator and the server
/// workers, and the core of the trigger runner.
const READ_CORE: usize = 0;
const REGEN_CORE: usize = 1;

/// Share of one prewarmed node's bytes the `small_cache` bound allows.
const SMALL_CACHE_SHARE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotHits,
    SmallCache,
    UpdateStorm,
    ServeUnderUpdates,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotHits,
        Workload::SmallCache,
        Workload::UpdateStorm,
        Workload::ServeUnderUpdates,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot_hits",
            Workload::SmallCache => "small_cache",
            Workload::UpdateStorm => "update_storm",
            Workload::ServeUnderUpdates => "serve_under_updates",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn cache(self, inputs: &Inputs) -> CacheConfig {
        match self {
            Workload::SmallCache => CacheConfig::bounded(
                (inputs.site_bytes as f64 * SMALL_CACHE_SHARE) as u64,
                ReplacementPolicy::Lru,
            ),
            _ => CacheConfig::default(),
        }
    }
}

/// How many reads each part of a round has, per connection, derived
/// from `--seconds`. Parts are counted, not timed, so that a connection
/// sends the same requests in the same order in every round.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Measured reads of a round of `hot_hits` and `small_cache`.
    pub reads: usize,
    /// Measured reads after the replay of a round of `update_storm`.
    pub tail_reads: usize,
    /// Unmeasured reads before a round's measured reads.
    pub warmup: usize,
    /// `serve_under_updates`: measured reads before the updates start,
    /// the paired control of the busy phase.
    pub quiet: usize,
    /// Reads in one block of the measured reads.
    pub block: usize,
}

impl Shape {
    /// A 20-second run reads 29,952 times per connection and round, some
    /// 0.3 s; shorter runs (tests) scale that down. A block is 128 reads,
    /// some 1.2 ms: short enough that a good share of the repetitions of
    /// a block fall between two interruptions of a busy host. Short
    /// rounds, because what steadies a value is how often a piece is
    /// repeated, not how many pieces there are.
    pub fn for_seconds(seconds: f64) -> Shape {
        let block = 128;
        let blocks = ((seconds * 1500.0) as usize / block).clamp(16, 234);
        Shape {
            reads: blocks * block,
            tail_reads: blocks / 3 * block,
            warmup: blocks / 8 * block,
            quiet: blocks / 4 * block,
            block,
        }
    }
}

/// One block of a connection's measured reads.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub reads: u32,
    /// First send of the block to first send of the next, on the
    /// connection's clock.
    pub duration_us: u32,
    /// Send to complete reply, over the reads of the block.
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// One transaction of a round's replay.
#[derive(Debug, Clone, Copy)]
pub struct TxnTiming {
    /// Commit call to visible.
    pub txn_ns: u64,
    /// Commit return to visible.
    pub visible_ns: u64,
}

/// What one round measured.
#[derive(Debug, Default, Clone)]
pub struct RoundResult {
    /// `ServingSite::build` + bind.
    pub setup_s: f64,
    /// The measured reads, per connection, block by block.
    pub blocks: Vec<Vec<Block>>,
    /// The replay, transaction by transaction in schedule order.
    pub txns: Vec<TxnTiming>,
    /// Pages the replay regenerated.
    pub regenerated: u64,
    /// Per-layer and diagnostic figures of the round as a whole.
    pub values: BTreeMap<&'static str, f64>,
    pub reads: Tally,
    pub txns_committed: u64,
    /// Cached pages compared with a fresh render after the updates.
    pub pages_checked: u64,
    /// Checks that failed, each with what was wrong.
    pub failures: Vec<String>,
}

/// A site behind a bound server.
struct Booted {
    site: Arc<ServingSite>,
    server: Server,
}

pub fn build_site(inputs: &Inputs, cache: &CacheConfig) -> Arc<ServingSite> {
    Arc::new(ServingSite::build(inputs.site_config(cache.clone())))
}

/// Seconds of CPU this process has used so far, all threads together.
/// On this guest the clock stands still while the host runs something
/// else on the core (verified: a fixed loop that takes 50 ms reads 50 ms
/// here when its wall-clock time is 90 ms).
fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut at = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit words on
    // every 64-bit Linux) through a pointer that is valid for the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut at) };
    assert_eq!(status, 0, "the process CPU clock is always there on Linux");
    at.sec as f64 + at.nsec as f64 / 1e9
}

/// Keep thread `tid` of this process (0: the calling thread) on `core`.
/// Best effort: a box that refuses leaves the thread where the kernel
/// puts it.
fn pin_thread(tid: i32, core: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1 << core;
    // SAFETY: `sched_setaffinity` reads `size` bytes of CPU mask through
    // a pointer that is valid for the call, and 8 bytes is a size it
    // accepts on a machine with at most 64 cores.
    let _ = unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
}

/// Keep every thread of this process whose name starts with `prefix` on
/// `core`. Threads are named by the crate that spawns them.
fn pin_threads_named(prefix: &str, core: usize) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let named = std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|name| name.starts_with(prefix));
        if let (true, Some(tid)) = (
            named,
            task.file_name().to_str().and_then(|t| t.parse().ok()),
        ) {
            pin_thread(tid, core);
        }
    }
}

/// Build and bind. The round's set-up time is the CPU time that took,
/// whichever thread did the work: a build is 20 ms of computing that
/// never waits, so on an undisturbed machine that is its wall-clock
/// time, and on this one no build is ever undisturbed for 20 ms when the
/// host is busy.
fn boot(inputs: &Inputs, cache: &CacheConfig, out: &mut RoundResult) -> Booted {
    let t0 = process_cpu_seconds();
    let site = build_site(inputs, cache);
    let config = ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    let server = site
        .serve_http("127.0.0.1:0", 0, config)
        .expect("bind a loopback port");
    out.setup_s = process_cpu_seconds() - t0;
    Booted { site, server }
}

fn us(ns: impl Into<u64>) -> f64 {
    ns.into() as f64 / 1e3
}

/// Round-trip times (ascending, ns) of the correct reads among `samples`.
fn round_trips(samples: &[Sample]) -> Vec<u32> {
    let mut rtt: Vec<u32> = samples
        .iter()
        .map(|s| s.rtt_ns)
        .filter(|&ns| ns != Sample::FAILED)
        .collect();
    rtt.sort_unstable();
    rtt
}

/// The whole blocks of one connection's reads from read `from` on. A
/// block lasts until the first send of the next, so the last block needs
/// one read after it.
fn blocks_of(samples: &[Sample], from: usize, block: usize) -> Vec<Block> {
    let measured = samples.get(from..).unwrap_or_default();
    (0..measured.len().saturating_sub(1) / block)
        .map(|j| {
            let reads = &measured[j * block..(j + 1) * block];
            let rtt = round_trips(reads);
            Block {
                reads: block as u32,
                duration_us: measured[(j + 1) * block].sent_us - reads[0].sent_us,
                p50_us: us(percentile(&rtt, 0.50)),
                p90_us: us(percentile(&rtt, 0.90)),
                p99_us: us(percentile(&rtt, 0.99)),
            }
        })
        .collect()
}

/// A counted number of reads is cut off after this long, four times
/// what the reads of a round take undisturbed, so that a slow round does
/// not cost the run its repetitions. A round that has no block of reads
/// at all fails.
const READ_CAP: Duration = Duration::from_millis(1500);

/// Reads beside a replay last as long as the replay does, but not longer
/// than this: a transaction not visible by then is lost, and the round
/// fails instead of hanging.
const REPLAY_DEADLINE: Duration = Duration::from_secs(15);

/// The parts of a round's reads, in reads per connection.
struct ReadPlan {
    connections: usize,
    /// Keep the generator threads on this core.
    core: Option<usize>,
    /// Discarded.
    warmup: usize,
    /// The quiet control after the warm-up (0 where there is none).
    quiet: usize,
    /// The measured reads; `None`: until the observer ends them.
    measured: Option<usize>,
    block: usize,
    /// Compare sampled bodies with a fresh render: only valid while no
    /// update is in flight.
    check_bodies: bool,
}

/// Closed-loop reads over `plan.connections` connections against a
/// bound site. `observe` is what the generators call between reads, with
/// the number of reads their connection has done; the reads end when it
/// returns `true`, if `plan.measured` does not end them first. Adds the
/// blocks and the read figures to `out`.
fn closed_reads(
    inputs: &Inputs,
    booted: &Booted,
    plan: &ReadPlan,
    out: &mut RoundResult,
    observe: Option<&(dyn Fn(usize) -> bool + Sync)>,
) {
    let renderer = Renderer::new(Arc::clone(booted.site.db()));
    let renderer = plan.check_bodies.then_some(&renderer);
    let addr = booted.server.addr();
    let start = Instant::now() + Duration::from_millis(2);
    let measured_from = plan.warmup + plan.quiet;
    let bounds = match plan.measured {
        Some(n) => (measured_from + n + 1, READ_CAP),
        None => (usize::MAX, REPLAY_DEADLINE),
    };
    // Counters as the first connection to get there leaves the warm-up.
    let before = OnceLock::new();
    // Raised by the first connection to finish: the connections of a
    // round end together, so that none reads alone.
    let stop = AtomicBool::new(false);
    let hook = |reads: usize| {
        if reads >= plan.warmup {
            before.get_or_init(|| (booted.site.metrics().cache, booted.server.served()));
        }
        stop.load(SeqCst) || observe.is_some_and(|observe| observe(reads))
    };
    let runs: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.connections)
            .map(|c| {
                let first_slot = c * inputs.reads.len() / plan.connections;
                let (stop, hook) = (&stop, &hook);
                s.spawn(move || {
                    if let Some(core) = plan.core {
                        pin_thread(0, core);
                    }
                    let run = closed_loop(inputs, addr, first_slot, renderer, start, bounds, hook);
                    stop.store(true, SeqCst);
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let cache_after = booted.site.metrics().cache;
    let served_after = booted.server.served();
    for (samples, tally) in &runs {
        out.reads.merge(tally);
        out.blocks
            .push(blocks_of(samples, measured_from, plan.block));
    }
    if out.blocks.iter().all(Vec::is_empty) {
        out.failures
            .push("no connection got through one block of measured reads".to_string());
    }
    // The control: the quiet phase, or, where nothing is updated beside
    // the reads, the measured reads themselves.
    let control = |samples: &[Sample]| {
        let until = if plan.quiet > 0 {
            measured_from
        } else {
            samples.len()
        };
        samples.get(plan.warmup..until).unwrap_or_default().to_vec()
    };
    let quiet: Vec<Sample> = runs
        .iter()
        .flat_map(|(samples, _)| control(samples))
        .collect();
    let quiet = round_trips(&quiet);
    let v = &mut out.values;
    v.insert("httpd.quiet_read_p50_us", us(percentile(&quiet, 0.50)));
    v.insert("httpd.quiet_read_p90_us", us(percentile(&quiet, 0.90)));
    v.insert("httpd.shed", booted.server.shed() as f64);
    let Some(&(cache_before, served_before)) = before.get() else {
        return;
    };
    v.insert("httpd.served", (served_after - served_before) as f64);
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    v.insert(
        "cache.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert(
        "cache.evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
    );
}

/// One transaction's timing from its three instants.
fn timing(commit: Instant, committed: Instant, visible: Instant) -> TxnTiming {
    TxnTiming {
        txn_ns: (visible - commit).as_nanos() as u64,
        visible_ns: (visible - committed).as_nanos() as u64,
    }
}

/// Commit the whole schedule into `site`, pumping the trigger monitor on
/// this thread after every commit: visible when `pump` returns.
fn replay_on_this_thread(inputs: &Inputs, site: &ServingSite, out: &mut RoundResult) {
    let mut rng = inputs.apply_rng();
    for update in &inputs.updates {
        let t0 = Instant::now();
        UpdateSchedule::apply(update, site.db(), &mut rng);
        let t1 = Instant::now();
        out.regenerated += site.pump().regenerated;
        out.txns.push(timing(t0, t1, Instant::now()));
    }
}

/// The replay on `site` is over: count it and check the site.
fn replay_done(site: &ServingSite, out: &mut RoundResult) {
    let committed = out.txns.len() as u64;
    out.txns_committed += committed;
    out.values.insert("trigger.txns", committed as f64);
    out.values
        .insert("trigger.pages_regenerated", out.regenerated as f64);
    check_site(site, committed, out);
}

/// After the updates on `site` are done: the monitor processed exactly
/// the transactions committed, and every page in every fleet member is
/// byte-equal to a fresh render.
fn check_site(site: &ServingSite, committed: u64, out: &mut RoundResult) {
    let processed = site.metrics().trigger.txns;
    if processed != committed {
        out.failures.push(format!(
            "trigger processed {processed} transactions, {committed} were committed"
        ));
    }
    let renderer = Renderer::new(Arc::clone(site.db()));
    let mut fresh = BTreeMap::new();
    let mut stale = 0u64;
    let mut first = None;
    for (node, member) in site.fleet().members().iter().enumerate() {
        for (url, body, _, _) in member.export_entries() {
            out.pages_checked += 1;
            let Some(key) = PageKey::parse(&url) else {
                out.failures
                    .push(format!("node {node} caches unparsable key {url}"));
                continue;
            };
            let expected = fresh
                .entry(url)
                .or_insert_with(|| renderer.render(key).body);
            if *expected != body {
                stale += 1;
                first.get_or_insert((node, key.to_url()));
            }
        }
    }
    if let Some((node, url)) = first {
        out.failures.push(format!(
            "{stale} cached pages differ from a fresh render, first {url} on node {node}"
        ));
    }
}

/// `hot_hits`, `small_cache` and `update_storm`: closed-loop reads and one
/// replay of the schedule on the same site, one after the other. On
/// `update_storm` the replay comes first, straight after the build, and
/// the reads are short.
fn sequential_round(
    workload: Workload,
    inputs: &Inputs,
    cache: &CacheConfig,
    shape: &Shape,
) -> RoundResult {
    let mut out = RoundResult::default();
    let booted = boot(inputs, cache, &mut out);
    let storm = workload == Workload::UpdateStorm;
    let replay = |out: &mut RoundResult| {
        replay_on_this_thread(inputs, &booted.site, out);
        replay_done(&booted.site, out);
    };
    if storm {
        replay(&mut out);
    }
    let plan = ReadPlan {
        connections: CONNECTIONS,
        core: None,
        warmup: shape.warmup,
        quiet: 0,
        measured: Some(if storm { shape.tail_reads } else { shape.reads }),
        block: shape.block,
        check_bodies: true,
    };
    closed_reads(inputs, &booted, &plan, &mut out, None);
    if !storm {
        replay(&mut out);
    }
    booted.server.shutdown();
    out
}

/// The update side of `serve_under_updates`: the schedule is committed
/// one transaction at a time, the next as soon as the last is visible, by
/// whichever generator thread sees that first. The generators are the
/// only threads that are on a core all the time; a thread that sleeps
/// between looks at the trigger statistics is, on two saturated cores,
/// descheduled for 1-3 ms at a time (measured), which would leave the
/// update pipeline idle for longer than a transaction takes.
struct Storm<'a> {
    inputs: &'a Inputs,
    site: &'a ServingSite,
    epoch: Instant,
    /// Reads after which the quiet phase is over and the updates start.
    go_at: usize,
    /// Transactions committed so far (mirror of `Committer::stamps`).
    committed: AtomicU64,
    /// Transactions seen visible so far.
    seen: AtomicU64,
    /// Per ordinal: nanoseconds from `epoch` to the first sighting
    /// (`SeqCst` throughout: the slots carry timestamps between threads).
    seen_at_ns: Vec<AtomicU64>,
    committer: Mutex<Committer>,
}

struct Committer {
    rng: DeterministicRng,
    /// Commit call and commit return, per transaction.
    stamps: Vec<(Instant, Instant)>,
}

impl<'a> Storm<'a> {
    fn new(inputs: &'a Inputs, site: &'a ServingSite, go_at: usize) -> Self {
        Storm {
            inputs,
            site,
            epoch: Instant::now(),
            go_at,
            committed: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            seen_at_ns: inputs
                .updates
                .iter()
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
            committer: Mutex::new(Committer {
                rng: inputs.apply_rng(),
                stamps: Vec::with_capacity(inputs.updates.len()),
            }),
        }
    }

    /// What a generator does after every few of its `reads`: note which
    /// transactions are visible now, and commit the next one if none is
    /// in flight. Returns whether the whole schedule is visible.
    /// `record_txn` runs after the pages are distributed, so the counter
    /// reaching an ordinal means that transaction is visible;
    /// `watermark()` is bumped before processing and is not used.
    fn look(&self, reads: usize) -> bool {
        let processed = self.site.monitor().stats().snapshot().txns;
        let now = self.epoch.elapsed().as_nanos() as u64;
        let processed = processed.min(self.seen_at_ns.len() as u64);
        let before = self.seen.fetch_max(processed, SeqCst);
        for slot in &self.seen_at_ns[before.min(processed) as usize..processed as usize] {
            slot.fetch_min(now, SeqCst);
        }
        if processed as usize == self.inputs.updates.len() {
            return true;
        }
        if reads < self.go_at || processed != self.committed.load(SeqCst) {
            return false;
        }
        let Ok(mut committer) = self.committer.try_lock() else {
            return false;
        };
        let next = committer.stamps.len();
        if next as u64 != processed {
            return false;
        }
        let t0 = Instant::now();
        UpdateSchedule::apply(
            &self.inputs.updates[next],
            self.site.db(),
            &mut committer.rng,
        );
        committer.stamps.push((t0, Instant::now()));
        self.committed.store(next as u64 + 1, SeqCst);
        false
    }

    fn all_visible(&self) -> bool {
        self.seen.load(SeqCst) as usize == self.seen_at_ns.len()
    }

    fn first_seen(&self, ordinal: usize) -> Instant {
        self.epoch + Duration::from_nanos(self.seen_at_ns[ordinal].load(SeqCst))
    }
}

/// `serve_under_updates`: closed-loop reads throughout; after the quiet
/// lead-in the schedule is committed behind the reads and the trigger
/// runner regenerates beside them; the reads end when the last
/// transaction is visible.
fn concurrent_round(inputs: &Inputs, cache: &CacheConfig, shape: &Shape) -> RoundResult {
    let mut out = RoundResult::default();
    let booted = boot(inputs, cache, &mut out);
    let site = &booted.site;
    let runner = site.spawn_trigger_runner();
    // Which of three busy threads share a core, and for how long after
    // the host interrupted one of them, is the scheduler's business and
    // moved `regen_pages_per_s` by a quarter between runs. So the reads
    // are kept on one core and regeneration on the other; threads a
    // later change adds to either are not held back.
    pin_threads_named("httpd-worker", READ_CORE);
    pin_threads_named("trigger-monitor", REGEN_CORE);
    let storm = Storm::new(inputs, site, shape.warmup + shape.quiet);
    let look = |reads| storm.look(reads);
    let plan = ReadPlan {
        connections: CONNECTIONS_BESIDE_UPDATES,
        core: Some(READ_CORE),
        warmup: shape.warmup,
        quiet: shape.quiet,
        measured: None,
        block: shape.block,
        check_bodies: false,
    };
    closed_reads(inputs, &booted, &plan, &mut out, Some(&look));
    runner.stop();
    let committer = storm.committer.lock().expect("no generator panicked");
    if storm.all_visible() {
        for (i, &(t0, t1)) in committer.stamps.iter().enumerate() {
            out.txns.push(timing(t0, t1, storm.first_seen(i).max(t1)));
        }
        out.regenerated = site.metrics().trigger.pages_regenerated;
        replay_done(site, &mut out);
    } else {
        out.failures.push(format!(
            "transaction {} never became visible",
            storm.seen.load(SeqCst) + 1
        ));
    }
    booted.server.shutdown();
    out
}

/// Run one round of `workload`.
pub fn run_round(workload: Workload, inputs: &Inputs, shape: &Shape) -> RoundResult {
    let cache = workload.cache(inputs);
    match workload {
        Workload::ServeUnderUpdates => concurrent_round(inputs, &cache, shape),
        _ => sequential_round(workload, inputs, &cache, shape),
    }
}
