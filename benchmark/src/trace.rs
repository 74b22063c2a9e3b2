//! The traced run: replays a workload's seeded inputs in-process and
//! wraps every call into a layer's public API in a span, kept in memory
//! and written to `trace.json` when the run ends. Layers are measured
//! from outside; spans inside the program are a later change that will
//! be judged against these numbers.
//!
//! Calls a layer makes internally cannot be wrapped from outside, so they
//! are *replayed standalone* right after the enclosing call, on the same
//! keys, and recorded as children flagged `replayed`. A span's self time
//! is its duration minus the part of its interval that nested children
//! cover, minus the duration of its replayed children.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nagano::ServingSite;
use nagano_httpd::{Request, RequestReader, Status};
use nagano_odg::{DupEngine, Interner, NodeKind};
use nagano_pagegen::{Dependency, PageKey, Renderer};
use nagano_workload::UpdateSchedule;

use crate::loadgen::{parse_etag, write_request};
use crate::plan::Inputs;
use crate::stats::{mean, percentile_of};
use crate::workloads::{build_site, Workload};

/// Requests replayed in-process per serve trace.
const SERVE_OPS: usize = 20_000;

/// Pages whose render time is compared across schedule passes.
const HISTORY_PAGES: usize = 400;

/// Schedule passes on one site for `db.history_slowdown_x`.
const HISTORY_PASSES: usize = 4;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or `NO_PARENT`.
    pub parent: u32,
    /// Spans of one request or one transaction share an identifier.
    pub op: u32,
    /// Replayed standalone after the parent returned, not nested in it.
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When disabled it runs the closures untimed,
/// which is the untraced replay the overhead is measured against.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns the span's index and `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        replayed: bool,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> (u32, R) {
        if !self.enabled {
            return (NO_PARENT, f(self, NO_PARENT));
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            replayed,
        });
        let r = f(self, id);
        self.spans[id as usize].end_ns = self.now_ns();
        (id, r)
    }

    /// What one empty span measures: the cost of reading the clock, which
    /// every nanosecond-scale figure has subtracted.
    pub fn clock_cost_ns() -> f64 {
        let mut t = Tracer::new(true);
        for _ in 0..10_000 {
            t.span("calibrate", NO_PARENT, 0, false, |_, _| ());
        }
        let mut d: Vec<u64> = t.spans.iter().map(Span::duration_ns).collect();
        percentile_of(&mut d, 0.5) as f64
    }

    /// Write every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"replayed\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.replayed,
                if i + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Self time of every span, nanoseconds: duration, minus the part of the
/// interval nested children cover (overlapping children are not counted
/// twice, parts outside the parent not at all), minus the full duration
/// of replayed children. Negative when the standalone replays of a
/// span's inner work took longer than the span itself.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut nested: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut replayed = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        if s.replayed {
            replayed[s.parent as usize] += s.duration_ns();
        } else {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                nested[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let intervals = &mut nested[i];
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() as i64 - covered as i64 - replayed[i] as i64
        })
        .collect()
}

/// Durations (ns) of the spans called `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// What the in-process serve replay found.
struct ServeTrace {
    wall_ns: u64,
    hits: u64,
    misses: u64,
}

/// Replay [`SERVE_OPS`] reads of the schedule against a fresh site: parse
/// the wire bytes, answer, write to a sink — the worker loop's three
/// calls, without the socket.
fn serve_replay(inputs: &Inputs, site: &ServingSite, tracer: &mut Tracer) -> ServeTrace {
    let mut parser = RequestReader::new();
    let mut request = Request::empty();
    let mut wire = Vec::with_capacity(256);
    let mut head = Vec::with_capacity(256);
    let mut scratch = Vec::with_capacity(256);
    let mut etags: Vec<Vec<u8>> = vec![Vec::new(); inputs.paths.len()];
    let node0 = site.fleet().member(0);
    let (mut hits, mut misses) = (0, 0);
    let t0 = Instant::now();
    for (op, read) in inputs.reads.iter().take(SERVE_OPS).enumerate() {
        let page = read.page as usize;
        let path = &inputs.paths[page];
        let validator: &[u8] = if read.conditional { &etags[page] } else { &[] };
        write_request(&mut wire, path, validator);
        let hit = node0.contains(path);
        let op = op as u32;
        let (_, response) = tracer.span("serve", NO_PARENT, op, false, |t, serve| {
            t.span("httpd.parse", serve, op, false, |_, _| {
                parser
                    .read_into(&mut wire.as_slice(), &mut request)
                    .expect("the generator writes well-formed requests")
            });
            let respond = if hit {
                "core.respond"
            } else {
                "core.handle_miss"
            };
            let (id, response) =
                t.span(respond, serve, op, false, |_, _| site.respond(0, &request));
            if hit {
                // The lookup `respond` just made, replayed standalone.
                t.span("cache.get", id, op, true, |_, _| {
                    std::hint::black_box(site.fleet().get_from(0, path));
                });
            }
            t.span("httpd.write", serve, op, false, |_, _| {
                response
                    .write_with_scratch(&mut io::sink(), true, &mut scratch)
                    .expect("a sink accepts every write");
            });
            response
        });
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
        if response.status == Status::Ok {
            response.serialize_head(true, &mut head);
            let etag = &mut etags[page];
            etag.clear();
            etag.extend_from_slice(parse_etag(&head));
        }
    }
    ServeTrace {
        wall_ns: t0.elapsed().as_nanos() as u64,
        hits,
        misses,
    }
}

/// The benchmark's own copy of the object dependence graph, built from
/// the dependencies renders report exactly as the trigger monitor's
/// `register_render` builds the real one, so a propagation can be timed
/// on its own.
struct MirrorGraph {
    dup: DupEngine,
    names: Interner,
}

impl MirrorGraph {
    fn of(renderer: &Renderer, keys: &[PageKey]) -> MirrorGraph {
        let mut mirror = MirrorGraph {
            dup: DupEngine::new(),
            names: Interner::new(),
        };
        for &key in keys {
            mirror.register(key, &renderer.render(key).deps);
        }
        mirror
    }

    fn register(&mut self, key: PageKey, deps: &[Dependency]) {
        let object = self.names.intern(&key.object_key());
        self.dup.graph_mut().ensure_node(object, NodeKind::Object);
        for dep in deps {
            let data = self.names.intern(&dep.data_key);
            if self.dup.add_dependency(data, object, dep.weight).is_err() {
                let _ = self.dup.add_dependency(data, object, 1.0);
            }
        }
    }
}

/// What the in-process update replay found.
#[derive(Default)]
struct UpdateTrace {
    visited: Vec<f64>,
    stale: Vec<f64>,
    bytes: u64,
    pages: u64,
    /// Regenerated pages, for the history comparison.
    touched: Vec<PageKey>,
    /// Transactions on which the mirror graph disagreed with the monitor.
    diverged: u64,
}

/// Commit the schedule once into a fresh site, processing every
/// transaction through the trigger monitor, and replay the monitor's
/// inner work standalone: propagation on the mirror graph, one render and
/// one fleet distribution per regenerated page.
fn update_replay(inputs: &Inputs, site: &ServingSite, tracer: &mut Tracer) -> UpdateTrace {
    let renderer = Renderer::new(Arc::clone(site.db()));
    let mut mirror = tracer
        .enabled
        .then(|| MirrorGraph::of(&renderer, &inputs.keys));
    let mut rng = inputs.apply_rng();
    let mut found = UpdateTrace::default();
    for (op, update) in inputs.updates.iter().enumerate() {
        let op = op as u32;
        let (_, (txn, process, outcome)) =
            tracer.span("update", NO_PARENT, op, false, |t, parent| {
                let (_, txn) = t.span("db.commit", parent, op, false, |_, _| {
                    UpdateSchedule::apply(update, site.db(), &mut rng)
                });
                let (process, outcome) =
                    t.span("trigger.process_txn", parent, op, false, |_, _| {
                        site.monitor().process_txn(&txn)
                    });
                (txn, process, outcome)
            });
        found.visited.push(outcome.visited as f64);
        found.stale.push(outcome.affected() as f64);
        let Some(mirror) = mirror.as_mut() else {
            continue;
        };
        let (_, stale) = tracer.span("odg.propagate", process, op, true, |_, _| {
            let changed: Vec<_> = txn
                .changes
                .iter()
                .filter_map(|c| mirror.names.get(&c.data_key))
                .collect();
            mirror.dup.propagate_ids(&changed).stale.len()
        });
        if stale != outcome.affected() {
            found.diverged += 1;
        }
        for &key in &outcome.regenerated {
            let (_, page) = tracer.span("pagegen.render", process, op, true, |_, _| {
                renderer.render(key)
            });
            found.bytes += page.body.len() as u64;
            found.pages += 1;
            mirror.register(key, &page.deps);
            let url = key.to_url();
            tracer.span("cache.distribute", process, op, true, |_, _| {
                site.fleet().distribute(&url, page.body, page.cost_ms);
            });
        }
        found.touched.extend_from_slice(&outcome.regenerated);
    }
    found
}

/// Mean render time (µs) of `pages` on `site` as it stands.
fn mean_render_us(site: &ServingSite, pages: &[PageKey]) -> f64 {
    let renderer = Renderer::new(Arc::clone(site.db()));
    let t0 = Instant::now();
    for &key in pages {
        std::hint::black_box(renderer.render(key));
    }
    t0.elapsed().as_secs_f64() * 1e6 / pages.len().max(1) as f64
}

/// Render cost of one page set after [`HISTORY_PASSES`] schedule passes
/// over the cost after one, on one site: how much the accumulated result
/// history slows every later render down.
fn history_slowdown(inputs: &Inputs, site: &ServingSite, pages: &[PageKey]) -> f64 {
    let after_one = mean_render_us(site, pages);
    for _ in 1..HISTORY_PASSES {
        let mut rng = inputs.apply_rng();
        for update in &inputs.updates {
            let txn = UpdateSchedule::apply(update, site.db(), &mut rng);
            site.monitor().process_txn(&txn);
        }
    }
    mean_render_us(site, pages) / after_one
}

/// The per-layer figures of one workload, and the span log they came from.
pub struct LayerReport {
    pub values: BTreeMap<&'static str, f64>,
    pub spans: usize,
    pub failures: Vec<String>,
}

/// Run the in-process traced and untraced replays for `workload`.
/// `rtt_p50_us`, `visible_p50_us` come from the workload's TCP window.
pub fn trace_layers(
    workload: Workload,
    inputs: &Inputs,
    rtt_p50_us: f64,
    visible_p50_us: f64,
    trace_path: &Path,
) -> io::Result<LayerReport> {
    let cache = workload.cache(inputs);
    let clock = Tracer::clock_cost_ns();
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);

    let serve = serve_replay(inputs, &build_site(inputs, &cache), &mut tracer);
    let serve_plain = serve_replay(inputs, &build_site(inputs, &cache), &mut untraced);
    let update = update_replay(inputs, &build_site(inputs, &cache), &mut tracer);
    let plain_site = build_site(inputs, &cache);
    // One untraced pass: the site `db.history_slowdown_x` starts from.
    update_replay(inputs, &plain_site, &mut untraced);

    let mut touched = update.touched.clone();
    touched.sort_unstable();
    touched.dedup();
    touched.truncate(HISTORY_PAGES);
    let slowdown = history_slowdown(inputs, &plain_site, &touched);

    let spans = &tracer.spans;
    let own = self_times(spans);
    let ns = |name: &str| (mean(&durations(spans, name)) - clock).max(0.0);
    let us = |name: &str| mean(&durations(spans, name)) / 1e3;
    let self_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .collect()
    };
    let parse_ns = ns("httpd.parse");
    let write_ns = ns("httpd.write");
    let get_ns = ns("cache.get");
    // Both the span and its replayed child carry one clock read, so the
    // difference needs no correction.
    let respond_hit_ns = mean(&self_of("core.respond")).max(0.0);
    let process_self = self_of("trigger.process_txn");
    let nonneg = process_self.iter().filter(|&&t| t >= 0.0).count();
    let mut process: Vec<u64> = durations(spans, "trigger.process_txn")
        .iter()
        .map(|&d| d as u64)
        .collect();
    // Overhead is reported where a span costs about as much as the work
    // it wraps; on the update path it is below the run-to-run noise.
    let (traced_ns, plain_ns) = (serve.wall_ns as f64, serve_plain.wall_ns as f64);

    let mut v = BTreeMap::new();
    v.insert("httpd.parse_ns", parse_ns);
    v.insert("httpd.write_ns", write_ns);
    v.insert("cache.get_ns", get_ns);
    v.insert("core.respond_hit_ns", respond_hit_ns);
    v.insert("core.handle_miss_us", us("core.handle_miss"));
    v.insert(
        "httpd.socket_us",
        rtt_p50_us - (parse_ns + respond_hit_ns + get_ns + write_ns) / 1e3,
    );
    v.insert("db.commit_us", us("db.commit"));
    v.insert("db.history_slowdown_x", slowdown);
    v.insert("odg.propagate_us", us("odg.propagate"));
    v.insert("odg.nodes_visited", mean(&update.visited));
    v.insert("odg.stale_per_txn", mean(&update.stale));
    v.insert("pagegen.render_us", us("pagegen.render"));
    v.insert(
        "pagegen.bytes_per_page",
        update.bytes as f64 / update.pages.max(1) as f64,
    );
    v.insert("cache.distribute_us", us("cache.distribute"));
    v.insert("trigger.process_txn_us", us("trigger.process_txn"));
    v.insert("trigger.self_us", mean(&process_self) / 1e3);
    v.insert(
        "trigger.self_nonneg_share",
        nonneg as f64 / process_self.len().max(1) as f64,
    );
    v.insert(
        "trigger.handoff_us",
        visible_p50_us - percentile_of(&mut process, 0.5) as f64 / 1e3,
    );
    v.insert("trace.overhead_share", (traced_ns - plain_ns) / plain_ns);
    v.insert("trace.replay_hits", serve.hits as f64);
    v.insert("trace.replay_misses", serve.misses as f64);

    let mut failures = Vec::new();
    if update.diverged > 0 {
        failures.push(format!(
            "the mirror graph disagreed with the trigger monitor on {} transactions",
            update.diverged
        ));
    }
    tracer.write_json(trace_path)?;
    Ok(LayerReport {
        values: v,
        spans: spans.len(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32, replayed: bool) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, 100, NO_PARENT, false),
            span(10, 30, 0, false),
            span(20, 50, 0, false), // overlaps the first child
            span(60, 70, 0, false),
            span(62, 65, 3, false), // grandchild: only its parent pays
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 7, 3]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = [
            span(100, 200, NO_PARENT, false),
            span(50, 120, 0, false),  // starts before the parent
            span(180, 260, 0, false), // ends after it
            span(300, 400, 0, false), // wholly outside: covers nothing
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 20);
    }

    #[test]
    fn replayed_children_count_by_duration_and_may_exceed_the_parent() {
        let spans = [
            span(0, 100, NO_PARENT, false),
            span(10, 30, 0, false),
            span(100, 140, 0, true),
            span(140, 150, 0, true),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 40 - 10);
        let spans = [span(0, 10, NO_PARENT, false), span(10, 40, 0, true)];
        assert_eq!(self_times(&spans)[0], -20);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_work() {
        let mut t = Tracer::new(false);
        let (id, r) = t.span("x", NO_PARENT, 0, false, |t, _| {
            t.span("y", 0, 0, false, |_, _| 2).1 + 1
        });
        assert_eq!((id, r), (NO_PARENT, 3));
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true);
        let (outer, _) = t.span("x", NO_PARENT, 7, false, |t, me| {
            t.span("y", me, 7, false, |_, _| ());
        });
        assert_eq!(outer, 0);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
