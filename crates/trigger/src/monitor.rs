//! The trigger monitor core: DB transaction → DUP marks the stale pages →
//! refresh or invalidate them → distribute.
//!
//! The monitor offers the three steps, [`TriggerMonitor::mark`],
//! [`TriggerMonitor::refresh`] and [`TriggerMonitor::invalidate`], and
//! composes them for its [`ConsistencyPolicy`] in
//! [`TriggerMonitor::process_batch`]. Policies that rank or widen the
//! marked set drive the same steps from outside (the cluster simulation's
//! hybrid and 1996 baseline).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use bytes::Bytes;

use nagano_cache::{PageCache, Visit};
use nagano_db::{DataKey, Transaction};
use nagano_odg::graph::OdgSnapshot;
use nagano_odg::{DupEngine, NodeId, StalenessPolicy};
use nagano_pagegen::{
    Dependency, PageKey, PageMemo, PageRegistry, PageSpace, RenderOutput, Renderer,
};
use nagano_simcore::sync::Mutex;

use crate::stats::TriggerStats;

/// What the trigger monitor does with the pages DUP marks stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConsistencyPolicy {
    /// Regenerate stale pages immediately and update them in place in
    /// the serving cache — the 1998 production policy. Hot pages are
    /// never invalidated, so they never miss.
    #[default]
    UpdateInPlace,
    /// Invalidate exactly the stale pages (precise DUP); the next request
    /// pays the regeneration cost.
    Invalidate,
}

/// Outcome of processing one transaction.
#[derive(Debug, Clone, Default)]
pub struct TxnOutcome {
    /// Pages regenerated and distributed.
    pub regenerated: Vec<PageKey>,
    /// How many of `regenerated` came out as other bytes than the serving
    /// cache held: the rest were re-derived, found unchanged, and kept
    /// their version.
    pub changed: usize,
    /// How many of the others were not composed either: the renderer
    /// answered them from the revision stamps of what they read.
    pub revalidated: usize,
    /// How many of `regenerated` the renderer patched instead of composing:
    /// it rewrote, in the body the cache held, the spliced sections that
    /// had moved. Changed or not.
    pub patched: usize,
    /// Pages invalidated.
    pub invalidated: Vec<PageKey>,
    /// The bodies those invalidations took out of the cache, by page
    /// slot: what a caller that serves stale copies keeps. Empty under
    /// update-in-place.
    pub removed: Vec<(u32, Bytes)>,
    /// Affected pages tolerated as slightly stale (threshold policy).
    pub tolerated: Vec<PageKey>,
    /// ODG nodes visited by the propagation.
    pub visited: usize,
    /// Modelled CPU of the pages regenerated, in milliseconds.
    pub render_ms: f64,
}

impl TxnOutcome {
    /// Total pages affected by this transaction.
    pub fn affected(&self) -> usize {
        self.regenerated.len() + self.invalidated.len() + self.tolerated.len()
    }
}

/// What one [`TriggerMonitor::refresh`] did.
#[derive(Debug, Clone, Default)]
pub struct Refreshed {
    /// The keys distributed, in the caller's order.
    pub keys: Vec<PageKey>,
    /// Summed modelled CPU, in milliseconds.
    pub render_ms: f64,
    /// How many of `keys` changed the serving cache's bytes.
    pub changed: usize,
    /// How many of `keys` the renderer did not compose.
    pub revalidated: usize,
    /// How many of `keys` the renderer patched.
    pub patched: usize,
}

impl From<Refreshed> for TxnOutcome {
    fn from(r: Refreshed) -> Self {
        TxnOutcome {
            regenerated: r.keys,
            changed: r.changed,
            revalidated: r.revalidated,
            patched: r.patched,
            render_ms: r.render_ms,
            ..TxnOutcome::default()
        }
    }
}

/// The graph, and the page space its vertices are numbered by: a page's
/// vertex is its slot, a datum's is computed from its key
/// ([`PageSpace::vertex`]). Nothing is interned.
struct GraphState {
    dup: DupEngine,
    space: PageSpace,
}

impl GraphState {
    /// The page whose object vertex `id` is, if it is one.
    fn page_of(&self, id: NodeId) -> Option<PageKey> {
        self.space.key(id.0)
    }

    /// `key`'s vertex, if it has one.
    fn vertex(&self, key: &DataKey) -> Option<NodeId> {
        self.space.vertex(key.datum()).map(NodeId)
    }

    /// The vertices `txns` changed, for a unit-magnitude propagation: the
    /// propagation adds a magnitude per occurrence, so each key counts
    /// once per transaction that names it, however often that one lists
    /// it (`record_results` lists a country per placed athlete). A vertex
    /// no page ever depended on is not in the graph, and the propagation
    /// passes it by.
    fn changed_ids(&self, txns: &[impl Borrow<Transaction>]) -> Vec<NodeId> {
        let mut changed = Vec::new();
        for txn in txns {
            let first = changed.len();
            let keys = txn.borrow().changes.iter();
            for id in keys.filter_map(|c| self.vertex(&c.data_key)) {
                if !changed[first..].contains(&id) {
                    changed.push(id);
                }
            }
        }
        changed
    }
}

/// One demand fill's result: the body now cached, the version the cache
/// gave it, the registered dependencies and the modelled CPU spent.
#[derive(Debug, Clone)]
pub struct DemandFill {
    /// The finished page body.
    pub body: Bytes,
    /// The cache version the fill was stored under — what the response's
    /// entity tag must name, whatever happens to the entry afterwards.
    pub version: u64,
    /// Dependencies registered for the page.
    pub deps: Arc<[Dependency]>,
    /// Modelled CPU spent rendering the body.
    pub cost_ms: f64,
}

/// The trigger monitor.
pub struct TriggerMonitor {
    graph: Mutex<GraphState>,
    /// The dependency list last registered for each page that has an
    /// object vertex, by slot — the renderer's own, shared. Registration
    /// only ever adds edges, so while a page renders to the list recorded
    /// here every one of its edges is in the graph and
    /// [`TriggerMonitor::register_render`] has nothing to do.
    /// Other edges are written only under the graph lock, together with
    /// the vertex they describe (another list of the same edges at any
    /// time); read on its own, or held across a regeneration's one pass
    /// (the view, then each row's shard), never while taking the graph
    /// lock.
    registered: Mutex<Vec<Option<Arc<[Dependency]>>>>,
    renderer: Renderer,
    cache: Arc<PageCache>,
    registry: Arc<PageRegistry>,
    policy: ConsistencyPolicy,
    stats: Arc<TriggerStats>,
    /// Highest transaction id this monitor has marked — the resume point
    /// after a crash ([`TriggerMonitor::recover`]).
    watermark: AtomicU64,
}

impl TriggerMonitor {
    /// Build a monitor. `renderer` reads the site database; `cache` is the
    /// serving cache updates are distributed to.
    pub fn new(
        renderer: Renderer,
        cache: Arc<PageCache>,
        registry: Arc<PageRegistry>,
        policy: ConsistencyPolicy,
    ) -> Self {
        let space = *registry.space();
        TriggerMonitor {
            graph: Mutex::new(GraphState {
                dup: DupEngine::new(),
                space,
            }),
            registered: Mutex::new(vec![None; space.len() as usize]),
            renderer,
            cache,
            registry,
            policy,
            stats: Arc::new(TriggerStats::default()),
            watermark: AtomicU64::new(0),
        }
    }

    /// Set the DUP staleness policy (threshold tolerance of
    /// slightly-obsolete pages).
    pub fn set_staleness_policy(&self, policy: StalenessPolicy) {
        self.graph.lock().dup.set_policy(policy);
    }

    /// The consistency policy.
    pub fn policy(&self) -> ConsistencyPolicy {
        self.policy
    }

    /// Statistics handle.
    pub fn stats(&self) -> Arc<TriggerStats> {
        Arc::clone(&self.stats)
    }

    /// The serving cache updates are distributed to.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The renderer regenerations render onto the cache's bodies with.
    pub fn renderer(&self) -> &Renderer {
        &self.renderer
    }

    /// Number of (nodes, edges) currently in the ODG.
    pub fn graph_size(&self) -> (usize, usize) {
        let g = self.graph.lock();
        (g.dup.graph().node_count(), g.dup.graph().edge_count())
    }

    /// A sorted copy of the ODG: a page's vertex is its slot, a datum's
    /// what [`PageSpace::vertex`] makes of its key.
    pub fn graph_snapshot(&self) -> OdgSnapshot {
        self.graph.lock().dup.graph().snapshot()
    }

    /// Render every registered page once, distribute it to the cache, and
    /// register its dependencies — the prefetch pass that lets the site
    /// start with a warm cache and a complete ODG. Static pages are
    /// preloaded too: the production site served them from the filesystem
    /// (i.e. the OS page cache); holding them in the serving cache is the
    /// equivalent steady state.
    ///
    /// Every body goes to the cache with the renderer's memo of it
    /// ([`Renderer::render_onto`]), so a page's first regeneration is
    /// answered by its stamps or patched like every later one. A bounded
    /// cache that evicts a page for a later one drops its memo with it.
    ///
    /// Returns the number of pages warmed.
    pub fn prewarm(&self) -> usize {
        let pages = self.registry.pages();
        // Every page rendered, then every page registered and distributed:
        // interleaving the steps per page cost ~0.8 ms more CPU on a
        // ~7.8 ms full-Games prewarm (2-vCPU guest), each pass keeping its
        // own tables in cache.
        let rendered: Vec<(RenderOutput, Box<PageMemo>)> = pages
            .iter()
            .map(|&(key, _)| self.renderer.render_onto(key, None))
            .collect();
        let space = self.registry.space();
        for (&(key, _), (out, memo)) in pages.iter().zip(rendered) {
            self.register_render(key, &out);
            if let Some(slot) = space.slot(key) {
                self.cache.distribute_with(slot, out.body, None, Some(memo));
            }
        }
        pages.len()
    }

    /// Register a rendered page's dependencies in the ODG (idempotent;
    /// re-registering after regeneration refreshes edges for pages whose
    /// composition changed). The one entry to the graph's edges. A key
    /// with no slot is not a page of the site and has no vertex; nor has a
    /// datum [`PageSpace::vertex`] gives none, and no edge is registered
    /// from it.
    pub fn register_render(&self, key: PageKey, out: &RenderOutput) {
        let Some(slot) = self.registry.space().slot(key) else {
            return;
        };
        match self.registered.lock()[slot as usize].as_mut() {
            Some(last) if Arc::ptr_eq(last, &out.deps) => return,
            // The same edges in another list: keep that one, which is the
            // one the renderer will hand out until the edges change.
            Some(last) if **last == *out.deps => {
                *last = Arc::clone(&out.deps);
                return;
            }
            _ => {}
        }
        let mut g = self.graph.lock();
        let object = NodeId(slot);
        g.dup
            .graph_mut()
            .ensure_node(object, nagano_odg::NodeKind::Object);
        for dep in out.deps.iter() {
            let Some(data) = g.vertex(&dep.data_key) else {
                continue;
            };
            // A non-finite/non-positive weight is a renderer bug; keep
            // the invalidation edge alive with unit weight rather than
            // panicking the serving path over a bad number.
            if g.dup.add_dependency(data, object, dep.weight).is_err() {
                let _ = g.dup.add_dependency(data, object, 1.0);
            }
        }
        self.registered.lock()[slot as usize] = Some(Arc::clone(&out.deps));
    }

    /// Process one committed transaction.
    pub fn process_txn(&self, txn: &Transaction) -> TxnOutcome {
        self.process_batch(std::slice::from_ref(txn))
    }

    /// Process a batch of transactions with a **single** DUP propagation
    /// over the union of their changed data: [`TriggerMonitor::mark`],
    /// then [`TriggerMonitor::refresh`] the stale pages (update-in-place)
    /// or [`TriggerMonitor::invalidate`] them, counting the render each
    /// invalidation saves in `nagano_trigger_regen_saved_ms_total`.
    ///
    /// The production trigger monitor coalesced updates arriving close
    /// together: a page affected by five transactions in one burst is
    /// regenerated once, not five times. The `batching` ablation
    /// quantifies the saving.
    pub fn process_batch(&self, txns: &[impl Borrow<Transaction>]) -> TxnOutcome {
        if txns.is_empty() {
            return TxnOutcome::default();
        }
        let (stale, tolerated, visited) = self.mark(txns);
        let outcome = match self.policy {
            ConsistencyPolicy::UpdateInPlace => TxnOutcome {
                tolerated,
                visited,
                ..self.refresh(&stale).into()
            },
            ConsistencyPolicy::Invalidate => {
                let saved_ms = stale.iter().map(|&key| self.regen_cost_ms(key)).sum();
                self.stats.record_regen_saved(saved_ms);
                TxnOutcome {
                    removed: self.invalidate(&stale),
                    invalidated: stale,
                    tolerated,
                    visited,
                    ..TxnOutcome::default()
                }
            }
        };
        self.stats.record_txn(
            outcome.regenerated.len() as u64,
            outcome.invalidated.len() as u64,
            outcome.tolerated.len() as u64,
            outcome.visited as u64,
        );
        outcome
    }

    /// The first step: one DUP propagation over the union of what `txns`
    /// changed, and the watermark moved past them. Returns the pages whose
    /// staleness reached the DUP threshold, those tolerated below it, and
    /// the ODG nodes visited. Touches no cache and counts nothing: what is
    /// done with the marks is the caller's.
    pub fn mark(&self, txns: &[impl Borrow<Transaction>]) -> (Vec<PageKey>, Vec<PageKey>, usize) {
        let hi = txns.iter().map(|t| t.borrow().id.0).max().unwrap_or(0);
        self.watermark.fetch_max(hi, Relaxed);
        let mut g = self.graph.lock();
        let changed = g.changed_ids(txns);
        let prop = g.dup.propagate_ids(&changed);
        let to_pages = |pairs: &[(NodeId, f64)]| -> Vec<PageKey> {
            pairs.iter().filter_map(|&(id, _)| g.page_of(id)).collect()
        };
        (
            to_pages(&prop.stale),
            to_pages(&prop.tolerated),
            prop.visited,
        )
    }

    /// Drop each of `keys` from the serving cache, and its memo with it;
    /// returns the slot and the body removed of each that was cached.
    pub fn invalidate(&self, keys: &[PageKey]) -> Vec<(u32, Bytes)> {
        let space = self.registry.space();
        let removed = keys.iter().filter_map(|&key| {
            let slot = space.slot(key)?;
            Some((slot, self.cache.invalidate(slot)?))
        });
        removed.collect()
    }

    /// Modelled CPU to refresh `key` right now: its whole-page render. This
    /// is the currency of a regeneration budget and of `regen_saved_ms`.
    pub fn regen_cost_ms(&self, key: PageKey) -> f64 {
        self.renderer.cost_model().cost_ms(key)
    }

    /// Re-derive each of `keys` from the database, in the given order,
    /// onto the body the cache holds for it, and distribute it.
    ///
    /// A page's entry keeps the renderer's memo of its body for as long as
    /// it holds that allocation. One pass over the entries
    /// ([`Renderer::answer_unmoved`]) visits each page once
    /// ([`PageCache::answer_or_take`]): a registered page with a memo
    /// whose stamps all stand is answered there, and rendered, registered
    /// and distributed not at all; from every other the body is taken,
    /// with the memo of it out of its entry. That page is then rendered
    /// onto that body and distributed with the memo of what came out and
    /// the body it was rendered onto ([`PageCache::distribute_with`]): an
    /// entry that still holds that body takes the renderer's verdict from
    /// the address it hands back, and one that holds the bytes keeps them
    /// as they are. Adds the summed
    /// modelled CPU to `nagano_trigger_regen_cpu_ms_total` and counts the
    /// keys whose bytes changed in `nagano_trigger_pages_changed_total`,
    /// the keys that were not composed in
    /// `nagano_trigger_pages_revalidated_total` and the keys patched in
    /// `nagano_trigger_pages_patched_total`.
    ///
    /// Sequential by design: a page is rendered, registered and
    /// distributed before the next is rendered, so no more than one new
    /// body is alive at a time and a kept page never leaves this thread's
    /// cache lines; two regeneration threads did not repay forking ~44
    /// renders of ~1 µs each per transaction on a 2-vCPU guest (DESIGN
    /// §13a). A renderer that models render CPU
    /// ([`Renderer::with_simulated_cpu`]) spins here one page after the
    /// other.
    pub fn refresh(&self, keys: &[PageKey]) -> Refreshed {
        if keys.is_empty() {
            return Refreshed::default();
        }
        let mut regen = Refreshed {
            keys: keys.to_vec(),
            ..Default::default()
        };
        // Every key here is a page vertex's, which is its slot.
        let space = self.registry.space();
        let visits = {
            let registered = self.registered.lock();
            self.renderer.answer_unmoved(keys, |key, answer| {
                let Some(slot) = space.slot(key) else {
                    return Visit::Taken(None);
                };
                self.cache.answer_or_take(slot, |body, memo| {
                    // A page a retired fragment fed registers every edge
                    // anew at its next render, which this is not.
                    registered[slot as usize].as_ref()?;
                    answer(body, memo)
                })
            })
        };
        for (&key, visit) in keys.iter().zip(visits) {
            let (held, memo) = match visit {
                Visit::Answered(cost_ms) => {
                    regen.render_ms += cost_ms;
                    regen.revalidated += 1;
                    continue;
                }
                Visit::Taken(held) => held.unzip(),
            };
            let slot = space.slot(key);
            let (out, memo) = self
                .renderer
                .render_onto(key, held.as_ref().map(|b| (b, memo.flatten())));
            self.register_render(key, &out);
            regen.render_ms += out.cost_ms;
            regen.revalidated += usize::from(out.revalidated);
            regen.patched += usize::from(out.patched);
            if let Some(slot) = slot {
                let changed = self
                    .cache
                    .distribute_with(slot, out.body, held.as_ref(), Some(memo));
                regen.changed += usize::from(changed);
            }
        }
        self.stats.record_regen_cpu(regen.render_ms);
        self.stats.record_pages_changed(regen.changed as u64);
        self.stats
            .record_pages_revalidated(regen.revalidated as u64);
        self.stats.record_pages_patched(regen.patched as u64);
        regen
    }

    /// Whether a regeneration may answer `key` from the memo in its entry,
    /// unmoved: the page is cached with a memo, and registered.
    pub fn remembers(&self, key: PageKey) -> bool {
        let Some(slot) = self.registry.space().slot(key) else {
            return false;
        };
        let registered = self.registered.lock()[slot as usize].is_some();
        registered && self.cache.with_memo(slot, |_, _: &PageMemo| ()).is_some()
    }

    /// Highest transaction id marked so far (0 before any work). A
    /// restarted monitor resumes from here: everything in the site's
    /// replicated log after this id is replayed by
    /// [`TriggerMonitor::recover`].
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Relaxed)
    }

    /// Crash/restart recovery: re-run DUP over the transactions missed
    /// while the monitor was down. `missed` is the tail of the site's
    /// replicated log; anything at or below the watermark is skipped, the
    /// rest is processed as **one** batch (a single propagation), which
    /// rewarms (update-in-place) or invalidates every affected page so no
    /// stale entry survives the outage. Increments
    /// `nagano_trigger_recoveries_total`.
    pub fn recover(&self, missed: &[impl Borrow<Transaction>]) -> TxnOutcome {
        let watermark = self.watermark.load(Relaxed);
        let fresh: Vec<&Transaction> = missed
            .iter()
            .map(|t| t.borrow())
            .filter(|t| t.id.0 > watermark)
            .collect();
        let outcome = self.process_batch(&fresh);
        self.stats.record_recovery();
        outcome
    }

    /// Retire a page: drop it from the serving cache and remove its
    /// object vertex (with all incident edges) from the ODG, so future
    /// propagations no longer touch it. The production site retired
    /// CBS-feed fragments and per-day pages after the Games; "ODGs are
    /// constantly changing" covers removal as much as addition.
    ///
    /// Returns whether the page was known to the graph.
    pub fn retire_page(&self, key: PageKey) -> bool {
        self.invalidate(&[key]);
        let mut g = self.graph.lock();
        let Some(id) = g.space.slot(key).map(NodeId) else {
            return false;
        };
        // The records go with the edges: the page's own, and — a fragment
        // is a hybrid vertex — those of the pages it feeds, whose edge
        // from it is removed too. Their next render must find nothing to
        // compare against and register every edge anew; so the one pass
        // leaves a fed page to it (the page's own memo went with its
        // invalidation), or it would answer the page unmoved, unregistered.
        {
            let mut registered = self.registered.lock();
            registered[id.0 as usize] = None;
            for edge in g.dup.graph().successors(id) {
                if g.page_of(edge.to).is_some() {
                    registered[edge.to.0 as usize] = None;
                }
            }
        }
        g.dup.graph_mut().remove_node(id).is_ok()
    }

    /// Demand-miss path used by server programs: render `key`, register
    /// its dependencies, and fill the serving cache. A key with no slot is
    /// not a page of the site: it is rendered, but neither registered nor
    /// cached (version 0).
    pub fn demand_fill(&self, key: PageKey) -> DemandFill {
        let out = self.renderer.render(key);
        self.register_render(key, &out);
        let version = self
            .registry
            .space()
            .slot(key)
            .map_or(0, |slot| self.cache.put(slot, out.body.clone()));
        DemandFill {
            body: out.body,
            version,
            deps: out.deps,
            cost_ms: out.cost_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_cache::{CacheConfig, ReplacementPolicy};
    use nagano_db::{seed_games, AthleteId, CountryId, GamesConfig, OlympicDb};
    use nagano_pagegen::FragmentKey;

    fn setup(policy: ConsistencyPolicy) -> (Arc<OlympicDb>, TriggerMonitor) {
        setup_on(CacheConfig::default(), policy)
    }

    /// A monitor over a cache of `config`, whose pages the tests name by
    /// URL.
    fn setup_on(
        config: CacheConfig,
        policy: ConsistencyPolicy,
    ) -> (Arc<OlympicDb>, TriggerMonitor) {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let registry = Arc::new(PageRegistry::build(&db, 16));
        let cache = PageCache::with_keys(config, crate::PageUrls::of(&registry));
        let renderer = Renderer::new(Arc::clone(&db));
        let monitor = TriggerMonitor::new(renderer, Arc::new(cache), registry, policy);
        (db, monitor)
    }

    fn podium(db: &OlympicDb, event: nagano_db::EventId) -> Vec<(AthleteId, f64)> {
        let ev = db.event(event).unwrap();
        db.athletes_of_sport(ev.sport)
            .iter()
            .take(5)
            .enumerate()
            .map(|(i, a)| (a.id, 100.0 - i as f64))
            .collect()
    }

    #[test]
    fn prewarm_fills_every_dynamic_page_and_builds_the_graph() {
        let (_db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        let warmed = monitor.prewarm();
        assert!(warmed > 50);
        assert_eq!(monitor.cache().len(), warmed);
        let (nodes, edges) = monitor.graph_size();
        assert!(nodes > warmed, "graph has data + object nodes");
        assert!(edges > 0);
    }

    #[test]
    fn the_first_final_after_prewarm_is_answered_like_every_later_one() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let registry = PageRegistry::build(&db, 16);
        for &(key, _) in registry.pages() {
            assert!(monitor.remembers(key), "{key} not remembered");
        }
        let ev = db.events()[0].clone();
        let before = db.medal_standings();
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.process_txn(&txn);
        let after = db.medal_standings();
        let moved = |c: &CountryId| {
            let tally = |rows: &[(CountryId, nagano_db::MedalCount)]| {
                rows.iter().find(|(id, _)| id == c).map(|&(_, m)| m)
            };
            tally(&before) != tally(&after)
        };
        // Only a page with a read no stamp covers — an athlete's, an
        // event's — or a country page whose tally moved has to be composed.
        // That is every page that was: no home page is, though all sixteen
        // splice the medal table the final moved, and the final's own day
        // its event's block and result table as well.
        let must_compose = |key: &&PageKey| match key {
            PageKey::Athlete(_) | PageKey::Event(_) => true,
            PageKey::Country(c) => moved(c),
            _ => false,
        };
        let regenerated = &outcome.regenerated;
        let composed = regenerated.len() - outcome.revalidated - outcome.patched;
        assert_eq!(
            composed,
            regenerated.iter().filter(must_compose).count(),
            "{outcome:?}"
        );
        let homes = regenerated.iter().filter(|k| matches!(k, PageKey::Home(_)));
        assert_eq!(homes.count(), 16, "{outcome:?}");
        // A country page whose tally did not move is answered by its
        // stamps: it splices nothing that moved, so it cannot be patched.
        let unmoved = regenerated.iter().filter(|k| match k {
            PageKey::Country(c) => !moved(c),
            _ => false,
        });
        let unmoved = unmoved.count();
        assert!(unmoved > 0 && outcome.revalidated >= unmoved, "{outcome:?}");
    }

    #[test]
    fn prewarm_leaves_no_page_memo_for_a_page_the_fleet_evicted() {
        // One shard, a few pages' worth: prewarm evicts most of what it
        // distributes.
        let small = CacheConfig::bounded(60_000, ReplacementPolicy::Lru).with_shards(1);
        let (db, monitor) = setup_on(small, ConsistencyPolicy::UpdateInPlace);
        let warmed = monitor.prewarm();
        let registry = PageRegistry::build(&db, 16);
        let cache = monitor.cache();
        let held = |key: PageKey| cache.peek(&key.to_url()).is_some();
        let (mut kept, mut evicted) = (0, 0);
        for &(key, _) in registry.pages() {
            assert_eq!(monitor.cache().has_memo(&key.to_url()), held(key), "{key}");
            kept += usize::from(held(key));
            evicted += usize::from(!held(key));
        }
        assert_eq!(kept + evicted, warmed);
        assert!(kept > 0 && evicted > 0, "{kept} kept, {evicted} evicted");
        let memos = registry
            .pages()
            .iter()
            .filter(|(k, _)| monitor.cache().has_memo(&k.to_url()));
        assert_eq!(memos.count(), kept);
    }

    #[test]
    fn update_in_place_regenerates_affected_pages() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let url = PageKey::Event(ev.id).to_url();
        let before = monitor.cache().peek(&url).unwrap();
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.process_txn(&txn);
        assert!(outcome.regenerated.contains(&PageKey::Event(ev.id)));
        assert!(outcome
            .regenerated
            .contains(&PageKey::Fragment(FragmentKey::ResultTable(ev.id))));
        assert!(outcome.regenerated.contains(&PageKey::Medals));
        assert!(outcome.regenerated.contains(&PageKey::Home(ev.day)));
        assert!(outcome.invalidated.is_empty());
        // Cache entry was replaced in place with new content, not dropped.
        let after = monitor.cache().peek(&url).unwrap();
        assert!(after.version > before.version);
        assert_ne!(after.body, before.body);
    }

    #[test]
    fn results_fan_out_to_athlete_and_country_pages() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let placements = podium(&db, ev.id);
        let txn = db.record_results(ev.id, &placements, true, ev.day);
        let outcome = monitor.process_txn(&txn);
        // Every placed athlete's page regenerates; so do their countries'.
        for (a, _) in &placements {
            assert!(
                outcome.regenerated.contains(&PageKey::Athlete(*a)),
                "athlete {a:?} not regenerated"
            );
        }
        let country = db.athlete(placements[0].0).unwrap().country;
        assert!(outcome.regenerated.contains(&PageKey::Country(country)));
        // The update affects tens of pages — the paper's "one typical
        // update ... affected 128 pages" effect at small scale.
        assert!(outcome.affected() >= 10, "affected {}", outcome.affected());
    }

    #[test]
    fn invalidate_policy_drops_pages() {
        let (db, monitor) = setup(ConsistencyPolicy::Invalidate);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let url = PageKey::Event(ev.id).to_url();
        assert!(monitor.cache().peek(&url).is_some());
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.process_txn(&txn);
        assert!(outcome.regenerated.is_empty());
        assert!(outcome.invalidated.contains(&PageKey::Event(ev.id)));
        assert!(monitor.cache().peek(&url).is_none());
    }

    #[test]
    fn changes_to_unknown_data_are_noops() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        // A photo nobody depends on yet.
        let txn = db.add_photo(nagano_db::Photo {
            id: nagano_db::PhotoId(999),
            day: 1,
            about_event: None,
            bytes: 1000,
        });
        let outcome = monitor.process_txn(&txn);
        assert_eq!(outcome.affected(), 0);
    }

    #[test]
    fn demand_fill_is_local_and_registers_deps() {
        let (db, monitor) = setup(ConsistencyPolicy::Invalidate);
        let key = PageKey::Event(db.events()[0].id);
        monitor.demand_fill(key);
        assert!(monitor.cache().peek(&key.to_url()).is_some());
        assert!(
            !monitor.cache().has_memo(&key.to_url()),
            "a fill keeps no memo"
        );
        let (nodes, edges) = monitor.graph_size();
        assert!(nodes >= 2 && edges >= 1);
    }

    #[test]
    fn demand_fill_reports_the_version_its_put_was_given() {
        // One shard that holds one page: whatever is put next evicts it.
        let one_page = CacheConfig::bounded(12_000, ReplacementPolicy::Lru).with_shards(1);
        let (_db, monitor) = setup_on(one_page, ConsistencyPolicy::Invalidate);
        let (medals, welcome) = (PageKey::Medals, PageKey::Welcome);
        assert_eq!(monitor.demand_fill(medals).version, 1);
        let fill = monitor.demand_fill(medals);
        assert_eq!(fill.version, 2, "a second fill updates the entry in place");
        // The put of another fill lands before anyone looks the first up:
        // a lookup now finds nothing to read a version from.
        monitor.demand_fill(welcome);
        let cache = monitor.cache();
        assert!(cache.peek(&medals.to_url()).is_none(), "evicted");
        assert_eq!(cache.peek(&welcome.to_url()).unwrap().version, 1);
        // The page's next entry counts on from the version it was evicted
        // at: no version names two representations.
        assert_eq!(monitor.demand_fill(medals).version, 3);
    }

    #[test]
    fn retired_pages_leave_the_graph_and_caches() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let key = PageKey::Event(ev.id);
        let (nodes_before, edges_before) = monitor.graph_size();
        assert!(monitor.retire_page(key));
        assert!(monitor.cache().peek(&key.to_url()).is_none());
        let (nodes_after, edges_after) = monitor.graph_size();
        assert_eq!(nodes_after, nodes_before - 1);
        assert!(edges_after < edges_before);
        // Future updates no longer regenerate the retired page.
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.process_txn(&txn);
        assert!(!outcome.regenerated.contains(&key));
        assert!(monitor.cache().peek(&key.to_url()).is_none());
        // Other affected pages still regenerate.
        assert!(outcome.regenerated.contains(&PageKey::Medals));
        // Retiring again (or an unknown page) reports false.
        assert!(!monitor.retire_page(key));
        // A retired page can come back via a demand fill, which re-links
        // its dependencies — every one of them, although the page renders
        // to the dependency list it was last registered with.
        monitor.demand_fill(key);
        assert!(monitor.cache().peek(&key.to_url()).is_some());
        assert_eq!(monitor.graph_size(), (nodes_before, edges_before));
        let txn = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
        let outcome = monitor.process_txn(&txn);
        assert!(
            outcome.regenerated.contains(&key),
            "re-registered after refill"
        );
    }

    #[test]
    fn a_retired_fragment_comes_back_for_the_pages_that_embed_it() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let before = monitor.graph_size();
        // The medal table is a hybrid vertex: retiring it also removes its
        // edge into every page that embeds it.
        let table = PageKey::Fragment(FragmentKey::MedalTable);
        assert!(monitor.retire_page(table));
        monitor.demand_fill(table);
        let ev = db.events()[0].clone();
        for page in [PageKey::Medals, PageKey::Home(ev.day)] {
            monitor.demand_fill(page);
        }
        assert_eq!(monitor.graph_size().0, before.0);
        // Every home page embeds the table; only two have been filled.
        assert!(monitor.graph_size().1 < before.1);
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.process_txn(&txn);
        assert!(outcome.regenerated.contains(&table));
        assert!(
            outcome.regenerated.contains(&PageKey::Medals),
            "the medals page depends on nothing but the fragment: its edge must be back"
        );
    }

    #[test]
    fn a_retired_fragments_embedders_register_it_again_at_their_next_mark() {
        use nagano_db::{Photo, PhotoId};
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let events = db.events();
        let ev = events[0].clone();
        let other = events.iter().find(|e| e.day != ev.day).unwrap().clone();
        let (table, home) = (
            PageKey::Fragment(FragmentKey::MedalTable),
            PageKey::Home(ev.day),
        );
        assert!(monitor.retire_page(table));
        monitor.demand_fill(table);
        // A photo of the day's event marks its home page and moves none of
        // its stamps: without its record, the page is left out of the one
        // pass, and registers every edge it reads, the medal table's among
        // them.
        let photo = db.add_photo(Photo {
            id: PhotoId(7_001),
            day: ev.day,
            about_event: Some(ev.id),
            bytes: 40_000,
        });
        let outcome = monitor.process_txn(&photo);
        assert!(outcome.regenerated.contains(&home), "{outcome:?}");
        // A final of another day reaches the page through the table alone.
        let txn = db.record_results(other.id, &podium(&db, other.id), true, other.day);
        let outcome = monitor.process_txn(&txn);
        assert!(
            outcome.regenerated.contains(&home),
            "the medal table's edge into the home page is back"
        );
    }

    /// A country page the first event's final marks and leaves as it was —
    /// one off its podium: the one pass answers it while its memo stands.
    fn unmoved_by_the_first_final(db: &OlympicDb) -> PageKey {
        let ev = db.events()[0].id;
        let placed: Vec<CountryId> = podium(db, ev)
            .iter()
            .map(|&(a, _)| db.athlete(a).unwrap().country)
            .collect();
        let countries = db.countries();
        let off = countries.iter().find(|c| !placed.contains(&c.id)).unwrap();
        PageKey::Country(off.id)
    }

    /// Process the first event's final, which marks `key`, on a cache that
    /// no longer holds the page as the monitor left it, and check that it
    /// then holds a fresh render of it.
    fn the_first_final_refreshes(db: &Arc<OlympicDb>, monitor: &TriggerMonitor, key: PageKey) {
        assert!(!monitor.remembers(key));
        let ev = db.events()[0].clone();
        let txn = db.record_results(ev.id, &podium(db, ev.id), true, ev.day);
        assert!(monitor.process_txn(&txn).regenerated.contains(&key));
        let fresh = Renderer::new(Arc::clone(db)).render(key).body;
        let held = monitor.cache().peek(&key.to_url()).map(|p| p.body);
        assert_eq!(held.as_ref(), Some(&fresh), "{key}");
    }

    #[test]
    fn a_page_filled_on_one_member_is_not_answered_from_its_memo() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let key = unmoved_by_the_first_final(&db);
        let other = Bytes::from_static(b"a fill of other bytes");
        monitor.cache().put(&key.to_url(), other);
        the_first_final_refreshes(&db, &monitor, key);
    }

    #[test]
    fn a_page_restored_on_one_member_is_not_answered_from_its_memo() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let key = unmoved_by_the_first_final(&db);
        // A copy of the very bytes held, put back: the memo was of the
        // allocation it replaced.
        let cache = monitor.cache();
        let held = cache.peek_body(&key.to_url()).unwrap();
        cache.put(&key.to_url(), Bytes::copy_from_slice(&held));
        the_first_final_refreshes(&db, &monitor, key);
    }

    #[test]
    fn an_invalidated_page_is_distributed_again_at_its_next_mark() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let key = unmoved_by_the_first_final(&db);
        assert!(monitor.cache().invalidate(&key.to_url()).is_some());
        the_first_final_refreshes(&db, &monitor, key);
        assert!(monitor.remembers(key));
    }

    #[test]
    fn a_page_evicted_by_a_distribution_is_distributed_again_at_its_next_mark() {
        // Room for the whole small site several times over: only the
        // oversized pages below evict.
        const BUDGET: u64 = 64 << 20;
        let bounded = CacheConfig::bounded(BUDGET, ReplacementPolicy::Lru);
        let (db, monitor) = setup_on(bounded, ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        assert!(monitor.remembers(unmoved_by_the_first_final(&db)));
        let key = unmoved_by_the_first_final(&db);
        let (url, cache) = (key.to_url(), monitor.cache());
        // A page of a shard's whole budget evicts every other page of its
        // shard: distribute such pages until one lands in the page's.
        let fill = Bytes::from(vec![0; (BUDGET / 16) as usize]);
        for n in 0.. {
            if cache.peek_body(&url).is_none() {
                break;
            }
            // Stories never filed: pages of the site the cache does not hold.
            cache.distribute_with(&format!("/news/{}", 1_500 + n), fill.clone(), None, None);
        }
        the_first_final_refreshes(&db, &monitor, key);
        assert!(monitor.remembers(key));
    }

    #[test]
    fn a_body_evicted_behind_the_monitors_back_is_freed() {
        const BUDGET: u64 = 64 << 20;
        let bounded = CacheConfig::bounded(BUDGET, ReplacementPolicy::Lru);
        let (db, monitor) = setup_on(bounded, ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let (url, cache) = (unmoved_by_the_first_final(&db).to_url(), monitor.cache());
        let evicted = cache.peek_body(&url).expect("prewarmed");
        // Oversized pages until one evicts it, as in the test above.
        let fill = Bytes::from(vec![0; (BUDGET / 16) as usize]);
        for n in (1_500..).take_while(|_| cache.peek_body(&url).is_some()) {
            cache.distribute_with(&format!("/news/{n}"), fill.clone(), None, None);
        }
        // The cache does not hold it, nor does a memo of it: only this.
        assert!(evicted.try_into_mut().is_ok(), "{url}: still held");
    }

    #[test]
    fn a_cleared_member_is_filled_again_at_the_next_mark() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let key = unmoved_by_the_first_final(&db);
        monitor.cache().clear();
        the_first_final_refreshes(&db, &monitor, key);
    }

    #[test]
    fn a_dependency_that_appears_between_regenerations_is_registered() {
        use nagano_db::{NewsArticle, NewsId, Photo, PhotoId};
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let index = PageKey::NewsIndex(ev.day);
        let strip = PageKey::Fragment(FragmentKey::Headlines(ev.day));
        let story = |day| NewsArticle {
            id: NewsId(7_000),
            day,
            title: format!("Filed on day {day}"),
            body: "…".into(),
            about_event: None,
        };
        // The story's first appearance: the day's pages regenerate through
        // their `data:today` edge and now list `data:news:7000` as well.
        let (_, edges_before) = monitor.graph_size();
        let outcome = monitor.process_txn(&db.publish_news(story(ev.day)));
        assert!(outcome.regenerated.contains(&index) && outcome.regenerated.contains(&strip));
        assert_eq!(monitor.graph_size().1, edges_before + 2);
        // Moved to another day, the story changes nothing of this day but
        // `data:news:7000`: only the new edges can mark these pages.
        let other_day = ev.day % 16 + 1;
        let outcome = monitor.process_txn(&db.publish_news(story(other_day)));
        assert!(outcome.regenerated.contains(&index), "news index edge");
        assert!(outcome.regenerated.contains(&strip), "headline strip edge");

        // Same for a photo: filed about the event it appears on the event
        // page, which from then on depends on the photo record itself.
        let page = PageKey::Event(ev.id);
        let photo = |about_event| Photo {
            id: PhotoId(7_000),
            day: ev.day,
            about_event,
            bytes: 40_000,
        };
        let outcome = monitor.process_txn(&db.add_photo(photo(Some(ev.id))));
        assert!(outcome.regenerated.contains(&page));
        let refiled = db.add_photo(photo(None));
        assert_eq!(refiled.changes.len(), 1, "only the photo record changes");
        let outcome = monitor.process_txn(&refiled);
        assert_eq!(outcome.regenerated, vec![page], "photo edge");
    }

    #[test]
    fn stats_accumulate_over_txns() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        for i in 0..3 {
            let txn = db.record_results(ev.id, &podium(&db, ev.id), i == 2, ev.day);
            monitor.process_txn(&txn);
        }
        let s = monitor.stats().snapshot();
        assert_eq!(s.txns, 3);
        assert!(s.pages_regenerated > 0);
        assert!(s.nodes_visited > 0);
    }

    #[test]
    fn batch_processing_coalesces_regeneration() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        // Three bursts of results for the same event.
        let txns: Vec<_> = (0..3)
            .map(|i| db.record_results(ev.id, &podium(&db, ev.id), i == 2, ev.day))
            .collect();
        let batch = monitor.process_batch(&txns);
        // One propagation: the event page appears exactly once.
        let event_count = batch
            .regenerated
            .iter()
            .filter(|&&k| k == PageKey::Event(ev.id))
            .count();
        assert_eq!(event_count, 1);
        assert_eq!(monitor.stats().snapshot().txns, 1, "one batched record");

        // Processing the same bursts individually regenerates at least as
        // many pages in total.
        let (db2, monitor2) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor2.prewarm();
        let ev2 = db2.events()[0].clone();
        let mut individual = 0;
        for i in 0..3 {
            let txn = db2.record_results(ev2.id, &podium(&db2, ev2.id), i == 2, ev2.day);
            individual += monitor2.process_txn(&txn).regenerated.len();
        }
        assert!(
            individual >= batch.regenerated.len(),
            "batch {} vs individual {individual}",
            batch.regenerated.len()
        );
        // Empty batch is a no-op.
        let empty: Vec<Arc<nagano_db::Transaction>> = Vec::new();
        assert_eq!(monitor.process_batch(&empty).affected(), 0);
    }

    #[test]
    fn watermark_tracks_the_highest_processed_txn() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        assert_eq!(monitor.watermark(), 0);
        let ev = db.events()[0].clone();
        let t1 = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
        let t2 = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        monitor.process_txn(&t1);
        assert_eq!(monitor.watermark(), t1.id.0);
        monitor.process_txn(&t2);
        assert_eq!(monitor.watermark(), t2.id.0);
        // Replaying an old transaction never regresses the watermark.
        monitor.process_txn(&t1);
        assert_eq!(monitor.watermark(), t2.id.0);
    }

    #[test]
    fn recover_replays_missed_txns_and_rewarms_the_fleet() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let url = PageKey::Event(ev.id).to_url();
        let before = monitor.cache().peek(&url).unwrap();
        // The monitor processes t1, then "crashes"; t2 and t3 commit
        // while it is down.
        let t1 = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
        monitor.process_txn(&t1);
        let after_t1 = monitor.cache().peek(&url).unwrap();
        let t2 = db.record_results(ev.id, &podium(&db, ev.id), false, ev.day);
        let t3 = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        // Restart: replay the log tail. t1 is at the watermark and must
        // be skipped; t2/t3 are processed as one batch.
        let missed = vec![t1, t2, t3];
        let outcome = monitor.recover(&missed);
        assert!(outcome.regenerated.contains(&PageKey::Event(ev.id)));
        let after = monitor.cache().peek(&url).unwrap();
        assert!(after.version > after_t1.version, "page rewarmed");
        assert!(after.version > before.version);
        assert_eq!(monitor.watermark(), missed[2].id.0);
        let s = monitor.stats().snapshot();
        assert_eq!(s.recoveries, 1);
        // t1's processing + one batched recovery record.
        assert_eq!(s.txns, 2);
        // Recovering with nothing new still counts (a clean restart).
        let outcome = monitor.recover(&missed);
        assert_eq!(outcome.affected(), 0);
        assert_eq!(monitor.stats().snapshot().recoveries, 2);
    }

    #[test]
    fn recover_under_invalidate_leaves_no_stale_entry() {
        let (db, monitor) = setup(ConsistencyPolicy::Invalidate);
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let url = PageKey::Event(ev.id).to_url();
        assert!(monitor.cache().peek(&url).is_some());
        // Commit while the monitor is down, then recover.
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.recover(&[txn]);
        assert!(outcome.invalidated.contains(&PageKey::Event(ev.id)));
        assert!(
            monitor.cache().peek(&url).is_none(),
            "stale page must not survive recovery"
        );
    }

    #[test]
    fn threshold_staleness_tolerates_soft_dependencies() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        // Tolerate anything accumulating less than 0.5: country pages'
        // medal-box dependency is weighted 0.25.
        monitor.set_staleness_policy(StalenessPolicy::Threshold(0.5));
        let ev = db.events()[0].clone();
        let txn = db.record_results(ev.id, &podium(&db, ev.id), true, ev.day);
        let outcome = monitor.process_txn(&txn);
        assert!(
            !outcome.tolerated.is_empty(),
            "some pages should be tolerated as slightly stale"
        );
        // Directly-hit pages still regenerate.
        assert!(outcome.regenerated.contains(&PageKey::Event(ev.id)));
        // Tolerated pages were *not* regenerated.
        for t in &outcome.tolerated {
            assert!(!outcome.regenerated.contains(t));
        }
    }

    #[test]
    fn two_placed_athletes_of_one_country_weigh_on_its_page_once() {
        let (db, monitor) = setup(ConsistencyPolicy::UpdateInPlace);
        monitor.prewarm();
        // Two finals with the same two athletes of one country on the
        // podium. The country page reads `data:country:C` at 1 and the
        // standings at 0.25: each final makes it 1.25 stale, whatever the
        // number of its athletes placed.
        let athletes = db.athletes();
        let placed = athletes
            .iter()
            .find_map(|a| {
                let mate = athletes
                    .iter()
                    .find(|b| b.country == a.country && b.id != a.id)?;
                Some([(a.id, 9.0), (mate.id, 8.0)])
            })
            .expect("two athletes of one country");
        let (first, second) = (db.events()[0].clone(), db.events()[1].clone());
        let country = PageKey::Country(db.athlete(placed[0].0).unwrap().country);

        monitor.set_staleness_policy(StalenessPolicy::Threshold(1.25));
        let txn = db.record_results(first.id, &placed, true, first.day);
        let outcome = monitor.process_txn(&txn);
        assert!(outcome.regenerated.contains(&country), "1.25 reaches 1.25");

        monitor.set_staleness_policy(StalenessPolicy::Threshold(1.25 + f64::EPSILON));
        let txn = db.record_results(second.id, &placed, true, second.day);
        let outcome = monitor.process_txn(&txn);
        assert!(outcome.tolerated.contains(&country), "and no further");
        assert!(!outcome.regenerated.contains(&country));
    }
}
