//! The sharded concurrent page cache.
//!
//! Keys are page identities (URL paths); values are immutable rendered
//! bodies ([`bytes::Bytes`], so distributing a page to eight serving caches
//! shares one allocation). The caches of a fleet are the columns of one
//! sharded table: a row per page with a cell per member, and beside a
//! shard's rows each member's own eviction queue, byte count, tombstones
//! and flights. A [`PageCache`] is one column of a table — a standalone
//! cache the only column of its own — so a lookup takes one shard lock and
//! probes one map, and so does a distribution to every member
//! ([`crate::CacheFleet::distribute`]). The lock per shard is a
//! `sync::Mutex`; a table has [`CacheConfig::shards`] of them per
//! member, and with the default 16 and short critical sections contention
//! is negligible next to page generation costs.
//!
//! A bounded cache evicts the least recently used entry. Each member and
//! shard keeps a queue of touches, oldest first: every write and every
//! hit pushes a `(stamp, key)` record at the back, eviction pops from the
//! front, and a record whose stamp its entry no longer carries is skipped.
//! Stamps come from a counter that only grows, so the queue is in
//! eviction order without being sorted. An unbounded cache keeps no queue.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nagano_telemetry::sync::{Condvar, Mutex};
use rustc_hash::{FxHashMap, FxHasher};

use crate::policy::ReplacementPolicy;
use crate::stats::{CacheStats, StatsSnapshot};

/// Retention policy for stale copies: evicted or invalidated bodies are
/// kept as *tombstones* so the serving path can fall back to a bounded-age
/// stale copy when regeneration is slow or the backend is down
/// (serve-stale-on-error / stale-while-revalidate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalePolicy {
    /// Maximum age, in seconds of cache-clock time (see
    /// [`PageCache::set_now_secs`]), a stale copy may still be served.
    pub max_age_secs: f64,
}

impl StalePolicy {
    /// Keep stale copies servable for up to `max_age_secs`.
    pub fn bounded(max_age_secs: f64) -> Self {
        StalePolicy { max_age_secs }
    }
}

/// Configuration for a [`PageCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of shards per cache (min 1; a table's count — this times
    /// its members — is rounded up to a power of two).
    pub shards: usize,
    /// One cache's total byte budget across all shards; `None` =
    /// unbounded (the paper's production configuration). A bounded cache
    /// evicts the least recently used entry.
    pub max_bytes: Option<u64>,
    /// When set, evicted/invalidated bodies become servable stale
    /// tombstones; `None` (the default) drops them outright.
    pub stale: Option<StalePolicy>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            max_bytes: None,
            stale: None,
        }
    }
}

impl CacheConfig {
    /// Unbounded cache with `n` shards.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Bounded cache with the given budget. It evicts the least recently
    /// used entry: LRU is the one [`ReplacementPolicy`].
    pub fn bounded(max_bytes: u64, _: ReplacementPolicy) -> Self {
        CacheConfig {
            max_bytes: Some(max_bytes),
            ..Self::default()
        }
    }

    /// Override the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Keep evicted/invalidated bodies as stale tombstones under `policy`.
    pub fn with_stale(mut self, policy: StalePolicy) -> Self {
        self.stale = Some(policy);
        self
    }
}

/// Whether two buffers are one allocation.
fn same_allocation(a: &Bytes, b: &Bytes) -> bool {
    a.as_ptr() == b.as_ptr() && a.len() == b.len()
}

/// Byte equality, by address before content: a regeneration that changed
/// nothing hands back the very allocation the fleet holds.
fn same_bytes(a: &Bytes, b: &Bytes) -> bool {
    a.len() == b.len() && (a.as_ptr() == b.as_ptr() || a[..] == b[..])
}

/// A successful cache lookup.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// The rendered page body.
    pub body: Bytes,
    /// Monotonic per-entry version: 1 on insert, +1 whenever the body is
    /// replaced. A distribution of byte-equal content replaces nothing
    /// ([`crate::CacheFleet::distribute`]), so on an update-in-place site
    /// the version — the HTTP `ETag` — changes iff the bytes change. A
    /// node-local [`PageCache::put`] is always a new version.
    pub version: u64,
}

/// A stale copy served in place of a fresh body.
#[derive(Debug, Clone)]
pub struct StaleCopy {
    /// The last body the entry held before eviction/invalidation.
    pub body: Bytes,
    /// The version that body carried.
    pub version: u64,
    /// Stale epoch: increments every time the key goes live → stale, so
    /// single-flight can pin "one regeneration per (key, stale-epoch)".
    pub epoch: u64,
    /// Seconds of cache-clock time the copy has been stale.
    pub age_secs: f64,
}

/// One in-flight regeneration that concurrent misses coalesce onto.
#[derive(Debug, Default)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct FlightState {
    done: bool,
    result: Option<CachedPage>,
}

/// Leader-side handle for an in-flight regeneration. The holder must
/// finish with [`PageCache::complete_flight`] (passing `None` on failure)
/// so followers wake; a token that is merely dropped leaves followers to
/// their deadline, after which one of them takes the flight over.
#[derive(Debug)]
pub struct FlightToken {
    key: Arc<str>,
    flight: Arc<Flight>,
}

/// Outcome of [`PageCache::join_or_lead`] for a missed key.
#[derive(Debug)]
pub enum FlightOutcome {
    /// No regeneration was in flight: the caller is now the leader and
    /// must regenerate, then call [`PageCache::complete_flight`].
    Lead(FlightToken),
    /// Another caller's regeneration completed while we waited.
    Joined(CachedPage),
    /// The wait deadline expired (or the leader failed) with no result.
    TimedOut,
}

#[derive(Debug)]
struct StaleEntry {
    body: Bytes,
    version: u64,
    epoch: u64,
    since_us: u64,
}

/// One member's copy of a page: a cell of the page's [`Row`].
#[derive(Debug)]
struct Entry {
    body: Bytes,
    version: u64,
    cost: f64,
    /// Hits since the last [`PageCache::drain_window_hits`] call — the raw
    /// input to the fleet-level EWMA hotness tracker.
    window_hits: u64,
    /// Identity of the entry's newest touch record, drawn from its
    /// column's monotonic tick so stale records — including ones
    /// surviving from a previous incarnation of the same key — never
    /// match.
    stamp: u64,
}

impl Entry {
    fn page(&self) -> CachedPage {
        CachedPage {
            body: self.body.clone(),
            version: self.version,
        }
    }
}

/// One page across the fleet: a cell per member, side by side, so that
/// what a distribution finds on every member is read off one map probe. A
/// row lives as long as one of its cells is filled.
struct Row {
    /// The map's own key, at hand for an eviction record or a dirty mark.
    key: Arc<str>,
    cells: Box<[Option<Entry>]>,
}

impl Row {
    fn is_empty(&self) -> bool {
        self.cells.iter().all(Option::is_none)
    }
}

type Rows = FxHashMap<Arc<str>, Row>;

/// Stale records a column's touch queue may hold beyond twice its
/// entries before [`Column::trim`] drops them.
const TOUCH_SLACK: usize = 16;

/// One member's state in one shard, beside the rows its cells are in.
#[derive(Default)]
struct Column {
    /// A bounded member's touches, `(stamp, key)`, oldest first: the
    /// front is the next eviction candidate unless its stamp is stale.
    touches: VecDeque<(u64, Arc<str>)>,
    tick: u64,
    bytes: u64,
    /// The member's entries in this shard.
    entries: usize,
    /// Keys whose `window_hits` went 0 → nonzero since the last drain, so
    /// draining walks only touched entries rather than the whole map.
    dirty: Vec<Arc<str>>,
    /// Tombstoned stale copies (only populated under a [`StalePolicy`]).
    /// Not charged against the byte budget: bodies are refcounted views
    /// and the store is bounded by the policy's max age via pruning.
    stale: FxHashMap<Arc<str>, StaleEntry>,
    /// Count of live → stale transitions per key. Kept separately from
    /// `stale` so the epoch survives a fresh body superseding (and
    /// removing) the tombstone — single-flight pins "one regeneration per
    /// (key, stale-epoch)" against this counter.
    stale_epochs: FxHashMap<Arc<str>, u64>,
    /// In-flight single-flight regenerations keyed by page.
    flights: FxHashMap<Arc<str>, Arc<Flight>>,
}

impl Column {
    /// Move a removed entry's body into the stale tombstone store,
    /// bumping the key's stale epoch.
    fn tombstone(&mut self, key: &str, body: Bytes, version: u64, now_us: u64) {
        let k: Arc<str> = match self.stale_epochs.get_key_value(key) {
            Some((k, _)) => Arc::clone(k),
            None => Arc::from(key),
        };
        let epoch = {
            let e = self.stale_epochs.entry(Arc::clone(&k)).or_insert(0);
            *e += 1;
            *e
        };
        self.stale.insert(
            k,
            StaleEntry {
                body,
                version,
                epoch,
                since_us: now_us,
            },
        );
    }

    /// Stamp `entry` with the next tick and push its touch at the back.
    fn touch(&mut self, key: &Arc<str>, entry: &mut Entry) {
        self.tick += 1;
        entry.stamp = self.tick;
        self.touches.push_back((self.tick, Arc::clone(key)));
    }

    /// Drop the stale records once they outnumber the live ones by more
    /// than [`TOUCH_SLACK`], so a member whose pages fit does not grow
    /// its queue with every hit. Order is kept; what is left is one
    /// record per entry (`c` is this column's index in a row's cells).
    fn trim(&mut self, rows: &Rows, c: usize) {
        if self.touches.len() > 2 * self.entries + TOUCH_SLACK {
            self.touches.retain(|(stamp, key)| {
                let cell = rows.get(key).and_then(|row| row.cells[c].as_ref());
                cell.is_some_and(|e| e.stamp == *stamp)
            });
        }
    }
}

struct Shard {
    rows: Rows,
    /// Indexed like a row's cells.
    columns: Box<[Column]>,
}

impl Shard {
    /// Pop column `c`'s least recently used entries until its
    /// `bytes <= budget` or only `protect` is left.
    ///
    /// `protect` is the entry that triggered the eviction, the page just
    /// written: a put never evicts it, so an entry larger than the budget
    /// stays until the next put. Its record is the queue's last.
    /// With `stale_now` set (a [`StalePolicy`] is active, value = current
    /// cache-clock micros), victims are tombstoned instead of dropped.
    fn evict_to(
        &mut self,
        c: usize,
        budget: u64,
        stats: &CacheStats,
        protect: &str,
        stale_now: Option<u64>,
        let_go: &LetGo,
    ) {
        let column = &mut self.columns[c];
        while column.bytes > budget {
            let Some((stamp, key)) = column.touches.pop_front() else {
                break;
            };
            let Some(row) = self.rows.get_mut(&key) else {
                continue; // stale record
            };
            let cell = &mut row.cells[c];
            if *key == *protect && cell.as_ref().is_some_and(|e| e.stamp == stamp) {
                column.touches.push_front((stamp, key));
                break;
            }
            let Some(e) = cell.take_if(|e| e.stamp == stamp) else {
                continue; // stale record
            };
            if row.is_empty() {
                self.rows.remove(&key);
            }
            let size = e.body.len() as u64;
            column.bytes -= size;
            column.entries -= 1;
            stats.evict(size);
            let_go.note();
            if let Some(now_us) = stale_now {
                column.tombstone(&key, e.body, e.version, now_us);
            }
        }
        column.trim(&self.rows, c);
    }
}

/// How a body comes to a member ([`Table::place`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Put {
    /// By a fleet distribution: a member that holds these bytes already
    /// keeps its entry as it is — allocation, version, cost, recency,
    /// statistics.
    Distributed,
    /// By a fill of that member alone: always a new version.
    Local,
    /// From a peer, at the peer's version.
    Restored(u64),
}

/// What a member has of its own outside the shards.
#[derive(Default)]
struct Member {
    /// Cache-clock time in microseconds, advanced by the owner via
    /// [`PageCache::set_now_secs`]; stale ages are measured against it.
    /// Simulations feed it sim time, real deployments wall time — the
    /// cache itself never reads a clock (determinism contract, DESIGN §10).
    now_us: AtomicU64,
    stats: Arc<CacheStats>,
}

/// The store behind a fleet's caches: one sharded map from page key to
/// [`Row`], a column per member. A shard's lock covers its rows and every
/// member's [`Column`] beside them, so whatever is done to one key — on
/// one member or on all of them — is done under one lock, and a reader of
/// any member sees a distribution either whole or not at all.
pub(crate) struct Table {
    shards: Box<[Mutex<Shard>]>,
    mask: usize,
    /// A member's byte budget for its column of one shard; `None` for
    /// an unbounded table, which keeps no touch queue.
    per_shard_budget: Option<u64>,
    stale: Option<StalePolicy>,
    members: Box<[Member]>,
    let_go: LetGo,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("shards", &self.shards.len())
            .field("members", &self.members.len())
            .field("per_shard_budget", &self.per_shard_budget)
            .finish()
    }
}

impl Table {
    /// A table for `members` caches of `config` each. It has
    /// `config.shards` locks per member — what that many caches of their
    /// own would have between them — and splits each member's byte budget
    /// evenly over them.
    pub(crate) fn new(config: &CacheConfig, members: usize) -> Arc<Self> {
        let n = (config.shards.max(1) * members).next_power_of_two();
        let shard = || Shard {
            rows: Rows::default(),
            columns: (0..members).map(|_| Column::default()).collect(),
        };
        Arc::new(Table {
            shards: (0..n).map(|_| Mutex::new(shard())).collect(),
            mask: n - 1,
            per_shard_budget: config.max_bytes.map(|b| b / n as u64),
            stale: config.stale,
            members: (0..members).map(|_| Member::default()).collect(),
            let_go: LetGo::default(),
        })
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Member `c`'s cache-clock micros when a stale policy is active.
    fn stale_now(&self, c: usize) -> Option<u64> {
        self.stale.map(|_| self.members[c].now_us.load(Relaxed))
    }

    /// Put `body` under `key` on each member in `columns`, under one lock
    /// and off one probe. Returns whether any entry was written, and the
    /// version the last of those members has the page at.
    ///
    /// Cells written one after the other share what can be shared. The
    /// body: a member asked to keep an allocation other than the one
    /// passed in hands its own on, so a cell that is then written joins
    /// the allocation its neighbours hold. The comparison: cells as a rule
    /// hold one allocation, and the one a cell was just found to differ
    /// in is not compared again.
    pub(crate) fn place(
        &self,
        key: &str,
        mut body: Bytes,
        cost: f64,
        columns: Range<usize>,
        how: Put,
    ) -> (bool, u64) {
        let size = body.len() as u64;
        // Declared before the lock is taken, so that the body this holds
        // last is freed after the lock is released.
        let mut replaced: Option<Bytes> = None;
        let mut shard = self.shard_for(key).lock();
        let Shard {
            rows,
            columns: state,
        } = &mut *shard;
        let row = match rows.get_mut(key) {
            Some(row) => row,
            None => {
                let k: Arc<str> = Arc::from(key);
                rows.entry(Arc::clone(&k)).or_insert(Row {
                    key: k,
                    cells: (0..self.members.len()).map(|_| None).collect(),
                })
            }
        };
        let mut version = 0;
        // Only a bounded table evicts, and only there is this filled.
        let mut written: Vec<usize> = Vec::new();
        let mut changed = false;
        for c in columns {
            let cell = &mut row.cells[c];
            if let Some(e) = cell.as_ref().filter(|_| how == Put::Distributed) {
                let differs = replaced
                    .as_ref()
                    .is_some_and(|r| same_allocation(r, &e.body));
                if !differs && same_bytes(&e.body, &body) {
                    if !same_allocation(&e.body, &body) {
                        body = e.body.clone();
                    }
                    version = e.version;
                    continue;
                }
            }
            let member = &self.members[c];
            let column = &mut state[c];
            version = match how {
                Put::Restored(version) => version,
                _ => cell.as_ref().map_or(0, |e| e.version) + 1,
            };
            let e = match cell {
                Some(e) => {
                    let old = std::mem::replace(&mut e.body, body.clone());
                    e.version = version;
                    e.cost = cost;
                    column.bytes = column.bytes - old.len() as u64 + size;
                    member.stats.update(old.len() as u64, size);
                    replaced = Some(old);
                    e
                }
                None => {
                    column.bytes += size;
                    column.entries += 1;
                    member.stats.insert(size);
                    cell.insert(Entry {
                        body: body.clone(),
                        version,
                        cost,
                        window_hits: 0,
                        stamp: 0,
                    })
                }
            };
            if self.per_shard_budget.is_some() {
                column.touch(&row.key, e);
                written.push(c);
            }
            // A fresh body supersedes any tombstoned stale copy of the key.
            if self.stale.is_some() {
                column.stale.remove(key);
            }
            changed = true;
        }
        if how != Put::Distributed {
            self.let_go.note();
        }
        if let Some(budget) = self.per_shard_budget {
            for c in written {
                let stats = &self.members[c].stats;
                let now = self.stale_now(c);
                shard.evict_to(c, budget, stats, key, now, &self.let_go);
            }
        }
        (changed, version)
    }

    /// The first member's body for `key`, and whether every member holds
    /// that very allocation: one probe of the page's row, counting and
    /// touching nothing.
    pub(crate) fn distributed(&self, key: &str) -> Option<(Bytes, bool)> {
        let shard = self.shard_for(key).lock();
        let row = shard.rows.get(key)?;
        let first = &row.cells[0].as_ref()?.body;
        let held = |cell: &Option<Entry>| {
            cell.as_ref()
                .is_some_and(|e| same_allocation(&e.body, first))
        };
        Some((first.clone(), row.cells.iter().all(held)))
    }

    /// Remove `key` from each member in `columns`; returns how many held
    /// it. Under a [`StalePolicy`] a removed body is kept as that member's
    /// servable tombstone.
    pub(crate) fn invalidate(&self, key: &str, columns: Range<usize>) -> usize {
        let mut shard = self.shard_for(key).lock();
        let Shard {
            rows,
            columns: state,
        } = &mut *shard;
        let Some(row) = rows.get_mut(key) else {
            return 0;
        };
        let mut held = 0;
        for c in columns {
            if let Some(e) = row.cells[c].take() {
                let size = e.body.len() as u64;
                state[c].bytes -= size;
                state[c].entries -= 1;
                self.members[c].stats.invalidate(size);
                if let Some(now_us) = self.stale_now(c) {
                    state[c].tombstone(key, e.body, e.version, now_us);
                }
                held += 1;
            }
        }
        if held > 0 {
            self.let_go.note();
        }
        if row.is_empty() {
            rows.remove(key);
        }
        held
    }

    /// Whether every member holds, of every page it holds, the body the
    /// last distribution gave it, and every page distributed since it was
    /// built: see [`LetGo`].
    pub(crate) fn undisturbed(&self) -> bool {
        !self.let_go.0.load(Relaxed)
    }
}

/// Set for good the first time a member lets a page go — invalidated,
/// evicted, cleared — or is given bytes for one outside a distribution: a
/// local fill or a restore. Until then every member holds every page
/// distributed to it as the bytes distributed last, so a distributor that
/// remembers those need not ask the fleet ([`crate::CacheFleet::undisturbed`]).
#[derive(Default)]
struct LetGo(AtomicBool);

impl LetGo {
    /// Read before it is written, so that a bounded fleet's misses do not
    /// each write a line every core reads. `Relaxed`: it publishes nothing
    /// — a distributor that finds it set asks the fleet, under its locks —
    /// and a note racing a regeneration may go unseen by it, as a local
    /// fill racing one always could land after its probe.
    fn note(&self) {
        if !self.0.load(Relaxed) {
            self.0.store(true, Relaxed);
        }
    }
}

/// A concurrent cache of rendered pages.
///
/// ```
/// use bytes::Bytes;
/// use nagano_cache::PageCache;
///
/// let cache = PageCache::default();
/// cache.put("/medals", Bytes::from_static(b"<html>v1</html>"), 150.0);
/// assert_eq!(cache.get("/medals").unwrap().version, 1);
///
/// // The trigger monitor updates stale pages *in place*: the entry is
/// // replaced, never missing, and its version bumps (the HTTP ETag).
/// cache.put("/medals", Bytes::from_static(b"<html>v2</html>"), 150.0);
/// let page = cache.get("/medals").unwrap();
/// assert_eq!(&page.body[..], b"<html>v2</html>");
/// assert_eq!(page.version, 2);
/// assert_eq!(cache.stats().misses, 0);
/// ```
pub struct PageCache {
    table: Arc<Table>,
    /// Which of the table's members this is.
    column: usize,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("shards", &self.table.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl Default for PageCache {
    fn default() -> Self {
        PageCache::new(CacheConfig::default())
    }
}

impl PageCache {
    /// Create a cache from `config`: the one member of a table of its own.
    pub fn new(config: CacheConfig) -> Self {
        Self::member_of(Table::new(&config, 1), 0)
    }

    /// Member `column` of `table`.
    pub(crate) fn member_of(table: Arc<Table>, column: usize) -> Self {
        PageCache { table, column }
    }

    fn member(&self) -> &Member {
        &self.table.members[self.column]
    }

    /// Run `f` on `key`'s shard: its rows and this member's column.
    fn with_shard<T>(&self, key: &str, f: impl FnOnce(&mut Rows, &mut Column) -> T) -> T {
        let mut shard = self.table.shard_for(key).lock();
        let Shard { rows, columns } = &mut *shard;
        f(rows, &mut columns[self.column])
    }

    /// Run `f` on every shard in index order, as [`PageCache::with_shard`]
    /// does on one.
    fn for_each_shard(&self, mut f: impl FnMut(&mut Rows, &mut Column)) {
        for s in self.table.shards.iter() {
            let mut shard = s.lock();
            let Shard { rows, columns } = &mut *shard;
            f(rows, &mut columns[self.column]);
        }
    }

    /// Run `f` on this member's entry for `key`, if it has one.
    fn with_entry<T>(&self, key: &str, f: impl FnOnce(&Entry) -> T) -> Option<T> {
        let shard = self.table.shard_for(key).lock();
        let entry = shard.rows.get(key)?.cells[self.column].as_ref()?;
        Some(f(entry))
    }

    /// Advance the cache clock (monotonic micros derived from `secs`).
    /// Stale-copy ages are measured against this clock, so the owner
    /// decides what "time" means — sim time in the cluster simulation.
    pub fn set_now_secs(&self, secs: f64) {
        let us = (secs.max(0.0) * 1e6) as u64;
        self.member().now_us.fetch_max(us, Relaxed);
    }

    fn now_us(&self) -> u64 {
        self.member().now_us.load(Relaxed)
    }

    /// Shared handle to the statistics block.
    pub fn stats_handle(&self) -> Arc<CacheStats> {
        Arc::clone(&self.member().stats)
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.member().stats.snapshot()
    }

    /// Look up `key`, recording a hit or miss and touching recency state.
    pub fn get(&self, key: &str) -> Option<CachedPage> {
        let bounded = self.table.per_shard_budget.is_some();
        let page = self.with_shard(key, |rows, column| {
            let row = rows.get_mut(key)?;
            let e = row.cells[self.column].as_mut()?;
            if e.window_hits == 0 {
                column.dirty.push(Arc::clone(&row.key));
            }
            e.window_hits += 1;
            let page = e.page();
            // Recency orders a bounded member's eviction queue and nothing
            // else: a hit on an unbounded one writes none.
            if bounded {
                column.touch(&row.key, e);
                column.trim(rows, self.column);
            }
            Some(page)
        });
        match page {
            Some(_) => self.member().stats.hit(),
            None => self.member().stats.miss(),
        }
        page
    }

    /// Look up without counting a hit/miss or touching recency — used by
    /// the trigger monitor to inspect state without skewing measurements.
    pub fn peek(&self, key: &str) -> Option<CachedPage> {
        self.with_entry(key, Entry::page)
    }

    /// Look up `key`'s body alone, like [`PageCache::peek`] counting and
    /// touching nothing.
    pub fn peek_body(&self, key: &str) -> Option<Bytes> {
        self.with_entry(key, |e| e.body.clone())
    }

    /// Insert or update-in-place. Returns the entry's new version (1 for a
    /// fresh insert). `cost` is the page's generation cost in milliseconds,
    /// kept with the entry and handed on by [`PageCache::export_entries`].
    pub fn put(&self, key: &str, body: Bytes, cost: f64) -> u64 {
        let only = self.column..self.column + 1;
        self.table.place(key, body, cost, only, Put::Local).1
    }

    /// Remove `key`; returns whether it was present. Under a
    /// [`StalePolicy`] the removed body is kept as a servable tombstone.
    pub fn invalidate(&self, key: &str) -> bool {
        let only = self.column..self.column + 1;
        self.table.invalidate(key, only) == 1
    }

    /// Whether `key` is cached.
    pub fn contains(&self, key: &str) -> bool {
        self.with_entry(key, |_| ()).is_some()
    }

    /// This member's entries, shard by shard, each in its shard's map
    /// order, as `f` sees them.
    fn collect_entries<T>(&self, mut f: impl FnMut(&Arc<str>, &Entry) -> T) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_shard(|rows, _| {
            for (k, row) in rows.iter() {
                if let Some(e) = &row.cells[self.column] {
                    out.push(f(k, e));
                }
            }
        });
        out
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.collect_entries(|_, _| ()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows of the table this cache is a column of: the pages that this
    /// member or another of its fleet holds (for diagnostics).
    pub fn rows(&self) -> usize {
        let mut total = 0;
        self.for_each_shard(|rows, _| total += rows.len());
        total
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        let mut total = 0;
        self.for_each_shard(|_, column| total += column.bytes);
        total
    }

    /// Drop every entry (counted as invalidations). This is a *cold*
    /// restart: stale tombstones and in-flight regenerations are wiped
    /// too, so a crashed shard recovers with nothing to serve stale from.
    pub fn clear(&self) {
        let stats = &self.member().stats;
        self.for_each_shard(|rows, column| {
            rows.retain(|_, row| {
                if let Some(e) = row.cells[self.column].take() {
                    let size = e.body.len() as u64;
                    column.bytes -= size;
                    column.entries -= 1;
                    stats.invalidate(size);
                    self.table.let_go.note();
                }
                !row.is_empty()
            });
            column.touches.clear();
            column.stale.clear();
            column.stale_epochs.clear();
            column.flights.clear();
        });
    }

    /// All cached keys (for diagnostics; takes each shard lock in turn).
    pub fn keys(&self) -> Vec<String> {
        self.collect_entries(|k, _| k.to_string())
    }

    /// Export every entry: `(key, body, cost, version)`. Bodies are
    /// refcounted views, so exporting is cheap. Used to resynchronise a
    /// recovered serving node from a healthy peer.
    pub fn export_entries(&self) -> Vec<(String, Bytes, f64, u64)> {
        self.collect_entries(|k, e| (k.to_string(), e.body.clone(), e.cost, e.version))
    }

    /// Collect and reset per-entry hit counts accumulated since the last
    /// drain: `(key, hits)` for every entry touched in the window. Walks
    /// only the per-shard dirty lists, so cost is proportional to the
    /// number of *distinct* pages hit, not the cache size. Keys evicted or
    /// invalidated since they were hit are silently dropped (their window
    /// counts die with the entry). Order is deterministic: shards in index
    /// order, keys in first-hit order within a shard.
    pub fn drain_window_hits(&self) -> Vec<(Arc<str>, u64)> {
        let mut out = Vec::new();
        self.for_each_shard(|rows, column| {
            for key in std::mem::take(&mut column.dirty) {
                let cell = rows
                    .get_mut(&key)
                    .and_then(|row| row.cells[self.column].as_mut());
                if let Some(e) = cell.filter(|e| e.window_hits > 0) {
                    out.push((key, std::mem::take(&mut e.window_hits)));
                }
            }
        });
        out
    }

    /// Restore an entry with an explicit version (peer resync). Unlike
    /// [`PageCache::put`], the version is copied rather than bumped, so a
    /// resynced node agrees with its peers' entity tags. Counted as an
    /// insert or update in the statistics.
    pub fn restore_entry(&self, key: &str, body: Bytes, cost: f64, version: u64) {
        let only = self.column..self.column + 1;
        self.table
            .place(key, body, cost, only, Put::Restored(version));
    }

    // ---- stale tombstones -------------------------------------------------

    /// Serve the tombstoned stale copy of `key`, if one exists within the
    /// policy's age bound. Counts a stale serve; an over-age copy is
    /// pruned and `None` returned. Without a [`StalePolicy`] this is
    /// always `None`.
    pub fn serve_stale(&self, key: &str) -> Option<StaleCopy> {
        let copy = self.lookup_stale(key, true)?;
        self.member().stats.stale_serve();
        Some(copy)
    }

    /// Like [`PageCache::serve_stale`] but without counting a stale serve
    /// — used to *check* fallback coverage without skewing measurements.
    pub fn peek_stale(&self, key: &str) -> Option<StaleCopy> {
        self.lookup_stale(key, false)
    }

    fn lookup_stale(&self, key: &str, prune_expired: bool) -> Option<StaleCopy> {
        let policy = self.table.stale?;
        let now_us = self.now_us();
        self.with_shard(key, |_, column| {
            let e = column.stale.get(key)?;
            let age_secs = now_us.saturating_sub(e.since_us) as f64 / 1e6;
            if age_secs > policy.max_age_secs {
                if prune_expired {
                    column.stale.remove(key);
                }
                return None;
            }
            Some(StaleCopy {
                body: e.body.clone(),
                version: e.version,
                epoch: e.epoch,
                age_secs,
            })
        })
    }

    /// The key's current stale epoch: 0 while it has never been
    /// tombstoned, otherwise the number of live → stale transitions.
    /// Single-flight regeneration is pinned to "exactly one per
    /// (key, stale-epoch)" by the resilience property tests.
    pub fn stale_epoch(&self, key: &str) -> u64 {
        self.with_shard(key, |_, column| column.stale_epochs.get(key).copied())
            .unwrap_or(0)
    }

    /// Number of tombstoned stale copies currently held.
    pub fn stale_len(&self) -> usize {
        let mut total = 0;
        self.for_each_shard(|_, column| total += column.stale.len());
        total
    }

    /// Drop every tombstone older than the policy's age bound. Called by
    /// the owner's heartbeat so dead keys do not accumulate.
    pub fn prune_stale(&self) {
        let Some(policy) = self.table.stale else {
            return;
        };
        let horizon_us = (policy.max_age_secs * 1e6) as u64;
        let now_us = self.now_us();
        self.for_each_shard(|_, column| {
            column
                .stale
                .retain(|_, e| now_us.saturating_sub(e.since_us) <= horizon_us);
        });
    }

    // ---- single-flight regeneration ---------------------------------------

    /// Coalesce a miss for `key` onto any in-flight regeneration.
    ///
    /// The first caller becomes the *leader* ([`FlightOutcome::Lead`]) and
    /// must regenerate, then call [`PageCache::complete_flight`]. Callers
    /// arriving while the flight is open are *followers*: they count one
    /// coalesced miss, block up to `deadline`, and either observe the
    /// leader's result ([`FlightOutcome::Joined`]) or give up
    /// ([`FlightOutcome::TimedOut`] — typically falling back to
    /// [`PageCache::serve_stale`]). A follower whose wait expires while
    /// the flight is still open removes the (presumed dead) flight so the
    /// next miss can lead again.
    pub fn join_or_lead(&self, key: &str, deadline: Duration) -> FlightOutcome {
        let joined = self.with_shard(key, |_, column| match column.flights.get(key) {
            Some(f) => Ok(Arc::clone(f)),
            None => {
                let k: Arc<str> = Arc::from(key);
                let f = Arc::new(Flight::default());
                column.flights.insert(Arc::clone(&k), Arc::clone(&f));
                Err(FlightToken { key: k, flight: f })
            }
        });
        let flight = match joined {
            Ok(flight) => flight,
            Err(token) => return FlightOutcome::Lead(token),
        };
        self.member().stats.coalesce();
        let (state, waited) = flight
            .cv
            .wait_timeout_while(flight.state.lock(), deadline, |s| !s.done);
        if state.done {
            match &state.result {
                Some(page) => FlightOutcome::Joined(page.clone()),
                None => FlightOutcome::TimedOut, // leader failed
            }
        } else {
            drop(state);
            if waited.timed_out() {
                // Presume the leader dead: clear the flight (if it is
                // still the same one) so the next miss can lead.
                self.retire_flight(key, &flight);
            }
            FlightOutcome::TimedOut
        }
    }

    /// Finish a flight: publish `page` (or `None` on regeneration
    /// failure) to every waiting follower and retire the flight. The
    /// leader is responsible for having inserted the fresh body with
    /// [`PageCache::put`] before completing.
    pub fn complete_flight(&self, token: FlightToken, page: Option<CachedPage>) {
        {
            let mut state = token.flight.state.lock();
            state.done = true;
            state.result = page;
        }
        token.flight.cv.notify_all();
        self.retire_flight(&token.key, &token.flight);
    }

    /// Take `flight` off `key`, unless another has taken its place.
    fn retire_flight(&self, key: &str, flight: &Arc<Flight>) {
        self.with_shard(key, |_, column| {
            if column
                .flights
                .get(key)
                .is_some_and(|f| Arc::ptr_eq(f, flight))
            {
                column.flights.remove(key);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_telemetry::sync::blocking;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = PageCache::default();
        assert!(c.get("/home").is_none());
        let v = c.put("/home", body("<html>day 1</html>"), 50.0);
        assert_eq!(v, 1);
        let page = c.get("/home").unwrap();
        assert_eq!(&page.body[..], b"<html>day 1</html>");
        assert_eq!(page.version, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn update_in_place_bumps_version() {
        let c = PageCache::default();
        c.put("/medals", body("gold: 0"), 10.0);
        let v2 = c.put("/medals", body("gold: 1"), 10.0);
        assert_eq!(v2, 2);
        let page = c.get("/medals").unwrap();
        assert_eq!(&page.body[..], b"gold: 1");
        assert_eq!(page.version, 2);
        let s = c.stats();
        assert_eq!((s.inserts, s.updates), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let c = PageCache::default();
        c.put("/a", body("x"), 1.0);
        assert!(c.invalidate("/a"));
        assert!(!c.invalidate("/a"));
        assert!(c.get("/a").is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn peek_does_not_count() {
        let c = PageCache::default();
        c.put("/a", body("1"), 1.0);
        c.peek("/a");
        c.peek("/zzz");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn byte_accounting_tracks_sizes() {
        let c = PageCache::default();
        c.put("/a", body("1234"), 1.0);
        c.put("/b", body("12345678"), 1.0);
        assert_eq!(c.bytes(), 12);
        c.put("/a", body("12"), 1.0); // shrink in place
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.stats().bytes_current, 10);
        assert_eq!(c.stats().bytes_peak, 12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single shard so the budget applies globally.
        let c = PageCache::new(CacheConfig::bounded(30, ReplacementPolicy::Lru).with_shards(1));
        c.put("/a", body("aaaaaaaaaa"), 1.0); // 10 bytes
        c.put("/b", body("bbbbbbbbbb"), 1.0);
        c.put("/c", body("cccccccccc"), 1.0);
        c.get("/a"); // /b is now least recent
        c.put("/d", body("dddddddddd"), 1.0); // forces one eviction
        assert!(c.contains("/a"));
        assert!(!c.contains("/b"));
        assert!(c.contains("/c"));
        assert!(c.contains("/d"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn an_unbounded_hit_writes_no_recency() {
        let recency = |c: &PageCache| {
            c.with_shard("/a", |rows, column| {
                let e = rows["/a"].cells[0].as_ref().unwrap();
                (column.tick, e.stamp, column.touches.len())
            })
        };
        let c = PageCache::default();
        c.put("/a", body("1"), 1.0);
        let before = recency(&c);
        for _ in 0..3 {
            assert!(c.get("/a").is_some());
        }
        assert_eq!(recency(&c), before);
        // The hotness window still counts every hit.
        let hits = c.drain_window_hits();
        assert_eq!((hits.len(), hits[0].1), (1, 3));
        // A bounded member's hit ranks the entry anew.
        let b = PageCache::new(CacheConfig::bounded(1_000, ReplacementPolicy::Lru).with_shards(1));
        b.put("/a", body("1"), 1.0);
        let (tick, _, queued) = recency(&b);
        b.get("/a");
        assert_eq!(recency(&b), (tick + 1, tick + 1, queued + 1));
    }

    #[test]
    fn hits_on_pages_that_fit_keep_the_touch_queue_short() {
        let c =
            PageCache::new(CacheConfig::bounded(1 << 20, ReplacementPolicy::Lru).with_shards(1));
        for i in 0..10 {
            c.put(&format!("/p{i}"), body("page"), 1.0);
        }
        for i in 0..100_000 {
            assert!(c.get(&format!("/p{}", i % 10)).is_some());
        }
        let queued = c.with_shard("/p0", |_, column| column.touches.len());
        assert!(queued <= 2 * 10 + TOUCH_SLACK, "{queued} touch records");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn a_byte_budget_alone_bounds_the_cache() {
        let c = PageCache::new(
            CacheConfig {
                max_bytes: Some(64),
                ..CacheConfig::default()
            }
            .with_shards(1),
        );
        for i in 0..10 {
            c.put(&format!("/p{i}"), Bytes::from(vec![b'x'; 16]), 1.0);
        }
        let held = c.bytes();
        assert!(held <= 64, "{held} bytes under a 64-byte budget");
        assert_eq!((c.len(), c.stats().evictions), (4, 6));
    }

    #[test]
    fn oversized_entry_does_not_loop() {
        let c = PageCache::new(CacheConfig::bounded(5, ReplacementPolicy::Lru).with_shards(1));
        c.put("/big", body("0123456789"), 1.0);
        // Entry itself exceeds the budget: the eviction loop removes it
        // and stops (nothing left to evict).
        assert!(c.bytes() <= 10);
    }

    #[test]
    fn clear_empties_everything() {
        let c = PageCache::default();
        for i in 0..100 {
            c.put(&format!("/p{i}"), body("data"), 1.0);
        }
        assert_eq!(c.len(), 100);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.stats().bytes_current, 0);
    }

    #[test]
    fn keys_lists_all() {
        let c = PageCache::default();
        c.put("/a", body("1"), 1.0);
        c.put("/b", body("2"), 1.0);
        let mut keys = c.keys();
        keys.sort();
        assert_eq!(keys, vec!["/a", "/b"]);
    }

    #[test]
    fn drain_window_hits_collects_and_resets() {
        let c = PageCache::default();
        c.put("/a", body("1"), 1.0);
        c.put("/b", body("2"), 1.0);
        c.put("/c", body("3"), 1.0);
        for _ in 0..3 {
            c.get("/a");
        }
        c.get("/b");
        c.peek("/c"); // peek must not count as traffic
        c.get("/zzz"); // miss must not count as traffic
        let mut hits: Vec<(String, u64)> = c
            .drain_window_hits()
            .into_iter()
            .map(|(k, n)| (k.to_string(), n))
            .collect();
        hits.sort();
        assert_eq!(hits, vec![("/a".into(), 3), ("/b".into(), 1)]);
        // The drain resets the window: nothing new means nothing drained.
        assert!(c.drain_window_hits().is_empty());
        // A fresh window starts counting from zero.
        c.get("/a");
        let again = c.drain_window_hits();
        assert_eq!(again.len(), 1);
        assert_eq!((&*again[0].0, again[0].1), ("/a", 1));
    }

    #[test]
    fn drain_window_hits_skips_invalidated_entries() {
        let c = PageCache::default();
        c.put("/a", body("1"), 1.0);
        c.get("/a");
        c.invalidate("/a");
        assert!(c.drain_window_hits().is_empty());
        // Re-inserting and hitting again re-enters the dirty list cleanly.
        c.put("/a", body("2"), 1.0);
        c.get("/a");
        assert_eq!(c.drain_window_hits().len(), 1);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        use std::thread;
        let c = Arc::new(PageCache::new(CacheConfig::default().with_shards(8)));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for i in 0..2_000u32 {
                    let key = format!("/page{}", (i * 7 + t) % 50);
                    match i % 4 {
                        0 => {
                            c.put(&key, Bytes::from(vec![b'x'; 64]), 5.0);
                        }
                        3 if i % 16 == 3 => {
                            c.invalidate(&key);
                        }
                        _ => {
                            c.get(&key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            blocking!(h.join()).unwrap();
        }
        // Accounting invariant: current bytes equals sum of live entries.
        let live_bytes: u64 = c
            .keys()
            .iter()
            .map(|k| c.peek(k).map(|p| p.body.len() as u64).unwrap_or(0))
            .sum();
        assert_eq!(c.bytes(), live_bytes);
        assert_eq!(c.stats().bytes_current, live_bytes);
    }

    fn stale_config(max_age_secs: f64) -> CacheConfig {
        CacheConfig::default().with_stale(StalePolicy::bounded(max_age_secs))
    }

    #[test]
    fn invalidation_tombstones_under_stale_policy() {
        let c = PageCache::new(stale_config(60.0));
        c.put("/a", body("v1"), 1.0);
        c.put("/a", body("v2"), 1.0);
        assert!(c.invalidate("/a"));
        assert!(c.get("/a").is_none(), "live entry is gone");
        let copy = c.serve_stale("/a").unwrap();
        assert_eq!(&copy.body[..], b"v2");
        assert_eq!(copy.version, 2);
        assert_eq!(copy.epoch, 1);
        assert_eq!(c.stats().stale_served, 1);
        // A fresh body supersedes the tombstone.
        c.put("/a", body("v3"), 1.0);
        assert!(c.serve_stale("/a").is_none());
        assert_eq!(c.stale_len(), 0);
    }

    #[test]
    fn stale_epoch_counts_live_to_stale_transitions() {
        let c = PageCache::new(stale_config(60.0));
        assert_eq!(c.stale_epoch("/a"), 0);
        c.put("/a", body("v1"), 1.0);
        c.invalidate("/a");
        assert_eq!(c.stale_epoch("/a"), 1);
        c.put("/a", body("v2"), 1.0);
        c.invalidate("/a");
        assert_eq!(c.stale_epoch("/a"), 2);
    }

    #[test]
    fn stale_age_is_bounded_by_the_policy() {
        let c = PageCache::new(stale_config(30.0));
        c.put("/a", body("v1"), 1.0);
        c.set_now_secs(100.0);
        c.invalidate("/a");
        c.set_now_secs(120.0);
        let copy = c.peek_stale("/a").unwrap();
        assert!((copy.age_secs - 20.0).abs() < 1e-9);
        c.set_now_secs(131.0); // 31 s stale > 30 s bound
        assert!(c.serve_stale("/a").is_none());
        assert_eq!(c.stale_len(), 0, "expired tombstone pruned on lookup");
        assert_eq!(c.stats().stale_served, 0, "expired copy never counted");
    }

    #[test]
    fn prune_stale_drops_expired_tombstones() {
        let c = PageCache::new(stale_config(10.0));
        c.put("/old", body("x"), 1.0);
        c.invalidate("/old");
        c.set_now_secs(5.0);
        c.put("/new", body("y"), 1.0);
        c.invalidate("/new");
        c.set_now_secs(11.0);
        c.prune_stale();
        assert_eq!(c.stale_len(), 1);
        assert!(c.peek_stale("/new").is_some());
    }

    #[test]
    fn eviction_tombstones_under_stale_policy() {
        let c = PageCache::new(
            CacheConfig::bounded(20, ReplacementPolicy::Lru)
                .with_shards(1)
                .with_stale(StalePolicy::bounded(60.0)),
        );
        c.put("/a", body("aaaaaaaaaa"), 1.0);
        c.put("/b", body("bbbbbbbbbb"), 1.0);
        c.put("/c", body("cccccccccc"), 1.0); // evicts /a
        assert!(!c.contains("/a"));
        let copy = c.serve_stale("/a").unwrap();
        assert_eq!(&copy.body[..], b"aaaaaaaaaa");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clear_is_a_cold_restart() {
        let c = PageCache::new(stale_config(60.0));
        c.put("/a", body("v1"), 1.0);
        c.invalidate("/a");
        assert_eq!(c.stale_len(), 1);
        c.clear();
        assert_eq!(c.stale_len(), 0);
        assert!(c.serve_stale("/a").is_none());
    }

    #[test]
    fn without_stale_policy_nothing_is_tombstoned() {
        let c = PageCache::default();
        c.put("/a", body("v1"), 1.0);
        c.invalidate("/a");
        assert!(c.serve_stale("/a").is_none());
        assert_eq!(c.stale_epoch("/a"), 0);
        assert_eq!(c.stale_len(), 0);
    }

    #[test]
    fn single_flight_has_one_leader_and_counted_followers() {
        let c = PageCache::default();
        let token = match c.join_or_lead("/k", Duration::from_millis(10)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("first caller must lead, got {other:?}"),
        };
        // A second caller while the flight is open times out (nobody
        // completes it yet) and counts one coalesced miss.
        match c.join_or_lead("/k", Duration::from_millis(5)) {
            FlightOutcome::TimedOut => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(c.stats().coalesced, 1);
        c.complete_flight(
            token,
            Some(CachedPage {
                body: body("fresh"),
                version: 1,
            }),
        );
        // The flight is retired: the next miss leads again.
        assert!(matches!(
            c.join_or_lead("/k", Duration::from_millis(1)),
            FlightOutcome::Lead(_)
        ));
    }

    #[test]
    fn followers_join_the_leaders_result_across_threads() {
        use std::thread;
        let c = Arc::new(PageCache::default());
        let token = match c.join_or_lead("/page", Duration::from_secs(5)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("expected lead, got {other:?}"),
        };
        let mut joiners = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joiners.push(thread::spawn(move || {
                c.join_or_lead("/page", Duration::from_secs(5))
            }));
        }
        // Give followers a moment to attach, then publish.
        blocking!(thread::sleep(Duration::from_millis(20)));
        c.put("/page", body("fresh"), 1.0);
        let page = c.peek("/page").unwrap();
        c.complete_flight(token, Some(page));
        for j in joiners {
            match blocking!(j.join()).unwrap() {
                FlightOutcome::Joined(page) => assert_eq!(&page.body[..], b"fresh"),
                // A follower that raced in after completion leads a
                // fresh flight; it must still see the cached body.
                FlightOutcome::Lead(t) => {
                    let cached = c.peek("/page").unwrap();
                    assert_eq!(&cached.body[..], b"fresh");
                    c.complete_flight(t, Some(cached));
                }
                FlightOutcome::TimedOut => panic!("follower timed out"),
            }
        }
    }

    #[test]
    fn failed_flight_wakes_followers_without_a_body() {
        use std::thread;
        let c = Arc::new(PageCache::default());
        let token = match c.join_or_lead("/page", Duration::from_secs(5)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("expected lead, got {other:?}"),
        };
        let follower = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.join_or_lead("/page", Duration::from_secs(5)))
        };
        blocking!(thread::sleep(Duration::from_millis(20)));
        c.complete_flight(token, None);
        match blocking!(follower.join()).unwrap() {
            FlightOutcome::TimedOut => {}
            FlightOutcome::Lead(t) => c.complete_flight(t, None),
            FlightOutcome::Joined(_) => panic!("failed flight must not produce a body"),
        }
    }

    #[test]
    fn timed_out_follower_clears_a_dead_flight() {
        let c = PageCache::default();
        let token = match c.join_or_lead("/k", Duration::from_millis(1)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("expected lead, got {other:?}"),
        };
        // Leader "dies" (token leaked, never completed). A follower's
        // expired wait clears the flight so the key is not wedged.
        std::mem::forget(token);
        assert!(matches!(
            c.join_or_lead("/k", Duration::from_millis(5)),
            FlightOutcome::TimedOut
        ));
        assert!(matches!(
            c.join_or_lead("/k", Duration::from_millis(1)),
            FlightOutcome::Lead(_)
        ));
    }

    #[test]
    fn eviction_respects_total_budget_across_fill() {
        let c = PageCache::new(CacheConfig::bounded(1_000, ReplacementPolicy::Lru).with_shards(1));
        for i in 0..200 {
            c.put(&format!("/p{i}"), Bytes::from(vec![0u8; 50]), 1.0);
        }
        assert!(c.bytes() <= 1_000, "bytes {}", c.bytes());
        assert!(c.len() <= 20);
        assert!(c.stats().evictions >= 180);
    }
}
