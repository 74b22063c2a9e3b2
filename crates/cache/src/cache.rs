//! The sharded concurrent page cache.
//!
//! Keys are page slots ([`crate::key`]); values are immutable rendered
//! bodies ([`bytes::Bytes`], so distributing a page to eight serving caches
//! shares one allocation). The caches of a fleet are the columns of one
//! sharded table: a row per page holding the members' body once, with a
//! cell per member, and beside a shard's rows each member's own eviction
//! queue, byte count, tombstones and flights. A row also keeps its
//! distributor's [`Memo`] of that body for exactly as long as some member
//! holds it. Slot `s` lives
//! in shard `s & mask`, at index `s >> shift` of that shard's rows. A
//! [`PageCache`] is one column of a table — a
//! standalone cache the only column of its own — so a lookup takes one
//! shard lock and indexes one vector, and so does a distribution to every
//! member ([`crate::CacheFleet::distribute`]). The lock per shard is a
//! `sync::Mutex`; a table has [`CacheConfig::shards`] of them per
//! member, and with the default 16 and short critical sections contention
//! is negligible next to page generation costs.
//!
//! A bounded cache evicts the least recently used entry. Each member and
//! shard keeps a queue of touches, oldest first: every write and every
//! hit pushes a `(stamp, slot)` record at the back, eviction pops from the
//! front, and a record whose stamp its entry no longer carries is skipped.
//! Stamps come from a counter that only grows, so the queue is in
//! eviction order without being sorted. An unbounded cache keeps no queue.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nagano_telemetry::sync::{Condvar, Mutex};
use rustc_hash::FxHashMap;

use crate::key::{KeySpace, PageRef};
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
    /// Unbounded cache with the default shard count.
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
    /// Stale epoch: increments every time the page goes live → stale, so
    /// single-flight can pin "one regeneration per (page, stale-epoch)".
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
    slot: u32,
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

/// What one member keeps of a page: a cell of the page's [`Row`]. Its body
/// is the row's, unless the member got other bytes by a fill or a restore
/// of its own. Its version and cost are what they were when the row's
/// `bumps` stood at `at`: each bump since put it a version ahead, at the
/// row's cost ([`Row::entry`]).
#[derive(Debug)]
struct Cell {
    /// The member's body when it is not the row's.
    own: Option<Bytes>,
    version: u64,
    cost: f64,
    /// The row's `bumps` when `version` and `cost` were written.
    at: u64,
    /// Hits since the last [`PageCache::drain_window_hits`] call — the raw
    /// input to the fleet-level EWMA hotness tracker.
    window_hits: u64,
    /// Identity of the entry's newest touch record, drawn from its
    /// column's monotonic tick so stale records — including ones
    /// surviving from a previous incarnation of the same page — never
    /// match.
    stamp: u64,
}

impl Cell {
    /// A cell at no version yet, holding its row's body, in a row that has
    /// counted `at` distributions.
    fn new(cost: f64, at: u64) -> Self {
        Cell {
            own: None,
            version: 0,
            cost,
            at,
            window_hits: 0,
            stamp: 0,
        }
    }
}

/// What a distributor keeps of a body beside it in the page's row
/// ([`crate::CacheFleet::distribute_with`]). Opaque to the cache.
pub type Memo = Box<dyn Any + Send + Sync>;

/// One page across the fleet: a cell per member, side by side, and the
/// body they hold, once. A row lives as long as one of its cells is filled.
struct Row {
    /// The body the cells without one of their own hold: one allocation
    /// however many members hold it, empty while none does.
    body: Bytes,
    /// How many cells hold `body`.
    holders: usize,
    /// The memo of `body`, kept while a member holds it.
    memo: Option<Memo>,
    /// Distributions that filled the row or found it settled and changed
    /// its body: each put every member a version ahead, at the last one's
    /// `cost`, without a write to any cell.
    bumps: u64,
    cost: f64,
    cells: Box<[Option<Cell>]>,
}

impl Row {
    fn new(members: usize) -> Self {
        Row {
            body: Bytes::new(),
            holders: 0,
            memo: None,
            bumps: 0,
            cost: 0.0,
            cells: (0..members).map(|_| None).collect(),
        }
    }

    fn is_empty(&self) -> bool {
        self.cells.iter().all(Option::is_none)
    }

    /// Whether every member holds the row's body.
    fn is_settled(&self) -> bool {
        self.holders == self.cells.len()
    }

    /// What member `c` holds: body, version and cost.
    fn entry(&self, c: usize) -> Option<(&Bytes, u64, f64)> {
        let cell = self.cells[c].as_ref()?;
        let body = cell.own.as_ref().unwrap_or(&self.body);
        let version = cell.version + (self.bumps - cell.at);
        let cost = if cell.at == self.bumps {
            cell.cost
        } else {
            self.cost
        };
        Some((body, version, cost))
    }

    /// Cell `c`, made at `cost` if it is empty, with its version and cost
    /// as of now written into it: what a write to that member alone
    /// starts from.
    fn own_books(&mut self, c: usize, cost: f64) -> &mut Cell {
        let (version, cost) = self.entry(c).map_or((0, cost), |(_, v, cost)| (v, cost));
        let cell = self.cells[c].get_or_insert_with(|| Cell::new(cost, 0));
        (cell.version, cell.cost, cell.at) = (version, cost, self.bumps);
        cell
    }

    /// Empty cell `c`; returns the body it held and its version. The last
    /// member to hold the row's body takes it, and its memo, with it.
    fn remove(&mut self, c: usize) -> Option<(Bytes, u64)> {
        let version = self.entry(c)?.1;
        let cell = self.cells[c].take()?;
        let body = match cell.own {
            Some(own) => own,
            None => {
                self.holders -= 1;
                if self.holders > 0 {
                    self.body.clone()
                } else {
                    self.memo = None;
                    std::mem::take(&mut self.body)
                }
            }
        };
        Some((body, version))
    }

    /// Give every cell a body of its own: what a write other than a
    /// distribution to a settled row works on. Returns the row's body and
    /// its memo.
    fn unshare(&mut self) -> Option<(Bytes, Option<Memo>)> {
        if self.holders == 0 {
            return None;
        }
        for cell in self.cells.iter_mut().flatten() {
            if cell.own.is_none() {
                cell.own = Some(self.body.clone());
            }
        }
        self.holders = 0;
        Some((std::mem::take(&mut self.body), self.memo.take()))
    }

    /// Make one body the row's again after [`Row::unshare`] and a write:
    /// with a memo (of a distribution), the first member's, which the memo
    /// is of; else the row's before, and its memo, if a member still holds
    /// it; else the first filled cell's.
    fn share(&mut self, before: Option<(Bytes, Option<Memo>)>, memo: Option<Memo>) {
        let held = |body: &Bytes, cells: &[Option<Cell>]| {
            let holds = |cell: &Cell| cell.own.as_ref().is_some_and(|b| same_allocation(b, body));
            cells.iter().flatten().any(holds)
        };
        let (body, memo) = match (before, memo) {
            (Some((body, kept)), None) if held(&body, &self.cells) => (body, kept),
            (_, memo) => {
                let first = self
                    .cells
                    .iter()
                    .flatten()
                    .find_map(|cell| cell.own.clone());
                let Some(first) = first else { return };
                (first, memo)
            }
        };
        for cell in self.cells.iter_mut().flatten() {
            if cell.own.as_ref().is_some_and(|b| same_allocation(b, &body)) {
                cell.own = None;
                self.holders += 1;
            }
        }
        (self.body, self.memo) = (body, memo);
    }
}

/// A shard's rows, by `slot >> shift`; `None` where no member holds the
/// page.
struct Rows {
    at: Vec<Option<Row>>,
    shift: u32,
}

impl Rows {
    fn index(&self, slot: u32) -> usize {
        (slot >> self.shift) as usize
    }

    fn get(&self, slot: u32) -> Option<&Row> {
        self.at.get(self.index(slot))?.as_ref()
    }

    fn get_mut(&mut self, slot: u32) -> Option<&mut Row> {
        let i = self.index(slot);
        self.at.get_mut(i)?.as_mut()
    }

    /// `slot`'s row, made with `members` empty cells if it has none.
    fn get_or_insert(&mut self, slot: u32, members: usize) -> &mut Row {
        let i = self.index(slot);
        if i >= self.at.len() {
            self.at.resize_with(i + 1, || None);
        }
        self.at[i].get_or_insert_with(|| Row::new(members))
    }

    /// Drop `slot`'s row if no cell of it is filled.
    fn prune(&mut self, slot: u32) {
        let i = self.index(slot);
        if let Some(row) = self.at.get_mut(i) {
            if row.as_ref().is_some_and(Row::is_empty) {
                *row = None;
            }
        }
    }

    /// The rows held, each with its slot, in slot order; `shard` is the
    /// shard's index, the low bits of each slot.
    fn iter(&self, shard: u32) -> impl Iterator<Item = (u32, &Row)> {
        self.at
            .iter()
            .enumerate()
            .filter_map(move |(i, row)| Some(((i as u32) << self.shift | shard, row.as_ref()?)))
    }
}

/// Stale records a column's touch queue may hold beyond twice its
/// entries before [`Column::trim`] drops them.
const TOUCH_SLACK: usize = 16;

/// One member's state in one shard, beside the rows its cells are in.
#[derive(Default)]
struct Column {
    /// A bounded member's touches, `(stamp, slot)`, oldest first: the
    /// front is the next eviction candidate unless its stamp is stale.
    touches: VecDeque<(u64, u32)>,
    tick: u64,
    bytes: u64,
    /// The member's entries in this shard.
    entries: usize,
    /// Slots whose `window_hits` went 0 → nonzero since the last drain, so
    /// draining walks only touched entries rather than every row.
    dirty: Vec<u32>,
    /// Tombstoned stale copies (only populated under a [`StalePolicy`]).
    /// Not charged against the byte budget: bodies are refcounted views
    /// and the store is bounded by the policy's max age via pruning.
    stale: FxHashMap<u32, StaleEntry>,
    /// Count of live → stale transitions per page. Kept separately from
    /// `stale` so the epoch survives a fresh body superseding (and
    /// removing) the tombstone — single-flight pins "one regeneration per
    /// (page, stale-epoch)" against this counter.
    stale_epochs: FxHashMap<u32, u64>,
    /// In-flight single-flight regenerations by page.
    flights: FxHashMap<u32, Arc<Flight>>,
}

impl Column {
    /// Move a removed entry's body into the stale tombstone store,
    /// bumping the page's stale epoch.
    fn tombstone(&mut self, slot: u32, body: Bytes, version: u64, now_us: u64) {
        let epoch = {
            let e = self.stale_epochs.entry(slot).or_insert(0);
            *e += 1;
            *e
        };
        self.stale.insert(
            slot,
            StaleEntry {
                body,
                version,
                epoch,
                since_us: now_us,
            },
        );
    }

    /// Stamp `cell` with the next tick and push its touch at the back.
    fn touch(&mut self, slot: u32, cell: &mut Cell) {
        self.tick += 1;
        cell.stamp = self.tick;
        self.touches.push_back((self.tick, slot));
    }

    /// Drop the stale records once they outnumber the live ones by more
    /// than [`TOUCH_SLACK`], so a member whose pages fit does not grow
    /// its queue with every hit. Order is kept; what is left is one
    /// record per entry (`c` is this column's index in a row's cells).
    fn trim(&mut self, rows: &Rows, c: usize) {
        if self.touches.len() > 2 * self.entries + TOUCH_SLACK {
            self.touches.retain(|&(stamp, slot)| {
                let cell = rows.get(slot).and_then(|row| row.cells[c].as_ref());
                cell.is_some_and(|e| e.stamp == stamp)
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
        protect: u32,
        stale_now: Option<u64>,
    ) {
        let column = &mut self.columns[c];
        while column.bytes > budget {
            let Some((stamp, slot)) = column.touches.pop_front() else {
                break;
            };
            let Some(row) = self.rows.get_mut(slot) else {
                continue; // stale record
            };
            if row.cells[c].as_ref().is_none_or(|e| e.stamp != stamp) {
                continue; // stale record
            }
            if slot == protect {
                column.touches.push_front((stamp, slot));
                break;
            }
            let Some((body, version)) = row.remove(c) else {
                continue;
            };
            self.rows.prune(slot);
            let size = body.len() as u64;
            column.bytes -= size;
            column.entries -= 1;
            stats.evict(size);
            if let Some(now_us) = stale_now {
                column.tombstone(slot, body, version, now_us);
            }
        }
        column.trim(&self.rows, c);
    }
}

/// What one visit to a page's row made of it
/// ([`crate::CacheFleet::answer_or_take`]).
#[derive(Debug)]
pub enum Visit<T, M> {
    /// What the visitor made of the body every member holds and the memo
    /// the row keeps of it; the row is as it was.
    Answered(T),
    /// The first member's body, with the memo the row kept of that very
    /// allocation, taken out of the row; `None` if the first member does
    /// not hold the page.
    Taken(Option<(Bytes, Option<M>)>),
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

/// The store behind a fleet's caches: one sharded table from page slot to
/// [`Row`], a column per member. A shard's lock covers its rows and every
/// member's [`Column`] beside them, so whatever is done to one page — on
/// one member or on all of them — is done under one lock, and a reader of
/// any member sees a distribution either whole or not at all.
pub(crate) struct Table {
    shards: Box<[Mutex<Shard>]>,
    mask: usize,
    /// The names [`PageRef`]s other than slots are resolved in.
    keys: Option<Arc<dyn KeySpace>>,
    /// A member's byte budget for its column of one shard; `None` for
    /// an unbounded table, which keeps no touch queue.
    per_shard_budget: Option<u64>,
    stale: Option<StalePolicy>,
    members: Box<[Member]>,
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
    /// evenly over them. Page names resolve in `keys`, if given.
    pub(crate) fn new(
        config: &CacheConfig,
        members: usize,
        keys: Option<Arc<dyn KeySpace>>,
    ) -> Arc<Self> {
        let n = (config.shards.max(1) * members).next_power_of_two();
        let shard = || Shard {
            rows: Rows {
                at: Vec::new(),
                shift: n.trailing_zeros(),
            },
            columns: (0..members).map(|_| Column::default()).collect(),
        };
        Arc::new(Table {
            shards: (0..n).map(|_| Mutex::new(shard())).collect(),
            mask: n - 1,
            keys,
            per_shard_budget: config.max_bytes.map(|b| b / n as u64),
            stale: config.stale,
            members: (0..members).map(|_| Member::default()).collect(),
        })
    }

    fn shard_for(&self, slot: u32) -> &Mutex<Shard> {
        &self.shards[slot as usize & self.mask]
    }

    /// The slot `key` names; `None` for a name outside the key space.
    pub(crate) fn slot(&self, key: impl PageRef) -> Option<u32> {
        key.slot_in(self.keys.as_deref())
    }

    /// The slot `key` names, which a write must have.
    pub(crate) fn slot_to_write(&self, key: impl PageRef) -> u32 {
        match self.slot(key) {
            Some(slot) => slot,
            None => panic!("a page is written by slot, or by a name in the fleet's key space"),
        }
    }

    /// The name of the page in `slot`: its key space's, or the slot in
    /// decimal.
    pub(crate) fn name(&self, slot: u32) -> String {
        match &self.keys {
            Some(keys) => keys.name(slot),
            None => slot.to_string(),
        }
    }

    /// Member `c`'s cache-clock micros when a stale policy is active.
    fn stale_now(&self, c: usize) -> Option<u64> {
        self.stale.map(|_| self.members[c].now_us.load(Relaxed))
    }

    /// Member `c`'s books, its column of `slot`'s shard and its
    /// statistics, after its cell took a body of `size` bytes in place of
    /// one of `old` bytes (`None`: the cell was empty). A bounded member's
    /// cell is touched.
    fn account(
        &self,
        c: usize,
        column: &mut Column,
        slot: u32,
        cell: Option<&mut Cell>,
        old: Option<u64>,
        size: u64,
    ) {
        let stats = &self.members[c].stats;
        match old {
            // A padded page keeps its length: the common replacement
            // leaves the column's count, and its cache line, alone.
            Some(old) => {
                if old != size {
                    column.bytes = column.bytes - old + size;
                }
                stats.update(old, size);
            }
            None => {
                column.bytes += size;
                column.entries += 1;
                stats.insert(size);
            }
        }
        if let Some(cell) = cell.filter(|_| self.per_shard_budget.is_some()) {
            column.touch(slot, cell);
        }
        // A fresh body supersedes any tombstoned stale copy of the page.
        if self.stale.is_some() {
            column.stale.remove(&slot);
        }
    }

    /// Bring each member in `written` back within its budget, if it has
    /// one, sparing `slot`.
    fn evict_after(&self, shard: &mut Shard, slot: u32, written: impl IntoIterator<Item = usize>) {
        if let Some(budget) = self.per_shard_budget {
            for c in written {
                let stats = &self.members[c].stats;
                shard.evict_to(c, budget, stats, slot, self.stale_now(c));
            }
        }
    }

    /// Distribute `body` to every member, under one lock and off one
    /// probe: a member that holds those bytes keeps its entry as it is,
    /// every other takes the body at its next version. Returns whether any
    /// entry was written. A `memo` of `body` becomes the row's, of the
    /// allocation the first member then holds.
    ///
    /// A settled row — every member holds the row's body, as a
    /// distribution leaves them — takes one comparison, and where the
    /// bytes differ one body swapped and one count bumped, which puts every
    /// cell a version ahead at `cost` without writing to it, whatever the
    /// fleet's size. Any other row is written cell after cell: a member
    /// that holds bytes equal to `body` in another allocation hands its
    /// own on, so a cell written after it joins the allocation it holds.
    pub(crate) fn distribute(&self, slot: u32, body: Bytes, cost: f64, memo: Option<Memo>) -> bool {
        let size = body.len() as u64;
        // Declared before the lock is taken, so that the body this holds
        // last is freed after the lock is released.
        let mut _replaced: Option<Bytes> = None;
        // Only a bounded table evicts, and only there is this filled.
        let mut written: Vec<usize> = Vec::new();
        let bounded = self.per_shard_budget.is_some();
        let mut shard = self.shard_for(slot).lock();
        let Shard { rows, columns } = &mut *shard;
        let row = rows.get_or_insert(slot, self.members.len());
        let fresh = row.is_empty();
        let changed = if row.is_settled() || fresh {
            let changed = fresh || !same_bytes(&row.body, &body);
            if changed {
                let old = (!fresh).then_some(row.body.len() as u64);
                _replaced = Some(std::mem::replace(&mut row.body, body));
                row.holders = row.cells.len();
                if fresh {
                    for cell in row.cells.iter_mut() {
                        *cell = Some(Cell::new(cost, row.bumps));
                    }
                }
                (row.bumps, row.cost) = (row.bumps + 1, cost);
                for c in 0..row.cells.len() {
                    // An unbounded member's cell is not so much as read.
                    let cell = if bounded { row.cells[c].as_mut() } else { None };
                    self.account(c, &mut columns[c], slot, cell, old, size);
                }
                if bounded {
                    written.extend(0..row.cells.len());
                }
            }
            // The memo of a body no member holds any more goes with it.
            if changed || memo.is_some() {
                row.memo = memo;
            }
            changed
        } else {
            let before = row.unshare();
            let mut body = body;
            let mut changed = false;
            for c in 0..row.cells.len() {
                let held = row.entry(c).map(|(held, ..)| held);
                if let Some(held) = held.filter(|held| same_bytes(held, &body)) {
                    if !same_allocation(held, &body) {
                        body = held.clone();
                    }
                    continue;
                }
                let old = held.map(|held| held.len() as u64);
                let cell = row.own_books(c, cost);
                (cell.version, cell.cost) = (cell.version + 1, cost);
                _replaced = cell.own.replace(body.clone());
                self.account(c, &mut columns[c], slot, Some(cell), old, size);
                if bounded {
                    written.push(c);
                }
                changed = true;
            }
            row.share(before, memo);
            changed
        };
        self.evict_after(&mut shard, slot, written);
        changed
    }

    /// Put `body` under `slot` on member `c` alone: at `version`, or
    /// else at the member's next. Returns the version the member has the
    /// page at.
    pub(crate) fn put(
        &self,
        slot: u32,
        body: Bytes,
        cost: f64,
        c: usize,
        version: Option<u64>,
    ) -> u64 {
        let size = body.len() as u64;
        let mut shard = self.shard_for(slot).lock();
        let Shard { rows, columns } = &mut *shard;
        let row = rows.get_or_insert(slot, self.members.len());
        let old = row.entry(c).map(|(held, ..)| held.len() as u64);
        let before = row.unshare();
        let cell = row.own_books(c, cost);
        (cell.version, cell.cost) = (version.unwrap_or(cell.version + 1), cost);
        let version = cell.version;
        let replaced = cell.own.replace(body);
        self.account(c, &mut columns[c], slot, Some(cell), old, size);
        row.share(before, None);
        self.evict_after(&mut shard, slot, [c]);
        // What the cell held is freed after the lock is released.
        drop(shard);
        drop(replaced);
        version
    }

    /// One visit to `slot`'s row, under its shard's lock: what `answer`
    /// makes of the body every member holds and the row's memo of it, if
    /// there are such and it makes something; else the first member's
    /// body, with the row's memo taken out of the row if that member holds
    /// the body it is of.
    pub(crate) fn visit<T>(
        &self,
        slot: u32,
        answer: impl FnOnce(&Bytes, &Memo) -> Option<T>,
    ) -> Visit<T, Memo> {
        let mut shard = self.shard_for(slot).lock();
        let Some(row) = shard.rows.get_mut(slot) else {
            return Visit::Taken(None);
        };
        if let Some(memo) = row.memo.as_ref().filter(|_| row.is_settled()) {
            if let Some(answered) = answer(&row.body, memo) {
                return Visit::Answered(answered);
            }
        }
        let Some(first) = &row.cells[0] else {
            return Visit::Taken(None);
        };
        Visit::Taken(Some(match &first.own {
            Some(own) => (own.clone(), None),
            None => (row.body.clone(), row.memo.take()),
        }))
    }

    /// `f` of the body every member holds for `slot` and the row's memo of
    /// it, under the shard's lock, if there are such.
    pub(crate) fn with_memo<T>(&self, slot: u32, f: impl FnOnce(&Bytes, &Memo) -> T) -> Option<T> {
        let shard = self.shard_for(slot).lock();
        let row = shard.rows.get(slot)?;
        let memo = row.memo.as_ref().filter(|_| row.is_settled())?;
        Some(f(&row.body, memo))
    }

    /// Whether `slot`'s row keeps a memo: of a body some member holds.
    pub(crate) fn has_memo(&self, slot: u32) -> bool {
        let shard = self.shard_for(slot).lock();
        shard.rows.get(slot).is_some_and(|row| row.memo.is_some())
    }

    /// Remove `slot` from each member in `columns`; returns how many held
    /// it. Under a [`StalePolicy`] a removed body is kept as that member's
    /// servable tombstone.
    pub(crate) fn invalidate(&self, slot: u32, columns: Range<usize>) -> usize {
        let mut shard = self.shard_for(slot).lock();
        let Shard {
            rows,
            columns: state,
        } = &mut *shard;
        let Some(row) = rows.get_mut(slot) else {
            return 0;
        };
        let mut held = 0;
        for c in columns {
            if let Some((body, version)) = row.remove(c) {
                let size = body.len() as u64;
                state[c].bytes -= size;
                state[c].entries -= 1;
                self.members[c].stats.invalidate(size);
                if let Some(now_us) = self.stale_now(c) {
                    state[c].tombstone(slot, body, version, now_us);
                }
                held += 1;
            }
        }
        rows.prune(slot);
        held
    }
}

/// A concurrent cache of rendered pages, keyed by page slot.
///
/// ```
/// use bytes::Bytes;
/// use nagano_cache::PageCache;
///
/// // A page's slot is its key: the site's page space numbers every page.
/// const MEDALS: u32 = 48;
/// let cache = PageCache::default();
/// cache.put(MEDALS, Bytes::from_static(b"<html>v1</html>"), 150.0);
/// assert_eq!(cache.get(MEDALS).unwrap().version, 1);
///
/// // The trigger monitor updates stale pages *in place*: the entry is
/// // replaced, never missing, and its version bumps (the HTTP ETag).
/// cache.put(MEDALS, Bytes::from_static(b"<html>v2</html>"), 150.0);
/// let page = cache.get(MEDALS).unwrap();
/// assert_eq!(&page.body[..], b"<html>v2</html>");
/// assert_eq!(page.version, 2);
/// assert_eq!(cache.stats().misses, 0);
/// ```
///
/// Every call that takes a page takes a [`PageRef`]: a slot, or — on a
/// member of a fleet built with a [`KeySpace`] — a name it resolves.
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
        Self::member_of(Table::new(&config, 1, None), 0)
    }

    /// Member `column` of `table`.
    pub(crate) fn member_of(table: Arc<Table>, column: usize) -> Self {
        PageCache { table, column }
    }

    fn member(&self) -> &Member {
        &self.table.members[self.column]
    }

    /// Run `f` on `slot`'s shard: its rows and this member's column.
    fn with_shard<T>(&self, slot: u32, f: impl FnOnce(&mut Rows, &mut Column) -> T) -> T {
        let mut shard = self.table.shard_for(slot).lock();
        let Shard { rows, columns } = &mut *shard;
        f(rows, &mut columns[self.column])
    }

    /// Run `f` on every shard in index order, as [`PageCache::with_shard`]
    /// does on one, with the shard's index.
    fn for_each_shard(&self, mut f: impl FnMut(u32, &mut Rows, &mut Column)) {
        for (i, s) in self.table.shards.iter().enumerate() {
            let mut shard = s.lock();
            let Shard { rows, columns } = &mut *shard;
            f(i as u32, rows, &mut columns[self.column]);
        }
    }

    /// Run `f` on this member's entry for `key` — body, version, cost —
    /// if it has one.
    fn with_entry<T>(&self, key: impl PageRef, f: impl FnOnce(&Bytes, u64) -> T) -> Option<T> {
        let slot = self.table.slot(key)?;
        let shard = self.table.shard_for(slot).lock();
        let (body, version, _) = shard.rows.get(slot)?.entry(self.column)?;
        Some(f(body, version))
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
    pub fn get(&self, key: impl PageRef) -> Option<CachedPage> {
        let bounded = self.table.per_shard_budget.is_some();
        let page = self.table.slot(key).and_then(|slot| {
            self.with_shard(slot, |rows, column| {
                let row = rows.get_mut(slot)?;
                let (body, version, _) = row.entry(self.column)?;
                let page = CachedPage {
                    body: body.clone(),
                    version,
                };
                let e = row.cells[self.column].as_mut()?;
                if e.window_hits == 0 {
                    column.dirty.push(slot);
                }
                e.window_hits += 1;
                // Recency orders a bounded member's eviction queue and
                // nothing else: a hit on an unbounded one writes none.
                if bounded {
                    column.touch(slot, e);
                    column.trim(rows, self.column);
                }
                Some(page)
            })
        });
        match page {
            Some(_) => self.member().stats.hit(),
            None => self.member().stats.miss(),
        }
        page
    }

    /// Look up without counting a hit/miss or touching recency — used by
    /// the trigger monitor to inspect state without skewing measurements.
    pub fn peek(&self, key: impl PageRef) -> Option<CachedPage> {
        self.with_entry(key, |body, version| CachedPage {
            body: body.clone(),
            version,
        })
    }

    /// Look up `key`'s body alone, like [`PageCache::peek`] counting and
    /// touching nothing.
    pub fn peek_body(&self, key: impl PageRef) -> Option<Bytes> {
        self.with_entry(key, |body, _| body.clone())
    }

    /// Insert or update-in-place. Returns the entry's new version (1 for a
    /// fresh insert). `cost` is the page's generation cost in milliseconds,
    /// kept with the entry and handed on by [`PageCache::export_entries`].
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space: it names no slot.
    pub fn put(&self, key: impl PageRef, body: Bytes, cost: f64) -> u64 {
        let slot = self.table.slot_to_write(key);
        self.table.put(slot, body, cost, self.column, None)
    }

    /// Remove `key`; returns whether it was present. Under a
    /// [`StalePolicy`] the removed body is kept as a servable tombstone.
    pub fn invalidate(&self, key: impl PageRef) -> bool {
        let only = self.column..self.column + 1;
        self.table
            .slot(key)
            .is_some_and(|slot| self.table.invalidate(slot, only) == 1)
    }

    /// Whether `key` is cached.
    pub fn contains(&self, key: impl PageRef) -> bool {
        self.with_entry(key, |_, _| ()).is_some()
    }

    /// This member's entries, shard by shard in index order, each shard's
    /// in slot order, as `f` sees them.
    fn collect_entries<T>(&self, mut f: impl FnMut(u32, &Bytes, f64, u64) -> T) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_shard(|i, rows, _| {
            for (slot, row) in rows.iter(i) {
                if let Some((body, version, cost)) = row.entry(self.column) {
                    out.push(f(slot, body, cost, version));
                }
            }
        });
        out
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        let mut total = 0;
        self.for_each_shard(|_, _, column| total += column.entries);
        total
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows of the table this cache is a column of: the pages that this
    /// member or another of its fleet holds (for diagnostics).
    pub fn rows(&self) -> usize {
        let mut total = 0;
        self.for_each_shard(|i, rows, _| total += rows.iter(i).count());
        total
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        let mut total = 0;
        self.for_each_shard(|_, _, column| total += column.bytes);
        total
    }

    /// Drop every entry (counted as invalidations). This is a *cold*
    /// restart: stale tombstones and in-flight regenerations are wiped
    /// too, so a crashed shard recovers with nothing to serve stale from.
    pub fn clear(&self) {
        let stats = &self.member().stats;
        self.for_each_shard(|_, rows, column| {
            for at in rows.at.iter_mut() {
                let Some(row) = at else { continue };
                if let Some((body, _)) = row.remove(self.column) {
                    let size = body.len() as u64;
                    column.bytes -= size;
                    column.entries -= 1;
                    stats.invalidate(size);
                }
                if row.is_empty() {
                    *at = None;
                }
            }
            column.touches.clear();
            column.stale.clear();
            column.stale_epochs.clear();
            column.flights.clear();
        });
    }

    /// The slots of every cached page (for diagnostics; takes each shard
    /// lock in turn).
    pub fn slots(&self) -> Vec<u32> {
        self.collect_entries(|slot, _, _, _| slot)
    }

    /// Every entry: `(slot, body, cost, version)`. Bodies are refcounted
    /// views, so listing them is cheap. Used to resynchronise a recovered
    /// serving node from a healthy peer.
    pub fn entries(&self) -> Vec<(u32, Bytes, f64, u64)> {
        self.collect_entries(|slot, body, cost, version| (slot, body.clone(), cost, version))
    }

    /// [`PageCache::entries`] with each page named: `(name, body, cost,
    /// version)`, the name its key space gives the slot (the slot in
    /// decimal without one) — the adapter for callers that hold URLs.
    pub fn export_entries(&self) -> Vec<(String, Bytes, f64, u64)> {
        let named = |slot, body: &Bytes, cost, version| {
            (self.table.name(slot), body.clone(), cost, version)
        };
        self.collect_entries(named)
    }

    /// Collect and reset per-entry hit counts accumulated since the last
    /// drain: `(slot, hits)` for every entry touched in the window. Walks
    /// only the per-shard dirty lists, so cost is proportional to the
    /// number of *distinct* pages hit, not the cache size. Pages evicted
    /// or invalidated since they were hit are silently dropped (their
    /// window counts die with the entry). Order is deterministic: shards in
    /// index order, pages in first-hit order within a shard.
    pub fn drain_window_hits(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        self.for_each_shard(|_, rows, column| {
            for slot in std::mem::take(&mut column.dirty) {
                let cell = rows
                    .get_mut(slot)
                    .and_then(|row| row.cells[self.column].as_mut());
                if let Some(e) = cell.filter(|e| e.window_hits > 0) {
                    out.push((slot, std::mem::take(&mut e.window_hits)));
                }
            }
        });
        out
    }

    /// Restore an entry with an explicit version (peer resync). Unlike
    /// [`PageCache::put`], the version is copied rather than bumped, so a
    /// resynced node agrees with its peers' entity tags. Counted as an
    /// insert or update in the statistics.
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space, as [`PageCache::put`].
    pub fn restore_entry(&self, key: impl PageRef, body: Bytes, cost: f64, version: u64) {
        let slot = self.table.slot_to_write(key);
        self.table.put(slot, body, cost, self.column, Some(version));
    }

    // ---- stale tombstones -------------------------------------------------

    /// Serve the tombstoned stale copy of `key`, if one exists within the
    /// policy's age bound. Counts a stale serve; an over-age copy is
    /// pruned and `None` returned. Without a [`StalePolicy`] this is
    /// always `None`.
    pub fn serve_stale(&self, key: impl PageRef) -> Option<StaleCopy> {
        let copy = self.lookup_stale(key, true)?;
        self.member().stats.stale_serve();
        Some(copy)
    }

    /// Like [`PageCache::serve_stale`] but without counting a stale serve
    /// — used to *check* fallback coverage without skewing measurements.
    pub fn peek_stale(&self, key: impl PageRef) -> Option<StaleCopy> {
        self.lookup_stale(key, false)
    }

    fn lookup_stale(&self, key: impl PageRef, prune_expired: bool) -> Option<StaleCopy> {
        let policy = self.table.stale?;
        let slot = self.table.slot(key)?;
        let now_us = self.now_us();
        self.with_shard(slot, |_, column| {
            let e = column.stale.get(&slot)?;
            let age_secs = now_us.saturating_sub(e.since_us) as f64 / 1e6;
            if age_secs > policy.max_age_secs {
                if prune_expired {
                    column.stale.remove(&slot);
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

    /// The page's current stale epoch: 0 while it has never been
    /// tombstoned, otherwise the number of live → stale transitions.
    /// Single-flight regeneration is pinned to "exactly one per
    /// (page, stale-epoch)" by the resilience property tests.
    pub fn stale_epoch(&self, key: impl PageRef) -> u64 {
        let Some(slot) = self.table.slot(key) else {
            return 0;
        };
        self.with_shard(slot, |_, column| column.stale_epochs.get(&slot).copied())
            .unwrap_or(0)
    }

    /// Number of tombstoned stale copies currently held.
    pub fn stale_len(&self) -> usize {
        let mut total = 0;
        self.for_each_shard(|_, _, column| total += column.stale.len());
        total
    }

    /// Drop every tombstone older than the policy's age bound. Called by
    /// the owner's heartbeat so dead pages do not accumulate.
    pub fn prune_stale(&self) {
        let Some(policy) = self.table.stale else {
            return;
        };
        let horizon_us = (policy.max_age_secs * 1e6) as u64;
        let now_us = self.now_us();
        self.for_each_shard(|_, _, column| {
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
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space, as [`PageCache::put`].
    pub fn join_or_lead(&self, key: impl PageRef, deadline: Duration) -> FlightOutcome {
        let slot = self.table.slot_to_write(key);
        let joined = self.with_shard(slot, |_, column| match column.flights.get(&slot) {
            Some(f) => Ok(Arc::clone(f)),
            None => {
                let f = Arc::new(Flight::default());
                column.flights.insert(slot, Arc::clone(&f));
                Err(FlightToken { slot, flight: f })
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
                self.retire_flight(slot, &flight);
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
        self.retire_flight(token.slot, &token.flight);
    }

    /// Take `flight` off `slot`, unless another has taken its place.
    fn retire_flight(&self, slot: u32, flight: &Arc<Flight>) {
        self.with_shard(slot, |_, column| {
            if column
                .flights
                .get(&slot)
                .is_some_and(|f| Arc::ptr_eq(f, flight))
            {
                column.flights.remove(&slot);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pages by slot.
    const A: u32 = 1;
    const B: u32 = 2;
    const C: u32 = 3;
    const D: u32 = 4;
    const HOME: u32 = 5;
    const MEDALS: u32 = 6;
    const K: u32 = 7;
    const PAGE: u32 = 8;
    const BIG: u32 = 9;
    const OLD: u32 = 10;
    const NEW: u32 = 11;
    const NOWHERE: u32 = 999;
    use nagano_telemetry::sync::blocking;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = PageCache::default();
        assert!(c.get(HOME).is_none());
        let v = c.put(HOME, body("<html>day 1</html>"), 50.0);
        assert_eq!(v, 1);
        let page = c.get(HOME).unwrap();
        assert_eq!(&page.body[..], b"<html>day 1</html>");
        assert_eq!(page.version, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn update_in_place_bumps_version() {
        let c = PageCache::default();
        c.put(MEDALS, body("gold: 0"), 10.0);
        let v2 = c.put(MEDALS, body("gold: 1"), 10.0);
        assert_eq!(v2, 2);
        let page = c.get(MEDALS).unwrap();
        assert_eq!(&page.body[..], b"gold: 1");
        assert_eq!(page.version, 2);
        let s = c.stats();
        assert_eq!((s.inserts, s.updates), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let c = PageCache::default();
        c.put(A, body("x"), 1.0);
        assert!(c.invalidate(A));
        assert!(!c.invalidate(A));
        assert!(c.get(A).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn peek_does_not_count() {
        let c = PageCache::default();
        c.put(A, body("1"), 1.0);
        c.peek(A);
        c.peek(NOWHERE);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn byte_accounting_tracks_sizes() {
        let c = PageCache::default();
        c.put(A, body("1234"), 1.0);
        c.put(B, body("12345678"), 1.0);
        assert_eq!(c.bytes(), 12);
        c.put(A, body("12"), 1.0); // shrink in place
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.stats().bytes_current, 10);
        assert_eq!(c.stats().bytes_peak, 12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single shard so the budget applies globally.
        let c = PageCache::new(CacheConfig::bounded(30, ReplacementPolicy::Lru).with_shards(1));
        c.put(A, body("aaaaaaaaaa"), 1.0); // 10 bytes
        c.put(B, body("bbbbbbbbbb"), 1.0);
        c.put(C, body("cccccccccc"), 1.0);
        c.get(A); // /b is now least recent
        c.put(D, body("dddddddddd"), 1.0); // forces one eviction
        assert!(c.contains(A));
        assert!(!c.contains(B));
        assert!(c.contains(C));
        assert!(c.contains(D));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn an_unbounded_hit_writes_no_recency() {
        let recency = |c: &PageCache| {
            c.with_shard(A, |rows, column| {
                let e = rows.get(A).unwrap().cells[0].as_ref().unwrap();
                (column.tick, e.stamp, column.touches.len())
            })
        };
        let c = PageCache::default();
        c.put(A, body("1"), 1.0);
        let before = recency(&c);
        for _ in 0..3 {
            assert!(c.get(A).is_some());
        }
        assert_eq!(recency(&c), before);
        // The hotness window still counts every hit.
        let hits = c.drain_window_hits();
        assert_eq!((hits.len(), hits[0].1), (1, 3));
        // A bounded member's hit ranks the entry anew.
        let b = PageCache::new(CacheConfig::bounded(1_000, ReplacementPolicy::Lru).with_shards(1));
        b.put(A, body("1"), 1.0);
        let (tick, _, queued) = recency(&b);
        b.get(A);
        assert_eq!(recency(&b), (tick + 1, tick + 1, queued + 1));
    }

    #[test]
    fn hits_on_pages_that_fit_keep_the_touch_queue_short() {
        let c =
            PageCache::new(CacheConfig::bounded(1 << 20, ReplacementPolicy::Lru).with_shards(1));
        for i in 0..10 {
            c.put(i, body("page"), 1.0);
        }
        for i in 0..100_000 {
            assert!(c.get(i % 10).is_some());
        }
        let queued = c.with_shard(0, |_, column| column.touches.len());
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
            c.put(i, Bytes::from(vec![b'x'; 16]), 1.0);
        }
        let held = c.bytes();
        assert!(held <= 64, "{held} bytes under a 64-byte budget");
        assert_eq!((c.len(), c.stats().evictions), (4, 6));
    }

    #[test]
    fn oversized_entry_does_not_loop() {
        let c = PageCache::new(CacheConfig::bounded(5, ReplacementPolicy::Lru).with_shards(1));
        c.put(BIG, body("0123456789"), 1.0);
        // Entry itself exceeds the budget: the eviction loop removes it
        // and stops (nothing left to evict).
        assert!(c.bytes() <= 10);
    }

    #[test]
    fn clear_empties_everything() {
        let c = PageCache::default();
        for i in 0..100 {
            c.put(i, body("data"), 1.0);
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
        c.put(A, body("1"), 1.0);
        c.put(B, body("2"), 1.0);
        let mut slots = c.slots();
        slots.sort();
        assert_eq!(slots, vec![A, B]);
    }

    #[test]
    fn drain_window_hits_collects_and_resets() {
        let c = PageCache::default();
        c.put(A, body("1"), 1.0);
        c.put(B, body("2"), 1.0);
        c.put(C, body("3"), 1.0);
        for _ in 0..3 {
            c.get(A);
        }
        c.get(B);
        c.peek(C); // peek must not count as traffic
        c.get(NOWHERE); // miss must not count as traffic
        let mut hits = c.drain_window_hits();
        hits.sort();
        assert_eq!(hits, vec![(A, 3), (B, 1)]);
        // The drain resets the window: nothing new means nothing drained.
        assert!(c.drain_window_hits().is_empty());
        // A fresh window starts counting from zero.
        c.get(A);
        let again = c.drain_window_hits();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0], (A, 1));
    }

    #[test]
    fn drain_window_hits_skips_invalidated_entries() {
        let c = PageCache::default();
        c.put(A, body("1"), 1.0);
        c.get(A);
        c.invalidate(A);
        assert!(c.drain_window_hits().is_empty());
        // Re-inserting and hitting again re-enters the dirty list cleanly.
        c.put(A, body("2"), 1.0);
        c.get(A);
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
                    let key = (i * 7 + t) % 50;
                    match i % 4 {
                        0 => {
                            c.put(key, Bytes::from(vec![b'x'; 64]), 5.0);
                        }
                        3 if i % 16 == 3 => {
                            c.invalidate(key);
                        }
                        _ => {
                            c.get(key);
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
            .slots()
            .into_iter()
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
        c.put(A, body("v1"), 1.0);
        c.put(A, body("v2"), 1.0);
        assert!(c.invalidate(A));
        assert!(c.get(A).is_none(), "live entry is gone");
        let copy = c.serve_stale(A).unwrap();
        assert_eq!(&copy.body[..], b"v2");
        assert_eq!(copy.version, 2);
        assert_eq!(copy.epoch, 1);
        assert_eq!(c.stats().stale_served, 1);
        // A fresh body supersedes the tombstone.
        c.put(A, body("v3"), 1.0);
        assert!(c.serve_stale(A).is_none());
        assert_eq!(c.stale_len(), 0);
    }

    #[test]
    fn stale_epoch_counts_live_to_stale_transitions() {
        let c = PageCache::new(stale_config(60.0));
        assert_eq!(c.stale_epoch(A), 0);
        c.put(A, body("v1"), 1.0);
        c.invalidate(A);
        assert_eq!(c.stale_epoch(A), 1);
        c.put(A, body("v2"), 1.0);
        c.invalidate(A);
        assert_eq!(c.stale_epoch(A), 2);
    }

    #[test]
    fn stale_age_is_bounded_by_the_policy() {
        let c = PageCache::new(stale_config(30.0));
        c.put(A, body("v1"), 1.0);
        c.set_now_secs(100.0);
        c.invalidate(A);
        c.set_now_secs(120.0);
        let copy = c.peek_stale(A).unwrap();
        assert!((copy.age_secs - 20.0).abs() < 1e-9);
        c.set_now_secs(131.0); // 31 s stale > 30 s bound
        assert!(c.serve_stale(A).is_none());
        assert_eq!(c.stale_len(), 0, "expired tombstone pruned on lookup");
        assert_eq!(c.stats().stale_served, 0, "expired copy never counted");
    }

    #[test]
    fn prune_stale_drops_expired_tombstones() {
        let c = PageCache::new(stale_config(10.0));
        c.put(OLD, body("x"), 1.0);
        c.invalidate(OLD);
        c.set_now_secs(5.0);
        c.put(NEW, body("y"), 1.0);
        c.invalidate(NEW);
        c.set_now_secs(11.0);
        c.prune_stale();
        assert_eq!(c.stale_len(), 1);
        assert!(c.peek_stale(NEW).is_some());
    }

    #[test]
    fn eviction_tombstones_under_stale_policy() {
        let c = PageCache::new(
            CacheConfig::bounded(20, ReplacementPolicy::Lru)
                .with_shards(1)
                .with_stale(StalePolicy::bounded(60.0)),
        );
        c.put(A, body("aaaaaaaaaa"), 1.0);
        c.put(B, body("bbbbbbbbbb"), 1.0);
        c.put(C, body("cccccccccc"), 1.0); // evicts /a
        assert!(!c.contains(A));
        let copy = c.serve_stale(A).unwrap();
        assert_eq!(&copy.body[..], b"aaaaaaaaaa");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clear_is_a_cold_restart() {
        let c = PageCache::new(stale_config(60.0));
        c.put(A, body("v1"), 1.0);
        c.invalidate(A);
        assert_eq!(c.stale_len(), 1);
        c.clear();
        assert_eq!(c.stale_len(), 0);
        assert!(c.serve_stale(A).is_none());
    }

    #[test]
    fn without_stale_policy_nothing_is_tombstoned() {
        let c = PageCache::default();
        c.put(A, body("v1"), 1.0);
        c.invalidate(A);
        assert!(c.serve_stale(A).is_none());
        assert_eq!(c.stale_epoch(A), 0);
        assert_eq!(c.stale_len(), 0);
    }

    #[test]
    fn single_flight_has_one_leader_and_counted_followers() {
        let c = PageCache::default();
        let token = match c.join_or_lead(K, Duration::from_millis(10)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("first caller must lead, got {other:?}"),
        };
        // A second caller while the flight is open times out (nobody
        // completes it yet) and counts one coalesced miss.
        match c.join_or_lead(K, Duration::from_millis(5)) {
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
            c.join_or_lead(K, Duration::from_millis(1)),
            FlightOutcome::Lead(_)
        ));
    }

    #[test]
    fn followers_join_the_leaders_result_across_threads() {
        use std::thread;
        let c = Arc::new(PageCache::default());
        let token = match c.join_or_lead(PAGE, Duration::from_secs(5)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("expected lead, got {other:?}"),
        };
        let mut joiners = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joiners.push(thread::spawn(move || {
                c.join_or_lead(PAGE, Duration::from_secs(5))
            }));
        }
        // Give followers a moment to attach, then publish.
        blocking!(thread::sleep(Duration::from_millis(20)));
        c.put(PAGE, body("fresh"), 1.0);
        let page = c.peek(PAGE).unwrap();
        c.complete_flight(token, Some(page));
        for j in joiners {
            match blocking!(j.join()).unwrap() {
                FlightOutcome::Joined(page) => assert_eq!(&page.body[..], b"fresh"),
                // A follower that raced in after completion leads a
                // fresh flight; it must still see the cached body.
                FlightOutcome::Lead(t) => {
                    let cached = c.peek(PAGE).unwrap();
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
        let token = match c.join_or_lead(PAGE, Duration::from_secs(5)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("expected lead, got {other:?}"),
        };
        let follower = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.join_or_lead(PAGE, Duration::from_secs(5)))
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
        let token = match c.join_or_lead(K, Duration::from_millis(1)) {
            FlightOutcome::Lead(t) => t,
            other => panic!("expected lead, got {other:?}"),
        };
        // Leader "dies" (token leaked, never completed). A follower's
        // expired wait clears the flight so the key is not wedged.
        std::mem::forget(token);
        assert!(matches!(
            c.join_or_lead(K, Duration::from_millis(5)),
            FlightOutcome::TimedOut
        ));
        assert!(matches!(
            c.join_or_lead(K, Duration::from_millis(1)),
            FlightOutcome::Lead(_)
        ));
    }

    #[test]
    fn eviction_respects_total_budget_across_fill() {
        let c = PageCache::new(CacheConfig::bounded(1_000, ReplacementPolicy::Lru).with_shards(1));
        for i in 0..200 {
            c.put(i, Bytes::from(vec![0u8; 50]), 1.0);
        }
        assert!(c.bytes() <= 1_000, "bytes {}", c.bytes());
        assert!(c.len() <= 20);
        assert!(c.stats().evictions >= 180);
    }
}
