//! The sharded concurrent page cache.
//!
//! Keys are page slots ([`crate::key`]); values are immutable rendered
//! bodies ([`bytes::Bytes`], so a body handed to a request or kept by its
//! distributor shares one allocation). A [`PageCache`] is one sharded
//! table with one entry per page: its body, its version, the
//! distributor's [`Memo`] of that body and its LRU stamp. Beside a
//! shard's entries sit the shard's own eviction queue, byte count and
//! flights. Slot `s` lives in shard `s & mask`,
//! at index `s >> shift` of that shard's entries, so a lookup takes one
//! shard lock and indexes one vector, and so does a distribution
//! ([`PageCache::distribute_with`]). The lock per shard is a
//! `sync::Mutex`; a cache has [`CacheConfig::shards`] of them, and with
//! the default 16 and short critical sections contention is negligible
//! next to page generation costs. A shard keeps its books inline, so
//! neighbouring shards' locks are 128 bytes apart in an optimised build
//! (`size_of::<Mutex<Shard>>()`), never on one cache line.
//!
//! A bounded cache evicts the least recently used entry. Each shard keeps
//! a queue of touches, oldest first: every write and every hit pushes a
//! `(stamp, slot)` record at the back, eviction pops from the front, and a
//! record whose stamp its entry no longer carries is skipped. Stamps come
//! from a counter that only grows, so the queue is in eviction order
//! without being sorted. An unbounded cache keeps no queue.

use std::any::Any;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nagano_telemetry::sync::{Condvar, Mutex};
use rustc_hash::FxHashMap;

use crate::key::{KeySpace, PageRef};
use crate::policy::ReplacementPolicy;
use crate::stats::{CacheStats, StatsSnapshot};

/// Configuration for a [`PageCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of shards (min 1, rounded up to a power of two).
    pub shards: usize,
    /// The cache's total byte budget across all shards; `None` =
    /// unbounded (the paper's production configuration). A bounded cache
    /// evicts the least recently used entry.
    pub max_bytes: Option<u64>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            max_bytes: None,
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
}

/// Whether `a` and `b` are one view of one allocation.
fn same_allocation(a: &Bytes, b: &Bytes) -> bool {
    a.as_ptr() == b.as_ptr() && a.len() == b.len()
}

/// Byte equality, by address before content: a regeneration that changed
/// nothing hands back the very allocation the cache holds.
fn same_bytes(a: &Bytes, b: &Bytes) -> bool {
    same_allocation(a, b) || (a.len() == b.len() && a[..] == b[..])
}

/// A successful cache lookup.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// The rendered page body.
    pub body: Bytes,
    /// Monotonic per-page version: +1 whenever the body is replaced, and
    /// one past the last version the page's entry had when an entry is
    /// made anew (1 for a page never cached), so no removal, eviction or
    /// [`PageCache::clear`] brings a version back. A distribution of
    /// byte-equal content replaces nothing ([`PageCache::distribute_with`]),
    /// so on an update-in-place site the version — the HTTP `ETag` —
    /// changes iff the bytes change. A [`PageCache::put`] is always a new
    /// version.
    pub version: u64,
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

/// What a distributor keeps of a body beside it in the page's entry
/// ([`PageCache::distribute_with`]). Opaque to the cache.
pub type Memo = Box<dyn Any + Send + Sync>;

/// One page's entry.
struct Row {
    body: Bytes,
    version: u64,
    /// The distributor's memo of `body`; a write of other bytes drops it.
    memo: Option<Memo>,
    /// Identity of the entry's newest touch record, drawn from its
    /// shard's monotonic tick so stale records — including ones
    /// surviving from a previous incarnation of the same page — never
    /// match.
    stamp: u64,
}

/// A shard's entries, by `slot >> shift`; `None` where the page is not
/// cached.
struct Rows {
    at: Vec<Option<Row>>,
    /// The version each slot's entry had when it was last removed, by the
    /// same index: the next entry of the slot counts on from there.
    floors: Vec<u64>,
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

    /// `slot`'s place, made if the vector does not reach it.
    fn place(&mut self, slot: u32) -> &mut Option<Row> {
        let i = self.index(slot);
        if i >= self.at.len() {
            self.at.resize_with(i + 1, || None);
        }
        &mut self.at[i]
    }

    /// The version `slot`'s next new entry is one past.
    fn floor(&self, slot: u32) -> u64 {
        self.floors.get(self.index(slot)).copied().unwrap_or(0)
    }

    /// Keep `row`'s version as the floor of the entry at index `i`.
    fn keep_floor(floors: &mut Vec<u64>, i: usize, row: &Row) {
        if i >= floors.len() {
            floors.resize(i + 1, 0);
        }
        floors[i] = row.version;
    }

    /// Take `slot`'s entry out.
    fn remove(&mut self, slot: u32) -> Option<Row> {
        let i = self.index(slot);
        let row = self.at.get_mut(i)?.take()?;
        Self::keep_floor(&mut self.floors, i, &row);
        Some(row)
    }

    /// Take every entry out, handing each to `removed`.
    fn clear(&mut self, mut removed: impl FnMut(Row)) {
        for (i, place) in self.at.iter_mut().enumerate() {
            if let Some(row) = place.take() {
                Self::keep_floor(&mut self.floors, i, &row);
                removed(row);
            }
        }
    }

    /// The entries held, each with its slot, in slot order; `shard` is the
    /// shard's index, the low bits of each slot.
    fn iter(&self, shard: u32) -> impl Iterator<Item = (u32, &Row)> {
        self.at
            .iter()
            .enumerate()
            .filter_map(move |(i, row)| Some(((i as u32) << self.shift | shard, row.as_ref()?)))
    }
}

/// Stale records a shard's touch queue may hold beyond twice its entries
/// before [`Shard::trim`] drops them.
const TOUCH_SLACK: usize = 16;

/// One shard: its entries, and the books kept beside them.
struct Shard {
    rows: Rows,
    /// A bounded cache's touches, `(stamp, slot)`, oldest first: the
    /// front is the next eviction candidate unless its stamp is stale.
    touches: VecDeque<(u64, u32)>,
    tick: u64,
    bytes: u64,
    entries: usize,
    /// In-flight single-flight regenerations by page.
    flights: FxHashMap<u32, Arc<Flight>>,
}

impl Shard {
    fn new(shift: u32) -> Self {
        Shard {
            rows: Rows {
                at: Vec::new(),
                floors: Vec::new(),
                shift,
            },
            touches: VecDeque::new(),
            tick: 0,
            bytes: 0,
            entries: 0,
            flights: FxHashMap::default(),
        }
    }

    /// Stamp `slot`'s entry with the next tick and push its touch at the
    /// back.
    fn touch(&mut self, slot: u32) {
        self.tick += 1;
        if let Some(row) = self.rows.get_mut(slot) {
            row.stamp = self.tick;
        }
        self.touches.push_back((self.tick, slot));
    }

    /// Drop the stale records once they outnumber the live ones by more
    /// than [`TOUCH_SLACK`], so a cache whose pages fit does not grow its
    /// queue with every hit. Order is kept; what is left is one record
    /// per entry.
    fn trim(&mut self) {
        if self.touches.len() > 2 * self.entries + TOUCH_SLACK {
            let rows = &self.rows;
            self.touches
                .retain(|&(stamp, slot)| rows.get(slot).is_some_and(|e| e.stamp == stamp));
        }
    }

    /// Take `slot`'s entry out of the books; returns its body.
    fn remove(&mut self, slot: u32) -> Option<Bytes> {
        let row = self.rows.remove(slot)?;
        self.bytes -= row.body.len() as u64;
        self.entries -= 1;
        Some(row.body)
    }
}

/// What one visit to a page's entry made of it
/// ([`PageCache::answer_or_take`]).
#[derive(Debug)]
pub enum Visit<T, M> {
    /// What the visitor made of the body and the memo the entry keeps of
    /// it; the entry is as it was.
    Answered(T),
    /// The body, with the memo the entry kept of it taken out of the
    /// entry; `None` if the page is not cached.
    Taken(Option<(Bytes, Option<M>)>),
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
/// cache.put(MEDALS, Bytes::from_static(b"<html>v1</html>"));
/// assert_eq!(cache.get(MEDALS).unwrap().version, 1);
///
/// // The trigger monitor updates stale pages *in place*: the entry is
/// // replaced, never missing, and its version bumps (the HTTP ETag).
/// cache.put(MEDALS, Bytes::from_static(b"<html>v2</html>"));
/// let page = cache.get(MEDALS).unwrap();
/// assert_eq!(&page.body[..], b"<html>v2</html>");
/// assert_eq!(page.version, 2);
/// assert_eq!(cache.stats().misses, 0);
/// ```
///
/// Every call that takes a page takes a [`PageRef`]: a slot, or — on a
/// cache built with a [`KeySpace`] ([`PageCache::with_keys`]) — a name it
/// resolves.
pub struct PageCache {
    shards: Box<[Mutex<Shard>]>,
    mask: usize,
    /// The names [`PageRef`]s other than slots are resolved in.
    keys: Option<Arc<dyn KeySpace>>,
    /// The byte budget of one shard; `None` for an unbounded cache, which
    /// keeps no touch queue.
    per_shard_budget: Option<u64>,
    stats: Arc<CacheStats>,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("shards", &self.shards.len())
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
    /// Create a cache from `config`. Its byte budget, if it has one, is
    /// split evenly over its shards.
    pub fn new(config: CacheConfig) -> Self {
        Self::build(config, None)
    }

    /// [`PageCache::new`] whose pages may also be named in `keys`: every
    /// call that takes a [`PageRef`] resolves a name there, and
    /// [`PageCache::export_entries`] names each slot by it.
    pub fn with_keys(config: CacheConfig, keys: Arc<dyn KeySpace>) -> Self {
        Self::build(config, Some(keys))
    }

    fn build(config: CacheConfig, keys: Option<Arc<dyn KeySpace>>) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let shift = n.trailing_zeros();
        PageCache {
            shards: (0..n).map(|_| Mutex::new(Shard::new(shift))).collect(),
            mask: n - 1,
            keys,
            per_shard_budget: config.max_bytes.map(|b| b / n as u64),
            stats: Arc::default(),
        }
    }

    fn shard_for(&self, slot: u32) -> &Mutex<Shard> {
        &self.shards[slot as usize & self.mask]
    }

    /// Run `f` on every shard in index order, with the shard's index.
    fn for_each_shard(&self, mut f: impl FnMut(u32, &mut Shard)) {
        for (i, s) in self.shards.iter().enumerate() {
            f(i as u32, &mut s.lock());
        }
    }

    /// The slot `key` names; `None` for a name outside the key space.
    fn slot(&self, key: impl PageRef) -> Option<u32> {
        key.slot_in(self.keys.as_deref())
    }

    /// The slot `key` names, which a write must have.
    fn slot_to_write(&self, key: impl PageRef) -> u32 {
        match self.slot(key) {
            Some(slot) => slot,
            None => panic!("a page is written by slot, or by a name in the cache's key space"),
        }
    }

    /// The name of the page in `slot`: its key space's, or the slot in
    /// decimal.
    fn name(&self, slot: u32) -> String {
        match &self.keys {
            Some(keys) => keys.name(slot),
            None => slot.to_string(),
        }
    }

    /// Run `f` on the entry for `key` — body, version — if there is one.
    fn with_entry<T>(&self, key: impl PageRef, f: impl FnOnce(&Bytes, u64) -> T) -> Option<T> {
        let slot = self.slot(key)?;
        let shard = self.shard_for(slot).lock();
        let row = shard.rows.get(slot)?;
        Some(f(&row.body, row.version))
    }

    /// Write `body` into `slot`'s entry of `shard` at its next version,
    /// with `memo` as the memo of it, and bring the shard back within its
    /// budget, sparing the entry. Returns the version written and the
    /// body replaced, which the caller frees after the lock is released.
    fn write(
        &self,
        shard: &mut Shard,
        slot: u32,
        body: Bytes,
        memo: Option<Memo>,
    ) -> (u64, Option<Bytes>) {
        let size = body.len() as u64;
        let floor = shard.rows.floor(slot);
        let (version, replaced) = match shard.rows.place(slot) {
            Some(row) => {
                let old = row.body.len() as u64;
                // A padded page keeps its length: the common replacement
                // leaves the shard's count, and its cache line, alone.
                if old != size {
                    shard.bytes = shard.bytes - old + size;
                }
                self.stats.update(old, size);
                row.version += 1;
                row.memo = memo;
                (row.version, Some(std::mem::replace(&mut row.body, body)))
            }
            place => {
                *place = Some(Row {
                    body,
                    version: floor + 1,
                    memo,
                    stamp: 0,
                });
                shard.bytes += size;
                shard.entries += 1;
                self.stats.insert(size);
                (floor + 1, None)
            }
        };
        if let Some(budget) = self.per_shard_budget {
            shard.touch(slot);
            self.evict_to(shard, budget, slot);
        }
        (version, replaced)
    }

    /// Pop `shard`'s least recently used entries until its
    /// `bytes <= budget` or only `protect` is left.
    ///
    /// `protect` is the entry that triggered the eviction, the page just
    /// written: a write never evicts it, so an entry larger than the
    /// budget stays until the next write. Its record is the queue's last.
    fn evict_to(&self, shard: &mut Shard, budget: u64, protect: u32) {
        while shard.bytes > budget {
            let Some((stamp, slot)) = shard.touches.pop_front() else {
                break;
            };
            if shard.rows.get(slot).is_none_or(|e| e.stamp != stamp) {
                continue; // stale record
            }
            if slot == protect {
                shard.touches.push_front((stamp, slot));
                break;
            }
            if let Some(body) = shard.remove(slot) {
                self.stats.evict(body.len() as u64);
            }
        }
        shard.trim();
    }

    /// Distribute a freshly rendered page (the trigger monitor's
    /// prefetch/update-in-place path); returns whether the cache's bytes
    /// changed.
    ///
    /// An entry that holds `body`'s bytes already is kept as it is —
    /// allocation, version, recency — so a regeneration that changed
    /// nothing changes no `ETag`; any other takes `body` at its next
    /// version, under the one lock a lookup of the page takes. `memo`, if
    /// any, becomes the entry's memo of the body it then holds, until a
    /// write of other bytes or the entry's removal drops it.
    ///
    /// `held` is the body `body` was rendered onto, if any, on the
    /// renderer's contract that `body` is that very allocation if and only
    /// if its bytes are `held`'s. While the entry still holds `held`, that
    /// address is the verdict and no byte is compared; an entry that moved
    /// on since — a fill, an invalidation, a clear, another distribution —
    /// and a distribution with no `held` compare bytes.
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space, as [`PageCache::put`].
    pub fn distribute_with(
        &self,
        key: impl PageRef,
        body: Bytes,
        held: Option<&Bytes>,
        memo: Option<Memo>,
    ) -> bool {
        let slot = self.slot_to_write(key);
        let mut shard = self.shard_for(slot).lock();
        if let Some(row) = shard.rows.get_mut(slot) {
            let unchanged = match held {
                Some(held) if same_allocation(&row.body, held) => same_allocation(held, &body),
                _ => same_bytes(&row.body, &body),
            };
            if unchanged {
                if memo.is_some() {
                    row.memo = memo;
                }
                return false;
            }
        }
        let (_, replaced) = self.write(&mut shard, slot, body, memo);
        // What the entry held is freed after the lock is released.
        drop(shard);
        drop(replaced);
        true
    }

    /// The body cached for `key`, with the memo of type `M` the entry
    /// keeps of it taken out of the entry (and dropped if it is not an
    /// `M`): what a regeneration renders onto and hands back with its
    /// distribution.
    pub fn take_held<M: Any>(&self, key: impl PageRef) -> Option<(Bytes, Option<Box<M>>)> {
        match self.answer_or_take(key, |_, _: &M| None::<Infallible>) {
            Visit::Taken(held) => held,
            Visit::Answered(never) => match never {},
        }
    }

    /// One visit to the page's entry, under its lock: what `answer` makes
    /// of the body and the memo of type `M` the entry keeps of it, if
    /// there are such and it makes something; else
    /// [`PageCache::take_held`]'s body and memo, taken out in the same
    /// visit. Counts and touches nothing.
    pub fn answer_or_take<M: Any, T>(
        &self,
        key: impl PageRef,
        answer: impl FnOnce(&Bytes, &M) -> Option<T>,
    ) -> Visit<T, Box<M>> {
        let Some(slot) = self.slot(key) else {
            return Visit::Taken(None);
        };
        let (body, memo) = {
            let mut shard = self.shard_for(slot).lock();
            let Some(row) = shard.rows.get_mut(slot) else {
                return Visit::Taken(None);
            };
            let memo = row.memo.as_ref().and_then(|memo| memo.downcast_ref());
            if let Some(answered) = memo.and_then(|memo| answer(&row.body, memo)) {
                return Visit::Answered(answered);
            }
            (row.body.clone(), row.memo.take())
        };
        Visit::Taken(Some((body, memo.and_then(|memo| memo.downcast().ok()))))
    }

    /// `f` of the body cached for `key` and the memo of type `M` the entry
    /// keeps of it, under the entry's lock, if there are such. Counts and
    /// touches nothing.
    pub fn with_memo<M: Any, T>(
        &self,
        key: impl PageRef,
        f: impl FnOnce(&Bytes, &M) -> T,
    ) -> Option<T> {
        let slot = self.slot(key)?;
        let shard = self.shard_for(slot).lock();
        let row = shard.rows.get(slot)?;
        Some(f(&row.body, row.memo.as_ref()?.downcast_ref()?))
    }

    /// Whether the page's entry keeps a memo.
    pub fn has_memo(&self, key: impl PageRef) -> bool {
        let Some(slot) = self.slot(key) else {
            return false;
        };
        let shard = self.shard_for(slot).lock();
        shard.rows.get(slot).is_some_and(|row| row.memo.is_some())
    }

    // ---- adapters for callers that walk a fleet ---------------------------
    //
    // The wall-clock harness still addresses the serving nodes of a
    // complex by index; a cache is one node. These go with ROADMAP 1(h).

    /// The cache, as a slice of one member.
    pub fn members(self: &Arc<Self>) -> &[Arc<PageCache>] {
        std::slice::from_ref(self)
    }

    /// `members()[i]`: the cache itself for `i == 0`.
    ///
    /// # Panics
    ///
    /// For any other `i`.
    pub fn member(self: &Arc<Self>, i: usize) -> &Arc<PageCache> {
        &self.members()[i]
    }

    /// [`PageCache::get`] on `member(i)`.
    ///
    /// # Panics
    ///
    /// For any `i` but 0, as [`PageCache::member`].
    pub fn get_from(&self, i: usize, key: impl PageRef) -> Option<CachedPage> {
        assert_eq!(i, 0, "a cache is one member");
        self.get(key)
    }

    /// [`PageCache::distribute_with`] without a memo. The third argument,
    /// once the page's generation cost, is ignored.
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space: it names no slot.
    pub fn distribute(&self, key: impl PageRef, body: Bytes, _: f64) -> bool {
        self.distribute_with(key, body, None, None)
    }

    /// Shared handle to the statistics block.
    pub fn stats_handle(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Look up `key`, recording a hit or miss and touching recency state.
    pub fn get(&self, key: impl PageRef) -> Option<CachedPage> {
        let page = self.slot(key).and_then(|slot| {
            let mut shard = self.shard_for(slot).lock();
            let row = shard.rows.get(slot)?;
            let page = CachedPage {
                body: row.body.clone(),
                version: row.version,
            };
            // Recency orders a bounded cache's eviction queue and nothing
            // else: a hit on an unbounded one writes none.
            if self.per_shard_budget.is_some() {
                shard.touch(slot);
                shard.trim();
            }
            Some(page)
        });
        match page {
            Some(_) => self.stats.hit(),
            None => self.stats.miss(),
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

    /// Insert or update-in-place, dropping the entry's memo. Returns the
    /// entry's new version (1 for a fresh insert).
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space: it names no slot.
    pub fn put(&self, key: impl PageRef, body: Bytes) -> u64 {
        let slot = self.slot_to_write(key);
        let mut shard = self.shard_for(slot).lock();
        let (version, replaced) = self.write(&mut shard, slot, body, None);
        drop(shard);
        drop(replaced);
        version
    }

    /// Remove `key`; returns the body it held, if it was present, as
    /// `HashMap::remove` does: the caller may keep it, or let it go after
    /// the lock is released.
    pub fn invalidate(&self, key: impl PageRef) -> Option<Bytes> {
        let slot = self.slot(key)?;
        let mut shard = self.shard_for(slot).lock();
        let body = shard.remove(slot)?;
        self.stats.invalidate(body.len() as u64);
        Some(body)
    }

    /// Whether `key` is cached.
    pub fn contains(&self, key: impl PageRef) -> bool {
        self.with_entry(key, |_, _| ()).is_some()
    }

    /// The entries, shard by shard in index order, each shard's in slot
    /// order, as `f` sees them.
    fn collect_entries<T>(&self, mut f: impl FnMut(u32, &Bytes, u64) -> T) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_shard(|i, shard| {
            for (slot, row) in shard.rows.iter(i) {
                out.push(f(slot, &row.body, row.version));
            }
        });
        out
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        let mut total = 0;
        self.for_each_shard(|_, shard| total += shard.entries);
        total
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        let mut total = 0;
        self.for_each_shard(|_, shard| total += shard.bytes);
        total
    }

    /// Drop every entry (counted as invalidations). This is a *cold*
    /// restart: in-flight regenerations are wiped too. Each page's next
    /// entry counts its versions on from the one dropped.
    pub fn clear(&self) {
        self.for_each_shard(|_, shard| {
            shard
                .rows
                .clear(|row| self.stats.invalidate(row.body.len() as u64));
            (shard.bytes, shard.entries) = (0, 0);
            shard.touches.clear();
            shard.flights.clear();
        });
    }

    /// The slots of every cached page (for diagnostics; takes each shard
    /// lock in turn).
    pub fn slots(&self) -> Vec<u32> {
        self.collect_entries(|slot, _, _| slot)
    }

    /// Every entry: `(slot, body, 0.0, version)`. Bodies are refcounted
    /// views, so listing them is cheap. The third place, once a
    /// generation cost, reads 0 since the cache keeps none.
    pub fn entries(&self) -> Vec<(u32, Bytes, f64, u64)> {
        self.collect_entries(|slot, body, version| (slot, body.clone(), 0.0, version))
    }

    /// [`PageCache::entries`] with each page named: `(name, body, 0.0,
    /// version)`, the name its key space gives the slot (the slot in
    /// decimal without one) — the adapter for callers that hold URLs.
    pub fn export_entries(&self) -> Vec<(String, Bytes, f64, u64)> {
        let named = |slot, body: &Bytes, version| (self.name(slot), body.clone(), 0.0, version);
        self.collect_entries(named)
    }

    // ---- single-flight regeneration ---------------------------------------

    /// Coalesce a miss for `key` onto any in-flight regeneration.
    ///
    /// The first caller becomes the *leader* ([`FlightOutcome::Lead`]) and
    /// must regenerate, then call [`PageCache::complete_flight`]. Callers
    /// arriving while the flight is open are *followers*: they count one
    /// coalesced miss, block up to `deadline`, and either observe the
    /// leader's result ([`FlightOutcome::Joined`]) or give up
    /// ([`FlightOutcome::TimedOut`]). A follower whose wait expires while
    /// the flight is still open removes the (presumed dead) flight so the
    /// next miss can lead again.
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space, as [`PageCache::put`].
    pub fn join_or_lead(&self, key: impl PageRef, deadline: Duration) -> FlightOutcome {
        let slot = self.slot_to_write(key);
        let flight = {
            let mut shard = self.shard_for(slot).lock();
            match shard.flights.get(&slot) {
                Some(f) => Arc::clone(f),
                None => {
                    let flight = Arc::new(Flight::default());
                    shard.flights.insert(slot, Arc::clone(&flight));
                    return FlightOutcome::Lead(FlightToken { slot, flight });
                }
            }
        };
        self.stats.coalesce();
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
        let mut shard = self.shard_for(slot).lock();
        if shard
            .flights
            .get(&slot)
            .is_some_and(|f| Arc::ptr_eq(f, flight))
        {
            shard.flights.remove(&slot);
        }
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
    const NOWHERE: u32 = 999;
    use nagano_telemetry::sync::blocking;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = PageCache::default();
        assert!(c.get(HOME).is_none());
        let v = c.put(HOME, body("<html>day 1</html>"));
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
        c.put(MEDALS, body("gold: 0"));
        let v2 = c.put(MEDALS, body("gold: 1"));
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
        c.put(A, body("x"));
        assert_eq!(c.invalidate(A).as_deref(), Some(&b"x"[..]));
        assert!(c.invalidate(A).is_none());
        assert!(c.get(A).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn peek_does_not_count() {
        let c = PageCache::default();
        c.put(A, body("1"));
        c.peek(A);
        c.peek(NOWHERE);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn byte_accounting_tracks_sizes() {
        let c = PageCache::default();
        c.put(A, body("1234"));
        c.put(B, body("12345678"));
        assert_eq!(c.bytes(), 12);
        c.put(A, body("12")); // shrink in place
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.stats().bytes_current, 10);
        assert_eq!(c.stats().bytes_peak, 12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single shard so the budget applies globally.
        let c = PageCache::new(CacheConfig::bounded(30, ReplacementPolicy::Lru).with_shards(1));
        c.put(A, body("aaaaaaaaaa")); // 10 bytes
        c.put(B, body("bbbbbbbbbb"));
        c.put(C, body("cccccccccc"));
        c.get(A); // /b is now least recent
        c.put(D, body("dddddddddd")); // forces one eviction
        assert!(c.contains(A));
        assert!(!c.contains(B));
        assert!(c.contains(C));
        assert!(c.contains(D));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn an_unbounded_hit_writes_no_recency() {
        let recency = |c: &PageCache| {
            let shard = c.shard_for(A).lock();
            let e = shard.rows.get(A).unwrap();
            (shard.tick, e.stamp, shard.touches.len())
        };
        let c = PageCache::default();
        c.put(A, body("1"));
        let before = recency(&c);
        for _ in 0..3 {
            assert!(c.get(A).is_some());
        }
        assert_eq!(recency(&c), before);
        // A bounded cache's hit ranks the entry anew.
        let b = PageCache::new(CacheConfig::bounded(1_000, ReplacementPolicy::Lru).with_shards(1));
        b.put(A, body("1"));
        let (tick, _, queued) = recency(&b);
        b.get(A);
        assert_eq!(recency(&b), (tick + 1, tick + 1, queued + 1));
    }

    #[test]
    fn hits_on_pages_that_fit_keep_the_touch_queue_short() {
        let c =
            PageCache::new(CacheConfig::bounded(1 << 20, ReplacementPolicy::Lru).with_shards(1));
        for i in 0..10 {
            c.put(i, body("page"));
        }
        for i in 0..100_000 {
            assert!(c.get(i % 10).is_some());
        }
        let queued = c.shard_for(0).lock().touches.len();
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
            c.put(i, Bytes::from(vec![b'x'; 16]));
        }
        let held = c.bytes();
        assert!(held <= 64, "{held} bytes under a 64-byte budget");
        assert_eq!((c.len(), c.stats().evictions), (4, 6));
    }

    #[test]
    fn oversized_entry_does_not_loop() {
        let c = PageCache::new(CacheConfig::bounded(5, ReplacementPolicy::Lru).with_shards(1));
        c.put(BIG, body("0123456789"));
        // Entry itself exceeds the budget: the eviction loop removes it
        // and stops (nothing left to evict).
        assert!(c.bytes() <= 10);
    }

    #[test]
    fn clear_empties_everything() {
        let c = PageCache::default();
        for i in 0..100 {
            c.put(i, body("data"));
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
        c.put(A, body("1"));
        c.put(B, body("2"));
        let mut slots = c.slots();
        slots.sort();
        assert_eq!(slots, vec![A, B]);
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
                            c.put(key, Bytes::from(vec![b'x'; 64]));
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

    #[test]
    fn distribute_shares_the_body_allocation() {
        let c = PageCache::default();
        let b = body("shared");
        c.distribute_with(PAGE, b.clone(), None, None);
        // Bytes clones are refcounted views of one buffer.
        let got = c.peek(PAGE).unwrap().body;
        assert_eq!(got.as_ptr(), b.as_ptr());
    }

    #[test]
    fn a_distribution_that_changes_nothing_keeps_every_entry() {
        let c = PageCache::default();
        let first = body("standings");
        assert!(c.distribute_with(MEDALS, first.clone(), None, None));
        let updates = c.stats().updates;
        // The same bytes in a new allocation, then in the held one.
        let held = c.peek_body(MEDALS).unwrap();
        assert_eq!(held.as_ptr(), first.as_ptr());
        for again in [body("standings"), held] {
            assert!(!c.distribute_with(MEDALS, again, None, None));
        }
        assert_eq!(c.stats().updates, updates);
        let page = c.peek(MEDALS).unwrap();
        assert_eq!(page.version, 1);
        assert_eq!(page.body.as_ptr(), first.as_ptr());
        // An entry a fill changed behind the distributor's back is brought
        // back by the next distribution, at its next version.
        c.put(MEDALS, body("a demand fill"));
        assert!(c.distribute_with(MEDALS, body("standings"), None, None));
        assert!(c.peek_body(NOWHERE).is_none());
        assert_eq!(c.peek(MEDALS).unwrap().version, 3);
    }

    #[test]
    fn an_entry_keeps_its_memo_while_it_holds_its_body() {
        let memo = || -> Option<Memo> { Some(Box::new(7_u8)) };
        let remembered = |c: &PageCache| c.with_memo(A, |_, &m: &u8| m) == Some(7);
        let c = PageCache::default();
        let first = body("/a");
        assert!(c.distribute_with(A, first.clone(), None, memo()) && remembered(&c));
        // Taken out with the body it is of, and handed back with it.
        let (held, taken) = c.take_held::<u8>(A).unwrap();
        assert!(held.as_ptr() == first.as_ptr() && !c.has_memo(A));
        assert!(!c.distribute_with(A, held, None, taken.map(|m| m as Memo)));
        // Kept by a distribution of the bytes held, and of no other type.
        assert!(!c.distribute_with(A, body("/a"), None, None));
        assert!(remembered(&c) && c.with_memo(A, |_, _: &u16| ()).is_none());
        // Dropped by a fill, by a distribution of other bytes, by an
        // invalidation and by a clear.
        c.put(A, body("/a"));
        assert!(!c.has_memo(A));
        c.distribute_with(A, first.clone(), None, memo());
        assert!(c.distribute_with(A, body("/a, again"), None, None) && !c.has_memo(A));
        c.distribute_with(A, body("/a"), None, memo());
        c.invalidate(A);
        assert!(!c.has_memo(A));
        c.distribute_with(A, first, None, memo());
        c.clear();
        assert!(!c.has_memo(A) && c.take_held::<u8>(A).is_none());
    }

    /// Names slot `n` `/p{n}`.
    #[derive(Debug)]
    struct Numbered;

    impl KeySpace for Numbered {
        fn slot(&self, name: &str) -> Option<u32> {
            name.strip_prefix("/p")?.parse().ok()
        }

        fn name(&self, slot: u32) -> String {
            format!("/p{slot}")
        }
    }

    #[test]
    fn names_resolve_in_the_key_space() {
        let c = Arc::new(PageCache::with_keys(
            CacheConfig::default(),
            Arc::new(Numbered),
        ));
        assert!(c.distribute("/p7", body("seven"), 1.0));
        assert_eq!(&c.get_from(0, 7).unwrap().body[..], b"seven");
        assert!(c.contains("/p7") && c.contains(7));
        assert!(c.get_from(0, "/nowhere").is_none());
        // The adapters' one member is the cache itself.
        assert!(Arc::ptr_eq(c.member(0), &c) && c.members().len() == 1);
        let entries = c.member(0).export_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].0.as_str(), entries[0].3), ("/p7", 1));
        // Without a key space no name resolves, and a slot exports as
        // itself.
        let plain = PageCache::default();
        plain.distribute_with(7, body("seven"), None, None);
        assert!(plain.get_from(0, "/p7").is_none());
        assert_eq!(plain.export_entries()[0].0, "7");
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn a_name_outside_the_key_space_is_not_written() {
        let c = PageCache::with_keys(CacheConfig::default(), Arc::new(Numbered));
        c.distribute("/nowhere", body("x"), 1.0);
    }

    #[test]
    fn clear_is_a_cold_restart() {
        let c = PageCache::default();
        c.put(A, body("v1"));
        let FlightOutcome::Lead(token) = c.join_or_lead(K, Duration::from_millis(1)) else {
            panic!("nothing was in flight");
        };
        c.clear();
        assert!(c.is_empty() && c.get(A).is_none());
        // The open flight went with the entries: the next miss leads.
        assert!(matches!(
            c.join_or_lead(K, Duration::from_millis(1)),
            FlightOutcome::Lead(_)
        ));
        drop(token);
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
        c.put(PAGE, body("fresh"));
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
            c.put(i, Bytes::from(vec![0u8; 50]));
        }
        assert!(c.bytes() <= 1_000, "bytes {}", c.bytes());
        assert!(c.len() <= 20);
        assert!(c.stats().evictions >= 180);
    }
}
