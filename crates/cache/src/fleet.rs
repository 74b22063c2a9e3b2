//! The per-frame cache fleet.
//!
//! Inside one SP2 (Figure 6 of the paper), the trigger monitor on the SMP
//! renders updated pages once and **distributes** them to the eight
//! uniprocessor serving nodes. [`CacheFleet`] models that arrangement: one
//! logical page store replicated across N member caches, with broadcast
//! update/invalidate operations. The members are the columns of one table
//! (see [`crate::cache`]), so a broadcast takes one lock and indexes one
//! row whatever the fleet's size, and `Bytes` bodies are
//! reference-counted, so a distributed page costs one allocation. The
//! distributor's [`Memo`] of a body rides with the body's distribution and
//! lives in the page's row for as long as some member holds that body.

use std::any::Any;
use std::convert::Infallible;
use std::sync::Arc;

use bytes::Bytes;
use rustc_hash::FxHashMap;

use crate::cache::{CacheConfig, CachedPage, Memo, PageCache, Table, Visit};
use crate::hotness::{HotnessTracker, EWMA_ALPHA};
use crate::key::{KeySpace, PageRef};
use crate::stats::StatsSnapshot;

/// A set of replicated serving caches fed by one distributor.
#[derive(Debug)]
pub struct CacheFleet {
    table: Arc<Table>,
    /// A handle per column of `table`.
    members: Vec<Arc<PageCache>>,
    /// Fleet-wide EWMA hotness, folded from the members' window-hit
    /// counters by [`CacheFleet::fold_hotness`]. Requests are spread over
    /// all members by the dispatcher, so hotness is meaningful only as an
    /// aggregate across the fleet.
    hotness: HotnessTracker,
}

impl CacheFleet {
    /// Build a fleet of `n` members (n >= 1), each configured with
    /// `config`: the columns of one table of `config.shards × n` locks,
    /// over which each member's byte budget, if it has one, is split
    /// evenly. Pages are named by slot alone.
    pub fn new(n: usize, config: CacheConfig) -> Self {
        Self::build(n, config, None)
    }

    /// [`CacheFleet::new`] whose pages may also be named in `keys`: every
    /// call that takes a [`PageRef`] resolves a name there, and
    /// [`PageCache::export_entries`] names each slot by it.
    pub fn with_keys(n: usize, config: CacheConfig, keys: Arc<dyn KeySpace>) -> Self {
        Self::build(n, config, Some(keys))
    }

    fn build(n: usize, config: CacheConfig, keys: Option<Arc<dyn KeySpace>>) -> Self {
        assert!(n >= 1, "a fleet needs at least one cache");
        let table = Table::new(&config, n, keys);
        CacheFleet {
            members: (0..n)
                .map(|i| Arc::new(PageCache::member_of(Arc::clone(&table), i)))
                .collect(),
            table,
            hotness: HotnessTracker::default(),
        }
    }

    /// Number of member caches.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false (construction requires n >= 1).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Handle to member `i`.
    pub fn member(&self, i: usize) -> &Arc<PageCache> {
        &self.members[i]
    }

    /// All members.
    pub fn members(&self) -> &[Arc<PageCache>] {
        &self.members
    }

    /// Serve a lookup from member `i` (a request routed to serving node
    /// `i` by the dispatcher).
    pub fn get_from(&self, i: usize, key: impl PageRef) -> Option<CachedPage> {
        self.members[i].get(key)
    }

    /// The first member's body for `key`, counting and touching nothing:
    /// what the last distribution left on the fleet, unless that member
    /// let it go or took another.
    pub fn distributed(&self, key: impl PageRef) -> Option<Bytes> {
        self.members[0].peek_body(key)
    }

    /// Distribute a freshly rendered page to every member (the trigger
    /// monitor's prefetch/update-in-place path); returns whether any
    /// member's bytes changed.
    ///
    /// A member that holds `body`'s bytes already keeps its entry as it
    /// is — allocation, version, cost, recency — so a regeneration that
    /// changed nothing changes no `ETag`. The members' entries lie side by
    /// side in the page's row, which is found once and walked under its
    /// shard's lock: a lookup on any member sees the page as it was before
    /// the distribution or as it is after, on every member alike. Members
    /// that do take the body share its allocation, each at its own next
    /// version: one that took a local fill stays a version ahead.
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space: it names no slot.
    pub fn distribute(&self, key: impl PageRef, body: Bytes, cost: f64) -> bool {
        self.distribute_with(key, body, cost, None)
    }

    /// [`CacheFleet::distribute`], keeping `memo`, if any, in the page's row
    /// as the memo of the body every member then holds, until the last
    /// member to hold that allocation lets it go.
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space, as [`CacheFleet::distribute`].
    pub fn distribute_with(
        &self,
        key: impl PageRef,
        body: Bytes,
        cost: f64,
        memo: Option<Memo>,
    ) -> bool {
        let slot = self.table.slot_to_write(key);
        self.table.distribute(slot, body, cost, memo)
    }

    /// The first member's body for `key`, with the memo the page's row
    /// keeps of that very allocation taken out of the row (and dropped if
    /// it is not an `M`): what a regeneration renders onto and hands back
    /// with its distribution.
    pub fn take_held<M: Any>(&self, key: impl PageRef) -> Option<(Bytes, Option<Box<M>>)> {
        match self.answer_or_take(key, |_, _: &M| None::<Infallible>) {
            Visit::Taken(held) => held,
            Visit::Answered(never) => match never {},
        }
    }

    /// One visit to the page's row, under its lock: what `answer` makes of
    /// the body every member holds and the memo of type `M` the row keeps
    /// of it, if there are such and it makes something; else
    /// [`CacheFleet::take_held`]'s body and memo, taken out in the same
    /// visit. Counts and touches nothing.
    pub fn answer_or_take<M: Any, T>(
        &self,
        key: impl PageRef,
        answer: impl FnOnce(&Bytes, &M) -> Option<T>,
    ) -> Visit<T, Box<M>> {
        let Some(slot) = self.table.slot(key) else {
            return Visit::Taken(None);
        };
        let answer = |body: &Bytes, memo: &Memo| answer(body, memo.downcast_ref()?);
        match self.table.visit(slot, answer) {
            Visit::Answered(answered) => Visit::Answered(answered),
            Visit::Taken(held) => Visit::Taken(
                held.map(|(body, memo)| (body, memo.and_then(|memo| memo.downcast().ok()))),
            ),
        }
    }

    /// `f` of the first member's body for `key` and the memo of type `M`
    /// the page's row keeps, under the row's lock, if every member holds
    /// the allocation the memo is of. Counts and touches nothing.
    pub fn with_memo<M: Any, T>(
        &self,
        key: impl PageRef,
        f: impl FnOnce(&Bytes, &M) -> T,
    ) -> Option<T> {
        let slot = self.table.slot(key)?;
        let f = |body: &Bytes, memo: &Memo| Some(f(body, memo.downcast_ref()?));
        self.table.with_memo(slot, f)?
    }

    /// Whether the page's row keeps a memo: of a body some member holds.
    pub fn has_memo(&self, key: impl PageRef) -> bool {
        self.table
            .slot(key)
            .is_some_and(|slot| self.table.has_memo(slot))
    }

    /// Broadcast an invalidation; returns how many members held the key.
    pub fn invalidate_everywhere(&self, key: impl PageRef) -> usize {
        let all = 0..self.members.len();
        self.table
            .slot(key)
            .map_or(0, |slot| self.table.invalidate(slot, all))
    }

    /// Insert into a single member only (a demand-miss fill on one serving
    /// node, the pre-DUP behaviour). Returns the version the member gave
    /// the entry — the only moment it is known for certain: on a bounded
    /// cache the entry may be evicted before anyone can look it up.
    pub fn put_local(&self, i: usize, key: impl PageRef, body: Bytes, cost: f64) -> u64 {
        self.members[i].put(key, body, cost)
    }

    /// Aggregate statistics over all members.
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for m in &self.members {
            total += m.stats();
        }
        total
    }

    /// Advance every member's cache clock (stale-age bookkeeping).
    pub fn set_now_secs(&self, secs: f64) {
        for m in &self.members {
            m.set_now_secs(secs);
        }
    }

    /// Clear every member.
    pub fn clear(&self) {
        for m in &self.members {
            m.clear();
        }
    }

    /// Fold every member's window-hit counters into the fleet EWMA as of
    /// sim minute `minute`. Called once per minute by the cluster
    /// heartbeat; between folds the members just bump per-entry counters
    /// under their existing shard locks. Counts for the same page across
    /// members are summed before folding so fleet size never skews the
    /// EWMA scale.
    pub fn fold_hotness(&self, minute: u64) {
        let mut window: FxHashMap<u32, u64> = FxHashMap::default();
        let mut order: Vec<u32> = Vec::new();
        for m in &self.members {
            for (slot, n) in m.drain_window_hits() {
                match window.get_mut(&slot) {
                    Some(total) => *total += n,
                    None => {
                        window.insert(slot, n);
                        order.push(slot);
                    }
                }
            }
        }
        self.hotness.fold(
            order.into_iter().map(|slot| (slot, window[&slot])),
            minute,
            EWMA_ALPHA,
        );
    }

    /// Current EWMA hotness of `key` as of sim minute `minute` (0.0 for
    /// pages with no tracked traffic).
    pub fn hotness(&self, key: impl PageRef, minute: u64) -> f64 {
        self.table
            .slot(key)
            .map_or(0.0, |slot| self.hotness.get(slot, minute, EWMA_ALPHA))
    }

    /// Hot/cold split threshold: a page is hot iff its hotness is `>=`
    /// the returned value. See [`HotnessTracker::threshold`] for the
    /// quantile rule and the `±inf` sentinels.
    pub fn hotness_threshold(&self, hot_permille: u16, minute: u64) -> f64 {
        self.hotness.threshold(hot_permille, minute, EWMA_ALPHA)
    }

    /// Resynchronise member `to` from member `from`: a recovered serving
    /// node repopulates its cache from a healthy peer before the advisors
    /// put it back in rotation, so it rejoins warm and version-consistent.
    /// Returns the number of entries copied.
    pub fn resync(&self, from: usize, to: usize) -> usize {
        assert_ne!(from, to, "cannot resync a member from itself");
        let entries = self.members[from].entries();
        let n = entries.len();
        let target = &self.members[to];
        target.clear();
        for (slot, body, cost, version) in entries {
            target.restore_entry(slot, body, cost, version);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pages by slot.
    const A: u32 = 1;
    const B: u32 = 2;
    const C: u32 = 3;
    const X: u32 = 4;
    const MEDALS: u32 = 7;
    const TODAY: u32 = 8;
    const EVENT: u32 = 9;
    const HOT: u32 = 10;
    const COLD: u32 = 11;
    const JUNK: u32 = 12;
    const NOWHERE: u32 = 999;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn distribute_reaches_all_members() {
        let fleet = CacheFleet::new(8, CacheConfig::default());
        fleet.distribute(TODAY, body("<html>results</html>"), 40.0);
        for i in 0..8 {
            let page = fleet.get_from(i, TODAY).unwrap();
            assert_eq!(&page.body[..], b"<html>results</html>");
        }
        assert_eq!(fleet.aggregate_stats().hits, 8);
    }

    #[test]
    fn distribute_shares_the_body_allocation() {
        let fleet = CacheFleet::new(4, CacheConfig::default());
        let b = body("shared");
        fleet.distribute(X, b.clone(), 1.0);
        // Bytes clones are refcounted views of one buffer.
        let got = fleet.member(0).peek(X).unwrap().body;
        assert_eq!(got.as_ptr(), b.as_ptr());
    }

    #[test]
    fn a_distribution_that_changes_nothing_keeps_every_entry() {
        let fleet = CacheFleet::new(8, CacheConfig::default());
        let first = body("standings");
        assert!(fleet.distribute(MEDALS, first.clone(), 1.0));
        let updates = fleet.aggregate_stats().updates;
        // The same bytes in a new allocation, then in the held one.
        let held = fleet.distributed(MEDALS).unwrap();
        assert_eq!(held.as_ptr(), first.as_ptr());
        for again in [body("standings"), held] {
            assert!(!fleet.distribute(MEDALS, again, 9.0));
        }
        assert_eq!(fleet.aggregate_stats().updates, updates);
        for m in fleet.members() {
            let page = m.peek(MEDALS).unwrap();
            assert_eq!(page.version, 1);
            assert_eq!(page.body.as_ptr(), first.as_ptr());
        }
        // A member that changed on its own is brought back by the next
        // distribution, though it is of the bytes the others hold — and
        // brought back to the allocation they share.
        fleet.put_local(5, MEDALS, body("a local fill"), 1.0);
        assert!(fleet.distribute(MEDALS, body("standings"), 1.0));
        assert!(fleet.distributed(NOWHERE).is_none());
        let versions: Vec<u64> = (0..8)
            .map(|i| fleet.member(i).peek(MEDALS).unwrap().version)
            .collect();
        assert_eq!(versions, [1, 1, 1, 1, 1, 3, 1, 1]);
        let page = fleet.member(5).peek(MEDALS).unwrap();
        assert_eq!(page.body.as_ptr(), first.as_ptr());
    }

    #[test]
    fn a_row_keeps_its_memo_while_a_member_holds_its_body() {
        let memo = || -> Option<Memo> { Some(Box::new(7_u8)) };
        let everywhere = |f: &CacheFleet| f.with_memo(A, |_, &m: &u8| m) == Some(7);
        let fleet = CacheFleet::new(3, CacheConfig::default());
        let first = body("/a");
        assert!(fleet.distribute_with(A, first.clone(), 1.0, memo()) && everywhere(&fleet));
        // Taken out with the body it is of, and handed back with it.
        let (held, taken) = fleet.take_held::<u8>(A).unwrap();
        assert!(held.as_ptr() == first.as_ptr() && !fleet.has_memo(A));
        assert!(!fleet.distribute_with(A, held, 1.0, taken.map(|m| m as Memo)));
        // Kept by a distribution of the bytes held, by a peer's resync and
        // while one member holds the body; handed out only while all do.
        assert!(!fleet.distribute(A, body("/a"), 1.0));
        fleet.resync(0, 2);
        assert!(everywhere(&fleet));
        fleet.put_local(0, A, body("a local fill"), 1.0);
        fleet.member(1).restore_entry(A, body("/a"), 1.0, 1);
        assert!(fleet.has_memo(A) && !everywhere(&fleet));
        assert!(fleet.take_held::<u8>(A).unwrap().1.is_none());
        fleet.member(2).clear();
        assert!(!fleet.has_memo(A));
        // Dropped with a body no member holds any more.
        fleet.distribute_with(A, first, 1.0, memo());
        assert!(fleet.distribute(A, body("/a, again"), 1.0) && !fleet.has_memo(A));
        fleet.distribute_with(A, body("/a"), 1.0, memo());
        fleet.invalidate_everywhere(A);
        assert!(!fleet.has_memo(A));
    }

    #[test]
    fn local_fill_stays_local() {
        let fleet = CacheFleet::new(3, CacheConfig::default());
        assert_eq!(fleet.put_local(1, EVENT, body("data"), 10.0), 1);
        assert_eq!(fleet.put_local(1, EVENT, body("more"), 10.0), 2);
        assert!(fleet.get_from(1, EVENT).is_some());
        assert!(fleet.get_from(0, EVENT).is_none());
        assert!(fleet.get_from(2, EVENT).is_none());
    }

    #[test]
    fn invalidate_everywhere_counts() {
        let fleet = CacheFleet::new(4, CacheConfig::default());
        fleet.distribute(A, body("1"), 1.0);
        fleet.put_local(0, B, body("2"), 1.0);
        assert_eq!(fleet.invalidate_everywhere(A), 4);
        assert_eq!(fleet.invalidate_everywhere(B), 1);
        assert_eq!(fleet.invalidate_everywhere(C), 0);
    }

    #[test]
    fn clear_all() {
        let fleet = CacheFleet::new(2, CacheConfig::default());
        fleet.distribute(A, body("1"), 1.0);
        fleet.clear();
        assert!(fleet.member(0).is_empty());
        assert!(fleet.member(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn empty_fleet_rejected() {
        let _ = CacheFleet::new(0, CacheConfig::default());
    }

    #[test]
    fn resync_rebuilds_a_recovered_node() {
        let fleet = CacheFleet::new(3, CacheConfig::default());
        fleet.distribute(A, body("alpha"), 10.0);
        fleet.distribute(A, body("alpha-v2"), 10.0); // version 2
        fleet.distribute(B, body("beta"), 5.0);
        // Node 2 dies and comes back cold with junk.
        fleet.member(2).clear();
        fleet.put_local(2, JUNK, body("x"), 1.0);
        let copied = fleet.resync(0, 2);
        assert_eq!(copied, 2);
        assert!(fleet.member(2).peek(JUNK).is_none(), "junk cleared");
        // Content AND versions agree with the healthy peer.
        for key in [A, B] {
            let healthy = fleet.member(0).peek(key).unwrap();
            let resynced = fleet.member(2).peek(key).unwrap();
            assert_eq!(healthy.body, resynced.body, "{key}");
            assert_eq!(healthy.version, resynced.version, "{key}");
        }
        assert_eq!(fleet.member(2).peek(A).unwrap().version, 2);
    }

    #[test]
    fn hotness_folds_across_members() {
        let fleet = CacheFleet::new(2, CacheConfig::default());
        fleet.distribute(HOT, body("h"), 1.0);
        fleet.distribute(COLD, body("c"), 1.0);
        // Traffic lands on different members; hotness is the fleet sum.
        for _ in 0..5 {
            fleet.get_from(0, HOT);
            fleet.get_from(1, HOT);
        }
        fleet.get_from(0, COLD);
        fleet.fold_hotness(1);
        let hot = fleet.hotness(HOT, 1);
        let cold = fleet.hotness(COLD, 1);
        assert!(hot > cold, "hot {hot} vs cold {cold}");
        assert_eq!(hot, crate::hotness::EWMA_ALPHA * 10.0);
        // Top-half split puts /hot above the threshold and /cold below.
        let thr = fleet.hotness_threshold(500, 1);
        assert!(hot >= thr && cold < thr);
        // Sentinels pass straight through.
        assert_eq!(fleet.hotness_threshold(0, 1), f64::INFINITY);
        assert_eq!(fleet.hotness_threshold(1000, 1), f64::NEG_INFINITY);
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
        let fleet = CacheFleet::with_keys(2, CacheConfig::default(), Arc::new(Numbered));
        assert!(fleet.distribute("/p7", body("seven"), 1.0));
        assert_eq!(&fleet.get_from(1, 7).unwrap().body[..], b"seven");
        assert!(fleet.member(0).contains("/p7") && fleet.member(0).contains(7));
        assert!(fleet.get_from(0, "/nowhere").is_none());
        let entries = fleet.member(0).export_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].0.as_str(), entries[0].3), ("/p7", 1));
        // Without a key space no name resolves, and a slot exports as
        // itself.
        let plain = CacheFleet::new(1, CacheConfig::default());
        plain.distribute(7, body("seven"), 1.0);
        assert!(plain.get_from(0, "/p7").is_none());
        assert_eq!(plain.member(0).export_entries()[0].0, "7");
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn a_name_outside_the_key_space_is_not_written() {
        let fleet = CacheFleet::with_keys(1, CacheConfig::default(), Arc::new(Numbered));
        fleet.distribute("/nowhere", body("x"), 1.0);
    }

    #[test]
    #[should_panic(expected = "from itself")]
    fn resync_self_rejected() {
        let fleet = CacheFleet::new(2, CacheConfig::default());
        fleet.resync(1, 1);
    }
}
