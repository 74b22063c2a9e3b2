//! The serving cache and its distributor's view of it.
//!
//! Inside one SP2 (Figure 6 of the paper), the trigger monitor on the SMP
//! renders updated pages once and **distributes** them to the uniprocessor
//! serving nodes, each with a cache of its own. Here a serving complex
//! holds one [`PageCache`]: the simulation models the complex's nodes as
//! that one cache, and a socket site is one node. [`CacheFleet`] is that
//! cache plus what the distributor keeps beside it: the page's [`Memo`],
//! which rides with the body's distribution and lives in the page's entry
//! for as long as the entry holds that body, and the EWMA hotness the
//! hybrid policy ranks pages by.

use std::any::Any;
use std::convert::Infallible;
use std::sync::Arc;

use bytes::Bytes;

use crate::cache::{CacheConfig, CachedPage, Memo, PageCache, Visit};
use crate::hotness::{HotnessTracker, EWMA_ALPHA};
use crate::key::{KeySpace, PageRef};

/// A serving cache fed by one distributor.
#[derive(Debug)]
pub struct CacheFleet {
    cache: Arc<PageCache>,
    /// EWMA hotness, folded from the cache's window-hit counters by
    /// [`CacheFleet::fold_hotness`].
    hotness: HotnessTracker,
}

impl CacheFleet {
    /// A cache of `config`, whose pages are named by slot alone.
    pub fn new(config: CacheConfig) -> Self {
        Self::build(config, None)
    }

    /// [`CacheFleet::new`] whose pages may also be named in `keys`: every
    /// call that takes a [`PageRef`] resolves a name there, and
    /// [`PageCache::export_entries`] names each slot by it.
    pub fn with_keys(config: CacheConfig, keys: Arc<dyn KeySpace>) -> Self {
        Self::build(config, Some(keys))
    }

    fn build(config: CacheConfig, keys: Option<Arc<dyn KeySpace>>) -> Self {
        CacheFleet {
            cache: Arc::new(PageCache::with_keys(config, keys)),
            hotness: HotnessTracker::default(),
        }
    }

    /// The serving cache.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The serving cache, as a slice of one: an adapter for callers that
    /// walk a fleet's members, until the wall-clock harness stops doing so
    /// (ROADMAP 1(h)).
    pub fn members(&self) -> &[Arc<PageCache>] {
        std::slice::from_ref(&self.cache)
    }

    /// `members()[i]`: the serving cache for `i == 0`. An adapter, as
    /// [`CacheFleet::members`].
    ///
    /// # Panics
    ///
    /// For any other `i`.
    pub fn member(&self, i: usize) -> &Arc<PageCache> {
        &self.members()[i]
    }

    /// [`PageCache::get`] on `member(i)`. An adapter, as
    /// [`CacheFleet::members`].
    pub fn get_from(&self, i: usize, key: impl PageRef) -> Option<CachedPage> {
        self.member(i).get(key)
    }

    /// The body cached for `key`, counting and touching nothing.
    pub fn distributed(&self, key: impl PageRef) -> Option<Bytes> {
        self.cache.peek_body(key)
    }

    /// [`CacheFleet::distribute_with`] without a memo. The third argument,
    /// once the page's generation cost, is ignored: this is the adapter
    /// the wall-clock harness distributes through, until ROADMAP 1(h).
    ///
    /// # Panics
    ///
    /// If `key` is a name outside the key space: it names no slot.
    pub fn distribute(&self, key: impl PageRef, body: Bytes, _: f64) -> bool {
        self.distribute_with(key, body, None)
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
    /// # Panics
    ///
    /// If `key` is a name outside the key space, as [`CacheFleet::distribute`].
    pub fn distribute_with(&self, key: impl PageRef, body: Bytes, memo: Option<Memo>) -> bool {
        let slot = self.cache.slot_to_write(key);
        self.cache.distribute(slot, body, memo)
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
    /// [`CacheFleet::take_held`]'s body and memo, taken out in the same
    /// visit. Counts and touches nothing.
    pub fn answer_or_take<M: Any, T>(
        &self,
        key: impl PageRef,
        answer: impl FnOnce(&Bytes, &M) -> Option<T>,
    ) -> Visit<T, Box<M>> {
        let Some(slot) = self.cache.slot(key) else {
            return Visit::Taken(None);
        };
        let answer = |body: &Bytes, memo: &Memo| answer(body, memo.downcast_ref()?);
        match self.cache.visit(slot, answer) {
            Visit::Answered(answered) => Visit::Answered(answered),
            Visit::Taken(held) => Visit::Taken(
                held.map(|(body, memo)| (body, memo.and_then(|memo| memo.downcast().ok()))),
            ),
        }
    }

    /// `f` of the body cached for `key` and the memo of type `M` the entry
    /// keeps of it, under the entry's lock, if there are such. Counts and
    /// touches nothing.
    pub fn with_memo<M: Any, T>(
        &self,
        key: impl PageRef,
        f: impl FnOnce(&Bytes, &M) -> T,
    ) -> Option<T> {
        let slot = self.cache.slot(key)?;
        let f = |body: &Bytes, memo: &Memo| Some(f(body, memo.downcast_ref()?));
        self.cache.with_memo(slot, f)?
    }

    /// Whether the page's entry keeps a memo.
    pub fn has_memo(&self, key: impl PageRef) -> bool {
        let slot = self.cache.slot(key);
        slot.is_some_and(|slot| self.cache.with_memo(slot, |_, _| ()).is_some())
    }

    /// Fold the cache's window-hit counters into the EWMA as of sim minute
    /// `minute`. Called once per minute by the cluster heartbeat; between
    /// folds a hit just bumps its entry's counter under the shard lock it
    /// holds anyway.
    pub fn fold_hotness(&self, minute: u64) {
        let window = self.cache.drain_window_hits();
        self.hotness.fold(window, minute, EWMA_ALPHA);
    }

    /// Current EWMA hotness of `key` as of sim minute `minute` (0.0 for
    /// pages with no tracked traffic).
    pub fn hotness(&self, key: impl PageRef, minute: u64) -> f64 {
        self.cache
            .slot(key)
            .map_or(0.0, |slot| self.hotness.get(slot, minute, EWMA_ALPHA))
    }

    /// Hot/cold split threshold: a page is hot iff its hotness is `>=`
    /// the returned value. See [`HotnessTracker::threshold`] for the
    /// quantile rule and the `±inf` sentinels.
    pub fn hotness_threshold(&self, hot_permille: u16, minute: u64) -> f64 {
        self.hotness.threshold(hot_permille, minute, EWMA_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pages by slot.
    const A: u32 = 1;
    const X: u32 = 4;
    const MEDALS: u32 = 7;
    const HOT: u32 = 10;
    const COLD: u32 = 11;
    const NOWHERE: u32 = 999;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn distribute_shares_the_body_allocation() {
        let fleet = CacheFleet::new(CacheConfig::default());
        let b = body("shared");
        fleet.distribute_with(X, b.clone(), None);
        // Bytes clones are refcounted views of one buffer.
        let got = fleet.cache().peek(X).unwrap().body;
        assert_eq!(got.as_ptr(), b.as_ptr());
    }

    #[test]
    fn a_distribution_that_changes_nothing_keeps_every_entry() {
        let fleet = CacheFleet::new(CacheConfig::default());
        let cache = fleet.cache();
        let first = body("standings");
        assert!(fleet.distribute_with(MEDALS, first.clone(), None));
        let updates = cache.stats().updates;
        // The same bytes in a new allocation, then in the held one.
        let held = fleet.distributed(MEDALS).unwrap();
        assert_eq!(held.as_ptr(), first.as_ptr());
        for again in [body("standings"), held] {
            assert!(!fleet.distribute_with(MEDALS, again, None));
        }
        assert_eq!(cache.stats().updates, updates);
        let page = cache.peek(MEDALS).unwrap();
        assert_eq!(page.version, 1);
        assert_eq!(page.body.as_ptr(), first.as_ptr());
        // An entry a fill changed behind the distributor's back is brought
        // back by the next distribution, at its next version.
        cache.put(MEDALS, body("a demand fill"));
        assert!(fleet.distribute_with(MEDALS, body("standings"), None));
        assert!(fleet.distributed(NOWHERE).is_none());
        assert_eq!(cache.peek(MEDALS).unwrap().version, 3);
    }

    #[test]
    fn a_row_keeps_its_memo_while_a_member_holds_its_body() {
        let memo = || -> Option<Memo> { Some(Box::new(7_u8)) };
        let remembered = |f: &CacheFleet| f.with_memo(A, |_, &m: &u8| m) == Some(7);
        let fleet = CacheFleet::new(CacheConfig::default());
        let first = body("/a");
        assert!(fleet.distribute_with(A, first.clone(), memo()) && remembered(&fleet));
        // Taken out with the body it is of, and handed back with it.
        let (held, taken) = fleet.take_held::<u8>(A).unwrap();
        assert!(held.as_ptr() == first.as_ptr() && !fleet.has_memo(A));
        assert!(!fleet.distribute_with(A, held, taken.map(|m| m as Memo)));
        // Kept by a distribution of the bytes held, and of no other type.
        assert!(!fleet.distribute_with(A, body("/a"), None));
        assert!(remembered(&fleet) && fleet.with_memo(A, |_, _: &u16| ()).is_none());
        // Dropped by a fill, by a distribution of other bytes, by an
        // invalidation and by a clear.
        fleet.cache().put(A, body("/a"));
        assert!(!fleet.has_memo(A));
        fleet.distribute_with(A, first.clone(), memo());
        assert!(fleet.distribute_with(A, body("/a, again"), None) && !fleet.has_memo(A));
        fleet.distribute_with(A, body("/a"), memo());
        fleet.cache().invalidate(A);
        assert!(!fleet.has_memo(A));
        fleet.distribute_with(A, first, memo());
        fleet.cache().clear();
        assert!(!fleet.has_memo(A) && fleet.take_held::<u8>(A).is_none());
    }

    #[test]
    fn clear_all() {
        let fleet = CacheFleet::new(CacheConfig::default());
        fleet.distribute_with(A, body("1"), None);
        fleet.cache().clear();
        assert!(fleet.cache().is_empty());
        assert!(fleet.member(0).is_empty());
    }

    #[test]
    fn hotness_folds_the_caches_window_hits() {
        let fleet = CacheFleet::new(CacheConfig::default());
        fleet.distribute_with(HOT, body("h"), None);
        fleet.distribute_with(COLD, body("c"), None);
        for _ in 0..10 {
            fleet.cache().get(HOT);
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
        let fleet = CacheFleet::with_keys(CacheConfig::default(), Arc::new(Numbered));
        assert!(fleet.distribute("/p7", body("seven"), 1.0));
        assert_eq!(&fleet.get_from(0, 7).unwrap().body[..], b"seven");
        assert!(fleet.cache().contains("/p7") && fleet.cache().contains(7));
        assert!(fleet.get_from(0, "/nowhere").is_none());
        let entries = fleet.member(0).export_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].0.as_str(), entries[0].3), ("/p7", 1));
        // Without a key space no name resolves, and a slot exports as
        // itself.
        let plain = CacheFleet::new(CacheConfig::default());
        plain.distribute_with(7, body("seven"), None);
        assert!(plain.get_from(0, "/p7").is_none());
        assert_eq!(plain.cache().export_entries()[0].0, "7");
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn a_name_outside_the_key_space_is_not_written() {
        let fleet = CacheFleet::with_keys(CacheConfig::default(), Arc::new(Numbered));
        fleet.distribute("/nowhere", body("x"), 1.0);
    }
}
