//! The per-frame cache fleet.
//!
//! Inside one SP2 (Figure 6 of the paper), the trigger monitor on the SMP
//! renders updated pages once and **distributes** them to the eight
//! uniprocessor serving nodes. [`CacheFleet`] models that arrangement: one
//! logical page store replicated across N member caches, with broadcast
//! update/invalidate operations. The members are the columns of one table
//! (see [`crate::cache`]), so a broadcast takes one lock and probes one
//! map whatever the fleet's size, and `Bytes` bodies are
//! reference-counted, so a distributed page costs one allocation.

use std::sync::Arc;

use bytes::Bytes;
use rustc_hash::FxHashMap;

use crate::cache::{CacheConfig, CachedPage, PageCache, Put, Table};
use crate::hotness::{HotnessTracker, EWMA_ALPHA};
use crate::stats::StatsSnapshot;

/// A page as the fleet holds it ([`CacheFleet::distributed`]).
#[derive(Debug, Clone)]
pub struct Distributed {
    /// The first member's body.
    pub body: Bytes,
    /// Whether every member holds that very allocation.
    pub everywhere: bool,
}

impl Distributed {
    /// Whether `body` is the allocation every member holds: a
    /// distribution of it would keep every entry as it is.
    pub fn is_everywhere(&self, body: &Bytes) -> bool {
        self.everywhere && std::ptr::eq::<[u8]>(&*self.body, &**body)
    }
}

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
    /// evenly.
    pub fn new(n: usize, config: CacheConfig) -> Self {
        assert!(n >= 1, "a fleet needs at least one cache");
        let table = Table::new(&config, n);
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
    pub fn get_from(&self, i: usize, key: &str) -> Option<CachedPage> {
        self.members[i].get(key)
    }

    /// What the last distribution of `key` left on the fleet, read off the
    /// page's row counting and touching nothing: the first member's body —
    /// what a regeneration renders onto — and whether every member holds
    /// that very allocation, in which case a distribution of it would keep
    /// every entry as it is.
    pub fn distributed(&self, key: &str) -> Option<Distributed> {
        let (body, everywhere) = self.table.distributed(key)?;
        Some(Distributed { body, everywhere })
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
    pub fn distribute(&self, key: &str, body: Bytes, cost: f64) -> bool {
        let all = 0..self.members.len();
        self.table.place(key, body, cost, all, Put::Distributed).0
    }

    /// Whether nothing but [`CacheFleet::distribute`] has written to the
    /// fleet since it was built, nor has a member let a page go: no
    /// invalidation, eviction, [`CacheFleet::put_local`], restore or clear
    /// (so no [`CacheFleet::resync`]). While it holds, every member holds
    /// every page distributed to it as the bytes distributed last, and a
    /// distributor that remembers those need not ask. Once false, false
    /// for good. One load.
    pub fn undisturbed(&self) -> bool {
        self.table.undisturbed()
    }

    /// Broadcast an invalidation; returns how many members held the key.
    pub fn invalidate_everywhere(&self, key: &str) -> usize {
        self.table.invalidate(key, 0..self.members.len())
    }

    /// Insert into a single member only (a demand-miss fill on one serving
    /// node, the pre-DUP behaviour). Returns the version the member gave
    /// the entry — the only moment it is known for certain: on a bounded
    /// cache the entry may be evicted before anyone can look it up.
    pub fn put_local(&self, i: usize, key: &str, body: Bytes, cost: f64) -> u64 {
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
    /// under their existing shard locks. Counts for the same key across
    /// members are summed before folding so fleet size never skews the
    /// EWMA scale.
    pub fn fold_hotness(&self, minute: u64) {
        let mut window: FxHashMap<Arc<str>, u64> = FxHashMap::default();
        let mut order: Vec<Arc<str>> = Vec::new();
        for m in &self.members {
            for (key, n) in m.drain_window_hits() {
                match window.get_mut(&key) {
                    Some(total) => *total += n,
                    None => {
                        window.insert(Arc::clone(&key), n);
                        order.push(key);
                    }
                }
            }
        }
        self.hotness.fold(
            order.into_iter().map(|k| {
                let n = window[&k];
                (k, n)
            }),
            minute,
            EWMA_ALPHA,
        );
    }

    /// Current EWMA hotness of `key` as of sim minute `minute` (0.0 for
    /// pages with no tracked traffic).
    pub fn hotness(&self, key: &str, minute: u64) -> f64 {
        self.hotness.get(key, minute, EWMA_ALPHA)
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
        let entries = self.members[from].export_entries();
        let n = entries.len();
        let target = &self.members[to];
        target.clear();
        for (key, body, cost, version) in entries {
            target.restore_entry(&key, body, cost, version);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn distribute_reaches_all_members() {
        let fleet = CacheFleet::new(8, CacheConfig::default());
        fleet.distribute("/today", body("<html>results</html>"), 40.0);
        for i in 0..8 {
            let page = fleet.get_from(i, "/today").unwrap();
            assert_eq!(&page.body[..], b"<html>results</html>");
        }
        assert_eq!(fleet.aggregate_stats().hits, 8);
    }

    #[test]
    fn distribute_shares_the_body_allocation() {
        let fleet = CacheFleet::new(4, CacheConfig::default());
        let b = body("shared");
        fleet.distribute("/x", b.clone(), 1.0);
        // Bytes clones are refcounted views of one buffer.
        let got = fleet.member(0).peek("/x").unwrap().body;
        assert_eq!(got.as_ptr(), b.as_ptr());
    }

    #[test]
    fn a_distribution_that_changes_nothing_keeps_every_entry() {
        let fleet = CacheFleet::new(8, CacheConfig::default());
        let first = body("standings");
        assert!(fleet.distribute("/medals", first.clone(), 1.0));
        let updates = fleet.aggregate_stats().updates;
        // The same bytes in a new allocation, then in the held one.
        let held = fleet.distributed("/medals").unwrap();
        assert!(held.is_everywhere(&first));
        assert!(!held.is_everywhere(&body("standings")));
        for again in [body("standings"), held.body] {
            assert!(!fleet.distribute("/medals", again, 9.0));
        }
        assert_eq!(fleet.aggregate_stats().updates, updates);
        for m in fleet.members() {
            let page = m.peek("/medals").unwrap();
            assert_eq!(page.version, 1);
            assert_eq!(page.body.as_ptr(), first.as_ptr());
        }
        // A member that changed on its own is brought back by the next
        // distribution, though it is of the bytes the others hold — and
        // brought back to the allocation they share.
        fleet.put_local(5, "/medals", body("a local fill"), 1.0);
        let held = fleet.distributed("/medals").unwrap();
        assert!(!held.everywhere, "member 5 holds its own fill");
        assert_eq!(held.body.as_ptr(), first.as_ptr());
        assert!(fleet.distribute("/medals", body("standings"), 1.0));
        assert!(fleet.distributed("/medals").unwrap().is_everywhere(&first));
        assert!(fleet.distributed("/nowhere").is_none());
        let versions: Vec<u64> = (0..8)
            .map(|i| fleet.member(i).peek("/medals").unwrap().version)
            .collect();
        assert_eq!(versions, [1, 1, 1, 1, 1, 3, 1, 1]);
        let page = fleet.member(5).peek("/medals").unwrap();
        assert_eq!(page.body.as_ptr(), first.as_ptr());
    }

    #[test]
    fn anything_but_a_distribution_disturbs_the_fleet_for_good() {
        let disturb: [fn(&CacheFleet); 6] = [
            |f| {
                f.put_local(1, "/a", body("local"), 1.0);
            },
            |f| f.member(2).restore_entry("/b", body("/b"), 1.0, 1),
            |f| assert_eq!(f.invalidate_everywhere("/a"), 3),
            |f| assert!(f.member(0).invalidate("/b")),
            |f| f.member(1).clear(),
            |f| {
                f.resync(0, 2);
            },
        ];
        for (i, disturb) in disturb.into_iter().enumerate() {
            let fleet = CacheFleet::new(3, CacheConfig::default());
            for key in ["/a", "/b"] {
                fleet.distribute(key, body(key), 1.0);
            }
            fleet.distribute("/a", body("/a, again"), 1.0);
            assert!(fleet.invalidate_everywhere("/nowhere") == 0 && fleet.undisturbed());
            disturb(&fleet);
            assert!(!fleet.undisturbed(), "disturbance {i}");
            fleet.distribute("/a", body("/a"), 1.0);
            assert!(!fleet.undisturbed(), "disturbance {i}: for good");
        }

        // Two shards of one 10-byte page per member: a third page evicts.
        let bounded = CacheConfig::bounded(20, crate::ReplacementPolicy::Lru).with_shards(1);
        let fleet = CacheFleet::new(2, bounded);
        fleet.distribute("/x", body("0123456789"), 1.0);
        assert!(fleet.undisturbed());
        for key in ["/y", "/z"] {
            fleet.distribute(key, body("0123456789"), 1.0);
        }
        assert!(fleet.aggregate_stats().evictions > 0 && !fleet.undisturbed());
    }

    #[test]
    fn local_fill_stays_local() {
        let fleet = CacheFleet::new(3, CacheConfig::default());
        assert_eq!(fleet.put_local(1, "/event", body("data"), 10.0), 1);
        assert_eq!(fleet.put_local(1, "/event", body("more"), 10.0), 2);
        assert!(fleet.get_from(1, "/event").is_some());
        assert!(fleet.get_from(0, "/event").is_none());
        assert!(fleet.get_from(2, "/event").is_none());
    }

    #[test]
    fn invalidate_everywhere_counts() {
        let fleet = CacheFleet::new(4, CacheConfig::default());
        fleet.distribute("/a", body("1"), 1.0);
        fleet.put_local(0, "/b", body("2"), 1.0);
        assert_eq!(fleet.invalidate_everywhere("/a"), 4);
        assert_eq!(fleet.invalidate_everywhere("/b"), 1);
        assert_eq!(fleet.invalidate_everywhere("/c"), 0);
    }

    #[test]
    fn clear_all() {
        let fleet = CacheFleet::new(2, CacheConfig::default());
        fleet.distribute("/a", body("1"), 1.0);
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
        fleet.distribute("/a", body("alpha"), 10.0);
        fleet.distribute("/a", body("alpha-v2"), 10.0); // version 2
        fleet.distribute("/b", body("beta"), 5.0);
        // Node 2 dies and comes back cold with junk.
        fleet.member(2).clear();
        fleet.put_local(2, "/stale-junk", body("x"), 1.0);
        let copied = fleet.resync(0, 2);
        assert_eq!(copied, 2);
        assert!(
            fleet.member(2).peek("/stale-junk").is_none(),
            "junk cleared"
        );
        // Content AND versions agree with the healthy peer.
        for key in ["/a", "/b"] {
            let healthy = fleet.member(0).peek(key).unwrap();
            let resynced = fleet.member(2).peek(key).unwrap();
            assert_eq!(healthy.body, resynced.body, "{key}");
            assert_eq!(healthy.version, resynced.version, "{key}");
        }
        assert_eq!(fleet.member(2).peek("/a").unwrap().version, 2);
    }

    #[test]
    fn hotness_folds_across_members() {
        let fleet = CacheFleet::new(2, CacheConfig::default());
        fleet.distribute("/hot", body("h"), 1.0);
        fleet.distribute("/cold", body("c"), 1.0);
        // Traffic lands on different members; hotness is the fleet sum.
        for _ in 0..5 {
            fleet.get_from(0, "/hot");
            fleet.get_from(1, "/hot");
        }
        fleet.get_from(0, "/cold");
        fleet.fold_hotness(1);
        let hot = fleet.hotness("/hot", 1);
        let cold = fleet.hotness("/cold", 1);
        assert!(hot > cold, "hot {hot} vs cold {cold}");
        assert_eq!(hot, crate::hotness::EWMA_ALPHA * 10.0);
        // Top-half split puts /hot above the threshold and /cold below.
        let thr = fleet.hotness_threshold(500, 1);
        assert!(hot >= thr && cold < thr);
        // Sentinels pass straight through.
        assert_eq!(fleet.hotness_threshold(0, 1), f64::INFINITY);
        assert_eq!(fleet.hotness_threshold(1000, 1), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "from itself")]
    fn resync_self_rejected() {
        let fleet = CacheFleet::new(2, CacheConfig::default());
        fleet.resync(1, 1);
    }
}
