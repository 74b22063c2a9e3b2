//! One table against naive maps, a map per member.
//!
//! A fleet's caches are the columns of one table: `CacheFleet::distribute`
//! finds a page's row once, keeps a member's entry when it already holds
//! the distributed bytes, and compares bytes by address where it can. None
//! of that may show: after any sequence of distributions (of fresh,
//! byte-equal and pointer-equal bodies), local fills, lookups,
//! invalidations, crashes, restores, resyncs and evictions, every member
//! must hold what a map applying "bytes differ ⇒ version + 1, else
//! untouched" holds — body, version and cost — whether it is a standalone
//! `PageCache`, the only member of a fleet or one of eight — allocation
//! included — and must have counted what the map counts: hits, misses,
//! inserts, updates, invalidations, evictions and bytes, member by member.
//! The table holds a row for exactly the pages some member holds,
//! and a memo handed with a distribution for exactly as long as some member
//! holds the allocation it is of: the first member's, when it was handed.
//!
//! The last test races lookups, a local writer and two distributors on
//! one key, for what one lock per row has to guarantee.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use nagano_cache::{CacheConfig, CacheFleet, PageCache, ReplacementPolicy};
use nagano_telemetry::sync::blocking;

/// Members the operations name; a smaller subject takes them modulo its
/// size.
const MEMBERS: usize = 8;
const KEYS: u8 = 10;

#[derive(Debug, Clone)]
enum Body {
    /// New bytes in a new allocation (one of a few per key, so that an
    /// earlier body comes back).
    Fresh(u8),
    /// The bytes member `usize` holds, in a new allocation.
    EqualTo(usize),
    /// The very allocation the fleet hands out for the key.
    Held,
}

#[derive(Debug, Clone)]
enum Op {
    /// A distribution, with a memo if `true`.
    Distribute(u8, Body, bool),
    PutLocal(usize, u8, u8),
    Get(usize, u8),
    Invalidate(usize, u8),
    InvalidateEverywhere(u8),
    Clear(usize),
    Restore(usize, u8, u8, u64),
    Resync(usize, usize),
}

fn distribute_strategy() -> impl Strategy<Value = Op> {
    let body = prop_oneof![
        (0..3u8).prop_map(Body::Fresh),
        (0..MEMBERS).prop_map(Body::EqualTo),
        Just(Body::Held),
    ];
    (0..KEYS, body, any::<bool>()).prop_map(|(k, b, memo)| Op::Distribute(k, b, memo))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Weighted towards the operation under test.
        distribute_strategy(),
        distribute_strategy(),
        distribute_strategy(),
        (0..MEMBERS, 0..KEYS, 0..3u8).prop_map(|(m, k, c)| Op::PutLocal(m, k, c)),
        (0..MEMBERS, 0..KEYS).prop_map(|(m, k)| Op::Get(m, k)),
        (0..MEMBERS, 0..KEYS).prop_map(|(m, k)| Op::Invalidate(m, k)),
        (0..KEYS).prop_map(Op::InvalidateEverywhere),
        (0..MEMBERS).prop_map(Op::Clear),
        (0..MEMBERS, 0..KEYS, 0..3u8, 1..9u64).prop_map(|(m, k, c, v)| Op::Restore(m, k, c, v)),
        (0..MEMBERS, 1..MEMBERS).prop_map(|(from, by)| Op::Resync(from, from + by)),
    ]
}

/// The page's slot.
fn slot(key: u8) -> u32 {
    u32::from(key)
}

fn content(key: u8, choice: u8) -> Vec<u8> {
    vec![b'a' + choice; 8 + (key as usize + choice as usize) % 5]
}

/// One naive member: slot → (body, version, cost), the body the very
/// allocation the member holds.
type Naive = BTreeMap<u32, (Bytes, u64, f64)>;

/// What a naive member has counted, as a cache's statistics count it.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    hits: u64,
    misses: u64,
    inserts: u64,
    updates: u64,
    invalidations: u64,
    evictions: u64,
    bytes_current: u64,
}

impl Counts {
    /// A write of `body` over `old`, if the member held one.
    fn write(&mut self, old: Option<&Bytes>, body: &Bytes) {
        match old {
            Some(old) => {
                self.updates += 1;
                self.bytes_current -= old.len() as u64;
            }
            None => self.inserts += 1,
        }
        self.bytes_current += body.len() as u64;
    }

    /// An entry of `body` gone by invalidation, or else by eviction.
    fn remove(&mut self, body: &Bytes, invalidated: bool) {
        match invalidated {
            true => self.invalidations += 1,
            false => self.evictions += 1,
        }
        self.bytes_current -= body.len() as u64;
    }
}

/// A write on one member at `version`, or else at the member's next.
fn naive_write(
    member: &mut Naive,
    counts: &mut Counts,
    key: u32,
    (body, version, cost): (Bytes, Option<u64>, f64),
) {
    let old = member.get(&key);
    counts.write(old.map(|(body, ..)| body), &body);
    let version = version.unwrap_or(old.map_or(0, |&(_, version, _)| version) + 1);
    member.insert(key, (body, version, cost));
}

/// A put on one member: always a new version.
fn naive_put(member: &mut Naive, counts: &mut Counts, key: u32, body: Bytes, cost: f64) {
    naive_write(member, counts, key, (body, None, cost));
}

/// Remove `key` from `member`, counted as an invalidation.
fn naive_invalidate(member: &mut Naive, counts: &mut Counts, key: u32) -> bool {
    let removed = member.remove(&key);
    if let Some((body, ..)) = &removed {
        counts.remove(body, true);
    }
    removed.is_some()
}

/// A distribution of `body` to every member in turn: a member that holds
/// those bytes keeps its entry and hands its allocation on to the members
/// written after it. Returns whether any entry was written.
fn naive_distribute(
    model: &mut [Naive],
    counts: &mut [Counts],
    key: u32,
    mut body: Bytes,
    cost: f64,
) -> bool {
    let mut changed = false;
    for (member, counts) in model.iter_mut().zip(counts) {
        match member.get(&key) {
            Some((held, ..)) if *held == body => body = held.clone(),
            _ => {
                naive_put(member, counts, key, body.clone(), cost);
                changed = true;
            }
        }
    }
    changed
}

/// Whether `member` holds the very allocation `body` for `key`.
fn holds(member: &Naive, key: u32, body: &Bytes) -> bool {
    member
        .get(&key)
        .is_some_and(|(held, ..)| held.as_ptr() == body.as_ptr())
}

/// What the operations are driven through: a fleet, or a cache built on
/// its own, which is a fleet of one without the fleet's calls.
enum Subject {
    Fleet(CacheFleet),
    Standalone(Arc<PageCache>),
}

impl Subject {
    fn new(config: CacheConfig, members: Option<usize>) -> Self {
        match members {
            Some(n) => Subject::Fleet(CacheFleet::new(n, config)),
            None => Subject::Standalone(Arc::new(PageCache::new(config))),
        }
    }

    fn members(&self) -> &[Arc<PageCache>] {
        match self {
            Subject::Fleet(fleet) => fleet.members(),
            Subject::Standalone(cache) => std::slice::from_ref(cache),
        }
    }

    /// Distribute; on a standalone cache, what a distribution is to a
    /// fleet of one: a put, unless the bytes are held already.
    fn distribute(&self, key: u32, body: Bytes, cost: f64) -> bool {
        match self {
            Subject::Fleet(fleet) => fleet.distribute(key, body, cost),
            Subject::Standalone(cache) => {
                let held = cache.peek_body(key).is_some_and(|held| held == body);
                if !held {
                    cache.put(key, body, cost);
                }
                !held
            }
        }
    }

    fn invalidate_everywhere(&self, key: u32) -> usize {
        match self {
            Subject::Fleet(fleet) => fleet.invalidate_everywhere(key),
            Subject::Standalone(cache) => usize::from(cache.invalidate(key)),
        }
    }

    fn resync(&self, from: usize, to: usize) {
        match self {
            Subject::Fleet(fleet) => {
                fleet.resync(from, to);
            }
            Subject::Standalone(_) => unreachable!("one member has no peer"),
        }
    }
}

/// Drive `ops` through `members` caches of `config` — `None` for a cache
/// built on its own — and through the naive maps. Eviction is taken from
/// the subject as an input, not predicted: a key other than the one an
/// operation wrote that has gone from a member has gone from its map too.
/// The written key itself is never its own put's victim, so for it the
/// comparison is strict.
fn check(config: CacheConfig, members: Option<usize>, ops: &[Op]) -> Result<(), TestCaseError> {
    let bounded = config.max_bytes.is_some();
    let subject = Subject::new(config, members);
    let n = subject.members().len();
    let mut model: Vec<Naive> = vec![Naive::new(); n];
    let mut counts: Vec<Counts> = vec![Counts::default(); n];
    // The memo of each page the table keeps one for: the allocation it is
    // of, and the step that handed it.
    let mut memos: BTreeMap<u32, (Bytes, usize)> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        let mut written: Option<u32> = None;
        match op {
            Op::Distribute(k, body, memo) => {
                let key = slot(*k);
                let body = match body {
                    Body::Fresh(c) => Bytes::from(content(*k, *c)),
                    Body::EqualTo(m) => match subject.members()[m % n].peek(key) {
                        Some(page) => Bytes::copy_from_slice(&page.body),
                        None => Bytes::from(content(*k, 0)),
                    },
                    Body::Held => subject.members()[0]
                        .peek_body(key)
                        .unwrap_or_else(|| Bytes::from(content(*k, 1))),
                };
                let cost = 1.0 + f64::from(*k);
                let expected = naive_distribute(&mut model, &mut counts, key, body.clone(), cost);
                let changed = match &subject {
                    // A cache on its own keeps no memo.
                    Subject::Fleet(fleet) if *memo => {
                        memos.insert(key, (model[0][&key].0.clone(), step));
                        fleet.distribute_with(key, body, cost, Some(Box::new(step)))
                    }
                    _ => subject.distribute(key, body, cost),
                };
                prop_assert_eq!(changed, expected, "step {}: {:?}", step, op);
                written = Some(key);
            }
            Op::PutLocal(m, k, c) => {
                let key = slot(*k);
                let body = Bytes::from(content(*k, *c));
                naive_put(
                    &mut model[m % n],
                    &mut counts[m % n],
                    key,
                    body.clone(),
                    2.0,
                );
                let version = subject.members()[m % n].put(key, body, 2.0);
                prop_assert_eq!(version, model[m % n][&key].1, "step {}: {:?}", step, op);
                written = Some(key);
            }
            Op::Get(m, k) => {
                let page = subject.members()[m % n].get(slot(*k));
                let counted = &mut counts[m % n];
                match page {
                    Some(_) => counted.hits += 1,
                    None => counted.misses += 1,
                }
                let page = page.map(|page| (page.body, page.version));
                let naive = model[m % n].get(&slot(*k));
                let naive = naive.map(|(body, version, _)| (body.clone(), *version));
                prop_assert_eq!(page, naive, "step {}", step);
            }
            Op::Invalidate(m, k) => {
                let was = subject.members()[m % n].invalidate(slot(*k));
                let naive = naive_invalidate(&mut model[m % n], &mut counts[m % n], slot(*k));
                prop_assert_eq!(was, naive);
            }
            Op::InvalidateEverywhere(k) => {
                let held = model
                    .iter_mut()
                    .zip(&mut counts)
                    .map(|(member, counts)| naive_invalidate(member, counts, slot(*k)))
                    .filter(|&held| held)
                    .count();
                prop_assert_eq!(subject.invalidate_everywhere(slot(*k)), held);
            }
            Op::Clear(m) => {
                subject.members()[m % n].clear();
                for (body, ..) in std::mem::take(&mut model[m % n]).values() {
                    counts[m % n].remove(body, true);
                }
            }
            Op::Restore(m, k, c, version) => {
                let key = slot(*k);
                let body = Bytes::from(content(*k, *c));
                let restored = (body.clone(), Some(*version), 2.0);
                naive_write(&mut model[m % n], &mut counts[m % n], key, restored);
                subject.members()[m % n].restore_entry(key, body, 2.0, *version);
                written = Some(key);
            }
            Op::Resync(from, to) => {
                let (from, to) = (from % n, to % n);
                if from != to {
                    subject.resync(from, to);
                    // A clear of the member, then a restore of each entry.
                    for (body, ..) in std::mem::take(&mut model[to]).values() {
                        counts[to].remove(body, true);
                    }
                    let entries = model[from].clone();
                    for (&key, (body, version, cost)) in &entries {
                        let written = (body.clone(), Some(*version), *cost);
                        naive_write(&mut model[to], &mut counts[to], key, written);
                    }
                }
            }
        }
        let members = subject.members().iter().zip(&mut model).zip(&mut counts);
        for (m, ((real, naive), counted)) in members.enumerate() {
            if bounded {
                naive.retain(|&key, (body, ..)| {
                    let kept = Some(key) == written || real.contains(key);
                    if !kept {
                        counted.remove(body, false);
                    }
                    kept
                });
            }
            let held: Naive = real
                .entries()
                .into_iter()
                .map(|(key, body, cost, version)| (key, (body, version, cost)))
                .collect();
            prop_assert_eq!(&held, &*naive, "step {}: {:?}: member {}", step, op, m);
            for (&key, (body, ..)) in &held {
                let same = holds(naive, key, body);
                prop_assert!(same, "step {}: {:?}: member {}: {}", step, op, m, key);
            }
            prop_assert_eq!(real.len(), naive.len(), "step {}: member {}", step, m);
            let bytes: usize = naive.values().map(|(body, ..)| body.len()).sum();
            prop_assert_eq!(real.bytes(), bytes as u64, "step {}: member {}", step, m);
            // Each member counted what its map did: no count moved between
            // members.
            let stats = real.stats();
            let real_counts = Counts {
                hits: stats.hits,
                misses: stats.misses,
                inserts: stats.inserts,
                updates: stats.updates,
                invalidations: stats.invalidations,
                evictions: stats.evictions,
                bytes_current: stats.bytes_current,
            };
            prop_assert_eq!(
                &real_counts,
                &*counted,
                "step {}: {:?}: member {}",
                step,
                op,
                m
            );
            prop_assert!(
                stats.bytes_peak >= stats.bytes_current,
                "step {}: member {}",
                step,
                m
            );
        }
        // No row outlives its last cell: the table has a row for every
        // page some member holds, and for no other.
        let pages: BTreeSet<&u32> = model.iter().flat_map(Naive::keys).collect();
        for real in subject.members() {
            prop_assert_eq!(real.rows(), pages.len(), "step {}: {:?}", step, op);
        }
        // A memo lives while some member holds the allocation it is of, and
        // is handed out while every member does.
        memos.retain(|&key, (of, _)| model.iter().any(|member| holds(member, key, of)));
        let Subject::Fleet(fleet) = &subject else {
            continue;
        };
        for key in (0..KEYS).map(slot) {
            let memo = memos.get(&key);
            prop_assert_eq!(fleet.has_memo(key), memo.is_some(), "step {}", step);
            let everywhere =
                memo.filter(|(of, _)| model.iter().all(|member| holds(member, key, of)));
            let expected = everywhere.map(|(of, handed)| (of.as_ptr(), *handed));
            let real = fleet.with_memo(key, |body, &handed: &usize| (body.as_ptr(), handed));
            prop_assert_eq!(real, expected, "step {}: {:?}: {}", step, op, key);
        }
    }
    Ok(())
}

/// A standalone cache, then fleets of one, two and eight.
const SUBJECTS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(MEMBERS)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_unbounded_fleet_is_eight_maps(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        for members in SUBJECTS {
            check(CacheConfig::unbounded().with_shards(2), members, &ops)?;
        }
    }

    /// A member's budget is split over its table's locks, one per member
    /// here: about four entries where a member is alone, two to a lock
    /// where there are two, and where there are eight no more than the
    /// entry a put has just written. Most puts evict.
    #[test]
    fn a_fleet_under_eviction_pressure_is_eight_maps(
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        let lru = CacheConfig::bounded(40, ReplacementPolicy::Lru).with_shards(1);
        for members in SUBJECTS {
            check(lru.clone(), members, &ops)?;
        }
    }
}

/// Lookups on members 0 and 3, local fills and invalidations on member 5
/// and two distributors race on one key. What each distribution does to
/// the eight members it does under the row's one lock, so: a reader sees
/// only bodies that were distributed, a member's version only grows and
/// names one body, the distributors leave every member they alone write to
/// with one and the same body, and a distribution that follows them leaves
/// every member with its bytes.
#[test]
fn lookups_local_writes_and_distributions_of_one_key_race() {
    const ROUNDS: usize = 20_000;
    const KEY: u32 = 48;
    let (done, watchdog) = mpsc::channel();
    let race = std::thread::spawn(move || {
        let fleet = CacheFleet::new(MEMBERS, CacheConfig::default());
        let distributed = |who: usize, round: usize| format!("distributor {who} round {round:06}");
        fleet.distribute(KEY, Bytes::from(distributed(0, 0)), 1.0);
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for who in 0..2 {
                let (fleet, start) = (&fleet, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 1..=ROUNDS {
                        // Every other round the bytes of the round before:
                        // the keep path races too.
                        let body = Bytes::from(distributed(who, round & !1));
                        fleet.distribute(KEY, body, 1.0);
                    }
                });
            }
            let (fleet, start) = (&fleet, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    if round % 3 == 2 {
                        fleet.member(5).invalidate(KEY);
                    } else {
                        fleet.put_local(5, KEY, Bytes::from(format!("local {round}")), 1.0);
                    }
                }
            });
            for m in [0, 3] {
                s.spawn(move || {
                    start.wait();
                    let mut last: Option<(u64, Bytes)> = None;
                    for _ in 0..ROUNDS {
                        let page = fleet
                            .get_from(m, KEY)
                            .expect("members 0 and 3 never lose it");
                        assert!(
                            page.body.starts_with(b"distributor "),
                            "member {m} read {:?}",
                            page.body
                        );
                        if let Some((version, body)) = &last {
                            assert!(page.version >= *version, "member {m}: version fell");
                            if page.version == *version {
                                assert_eq!(page.body, *body, "member {m}: one version, two bodies");
                            }
                        }
                        last = Some((page.version, page.body));
                    }
                });
            }
        });
        // Whichever distribution came last, it wrote to all of them.
        let agreed = fleet.member(0).peek_body(KEY).expect("distributed");
        for m in (0..MEMBERS).filter(|&m| m != 5) {
            assert_eq!(
                fleet.member(m).peek_body(KEY),
                Some(agreed.clone()),
                "member {m}"
            );
        }
        let last = Bytes::from_static(b"the last distribution");
        fleet.distribute(KEY, last.clone(), 1.0);
        for m in 0..MEMBERS {
            let page = fleet.member(m).peek(KEY).expect("distributed");
            assert_eq!(page.body.as_ptr(), last.as_ptr(), "member {m}");
        }
        assert_eq!(fleet.member(0).rows(), 1);
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = watchdog.recv_timeout(Duration::from_secs(60)) {
        panic!("the race did not finish within 60 s: a deadlock");
    }
    blocking!(race.join()).expect("the race panicked");
}
