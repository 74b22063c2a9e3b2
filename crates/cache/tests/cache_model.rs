//! The cache against a naive map.
//!
//! `PageCache::distribute_with` finds a page's entry once, keeps it when
//! it already holds the distributed bytes, and compares bytes by address
//! where it can: handed the body a render was made onto, it takes the
//! render's verdict from the address alone while the entry still holds
//! that body. None of that may show: after any sequence of distributions
//! (of fresh, byte-equal and pointer-equal bodies, and of renders onto the
//! body a visit took, whether the entry still holds it or a fill, an
//! invalidation, a clear or another distribution came between), fills,
//! lookups, visits, invalidations, clears and evictions, the cache must
//! hold what a map applying "bytes differ ⇒ version + 1, else untouched"
//! holds — body and version, allocation included, a page's versions
//! counting on across its removals — and must have counted what the map
//! counts: hits, misses, inserts, updates, invalidations, evictions and
//! bytes. A memo handed with a distribution lives for exactly as long as
//! the entry holds the allocation it is of, and no visit has taken it out.
//!
//! The last test races lookups, a writer and two distributors on one key,
//! for what one lock per shard has to guarantee.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use nagano_cache::{CacheConfig, PageCache, ReplacementPolicy, Visit};
use nagano_telemetry::sync::blocking;

const KEYS: u8 = 10;

#[derive(Debug, Clone)]
enum Body {
    /// New bytes in a new allocation (one of a few per key, so that an
    /// earlier body comes back).
    Fresh(u8),
    /// The bytes the cache holds, in a new allocation.
    Equal,
    /// The very allocation the cache holds.
    Held,
    /// A render onto the body the page's latest visit took: that very
    /// allocation if `None`, else new bytes — or that allocation, should
    /// they be its bytes, as a renderer hands back what it was rendered
    /// onto exactly when the page came out as its bytes.
    Onto(Option<u8>),
}

#[derive(Debug, Clone)]
enum Op {
    /// A distribution, with a memo if `true`.
    Distribute(u8, Body, bool),
    Put(u8, u8),
    Get(u8),
    /// A visit that answers from the memo if `true`, else takes it out.
    Visit(u8, bool),
    /// A visit that takes the body and memo out, then a distribution, with
    /// a memo, of a render onto that body ([`Body::Onto`]).
    Regenerate(u8, Option<u8>),
    Invalidate(u8),
    Clear,
}

fn distribute_strategy() -> impl Strategy<Value = Op> {
    let body = prop_oneof![
        (0..3u8).prop_map(Body::Fresh),
        Just(Body::Equal),
        Just(Body::Held),
        outcome().prop_map(Body::Onto),
    ];
    (0..KEYS, body, any::<bool>()).prop_map(|(k, b, memo)| Op::Distribute(k, b, memo))
}

/// What a render onto a held body came out as.
fn outcome() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![Just(None), (0..3u8).prop_map(Some)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Weighted towards the operation under test.
        distribute_strategy(),
        distribute_strategy(),
        distribute_strategy(),
        (0..KEYS, 0..3u8).prop_map(|(k, c)| Op::Put(k, c)),
        (0..KEYS).prop_map(Op::Get),
        (0..KEYS, any::<bool>()).prop_map(|(k, answer)| Op::Visit(k, answer)),
        (0..KEYS, outcome()).prop_map(|(k, outcome)| Op::Regenerate(k, outcome)),
        (0..KEYS).prop_map(Op::Invalidate),
        Just(Op::Clear),
    ]
}

/// The page's slot.
fn slot(key: u8) -> u32 {
    u32::from(key)
}

fn content(key: u8, choice: u8) -> Vec<u8> {
    vec![b'a' + choice; 8 + (key as usize + choice as usize) % 5]
}

/// The naive cache: slot → (body, version), the body the very allocation
/// the cache holds.
type Naive = BTreeMap<u32, (Bytes, u64)>;

/// The last version each page had, whether it is still cached or not.
type Versions = BTreeMap<u32, u64>;

/// What the naive cache has counted, as a cache's statistics count it.
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
    /// A write of `body` over `old`, if the cache held one.
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

/// The naive cache: what it holds, the versions it gave, what it counted,
/// and the memo of each page the cache keeps one for: the allocation it is
/// of, and the step that handed it.
#[derive(Default)]
struct Model {
    held: Naive,
    versions: Versions,
    counts: Counts,
    memos: BTreeMap<u32, (Bytes, usize)>,
}

impl Model {
    /// A put: always a new version, one past the page's last.
    fn put(&mut self, key: u32, body: Bytes) {
        let old = self.held.get(&key);
        self.counts.write(old.map(|(body, _)| body), &body);
        let version = self.versions.entry(key).or_default();
        *version += 1;
        self.held.insert(key, (body, *version));
    }

    /// A distribution: a put unless the cache holds those bytes. Returns
    /// whether it wrote.
    fn distribute(&mut self, key: u32, body: Bytes) -> bool {
        let held = self.held.get(&key).is_some_and(|(held, _)| *held == body);
        if !held {
            self.put(key, body);
        }
        !held
    }
}

/// The body a render onto `held` came out as ([`Body::Onto`]).
fn rendered_onto(held: &Bytes, key: u8, outcome: Option<u8>) -> Bytes {
    match outcome.map(|c| content(key, c)) {
        Some(bytes) if bytes != held[..] => Bytes::from(bytes),
        _ => held.clone(),
    }
}

/// Drive `ops` through a cache of `config` and through the naive map.
/// Eviction is taken from the cache as an input, not predicted: a key
/// other than the one an operation wrote that has gone from the cache has
/// gone from the map too. The written key itself is never its own write's
/// victim, so for it the comparison is strict.
fn check(config: CacheConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let bounded = config.max_bytes.is_some();
    let cache = PageCache::new(config);
    let mut model = Model::default();
    // The body each page's latest visit took out, to render onto.
    let mut visited: BTreeMap<u32, Bytes> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        let mut written: Option<u32> = None;
        match op {
            Op::Distribute(k, body, memo) => {
                let key = slot(*k);
                let fallback = || Bytes::from(content(*k, 1));
                let onto = match body {
                    Body::Onto(_) => visited.get(&key).cloned(),
                    _ => None,
                };
                let body = match body {
                    Body::Fresh(c) => Bytes::from(content(*k, *c)),
                    Body::Equal => cache
                        .peek_body(key)
                        .map_or_else(fallback, |held| Bytes::copy_from_slice(&held)),
                    Body::Held => cache.peek_body(key).unwrap_or_else(fallback),
                    Body::Onto(outcome) => onto
                        .as_ref()
                        .map_or_else(fallback, |held| rendered_onto(held, *k, *outcome)),
                };
                distribute(&cache, &mut model, step, key, body, onto.as_ref(), *memo)?;
                written = Some(key);
            }
            Op::Regenerate(k, outcome) => {
                let key = slot(*k);
                if let Some(held) = take(&cache, &mut model, step, key)? {
                    let body = rendered_onto(&held, *k, *outcome);
                    distribute(&cache, &mut model, step, key, body, Some(&held), true)?;
                    visited.insert(key, held);
                    written = Some(key);
                }
            }
            Op::Put(k, c) => {
                let key = slot(*k);
                let body = Bytes::from(content(*k, *c));
                model.put(key, body.clone());
                model.memos.remove(&key);
                let version = cache.put(key, body);
                prop_assert_eq!(version, model.held[&key].1, "step {}: {:?}", step, op);
                written = Some(key);
            }
            Op::Get(k) => {
                let page = cache.get(slot(*k));
                match page {
                    Some(_) => model.counts.hits += 1,
                    None => model.counts.misses += 1,
                }
                let page = page.map(|page| (page.body, page.version));
                prop_assert_eq!(page, model.held.get(&slot(*k)).cloned(), "step {}", step);
            }
            Op::Visit(k, false) => {
                let key = slot(*k);
                if let Some(held) = take(&cache, &mut model, step, key)? {
                    visited.insert(key, held);
                }
            }
            Op::Visit(k, true) => {
                let key = slot(*k);
                let visit = cache.answer_or_take(key, |_, &handed: &usize| Some(handed));
                let memo = model.memos.get(&key).map(|&(_, handed)| handed);
                match visit {
                    Visit::Answered(handed) => {
                        prop_assert_eq!(Some(handed), memo, "step {}", step);
                    }
                    Visit::Taken(held) => {
                        prop_assert!(memo.is_none(), "step {}", step);
                        let naive = model.held.get(&key).map(|(body, _)| body.as_ptr());
                        let held = held.map(|(body, taken)| (body.as_ptr(), taken.is_some()));
                        prop_assert_eq!(held, naive.map(|body| (body, false)), "step {}", step);
                    }
                }
            }
            Op::Invalidate(k) => {
                let was = cache.invalidate(slot(*k));
                let removed = model.held.remove(&slot(*k));
                if let Some((body, _)) = &removed {
                    model.counts.remove(body, true);
                }
                // The very allocation the entry held is handed back.
                let ptr = |body: &Bytes| body.as_ptr();
                prop_assert_eq!(was.as_ref().map(ptr), removed.as_ref().map(|(b, _)| ptr(b)));
            }
            Op::Clear => {
                cache.clear();
                for (body, _) in std::mem::take(&mut model.held).values() {
                    model.counts.remove(body, true);
                }
            }
        }
        if bounded {
            let Model { held, counts, .. } = &mut model;
            held.retain(|&key, (body, _)| {
                let kept = Some(key) == written || cache.contains(key);
                if !kept {
                    counts.remove(body, false);
                }
                kept
            });
        }
        let held: Naive = cache
            .entries()
            .into_iter()
            .map(|(key, body, _, version)| (key, (body, version)))
            .collect();
        prop_assert_eq!(&held, &model.held, "step {}: {:?}", step, op);
        for (key, (body, _)) in &held {
            let same = model.held[key].0.as_ptr() == body.as_ptr();
            prop_assert!(
                same,
                "step {}: {:?}: {} in another allocation",
                step,
                op,
                key
            );
        }
        prop_assert_eq!(cache.len(), model.held.len(), "step {}", step);
        let bytes: usize = model.held.values().map(|(body, _)| body.len()).sum();
        prop_assert_eq!(cache.bytes(), bytes as u64, "step {}", step);
        let stats = cache.stats();
        let real_counts = Counts {
            hits: stats.hits,
            misses: stats.misses,
            inserts: stats.inserts,
            updates: stats.updates,
            invalidations: stats.invalidations,
            evictions: stats.evictions,
            bytes_current: stats.bytes_current,
        };
        prop_assert_eq!(&real_counts, &model.counts, "step {}: {:?}", step, op);
        prop_assert!(stats.bytes_peak >= stats.bytes_current, "step {}", step);
        // A memo lives while the entry holds the allocation it is of.
        let Model { held, memos, .. } = &mut model;
        memos.retain(|key, (of, _)| {
            held.get(key)
                .is_some_and(|(b, _)| b.as_ptr() == of.as_ptr())
        });
        for key in (0..KEYS).map(slot) {
            let expected = model
                .memos
                .get(&key)
                .map(|(of, handed)| (of.as_ptr(), *handed));
            let real = cache.with_memo(key, |body, &handed: &usize| (body.as_ptr(), handed));
            prop_assert_eq!(real, expected, "step {}: {:?}: {}", step, op, key);
            prop_assert_eq!(cache.has_memo(key), expected.is_some(), "step {}", step);
        }
    }
    Ok(())
}

/// A visit that takes `key`'s body and memo out of its entry, checked
/// against the model; returns the body taken.
fn take(
    cache: &PageCache,
    model: &mut Model,
    step: usize,
    key: u32,
) -> Result<Option<Bytes>, TestCaseError> {
    let visit = cache.answer_or_take(key, |_, _: &usize| None::<()>);
    let memo = model.memos.remove(&key).map(|(_, handed)| handed);
    let Visit::Taken(held) = visit else {
        unreachable!("a visit that answers nothing takes");
    };
    let naive = model.held.get(&key).map(|(body, _)| body.as_ptr());
    let seen = held
        .as_ref()
        .map(|(body, taken)| (body.as_ptr(), taken.as_deref().copied()));
    prop_assert_eq!(seen, naive.map(|body| (body, memo)), "step {}", step);
    Ok(held.map(|(body, _)| body))
}

/// One distribution of `body` to `key`, rendered onto `onto` if that is
/// given, with a memo if `memo`, in the cache and in the model.
fn distribute(
    cache: &PageCache,
    model: &mut Model,
    step: usize,
    key: u32,
    body: Bytes,
    onto: Option<&Bytes>,
    memo: bool,
) -> Result<(), TestCaseError> {
    let expected = model.distribute(key, body.clone());
    let memo = memo.then(|| Box::new(step) as nagano_cache::Memo);
    if memo.is_some() {
        let of = model.held[&key].0.clone();
        model.memos.insert(key, (of, step));
    } else if expected {
        model.memos.remove(&key);
    }
    let changed = cache.distribute_with(key, body, onto, memo);
    prop_assert_eq!(changed, expected, "step {}: distributed to {}", step, key);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_unbounded_cache_is_a_map(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        check(CacheConfig::unbounded().with_shards(2), &ops)?;
    }

    /// One lock with a budget of about four entries: most writes evict.
    #[test]
    fn a_cache_under_eviction_pressure_is_a_map(
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        let lru = CacheConfig::bounded(40, ReplacementPolicy::Lru).with_shards(1);
        check(lru, &ops)?;
    }
}

/// Each way a distribution handed the allocation its render was made onto
/// can find the page's entry: still holding that allocation, with the
/// page come out changed or not; or moved on since the visit that took
/// it — by a fill, an invalidation, a clear or another distribution — with
/// the page come out as the held body, as the bytes the entry moved on to,
/// or as other bytes. Only where the entry still holds the allocation may
/// its address decide.
#[test]
fn a_distribution_handed_its_held_allocation_is_a_map() {
    const K: u8 = 3;
    let fill = || Op::Distribute(K, Body::Fresh(0), true);
    let disturbances = [
        Op::Put(K, 2),
        Op::Invalidate(K),
        Op::Clear,
        Op::Distribute(K, Body::Fresh(2), false),
    ];
    let mut runs = Vec::new();
    for outcome in [None, Some(1), Some(2)] {
        runs.push(vec![
            fill(),
            Op::Regenerate(K, outcome),
            Op::Regenerate(K, outcome),
        ]);
        for disturbance in &disturbances {
            runs.push(vec![
                fill(),
                Op::Visit(K, false),
                disturbance.clone(),
                Op::Distribute(K, Body::Onto(outcome), true),
                Op::Get(K),
            ]);
        }
    }
    for ops in runs {
        let configs = [
            CacheConfig::unbounded().with_shards(2),
            CacheConfig::bounded(40, ReplacementPolicy::Lru).with_shards(1),
        ];
        for config in configs {
            if let Err(failed) = check(config, &ops) {
                panic!("{ops:?}: {failed:?}");
            }
        }
    }
}

/// Two readers, a writer that fills, invalidates and clears, and two
/// distributors race on one key. Whatever each does it does under the
/// shard's one lock, so: a reader sees only bodies that were written
/// whole, the books agree with what is held once the race is over, and a
/// distribution that follows it leaves its very allocation, and its memo,
/// in place.
#[test]
fn lookups_local_writes_and_distributions_of_one_key_race() {
    const ROUNDS: usize = 20_000;
    const KEY: u32 = 48;
    let (done, watchdog) = mpsc::channel();
    let race = std::thread::spawn(move || {
        let cache = &PageCache::new(CacheConfig::default());
        let distributed = |who: usize, round: usize| format!("distributor {who} round {round:06}");
        let length = distributed(0, 0).len();
        cache.distribute_with(KEY, Bytes::from(distributed(0, 0)), None, None);
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for who in 0..2 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 1..=ROUNDS {
                        // Every other round the bytes of the round before:
                        // the keep path races too.
                        let body = Bytes::from(distributed(who, round & !1));
                        cache.distribute_with(KEY, body, None, Some(Box::new(round)));
                    }
                });
            }
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    match round % 7 {
                        6 => cache.clear(),
                        2 | 5 => {
                            cache.invalidate(KEY);
                        }
                        _ => {
                            cache.put(KEY, Bytes::from(format!("local {round}")));
                        }
                    }
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        let Some(page) = cache.get(KEY) else {
                            continue;
                        };
                        let whole = |prefix: &[u8], len: usize| {
                            page.body.starts_with(prefix) && page.body.len() == len
                        };
                        assert!(
                            whole(b"distributor ", length) || page.body.starts_with(b"local "),
                            "read {:?}",
                            page.body
                        );
                        assert!(page.version >= 1);
                    }
                });
            }
        });
        // The books agree with what is held.
        let stats = cache.stats();
        let held = cache.peek_body(KEY);
        let bytes = held.as_ref().map_or(0, |body| body.len() as u64);
        assert_eq!((cache.bytes(), stats.bytes_current), (bytes, bytes));
        assert_eq!(cache.len(), usize::from(held.is_some()));
        assert_eq!(stats.inserts, stats.invalidations + cache.len() as u64);
        let last = Bytes::from_static(b"the last distribution");
        cache.distribute_with(KEY, last.clone(), None, Some(Box::new(0_usize)));
        let page = cache.peek(KEY).expect("distributed");
        assert_eq!(page.body.as_ptr(), last.as_ptr());
        assert_eq!(cache.with_memo(KEY, |_, &m: &usize| m), Some(0));
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = watchdog.recv_timeout(Duration::from_secs(60)) {
        panic!("the race did not finish within 60 s: a deadlock");
    }
    blocking!(race.join()).expect("the race panicked");
}
