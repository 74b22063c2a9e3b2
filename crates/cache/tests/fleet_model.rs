//! One table against naive maps, a map per member.
//!
//! A fleet's caches are the columns of one table: `CacheFleet::distribute`
//! finds a page's row once, keeps a member's entry when it already holds
//! the distributed bytes, and compares bytes by address where it can. None
//! of that may show: after any sequence of distributions (of fresh,
//! byte-equal and pointer-equal bodies), local fills, lookups,
//! invalidations, crashes, restores, resyncs and evictions, every member
//! must hold what a map applying "bytes differ ⇒ version + 1, else
//! untouched" holds — body and version — whether it is a standalone
//! `PageCache`, the only member of a fleet or one of eight.
//! And the table holds a row for exactly the pages some member holds.
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
    Distribute(u8, Body),
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
    (0..KEYS, body).prop_map(|(k, b)| Op::Distribute(k, b))
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

/// One naive member: slot → (body, version).
type Naive = BTreeMap<u32, (Vec<u8>, u64)>;

fn naive_put(member: &mut Naive, key: u32, body: &[u8], keep_equal: bool) -> bool {
    match member.get_mut(&key) {
        Some((held, _)) if keep_equal && held == body => false,
        Some((held, version)) => {
            *held = body.to_vec();
            *version += 1;
            true
        }
        None => {
            member.insert(key, (body.to_vec(), 1));
            true
        }
    }
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
    for (step, op) in ops.iter().enumerate() {
        let mut written: Option<u32> = None;
        match op {
            Op::Distribute(k, body) => {
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
                let mut expected = false;
                for member in &mut model {
                    expected |= naive_put(member, key, &body, true);
                }
                let changed = subject.distribute(key, body, 1.0 + f64::from(*k));
                prop_assert_eq!(changed, expected, "step {}: {:?}", step, op);
                written = Some(key);
            }
            Op::PutLocal(m, k, c) => {
                let key = slot(*k);
                let body = content(*k, *c);
                naive_put(&mut model[m % n], key, &body, false);
                let version = subject.members()[m % n].put(key, Bytes::from(body), 2.0);
                prop_assert_eq!(version, model[m % n][&key].1, "step {}: {:?}", step, op);
                written = Some(key);
            }
            Op::Get(m, k) => {
                let page = subject.members()[m % n].get(slot(*k));
                let page = page.map(|page| (page.body.to_vec(), page.version));
                prop_assert_eq!(page.as_ref(), model[m % n].get(&slot(*k)), "step {}", step);
            }
            Op::Invalidate(m, k) => {
                let was = subject.members()[m % n].invalidate(slot(*k));
                prop_assert_eq!(was, model[m % n].remove(&slot(*k)).is_some());
            }
            Op::InvalidateEverywhere(k) => {
                let held = model
                    .iter_mut()
                    .filter_map(|member| member.remove(&slot(*k)))
                    .count();
                prop_assert_eq!(subject.invalidate_everywhere(slot(*k)), held);
            }
            Op::Clear(m) => {
                subject.members()[m % n].clear();
                model[m % n].clear();
            }
            Op::Restore(m, k, c, version) => {
                let key = slot(*k);
                let body = content(*k, *c);
                model[m % n].insert(key, (body.clone(), *version));
                subject.members()[m % n].restore_entry(key, Bytes::from(body), 2.0, *version);
                written = Some(key);
            }
            Op::Resync(from, to) => {
                let (from, to) = (from % n, to % n);
                if from != to {
                    subject.resync(from, to);
                    model[to] = model[from].clone();
                }
            }
        }
        for (m, (real, naive)) in subject.members().iter().zip(&mut model).enumerate() {
            if bounded {
                naive.retain(|&key, _| Some(key) == written || real.contains(key));
            }
            let held: Naive = real
                .entries()
                .into_iter()
                .map(|(key, body, _cost, version)| (key, (body.to_vec(), version)))
                .collect();
            prop_assert_eq!(&held, &*naive, "step {}: {:?}: member {}", step, op, m);
            prop_assert_eq!(real.len(), naive.len(), "step {}: member {}", step, m);
            let bytes: usize = naive.values().map(|(body, _)| body.len()).sum();
            prop_assert_eq!(real.bytes(), bytes as u64, "step {}: member {}", step, m);
        }
        // No row outlives its last cell: the table has a row for every
        // page some member holds, and for no other.
        let pages: BTreeSet<&u32> = model.iter().flat_map(Naive::keys).collect();
        for real in subject.members() {
            prop_assert_eq!(real.rows(), pages.len(), "step {}: {:?}", step, op);
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
