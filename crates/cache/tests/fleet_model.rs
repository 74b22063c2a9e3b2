//! The fleet against eight naive maps.
//!
//! `CacheFleet::distribute` keeps a member's entry when it already holds
//! the distributed bytes, compares bytes by address where it can, and
//! stops after the first member when no member has changed on its own
//! since the key was last distributed. None of that may show: after any
//! sequence of distributions (of fresh, byte-equal and pointer-equal
//! bodies), local fills, invalidations, crashes, restores, resyncs and evictions,
//! every member must hold what a map applying "bytes differ ⇒ version + 1,
//! else untouched" holds — body, version, and a head built for both.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use nagano_cache::{CacheConfig, CacheFleet, PrebuiltHead, ReplacementPolicy};

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
        (0..MEMBERS, 0..KEYS).prop_map(|(m, k)| Op::Invalidate(m, k)),
        (0..KEYS).prop_map(Op::InvalidateEverywhere),
        (0..MEMBERS).prop_map(Op::Clear),
        (0..MEMBERS, 0..KEYS, 0..3u8, 1..9u64).prop_map(|(m, k, c, v)| Op::Restore(m, k, c, v)),
        (0..MEMBERS, 1..MEMBERS).prop_map(|(from, by)| Op::Resync(from, (from + by) % MEMBERS)),
    ]
}

fn url(key: u8) -> String {
    format!("/p{key}")
}

fn content(key: u8, choice: u8) -> Vec<u8> {
    vec![b'a' + choice; 8 + (key as usize + choice as usize) % 5]
}

/// One naive member: key → (body, version).
type Naive = BTreeMap<String, (Vec<u8>, u64)>;

fn naive_put(member: &mut Naive, key: &str, body: &[u8], keep_equal: bool) -> bool {
    match member.get_mut(key) {
        Some((held, _)) if keep_equal && held == body => false,
        Some((held, version)) => {
            *held = body.to_vec();
            *version += 1;
            true
        }
        None => {
            member.insert(key.to_string(), (body.to_vec(), 1));
            true
        }
    }
}

fn fleet_with_telling_heads(config: CacheConfig) -> CacheFleet {
    let fleet = CacheFleet::new(MEMBERS, config);
    assert!(
        fleet.set_head_builder(Arc::new(|body: &Bytes, version: u64| PrebuiltHead {
            pre: Bytes::from(format!("len={}", body.len())),
            post: Bytes::from(format!("v{version}")),
        }))
    );
    fleet
}

/// Drive `ops` through a fleet of `config` and through the naive maps.
/// Eviction is taken from the fleet as an input, not predicted: a key
/// other than the one an operation wrote that has gone from a member has
/// gone from its map too. The written key itself is never its own put's
/// victim, so for it the comparison is strict.
fn check(config: CacheConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let bounded = config.max_bytes.is_some();
    let fleet = fleet_with_telling_heads(config);
    let mut model: Vec<Naive> = vec![Naive::new(); MEMBERS];
    for (step, op) in ops.iter().enumerate() {
        let mut written: Option<String> = None;
        match op {
            Op::Distribute(k, body) => {
                let key = url(*k);
                let body = match body {
                    Body::Fresh(c) => Bytes::from(content(*k, *c)),
                    Body::EqualTo(m) => match fleet.member(*m).peek(&key) {
                        Some(page) => Bytes::copy_from_slice(&page.body),
                        None => Bytes::from(content(*k, 0)),
                    },
                    Body::Held => fleet
                        .distributed_body(&key)
                        .unwrap_or_else(|| Bytes::from(content(*k, 1))),
                };
                let mut expected = false;
                for member in &mut model {
                    expected |= naive_put(member, &key, &body, true);
                }
                let changed = fleet.distribute(&key, body, 1.0 + f64::from(*k));
                prop_assert_eq!(changed, expected, "step {}: {:?}", step, op);
                written = Some(key);
            }
            Op::PutLocal(m, k, c) => {
                let key = url(*k);
                let body = content(*k, *c);
                naive_put(&mut model[*m], &key, &body, false);
                fleet.put_local(*m, &key, Bytes::from(body), 2.0);
                written = Some(key);
            }
            Op::Invalidate(m, k) => {
                let was = fleet.member(*m).invalidate(&url(*k));
                prop_assert_eq!(was, model[*m].remove(&url(*k)).is_some());
            }
            Op::InvalidateEverywhere(k) => {
                let held = model
                    .iter_mut()
                    .filter_map(|member| member.remove(&url(*k)))
                    .count();
                prop_assert_eq!(fleet.invalidate_everywhere(&url(*k)), held);
            }
            Op::Clear(m) => {
                fleet.member(*m).clear();
                model[*m].clear();
            }
            Op::Restore(m, k, c, version) => {
                let key = url(*k);
                let body = content(*k, *c);
                model[*m].insert(key.clone(), (body.clone(), *version));
                fleet
                    .member(*m)
                    .restore_entry(&key, Bytes::from(body), 2.0, *version);
                written = Some(key);
            }
            Op::Resync(from, to) => {
                fleet.resync(*from, *to);
                model[*to] = model[*from].clone();
            }
        }
        for (m, (real, naive)) in fleet.members().iter().zip(&mut model).enumerate() {
            if bounded {
                naive.retain(|key, _| Some(key) == written.as_ref() || real.contains(key));
            }
            let held: Naive = real
                .export_entries()
                .into_iter()
                .map(|(key, body, _cost, version)| (key, (body.to_vec(), version)))
                .collect();
            prop_assert_eq!(&held, &*naive, "step {}: {:?}: member {}", step, op, m);
            for (key, (body, version)) in &held {
                let head = real.peek(key).and_then(|page| page.head);
                let head = head.map(|h| (h.pre.to_vec(), h.post.to_vec()));
                let fits = (
                    format!("len={}", body.len()).into_bytes(),
                    format!("v{version}").into_bytes(),
                );
                prop_assert_eq!(head, Some(fits), "step {}: member {}: {}", step, m, key);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_unbounded_fleet_is_eight_maps(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        check(CacheConfig::unbounded().with_shards(2), &ops)?;
    }

    /// Budgets of about four entries a member: most puts evict.
    #[test]
    fn a_fleet_under_eviction_pressure_is_eight_maps(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        gds in any::<bool>(),
    ) {
        let policy = if gds { ReplacementPolicy::GreedyDualSize } else { ReplacementPolicy::Lru };
        check(CacheConfig::bounded(40, policy).with_shards(1), &ops)?;
    }
}
