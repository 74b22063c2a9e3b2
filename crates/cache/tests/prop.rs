//! Property-based tests for the page cache against simple reference models.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;

use nagano_cache::{CacheConfig, PageCache, ReplacementPolicy};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8), // key, size selector
    Get(u8),
    Invalidate(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..40u8, 1..20u8).prop_map(|(k, s)| Op::Put(k, s)),
        (0..40u8).prop_map(Op::Get),
        (0..40u8).prop_map(Op::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An unbounded cache behaves exactly like a map.
    #[test]
    fn unbounded_cache_is_a_map(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let cache = PageCache::new(CacheConfig::unbounded().with_shards(4));
        let mut model: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut versions: BTreeMap<u32, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, s) => {
                    let key = u32::from(k);
                    let data = vec![k; s as usize];
                    let v = cache.put(key, Bytes::from(data.clone()));
                    model.insert(key, data);
                    let expect = versions.entry(key).or_insert(0);
                    *expect += 1;
                    prop_assert_eq!(v, *expect);
                }
                Op::Get(k) => {
                    let key = u32::from(k);
                    let got = cache.get(key).map(|p| p.body.to_vec());
                    prop_assert_eq!(got, model.get(&key).cloned());
                }
                Op::Invalidate(k) => {
                    let key = u32::from(k);
                    let was = cache.invalidate(key).map(|body| body.to_vec());
                    // The page's next entry counts its versions on.
                    prop_assert_eq!(was, model.remove(&key));
                }
            }
            // Byte accounting invariant holds after every operation.
            let model_bytes: u64 = model.values().map(|v| v.len() as u64).sum();
            prop_assert_eq!(cache.bytes(), model_bytes);
            prop_assert_eq!(cache.len(), model.len());
        }
    }

    /// A single-shard LRU cache matches a straightforward ordered-list
    /// reference implementation.
    #[test]
    fn lru_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        const BUDGET: u64 = 100;
        const ENTRY: usize = 10; // fixed entry size keeps the model simple
        let cache = PageCache::new(
            CacheConfig::bounded(BUDGET, ReplacementPolicy::Lru).with_shards(1),
        );
        // Reference: Vec of keys, most recently used last.
        let mut order: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Put(k, _) => {
                    let key = u32::from(k);
                    cache.put(key, Bytes::from(vec![k; ENTRY]));
                    order.retain(|x| x != &key);
                    order.push(key);
                    while order.len() * ENTRY > BUDGET as usize {
                        order.remove(0);
                    }
                }
                Op::Get(k) => {
                    let key = u32::from(k);
                    let hit = cache.get(key).is_some();
                    let model_hit = order.contains(&key);
                    prop_assert_eq!(hit, model_hit, "key {}", key);
                    if model_hit {
                        order.retain(|x| x != &key);
                        order.push(key);
                    }
                }
                Op::Invalidate(k) => {
                    let key = u32::from(k);
                    let was = cache.invalidate(key).is_some();
                    let model_was = order.contains(&key);
                    order.retain(|x| x != &key);
                    prop_assert_eq!(was, model_was);
                }
            }
            prop_assert_eq!(cache.len(), order.len());
        }
    }

    /// A bounded cache never exceeds its byte budget when every entry
    /// fits individually.
    #[test]
    fn bounded_budget_is_respected(
        ops in proptest::collection::vec((0..60u8, 1..8u8), 1..300),
    ) {
        let cache = PageCache::new(
            CacheConfig::bounded(64, ReplacementPolicy::Lru).with_shards(1),
        );
        for (k, s) in ops {
            cache.put(u32::from(k), Bytes::from(vec![0u8; s as usize]));
            prop_assert!(cache.bytes() <= 64, "bytes {}", cache.bytes());
        }
    }

    /// Stats identity: hits + misses equals the number of gets; the gauge
    /// equals live bytes.
    #[test]
    fn stats_identities(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let cache = PageCache::new(CacheConfig::unbounded().with_shards(2));
        let mut gets = 0u64;
        for op in ops {
            match op {
                Op::Put(k, s) => {
                    cache.put(u32::from(k), Bytes::from(vec![0u8; s as usize]));
                }
                Op::Get(k) => {
                    cache.get(u32::from(k));
                    gets += 1;
                }
                Op::Invalidate(k) => {
                    cache.invalidate(u32::from(k));
                }
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, gets);
        prop_assert_eq!(s.bytes_current, cache.bytes());
        prop_assert!(s.bytes_peak >= s.bytes_current);
    }
}
