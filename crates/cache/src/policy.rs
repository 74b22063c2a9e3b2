//! The replacement rule of a bounded cache.
//!
//! The Olympics deployment sized memory so that "the system never had to
//! apply a cache replacement algorithm": a cache is unbounded unless
//! [`crate::CacheConfig::max_bytes`] is set. A bounded cache evicts the
//! least recently used entry, the one rule there is; the `small_cache`
//! workload of the benchmark harness runs it.

/// How a bounded cache picks its victims: by least recent use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least recently used entry.
    Lru,
}
