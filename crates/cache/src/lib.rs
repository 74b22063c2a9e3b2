//! The dynamic-page cache (§2 of the paper).
//!
//! Server programs check this cache before generating a page; the trigger
//! monitor keeps it consistent by either **invalidating** stale entries or
//! — the key 1998 innovation — **updating them in place** with freshly
//! rendered bytes, so hot pages are never missing and hit rates approach
//! 100%.
//!
//! Layout:
//! * [`key`] — pages are keyed by a dense `u32` slot the caller assigns;
//!   a cache may carry a [`KeySpace`] that resolves names (URLs) to slots
//!   for callers that hold only those.
//! * [`PageCache`] — a sharded concurrent table with one entry per page
//!   slot: an immutable byte body and its version, with statistics and
//!   optional capacity bounds. It is a serving complex's cache as the
//!   trigger monitor distributes to it (Figure 6): the simulation models
//!   a complex's serving nodes as one cache, and a socket site is one
//!   node. A page's entry also keeps the distributor's [`Memo`] of its
//!   body, for as long as it holds that body. The cache counts hits,
//!   misses and recency; how often a page is requested is the trigger
//!   monitor's to count.
//! * [`policy`] — the replacement rule of a bounded cache: LRU. At the
//!   Olympics site "all dynamic pages could be cached in memory without
//!   overflow ... the system never had to apply a cache replacement
//!   algorithm" — the unbounded default.
//! * Serving-path resilience (DESIGN.md §11): per-shard *single-flight*
//!   maps so concurrent misses for one page coalesce into one
//!   regeneration ([`PageCache::join_or_lead`]). The cache keeps no stale
//!   copy and reads no clock: [`PageCache::invalidate`] hands the body it
//!   removed back, and a caller that serves stale copies keeps them
//!   (the cluster simulation, beside its circuit breaker).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod key;
pub mod policy;
pub mod stats;

pub use cache::{CacheConfig, CachedPage, FlightOutcome, FlightToken, Memo, PageCache, Visit};
pub use key::{KeySpace, PageRef};
pub use policy::ReplacementPolicy;
pub use stats::{CacheStats, StatsSnapshot};
