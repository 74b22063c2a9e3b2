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
//!   a fleet may carry a [`KeySpace`] that resolves names (URLs) to slots
//!   for callers that hold only those.
//! * [`PageCache`] — a sharded concurrent table from page slots to
//!   immutable byte bodies, with statistics and optional capacity bounds.
//! * [`policy`] — the replacement rule of a bounded cache: LRU. At the
//!   Olympics site "all dynamic pages could be cached in memory without
//!   overflow ... the system never had to apply a cache replacement
//!   algorithm" — the unbounded default.
//! * [`CacheFleet`] — the eight per-frame serving caches fed by the
//!   trigger monitor's distributor (Figure 6). A page's row also keeps the
//!   distributor's [`Memo`] of the body its members hold, for as long as
//!   one of them holds it.
//! * [`hotness`] — per-page EWMA access frequency, folded from the
//!   members' hit counters once per sim minute; the hybrid propagation
//!   policy uses it to regenerate hot pages and invalidate the cold tail
//!   (DESIGN.md §12).
//! * Serving-path resilience (DESIGN.md §11): per-shard *single-flight*
//!   maps so concurrent misses for one page coalesce into one
//!   regeneration ([`PageCache::join_or_lead`]), and an optional
//!   [`StalePolicy`] that tombstones evicted/invalidated bodies for
//!   bounded-age serve-stale-on-error ([`PageCache::serve_stale`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod fleet;
pub mod hotness;
pub mod key;
pub mod policy;
pub mod stats;

pub use cache::{
    CacheConfig, CachedPage, FlightOutcome, FlightToken, Memo, PageCache, StaleCopy, StalePolicy,
    Visit,
};
pub use fleet::CacheFleet;
pub use hotness::HotnessTracker;
pub use key::{KeySpace, PageRef};
pub use policy::ReplacementPolicy;
pub use stats::{CacheStats, StatsSnapshot};
