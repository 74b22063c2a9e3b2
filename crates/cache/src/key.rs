//! How a cache call names a page.
//!
//! A page's key is its *slot*: a dense `u32` the caller assigns (the
//! site's page space numbers every page it can serve). A table finds a
//! row by arithmetic on it — the shard is `slot & mask`, the row's place
//! in that shard `slot >> shift` — so no string is formatted, hashed or
//! compared on a lookup or a distribution. Slots must be dense: a shard's
//! row vector reaches as far as the largest slot written to it, so a
//! table holds `slots / shards` row places whatever its page count.
//!
//! A fleet may also be given a [`KeySpace`], which turns a page's name
//! (its URL) into its slot and back. Every call that takes a page takes a
//! [`PageRef`]: a slot, or a name looked up in that key space first — the
//! adapter for callers that hold only URLs, such as the wall-clock
//! benchmark harness and tests.

use std::fmt;

/// A fleet's names for its slots.
pub trait KeySpace: Send + Sync + fmt::Debug {
    /// The slot `name` stands for, if it names a page of the space.
    fn slot(&self, name: &str) -> Option<u32>;
    /// The name of the page in `slot`.
    fn name(&self, slot: u32) -> String;
}

/// A page as a cache call names it: by slot, or by a name the cache's
/// [`KeySpace`] resolves (none resolves without one).
pub trait PageRef {
    /// The slot this names, in `keys` if it is a name.
    fn slot_in(self, keys: Option<&dyn KeySpace>) -> Option<u32>;
}

impl PageRef for u32 {
    #[inline]
    fn slot_in(self, _: Option<&dyn KeySpace>) -> Option<u32> {
        Some(self)
    }
}

impl<S: AsRef<str> + ?Sized> PageRef for &S {
    fn slot_in(self, keys: Option<&dyn KeySpace>) -> Option<u32> {
        keys?.slot(self.as_ref())
    }
}
