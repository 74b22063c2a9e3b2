//! Object dependence graphs and the **Data Update Propagation (DUP)**
//! algorithm — the paper's primary algorithmic contribution (§2).
//!
//! DUP maintains correspondences between *objects* (items which may be
//! cached — complete pages, page fragments) and *underlying data* (items
//! which periodically change and affect the values of objects — database
//! records). The correspondences form a directed graph, the **object
//! dependence graph (ODG)**: an edge `v → u` means "a change to `v` also
//! affects `u`". Edges optionally carry weights expressing the importance of
//! the dependence, so the system can quantify *how* obsolete an object is
//! and tolerate slightly-stale pages.
//!
//! When the trigger monitor reports a set of changed underlying data, DUP
//! performs a graph traversal to find exactly the objects affected
//! (transitively: in Figure 1 of the paper, a change to `go2` affects `go5`
//! and `go6` directly and `go7` by transitivity). Those objects are then
//! invalidated or — at the 1998 Olympics site — regenerated and updated in
//! place in the cache.
//!
//! This crate provides:
//! * [`Interner`] — maps external string identities (URLs, record keys) to
//!   dense [`NodeId`]s, for a graph whose vertices have only names: the
//!   benchmark harness's mirror of the trigger monitor's graph and the
//!   examples. The trigger monitor interns nothing: it numbers its
//!   vertices by arithmetic over typed page and data keys.
//! * [`Odg`] — the dependence graph with weighted edges. It only grows:
//!   registration adds vertices and edges as pages are rendered, and
//!   nothing takes one away.
//! * [`DupEngine`] — the propagation algorithm: affected-set computation,
//!   weighted staleness accumulation and cycle handling, in one traversal
//!   for every graph shape; on the paper's **simple ODG** (bipartite,
//!   unweighted) it comes to the direct data → objects lookup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod dup;
pub mod graph;
pub mod interner;

pub use dup::{DupEngine, Propagation, StalenessPolicy};
pub use graph::{Edge, NodeId, NodeKind, Odg, OdgError};
pub use interner::Interner;
