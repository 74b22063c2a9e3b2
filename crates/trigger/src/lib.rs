//! The **trigger monitor** (§2, Figure 6 of the paper).
//!
//! "A component known as the trigger monitor is responsible for monitoring
//! databases and notifying the cache when changes to the databases occur."
//! In the 1998 deployment it ran on each SP2's SMP node: it analysed
//! incoming data, asked the local httpd to re-render the relevant pages,
//! and distributed the updated pages to the eight serving uniprocessors.
//!
//! This crate implements that pipeline:
//!
//! * [`monitor::TriggerMonitor`] — consumes database transactions in three
//!   steps: [`mark`](TriggerMonitor::mark) resolves changed records to ODG
//!   vertices and runs DUP, [`refresh`](TriggerMonitor::refresh)
//!   regenerates marked pages onto the bodies the cache holds and
//!   distributes them, and [`invalidate`](TriggerMonitor::invalidate) drops
//!   them. [`process_batch`](TriggerMonitor::process_batch) composes the
//!   steps for a [`ConsistencyPolicy`]:
//!   - `UpdateInPlace` — regenerate affected pages one after the other
//!     and push each into the serving cache; pages are never missing,
//!     which is how the 1998 site reached ~100% hit rates;
//!   - `Invalidate` — precise DUP invalidation (pages regenerate on the
//!     next demand miss).
//!
//!   The hotness-ranked hybrid and the 1996 section invalidation drive the
//!   same steps from the cluster simulation (DESIGN.md §12), which keeps
//!   the request clock they need.
//!
//!   Page fragments are registered pages of their own and hybrid ODG
//!   vertices (DESIGN.md §14): a data change marks the fragment, the
//!   fragment marks every page embedding it, and the renderer's section
//!   memo splices the fragment's one fresh render into each of them.
//!
//!   A page is keyed by its slot in the registry's page space
//!   ([`nagano_pagegen::PageSpace`]) from there on: its vertex in the
//!   graph, its registered dependency list, and its entry in the cache.
//! * [`runner`] — a background thread driving the monitor from the site
//!   database's transaction log (the live deployment shape).
//! * [`stats`] — counters of the work done.
//! * [`urls`] — [`PageUrls`], the page space as a cache's key space, for
//!   callers that name pages by URL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod monitor;
pub mod runner;
pub mod stats;
pub mod urls;

pub use monitor::{ConsistencyPolicy, DemandFill, Refreshed, TriggerMonitor, TxnOutcome};
pub use runner::TriggerRunner;
pub use stats::{TriggerStats, TriggerStatsSnapshot};
pub use urls::PageUrls;
