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
//! * [`monitor::TriggerMonitor`] — consumes database transactions, resolves
//!   changed records to ODG vertices, runs DUP, and applies a
//!   [`policy::ConsistencyPolicy`]:
//!   - `UpdateInPlace` — regenerate affected pages (in parallel, with
//!     rayon) and push them into every serving cache; pages are never
//!     missing, which is how the 1998 site reached ~100% hit rates;
//!   - `Invalidate` — precise DUP invalidation (pages regenerate on the
//!     next demand miss);
//!   - `Hybrid` — hotness-aware split (DESIGN.md §12): regenerate stale
//!     pages hottest-first under a per-batch budget, invalidate the cold
//!     tail, defer overflow to a bounded queue drained on later ticks;
//!   - `Conservative96` — the 1996 baseline: invalidate entire content
//!     sections, "significantly more pages ... than were necessary".
//!
//!   Page fragments are registered pages of their own and hybrid ODG
//!   vertices (DESIGN.md §14): a data change marks the fragment, the
//!   fragment marks every page embedding it, and the renderer's section
//!   memo splices the fragment's one fresh render into each of them.
//! * [`runner`] — a background thread driving the monitor from a
//!   transaction subscription (the live deployment shape).
//! * [`stats`] — counters and freshness tracking (event recorded → page
//!   visible), backing the `fresh` and `regen` experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod monitor;
pub mod policy;
pub mod runner;
pub mod stats;

pub use monitor::{DemandFill, TriggerMonitor, TxnOutcome};
pub use policy::{ConsistencyPolicy, HybridConfig};
pub use runner::TriggerRunner;
pub use stats::{TriggerStats, TriggerStatsSnapshot};
