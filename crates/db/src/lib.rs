//! In-memory Olympic results database — the substrate standing in for the
//! paper's DB2 deployment (venue databases → master database → replicated
//! site databases, Figures 4–5).
//!
//! DUP does not care which database engine sits underneath; it needs
//! exactly three things, all provided here:
//!
//! 1. **Typed tables** of domain rows (sports, events, athletes, countries,
//!    results, medal tallies, news, photos) — [`schema`], [`table`] — read
//!    through [`DbView`] snapshots: one lock, borrowed rows, indexed
//!    by-column queries, revision stamps for the renderer's section memo.
//! 2. **A transaction log**: every committed mutation appends a
//!    [`txn::Transaction`] carrying the typed *data keys* of the changed
//!    records ([`key`]: the identities that become underlying-data
//!    vertices in the ODG). The log is the one record of commits: the
//!    trigger monitor reads it past its watermark — [`txn`], [`database`].
//! 3. **Log shipping** between sites: a site's replica is a [`TxnLog`]
//!    whose ids are the master's, taking each transaction delivered to it
//!    in sequence ([`TxnLog::deliver`]) and pulling what it missed from
//!    whichever log feeds it ([`TxnLog::catch_up`]) — [`txn`].
//!
//! [`seed`] generates a deterministic synthetic Winter Games: the event
//! schedule drives the update workload of every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod key;
pub mod schema;
pub mod seed;
pub mod table;
pub mod txn;

pub use database::{DbView, OlympicDb};
pub use key::{DataKey, Datum, FragmentKey};
pub use schema::{
    Athlete, AthleteId, Country, CountryId, Event, EventId, EventPhase, MedalCount, NewsArticle,
    NewsId, Photo, PhotoId, ResultId, ResultRow, Sport, SportId,
};
pub use seed::{seed_games, GamesConfig};
pub use txn::{ChangeOp, DeliverOutcome, RecordChange, Transaction, TxnId, TxnLog};
