//! **nagano** — a complete reproduction of the serving system behind the
//! 1998 Olympic Winter Games web site (Challenger, Dantzig & Iyengar,
//! SC '98): dynamic-page caching with **Data Update Propagation (DUP)**,
//! a trigger monitor that updates stale pages *in place*, and the
//! supporting substrates (results database, page renderer, HTTP server,
//! global cluster simulation).
//!
//! # Quickstart
//!
//! ```
//! use nagano::{ServingSite, SiteConfig};
//!
//! // Build a site over a small synthetic Games: seeds the database,
//! // renders every page, registers the object dependence graph, and
//! // warms the serving cache.
//! let site = ServingSite::build(SiteConfig::small());
//!
//! // Serve a page. It's a cache hit.
//! let medal_page = site.handle("/medals").expect("served");
//! assert!(medal_page.cache_hit);
//!
//! // New results arrive: the trigger monitor runs DUP and refreshes
//! // every affected page in place — the next read sees fresh content
//! // and is *still* a cache hit.
//! let event = site.db().events()[0].clone();
//! let athletes = site.db().athletes_of_sport(event.sport);
//! site.db().record_results(
//!     event.id,
//!     &[(athletes[0].id, 100.0), (athletes[1].id, 99.0), (athletes[2].id, 98.0)],
//!     true,
//!     event.day,
//! );
//! let outcome = site.pump();
//! assert!(outcome.regenerated > 0);
//! let updated = site.handle("/medals").expect("served");
//! assert!(updated.cache_hit);
//! assert_ne!(updated.body, medal_page.body);
//! ```
//!
//! # Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`nagano_odg`] | Object dependence graph + the DUP algorithm |
//! | [`nagano_cache`] | Concurrent page cache (update-in-place, policies) |
//! | [`nagano_db`] | Results database, transaction log, replication |
//! | [`nagano_pagegen`] | Page space, renderer, dependency derivation |
//! | [`nagano_trigger`] | The trigger monitor |
//! | [`nagano_httpd`] | Threaded HTTP server + load generator |
//! | [`nagano_simcore`] | Discrete-event simulation kernel |
//!
//! The global four-complex architecture simulation lives in
//! `nagano-cluster`, and `nagano-bench` regenerates every table and
//! figure of the paper (`cargo run -p nagano-bench --bin reproduce`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod serve;
pub mod site;

pub use site::{PumpOutcome, ServedPage, ServingSite, SiteConfig, SiteMetrics};

// Re-export the component crates under stable names.
pub use nagano_cache as cache;
pub use nagano_db as db;
pub use nagano_httpd as httpd;
pub use nagano_odg as odg;
pub use nagano_pagegen as pagegen;
pub use nagano_simcore as simcore;
pub use nagano_trigger as trigger;

/// Convenient access to the most-used types.
pub mod prelude {
    pub use crate::site::{ServingSite, SiteConfig};
    pub use nagano_cache::{CacheConfig, PageCache, ReplacementPolicy};
    pub use nagano_db::{GamesConfig, OlympicDb};
    pub use nagano_odg::{DupEngine, Odg, StalenessPolicy};
    pub use nagano_pagegen::{PageKey, Renderer};
    pub use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};
}
