//! Discrete-event simulation kernel and supporting numerics for the Nagano
//! reproduction.
//!
//! The paper's evaluation reports aggregate behaviour of a globally
//! distributed serving system (hits per hour/day, bytes transferred,
//! client-perceived response times, failover behaviour). We reproduce those
//! series with a deterministic discrete-event simulation; this crate provides
//! the pieces every other simulation crate builds on:
//!
//! * [`time`] — a microsecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]) with calendar helpers for the 16-day Games.
//! * [`events`] — a deterministic event queue ([`EventQueue`]) with stable
//!   FIFO ordering for simultaneous events.
//! * [`rng`] — seedable random sources and the distributions the workload
//!   models need (Zipf, exponential, log-normal, Bernoulli mixtures).
//! * [`stats`] — streaming statistics: Welford mean/variance, log-bucketed
//!   histograms with percentile queries, binned time series.
//! * [`link`] — client-link transfer models (28.8 kbps modems, LAN/T1 links,
//!   external-congestion injection) used by Tables 1–2 and Figure 22.
//! * [`sync`] — the workspace's locks and its one way to block
//!   ([`blocking!`]), which check lock order in a debug build.
//! * [`uncounted`] — the thread-local mark a debug-build checker's own
//!   work runs under, which allocation counts leave out.
//!
//! Everything is deterministic given a seed: no wall-clock reads, no global
//! RNG state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod link;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod uncounted;

pub use events::EventQueue;
pub use link::{LinkClass, LinkModel, TransferEstimate};
pub use rng::{DeterministicRng, Exponential, LogNormal, Zipf};
pub use stats::{Histogram, TimeSeries, Welford};
pub use time::{SimDuration, SimTime};
