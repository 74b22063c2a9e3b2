//! A minimal threaded HTTP/1.1 server and a keep-alive client.
//!
//! The paper's serving nodes ran a conventional httpd with server programs
//! attached through FastCGI (§2: CGI "incurs too much overhead. Instead,
//! an interface such as FastCGI … should be used"). The performance-
//! relevant property is that the handler runs *in-process* with the cache,
//! so a cache hit costs a hash lookup and a socket write. This crate
//! provides exactly that shape:
//!
//! * [`http`] — request parsing and response serialisation (HTTP/1.0 and
//!   1.1, keep-alive, Content-Length framing): one encoder frames every
//!   response from its status, length and cache version, and the same
//!   module matches `If-None-Match` against that version.
//! * [`server`] — a blocking accept loop feeding a fixed worker pool over
//!   a crossbeam channel; handlers implement [`Handler`].
//! * [`client`] — a blocking keep-alive client (real sockets, real
//!   bytes) for tests, examples and the `throughput` experiment.
//! * [`log`] — NCSA Common Log Format access logging and the log
//!   aggregations that drove the paper's 1998 redesign (§3.1).
//! * [`metrics`] — per-endpoint request counters ([`HttpdMetrics`]) that
//!   bind into the shared telemetry registry as `nagano_httpd_*`.
//! * [`admin`] — the live operations plane ([`AdminPlane`]): `/metrics`
//!   Prometheus scrapes, `/healthz`, and a `/status` JSON document,
//!   wrapped around the page handler on the same port.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod admin;
pub mod client;
pub mod http;
pub mod log;
pub mod metrics;
pub mod server;

pub use admin::{AdminPlane, StatusFn};
pub use client::HttpClient;
pub use http::{
    none_match, read_response_full, Canned, ParseError, Request, RequestReader, Response, Status,
};
pub use log::{AccessLog, LogAnalysis, LogEntry};
pub use metrics::HttpdMetrics;
pub use server::{Handler, RequestObserver, Server, ServerConfig};
