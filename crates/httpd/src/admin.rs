//! The live admin plane: `/metrics`, `/healthz`, and `/status`.
//!
//! The production site was operated from measurement — §3's access-log
//! analysis drove the whole 1998 redesign — but its operators could only
//! see yesterday's logs. [`AdminPlane`] gives a running serving node the
//! modern equivalent: a Prometheus text-format scrape of the live
//! telemetry registry, a liveness probe, and a JSON status document
//! (cache occupancy, deferred-regeneration queue depth, replication
//! watermark), all served over the same HTTP stack as page traffic and
//! scrapeable mid-run over real TCP.
//!
//! The plane wraps an inner page [`Handler`]: admin paths are answered
//! directly, everything else falls through — so one listening port
//! serves both pages and operations.

use std::sync::Arc;

use bytes::Bytes;
use nagano_telemetry::{prometheus_text, Counter, MetricsRegistry};

use crate::http::{canned, Request, Response, Status};
use crate::server::Handler;

/// Produces the `/status` JSON document on demand. Injected rather than
/// computed here so the httpd crate stays ignorant of cache/trigger
/// internals.
pub type StatusFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Content type advertised by `/metrics` (the Prometheus exposition
/// format version).
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A [`Handler`] answering the admin endpoints from a live
/// [`MetricsRegistry`] and falling through to an optional inner handler
/// for every other path.
pub struct AdminPlane {
    registry: Arc<MetricsRegistry>,
    status: StatusFn,
    inner: Option<Arc<dyn Handler>>,
    scrapes: Counter,
}

impl AdminPlane {
    /// An admin plane over `registry`; `/status` bodies come from
    /// `status`. Registers its own scrape counter
    /// (`nagano_httpd_admin_scrapes_total`) in the registry, so the
    /// metrics plane observes itself.
    pub fn new(registry: Arc<MetricsRegistry>, status: StatusFn) -> Self {
        let scrapes = registry.counter("nagano_httpd_admin_scrapes_total", &[]);
        AdminPlane {
            registry,
            status,
            inner: None,
            scrapes,
        }
    }

    /// Attach the page handler non-admin paths fall through to. Without
    /// one, non-admin paths get a 404.
    pub fn with_inner(mut self, inner: Arc<dyn Handler>) -> Self {
        self.inner = Some(inner);
        self
    }

    /// Scrapes served so far (`/metrics` + `/status`).
    pub fn scrapes(&self) -> u64 {
        self.scrapes.get()
    }
}

impl Handler for AdminPlane {
    fn handle(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/metrics" => {
                self.scrapes.incr();
                scrape(prometheus_text(&self.registry), METRICS_CONTENT_TYPE)
            }
            "/healthz" => Response::canned(Status::Ok, canned!("ok\n")),
            "/status" => {
                self.scrapes.incr();
                scrape((self.status)(), "application/json; charset=utf-8")
            }
            _ => match &self.inner {
                Some(h) => h.handle(req),
                None => Response::not_found(),
            },
        }
    }
}

/// A 200 of `content_type` whose body is the rendered text's own buffer.
fn scrape(text: String, content_type: &'static str) -> Response {
    Response {
        content_type,
        ..Response::plain(Status::Ok, Bytes::from(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    fn req(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            minor_version: 1,
            keep_alive: true,
            if_none_match: None,
        }
    }

    fn plane() -> (Arc<MetricsRegistry>, AdminPlane) {
        let registry = Arc::new(MetricsRegistry::new());
        registry
            .counter("nagano_httpd_requests_total", &[("site", "t")])
            .add(3);
        let status: StatusFn = Arc::new(|| "{\"ok\":true}".to_string());
        let plane = AdminPlane::new(Arc::clone(&registry), status);
        (registry, plane)
    }

    #[test]
    fn metrics_endpoint_serves_live_prometheus_text() {
        let (registry, plane) = plane();
        let resp = plane.handle(&req("/metrics"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content_type, METRICS_CONTENT_TYPE);
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("nagano_httpd_requests_total{site=\"t\"} 3"));
        // Live, not a snapshot: a later scrape sees newer values.
        registry
            .counter("nagano_httpd_requests_total", &[("site", "t")])
            .add(2);
        let body2 = String::from_utf8(plane.handle(&req("/metrics")).body.to_vec()).unwrap();
        assert!(body2.contains("nagano_httpd_requests_total{site=\"t\"} 5"));
        assert_eq!(plane.scrapes(), 2);
        // The scrape counter itself is exported (bumped before render,
        // so the second scrape sees itself).
        assert!(body2.contains("nagano_httpd_admin_scrapes_total 2"));
    }

    #[test]
    fn healthz_and_status_answer() {
        let (_registry, plane) = plane();
        let resp = plane.handle(&req("/healthz"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&resp.body[..], b"ok\n");
        let resp = plane.handle(&req("/status"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content_type, "application/json; charset=utf-8");
        assert_eq!(&resp.body[..], b"{\"ok\":true}");
    }

    #[test]
    fn a_scrape_answers_with_the_rendered_buffer_itself() {
        let rendered = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&rendered);
        let status: StatusFn = Arc::new(move || {
            let text = "{\"ok\":true}".to_string();
            seen.store(text.as_ptr() as usize, Relaxed);
            text
        });
        let plane = AdminPlane::new(Arc::new(MetricsRegistry::new()), status);
        let resp = plane.handle(&req("/status"));
        assert_eq!(&resp.body[..], b"{\"ok\":true}");
        assert_eq!(resp.body.as_ptr() as usize, rendered.load(Relaxed));
    }

    #[test]
    fn non_admin_paths_fall_through_or_404() {
        let (_registry, plane) = plane();
        assert_eq!(plane.handle(&req("/medals")).status, Status::NotFound);
        let inner: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::html(Bytes::from_static(b"page")));
        let plane = plane.with_inner(inner);
        let resp = plane.handle(&req("/medals"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&resp.body[..], b"page");
        // Admin paths still win over the inner handler.
        assert_eq!(
            plane.handle(&req("/healthz")).content_type,
            "text/plain; charset=utf-8"
        );
    }
}
