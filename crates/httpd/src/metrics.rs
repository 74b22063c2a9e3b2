//! Server-side request metrics backed by the telemetry registry.
//!
//! [`HttpdMetrics`] owns the live cells (requests, response bytes, status
//! classes) and exposes them two ways: [`observer`](HttpdMetrics::observer)
//! adapts the struct to the server's [`RequestObserver`] callback for real
//! socket serving, while the cluster simulation calls
//! [`observe`](HttpdMetrics::observe) directly on each simulated response.
//! Either way, [`bind`](HttpdMetrics::bind) publishes the same cells under
//! the `nagano_httpd_*` names.

use std::sync::Arc;

use nagano_telemetry::{Counter, MetricsRegistry};

use crate::server::RequestObserver;

/// Request counters for one serving endpoint.
#[derive(Debug, Default)]
pub struct HttpdMetrics {
    requests: Counter,
    response_bytes: Counter,
    class_2xx: Counter,
    class_3xx: Counter,
    class_4xx: Counter,
    class_5xx: Counter,
    shed: Counter,
}

impl HttpdMetrics {
    /// Fresh, unbound counters at zero.
    pub fn new() -> Self {
        HttpdMetrics::default()
    }

    /// Record one served response.
    pub fn observe(&self, status: u16, body_bytes: u64) {
        self.requests.incr();
        self.response_bytes.add(body_bytes);
        match status / 100 {
            2 => self.class_2xx.incr(),
            3 => self.class_3xx.incr(),
            4 => self.class_4xx.incr(),
            _ => self.class_5xx.incr(),
        }
    }

    /// Requests observed so far.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Body bytes sent so far.
    pub fn response_bytes(&self) -> u64 {
        self.response_bytes.get()
    }

    /// Responses with status ≥ 400.
    pub fn errors(&self) -> u64 {
        self.class_4xx.get() + self.class_5xx.get()
    }

    /// Record one connection shed at the accept loop (503 + Retry-After).
    pub fn observe_shed(&self) {
        self.shed.incr();
    }

    /// Connections shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// Adapt these metrics to the server's per-request callback, for
    /// `Server::bind_with_observer`.
    pub fn observer(self: &Arc<Self>) -> RequestObserver {
        let me = Arc::clone(self);
        Arc::new(move |_req, resp| me.observe(resp.status.code(), resp.body.len() as u64))
    }

    /// Register the live cells into `registry` under the `nagano_httpd_*`
    /// names, tagged with `labels` (typically `site=<name>`); status-class
    /// counters gain a `class` label.
    pub fn bind(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        registry.bind_counter("nagano_httpd_requests_total", labels, &self.requests);
        registry.bind_counter(
            "nagano_httpd_response_bytes_total",
            labels,
            &self.response_bytes,
        );
        registry.bind_counter("nagano_httpd_shed_total", labels, &self.shed);
        for (class, cell) in [
            ("2xx", &self.class_2xx),
            ("3xx", &self.class_3xx),
            ("4xx", &self.class_4xx),
            ("5xx", &self.class_5xx),
        ] {
            let mut with_class = labels.to_vec();
            with_class.push(("class", class));
            registry.bind_counter("nagano_httpd_responses_total", &with_class, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nagano_telemetry::prometheus_text;

    #[test]
    fn observe_classifies_statuses() {
        let m = HttpdMetrics::new();
        m.observe(200, 1_000);
        m.observe(304, 0);
        m.observe(404, 50);
        m.observe(500, 10);
        m.observe(200, 2_000);
        assert_eq!(m.requests(), 5);
        assert_eq!(m.response_bytes(), 3_060);
        assert_eq!(m.errors(), 2);
    }

    #[test]
    fn bind_exports_under_httpd_names() {
        let reg = MetricsRegistry::new();
        let m = HttpdMetrics::new();
        m.bind(&reg, &[("site", "columbus")]);
        m.observe(200, 512);
        m.observe(404, 16);
        m.observe_shed();
        let text = prometheus_text(&reg);
        assert!(text.contains("nagano_httpd_requests_total{site=\"columbus\"} 2"));
        assert!(text.contains("nagano_httpd_shed_total{site=\"columbus\"} 1"));
        assert!(text.contains("nagano_httpd_response_bytes_total{site=\"columbus\"} 528"));
        assert!(text.contains("nagano_httpd_responses_total{class=\"2xx\",site=\"columbus\"} 1"));
        assert!(text.contains("nagano_httpd_responses_total{class=\"4xx\",site=\"columbus\"} 1"));
    }

    #[test]
    fn observer_feeds_the_same_cells() {
        let m = Arc::new(HttpdMetrics::new());
        let obs = m.observer();
        let req = crate::http::Request {
            method: "GET".into(),
            path: "/medals".into(),
            minor_version: 1,
            keep_alive: true,
            if_none_match: None,
        };
        obs(
            &req,
            &crate::http::Response::html(Bytes::from(vec![b'x'; 99])),
        );
        assert_eq!(m.requests(), 1);
        assert_eq!(m.response_bytes(), 99);
    }
}
