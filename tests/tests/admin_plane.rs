//! The live admin plane, scraped over real TCP while the site serves
//! page traffic: `/metrics` stays well-formed Prometheus text mid-run,
//! `/status` tracks the trigger monitor's progress, and wrapping the
//! page handler in the plane leaves overload shedding (503 +
//! Retry-After on the accept thread) untouched.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nagano::{ServingSite, SiteConfig};
use nagano_httpd::{
    AdminPlane, Handler, HttpClient, Request, Response, Server, ServerConfig, Status, StatusFn,
};
use nagano_simcore::sync::blocking;
use nagano_telemetry::{parse_prometheus_line, MetricsRegistry};

#[test]
fn metrics_and_status_scrape_over_tcp_mid_run() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let registry = Arc::new(MetricsRegistry::new());
    site.bind_telemetry(&registry, &[("site", "tokyo")]);
    let server = site
        .serve_admin_http("127.0.0.1:0", registry, ServerConfig::default())
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Generate real traffic and a real update so the scrape observes a
    // site in motion, not a quiescent one.
    let (code, _) = client.get("/medals").unwrap();
    assert_eq!(code, 200);
    let ev = site.db().events()[0].clone();
    let a = site.db().athletes_of_sport(ev.sport)[0].clone();
    site.db()
        .record_results(ev.id, &[(a.id, 9.0)], true, ev.day);
    site.pump();
    let (code, _) = client.get("/medals").unwrap();
    assert_eq!(code, 200);

    // /metrics: every non-comment line must parse as Prometheus text,
    // and the live cells must reflect the traffic just served.
    let (code, body) = client.get("/metrics").unwrap();
    assert_eq!(code, 200);
    let text = String::from_utf8(body.to_vec()).unwrap();
    let mut parsed = 0usize;
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        assert!(
            parse_prometheus_line(line).is_some(),
            "malformed exposition line: {line}"
        );
        parsed += 1;
    }
    assert!(parsed > 10, "expected a real scrape, got {parsed} samples");
    assert!(text.contains("nagano_trigger_txns_total{site=\"tokyo\"} 1"));
    assert!(text.contains("nagano_cache_hits_total{site=\"tokyo\"} 2"));
    assert!(text.contains("nagano_httpd_admin_scrapes_total 1"));

    // /status: the JSON document tracks the same run.
    let (code, body) = client.get("/status").unwrap();
    assert_eq!(code, 200);
    let doc = String::from_utf8(body.to_vec()).unwrap();
    assert!(doc.starts_with("{\"pages\":"), "{doc}");
    assert!(doc.ends_with("\"hits\":2,\"misses\":0}}"), "{doc}");
    assert!(doc.contains("\"txns\":1"), "{doc}");
    assert!(doc.contains("\"watermark\":1"), "{doc}");
    // A site refuses the hybrid policy: it reports no deferred queue.
    assert!(!doc.contains("deferred"), "{doc}");
    assert!(doc.contains("\"cache\":{\"entries\":"), "{doc}");

    // /healthz: liveness while all of the above was in flight.
    let (code, body) = client.get("/healthz").unwrap();
    assert_eq!(code, 200);
    assert_eq!(&body[..], b"ok\n");

    // Page traffic still flows after the scrapes.
    let (code, _) = client.get("/day/1/").unwrap();
    assert_eq!(code, 200);
    drop(client);
    server.shutdown();
}

#[test]
fn admin_plane_leaves_overload_shedding_untouched() {
    use crossbeam::channel;

    let (started_tx, started_rx) = channel::bounded::<()>(1);
    let (release_tx, release_rx) = channel::bounded::<()>(1);
    let slow: Arc<dyn Handler> = Arc::new(move |_req: &Request| {
        let _ = blocking!(started_tx.send(()));
        let _ = blocking!(release_rx.recv());
        Response::text(Status::Ok, "slow")
    });
    let registry = Arc::new(MetricsRegistry::new());
    let status: StatusFn = Arc::new(|| "{}".to_string());
    let handler: Arc<dyn Handler> =
        Arc::new(AdminPlane::new(Arc::clone(&registry), status).with_inner(slow));
    let server = Server::bind(
        "127.0.0.1:0",
        handler,
        ServerConfig {
            workers: 1,
            backlog: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Occupy the single worker, then fill the single pending slot.
    let busy = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.get("/slow").unwrap()
    });
    blocking!(started_rx.recv_timeout(Duration::from_secs(5))).expect("handler never started");
    let queued = TcpStream::connect(addr).unwrap();
    assert!(server.wait_for_pending(1, Duration::from_secs(10)));

    // Overflow is shed on the accept thread exactly as without the
    // plane: 503 + Retry-After before any routing happens.
    let shed_stream = TcpStream::connect(addr).unwrap();
    shed_stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = String::new();
    std::io::BufReader::new(shed_stream)
        .read_to_string(&mut raw)
        .unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{raw}"
    );
    assert!(raw.contains("Retry-After: 2\r\n"), "{raw}");
    assert_eq!(server.shed(), 1);

    // Release the worker; the queued connection and fresh admin scrapes
    // both drain normally.
    blocking!(release_tx.send(())).unwrap();
    let (code, body) = blocking!(busy.join()).unwrap();
    assert_eq!(code, 200);
    assert_eq!(&body[..], b"slow");
    drop(queued);
    // The worker takes the dropped connection out of the one slot before
    // the next connection needs it.
    assert!(server.wait_for_pending(0, Duration::from_secs(10)));
    let mut client = HttpClient::connect(addr).unwrap();
    let (code, _) = client.get("/healthz").unwrap();
    assert_eq!(code, 200);
    drop(client);
    server.shutdown();
}
