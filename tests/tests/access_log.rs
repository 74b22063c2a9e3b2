//! Access-log integration: the server logs every request in CLF; the
//! analyzer recovers the aggregate picture (the §3.1 workflow).

use std::sync::Arc;

use nagano::cache::{CacheConfig, StalePolicy};
use nagano::{ServingSite, SiteConfig};
use nagano_httpd::{
    AccessLog, HttpClient, LogAnalysis, LogEntry, RequestObserver, Server, ServerConfig,
};
use std::io::BufReader;

type Log = Arc<AccessLog<Vec<u8>>>;

/// The time every logged request is stamped with: the opening day of the
/// Games, 1998-02-07 00:00 UTC, in seconds since the Unix epoch.
const STAMP_SECS: u64 = 886_809_600;

/// Serve `site` from node 0 with every request logged in CLF into a fresh
/// log.
fn logged_server(site: &Arc<ServingSite>) -> (Server, Log) {
    let log = Arc::new(AccessLog::new(Vec::new()));
    let observer: RequestObserver = {
        let log = Arc::clone(&log);
        Arc::new(move |req, resp| {
            let _ = log.log(&LogEntry::served("203.0.113.9", STAMP_SECS, req, resp));
        })
    };
    let server = Server::bind_with_observer(
        "127.0.0.1:0",
        site.http_handler(0),
        ServerConfig::default(),
        Some(observer),
    )
    .unwrap();
    (server, log)
}

/// The log's text once `server`, its last other holder, is shut down.
fn log_text(server: Server, log: Log) -> String {
    server.shutdown();
    let buf = Arc::try_unwrap(log)
        .map_err(|_| "log still shared")
        .unwrap()
        .into_inner();
    String::from_utf8(buf).unwrap()
}

/// A site that keeps invalidated pages as stale copies for an hour and
/// gives a request no time to render: once `/medals` is invalidated
/// everywhere (tombstoning it), the next read of it is answered from the
/// stale copy while the fresh render lands for the read after
/// (DESIGN.md §11a, row (d)).
fn stale_site() -> ServingSite {
    ServingSite::build(SiteConfig {
        cache: CacheConfig::default().with_stale(StalePolicy::bounded(3600.0)),
        request_budget_secs: 0.0,
        ..SiteConfig::small()
    })
}

#[test]
fn served_requests_are_logged_and_analyzable() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let (server, log) = logged_server(&site);

    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..5 {
        client.get("/medals").unwrap();
    }
    for _ in 0..3 {
        client.get("/day/3/").unwrap();
    }
    client.get("/no/such/page").unwrap();
    drop(client);

    let text = log_text(server, log);
    let analysis = LogAnalysis::from_reader(BufReader::new(text.as_bytes())).unwrap();
    assert_eq!(analysis.total, 9);
    assert_eq!(analysis.malformed, 0);
    assert_eq!(
        analysis.top_pages(2),
        vec![("/medals".to_string(), 5), ("/day/3/".to_string(), 3)]
    );
    assert_eq!(analysis.by_status[&404], 1);
    assert!(analysis.status_class_share(2) > 0.8);
    // Mean bytes reflects real page sizes (medals ~10 KB, home ~55 KB).
    assert!(
        analysis.mean_bytes() > 5_000.0,
        "mean {}",
        analysis.mean_bytes()
    );
    // No resilience fallback was involved: everything served fresh.
    assert_eq!(analysis.stale, 0);
    assert_eq!(analysis.fresh(), 9);
}

#[test]
fn stale_serves_are_counted_separately_from_fresh() {
    let site = stale_site();
    let log = AccessLog::new(Vec::new());
    let serve_and_log = |path: &str, secs: u64| {
        let page = site.handle(0, path).expect("served");
        log.log(&LogEntry {
            host: "203.0.113.9".into(),
            epoch_secs: secs,
            method: "GET".into(),
            path: path.into(),
            status: 200,
            bytes: page.body.len() as u64,
            stale: page.stale,
        })
        .unwrap();
    };

    serve_and_log("/medals", 0); // fresh hit
    serve_and_log("/day/3/", 1); // fresh hit

    site.fleet().invalidate_everywhere("/medals");
    serve_and_log("/medals", 2); // stale serve

    let analysis = LogAnalysis::from_reader(BufReader::new(&log.into_inner()[..])).unwrap();
    assert_eq!(analysis.total, 3);
    assert_eq!(analysis.stale, 1, "one request answered from a stale copy");
    assert_eq!(analysis.fresh(), 2);
    assert!((analysis.stale_share() - 1.0 / 3.0).abs() < 1e-12);
    // The stale marker round-trips through the CLF text.
    assert_eq!(analysis.malformed, 0);
}

#[test]
fn a_stale_serve_through_the_live_server_is_logged_stale() {
    let site = Arc::new(stale_site());
    let (server, log) = logged_server(&site);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (code, fresh) = client.get("/medals").unwrap();
    assert_eq!(code, 200);
    site.fleet().invalidate_everywhere("/medals");
    let (code, stale) = client.get("/medals").unwrap();
    assert_eq!(
        (code, &stale),
        (200, &fresh),
        "the stale copy is the page as it was"
    );
    drop(client);

    let text = log_text(server, log);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(!lines[0].ends_with(" stale"), "{}", lines[0]);
    assert!(lines[1].ends_with(" stale"), "{}", lines[1]);
    let analysis = LogAnalysis::from_reader(BufReader::new(text.as_bytes())).unwrap();
    assert_eq!((analysis.stale, analysis.fresh()), (1, 1));
}
