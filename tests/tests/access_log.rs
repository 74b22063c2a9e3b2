//! Access-log integration: the server logs every request in CLF; the
//! analyzer recovers the aggregate picture (the §3.1 workflow).

use std::sync::Arc;

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
}

#[test]
fn an_invalidated_page_is_served_fresh_and_logged_plain() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let (server, log) = logged_server(&site);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (code, before) = client.get("/medals").unwrap();
    assert_eq!(code, 200);
    site.fleet().invalidate_everywhere("/medals");
    let renders = site.metrics().cache.inserts;
    let (code, after) = client.get("/medals").unwrap();
    assert_eq!(
        (code, &after),
        (200, &before),
        "rendered from the same data"
    );
    assert_eq!(site.metrics().cache.inserts, renders + 1, "a fresh render");
    drop(client);

    let text = log_text(server, log);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in lines {
        let bytes = before.len();
        assert!(line.ends_with(&format!("\" 200 {bytes}")), "{line}");
    }
}
