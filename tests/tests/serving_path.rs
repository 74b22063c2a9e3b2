//! The serving hot path over real TCP, at the wire-byte level: one
//! keep-alive connection carrying mixed 200/304/503 sequences, with the
//! invariants the zero-copy rearchitecture must preserve — a 304 puts
//! zero body bytes on the wire, a shed 503 closes its connection while
//! page connections keep flowing, and every page goes out as the literal
//! response its cache entry spells.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nagano::{ServingSite, SiteConfig};
use nagano_httpd::{Handler, Request, Response, Server, ServerConfig, Status};
use nagano_simcore::sync::blocking;

/// One parsed raw response: status code, headers (lowercased names), and
/// the exact body bytes that followed the header block.
struct RawResponse {
    code: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl RawResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read exactly one response off the reader, consuming exactly
/// `Content-Length` body bytes — any stray byte beyond that corrupts the
/// next response on the keep-alive connection and fails the test there.
fn read_raw_response(reader: &mut BufReader<TcpStream>) -> RawResponse {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let code: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').expect("header colon");
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("content-length"))
        .expect("content-length present");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    RawResponse {
        code,
        headers,
        body,
    }
}

fn send_get(stream: &mut TcpStream, path: &str, etag: Option<&str>, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    let inm = etag.map_or(String::new(), |t| format!("If-None-Match: {t}\r\n"));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: nagano\r\nConnection: {connection}\r\n{inm}\r\n"
    )
    .expect("send request");
}

#[test]
fn keep_alive_connection_serves_200_then_304_with_zero_body_bytes() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let server = site
        .serve_http("127.0.0.1:0", 0, ServerConfig::default())
        .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Plain GET: 200 with a body and a version ETag.
    send_get(&mut stream, "/medals", None, false);
    let first = read_raw_response(&mut reader);
    assert_eq!(first.code, 200);
    assert!(!first.body.is_empty());
    let etag = first.header("etag").expect("etag on 200").to_string();
    assert_eq!(etag, "\"v1\"", "prewarmed entries start at version 1");

    // Revalidation on the same connection: 304, Content-Length 0, and —
    // because read_raw_response consumes exactly Content-Length bytes —
    // any body byte the server leaked would desynchronise the requests
    // that follow.
    send_get(&mut stream, "/medals", Some(&etag), false);
    let revalidated = read_raw_response(&mut reader);
    assert_eq!(revalidated.code, 304);
    assert_eq!(revalidated.header("content-length"), Some("0"));
    assert!(
        revalidated.body.is_empty(),
        "304 must put zero body bytes on the wire"
    );
    assert_eq!(revalidated.header("etag"), Some(etag.as_str()));

    // A long mixed sequence keeps flowing on the one connection.
    for i in 0..20 {
        let (path, inm) = match i % 4 {
            0 => ("/medals", Some(etag.as_str())),
            1 => ("/day/1/", None),
            2 => ("/medals", Some("\"v999\"")),
            _ => ("/welcome", None),
        };
        send_get(&mut stream, path, inm, false);
        let resp = read_raw_response(&mut reader);
        match i % 4 {
            0 => {
                assert_eq!(resp.code, 304, "request {i}");
                assert!(resp.body.is_empty(), "request {i}");
            }
            2 => {
                // Mismatched validator: full 200 body, not a 304.
                assert_eq!(resp.code, 200, "request {i}");
                assert!(!resp.body.is_empty(), "request {i}");
            }
            _ => {
                assert_eq!(resp.code, 200, "request {i}");
                assert!(!resp.body.is_empty(), "request {i}");
            }
        }
    }

    // An update bumps the version: the old validator now fetches bytes.
    let ev = site.db().events()[0].clone();
    let a = site.db().athletes_of_sport(ev.sport)[0].clone();
    site.db()
        .record_results(ev.id, &[(a.id, 9.0)], true, ev.day);
    site.pump();
    send_get(&mut stream, "/medals", Some(&etag), true);
    let refreshed = read_raw_response(&mut reader);
    assert_eq!(refreshed.code, 200);
    assert!(!refreshed.body.is_empty());
    assert_ne!(refreshed.header("etag"), Some(etag.as_str()));
    server.shutdown();
}

#[test]
fn overloaded_server_mixes_503_sheds_with_served_pages() {
    use crossbeam::channel;

    // Gate one path through a channel so the single worker can be pinned
    // while the site handler stays untouched for the rest.
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let pages = site.http_handler();
    let (started_tx, started_rx) = channel::bounded::<()>(1);
    let (release_tx, release_rx) = channel::bounded::<()>(1);
    let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
        if req.path == "/slow" {
            let _ = blocking!(started_tx.send(()));
            let _ = blocking!(release_rx.recv());
            return Response::text(Status::Ok, "slow");
        }
        pages.handle(req)
    });
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

    // Pin the worker, fill the one pending slot, then overflow.
    let busy = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        send_get(&mut s, "/slow", None, true);
        read_raw_response(&mut r).code
    });
    blocking!(started_rx.recv_timeout(Duration::from_secs(5))).expect("slow handler never started");
    let queued = TcpStream::connect(addr).unwrap();
    assert!(server.wait_for_pending(1, Duration::from_secs(10)));

    // The overflow connection gets a 503 + Retry-After, then EOF: shed
    // connections are closed, not kept alive.
    let shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut shed_reader = BufReader::new(shed.try_clone().unwrap());
    let resp = read_raw_response(&mut shed_reader);
    assert_eq!(resp.code, 503);
    assert_eq!(resp.header("retry-after"), Some("2"));
    let mut rest = Vec::new();
    shed_reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "shed connection must close after the 503");
    assert_eq!(server.shed(), 1);

    // Release the worker: the pinned request finishes and page traffic —
    // including 304 revalidation — resumes on fresh connections.
    blocking!(release_tx.send(())).unwrap();
    assert_eq!(blocking!(busy.join()).unwrap(), 200);
    drop(queued);
    // The worker takes the dropped connection out of the one slot before
    // the next connection needs it.
    assert!(server.wait_for_pending(0, Duration::from_secs(10)));
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    send_get(&mut s, "/medals", None, false);
    let ok = read_raw_response(&mut r);
    assert_eq!(ok.code, 200);
    let etag = ok.header("etag").unwrap().to_string();
    send_get(&mut s, "/medals", Some(&etag), true);
    let revalidated = read_raw_response(&mut r);
    assert_eq!(revalidated.code, 304);
    assert!(revalidated.body.is_empty());
    server.shutdown();
}

#[test]
fn every_page_goes_out_as_the_literal_response_for_its_entry() {
    let site = Arc::new(ServingSite::build(SiteConfig::small()));
    let server = site
        .serve_http("127.0.0.1:0", 0, ServerConfig::default())
        .unwrap();
    // What node 0 holds for `path` — its body and version — spelled into
    // the one response the site may answer with: 304 when the validator
    // names that version, 200 otherwise, 404 off the site.
    let expected = |path: &str, etag: Option<&str>| -> Vec<u8> {
        let key = nagano::pagegen::PageKey::parse(path);
        let Some(page) = key.and_then(|key| site.fleet().peek(&key.to_url())) else {
            return b"HTTP/1.1 404 Not Found\r\n\
                     Content-Type: text/plain; charset=utf-8\r\n\
                     Content-Length: 10\r\n\
                     Connection: close\r\n\
                     Server: nagano/0.1\r\n\
                     \r\n\
                     not found\n"
                .to_vec();
        };
        let version = page.version;
        if etag == Some(format!("\"v{version}\"").as_str()) {
            return format!(
                "HTTP/1.1 304 Not Modified\r\n\
                 Content-Type: text/html; charset=utf-8\r\n\
                 Content-Length: 0\r\n\
                 Connection: close\r\n\
                 Server: nagano/0.1\r\n\
                 ETag: \"v{version}\"\r\n\
                 \r\n"
            )
            .into_bytes();
        }
        let mut bytes = format!(
            "HTTP/1.1 200 OK\r\n\
             Content-Type: text/html; charset=utf-8\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\
             Server: nagano/0.1\r\n\
             ETag: \"v{version}\"\r\n\
             \r\n",
            page.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(&page.body);
        bytes
    };
    let fetch = |path: &str, etag: Option<&str>| -> Vec<u8> {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        send_get(&mut s, path, etag, true);
        let mut bytes = Vec::new();
        s.read_to_end(&mut bytes).unwrap();
        bytes
    };
    for path in ["/medals", "/day/1/", "/welcome", "/bogus"] {
        for etag in [None, Some("\"v1\""), Some("\"v7\"")] {
            let wire = fetch(path, etag);
            assert!(
                wire == expected(path, etag),
                "{path} If-None-Match {etag:?}: {}",
                String::from_utf8_lossy(&wire)
            );
        }
    }
    server.shutdown();
}
