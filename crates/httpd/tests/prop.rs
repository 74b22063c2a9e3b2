//! Property tests for the HTTP message layer: the parser must be total
//! (never panic) on arbitrary bytes, and well-formed messages must
//! round-trip.

use std::io::BufReader;

use bytes::Bytes;
use proptest::prelude::*;

use nagano_httpd::http::{none_match, read_request, read_response_full, Response, Status};
use nagano_httpd::LogEntry;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the request parser.
    #[test]
    fn request_parser_is_total(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_request(&mut BufReader::new(&data[..]));
    }

    /// Arbitrary bytes never panic the response parser.
    #[test]
    fn response_parser_is_total(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_response_full(&mut BufReader::new(&data[..]));
    }

    /// Any well-formed GET parses with its path intact.
    #[test]
    fn wellformed_requests_parse(
        path in "/[a-z0-9/]{0,40}",
        keep_alive in any::<bool>(),
        etag in proptest::option::of("\"v[0-9]{1,6}\""),
    ) {
        let mut req = format!("GET {path} HTTP/1.1\r\n");
        req.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        if let Some(tag) = &etag {
            req.push_str(&format!("If-None-Match: {tag}\r\n"));
        }
        req.push_str("\r\n");
        let parsed = read_request(&mut BufReader::new(req.as_bytes())).unwrap();
        prop_assert_eq!(parsed.method, "GET");
        prop_assert_eq!(parsed.path, path);
        prop_assert_eq!(parsed.keep_alive, keep_alive);
        prop_assert_eq!(parsed.if_none_match, etag);
    }

    /// Responses round-trip through serialise + parse for arbitrary
    /// bodies and versions, and the tag read back names the version.
    #[test]
    fn responses_roundtrip(
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        version in proptest::option::of(any::<u64>()),
        keep_alive in any::<bool>(),
    ) {
        let resp = Response {
            version,
            ..Response::html(Bytes::from(body.clone()))
        };
        let mut wire = Vec::new();
        resp.write_to(&mut wire, keep_alive).unwrap();
        let (code, parsed_body, parsed_etag) =
            read_response_full(&mut BufReader::new(&wire[..])).unwrap();
        prop_assert_eq!(code, 200);
        prop_assert_eq!(parsed_body.to_vec(), body);
        prop_assert_eq!(parsed_etag.is_some(), version.is_some());
        if let (Some(tag), Some(version)) = (parsed_etag, version) {
            prop_assert!(none_match(&tag, version), "{} for {}", tag, version);
            prop_assert!(!none_match(&tag, version.wrapping_add(1)), "{}", tag);
        }
    }

    /// CLF lines round-trip for paths containing spaces, quotes, and
    /// percent signs (the writer escapes, the parser unescapes).
    #[test]
    fn clf_roundtrips_hostile_paths(
        host in "[a-z0-9.]{1,20}",
        epoch_secs in any::<u64>(),
        path in "/[ -~]{0,60}",
        status in 100..600u16,
        bytes in any::<u64>(),
        stale in any::<bool>(),
    ) {
        let entry = LogEntry {
            host,
            epoch_secs,
            method: "GET".to_string(),
            path,
            status,
            bytes,
            stale,
        };
        let line = entry.to_clf();
        prop_assert_eq!(LogEntry::parse_clf(&line), Some(entry));
    }

    /// Every status code serialises to a parseable status line.
    #[test]
    fn all_statuses_roundtrip(sel in 0..7usize) {
        let status = [
            Status::Ok,
            Status::NotModified,
            Status::BadRequest,
            Status::NotFound,
            Status::MethodNotAllowed,
            Status::InternalError,
            Status::ServiceUnavailable,
        ][sel];
        let resp = Response::text(status, "x");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let (code, _, _) = read_response_full(&mut BufReader::new(&wire[..])).unwrap();
        prop_assert_eq!(code, status.code());
    }
}
