//! Property tests for the HTTP message layer: the parser must be total
//! (never panic) on arbitrary bytes, well-formed messages must
//! round-trip, and a request head reads the same however its bytes are
//! cut into segments.

use std::io::{self, BufRead, BufReader, ErrorKind, Read};

use bytes::Bytes;
use proptest::prelude::*;

use nagano_httpd::http::{none_match, read_request, read_response_full, Response, Status};
use nagano_httpd::{LogEntry, ParseError, Request, RequestReader};

/// The reader's cap on a request head (`http::MAX_HEAD_BYTES`).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A nonblocking socket's view of `data`: a read returns bytes up to the
/// next cut at most, and once a segment is used up the stream reports
/// `WouldBlock`, as a socket does before the next segment arrives.
struct Segmented<'a> {
    data: &'a [u8],
    /// Where segments end: ascending, each inside `1..data.len()`.
    cuts: Vec<usize>,
    pos: usize,
    /// A segment was just used up: the next look at the stream blocks.
    starved: bool,
}

impl<'a> Segmented<'a> {
    fn new(data: &'a [u8], mut cuts: Vec<usize>) -> Self {
        cuts.retain(|&c| 0 < c && c < data.len());
        cuts.sort_unstable();
        cuts.dedup();
        Segmented {
            data,
            cuts,
            pos: 0,
            starved: false,
        }
    }
}

impl Read for Segmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Segmented<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if std::mem::take(&mut self.starved) {
            return Err(ErrorKind::WouldBlock.into());
        }
        let next = self.cuts.partition_point(|&c| c <= self.pos);
        let end = self.cuts.get(next).copied().unwrap_or(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.starved = n > 0 && self.cuts.binary_search(&self.pos).is_ok();
    }
}

/// Every request on `stream`, read as a worker reads a keep-alive
/// connection: one reader and one `Request` for all of them, and a
/// `WouldBlock` answered by reading again, until the peer has closed.
fn read_pipeline(stream: &mut impl BufRead) -> Result<Vec<Request>, ParseError> {
    let mut reader = RequestReader::new();
    let mut req = Request::empty();
    let mut got = Vec::new();
    loop {
        match reader.read_into(stream, &mut req) {
            Ok(()) => got.push(req.clone()),
            Err(ParseError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {}
            Err(ParseError::ConnectionClosed) => return Ok(got),
            Err(e) => return Err(e),
        }
    }
}

/// One well-formed GET head: HTTP/1.0 or /1.1, no `Connection` header or
/// one asking to close or to keep alive, and zero to two
/// `If-None-Match` lines.
fn get_head() -> impl Strategy<Value = String> {
    (
        "/[a-z0-9/]{0,24}",
        0..2u8,
        0..3usize,
        proptest::collection::vec("\"v[0-9]{1,6}\"", 0..3),
    )
        .prop_map(|(path, minor, connection, tags)| {
            let mut head = format!("GET {path} HTTP/1.{minor}\r\n");
            head.push_str(["", "Connection: close\r\n", "Connection: keep-alive\r\n"][connection]);
            for tag in tags {
                head.push_str(&format!("If-None-Match: {tag}\r\n"));
            }
            head.push_str("\r\n");
            head
        })
}

/// A GET whose head runs `over` bytes past the cap before its blank
/// line, the padding spread over `lines` header lines.
fn oversized_head(lines: usize, over: usize) -> Vec<u8> {
    let mut head = b"GET /big HTTP/1.1\r\n".to_vec();
    let target = MAX_HEAD_BYTES + over;
    for line in 0..lines {
        let share = target.saturating_sub(head.len()) / (lines - line);
        head.extend_from_slice(b"X-Pad: ");
        head.resize(head.len() + share.saturating_sub(9).max(1), b'a');
        head.extend_from_slice(b"\r\n");
    }
    head.extend_from_slice(b"\r\n");
    head
}

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
    ) {
        let entry = LogEntry {
            host,
            epoch_secs,
            method: "GET".to_string(),
            path,
            status,
            bytes,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1–3 pipelined GETs read the same through one reader wherever
    /// their bytes are cut — at any one byte, at every byte, and at a
    /// random handful of places — with `WouldBlock` between segments:
    /// the reader keeps a partial head across calls and never mixes two
    /// requests' heads.
    #[test]
    fn pipelined_requests_read_alike_at_every_cut(
        heads in proptest::collection::vec(get_head(), 1..4),
        random_cuts in proptest::collection::vec(1..400usize, 0..8),
    ) {
        let wire = heads.concat().into_bytes();
        let whole = read_pipeline(&mut &wire[..])
            .map_err(|e| TestCaseError::fail(format!("one read: {e:?}")))?;
        prop_assert_eq!(whole.len(), heads.len());
        let single = (1..wire.len()).map(|cut| vec![cut]);
        let every = std::iter::once((1..wire.len()).collect::<Vec<_>>());
        for cuts in single.chain(every).chain([random_cuts]) {
            let got = read_pipeline(&mut Segmented::new(&wire, cuts.clone()));
            prop_assert!(
                matches!(&got, Ok(got) if *got == whole),
                "cut at {:?}: {:?}, one read gave {:?}",
                cuts,
                got,
                whole
            );
        }
    }

    /// A head longer than the cap is refused as malformed wherever its
    /// segments end, one byte at a time included.
    #[test]
    fn an_oversized_head_is_malformed_at_any_cut(
        lines in 1..6usize,
        over in 1..400usize,
        random_cuts in proptest::collection::vec(1..(MAX_HEAD_BYTES + 400), 0..8),
    ) {
        let wire = oversized_head(lines, over);
        prop_assert!(wire.len() > MAX_HEAD_BYTES + 2, "{} bytes", wire.len());
        let every = (1..wire.len()).collect::<Vec<_>>();
        for cuts in [random_cuts, every] {
            let got = read_pipeline(&mut Segmented::new(&wire, cuts));
            prop_assert!(matches!(got, Err(ParseError::Malformed(_))), "{:?}", got);
        }
    }
}
