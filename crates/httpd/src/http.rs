//! HTTP/1.x message parsing and serialisation — the minimal subset the
//! site needs: GET/HEAD requests, status + Content-Length responses,
//! keep-alive negotiation.

use std::io::{self, BufRead, IoSlice, Read, Write};
use std::sync::OnceLock;

use bytes::Bytes;

/// The body of a canned plain-text answer, built on first use and shared
/// from then on: every answer after the first is a refcount bump of one
/// buffer, not an allocation.
#[derive(Debug)]
pub struct Canned {
    text: &'static str,
    body: OnceLock<Bytes>,
}

impl Canned {
    /// The answer `text`, not built yet.
    pub const fn new(text: &'static str) -> Self {
        Canned {
            text,
            body: OnceLock::new(),
        }
    }

    /// The text.
    pub fn text(&self) -> &'static str {
        self.text
    }

    /// The shared body.
    pub fn body(&self) -> Bytes {
        self.body
            .get_or_init(|| Bytes::from_static(self.text.as_bytes()))
            .clone()
    }
}

/// A `&'static Canned` of the literal `$text`, one per call site.
macro_rules! canned {
    ($text:literal) => {{
        static CANNED: $crate::http::Canned = $crate::http::Canned::new($text);
        &CANNED
    }};
}
pub(crate) use canned;

/// Response status codes used by the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 304 — validator matched; no body.
    NotModified,
    /// 400.
    BadRequest,
    /// 404.
    NotFound,
    /// 405.
    MethodNotAllowed,
    /// 500.
    InternalError,
    /// 503 — used during failover drills.
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotModified => 304,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::NotModified => "Not Modified",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// The full preformatted status line, CRLF included.
    pub fn line(self) -> &'static str {
        match self {
            Status::Ok => "HTTP/1.1 200 OK\r\n",
            Status::NotModified => "HTTP/1.1 304 Not Modified\r\n",
            Status::BadRequest => "HTTP/1.1 400 Bad Request\r\n",
            Status::NotFound => "HTTP/1.1 404 Not Found\r\n",
            Status::MethodNotAllowed => "HTTP/1.1 405 Method Not Allowed\r\n",
            Status::InternalError => "HTTP/1.1 500 Internal Server Error\r\n",
            Status::ServiceUnavailable => "HTTP/1.1 503 Service Unavailable\r\n",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (uppercased).
    pub method: String,
    /// Request path (no scheme/host).
    pub path: String,
    /// HTTP minor version (0 or 1).
    pub minor_version: u8,
    /// Whether the connection should be kept alive after this exchange.
    pub keep_alive: bool,
    /// `If-None-Match` validator, if the client sent one.
    pub if_none_match: Option<String>,
}

/// Errors from request parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Peer closed before a full request arrived.
    ConnectionClosed,
    /// Malformed request line or headers: what is wrong, which is also
    /// the body of the 400 answer.
    Malformed(&'static Canned),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl Request {
    /// An empty request, to be filled by [`RequestReader::read_into`].
    pub fn empty() -> Self {
        Request {
            method: String::new(),
            path: String::new(),
            minor_version: 0,
            keep_alive: false,
            if_none_match: None,
        }
    }
}

/// The longest request head read: a head that has not ended by then is
/// refused as malformed, and the connection closed.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Reusable request-parsing scratch. A worker keeps one, so every request
/// it reads reuses the same head buffer and the same method/path `String`
/// allocations instead of allocating fresh ones per header line.
#[derive(Debug, Default)]
pub struct RequestReader {
    /// The head of the request being read, as far as it has arrived. A
    /// read that times out or would block leaves it here, and the next
    /// call goes on where it stopped: a head split across segments that
    /// arrive a poll interval apart is still one head.
    head: Vec<u8>,
    /// Where in `head` the line being read begins.
    line_start: usize,
    /// The `If-None-Match` buffer of a request that sent none, kept for
    /// the next one that does.
    validator: String,
}

impl RequestReader {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        RequestReader::default()
    }

    /// Forget a partly read head: for a reader moving to another
    /// connection.
    pub(crate) fn reset(&mut self) {
        self.head.clear();
        self.line_start = 0;
    }

    /// Read one request from a buffered stream into `req`, reusing both
    /// buffers. On error `req`'s contents are unspecified. An I/O error
    /// keeps what had arrived of the head for the next call; any other
    /// outcome starts the next call on a new head.
    pub fn read_into<R: BufRead>(
        &mut self,
        reader: &mut R,
        req: &mut Request,
    ) -> Result<(), ParseError> {
        loop {
            // One byte past the cap is enough to tell a head too long;
            // `read_until` keeps what it appended when it fails.
            let room = MAX_HEAD_BYTES + 1 - self.head.len();
            let read = reader
                .by_ref()
                .take(room as u64)
                .read_until(b'\n', &mut self.head)?;
            if self.head.len() > MAX_HEAD_BYTES {
                self.reset();
                return Err(ParseError::Malformed(canned!("request head too large")));
            }
            if read == 0 {
                self.reset();
                return Err(ParseError::ConnectionClosed);
            }
            // The head ends at its first blank line.
            if self.head.ends_with(b"\n") {
                if self.head[self.line_start..].trim_ascii().is_empty() {
                    break;
                }
                self.line_start = self.head.len();
            }
        }
        let parsed = parse_head(&self.head, req, &mut self.validator);
        self.reset();
        parsed
    }
}

/// Parse a whole request head — request line, headers, blank line — into
/// `req`, writing its validator into the buffer of the last one, or into
/// `spare`, which keeps the buffer when the request sends none.
fn parse_head(head: &[u8], req: &mut Request, spare: &mut String) -> Result<(), ParseError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ParseError::Malformed(canned!("head is not UTF-8")))?;
    let mut lines = head.split('\n');
    req.method.clear();
    req.path.clear();
    let mut validator = req
        .if_none_match
        .take()
        .unwrap_or_else(|| std::mem::take(spare));
    validator.clear();
    let mut validated = false;
    {
        let mut parts = lines.next().unwrap_or_default().split_whitespace();
        let method = parts
            .next()
            .ok_or(ParseError::Malformed(canned!("missing method")))?;
        let path = parts
            .next()
            .ok_or(ParseError::Malformed(canned!("missing path")))?;
        let version = parts.next().unwrap_or("HTTP/1.0");
        req.minor_version = match version {
            "HTTP/1.1" => 1,
            "HTTP/1.0" => 0,
            _ => return Err(ParseError::Malformed(canned!("unsupported version"))),
        };
        req.method.push_str(method);
        req.path.push_str(path);
    }
    req.method.make_ascii_uppercase();
    // Headers: we act on Connection and If-None-Match.
    req.keep_alive = req.minor_version == 1;
    for line in lines {
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                let v = value.trim();
                if v.eq_ignore_ascii_case("close") {
                    req.keep_alive = false;
                } else if v.eq_ignore_ascii_case("keep-alive") {
                    req.keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("if-none-match") {
                // Lines of one field are one list (RFC 9110 §5.3).
                if validated {
                    validator.push_str(", ");
                }
                validator.push_str(value.trim());
                validated = true;
            }
        } else {
            return Err(ParseError::Malformed(canned!("bad header")));
        }
    }
    if validated {
        req.if_none_match = Some(validator);
    } else {
        *spare = validator;
    }
    Ok(())
}

/// Read one request from a buffered stream.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let mut scratch = RequestReader::new();
    let mut req = Request::empty();
    scratch.read_into(reader, &mut req)?;
    Ok(req)
}

/// A response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line code.
    pub status: Status,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Bytes,
    /// Cache version of the page the response carries, if it has one: the
    /// entity tag, `ETag: "v<version>"` on the wire.
    pub version: Option<u64>,
    /// `Retry-After` header in seconds (load-shedding 503s tell the
    /// client when to come back).
    pub retry_after: Option<u32>,
}

impl Response {
    /// 200 text/html response without an entity tag.
    pub fn html(body: Bytes) -> Self {
        Response {
            status: Status::Ok,
            content_type: "text/html; charset=utf-8",
            body,
            version: None,
            retry_after: None,
        }
    }

    /// 200 text/html response for a page at cache version `version`.
    pub fn page(body: Bytes, version: u64) -> Self {
        Response {
            version: Some(version),
            ..Response::html(body)
        }
    }

    /// 304 response: the client's copy, at cache version `version`, is
    /// current.
    pub fn not_modified(version: u64) -> Self {
        Response {
            status: Status::NotModified,
            ..Response::page(Bytes::new(), version)
        }
    }

    /// Plain-text response with the given status, its body a copy of
    /// `body`.
    pub fn text(status: Status, body: &str) -> Self {
        Response::plain(status, Bytes::copy_from_slice(body.as_bytes()))
    }

    /// Plain-text response with the given status and canned body.
    pub fn canned(status: Status, body: &'static Canned) -> Self {
        Response::plain(status, body.body())
    }

    pub(crate) fn plain(status: Status, body: Bytes) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            version: None,
            retry_after: None,
        }
    }

    /// 404 page.
    pub fn not_found() -> Self {
        Response::canned(Status::NotFound, canned!("not found\n"))
    }

    /// 503 shed response telling the client to retry after
    /// `retry_after_secs` seconds (the paper's elegant-degradation tier
    /// zero: refuse one request rather than melt a node).
    pub fn overloaded(retry_after_secs: u32) -> Self {
        let body = canned!("server overloaded; retry\n");
        Response {
            retry_after: Some(retry_after_secs),
            ..Response::canned(Status::ServiceUnavailable, body)
        }
    }

    /// Serialise the status line and every header (through the blank
    /// line) into `out`, which is cleared first: the one encoder of every
    /// response, hit or miss. The bytes are pinned as literals by the
    /// `every_response_shape_is_these_bytes_on_the_wire` test.
    pub fn serialize_head(&self, keep_alive: bool, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(self.status.line().as_bytes());
        out.extend_from_slice(b"Content-Type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\nContent-Length: ");
        push_u64(out, self.body.len() as u64);
        out.extend_from_slice(if keep_alive {
            b"\r\nConnection: keep-alive\r\n"
        } else {
            b"\r\nConnection: close\r\n"
        });
        out.extend_from_slice(b"Server: nagano/0.1\r\n");
        if let Some(version) = self.version {
            out.extend_from_slice(b"ETag: \"v");
            push_u64(out, version);
            out.extend_from_slice(b"\"\r\n");
        }
        if let Some(secs) = self.retry_after {
            out.extend_from_slice(b"Retry-After: ");
            push_u64(out, u64::from(secs));
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }

    /// Serialise to `w`, honouring keep-alive: the head is built in one
    /// buffer and head + body go out in a single vectored write (the body
    /// is never copied).
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut scratch = Vec::with_capacity(160);
        self.write_with_scratch(w, keep_alive, &mut scratch)
    }

    /// Like [`Response::write_to`] with a caller-owned head buffer, so a
    /// keep-alive worker serialises every response on a connection into
    /// the same allocation.
    pub fn write_with_scratch<W: Write>(
        &self,
        w: &mut W,
        keep_alive: bool,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        self.serialize_head(keep_alive, scratch);
        write_all_vectored(w, scratch, &self.body)?;
        w.flush()
    }
}

/// Whether an `If-None-Match` field value matches the entity tag of cache
/// version `version`, `"v<version>"` (RFC 9110 §13.1.2): `*`, or a
/// comma-separated list of entity tags one of which has that opaque tag,
/// weak (`W/"v7"`) or strong — the weak comparison. A value that is
/// neither matches nothing, so the request is answered in full.
pub fn none_match(field: &str, version: u64) -> bool {
    let field = field.trim_matches(OWS);
    if field == "*" {
        return true;
    }
    let mut found = false;
    let mut rest = field;
    while !rest.is_empty() {
        // A list may hold empty elements (RFC 9110 §5.6.1).
        rest = rest.trim_start_matches([',', ' ', '\t']);
        if rest.is_empty() {
            break;
        }
        let tag = rest.strip_prefix("W/").unwrap_or(rest);
        let Some((opaque, after)) = tag.strip_prefix('"').and_then(|tag| tag.split_once('"'))
        else {
            return false;
        };
        // `etagc`: visible characters but the quote, and obs-text.
        if !opaque
            .bytes()
            .all(|b| b == b'!' || (b >= b'#' && b != 0x7f))
        {
            return false;
        }
        found |= names_version(opaque, version);
        rest = after.trim_start_matches(OWS);
        if !rest.is_empty() && !rest.starts_with(',') {
            return false;
        }
    }
    found
}

/// Optional whitespace around list elements.
const OWS: [char; 2] = [' ', '\t'];

/// Whether `opaque`, an entity tag between its quotes, is the one cache
/// version `version` is served with: `v` and the version in decimal,
/// character for character.
fn names_version(opaque: &str, version: u64) -> bool {
    let mut digits = [0u8; 20];
    opaque.strip_prefix('v').map(str::as_bytes) == Some(decimal(version, &mut digits))
}

/// `n` in decimal, written into the end of `digits`, without `fmt`.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &digits[i..]
}

/// Append `n` in decimal.
fn push_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(decimal(n, &mut [0; 20]));
}

/// Write `head` then `body` with as few writes as the transport allows:
/// one `write_vectored` covers both in the common case, and a manual
/// advance loop finishes partial writes.
fn write_all_vectored<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut head_off = 0usize;
    let mut body_off = 0usize;
    while head_off < head.len() || body_off < body.len() {
        let result = if head_off < head.len() {
            if body.is_empty() {
                w.write(&head[head_off..])
            } else {
                // Writes are sequential, so the body is untouched while
                // any head bytes remain.
                let bufs = [IoSlice::new(&head[head_off..]), IoSlice::new(body)];
                w.write_vectored(&bufs)
            }
        } else {
            w.write(&body[body_off..])
        };
        match result {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole response",
                ))
            }
            Ok(n) => {
                let head_rem = head.len() - head_off;
                if n >= head_rem {
                    head_off = head.len();
                    body_off += n - head_rem;
                } else {
                    head_off += n;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one response from a buffered stream: returns (status code, body,
/// entity tag).
pub fn read_response_full<R: BufRead>(
    reader: &mut R,
) -> Result<(u16, Bytes, Option<String>), ParseError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ParseError::ConnectionClosed);
    }
    let code: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError::Malformed(canned!("bad status line")))?;
    let mut content_length = 0usize;
    let mut etag = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(ParseError::ConnectionClosed);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed(canned!("bad content-length")))?;
            } else if name.eq_ignore_ascii_case("etag") {
                etag = Some(value.trim().to_string());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((code, Bytes::from(body), etag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(s.as_bytes()))
    }

    #[test]
    fn parses_get_request() {
        let r = parse("GET /medals HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/medals");
        assert_eq!(r.minor_version, 1);
        assert!(r.keep_alive, "1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_overrides() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "1.0 defaults to close");
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse("\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/9.9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(ParseError::ConnectionClosed)));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::html(Bytes::from_static(b"<html>hi</html>"));
        let mut buf = Vec::new();
        resp.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 15\r\n"));
        assert!(text.contains("Connection: keep-alive"));
        let (code, body, etag) = read_response_full(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"<html>hi</html>");
        assert_eq!(etag, None);
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::ServiceUnavailable.code(), 503);
        assert_eq!(Status::BadRequest.reason(), "Bad Request");
    }

    #[test]
    fn lowercase_method_uppercased() {
        let r = parse("get /x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
    }

    #[test]
    fn if_none_match_parsed() {
        let r = parse("GET /m HTTP/1.1\r\nIf-None-Match: \"v3\"\r\n\r\n").unwrap();
        assert_eq!(r.if_none_match.as_deref(), Some("\"v3\""));
        let r = parse("GET /m HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.if_none_match, None);
    }

    #[test]
    fn validators_are_read_into_one_buffer_and_lines_of_one_field_join() {
        let wire = "GET /a HTTP/1.1\r\nIf-None-Match: \"v3\", \"v4\", \"v5\", \"v6\"\r\n\r\n\
                    GET /b HTTP/1.1\r\n\r\n\
                    GET /c HTTP/1.1\r\nif-none-match: W/\"v7\"\r\nIf-None-Match:  \"v8\" \r\n\r\n";
        let mut reader = BufReader::new(wire.as_bytes());
        let (mut scratch, mut req) = (RequestReader::new(), Request::empty());
        scratch.read_into(&mut reader, &mut req).unwrap();
        let buffer = req.if_none_match.as_ref().unwrap().as_ptr();
        scratch.read_into(&mut reader, &mut req).unwrap();
        assert_eq!(req.if_none_match, None);
        scratch.read_into(&mut reader, &mut req).unwrap();
        let validator = req.if_none_match.as_ref().unwrap();
        assert_eq!(validator, "W/\"v7\", \"v8\"");
        assert_eq!(validator.as_ptr(), buffer, "one buffer for every validator");
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let resp = Response::overloaded(2);
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert_eq!(resp.retry_after, Some(2));
        let mut buf = Vec::new();
        resp.write_to(&mut buf, false).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close"));
        let (code, _, _) = read_response_full(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 503);
    }

    #[test]
    fn every_response_shape_is_these_bytes_on_the_wire() {
        const HTML: &str = "Content-Type: text/html; charset=utf-8\r\n";
        const TEXT: &str = "Content-Type: text/plain; charset=utf-8\r\n";
        let cases: Vec<(Response, String)> = vec![
            (
                Response::page(Bytes::from_static(b"<html>hello</html>"), 7),
                format!("HTTP/1.1 200 OK\r\n{HTML}Content-Length: 18\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\nETag: \"v7\"\r\n\r\n<html>hello</html>"),
            ),
            (
                Response::page(Bytes::from_static(b"body"), u64::MAX),
                format!("HTTP/1.1 200 OK\r\n{HTML}Content-Length: 4\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\nETag: \"v18446744073709551615\"\r\n\r\nbody"),
            ),
            (
                Response::html(Bytes::from_static(b"<html>hello</html>")),
                format!("HTTP/1.1 200 OK\r\n{HTML}Content-Length: 18\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\n\r\n<html>hello</html>"),
            ),
            (
                Response::html(Bytes::new()),
                format!("HTTP/1.1 200 OK\r\n{HTML}Content-Length: 0\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\n\r\n"),
            ),
            (
                Response::not_modified(12345),
                format!("HTTP/1.1 304 Not Modified\r\n{HTML}Content-Length: 0\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\nETag: \"v12345\"\r\n\r\n"),
            ),
            (
                Response::text(Status::BadRequest, "request head too large"),
                format!("HTTP/1.1 400 Bad Request\r\n{TEXT}Content-Length: 22\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\n\r\nrequest head too large"),
            ),
            (
                Response::not_found(),
                format!("HTTP/1.1 404 Not Found\r\n{TEXT}Content-Length: 10\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\n\r\nnot found\n"),
            ),
            (
                Response::text(Status::MethodNotAllowed, "only GET/HEAD\n"),
                format!("HTTP/1.1 405 Method Not Allowed\r\n{TEXT}Content-Length: 14\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\n\r\nonly GET/HEAD\n"),
            ),
            (
                Response::text(Status::InternalError, "internal server error\n"),
                format!("HTTP/1.1 500 Internal Server Error\r\n{TEXT}Content-Length: 22\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\n\r\ninternal server error\n"),
            ),
            (
                Response::overloaded(0),
                format!("HTTP/1.1 503 Service Unavailable\r\n{TEXT}Content-Length: 25\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\nRetry-After: 0\r\n\r\nserver overloaded; retry\n"),
            ),
            (
                Response::overloaded(u32::MAX),
                format!("HTTP/1.1 503 Service Unavailable\r\n{TEXT}Content-Length: 25\r\nConnection: keep-alive\r\nServer: nagano/0.1\r\nRetry-After: 4294967295\r\n\r\nserver overloaded; retry\n"),
            ),
        ];
        for (resp, keep_alive_bytes) in &cases {
            let close_bytes =
                keep_alive_bytes.replacen("Connection: keep-alive\r\n", "Connection: close\r\n", 1);
            for (keep_alive, expected) in [(true, keep_alive_bytes), (false, &close_bytes)] {
                let mut wire = Vec::new();
                resp.write_to(&mut wire, keep_alive).unwrap();
                assert_eq!(
                    String::from_utf8(wire).unwrap(),
                    *expected,
                    "{:?} keep_alive={keep_alive}",
                    resp.status
                );
            }
        }
    }

    #[test]
    fn request_reader_reuses_buffers_across_requests() {
        let wire = "GET /a HTTP/1.1\r\nHost: x\r\n\r\n\
                    get /b HTTP/1.1\r\nIf-None-Match: \"v3\"\r\n\r\n\
                    GET /c HTTP/1.0\r\n\r\n";
        let mut reader = BufReader::new(wire.as_bytes());
        let mut scratch = RequestReader::new();
        let mut req = Request::empty();
        scratch.read_into(&mut reader, &mut req).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/a"));
        assert!(req.keep_alive && req.if_none_match.is_none());
        scratch.read_into(&mut reader, &mut req).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/b"));
        assert_eq!(req.if_none_match.as_deref(), Some("\"v3\""));
        scratch.read_into(&mut reader, &mut req).unwrap();
        assert_eq!(req.path, "/c");
        assert!(!req.keep_alive, "1.0 defaults to close");
        assert!(req.if_none_match.is_none(), "stale validator cleared");
        assert!(matches!(
            scratch.read_into(&mut reader, &mut req),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn etag_roundtrip_and_304() {
        let resp = Response::page(Bytes::from_static(b"body"), 7);
        let mut buf = Vec::new();
        resp.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("ETag: \"v7\"\r\n"));
        let (code, body, etag) = read_response_full(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"body");
        assert_eq!(etag.as_deref(), Some("\"v7\""));

        let nm = Response::not_modified(7);
        let mut buf = Vec::new();
        nm.write_to(&mut buf, true).unwrap();
        let (code, body, etag) = read_response_full(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 304);
        assert!(body.is_empty());
        assert_eq!(etag.as_deref(), Some("\"v7\""));
    }

    #[test]
    fn if_none_match_is_matched_as_rfc_9110_says() {
        for (field, matches) in [
            ("\"v7\"", true),
            ("W/\"v7\"", true),
            ("\"v6\", \"v7\"", true),
            ("\"v6\",W/\"v7\"", true),
            ("\t\"v7\" ", true),
            ("\"v6\",, \"v7\",", true),
            ("\"a,b\", \"v7\"", true),
            ("*", true),
            ("\"v6\"", false),
            ("\"v70\"", false),
            ("\"v07\"", false),
            ("\"v+7\"", false),
            ("\"V7\"", false),
            ("w/\"v7\"", false),
            // Malformed: matches nothing, so the page is served in full.
            ("", false),
            (",", false),
            ("v7", false),
            ("\"v7", false),
            ("W/v7", false),
            ("\"v7\"x", false),
            ("\"v6\" \"v7\"", false),
            ("*, \"v7\"", false),
            ("\"v 6\", \"v7\"", false),
        ] {
            assert_eq!(none_match(field, 7), matches, "{field:?}");
        }
        assert!(none_match("\"v0\"", 0));
        assert!(none_match(&format!("W/\"v{}\"", u64::MAX), u64::MAX));
    }
}
