//! HTTP/1.x message parsing and serialisation — the minimal subset the
//! site needs: GET/HEAD requests, status + Content-Length responses,
//! keep-alive negotiation.

use std::io::{self, BufRead, IoSlice, Read, Write};

use bytes::Bytes;

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
    /// Malformed request line or headers.
    Malformed(&'static str),
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
                return Err(ParseError::Malformed("request head too large"));
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
    let head = std::str::from_utf8(head).map_err(|_| ParseError::Malformed("head is not UTF-8"))?;
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
            .ok_or(ParseError::Malformed("missing method"))?;
        let path = parts.next().ok_or(ParseError::Malformed("missing path"))?;
        let version = parts.next().unwrap_or("HTTP/1.0");
        req.minor_version = match version {
            "HTTP/1.1" => 1,
            "HTTP/1.0" => 0,
            _ => return Err(ParseError::Malformed("unsupported version")),
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
            return Err(ParseError::Malformed("bad header"));
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
    /// Entity tag, if the resource has a validator (cached pages use
    /// their cache version).
    pub etag: Option<String>,
    /// `Retry-After` header in seconds (load-shedding 503s tell the
    /// client when to come back).
    pub retry_after: Option<u32>,
    /// Preserialised head fragments for the cache-hit fast path: the
    /// bytes before and after the per-request `Connection:` header. When
    /// set, serialisation copies these instead of formatting `status` /
    /// `content_type` / `etag` (which are kept populated only as far as
    /// the observer/logging path needs them).
    pub prebuilt: Option<(Bytes, Bytes)>,
}

impl Response {
    /// 200 text/html response.
    pub fn html(body: Bytes) -> Self {
        Response {
            status: Status::Ok,
            content_type: "text/html; charset=utf-8",
            body,
            etag: None,
            retry_after: None,
            prebuilt: None,
        }
    }

    /// 200 text/html response for a cached page with preserialised head
    /// fragments from [`prebuilt_html_head`]: the serving hot path writes
    /// `pre + Connection + post + body` without re-formatting any header.
    pub fn prebuilt(pre: Bytes, post: Bytes, body: Bytes) -> Self {
        Response {
            status: Status::Ok,
            content_type: "text/html; charset=utf-8",
            body,
            etag: None,
            retry_after: None,
            prebuilt: Some((pre, post)),
        }
    }

    /// Attach an entity tag.
    pub fn with_etag(mut self, etag: impl Into<String>) -> Self {
        self.etag = Some(etag.into());
        self
    }

    /// 304 response reusing the validator.
    pub fn not_modified(etag: impl Into<String>) -> Self {
        Response {
            status: Status::NotModified,
            content_type: "text/html; charset=utf-8",
            body: Bytes::new(),
            etag: Some(etag.into()),
            retry_after: None,
            prebuilt: None,
        }
    }

    /// Plain-text response with the given status.
    pub fn text(status: Status, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Bytes::copy_from_slice(body.as_bytes()),
            etag: None,
            retry_after: None,
            prebuilt: None,
        }
    }

    /// 404 page.
    pub fn not_found() -> Self {
        Response::text(Status::NotFound, "not found\n")
    }

    /// 503 shed response telling the client to retry after
    /// `retry_after_secs` seconds (the paper's elegant-degradation tier
    /// zero: refuse one request rather than melt a node).
    pub fn overloaded(retry_after_secs: u32) -> Self {
        let mut resp = Response::text(Status::ServiceUnavailable, "server overloaded; retry\n");
        resp.retry_after = Some(retry_after_secs);
        resp
    }

    /// Serialise the status line and every header (through the blank
    /// line) into `out`, which is cleared first. Byte-for-byte identical
    /// to the historical multi-`write!` serialisation, pinned by the
    /// `head_serialisation_matches_legacy_bytes` test.
    pub fn serialize_head(&self, keep_alive: bool, out: &mut Vec<u8>) {
        out.clear();
        if let Some((pre, post)) = &self.prebuilt {
            out.extend_from_slice(pre);
            out.extend_from_slice(connection_line(keep_alive));
            out.extend_from_slice(post);
            return;
        }
        out.extend_from_slice(self.status.line().as_bytes());
        out.extend_from_slice(b"Content-Type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\nContent-Length: ");
        push_u64(out, self.body.len() as u64);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(connection_line(keep_alive));
        out.extend_from_slice(b"Server: nagano/0.1\r\n");
        if let Some(etag) = &self.etag {
            out.extend_from_slice(b"ETag: ");
            out.extend_from_slice(etag.as_bytes());
            out.extend_from_slice(b"\r\n");
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

    /// The test oracle for response bytes, selected by nothing: the
    /// historical serialisation, one formatted `write!` per header group
    /// plus a separate body `write_all`, kept verbatim so the
    /// byte-equivalence tests compare [`Response::write_to`] and the
    /// prebuilt heads against an independent formatting of the same
    /// response. A response that carries a prebuilt head has no fields to
    /// format from and goes through the buffered path.
    pub fn write_to_legacy<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        if self.prebuilt.is_some() {
            return self.write_to(w, keep_alive);
        }
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\nServer: nagano/0.1\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        if let Some(etag) = &self.etag {
            write!(w, "ETag: {etag}\r\n")?;
        }
        if let Some(secs) = self.retry_after {
            write!(w, "Retry-After: {secs}\r\n")?;
        }
        write!(w, "\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Build the preserialised head fragments for a cached 200 text/html page
/// of `body_len` bytes at cache version `version`: everything before the
/// per-request `Connection:` header and everything after it (`Server`,
/// `ETag: "v<version>"`, blank line). Computed once per cache fill and
/// amortised over every hit.
pub fn prebuilt_html_head(body_len: usize, version: u64) -> (Bytes, Bytes) {
    // One buffer, two views of it.
    let mut head = Vec::with_capacity(144);
    head.extend_from_slice(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: ",
    );
    push_u64(&mut head, body_len as u64);
    head.extend_from_slice(b"\r\n");
    let split = head.len();
    head.extend_from_slice(b"Server: nagano/0.1\r\nETag: \"v");
    push_u64(&mut head, version);
    head.extend_from_slice(b"\"\r\n\r\n");
    let head = Bytes::from(head);
    (head.slice(..split), head.slice(split..))
}

fn connection_line(keep_alive: bool) -> &'static [u8] {
    if keep_alive {
        b"Connection: keep-alive\r\n"
    } else {
        b"Connection: close\r\n"
    }
}

/// Append `n` in decimal without going through `fmt`.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
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

/// Read one response from a buffered stream: returns (status code, body).
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<(u16, Bytes), ParseError> {
    let (code, body, _) = read_response_full(reader)?;
    Ok((code, body))
}

/// Read one response: returns (status code, body, etag).
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
        .ok_or(ParseError::Malformed("bad status line"))?;
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
                    .map_err(|_| ParseError::Malformed("bad content-length"))?;
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
        let (code, body) = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"<html>hi</html>");
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
        let (code, _) = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 503);
    }

    #[test]
    fn head_serialisation_matches_legacy_bytes() {
        // The single-buffer serialiser must be byte-identical to the old
        // multi-`write!` path for every response shape the site emits.
        let cases: Vec<Response> = vec![
            Response::html(Bytes::from_static(b"<html>hello</html>")),
            Response::html(Bytes::from_static(b"body")).with_etag("\"v7\""),
            Response::html(Bytes::new()),
            Response::not_modified("\"v12345\""),
            Response::text(Status::BadRequest, "bad header\n"),
            Response::text(Status::MethodNotAllowed, "only GET/HEAD\n"),
            Response::text(Status::InternalError, "internal server error\n"),
            Response::not_found(),
            Response::overloaded(0),
            Response::overloaded(4_294_967_295),
        ];
        for resp in &cases {
            for keep_alive in [true, false] {
                let mut new = Vec::new();
                resp.write_to(&mut new, keep_alive).unwrap();
                let mut old = Vec::new();
                resp.write_to_legacy(&mut old, keep_alive).unwrap();
                assert_eq!(
                    new, old,
                    "write_to diverged from legacy for {:?} keep_alive={keep_alive}",
                    resp.status
                );
            }
        }
    }

    #[test]
    fn prebuilt_head_matches_formatted_head() {
        let body = Bytes::from_static(b"<html>cached page</html>");
        let (pre, post) = prebuilt_html_head(body.len(), 42);
        let fast = Response::prebuilt(pre, post, body.clone());
        let slow = Response::html(body).with_etag("\"v42\"");
        for keep_alive in [true, false] {
            let mut a = Vec::new();
            fast.write_to(&mut a, keep_alive).unwrap();
            let mut b = Vec::new();
            slow.write_to(&mut b, keep_alive).unwrap();
            assert_eq!(a, b, "prebuilt head diverged (keep_alive={keep_alive})");
        }
        // And the legacy writer falls back to the same bytes.
        let mut c = Vec::new();
        fast.write_to_legacy(&mut c, true).unwrap();
        let mut d = Vec::new();
        slow.write_to(&mut d, true).unwrap();
        assert_eq!(c, d);
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
        let resp = Response::html(Bytes::from_static(b"body")).with_etag("\"v7\"");
        let mut buf = Vec::new();
        resp.write_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("ETag: \"v7\"\r\n"));
        let (code, body, etag) = read_response_full(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"body");
        assert_eq!(etag.as_deref(), Some("\"v7\""));

        let nm = Response::not_modified("\"v7\"");
        let mut buf = Vec::new();
        nm.write_to(&mut buf, true).unwrap();
        let (code, body, etag) = read_response_full(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(code, 304);
        assert!(body.is_empty());
        assert_eq!(etag.as_deref(), Some("\"v7\""));
    }
}
