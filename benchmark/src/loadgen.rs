//! The benchmark's own HTTP/1.1 load generator: a keep-alive client that
//! frames responses itself, and a closed loop (next request when the reply
//! is in). It deliberately shares no code with the product's client or
//! load harness, so the instrument stays put when they change.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use nagano_pagegen::Renderer;

use crate::plan::{Inputs, Read};

/// One 200 body in this many is compared byte for byte with a fresh render.
const BODY_SAMPLE_EVERY: u64 = 64;

/// A closed loop calls its observer after one reply in this many.
const OBSERVE_EVERY: usize = 8;

/// One keep-alive connection with reusable request and receive buffers.
pub struct Conn {
    stream: TcpStream,
    req: Vec<u8>,
    buf: Vec<u8>,
    /// Bytes of `buf` filled by reads.
    filled: usize,
    /// Bytes of `buf` consumed by replies already returned.
    consumed: usize,
    etag: (usize, usize),
    body: (usize, usize),
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Conn {
            stream,
            req: Vec::with_capacity(256),
            buf: vec![0; 128 * 1024],
            filled: 0,
            consumed: 0,
            etag: (0, 0),
            body: (0, 0),
        })
    }

    /// Send one GET (with `If-None-Match: validator` unless it is empty)
    /// and read the whole reply. Returns the status code; the entity tag
    /// and body stay readable until the next call.
    pub fn round_trip(&mut self, path: &str, validator: &[u8]) -> io::Result<u16> {
        write_request(&mut self.req, path, validator);
        self.stream.write_all(&self.req)?;
        self.read_reply()
    }

    pub fn etag(&self) -> &[u8] {
        &self.buf[self.etag.0..self.etag.1]
    }

    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.filled += n;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn read_reply(&mut self) -> io::Result<u16> {
        // Bytes past the previous reply would be a framing error on a
        // connection that never pipelines; keep them so the status-line
        // check below reports it.
        self.buf.copy_within(self.consumed..self.filled, 0);
        self.filled -= self.consumed;
        self.consumed = 0;
        let mut scanned = 0;
        let head_end = loop {
            if let Some(at) = find(&self.buf[scanned..self.filled], b"\r\n\r\n") {
                break scanned + at + 4;
            }
            scanned = self.filled.saturating_sub(3);
            self.fill()?;
        };
        let head = parse_head(&self.buf[..head_end])?;
        let body_end = head_end + head.content_length;
        if self.buf.len() < body_end {
            self.buf.resize(body_end, 0);
        }
        while self.filled < body_end {
            self.fill()?;
        }
        self.etag = head.etag;
        self.body = (head_end, body_end);
        self.consumed = body_end;
        Ok(head.status)
    }
}

/// The wire bytes of one keep-alive GET, with `If-None-Match: validator`
/// unless the validator is empty. `out` is cleared first.
pub fn write_request(out: &mut Vec<u8>, path: &str, validator: &[u8]) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: nagano\r\nConnection: keep-alive\r\n");
    if !validator.is_empty() {
        out.extend_from_slice(b"If-None-Match: ");
        out.extend_from_slice(validator);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// The entity tag in a serialised response head; empty when there is none.
pub fn parse_etag(head: &[u8]) -> &[u8] {
    parse_head(head).map_or(&[], |h| &head[h.etag.0..h.etag.1])
}

struct Head {
    status: u16,
    content_length: usize,
    etag: (usize, usize),
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_head(head: &[u8]) -> io::Result<Head> {
    if !head.starts_with(b"HTTP/1.") || head.len() < 12 {
        return Err(bad("reply does not start with an HTTP/1.x status line"));
    }
    let status = std::str::from_utf8(&head[9..12])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unreadable status code"))?;
    let mut content_length = None;
    let mut etag = (0, 0);
    let mut at = find(head, b"\r\n").map_or(head.len(), |i| i + 2);
    while at < head.len() {
        let len = find(&head[at..], b"\r\n").ok_or_else(|| bad("unterminated header"))?;
        let line = &head[at..at + len];
        if let Some(colon) = line.iter().position(|&b| b == b':') {
            let name = &line[..colon];
            let mut lo = at + colon + 1;
            let mut hi = at + len;
            while lo < hi && head[lo] == b' ' {
                lo += 1;
            }
            while hi > lo && head[hi - 1] == b' ' {
                hi -= 1;
            }
            if name.eq_ignore_ascii_case(b"content-length") {
                content_length = std::str::from_utf8(&head[lo..hi])
                    .ok()
                    .and_then(|s| s.parse().ok());
                if content_length.is_none() {
                    return Err(bad("unreadable Content-Length"));
                }
            } else if name.eq_ignore_ascii_case(b"etag") {
                etag = (lo, hi);
            }
        }
        at += len + 2;
    }
    Ok(Head {
        status,
        content_length: content_length.ok_or_else(|| bad("reply without Content-Length"))?,
        etag,
    })
}

/// Outcome counts of one connection's reads.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub not_modified: u64,
    pub failed: u64,
    /// 200 bodies compared byte for byte with a fresh render.
    pub bodies_checked: u64,
    /// Why the first failed read failed.
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.not_modified += other.not_modified;
        self.failed += other.failed;
        self.bodies_checked += other.bodies_checked;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The validator `read` carries: the page's last entity tag if the read
/// is conditional and one is known, else empty.
fn validator(etags: &[Vec<u8>], read: Read) -> &[u8] {
    if read.conditional {
        &etags[read.page as usize]
    } else {
        &[]
    }
}

/// One connection's reader: walks the read schedule, remembers the last
/// entity tag per page, and checks every reply.
struct Reader<'a> {
    inputs: &'a Inputs,
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Last entity tag seen per page; empty = none yet.
    etags: Vec<Vec<u8>>,
    /// When set, sampled 200 bodies must equal a fresh render. Only valid
    /// while no update is in flight.
    renderer: Option<&'a Renderer>,
    slot: usize,
    tally: Tally,
}

impl<'a> Reader<'a> {
    fn new(
        inputs: &'a Inputs,
        addr: SocketAddr,
        first_slot: usize,
        renderer: Option<&'a Renderer>,
    ) -> Self {
        Reader {
            inputs,
            addr,
            conn: None,
            etags: vec![Vec::new(); inputs.paths.len()],
            renderer,
            slot: first_slot % inputs.reads.len(),
            tally: Tally::default(),
        }
    }

    fn next_read(&mut self) -> Read {
        let read = self.inputs.reads[self.slot];
        self.slot = (self.slot + 1) % self.inputs.reads.len();
        read
    }

    /// Send `read` and wait for its reply: the timed part of a read. The
    /// reply is judged by [`Reader::judge`], outside the timing.
    fn exchange(&mut self, read: Read) -> io::Result<u16> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        let path = &self.inputs.paths[read.page as usize];
        conn.round_trip(path, validator(&self.etags, read))
    }

    /// Check the reply to `read` and count it. Returns whether it was
    /// correct.
    fn judge(&mut self, read: Read, outcome: io::Result<u16>) -> bool {
        self.tally.attempted += 1;
        let page = read.page as usize;
        let status = match outcome {
            Ok(status) => status,
            Err(e) => {
                self.conn = None;
                self.tally.fail(format!("{}: {e}", self.inputs.paths[page]));
                return false;
            }
        };
        let conn = self.conn.as_ref().expect("a reply came over a connection");
        let sent = validator(&self.etags, read);
        let verdict = match status {
            200 if conn.etag().is_empty() => Err("200 without an entity tag".to_string()),
            200 => {
                let sampled = self.tally.attempted.is_multiple_of(BODY_SAMPLE_EVERY);
                match self.renderer {
                    Some(renderer) if sampled => {
                        self.tally.bodies_checked += 1;
                        if renderer.render(self.inputs.keys[page]).body[..] == *conn.body() {
                            Ok(())
                        } else {
                            Err("200 body differs from a fresh render".to_string())
                        }
                    }
                    _ => Ok(()),
                }
            }
            // A 304 may only confirm the validator that was sent, and
            // the server names the entry's current version in it.
            304 if sent.is_empty() => Err("304 to an unconditional request".to_string()),
            304 if conn.etag() != sent => Err(format!(
                "304 names {} but the validator sent was {}",
                String::from_utf8_lossy(conn.etag()),
                String::from_utf8_lossy(sent)
            )),
            304 if !conn.body().is_empty() => Err("304 with a body".to_string()),
            304 => Ok(()),
            other => Err(format!("status {other}")),
        };
        match verdict {
            Ok(()) => {
                self.tally.ok += 1;
                if status == 304 {
                    self.tally.not_modified += 1;
                } else {
                    let etag = &mut self.etags[page];
                    etag.clear();
                    etag.extend_from_slice(conn.etag());
                }
                true
            }
            Err(why) => {
                // A refused or malformed exchange leaves the stream in an
                // unknown state: start over on a new connection.
                self.conn = None;
                self.tally
                    .fail(format!("{}: {why}", self.inputs.paths[page]));
                false
            }
        }
    }
}

/// One closed-loop read, packed to 8 bytes: a round holds a hundred
/// thousand of them per connection and `rss_mb` should weigh the site,
/// not the instrument.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was sent, microseconds on the connection's clock:
    /// from the start of the loop, less the time the generator spent on
    /// work of its own (see [`closed_loop`]).
    pub sent_us: u32,
    /// Send to complete reply in nanoseconds (saturating; reads time out
    /// long before); [`Sample::FAILED`] for a read that failed.
    pub rtt_ns: u32,
}

impl Sample {
    pub const FAILED: u32 = u32::MAX;
}

/// Closed loop on one connection: reads back to back from `start` until
/// `limit` reads are done, `deadline` has passed or `observe` says so.
/// With a `renderer`, sampled 200 bodies must equal a fresh render: only
/// valid while no update is in flight. `observe` is called after every
/// [`OBSERVE_EVERY`]th reply with the number of reads done, and ends the
/// loop by returning `true`: the generators are the only threads that are
/// on a core all the time, so they are the ones that can look at a
/// clock-sensitive counter without being descheduled first.
///
/// Comparing a body and whatever `observe` does are the generator's own
/// work, not the server's: the connection's clock stands still meanwhile,
/// so the pace `sent_us` shows is the pace of the reads.
pub fn closed_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    first_slot: usize,
    renderer: Option<&Renderer>,
    start: Instant,
    (limit, deadline): (usize, Duration),
    observe: &(dyn Fn(usize) -> bool + Sync),
) -> (Vec<Sample>, Tally) {
    let mut reader = Reader::new(inputs, addr, first_slot, renderer);
    let mut samples = Vec::with_capacity(limit.min(1 << 17));
    let now = Instant::now();
    if start > now {
        std::thread::sleep(start - now);
    }
    let end = start + deadline;
    let mut own_work = Duration::ZERO;
    while samples.len() < limit {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        let read = reader.next_read();
        let outcome = reader.exchange(read);
        let done = Instant::now();
        let bodies_before = reader.tally.bodies_checked;
        let ok = reader.judge(read, outcome);
        let rtt_ns = u32::try_from((done - sent).as_nanos()).unwrap_or(Sample::FAILED - 1);
        samples.push(Sample {
            sent_us: (sent - start - own_work).as_micros() as u32,
            rtt_ns: if ok {
                rtt_ns.min(Sample::FAILED - 1)
            } else {
                Sample::FAILED
            },
        });
        let observed = samples.len() % OBSERVE_EVERY == 0;
        if observed && observe(samples.len()) {
            break;
        }
        if observed || reader.tally.bodies_checked != bodies_before {
            own_work += done.elapsed();
        }
    }
    (samples, reader.tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parser_reads_status_length_and_tag() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\ncontent-length: 17\r\nETag:  \"v3\" \r\n\r\n";
        let h = parse_head(head).unwrap();
        assert_eq!(h.status, 200);
        assert_eq!(h.content_length, 17);
        assert_eq!(&head[h.etag.0..h.etag.1], b"\"v3\"");
        let h = parse_head(b"HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!((h.status, h.content_length, h.etag), (304, 0, (0, 0)));
    }

    #[test]
    fn head_parser_rejects_garbage() {
        assert!(parse_head(b"<html>leftover body\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n").is_err());
    }
}
