//! Access logs and log analysis.
//!
//! §3.1 of the paper: "The Web server logs collected during the 1996 games
//! provided significant insight into the design of the 1998 Web site" —
//! the navigation-depth findings, the 200M-hits projection, and the
//! audited traffic records all came from log analysis. This module writes
//! NCSA Common Log Format lines (the 1998-era standard) and computes the
//! aggregations that analysis needs: top pages, hits per hour, status
//! breakdowns, byte volumes.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use nagano_telemetry::sync::Mutex;
use rustc_hash::FxHashMap;

use crate::http::{Request, Response};

/// One access-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Client host (IP or region label in simulations).
    pub host: String,
    /// Seconds since the measurement epoch (simulated or wall).
    pub epoch_secs: u64,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
}

/// Percent-encode the characters that would break CLF framing: `%`
/// (the escape itself), space (the request-line separator), and `"` (the
/// request-line delimiter).
fn escape_clf_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for c in path.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '"' => out.push_str("%22"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_clf_path`]. Only the three sequences the writer emits
/// are decoded; anything else passes through untouched, so externally
/// produced logs are not mangled.
fn unescape_clf_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let bytes = path.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes.get(i..i + 3) {
            Some(b"%25") => {
                out.push('%');
                i += 3;
            }
            Some(b"%20") => {
                out.push(' ');
                i += 3;
            }
            Some(b"%22") => {
                out.push('"');
                i += 3;
            }
            _ => match path[i..].chars().next() {
                Some(c) => {
                    out.push(c);
                    i += c.len_utf8();
                }
                None => break,
            },
        }
    }
    out
}

impl LogEntry {
    /// The record of `req`, answered with `resp`, from `host` at
    /// `epoch_secs`: what a [`crate::RequestObserver`] logs.
    pub fn served(host: &str, epoch_secs: u64, req: &Request, resp: &Response) -> LogEntry {
        LogEntry {
            host: host.to_string(),
            epoch_secs,
            method: req.method.clone(),
            path: req.path.clone(),
            status: resp.status.code(),
            bytes: resp.body.len() as u64,
        }
    }

    /// Render in NCSA Common Log Format (ident/authuser always `-`;
    /// the timestamp renders as `[<epoch_secs>]` — simulations have no
    /// calendar). Paths are percent-encoded so spaces and quotes survive
    /// a [`LogEntry::parse_clf`] round trip.
    pub fn to_clf(&self) -> String {
        let mut line = String::with_capacity(64);
        let _ = write!(
            line,
            "{} - - [{}] \"{} {} HTTP/1.1\" {} {}",
            self.host,
            self.epoch_secs,
            self.method,
            escape_clf_path(&self.path),
            self.status,
            self.bytes
        );
        line
    }

    /// Parse a line produced by [`LogEntry::to_clf`]. Returns `None` on
    /// malformed input.
    pub fn parse_clf(line: &str) -> Option<LogEntry> {
        let mut rest = line;
        let host = rest.split_whitespace().next()?.to_string();
        rest = rest.strip_prefix(&host)?.trim_start();
        rest = rest.strip_prefix("- - [")?;
        let (ts, after) = rest.split_once(']')?;
        let epoch_secs = ts.trim().parse().ok()?;
        let after = after.trim_start().strip_prefix('"')?;
        let (request, tail) = after.split_once('"')?;
        let mut req_parts = request.split_whitespace();
        let method = req_parts.next()?.to_string();
        let path = unescape_clf_path(req_parts.next()?);
        let mut tail_parts = tail.split_whitespace();
        let status = tail_parts.next()?.parse().ok()?;
        let bytes = tail_parts.next()?.parse().ok()?;
        Some(LogEntry {
            host,
            epoch_secs,
            method,
            path,
            status,
            bytes,
        })
    }
}

/// A thread-safe CLF writer.
#[derive(Debug)]
pub struct AccessLog<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> AccessLog<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        AccessLog {
            writer: Mutex::new(writer),
        }
    }

    /// Append one entry. A poisoned lock (a panic elsewhere mid-write)
    /// is recovered rather than propagated: each record is one
    /// `writeln!`, so the worst case is a single torn line, and access
    /// logging must outlive any one request.
    pub fn log(&self, entry: &LogEntry) -> std::io::Result<()> {
        writeln!(self.writer.lock(), "{}", entry.to_clf())
    }

    /// Flush and recover the writer.
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

/// Aggregations over a log — the analyses the 1996 team ran.
#[derive(Debug, Default, Clone)]
pub struct LogAnalysis {
    /// Total requests.
    pub total: u64,
    /// Total body bytes.
    pub bytes: u64,
    /// Requests per status code.
    pub by_status: FxHashMap<u16, u64>,
    /// Requests per path.
    pub by_path: FxHashMap<String, u64>,
    /// Requests per hour-of-epoch bucket.
    pub by_hour: FxHashMap<u64, u64>,
    /// Lines that failed to parse.
    pub malformed: u64,
}

impl LogAnalysis {
    /// Analyse CLF lines from a reader.
    pub fn from_reader<R: BufRead>(reader: R) -> std::io::Result<LogAnalysis> {
        let mut a = LogAnalysis::default();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match LogEntry::parse_clf(&line) {
                Some(e) => a.push(&e),
                None => a.malformed += 1,
            }
        }
        Ok(a)
    }

    /// Fold one entry in.
    pub fn push(&mut self, e: &LogEntry) {
        self.total += 1;
        self.bytes += e.bytes;
        *self.by_status.entry(e.status).or_insert(0) += 1;
        *self.by_path.entry(e.path.clone()).or_insert(0) += 1;
        *self.by_hour.entry(e.epoch_secs / 3_600).or_insert(0) += 1;
    }

    /// The `n` most-requested paths, descending (ties by path for
    /// determinism).
    pub fn top_pages(&self, n: usize) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> =
            self.by_path.iter().map(|(p, &c)| (p.clone(), c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Fraction of responses with a given status class (2 = 2xx, …).
    pub fn status_class_share(&self, class: u16) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n: u64 = self
            .by_status
            .iter()
            .filter(|(&s, _)| s / 100 == class)
            .map(|(_, &c)| c)
            .sum();
        n as f64 / self.total as f64
    }

    /// Mean bytes per request.
    pub fn mean_bytes(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.bytes as f64 / self.total as f64
        }
    }

    /// Peak hour `(hour_index, requests)`.
    pub fn peak_hour(&self) -> Option<(u64, u64)> {
        self.by_hour
            .iter()
            .map(|(&h, &c)| (h, c))
            .max_by_key(|&(h, c)| (c, std::cmp::Reverse(h)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn entry(path: &str, secs: u64, status: u16, bytes: u64) -> LogEntry {
        LogEntry {
            host: "203.0.113.7".into(),
            epoch_secs: secs,
            method: "GET".into(),
            path: path.into(),
            status,
            bytes,
        }
    }

    #[test]
    fn clf_roundtrip() {
        let e = entry("/medals", 86_400, 200, 9_967);
        let line = e.to_clf();
        assert_eq!(
            line,
            "203.0.113.7 - - [86400] \"GET /medals HTTP/1.1\" 200 9967"
        );
        assert_eq!(LogEntry::parse_clf(&line), Some(e));
    }

    #[test]
    fn clf_roundtrip_escapes_spaces_and_quotes() {
        for path in [
            "/athletes/\"ski jumping\"",
            "/a path/with spaces",
            "/literal%20not-a-space",
            "/percent%/trailing%2",
            "/quote\"inside",
        ] {
            let e = entry(path, 5, 200, 1);
            let line = e.to_clf();
            assert!(
                !line.contains(' ') || LogEntry::parse_clf(&line) == Some(e.clone()),
                "path {path:?} did not round-trip via {line:?}"
            );
            assert_eq!(LogEntry::parse_clf(&line), Some(e), "line {line:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "nonsense",
            "a - - [x] \"GET /\" 200 1",
            "a - - [1] GET / 200",
        ] {
            assert_eq!(LogEntry::parse_clf(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn writer_and_analyzer_roundtrip() {
        let log = AccessLog::new(Vec::new());
        log.log(&entry("/day/7/", 10, 200, 55_000)).unwrap();
        log.log(&entry("/day/7/", 3_800, 200, 55_000)).unwrap();
        log.log(&entry("/medals", 20, 200, 10_000)).unwrap();
        log.log(&entry("/missing", 30, 404, 10)).unwrap();
        let buf = log.into_inner();
        let a = LogAnalysis::from_reader(BufReader::new(&buf[..])).unwrap();
        assert_eq!(a.total, 4);
        assert_eq!(a.malformed, 0);
        assert_eq!(a.bytes, 120_010);
        assert_eq!(a.top_pages(1), vec![("/day/7/".to_string(), 2)]);
        assert_eq!(a.by_status[&404], 1);
        assert!((a.status_class_share(2) - 0.75).abs() < 1e-12);
        assert!((a.mean_bytes() - 30_002.5).abs() < 1e-9);
        // Hours: 0 has 3 requests, 1 has 1.
        assert_eq!(a.peak_hour(), Some((0, 3)));
    }

    #[test]
    fn analyzer_counts_malformed() {
        let data = b"garbage line\n203.0.113.7 - - [1] \"GET /a HTTP/1.1\" 200 5\n";
        let a = LogAnalysis::from_reader(BufReader::new(&data[..])).unwrap();
        assert_eq!(a.total, 1);
        assert_eq!(a.malformed, 1);
    }

    #[test]
    fn empty_analysis_is_zeroes() {
        let a = LogAnalysis::default();
        assert_eq!(a.mean_bytes(), 0.0);
        assert_eq!(a.status_class_share(2), 0.0);
        assert_eq!(a.peak_hour(), None);
        assert!(a.top_pages(5).is_empty());
    }

    #[test]
    fn top_pages_is_deterministic_on_ties() {
        let mut a = LogAnalysis::default();
        a.push(&entry("/b", 0, 200, 1));
        a.push(&entry("/a", 0, 200, 1));
        a.push(&entry("/c", 0, 200, 1));
        let top = a.top_pages(3);
        assert_eq!(
            top.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>(),
            vec!["/a", "/b", "/c"]
        );
    }
}
