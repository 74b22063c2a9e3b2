//! The threaded server: accept loop + fixed worker pool.
//!
//! One OS thread accepts connections and hands them to workers over a
//! crossbeam channel; each worker owns a connection for its keep-alive
//! lifetime (the 1998-era model: persistent connections, bounded
//! concurrency, no async runtime required at these request sizes).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use nagano_telemetry::sync::blocking;

use crate::http::{canned, ParseError, Request, RequestReader, Response, Status};

/// A request handler (the FastCGI-attached "server program").
pub trait Handler: Send + Sync + 'static {
    /// Produce a response for `req`.
    fn handle(&self, req: &Request) -> Response;
}

/// Observer invoked with each request and the response it is answered
/// with, before the response is written. Used for access logging and
/// request metrics.
pub type RequestObserver = Arc<dyn Fn(&Request, &Response) + Send + Sync>;

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// `Retry-After`, in seconds, advertised on shed (503) responses.
const SHED_RETRY_AFTER_SECS: u32 = 2;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (concurrent connections served).
    pub workers: usize,
    /// Pending-connection queue depth; connections beyond it are shed
    /// with a `503` + `Retry-After` instead of queueing unboundedly.
    pub backlog: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            backlog: 128,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server; dropping it shuts the server down.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    served: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    /// The workers' end of the accept → worker queue, kept to report its
    /// depth; nothing is received through it.
    queue: Receiver<TcpStream>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start
    /// serving `handler`.
    pub fn bind(
        addr: &str,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::bind_with_observer(addr, handler, config, None)
    }

    /// Like [`Server::bind`], with an observer called after every served
    /// request (access logging).
    pub fn bind_with_observer(
        addr: &str,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
        observer: Option<RequestObserver>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = bounded(config.backlog);

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers.max(1) {
            let rx = rx.clone();
            let handler = Arc::clone(&handler);
            let served = Arc::clone(&served);
            let timeout = config.read_timeout;
            let worker_shutdown = Arc::clone(&shutdown);
            let observer = observer.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("httpd-worker-{i}"))
                    .spawn(move || {
                        worker_loop(rx, handler, served, timeout, worker_shutdown, observer)
                    })?,
            );
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_shed = Arc::clone(&shed);
        let accept_thread = std::thread::Builder::new()
            .name("httpd-accept".into())
            .spawn(move || {
                use crossbeam::channel::TrySendError;
                for stream in listener.incoming() {
                    if accept_shutdown.load(Relaxed) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            // TCP_NODELAY before the stream goes anywhere:
                            // neither a served response's final write nor
                            // the accept-thread shed 503 should sit out a
                            // Nagle delay.
                            let _ = s.set_nodelay(true);
                            match tx.try_send(s) {
                                Ok(()) => {}
                                Err(TrySendError::Full(s)) => {
                                    // Every worker is busy and the pending
                                    // queue is full: shed the connection with
                                    // a 503 + Retry-After rather than queue
                                    // it unboundedly (load shedding is the
                                    // fault tier below a node outage).
                                    accept_shed.fetch_add(1, Relaxed);
                                    shed_connection(s);
                                }
                                Err(TrySendError::Disconnected(_)) => break,
                            }
                        }
                        Err(_) => continue,
                    }
                }
                // Dropping tx disconnects the workers.
            })?;

        Ok(Server {
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
            served,
            shed,
            queue: rx,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Relaxed)
    }

    /// Accepted connections waiting for a worker right now (at most
    /// [`ServerConfig::backlog`]).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Spin until exactly `n` accepted connections wait for a worker, for
    /// at most `timeout`; returns whether they do. For tests and drills
    /// that overflow the queue on purpose: `connect` returning says the
    /// kernel has the connection, not that the accept thread has queued
    /// it, nor that a worker has taken it.
    pub fn wait_for_pending(&self, n: usize, timeout: Duration) -> bool {
        #[expect(
            clippy::disallowed_methods,
            reason = "a real accept thread is awaited in host time; tests and drills only"
        )]
        let started = Instant::now();
        while self.pending() != n {
            if started.elapsed() >= timeout {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Connections shed with a 503 because the pending queue was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Relaxed)
    }

    /// Stop accepting and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Relaxed);
        // Poke the accept loop out of `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = blocking!(h.join());
        }
        for h in self.workers.drain(..) {
            let _ = blocking!(h.join());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Reply 503 + Retry-After on the accept thread and close. The request
/// is deliberately not read: shedding must stay O(1) no matter how slow
/// the shed client is.
fn shed_connection(stream: TcpStream) {
    let mut writer = BufWriter::new(stream);
    let _ = Response::overloaded(SHED_RETRY_AFTER_SECS).write_to(&mut writer, false);
    let _ = writer.flush();
}

fn worker_loop(
    rx: Receiver<TcpStream>,
    handler: Arc<dyn Handler>,
    served: Arc<AtomicU64>,
    timeout: Duration,
    shutdown: Arc<AtomicBool>,
    observer: Option<RequestObserver>,
) {
    // Parse and head-serialisation scratch, reused for every request the
    // worker ever serves: steady-state keep-alive traffic allocates
    // nothing per request on this path.
    let mut parse = RequestReader::new();
    let mut request = Request::empty();
    let mut head = Vec::with_capacity(256);
    while let Ok(mut stream) = blocking!(rx.recv()) {
        // Short poll interval so keep-alive workers notice shutdown fast;
        // idle connections are re-polled until `timeout` worth of silence.
        let poll = Duration::from_millis(50);
        let _ = stream.set_read_timeout(Some(poll));
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        // Requests are read through `reader`; responses go straight to
        // `stream`, head from the reused scratch buffer plus the
        // refcounted body in one vectored write.
        let mut reader = BufReader::new(read_half);
        let mut idle = Duration::ZERO;
        // A head the last connection left half read is no part of this
        // one's; within a connection, a head split across polls resumes.
        parse.reset();
        loop {
            match parse.read_into(&mut reader, &mut request) {
                Ok(()) => {
                    idle = Duration::ZERO;
                }
                Err(ParseError::ConnectionClosed) => break,
                Err(ParseError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    idle += poll;
                    if shutdown.load(Relaxed) || idle >= timeout {
                        break;
                    }
                    continue;
                }
                Err(ParseError::Io(_)) => break,
                Err(ParseError::Malformed(msg)) => {
                    let _ = Response::canned(Status::BadRequest, msg).write_with_scratch(
                        &mut stream,
                        false,
                        &mut head,
                    );
                    break;
                }
            }
            let response = if request.method == "GET" || request.method == "HEAD" {
                // A panicking server program must cost one response, not
                // the worker (paper §4: a node-level outage is the fault
                // tier above a failed request).
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(&request)))
                    .unwrap_or_else(|_| {
                        let body = canned!("internal server error\n");
                        Response::canned(Status::InternalError, body)
                    })
            } else {
                Response::canned(Status::MethodNotAllowed, canned!("only GET/HEAD\n"))
            };
            served.fetch_add(1, Relaxed);
            if let Some(obs) = &observer {
                obs(&request, &response);
            }
            let keep = request.keep_alive;
            if response
                .write_with_scratch(&mut stream, keep, &mut head)
                .is_err()
            {
                break;
            }
            if !keep {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use bytes::Bytes;

    fn echo_server() -> Server {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            if req.path == "/missing" {
                Response::not_found()
            } else {
                Response::html(Bytes::from(format!("<p>{}</p>", req.path)))
            }
        });
        Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap()
    }

    #[test]
    fn serves_a_request() {
        let server = echo_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (code, body) = client.get("/medals").unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"<p>/medals</p>");
        assert_eq!(server.served(), 1);
        server.shutdown();
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = echo_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            let (code, body) = client.get(&format!("/p{i}")).unwrap();
            assert_eq!(code, 200);
            assert_eq!(body, Bytes::from(format!("<p>/p{i}</p>")));
        }
        assert_eq!(server.served(), 10);
        server.shutdown();
    }

    #[test]
    fn not_found_and_method_checks() {
        use crate::http::read_response_full;
        let server = echo_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (code, _) = client.get("/missing").unwrap();
        assert_eq!(code, 404);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"POST /x HTTP/1.1\r\n\r\n").unwrap();
        let (code, _, _) = read_response_full(&mut BufReader::new(&stream)).unwrap();
        assert_eq!(code, 405);
        server.shutdown();
    }

    #[test]
    fn a_head_split_across_polls_is_one_request() {
        use crate::http::read_response_full;
        let server = echo_server();
        let wire = b"GET /medals HTTP/1.1\r\nHost: x\r\n\r\n";
        // Inside the method, the path, the version, at the end of the
        // request line, inside a header, and before the blank line; each
        // pause is longer than the worker's 50 ms poll.
        for cut in [2, 9, 18, 21, 26, wire.len() - 2] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(&wire[..cut]).unwrap();
            blocking!(std::thread::sleep(Duration::from_millis(120)));
            stream.write_all(&wire[cut..]).unwrap();
            let (code, body, _) = read_response_full(&mut BufReader::new(&stream)).unwrap();
            assert_eq!(
                (code, &body[..]),
                (200, &b"<p>/medals</p>"[..]),
                "cut at {cut}"
            );
        }
        assert_eq!(server.served(), 6);
        server.shutdown();
    }

    #[test]
    fn an_endless_head_is_refused_and_the_worker_serves_on() {
        use crate::http::MAX_HEAD_BYTES;
        use std::io::Read;
        let handler: Arc<dyn Handler> =
            Arc::new(|_: &Request| Response::html(Bytes::from_static(b"ok")));
        let config = ServerConfig {
            workers: 1,
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", handler, config).unwrap();
        // A request line that never ends, one byte past the cap: all of it
        // is read, so the close that follows the answer is not a reset.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let endless = format!("GET /{}", "a".repeat(MAX_HEAD_BYTES + 1 - 5));
        stream.write_all(endless.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        // The one worker is free for the next connection.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/next").unwrap().0, 200);
        assert_eq!(server.served(), 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = echo_server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..50 {
                    let (code, _) = client.get(&format!("/t{t}/{i}")).unwrap();
                    assert_eq!(code, 200);
                }
            }));
        }
        for h in handles {
            blocking!(h.join()).unwrap();
        }
        assert_eq!(server.served(), 400);
        server.shutdown();
    }

    #[test]
    fn panicking_handler_maps_to_500_and_the_worker_survives() {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::html(Bytes::from_static(b"ok"))
        });
        let server = Server::bind(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (code, _) = client.get("/boom").unwrap();
        assert_eq!(code, 500);
        // One worker only: the same thread that caught the panic must
        // keep serving.
        let (code, body) = client.get("/fine").unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"ok");
        assert_eq!(server.served(), 2);
        server.shutdown();
    }

    #[test]
    fn overflow_connections_are_shed_with_503_retry_after() {
        use crossbeam::channel;
        use std::io::Read;

        let (started_tx, started_rx) = channel::bounded::<()>(1);
        let (release_tx, release_rx) = channel::bounded::<()>(1);
        let handler: Arc<dyn Handler> = Arc::new(move |_req: &Request| {
            let _ = blocking!(started_tx.send(()));
            let _ = blocking!(release_rx.recv());
            Response::html(Bytes::from_static(b"slow"))
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

        // Occupy the single worker with a handler that blocks until
        // released.
        let busy = std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.get("/slow").unwrap()
        });
        blocking!(started_rx.recv_timeout(Duration::from_secs(5))).expect("handler never started");

        // Fill the single pending-queue slot.
        let queued = TcpStream::connect(addr).unwrap();
        assert!(server.wait_for_pending(1, Duration::from_secs(10)));

        // The next connection must be shed: 503 + Retry-After, closed,
        // without the client even sending a request.
        let shed_stream = TcpStream::connect(addr).unwrap();
        shed_stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = String::new();
        BufReader::new(shed_stream)
            .read_to_string(&mut raw)
            .unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Retry-After: 2\r\n"), "{raw}");
        assert!(raw.contains("Connection: close"), "{raw}");
        assert_eq!(server.shed(), 1);

        // Releasing the worker drains the queue normally.
        blocking!(release_tx.send(())).unwrap();
        let (code, body) = blocking!(busy.join()).unwrap();
        assert_eq!(code, 200);
        assert_eq!(&body[..], b"slow");
        drop(queued);
        assert_eq!(server.served(), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_clean_and_idempotent_on_drop() {
        let server = echo_server();
        server.shutdown();
        // A new server binds and serves after the first is gone, whichever
        // port the kernel hands it: the one just freed is allowed.
        let server2 = Server::bind(
            "127.0.0.1:0",
            Arc::new(|_: &Request| Response::html(Bytes::from_static(b"x"))),
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server2.addr()).unwrap();
        let (code, body) = client.get("/again").unwrap();
        assert_eq!((code, &body[..]), (200, &b"x"[..]));
        drop(client);
        drop(server2); // drop path also shuts down
    }
}
