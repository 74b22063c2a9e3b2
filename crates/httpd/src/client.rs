//! A blocking keep-alive HTTP client, for tests, examples and the
//! `throughput` experiment's closed loop. It reconnects once when the
//! server has closed an idle connection.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::Bytes;

use crate::http::{read_response_full, ParseError};

/// A blocking keep-alive HTTP client.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
}

impl HttpClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let read_half = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            addr,
        })
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Issue a GET; returns (status, body). Reconnects transparently if
    /// the server closed the idle connection.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Bytes)> {
        let (code, body, _) = match self.get_conditional(path, None) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                *self = HttpClient::connect(self.addr)?;
                self.get_conditional(path, None)
            }
            r => r,
        }?;
        Ok((code, body))
    }

    /// Conditional GET: sends `If-None-Match` when a validator is known.
    /// Returns `(status, body, etag)` — status 304 with an empty body when
    /// the cached representation is still fresh.
    pub fn get_conditional(
        &mut self,
        path: &str,
        etag: Option<&str>,
    ) -> std::io::Result<(u16, Bytes, Option<String>)> {
        write!(
            self.writer,
            "GET {path} HTTP/1.1\r\nHost: nagano\r\nConnection: keep-alive\r\n"
        )?;
        if let Some(tag) = etag {
            write!(self.writer, "If-None-Match: {tag}\r\n")?;
        }
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        read_response_full(&mut self.reader).map_err(|e| match e {
            ParseError::Io(e) => e,
            ParseError::ConnectionClosed => std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ),
            ParseError::Malformed(m) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, m.text())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::http::{Request, Response};
    use crate::server::{Handler, Server, ServerConfig};

    #[test]
    fn get_reconnects_after_the_server_closes_an_idle_connection() {
        let handler: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::html(Bytes::from_static(b"<p>up</p>")));
        let server = Server::bind(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                read_timeout: Duration::from_millis(100),
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let first = client.writer.get_ref().local_addr().unwrap();
        assert_eq!(client.get("/a").unwrap().0, 200);

        // Silent past the idle close: a peek reads 0 bytes once the
        // server's FIN is in, and the next `get` finds the connection closed.
        assert_eq!(client.reader.get_ref().peek(&mut [0]).unwrap(), 0);
        assert_eq!(client.get("/b").unwrap().0, 200);
        let second = client.writer.get_ref().local_addr().unwrap();
        assert_ne!(first, second, "the second get rode a new connection");
        assert_eq!(server.served(), 2);
        server.shutdown();
    }
}
