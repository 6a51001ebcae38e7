//! Blocking newline-JSON TCP client for the serve [`protocol`](crate::protocol).
//!
//! Every harness that talks to the daemon — the soak driver, the
//! benchmark's soak leg, integration tests — used to hand-roll the
//! same ten-line reader/writer pair. This is that pair, once: connect with a
//! generous read timeout (a cold solve on a loaded CI runner can take a
//! while), write one request per line, block for the one-line reply.
//!
//! The client is deliberately dumb: no retries, no reconnects, no
//! pipelining. Requests and responses correspond one-to-one in order,
//! which is exactly the property the determinism-sensitive harnesses
//! rely on.
//!
//! Each request goes out as one `write_all` of the line and its `\n`.
//! Two writes would let Nagle's algorithm hold the `\n` until the peer
//! ACKs the first segment, and a peer that waits for the full line
//! delays that ACK: about 40 ms per round trip on Linux loopback.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{Request, Response};

/// Default read timeout: generous because a cold branch-and-bound solve
/// on a shared CI runner is slow, but finite so a wedged daemon fails
/// the harness instead of hanging it.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One blocking connection to a serve daemon. Every request is framed
/// and sent in a single write (see the module docs for why).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with the [`DEFAULT_READ_TIMEOUT`].
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Some(DEFAULT_READ_TIMEOUT))
    }

    /// Connects with an explicit read timeout (`None` blocks forever).
    pub fn connect_with_timeout(
        addr: SocketAddr,
        read_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(read_timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and blocks for its response.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        let line = serde_json::to_string(req).map_err(io::Error::other)?;
        let reply = self.send_line(&line)?;
        serde_json::from_str(&reply).map_err(io::Error::other)
    }

    /// Sends one raw line (no trailing newline) and returns the raw
    /// reply line. Lets protocol tests inject malformed requests and
    /// assert on exact response bytes.
    pub fn send_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(reply)
    }
}
