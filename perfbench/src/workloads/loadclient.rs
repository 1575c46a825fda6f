//! The `serve-mix` load generator's HTTP/1.1 client: one keep-alive
//! connection that writes each request in a single write and then
//! busy-polls for the response for up to [`SPIN`] before it blocks.
//!
//! Why not `serve::client::Client`: that client writes the head and the
//! body as two segments and blocks in `read` at once, so every request
//! pays the wake-up of a sleeping client thread on top of the server's.
//! On a shared virtual machine the cost of that wake-up moves with the
//! host's load, and it is a large part of a sub-millisecond cache hit's
//! latency. Polling removes the client's
//! wake-up from the measurement; the server's own wake-up, parsing, cache
//! probe and response stay in it. Requests that run longer than `SPIN`
//! (cold solves, batches) block as before, so the poll never competes
//! with the solve workers for long.

use jsonkit::Value;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a request busy-polls for its response before blocking. A
/// cache hit is answered in about 0.3–0.6 ms (2-core x86-64 host).
const SPIN: Duration = Duration::from_millis(1);
/// The blocking read's timeout: a compile may take its whole deadline.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

pub struct LoadClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl LoadClient {
    pub fn connect(addr: SocketAddr) -> io::Result<LoadClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(LoadClient {
            stream,
            carry: Vec::new(),
        })
    }

    /// Sends one request and reads its JSON response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<(u16, Value)> {
        // The previous response may have left the socket polling.
        self.stream.set_nonblocking(false)?;
        self.stream
            .write_all(&encode(method, path, body, headers))?;
        let (status, body) = self.read_response()?;
        let value = jsonkit::parse(&body)
            .map_err(|_| io::Error::new(ErrorKind::InvalidData, "response body is not JSON"))?;
        Ok((status, value))
    }

    /// Appends more bytes of the response to `carry`: polls until
    /// `spin_until`, then blocks.
    fn fill(&mut self, spin_until: Instant) -> io::Result<()> {
        let mut buf = [0u8; 8192];
        let mut spinning = Instant::now() < spin_until;
        self.stream.set_nonblocking(spinning)?;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.carry.extend_from_slice(&buf[..n]);
                    return Ok(());
                }
                // Blocking reads report their timeout as `WouldBlock` too,
                // so only a polling read retries on it.
                Err(e) if e.kind() == ErrorKind::WouldBlock && spinning => {
                    if Instant::now() >= spin_until {
                        spinning = false;
                        self.stream.set_nonblocking(false)?;
                    } else {
                        // Not a bare spin: the server thread this request
                        // woke may be queued on this CPU, behind the poll.
                        std::thread::yield_now();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let spin_until = Instant::now() + SPIN;
        let (status, len, start) = loop {
            if let Some(parsed) = parse_head(&self.carry)? {
                break parsed;
            }
            self.fill(spin_until)?;
        };
        while self.carry.len() < start + len {
            self.fill(spin_until)?;
        }
        let body = String::from_utf8(self.carry[start..start + len].to_vec())
            .map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF-8 body"))?;
        self.carry.drain(..start + len);
        Ok((status, body))
    }
}

/// One request, head and body in one buffer.
fn encode(method: &str, path: &str, body: &str, headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: fermihedral\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// `(status, content length, body start)` once the whole head is in
/// `buf`; `None` while it is not.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let bad = |why: &str| io::Error::new(ErrorKind::InvalidData, why.to_string());
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("missing Content-Length"))?;
    Ok(Some((status, len, end + 4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_is_one_buffer_and_a_head_parses_once_complete() {
        let wire = encode("POST", "/v1/compile", "{}", &[("x-api-key", "k")]);
        assert_eq!(
            wire,
            b"POST /v1/compile HTTP/1.1\r\nHost: fermihedral\r\nContent-Length: 2\r\nx-api-key: k\r\n\r\n{}"
        );
        let response = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        assert_eq!(parse_head(&response[..20]).unwrap(), None);
        assert_eq!(
            parse_head(response).unwrap(),
            Some((200, 7, response.len() - 7))
        );
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
