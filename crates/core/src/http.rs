//! The std-only HTTP/1.1 front shared by the live-telemetry endpoint
//! ([`crate::telemetry::Telemetry::serve`]) and `pfcim serve`, plus the
//! minimal client both are scraped with ([`http_get`]).
//!
//! One request per connection: the head is read with a 2 s timeout and
//! an 8 KiB cap, any body is ignored, anything but `GET` is a 405, and
//! the caller's route closure answers the path. A `/metrics` route
//! answers through [`prometheus`], which lints its own exposition text
//! and turns a malformed body into a 500.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::metrics::lint_prometheus;

/// A response: status code, content type and body.
pub(crate) type Reply = (u16, &'static str, String);

/// Read and write timeout of a served connection.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The request head is read until its blank line or until it holds
/// this many bytes, whichever comes first.
const HEAD_CAP: usize = 8192;

/// Bytes read per `read` call.
const CHUNK: usize = 512;

/// Answer the one request on `stream`: `GET` paths go to `route`.
pub(crate) fn serve_connection(
    stream: &mut TcpStream,
    route: impl FnOnce(&str) -> Reply,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let (status, content_type, body) = match get_path(&read_head(stream)) {
        Some(path) => route(&path),
        None => (405, "text/plain", "method not allowed\n".to_owned()),
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The route for an unknown path.
pub(crate) fn not_found() -> Reply {
    (404, "text/plain", "not found\n".to_owned())
}

/// A `/metrics` body, linted first: serving malformed exposition text
/// is a bug, and a 500 makes it loud.
pub(crate) fn prometheus(text: String) -> Reply {
    match lint_prometheus(&text) {
        Ok(()) => (200, "text/plain; version=0.0.4", text),
        Err(e) => (500, "text/plain", format!("exporter lint failure: {e}\n")),
    }
}

/// Read a request head: up to its blank line, the end of the stream, a
/// read error, or [`HEAD_CAP`] bytes (at most one chunk past it).
fn read_head(stream: &mut impl Read) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CHUNK);
    let mut chunk = [0u8; CHUNK];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < HEAD_CAP {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    buf
}

/// The path of a `GET` request head (empty when the request line has
/// none), or `None` for any other method. Non-UTF-8 bytes read as
/// U+FFFD.
fn get_path(head: &[u8]) -> Option<String> {
    let head = String::from_utf8_lossy(head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    (parts.next() == Some("GET")).then(|| parts.next().unwrap_or("").to_owned())
}

/// Minimal HTTP GET against a telemetry endpoint (or anything speaking
/// enough HTTP/1.1): returns `(status, body)`. Used by `pfcim top`, the
/// CI smoke test and the integration tests — std-only, one connection,
/// no keep-alive.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Request-head fragments: the tokens of a real head, bare CRs and
    /// LFs, whitespace, and bytes that are not UTF-8.
    const TOKENS: &[&[u8]] = &[
        b"GET",
        b"POST",
        b"get",
        b" ",
        b"\t",
        b"\r",
        b"\n",
        b"\r\n",
        b"\r\n\r\n",
        b"/",
        b"/metrics",
        b"HTTP/1.1",
        b"Host:",
        b":",
        b"\xff",
        b"\xc3",
        b"\xe2\x82",
        b"\0",
        "é".as_bytes(),
    ];

    fn soup(picks: &[u8]) -> Vec<u8> {
        picks
            .iter()
            .flat_map(|&i| TOKENS[usize::from(i) % TOKENS.len()])
            .copied()
            .collect()
    }

    /// A reader that hands out at most `step` bytes per call, the way a
    /// socket splits a head across reads.
    struct Trickle<'a> {
        rest: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.rest.len().min(self.step).min(out.len());
            out[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn get_path_reads_the_request_line() {
        let head = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(get_path(head).as_deref(), Some("/metrics"));
        assert_eq!(get_path(b"GET").as_deref(), Some(""));
        assert_eq!(get_path(b"POST /metrics HTTP/1.1\r\n\r\n"), None);
        assert_eq!(get_path(b""), None);
        assert_eq!(get_path(b"GET /\xff").as_deref(), Some("/\u{fffd}"));
    }

    #[test]
    fn read_head_stops_at_the_blank_line_or_the_cap() {
        let head = b"GET / HTTP/1.1\r\n\r\nbody that is never read";
        let mut stream = Trickle {
            rest: head,
            step: 1,
        };
        assert!(read_head(&mut stream).ends_with(b"\r\n\r\n"));
        let endless = vec![b'a'; 4 * HEAD_CAP];
        let mut stream = Trickle {
            rest: &endless,
            step: CHUNK,
        };
        assert_eq!(read_head(&mut stream).len(), HEAD_CAP);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Token soup of any length, with or without CRLFs, split
        /// across reads of any size: the head reader stops within one
        /// chunk of its cap, and the parser answers a path of at most
        /// three bytes per head byte (or a 405), never a panic.
        #[test]
        fn head_parser_never_panics_and_stays_bounded(
            picks in proptest::collection::vec(any::<u8>(), 0..64),
            repeat in 1usize..400,
            step in 1usize..600,
        ) {
            let bytes = soup(&picks).repeat(repeat);
            let mut stream = Trickle { rest: &bytes, step };
            let head = read_head(&mut stream);
            prop_assert!(head.len() <= HEAD_CAP + CHUNK);
            prop_assert!(bytes.starts_with(&head));
            if let Some(path) = get_path(&head) {
                // U+FFFD is three bytes where a lone invalid byte was one.
                prop_assert!(path.len() <= 3 * head.len());
            }
        }
    }
}
