//! The load generator's own client for the framed query protocol.
//!
//! Kept apart from the program's `Client` on purpose: each frame (length
//! line plus body) goes out in one write on a `TCP_NODELAY` socket, so
//! the latency measured here is the server's, not an artefact of how a
//! client splits its writes. The in-repo `Client` is timed separately as
//! `serve.client_rtt_ms`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pfcim_core::Pfci;

/// Largest response accepted, mirroring the server's own frame cap.
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// One framed connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request frame in a single write and read the response.
    pub fn request(&mut self, body: &str) -> io::Result<String> {
        let mut frame = format!("{}\n", body.len()).into_bytes();
        frame.extend_from_slice(body.as_bytes());
        self.writer.write_all(&frame)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let len: usize = line.trim().parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad length {line:?}"))
        })?;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The raw scalar after `"key":` in a response (keys are unique in it).
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// A numeric field, `0` when absent.
pub fn number(json: &str, key: &str) -> f64 {
    field(json, key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// The text of the response's `results` array, brackets excluded.
pub fn results(json: &str) -> Option<&str> {
    let start = json.find("\"results\":[")? + "\"results\":[".len();
    let mut depth = 0i32;
    for (i, c) in json[start..].char_indices() {
        match c {
            '[' | '{' => depth += 1,
            ']' if depth == 0 => return Some(&json[start..start + i]),
            ']' | '}' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// Render a direct mine's patterns exactly as the server does, for
/// comparison with [`results`].
pub fn render(patterns: &[Pfci]) -> String {
    patterns
        .iter()
        .map(|p| {
            let ids: Vec<String> = p.items.iter().map(|it| it.0.to_string()).collect();
            format!(
                "{{\"items\":[{}],\"fcp\":{:.6},\"pr_f\":{:.6}}}",
                ids.join(","),
                p.fcp,
                p.frequent_probability
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fields_and_results() {
        let resp = "{\"status\":\"ok\",\"carved\":true,\"elapsed_s\":0.000031,\
                    \"results\":[{\"items\":[0,1],\"fcp\":0.5,\"pr_f\":0.6}],\
                    \"stats\":{\"samples_drawn\":12}}";
        assert_eq!(field(resp, "status"), Some("ok"));
        assert_eq!(field(resp, "carved"), Some("true"));
        assert_eq!(number(resp, "elapsed_s"), 0.000031);
        assert_eq!(number(resp, "samples_drawn"), 12.0);
        assert_eq!(
            results(resp),
            Some("{\"items\":[0,1],\"fcp\":0.5,\"pr_f\":0.6}")
        );
        assert_eq!(results("{\"results\":[]}"), Some(""));
    }
}
