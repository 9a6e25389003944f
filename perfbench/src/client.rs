//! A minimal blocking HTTP/1.1 client: one request per connection, read to
//! EOF, exactly like the service's own `Connection: close` framing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout for every benchmark request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
#[derive(Clone, Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends one request and reads the whole response. A response whose head
/// is malformed or whose body length disagrees with `Content-Length` is
/// an error (a garbled answer), as is any I/O failure.
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Result<Reply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("Connection: close\r\n\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire).map_err(|e| e.to_string())?;
    let mut raw = Vec::with_capacity(16 * 1024);
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    parse_response(&raw)
}

/// Parses a complete `Connection: close` response.
pub fn parse_response(raw: &[u8]) -> Result<Reply, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response has no Content-Length")?;
    let body = &raw[split + 4..];
    if body.len() != length {
        return Err(format!(
            "body is {} bytes, Content-Length says {length}",
            body.len()
        ));
    }
    Ok(Reply {
        status,
        body: body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_response() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, b"ok".as_slice()));
    }

    #[test]
    fn rejects_truncated_and_headless_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }
}
