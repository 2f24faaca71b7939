//! A minimal keep-alive HTTP/1.1 client on std sockets.
//!
//! The load generator uses this instead of `ccp_server::HttpClient`, so a
//! change to the server crate cannot change the client side of the
//! measurement.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
}

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 << 20;

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            addr,
            writer: stream,
            reader,
            request: Vec::with_capacity(512),
        })
    }

    /// Sends one request in a single write and reads the whole response.
    /// Returns the status and the body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.writer.write_all(&self.request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("headers cut short".to_string()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                }
            }
        }
        if length > MAX_BODY {
            return Err(bad(format!("response body of {length} bytes")));
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One request on a fresh connection.
pub fn fetch(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
    let (status, body) = Conn::connect(addr)?.request(method, path, body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// The raw text of field `key` in a flat JSON object: the number, or the
/// string without its quotes. Enough for the server's response lines,
/// whose keys are unique within a line and whose strings hold no quotes.
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Sum of every sample of a Prometheus metric family, whatever its labels.
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_a_response_line() {
        let line = r#"{"workload":"q1","class":"polluting","mask":"0x3","rows":60000,"result":59888,"breakdown":{"queue_us":7,"bind_us":47,"exec_us":258},"ticket":0}"#;
        assert_eq!(field(line, "class"), Some("polluting"));
        assert_eq!(field(line, "result"), Some("59888"));
        assert_eq!(field(line, "exec_us"), Some("258"));
        assert_eq!(field(line, "ticket"), Some("0"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn prometheus_sums_over_labels_only_for_the_named_family() {
        let text = "# TYPE a_total counter\na_total{x=\"1\"} 2\na_total{x=\"2\"} 3\na_total_extra 100\nb 1\n";
        assert_eq!(prom_sum(text, "a_total"), 5.0);
        assert_eq!(prom_sum(text, "b"), 1.0);
        assert_eq!(prom_sum(text, "c"), 0.0);
    }
}
