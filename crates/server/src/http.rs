//! A hand-rolled HTTP/1.1 subset: enough for a loopback JSON service.
//!
//! Supported: request line + headers + `Content-Length` bodies, keep-alive
//! (HTTP/1.1 default, `Connection: close` honored), and hard limits on
//! every dimension an untrusted peer controls — request-line length,
//! header count/size, body size, and (via [`TimedStream`]) read *progress*:
//! a per-read timeout plus a wall-clock request deadline that a peer
//! trickling one byte at a time cannot reset. Not supported (rejected
//! cleanly): chunked transfer encoding, upgrades, and HTTP/0.9/2.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum request-line and per-header-line length in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Maximum request body size in bytes (scenario files are small).
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path with any `?query` suffix stripped.
    pub path: String,
    /// The raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of query parameter `name` (`a=b&c=d` form; no
    /// percent-decoding — the service's parameters are plain tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    pub fn body_str(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body).map_err(|_| ParseError::Malformed("body is not UTF-8"))
    }
}

/// Why a request could not be parsed. Each maps to a status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Clean end of stream before any request byte: the peer closed an idle
    /// keep-alive connection. Not an error.
    Eof,
    /// Malformed syntax (400).
    Malformed(&'static str),
    /// A limit was exceeded (431 for head, 413 for body).
    TooLarge(&'static str),
    /// The peer stopped making progress mid-request — a per-read stall or
    /// the request's wall-clock deadline expired (408, then close).
    Timeout,
    /// An I/O error mid-request.
    Io(String),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // Both kinds surface from a socket read timeout depending on
            // platform; either way the peer failed to make progress.
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ParseError::Timeout,
            _ => ParseError::Io(e.to_string()),
        }
    }
}

/// A [`Read`] wrapper over a [`TcpStream`] that enforces two limits a
/// trickling peer cannot reset:
///
/// * a **per-read progress timeout** — every `read` must deliver at least
///   one byte within `per_read`, and
/// * an optional **wall-clock deadline** — once armed, the sum of all
///   reads (headers *and* body) must finish before `deadline`, no matter
///   how diligently the peer dribbles single bytes to keep each
///   individual read alive.
///
/// Before each read the socket timeout is set to
/// `min(per_read, deadline - now)`; an expired deadline turns the read
/// into `ErrorKind::TimedOut` immediately. Wrap it in a `BufReader` and
/// re-arm between requests via `get_mut()` — the buffer (and any
/// pipelined bytes in it) survives across requests.
pub struct TimedStream {
    stream: TcpStream,
    per_read: Duration,
    deadline: Option<Instant>,
}

impl TimedStream {
    pub fn new(stream: TcpStream, per_read: Duration) -> Self {
        TimedStream {
            stream,
            per_read,
            deadline: None,
        }
    }

    /// Re-arm the limits for the next phase: the idle wait between
    /// requests (short poll, no deadline) or a request in flight (full
    /// per-read timeout plus the wall-clock deadline).
    pub fn arm(&mut self, per_read: Duration, deadline: Option<Instant>) {
        self.per_read = per_read;
        self.deadline = deadline;
    }
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut wait = self.per_read;
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ));
            }
            wait = wait.min(remaining);
        }
        // `set_read_timeout` rejects a zero duration; the clamp keeps the
        // final sliver of a deadline from erroring out early.
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        self.stream.read(buf)
    }
}

/// Read one line terminated by `\n`, rejecting lines longer than
/// [`MAX_LINE`]; strips the trailing `\r\n` / `\n`.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(ParseError::Malformed("unexpected end of stream"));
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if line.len() + take > MAX_LINE {
            return Err(ParseError::TooLarge("line too long"));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if nl.is_some() {
            break;
        }
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| ParseError::Malformed("non-UTF-8 header"))
}

/// Parse one request from the stream. `Err(ParseError::Eof)` signals a
/// cleanly closed idle connection.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let request_line = read_line(reader)?.ok_or(ParseError::Eof)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_owned();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("bad method"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed("target must be origin-form"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or(ParseError::Malformed("truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(ParseError::Malformed("chunked bodies are not supported"));
    }
    let content_length = match find("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed("bad content-length"))?,
    };
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => version == "HTTP/1.1",
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// A response ready to serialize.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: &'static str,
    /// Extra headers beyond the fixed head (`X-Trace-Id` rides here).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response::with_content_type(status, body.into_bytes(), "application/json")
    }

    /// A response with an explicit content type (Prometheus text).
    pub fn with_content_type(status: u16, body: Vec<u8>, content_type: &'static str) -> Self {
        Response {
            status,
            body,
            content_type,
            headers: Vec::new(),
        }
    }

    /// A JSON error payload `{"error": "..."}`, stamped with the emitting
    /// thread's trace ID (when a request context is installed) so a
    /// client can quote the failure back at `GET /trace`.
    pub fn error(status: u16, message: &str) -> Self {
        use crate::json::Json;
        let mut fields = vec![("error".to_owned(), Json::from(message))];
        if let Some(id) = routes_obs::current_trace_id() {
            fields.push(("trace_id".to_owned(), Json::from(id.as_str())));
        }
        Response::json(status, Json::Object(fields).encode())
    }

    /// Set (or replace) an extra response header.
    pub fn set_header(&mut self, name: &'static str, value: String) {
        match self.headers.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v = value,
            None => self.headers.push((name, value)),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize the response; `keep_alive` picks the `Connection` header.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_bytes(bytes: &[u8]) -> Result<Request, ParseError> {
        parse_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse_bytes(b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn strips_query_and_honours_connection_close() {
        let req =
            parse_bytes(b"GET /metrics?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "verbose=1");
        assert!(!req.keep_alive);
    }

    #[test]
    fn query_params_parse_first_match() {
        let req =
            parse_bytes(b"GET /trace?format=prometheus&trace_id=ab.c-1&flag HTTP/1.1\r\n\r\n")
                .unwrap();
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("trace_id"), Some("ab.c-1"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        let bare = parse_bytes(b"GET /trace HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.query, "");
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for (bytes, what) in [
            (&b"GET\r\n\r\n"[..], "no target"),
            (b"GET /x\r\n\r\n", "no version"),
            (b"GET /x HTTP/2.0\r\n\r\n", "bad version"),
            (b"get /x HTTP/1.1\r\n\r\n", "lowercase method"),
            (b"GET x HTTP/1.1\r\n\r\n", "non-origin-form target"),
            (b"GET /x HTTP/1.1 junk\r\n\r\n", "extra tokens"),
            (
                b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
                "header without colon",
            ),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: two\r\n\r\n",
                "bad length",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "chunked",
            ),
        ] {
            assert!(
                matches!(parse_bytes(bytes), Err(ParseError::Malformed(_))),
                "{what} should be malformed"
            );
        }
    }

    #[test]
    fn truncated_body_is_an_error_not_a_hang() {
        let err = parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, ParseError::Io(_)));
    }

    #[test]
    fn oversized_inputs_are_rejected() {
        // Oversized declared body.
        let big = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse_bytes(big.as_bytes()),
            Err(ParseError::TooLarge("body too large"))
        ));
        // Oversized request line.
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert!(matches!(
            parse_bytes(long_line.as_bytes()),
            Err(ParseError::TooLarge("line too long"))
        ));
        // Too many headers.
        let mut many = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(
            parse_bytes(many.as_bytes()),
            Err(ParseError::TooLarge("too many headers"))
        ));
    }

    #[test]
    fn keep_alive_parses_back_to_back_requests() {
        let bytes: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut reader = BufReader::new(bytes);
        let first = parse_request(&mut reader).unwrap();
        assert_eq!(first.path, "/a");
        let second = parse_request(&mut reader).unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        // Third read: clean EOF.
        assert_eq!(parse_request(&mut reader).unwrap_err(), ParseError::Eof);
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let req = parse_bytes(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn read_timeouts_map_to_parse_timeout_not_io() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let e = std::io::Error::new(kind, "stalled");
            assert_eq!(ParseError::from(e), ParseError::Timeout);
        }
        let e = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "gone");
        assert!(matches!(ParseError::from(e), ParseError::Io(_)));
    }

    #[test]
    fn timed_stream_enforces_deadline_and_per_read_progress() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut timed = TimedStream::new(server, Duration::from_secs(30));

        // An expired deadline fails immediately — no 30 s per-read grace.
        timed.arm(Duration::from_secs(30), Some(Instant::now()));
        let err = timed.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);

        // A silent peer trips the per-read progress timeout.
        timed.arm(Duration::from_millis(10), None);
        let start = Instant::now();
        let err = timed.read(&mut [0u8; 8]).unwrap_err();
        assert!(matches!(
            err.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ));
        assert!(start.elapsed() < Duration::from_secs(5));

        // Bytes already in flight are still delivered under a live deadline.
        use std::io::Write as _;
        let mut client = client;
        client.write_all(b"hi").unwrap();
        timed.arm(
            Duration::from_secs(30),
            Some(Instant::now() + Duration::from_secs(5)),
        );
        let mut buf = [0u8; 2];
        timed.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn overload_reason_strings() {
        assert_eq!(Response::json(408, "{}".into()).reason(), "Request Timeout");
        assert_eq!(
            Response::json(429, "{}".into()).reason(),
            "Too Many Requests"
        );
    }

    #[test]
    fn response_serializes_with_length() {
        let mut out = Vec::new();
        Response::json(200, "{}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_are_emitted_and_replaceable() {
        let mut resp = Response::json(200, "{}".into());
        resp.set_header("x-trace-id", "abc".into());
        resp.set_header("x-trace-id", "def".into());
        let mut out = Vec::new();
        resp.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-trace-id: def\r\n"));
        assert!(!text.contains("abc"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
