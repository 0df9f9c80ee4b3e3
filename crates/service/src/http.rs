//! Minimal HTTP/1.1 framing — just enough wire protocol for `frostlabd`.
//!
//! The workspace builds offline with no async runtime or HTTP crate, so
//! the daemon carries its own ~200-line request reader and response
//! writer, generic over `Read`/`Write`: the server passes blocking
//! `TcpStream`s, the tests pass byte slices. The subset is deliberate:
//! one request per connection (`Connection: close`), `Content-Length`
//! bodies only (no chunked transfer), capped head and body sizes so a
//! hostile or broken client can never balloon memory, and socket
//! read/write timeouts set by the server so a stalled peer can never
//! wedge a connection worker.
//!
//! Nothing here knows about routes or JSON — [`crate::server`] layers the
//! API on top.

use std::io::{Read, Write};

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Why a request could not be read off the wire.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing.
    BadRequest(String),
    /// Head or body exceeded its configured cap.
    TooLarge {
        /// Which part overflowed (`"request head"` / `"request body"`).
        what: &'static str,
        /// The cap that was exceeded, bytes.
        limit: usize,
    },
    /// Socket-level failure (includes read/write timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds the {limit}-byte cap")
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// A parsed request: method, origin-form target, lower-cased headers, raw
/// body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (upper-case as sent).
    pub method: String,
    /// Request target as sent, e.g. `/v1/jobs/abc?wait_s=5`.
    pub target: String,
    /// Header `(name, value)` pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// Raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, looked up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target split into path and query string (query without `?`).
    pub fn path_and_query(&self) -> (&str, Option<&str>) {
        match self.target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (self.target.as_str(), None),
        }
    }

    /// Value of a query parameter, if present (`k=v` pairs, `&`-joined;
    /// no percent-decoding — the API uses plain token values only).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let (_, q) = self.path_and_query();
        q?.split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Read one request off `stream`, enforcing the head cap and `max_body`.
///
/// Returns `Ok(None)` when the peer closed the connection before sending
/// a single byte (a bare keep-alive probe, not an error).
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Option<Request>, HttpError> {
    // Accumulate until the blank line that ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge {
                what: "request head",
                limit: MAX_HEAD_BYTES,
            });
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("eof inside request head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("non-utf8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body: Content-Length only; chunked transfer is out of scope.
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            what: "request body",
            limit: max_body,
        });
    }

    // The head scan may have over-read into the body.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest("eof inside request body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize: status, extra headers, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers beyond the standard set, e.g. `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status and body.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Add an extra header (builder-style).
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.extra_headers.push((name.to_string(), value));
        self
    }

    /// Canonical reason phrase for the status codes the API uses.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize head + body to the wire. One response per connection:
    /// always `Connection: close`.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (k, v) in &self.extra_headers {
            head.push_str(&format!("{k}: {v}\r\n"));
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

    /// Parse raw bytes as if a peer sent them and then closed its half.
    fn parse(raw: &[u8], max_body: usize) -> Result<Option<Request>, HttpError> {
        read_request(&mut &raw[..], max_body)
    }

    #[test]
    fn parses_post_with_body_and_headers() {
        let raw = b"POST /v1/scenarios HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\
                    Content-Type: application/json\r\n\r\nhello";
        let req = parse(raw, 1024).expect("parses").expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/scenarios");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("CONTENT-TYPE"), Some("application/json"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body_and_splits_query() {
        let raw = b"GET /v1/jobs/ab12?wait_s=5&x=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse(raw, 1024).expect("parses").expect("present");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        let (path, query) = req.path_and_query();
        assert_eq!(path, "/v1/jobs/ab12");
        assert_eq!(query, Some("wait_s=5&x=1"));
        assert_eq!(req.query_param("wait_s"), Some("5"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn rejects_oversized_body_via_declared_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        match parse(raw, 10) {
            Err(HttpError::TooLarge { what, limit }) => {
                assert_eq!(what, "request body");
                assert_eq!(limit, 10);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_request_line_and_bad_version() {
        assert!(matches!(
            parse(b"BROKEN\r\n\r\n", 10),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n", 10),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET noslash HTTP/1.1\r\n\r\n", 10),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn empty_connection_reads_as_none() {
        assert!(parse(b"", 10).expect("clean close").is_none());
    }

    #[test]
    fn response_serializes_with_extra_headers() {
        let mut wire = Vec::new();
        Response::new(429, "application/json", "{}")
            .with_header("retry-after", "3".to_string())
            .write_to(&mut wire)
            .expect("write");
        let text = String::from_utf8(wire).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 3\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// `|`-separated request fragments the fuzzer splices.
    const TOKENS: &[u8] = b"GET |POST |/v1/scenarios| HTTP/1.1| HTTP/1.0|\r\n|\r\n\r\n|\
        Content-Length: |Transfer-Encoding: chunked|18446744073709551616|7|-1|:| |{}|\xff\xfe";

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, raw and after spliced request fragments, parse
        /// to a request or a typed error — never a panic — and an accepted
        /// body never exceeds the cap.
        #[test]
        fn arbitrary_bytes_never_panic_the_reader(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            picks in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..24),
        ) {
            let tokens: Vec<&[u8]> = TOKENS.split(|&b| b == b'|').collect();
            let mut spliced: Vec<u8> = picks.iter().flat_map(|&i| tokens[i % tokens.len()]).copied().collect();
            spliced.extend_from_slice(&raw);
            for input in [&raw[..], &spliced[..]] {
                if let Ok(Some(req)) = parse(input, 16) {
                    proptest::prop_assert!(req.body.len() <= 16);
                }
            }
        }
    }
}
