//! Minimal HTTP/1.1 wire handling shared by the origin, the proxy, and
//! the client: request-line + header parsing and response serialization.
//! Bodies use `Content-Length` exclusively (no chunked encoding), which is
//! all the 1999-era exchange needs.

use cpms_model::UrlPath;
use cpms_obs::TraceContext;
use std::io::{self, BufRead, Write};

/// The request header carrying a distributed-trace context on the
/// proxy→origin relay path (see [`TraceContext::to_header`]).
pub const TRACE_HEADER: &str = "x-cpms-trace";

/// Upper bound on a request or response head.
pub(crate) const HEAD_CAP: usize = 16 * 1024;

/// A parsed HTTP request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method (`GET`, `HEAD`, …). The proxy relays only a `GET`
    /// without a body.
    pub method: String,
    /// The request target, normalized.
    pub path: UrlPath,
    /// `true` for HTTP/1.0 (connection closes after the response unless
    /// `Connection: keep-alive` was sent — mirrored from the paper's
    /// distributor logic).
    pub http10: bool,
    /// Whether the connection should stay open after this exchange.
    pub keep_alive: bool,
    /// The head declares a body: a `Content-Length` other than 0, or any
    /// `Transfer-Encoding`. Its bytes follow the head on the connection.
    pub has_body: bool,
    /// The distributed-trace context carried by an [`TRACE_HEADER`]
    /// header, if a valid one was present. A malformed value degrades
    /// to `None` — bad tracing must never fail a request.
    pub trace: Option<TraceContext>,
}

/// A parsed HTTP response head plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Errors from reading a request.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed the connection before a full request arrived.
    ConnectionClosed,
    /// Malformed request line or headers.
    Malformed(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[doc(hidden)]
impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads one request head from a buffered stream.
///
/// # Errors
///
/// [`ParseError::ConnectionClosed`] on clean EOF before any bytes,
/// [`ParseError::Malformed`] on bad syntax, [`ParseError::Io`] otherwise.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ParseError::ConnectionClosed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing version"))?;
    let http10 = match version {
        "HTTP/1.0" => true,
        "HTTP/1.1" => false,
        _ => return Err(ParseError::Malformed("unsupported version")),
    };
    let path: UrlPath = target
        .parse()
        .map_err(|_| ParseError::Malformed("bad path"))?;

    // Headers: we care about Connection, a declared body and the trace
    // context.
    let mut keep_alive = !http10;
    let mut has_body = false;
    let mut trace = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(ParseError::Malformed("eof in headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("content-length") {
                has_body |= value.trim() != "0";
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                has_body = true;
            } else if name.eq_ignore_ascii_case(TRACE_HEADER) {
                trace = TraceContext::from_header(value);
            }
        }
    }
    Ok(Request {
        method,
        path,
        http10,
        keep_alive,
        has_body,
        trace,
    })
}

/// Serializes a request head (used by the client and the proxy's backend
/// side; always HTTP/1.1 keep-alive on the pre-forked connections).
///
/// # Errors
///
/// I/O errors from the writer.
pub fn write_request<W: Write>(writer: &mut W, path: &UrlPath) -> io::Result<()> {
    write_request_traced(writer, path, None)
}

/// [`write_request`] plus an optional [`TRACE_HEADER`] carrying the
/// given trace context to the backend.
///
/// # Errors
///
/// I/O errors from the writer.
pub fn write_request_traced<W: Write>(
    writer: &mut W,
    path: &UrlPath,
    trace: Option<&TraceContext>,
) -> io::Result<()> {
    writer.write_all(request_head(path, trace).as_bytes())?;
    writer.flush()
}

/// Serializes a backend request head (always HTTP/1.1 keep-alive on the
/// pre-forked connections), optionally carrying a [`TRACE_HEADER`]: the
/// bytes [`request_head_into`] appends, as one string.
///
/// The head is assembled whole: `write!` straight into an unbuffered
/// socket issues one syscall (and, with nodelay, one TCP segment) per
/// format fragment, which the trace header would multiply.
#[must_use]
pub fn request_head(path: &UrlPath, trace: Option<&TraceContext>) -> String {
    let mut head = Vec::with_capacity(128);
    request_head_into(&mut head, path, trace);
    String::from_utf8(head).expect("a path and ASCII")
}

/// Appends a backend request head to `out` — the proxy's relay writes it
/// straight into the connection's outbound buffer, with no intermediate
/// string.
pub fn request_head_into<B>(out: &mut B, path: &UrlPath, trace: Option<&TraceContext>)
where
    B: for<'a> Extend<&'a u8>,
{
    out.extend(b"GET ");
    out.extend(path.as_str().as_bytes());
    out.extend(b" HTTP/1.1\r\nHost: cpms\r\nConnection: keep-alive\r\n");
    if let Some(ctx) = trace {
        out.extend(TRACE_HEADER.as_bytes());
        out.extend(b": ");
        out.extend(&ctx.header_bytes());
        out.extend(b"\r\n");
    }
    out.extend(b"\r\n");
}

/// Serializes a response head for the given status, body length, and
/// connection disposition: the bytes [`response_head_into`] appends, as
/// one string (shared by [`write_response`] and the proxy's shedding
/// path).
#[must_use]
pub fn response_head(status: u16, body_len: usize, keep_alive: bool) -> String {
    let mut head = Vec::with_capacity(96);
    response_head_into(&mut head, status, body_len, keep_alive);
    String::from_utf8(head).expect("heads are ASCII")
}

/// Appends a response head to `out` — the proxy's non-blocking write path
/// enqueues heads straight into a connection's write buffer.
pub fn response_head_into<B>(out: &mut B, status: u16, body_len: usize, keep_alive: bool)
where
    B: for<'a> Extend<&'a u8>,
{
    let reason: &[u8] = match status {
        200 => b"OK",
        400 => b"Bad Request",
        404 => b"Not Found",
        501 => b"Not Implemented",
        502 => b"Bad Gateway",
        503 => b"Service Unavailable",
        _ => b"Error",
    };
    out.extend(b"HTTP/1.1 ");
    decimal_into(out, status.into());
    out.extend(b" ");
    out.extend(reason);
    out.extend(b"\r\nContent-Length: ");
    decimal_into(out, body_len);
    out.extend(if keep_alive {
        &b"\r\nConnection: keep-alive\r\n\r\n"[..]
    } else {
        &b"\r\nConnection: close\r\n\r\n"[..]
    });
}

/// Appends `n` in decimal.
fn decimal_into<B>(out: &mut B, mut n: usize)
where
    B: for<'a> Extend<&'a u8>,
{
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(&digits[at..]);
}

/// Writes a response with the given status and body.
///
/// # Errors
///
/// I/O errors from the writer.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    writer.write_all(response_head(status, body.len(), keep_alive).as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

/// Scans an accumulation buffer for a complete HTTP head and returns the
/// index just past the blank-line terminator, or `None` while more bytes
/// are still needed. Accepts both `\r\n\r\n` and the bare-`\n` form the
/// line-based parsers already tolerate. This is the incremental entry
/// point for non-blocking reads: call it after every chunk and hand the
/// complete prefix to [`parse_request_head`] / [`parse_response_head`].
#[must_use]
pub fn head_complete(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        // A newline followed by an (optionally CR-prefixed) newline ends
        // the head.
        if buf.get(i + 1) == Some(&b'\n') {
            return Some(i + 2);
        }
        if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
            return Some(i + 3);
        }
        i += 1;
    }
    None
}

/// Parses one complete request head from a slice (as delimited by
/// [`head_complete`]).
///
/// # Errors
///
/// [`ParseError`] variants as for [`read_request`].
pub fn parse_request_head(head: &[u8]) -> Result<Request, ParseError> {
    let mut slice = head;
    read_request(&mut slice)
}

/// A parsed response head for the streaming relay path: enough to forward
/// the head verbatim, count body bytes through, and know whether the
/// connection may carry another exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// Declared `Content-Length`.
    pub content_length: usize,
    /// Bytes the head occupies in the scanned buffer (index of the first
    /// body byte).
    pub head_len: usize,
    /// Whether the back end keeps the connection open after this
    /// response: false for `Connection: close`, and for HTTP/1.0 without
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Incrementally parses a response head from an accumulation buffer:
/// `Ok(None)` while incomplete, `Ok(Some(head))` once the terminator and
/// a valid status + `Content-Length` are in, an error on bad syntax.
///
/// # Errors
///
/// [`ParseError::Malformed`] on bad status line, version, or
/// `Content-Length`.
pub fn parse_response_head(buf: &[u8]) -> Result<Option<ResponseHead>, ParseError> {
    let Some(head_len) = head_complete(buf) else {
        return Ok(None);
    };
    let head = &buf[..head_len];
    let text = std::str::from_utf8(head).map_err(|_| ParseError::Malformed("non-ascii head"))?;
    let mut lines = text.split('\n');
    let status_line = lines.next().ok_or(ParseError::Malformed("empty head"))?;
    let mut parts = status_line.split_whitespace();
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing version"))?;
    let status: u16 = parts
        .next()
        .ok_or(ParseError::Malformed("missing status"))?
        .parse()
        .map_err(|_| ParseError::Malformed("bad status"))?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| ParseError::Malformed("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    let content_length = content_length.ok_or(ParseError::Malformed("missing content-length"))?;
    Ok(Some(ResponseHead {
        status,
        content_length,
        head_len,
        keep_alive,
    }))
}

/// Reads one response (head + `Content-Length` body) from a buffered
/// stream.
///
/// The announced length is reserved in one allocation when it can be.
/// When it cannot, the body grows as bytes arrive, so a peer announcing
/// more than it sends costs an error, not the process.
///
/// # Errors
///
/// [`ParseError`] variants as for [`read_request`]; a body shorter than
/// its `Content-Length` is [`ParseError::Io`] with
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, ParseError> {
    // Collect the head line by line; a blank line may end it, and
    // [`parse_response_head`] decides.
    let mut head = Vec::new();
    let parsed = loop {
        let start = head.len();
        let read =
            io::Read::take(&mut *reader, (HEAD_CAP - start) as u64).read_until(b'\n', &mut head)?;
        if read == 0 {
            return Err(if start == 0 {
                ParseError::ConnectionClosed
            } else {
                ParseError::Malformed("eof in headers")
            });
        }
        if matches!(&head[start..], b"\n" | b"\r\n") {
            if let Some(parsed) = parse_response_head(&head)? {
                break parsed;
            }
        }
        if head.len() >= HEAD_CAP {
            return Err(ParseError::Malformed("head too large"));
        }
    };
    let (status, len) = (parsed.status, parsed.content_length);
    let mut body = Vec::new();
    // Failing to reserve is not an error yet: the bytes decide.
    let _ = body.try_reserve_exact(len);
    io::Read::read_to_end(&mut io::Read::take(reader, len as u64), &mut body)?;
    if body.len() < len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parse_simple_get() {
        let raw = b"GET /a/b.html HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path.as_str(), "/a/b.html");
        assert!(!req.http10);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parse_http10_close_semantics() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert!(req.http10);
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");

        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert!(req.keep_alive);

        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn a_declared_body_is_noted() {
        for (header, has_body) in [
            ("", false),
            ("Content-Length: 0\r\n", false),
            ("content-length: 5\r\n", true),
            ("Transfer-Encoding: chunked\r\n", true),
        ] {
            let raw = format!("POST /a HTTP/1.1\r\n{header}\r\n");
            let req = read_request(&mut raw.as_bytes()).unwrap();
            assert_eq!(req.has_body, has_body, "{header:?}");
        }
    }

    #[test]
    fn parse_strips_query() {
        let raw = b"GET /cgi-bin/q.cgi?x=1&y=2 HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.path.as_str(), "/cgi-bin/q.cgi");
    }

    #[test]
    fn rejects_garbage() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x HTTP/2\r\n\r\n"[..],
            &b"GET relative HTTP/1.1\r\n\r\n"[..],
        ] {
            assert!(matches!(
                read_request(&mut BufReader::new(raw)),
                Err(ParseError::Malformed(_))
            ));
        }
        assert!(matches!(
            read_request(&mut BufReader::new(&b""[..])),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn response_roundtrip() {
        for body in [b"hello world".to_vec(), vec![7; 100_000]] {
            let mut wire = Vec::new();
            write_response(&mut wire, 200, &body, true).unwrap();
            let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, body);
            // Reserved once at the announced length, never grown.
            assert_eq!(resp.body.capacity(), body.len());
        }
    }

    #[test]
    fn response_announcing_more_than_it_sends_is_an_error() {
        let hostile = b"HTTP/1.1 200 OK\r\nContent-Length: 4611686018427387904\r\n\r\nxx";
        let err = read_response(&mut BufReader::new(&hostile[..])).unwrap_err();
        assert!(
            matches!(&err, ParseError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc";
        assert!(read_response(&mut BufReader::new(&short[..])).is_err());
    }

    #[test]
    fn a_response_head_past_the_cap_is_an_error() {
        let mut endless = b"HTTP/1.1 200 OK\r\n".to_vec();
        while endless.len() < 2 * HEAD_CAP {
            endless.extend_from_slice(b"X-Pad: yes\r\n");
        }
        let err = read_response(&mut BufReader::new(&endless[..])).unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed("head too large")),
            "{err:?}"
        );
    }

    #[test]
    fn request_roundtrip() {
        let mut wire = Vec::new();
        let path: UrlPath = "/x/y.gif".parse().unwrap();
        write_request(&mut wire, &path).unwrap();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.path, path);
        assert!(req.keep_alive);
    }

    #[test]
    fn trace_header_round_trips_and_degrades() {
        let ctx = TraceContext::root(true).child();
        let mut wire = Vec::new();
        let path: UrlPath = "/traced.html".parse().unwrap();
        write_request_traced(&mut wire, &path, Some(&ctx)).unwrap();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.trace, Some(ctx));
        assert!(req.keep_alive);

        // No header → no context.
        let mut wire = Vec::new();
        write_request(&mut wire, &path).unwrap();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.trace, None);

        // A malformed value degrades to untraced, never an error.
        let raw = b"GET / HTTP/1.1\r\nx-cpms-trace: not-a-context\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.trace, None);
    }

    #[test]
    fn head_complete_finds_the_terminator_incrementally() {
        let raw = b"GET /a/b.html HTTP/1.1\r\nHost: x\r\n\r\ntrailing";
        // No prefix short of the terminator completes.
        for cut in 0..raw.len() - 9 {
            assert_eq!(head_complete(&raw[..cut]), None, "cut at {cut}");
        }
        let end = head_complete(raw).expect("complete");
        assert_eq!(&raw[..end], b"GET /a/b.html HTTP/1.1\r\nHost: x\r\n\r\n");
        let req = parse_request_head(&raw[..end]).unwrap();
        assert_eq!(req.path.as_str(), "/a/b.html");

        // Bare-LF heads terminate too, matching the line-based parser.
        assert_eq!(head_complete(b"GET / HTTP/1.1\n\n"), Some(16));
    }

    #[test]
    fn response_head_parses_incrementally() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, b"hello world", true).unwrap();
        for cut in 0..4 {
            assert_eq!(parse_response_head(&wire[..cut]).unwrap(), None);
        }
        let head = parse_response_head(&wire).unwrap().expect("complete");
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 11);
        assert_eq!(&wire[head.head_len..], b"hello world");

        assert!(matches!(
            parse_response_head(b"HTTP/1.1 200 OK\r\n\r\n"),
            Err(ParseError::Malformed("missing content-length"))
        ));
        assert!(matches!(
            parse_response_head(b"garbage\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    /// The buffer writers are the only serializers of heads: the proxy
    /// writes them into its connection buffers, and `request_head` /
    /// `response_head` wrap them. Their bytes are the ones `format!` built
    /// before, traced or not, for every status.
    #[test]
    fn head_writers_produce_the_formatted_bytes() {
        let path: UrlPath = "/dir/page.html".parse().unwrap();
        let ctx = TraceContext::root(false).child();
        for trace in [None, Some(&ctx)] {
            let want = match trace {
                Some(ctx) => format!(
                    "GET {path} HTTP/1.1\r\nHost: cpms\r\nConnection: keep-alive\r\n{TRACE_HEADER}: {}\r\n\r\n",
                    ctx.to_header()
                ),
                None => format!("GET {path} HTTP/1.1\r\nHost: cpms\r\nConnection: keep-alive\r\n\r\n"),
            };
            let mut ring = std::collections::VecDeque::new();
            request_head_into(&mut ring, &path, trace);
            assert_eq!(ring.make_contiguous(), want.as_bytes());
            assert_eq!(request_head(&path, trace), want);
        }
        for (status, reason) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (501, "Not Implemented"),
            (502, "Bad Gateway"),
            (503, "Service Unavailable"),
            (500, "Error"),
        ] {
            for (len, keep_alive) in [
                (0, true),
                (7, false),
                (1_048_576, true),
                (usize::MAX, false),
            ] {
                let want = format!(
                    "HTTP/1.1 {status} {reason}\r\nContent-Length: {len}\r\nConnection: {}\r\n\r\n",
                    if keep_alive { "keep-alive" } else { "close" },
                );
                let mut ring = std::collections::VecDeque::new();
                response_head_into(&mut ring, status, len, keep_alive);
                assert_eq!(ring.make_contiguous(), want.as_bytes());
                assert_eq!(response_head(status, len, keep_alive), want);
            }
        }
    }

    #[test]
    fn response_heads_say_whether_the_connection_stays_open() {
        let open = |raw: &[u8]| parse_response_head(raw).unwrap().unwrap().keep_alive;
        assert!(open(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"));
        assert!(!open(
            b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        ));
        assert!(!open(
            b"HTTP/1.1 200 OK\r\nconnection: Close\r\nContent-Length: 0\r\n\r\n"
        ));
        assert!(!open(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"));
        assert!(open(
            b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n"
        ));
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        assert_eq!(read_request(&mut reader).unwrap().path.as_str(), "/a");
        assert_eq!(read_request(&mut reader).unwrap().path.as_str(), "/b");
        assert!(matches!(
            read_request(&mut reader),
            Err(ParseError::ConnectionClosed)
        ));
    }
}
