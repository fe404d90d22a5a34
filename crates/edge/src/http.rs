//! A lean, defensive HTTP/1.1 request reader and response writer.
//!
//! This is deliberately not a general HTTP implementation: it reads the
//! subset the edge serves (request line, headers it understands,
//! `Content-Length` bodies) and maps every way a client can misbehave to
//! a typed [`RecvError`] so the worker loop can answer with the right
//! status code and never panics or wedges on hostile input:
//!
//! * drip-fed or stalled heads ([`RecvError::Timeout`] → `408`) — the
//!   head has one *overall* deadline, so a slow-loris cannot reset it by
//!   sending a byte per poll;
//! * oversized heads (`431`) and bodies (`413`), both bounded before
//!   allocation ever follows attacker-controlled lengths;
//! * malformed request lines, header lines, or `Content-Length` values
//!   (`400`);
//! * connections closed mid-request ([`RecvError::Closed`]), served
//!   silently — the client is gone.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Request methods the edge distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// Anything else (answered `405`).
    Other,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target, without any query string.
    pub path: String,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub keep_alive: bool,
    /// Trace ID from an `x-hp-trace` header (1–16 hex digits), or 0 when
    /// the header was absent or malformed — a bad trace header never
    /// rejects an otherwise valid request, it just goes untraced.
    pub trace: u64,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed (or reset) the connection cleanly between
    /// requests; not an error worth answering.
    Closed,
    /// The idle keep-alive bound expired with no new request.
    Idle,
    /// The head or body was not delivered within its deadline.
    Timeout,
    /// The request head exceeded the configured cap (`431`).
    HeadTooLarge,
    /// The declared body exceeded the configured cap (`413`).
    BodyTooLarge,
    /// The bytes received do not form an HTTP/1.1 request (`400`).
    Malformed(&'static str),
    /// A transport error other than timeout/close.
    Io(io::Error),
}

/// Caps and deadlines for reading one request.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Request-head byte cap.
    pub max_head_bytes: usize,
    /// Body byte cap.
    pub max_body_bytes: usize,
    /// Overall head delivery deadline (counted from the first byte).
    pub header_timeout: Duration,
    /// Overall body delivery deadline.
    pub body_timeout: Duration,
}

/// Poll slice for interruptible waits: short enough that idle/drain
/// checks are prompt, long enough to stay off the scheduler's back.
const POLL: Duration = Duration::from_millis(50);

/// Waits for the first byte of the next request, polling in short slices
/// so the caller can abandon an idle connection when `give_up` turns
/// true (drain) or `idle_for` expires (keep-alive bound).
///
/// # Errors
///
/// [`RecvError::Closed`] when the peer hung up, [`RecvError::Idle`] when
/// the idle bound expired or `give_up` fired, [`RecvError::Io`] on
/// transport errors.
pub fn wait_for_request(
    stream: &TcpStream,
    idle_for: Duration,
    give_up: impl Fn() -> bool,
) -> Result<(), RecvError> {
    let start = Instant::now();
    let mut probe = [0u8; 1];
    loop {
        if give_up() || start.elapsed() >= idle_for {
            return Err(RecvError::Idle);
        }
        stream.set_read_timeout(Some(POLL)).map_err(RecvError::Io)?;
        match stream.peek(&mut probe) {
            Ok(0) => return Err(RecvError::Closed),
            Ok(_) => return Ok(()),
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Err(RecvError::Closed),
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
}

/// Reads one full request (head + body) within the configured caps and
/// deadlines. Call [`wait_for_request`] first so idle time does not
/// count against the header deadline.
///
/// # Errors
///
/// See [`RecvError`]; every variant maps to one response (or a silent
/// close) in the worker loop.
pub fn read_request(stream: &mut TcpStream, limits: &ReadLimits) -> Result<Request, RecvError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut filled = 0;
    let head_deadline = Instant::now() + limits.header_timeout;
    let head_end = loop {
        if let Some(end) = find_head_end(&buf[..filled]) {
            break end;
        }
        if filled >= limits.max_head_bytes {
            return Err(RecvError::HeadTooLarge);
        }
        if filled == buf.len() {
            buf.resize(filled + HEAD_CHUNK, 0);
        }
        filled += read_some(stream, &mut buf[filled..], head_deadline)?;
    };
    buf.truncate(filled);

    let (request, declared_len) = parse_head(&buf[..head_end])?;
    if declared_len > limits.max_body_bytes {
        return Err(RecvError::BodyTooLarge);
    }

    // Whatever followed the head in the buffer is the body's first bytes.
    let early = &buf[head_end + head_terminator_len(&buf, head_end)..];
    if early.len() > declared_len {
        // Pipelined extra bytes would desynchronize the keep-alive loop;
        // refuse rather than serve a corrupted stream.
        return Err(RecvError::Malformed("bytes beyond declared content-length"));
    }
    // The rest is read straight into the body, in windows that follow
    // what has arrived rather than what was declared: `body_window`.
    let mut body = Vec::with_capacity(body_window(early.len(), declared_len));
    body.extend_from_slice(early);
    let mut filled = body.len();
    let body_deadline = Instant::now() + limits.body_timeout;
    while filled < declared_len {
        if filled == body.len() {
            let window = body_window(filled, declared_len);
            body.reserve_exact(window - filled);
            body.resize(window, 0);
        }
        filled += read_some(stream, &mut body[filled..], body_deadline)?;
        if filled > declared_len {
            return Err(RecvError::Malformed("bytes beyond declared content-length"));
        }
    }
    body.truncate(filled);

    Ok(Request { body, ..request })
}

/// How many bytes one read of the head may add.
const HEAD_CHUNK: usize = 4096;

/// The least a body buffer may run ahead of the bytes received.
const MIN_BODY_WINDOW: usize = 64 * 1024;

/// The length the body buffer grows to once `received` bytes fill it:
/// at most `max(received, 64 KiB)` beyond them, so a client is
/// allocated for about what it sent, never for a length it only
/// declared, and a long body costs O(log n) reallocations. It stops one
/// byte past `declared`, where a read that fills that byte has found
/// bytes beyond the declared length; a body that has all arrived takes
/// no room beyond it.
fn body_window(received: usize, declared: usize) -> usize {
    if received >= declared {
        return received;
    }
    (received + received.max(MIN_BODY_WINDOW)).min(declared + 1)
}

/// One bounded read into `buf` against an overall deadline: how many
/// bytes arrived, 0 when the poll slice ran out (the caller re-checks
/// the deadline). A peer that closes mid-request gets no response — it
/// is gone either way.
fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, RecvError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(RecvError::Timeout);
    }
    stream
        .set_read_timeout(Some(remaining.min(POLL)))
        .map_err(RecvError::Io)?;
    match stream.read(buf) {
        Ok(0) => Err(RecvError::Closed),
        Ok(n) => Ok(n),
        Err(e) if is_timeout(&e) => Ok(0), // loop re-checks the deadline
        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => Err(RecvError::Closed),
        Err(e) => Err(RecvError::Io(e)),
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Index just past the head (before the blank-line terminator), if the
/// terminator has arrived. Accepts `\r\n\r\n` and bare `\n\n`, whichever
/// comes first: the body of a bare-LF head may hold a CRLF blank line.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    (0..buf.len()).find(|&i| buf[i..].starts_with(b"\r\n\r\n") || buf[i..].starts_with(b"\n\n"))
}

fn head_terminator_len(buf: &[u8], end: usize) -> usize {
    if buf[end..].starts_with(b"\r\n\r\n") {
        4
    } else {
        2
    }
}

/// Parses the request line and the headers the edge understands.
fn parse_head(head: &[u8]) -> Result<(Request, usize), RecvError> {
    let head = std::str::from_utf8(head).map_err(|_| RecvError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().ok_or(RecvError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some(m) if !m.is_empty() && m.chars().all(|c| c.is_ascii_uppercase()) => Method::Other,
        _ => return Err(RecvError::Malformed("bad request line")),
    };
    let target = parts.next().ok_or(RecvError::Malformed("missing target"))?;
    if target.is_empty() || !target.starts_with('/') {
        return Err(RecvError::Malformed("bad request target"));
    }
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        _ => return Err(RecvError::Malformed("bad HTTP version")),
    }
    if parts.next().is_some() {
        return Err(RecvError::Malformed("bad request line"));
    }

    let mut declared_len = None;
    let mut keep_alive = true;
    let mut trace = 0u64;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RecvError::Malformed("bad header line"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only (RFC 9110: no sign), and a repeat must agree.
            let digits = value.bytes().all(|b| b.is_ascii_digit());
            let len = value.parse::<usize>().ok().filter(|_| digits);
            let len = len.ok_or(RecvError::Malformed("bad content-length"))?;
            if declared_len.is_some_and(|seen| seen != len) {
                return Err(RecvError::Malformed("conflicting content-length"));
            }
            declared_len = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-hp-trace") {
            trace = hp_service::obs::parse_trace_id(value).unwrap_or(0);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are out of scope; refusing beats guessing.
            return Err(RecvError::Malformed("transfer-encoding unsupported"));
        }
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok((
        Request {
            method,
            path,
            body: Vec::new(),
            keep_alive,
            trace,
        },
        declared_len.unwrap_or(0),
    ))
}

/// Writes one response with the standard edge headers. Returns the
/// instant stamped just before the write that sends its last byte (the
/// body's, or the head's when the body is empty): the client cannot have
/// read the whole response before it.
///
/// # Errors
///
/// Propagates transport errors; the caller treats them as a dead client.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &[u8],
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> io::Result<Instant> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut last_write = Instant::now();
    stream.write_all(head.as_bytes())?;
    if !body.is_empty() {
        last_write = Instant::now();
        stream.write_all(body)?;
    }
    stream.flush()?;
    Ok(last_write)
}

/// Canonical reason phrases for the statuses the edge emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn parse(head: &str) -> Result<(Request, usize), RecvError> {
        parse_head(head.as_bytes())
    }

    #[test]
    fn parses_a_minimal_get() {
        let (req, len) = parse("GET /healthz HTTP/1.1\r\nhost: x").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert_eq!(len, 0);
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_post_with_length_and_close() {
        let (req, len) =
            parse("POST /ingest HTTP/1.1\r\ncontent-length: 42\r\nConnection: close").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(len, 42);
        assert!(!req.keep_alive);
    }

    #[test]
    fn strips_query_strings() {
        let (req, _) = parse("GET /assess/7?verbose=1 HTTP/1.1").unwrap();
        assert_eq!(req.path, "/assess/7");
    }

    #[test]
    fn rejects_malformed_heads() {
        for head in [
            "",
            "GARBAGE",
            "GET HTTP/1.1",
            "GET /x HTTP/2",
            "get /x HTTP/1.1",
            "GET /x HTTP/1.1 extra",
            "GET x HTTP/1.1",
            "POST /ingest HTTP/1.1\r\ncontent-length: banana",
            "POST /ingest HTTP/1.1\r\nno-colon-header",
            "POST /ingest HTTP/1.1\r\ntransfer-encoding: chunked",
            "POST /ingest HTTP/1.1\r\ncontent-length: +5",
            "POST /ingest HTTP/1.1\r\ncontent-length: -0",
            "POST /ingest HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 6",
        ] {
            assert!(
                matches!(parse(head), Err(RecvError::Malformed(_))),
                "should reject: {head:?}"
            );
        }
    }

    #[test]
    fn trace_headers_parse_and_bad_ones_degrade_to_untraced() {
        let (req, _) = parse("GET /assess/7 HTTP/1.1\r\nx-hp-trace: 00000000000000ab").unwrap();
        assert_eq!(req.trace, 0xab);
        let (req, _) = parse("GET /assess/7 HTTP/1.1\r\nX-HP-Trace: DEADBEEF").unwrap();
        assert_eq!(
            req.trace, 0xdead_beef,
            "header name and hex are case-insensitive"
        );
        // Malformed or zero trace IDs never reject the request.
        for bad in ["banana", "0", "", "00000000000000000ab"] {
            let (req, _) = parse(&format!("GET / HTTP/1.1\r\nx-hp-trace: {bad}")).unwrap();
            assert_eq!(req.trace, 0, "bad trace {bad:?} must degrade to untraced");
        }
        let (req, _) = parse("GET / HTTP/1.1\r\nhost: x").unwrap();
        assert_eq!(req.trace, 0);
    }

    #[test]
    fn unknown_methods_are_distinguished_not_rejected() {
        let (req, _) = parse("DELETE /assess/1 HTTP/1.1").unwrap();
        assert_eq!(req.method, Method::Other);
    }

    #[test]
    fn a_repeated_content_length_must_agree() {
        let head = "POST /ingest HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 5";
        assert_eq!(parse(head).unwrap().1, 5);
    }

    #[test]
    fn find_head_end_handles_both_terminators() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nBODY"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        // The earliest terminator ends the head, whatever the body holds.
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nA\r\n\r\nB"), Some(14));
    }

    #[test]
    fn body_window_follows_the_bytes_received_not_the_length_declared() {
        const KIB: usize = 1024;
        const MIB: usize = 1024 * KIB;
        // 8 MiB declared and 10 bytes sent: room for 64 KiB more, not 8 MiB.
        assert_eq!(body_window(10, 8 * MIB), 10 + 64 * KIB);
        assert_eq!(body_window(0, 8 * MIB), 64 * KIB);
        // Past 64 KiB received the buffer doubles, up to one byte past
        // the declared length.
        assert_eq!(body_window(MIB, 8 * MIB), 2 * MIB);
        assert_eq!(body_window(5 * MIB, 8 * MIB), 8 * MIB + 1);
        assert_eq!(body_window(100, 1000), 1001);
        // A body that has all arrived takes no room beyond it.
        assert_eq!(body_window(1000, 1000), 1000);
        assert_eq!(body_window(0, 0), 0);
        for declared in [1, 4095, 64 * KIB, 64 * KIB + 1, 3 * MIB + 7, 8 * MIB] {
            for received in (0..declared).step_by(declared / 97 + 1) {
                let window = body_window(received, declared);
                assert!(window > received, "no room at {received} of {declared}");
                assert!(window - received <= received.max(64 * KIB));
                assert!(window <= declared + 1);
            }
        }
    }

    /// Serves one `read_request` over loopback against `send`, which
    /// writes the client's side in whatever pieces it likes.
    fn read_over_loopback(
        send: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> Result<Request, RecvError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            send(&mut stream);
            stream
        });
        let (mut stream, _) = listener.accept().unwrap();
        let limits = ReadLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            header_timeout: Duration::from_secs(5),
            body_timeout: Duration::from_secs(5),
        };
        let request = read_request(&mut stream, &limits);
        drop(client.join().unwrap());
        request
    }

    #[test]
    fn a_body_in_pieces_arrives_whole_in_a_buffer_no_longer_than_declared() {
        let body: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let sent = body.clone();
        let request = read_over_loopback(move |stream| {
            let head = format!(
                "POST /ingest HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                sent.len()
            );
            stream.write_all(head.as_bytes()).unwrap();
            for piece in sent.chunks(70_001) {
                stream.write_all(piece).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .unwrap();
        assert_eq!(request.body, body);
        assert!(
            request.body.capacity() <= body.len() + 1,
            "{}",
            request.body.capacity()
        );
    }

    #[test]
    fn bytes_beyond_the_declared_length_are_refused_in_any_read() {
        // Beyond it in the read that carries the head...
        let request = read_over_loopback(|stream| {
            stream
                .write_all(b"POST /ingest HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcdef")
                .unwrap();
        });
        assert!(
            matches!(request, Err(RecvError::Malformed(_))),
            "{request:?}"
        );
        // ...and in a later one.
        let request = read_over_loopback(|stream| {
            stream
                .write_all(b"POST /ingest HTTP/1.1\r\ncontent-length: 3\r\n\r\n")
                .unwrap();
            std::thread::sleep(Duration::from_millis(50));
            stream.write_all(b"abcdef").unwrap();
        });
        assert!(
            matches!(request, Err(RecvError::Malformed(_))),
            "{request:?}"
        );
    }

    /// A plausible head: one to six lines, each drawn from what the
    /// parser understands or from arbitrary bytes, joined by CRLF or bare
    /// LF. No line is empty or holds a CR or LF, so the head holds no
    /// terminator of its own.
    fn head() -> impl Strategy<Value = Vec<u8>> {
        const LINES: [&str; 10] = [
            "GET /assess/7 HTTP/1.1",
            "POST /ingest HTTP/1.0",
            "content-length: 5",
            "Content-Length: +5",
            "content-length: 18446744073709551616",
            "connection: close",
            "x-hp-trace: beef",
            "transfer-encoding: chunked",
            "host: x",
            "no-colon",
        ];
        let line =
            (0..LINES.len() + 2, vec(any::<u8>(), 0..12)).prop_map(|(pick, raw)| {
                match LINES.get(pick) {
                    Some(line) => line.as_bytes().to_vec(),
                    None => {
                        let raw = raw
                            .into_iter()
                            .map(|b| if b"\r\n".contains(&b) { b'~' } else { b });
                        std::iter::once(b'~').chain(raw).collect()
                    }
                }
            });
        (vec(line, 1..7), any::<bool>())
            .prop_map(|(lines, crlf)| lines.join(if crlf { &b"\r\n"[..] } else { &b"\n"[..] }))
    }

    proptest! {
        /// A head ends at its own terminator whatever body bytes follow —
        /// even a body holding the other terminator — so it parses the
        /// same; and any bytes, or a head cut, flipped or grown anywhere,
        /// read as a head give a request or `Malformed`, never a panic.
        #[test]
        fn parse_head_survives_hostile_bytes(
            head in head(),
            crlf in any::<bool>(),
            body in (vec(any::<u8>(), 0..24), any::<usize>(), any::<bool>()),
            mangle in (0u8..4, any::<usize>(), any::<u8>()),
            raw in vec(any::<u8>(), 0..64),
        ) {
            let verdict = |bytes: &[u8]| format!("{:?}", parse_head(bytes));
            let (term, other): (&[u8], &[u8]) =
                if crlf { (b"\r\n\r\n", b"\n\n") } else { (b"\n\n", b"\r\n\r\n") };
            let (mut body, at, blank) = body;
            if blank {
                let at = at % (body.len() + 1);
                body.splice(at..at, other.iter().copied());
            }
            let mut buf = [&head[..], term, &body].concat();
            prop_assert_eq!(find_head_end(&buf), Some(head.len()));
            prop_assert_eq!(&buf[head.len() + head_terminator_len(&buf, head.len())..], &body[..]);

            let (kind, at, byte) = mangle;
            match kind {
                0 => buf.truncate(at % (buf.len() + 1)),
                1 => {
                    let at = at % buf.len();
                    buf[at] ^= byte.max(1);
                }
                _ => buf.insert(at % (buf.len() + 1), byte),
            }
            let head = &buf[..find_head_end(&buf).unwrap_or(buf.len())];
            for bytes in [head, &buf[..], &raw[..]] {
                prop_assert!(
                    matches!(parse_head(bytes), Ok(_) | Err(RecvError::Malformed(_))),
                    "{}", verdict(bytes)
                );
            }
        }
    }
}
