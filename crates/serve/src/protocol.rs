//! The `rde serve` wire protocol: newline-delimited text over TCP.
//!
//! Chosen for the same reason the checkpoint format is line-oriented —
//! `nc` is a complete client, every request and reply can be eyeballed,
//! and framing mistakes surface as readable garbage instead of silent
//! corruption.
//!
//! ## Request
//!
//! ```text
//! OP [mapping]
//! key=value            # zero or more header lines
//!                      # blank line starts the body (optional)
//! P(a, b)              # body lines, verbatim
//! .
//! ```
//!
//! Every request ends with a line holding a single `.`. Headers carry
//! the per-request budgets (`deadline-ms`, `node-budget`,
//! `time-budget-ms`), the tenant identity (`tenant=`), and op
//! arguments (`query=` for `CERTAIN`); the body carries instance text
//! for the ops that take one (`CHASE`, `CERTAIN`, and `ARROW`, whose
//! two instances are separated by a `--` line). Connections are
//! persistent: a client may send any number of requests before
//! closing.
//!
//! Two introspection ops take neither mapping nor body: `STATS`
//! returns a human-oriented `key value` summary, and `METRICS` returns
//! the full labeled metrics registry in Prometheus text exposition
//! format (one exposition line per payload line), which is what
//! `rde top` polls. `RELOAD` asks the daemon to re-scan its catalog
//! directory and swap in a new generation (SIGHUP does the same).
//!
//! ## Hostile-input limits
//!
//! A daemon cannot trust its peers to frame requests honestly, so
//! [`read_request_limited`] enforces [`ProtocolLimits`]: a cap on line
//! length, header count, and total body bytes, plus rejection of NUL
//! bytes and invalid UTF-8. A violated limit is *not* an unbounded
//! buffer — the reader stops accumulating, drains the offending
//! request up to its `.` terminator (within a bounded drain budget),
//! and reports a [`FrameError::Violation`] the server answers with a
//! typed `ERR`. Only when the stream position cannot be trusted again
//! (EOF mid-request, I/O error, drain budget exhausted) is the
//! violation unrecoverable and the connection closed.
//!
//! ## Reply
//!
//! ```text
//! OK <n>        followed by exactly n payload lines
//! ERR <message>
//! SHED [retry-after-ms=N] <reason>
//! UNKNOWN <reason>
//! ```
//!
//! The three non-`OK` forms are deliberately distinct: `ERR` is a bad
//! request, `SHED` is the server protecting itself (overload, quota,
//! elapsed request deadline), and `UNKNOWN` is an honest three-valued
//! verdict (a budget ran out before the answer settled). A `SHED` may
//! carry a `retry-after-ms=` hint — the admission controller's own
//! estimate of when capacity returns — which
//! [`Client::call_with_retry`](crate::Client::call_with_retry) honors.
//! Clients map the forms to different exit codes; none of them drop
//! the connection.

use std::borrow::Cow;
use std::io::{self, BufRead, Write};

/// A parsed request: op, optional mapping name, headers, body text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Request {
    /// The operation, uppercased by convention (`PING`, `LIST`,
    /// `CHASE`, `INVERTIBLE`, `ARROW`, `CERTAIN`, `STATS`, `METRICS`,
    /// `RELOAD`).
    pub op: String,
    /// The catalog mapping the op addresses, when it needs one.
    pub mapping: Option<String>,
    /// `key=value` header lines, in order.
    pub headers: Vec<(String, String)>,
    /// The body: each line verbatim and `\n`-terminated (no terminator
    /// line), or empty. The server reads it into this one `String` and
    /// parses it in place.
    pub body: String,
}

impl Request {
    /// A bodyless, headerless request (`PING`, `LIST`, `STATS`,
    /// `METRICS`, `RELOAD`).
    pub fn bare(op: &str) -> Request {
        Request { op: op.to_owned(), ..Request::default() }
    }

    /// A request addressing `mapping`.
    pub fn on(op: &str, mapping: &str) -> Request {
        Request { op: op.to_owned(), mapping: Some(mapping.to_owned()), ..Request::default() }
    }

    /// Add a header (builder style).
    pub fn header(mut self, key: &str, value: impl ToString) -> Request {
        self.headers.push((key.to_owned(), value.to_string()));
        self
    }

    /// Set the body from a text blob, split into lines.
    pub fn body_text(mut self, text: &str) -> Request {
        self.body.clear();
        for line in text.lines() {
            self.body.push_str(line);
            self.body.push('\n');
        }
        self
    }

    /// First value of header `key`, if present.
    pub fn get_header(&self, key: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Replace the value of header `key`, appending it if absent.
    pub fn set_header(&mut self, key: &str, value: impl ToString) {
        match self.headers.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.to_string(),
            None => self.headers.push((key.to_owned(), value.to_string())),
        }
    }

    /// Parse a numeric header; a malformed value is a protocol error
    /// (silently ignoring it would turn a client typo into an
    /// unbudgeted request).
    pub fn u64_header(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get_header(key) {
            None => Ok(None),
            Some(v) => {
                v.parse::<u64>().map(Some).map_err(|_| format!("header {key}={v}: not a number"))
            }
        }
    }

    /// Serialize onto `w` in wire form.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(&self.op);
        if let Some(m) = &self.mapping {
            out.push(' ');
            out.push_str(m);
        }
        out.push('\n');
        for (k, v) in &self.headers {
            out.push_str(k);
            out.push('=');
            out.push_str(v);
            out.push('\n');
        }
        if !self.body.is_empty() {
            out.push('\n');
            out.push_str(&self.body);
        }
        out.push_str(".\n");
        w.write_all(out.as_bytes())?;
        w.flush()
    }
}

/// Hard caps a server imposes on request framing. Every limit is a
/// defense against a hostile or broken client buffering the server
/// into the ground; none of them constrains an honest workload (the
/// defaults are orders of magnitude above what the ops need).
#[derive(Debug, Clone, Copy)]
pub struct ProtocolLimits {
    /// Longest accepted line, in bytes (op line, header, or body).
    pub max_line_bytes: usize,
    /// Most header lines per request.
    pub max_headers: usize,
    /// Most body bytes per request (line bytes + one per newline).
    pub max_body_bytes: usize,
}

impl Default for ProtocolLimits {
    fn default() -> Self {
        ProtocolLimits { max_line_bytes: 64 * 1024, max_headers: 64, max_body_bytes: 1 << 20 }
    }
}

impl ProtocolLimits {
    /// How many bytes of an offending request the reader is willing to
    /// throw away looking for its `.` terminator before giving up on
    /// the connection.
    pub fn drain_budget(&self) -> usize {
        self.max_body_bytes.saturating_add(64 * 1024)
    }
}

/// How reading one request off the wire failed.
#[derive(Debug)]
pub enum FrameError {
    /// The socket itself failed (including read timeouts, which
    /// surface as `WouldBlock`/`TimedOut`). `partial` is true when
    /// bytes of the current request had already been consumed — a
    /// mid-request stall rather than an idle connection.
    Io {
        /// The underlying socket error.
        error: io::Error,
        /// Whether the failure interrupted a partially-read request.
        partial: bool,
    },
    /// The peer violated the framing rules or a [`ProtocolLimits`]
    /// cap. When `recoverable`, the offending request was drained
    /// through its `.` terminator and the stream position is
    /// trustworthy again: the server can answer `ERR` and keep the
    /// connection. Otherwise the connection must close.
    Violation {
        /// What the peer did wrong.
        message: String,
        /// Whether the stream was drained back to a request boundary.
        recoverable: bool,
    },
}

impl FrameError {
    /// True when the underlying cause is an elapsed read timeout.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io { error, .. }
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }

    /// True when the server may keep reading requests off this
    /// connection after answering `ERR`.
    pub fn recoverable(&self) -> bool {
        matches!(self, FrameError::Violation { recoverable: true, .. })
    }

    /// True when the failure cut a request mid-frame (as opposed to an
    /// idle connection timing out between requests).
    pub fn partial(&self) -> bool {
        match self {
            FrameError::Io { partial, .. } => *partial,
            FrameError::Violation { .. } => true,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io { error, .. } => write!(f, "{error}"),
            FrameError::Violation { message, .. } => f.write_str(message),
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io { error, .. } => error,
            FrameError::Violation { message, .. } => {
                io::Error::new(io::ErrorKind::InvalidData, message)
            }
        }
    }
}

/// One raw line off the wire, read under a byte cap.
enum RawLine {
    /// A complete line (terminator stripped), within the cap, now in
    /// the caller's buffer.
    Line,
    /// Clean EOF before any byte of a line.
    Eof,
    /// EOF after some bytes of an unterminated line.
    EofMidLine,
    /// The line exceeded the cap. `terminated` says whether its
    /// newline was consumed (false: the tail is still on the wire).
    TooLong {
        /// Whether the over-long line's newline was reached.
        terminated: bool,
    },
}

/// Read one `\n`-terminated line into `buf` (cleared first),
/// accumulating at most `cap` bytes. Consumed byte counts (including
/// terminators and over-cap spill within the currently buffered chunk)
/// are added to `*consumed`.
fn raw_line(
    r: &mut impl BufRead,
    cap: usize,
    consumed: &mut usize,
    buf: &mut Vec<u8>,
) -> Result<RawLine, FrameError> {
    buf.clear();
    let mut overflowed = false;
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) => {
                return Err(FrameError::Io { partial: *consumed > 0 || !buf.is_empty(), error })
            }
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() && !overflowed {
                RawLine::Eof
            } else {
                RawLine::EofMidLine
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            let over = overflowed || buf.len() + pos > cap;
            if !over {
                buf.extend_from_slice(&available[..pos]);
            }
            r.consume(pos + 1);
            *consumed += pos + 1;
            if over {
                return Ok(RawLine::TooLong { terminated: true });
            }
            while buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(RawLine::Line);
        }
        let n = available.len();
        if !overflowed && buf.len() + n > cap {
            overflowed = true;
            buf.clear();
        }
        if !overflowed {
            buf.extend_from_slice(available);
        }
        r.consume(n);
        *consumed += n;
        if overflowed {
            return Ok(RawLine::TooLong { terminated: false });
        }
    }
}

/// After a framing violation, consume the rest of the offending
/// request — through the unterminated current line when `mid_line`,
/// then whole lines until the `.` terminator — within the drain
/// budget. Returns whether the terminator was found (the stream is
/// back at a request boundary).
fn drain_to_terminator(
    r: &mut impl BufRead,
    limits: &ProtocolLimits,
    consumed: &mut usize,
    mut mid_line: bool,
) -> Result<bool, FrameError> {
    let budget = limits.drain_budget();
    let mut buf = Vec::new();
    loop {
        if *consumed > budget {
            return Ok(false);
        }
        match raw_line(r, limits.max_line_bytes, consumed, &mut buf)? {
            RawLine::Eof | RawLine::EofMidLine => return Ok(false),
            RawLine::TooLong { terminated } => mid_line = !terminated,
            RawLine::Line => {
                if !mid_line && buf == b"." {
                    return Ok(true);
                }
                mid_line = false;
            }
        }
    }
}

/// Build the [`FrameError::Violation`] for `message`, draining the
/// offending request first to decide recoverability.
fn violation(
    r: &mut impl BufRead,
    limits: &ProtocolLimits,
    consumed: &mut usize,
    mid_line: bool,
    message: impl Into<String>,
) -> FrameError {
    let recoverable = drain_to_terminator(r, limits, consumed, mid_line).unwrap_or(false);
    FrameError::Violation { message: message.into(), recoverable }
}

/// Decode one accepted line: NUL bytes and invalid UTF-8 are framing
/// violations (the engines downstream assume text).
fn decode_line(bytes: &[u8]) -> Result<&str, &'static str> {
    if bytes.contains(&0) {
        return Err("NUL byte in request line");
    }
    std::str::from_utf8(bytes).map_err(|_| "request line is not valid UTF-8")
}

/// Read one request off `r` under `limits`. `Ok(None)` is a clean
/// end-of-stream (the client closed between requests); every limit
/// violation reports whether the connection is still usable (see
/// [`FrameError`]).
pub fn read_request_limited(
    r: &mut impl BufRead,
    limits: &ProtocolLimits,
) -> Result<Option<Request>, FrameError> {
    let mut consumed = 0usize;
    let eof_mid_request = || FrameError::Violation {
        message: "stream ended mid-request (missing `.` terminator)".to_owned(),
        recoverable: false,
    };
    // Every line lands in this one buffer; body lines are appended to
    // the request's body `String` from it.
    let mut buf = Vec::new();
    // Op line, tolerating stray blank lines between requests (`nc`
    // users).
    let op_line = loop {
        match raw_line(r, limits.max_line_bytes, &mut consumed, &mut buf)? {
            RawLine::Eof => return Ok(None),
            RawLine::EofMidLine => return Err(eof_mid_request()),
            RawLine::TooLong { terminated } => {
                return Err(violation(
                    r,
                    limits,
                    &mut consumed,
                    !terminated,
                    format!("request line exceeds {} bytes", limits.max_line_bytes),
                ));
            }
            RawLine::Line => match decode_line(&buf) {
                Ok("") => continue,
                Ok(line) => break line.to_owned(),
                Err(why) => return Err(violation(r, limits, &mut consumed, false, why)),
            },
        }
    };
    let mut words = op_line.split_whitespace();
    let op = words.next().unwrap_or_default().to_ascii_uppercase();
    let mapping = words.next().map(str::to_owned);
    if words.next().is_some() {
        return Err(violation(
            r,
            limits,
            &mut consumed,
            false,
            format!("request line has trailing words: {op_line}"),
        ));
    }
    let mut req = Request { op, mapping, ..Request::default() };
    let mut in_body = false;
    let mut body_bytes = 0usize;
    loop {
        let line = match raw_line(r, limits.max_line_bytes, &mut consumed, &mut buf)? {
            RawLine::Eof | RawLine::EofMidLine => return Err(eof_mid_request()),
            RawLine::TooLong { terminated } => {
                return Err(violation(
                    r,
                    limits,
                    &mut consumed,
                    !terminated,
                    format!("request line exceeds {} bytes", limits.max_line_bytes),
                ));
            }
            RawLine::Line => match decode_line(&buf) {
                Ok(line) => line,
                Err(why) => return Err(violation(r, limits, &mut consumed, false, why)),
            },
        };
        if line == "." {
            return Ok(Some(req));
        }
        if !in_body && line.is_empty() {
            in_body = true;
            continue;
        }
        if in_body {
            body_bytes += line.len() + 1;
            if body_bytes > limits.max_body_bytes {
                return Err(violation(
                    r,
                    limits,
                    &mut consumed,
                    false,
                    format!("request body exceeds {} bytes", limits.max_body_bytes),
                ));
            }
            req.body.push_str(line);
            req.body.push('\n');
        } else {
            let Some((k, v)) = line.split_once('=') else {
                return Err(violation(
                    r,
                    limits,
                    &mut consumed,
                    false,
                    format!("malformed header line (no `=`): {line}"),
                ));
            };
            let key = k.trim().to_owned();
            if req.headers.iter().any(|(existing, _)| *existing == key) {
                // Duplicate keys are how header smuggling works: two
                // layers disagreeing on which value wins. Reject.
                return Err(violation(
                    r,
                    limits,
                    &mut consumed,
                    false,
                    format!("duplicate header `{key}`"),
                ));
            }
            if req.headers.len() >= limits.max_headers {
                return Err(violation(
                    r,
                    limits,
                    &mut consumed,
                    false,
                    format!("more than {} header lines", limits.max_headers),
                ));
            }
            req.headers.push((key, v.trim().to_owned()));
        }
    }
}

/// Read one request off `r` under the default [`ProtocolLimits`],
/// flattening [`FrameError`] into `io::Error` — the pre-hardening
/// interface, kept for tests and tooling that just want "parse or
/// fail".
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    read_request_limited(r, &ProtocolLimits::default()).map_err(io::Error::from)
}

/// One reply per request; see the module docs for the framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The op succeeded; the payload lines are the answer.
    Ok(Vec<String>),
    /// The request was malformed or named something that doesn't exist.
    Err(String),
    /// The server refused to do the work: overload, an exhausted
    /// tenant quota, or the request's own deadline elapsed. Retry
    /// later — after `retry_after_ms` when the server computed one.
    Shed {
        /// Why the work was refused.
        reason: String,
        /// The server's estimate of when to retry, when it has one
        /// (token-bucket refill time for quota sheds).
        retry_after_ms: Option<u64>,
    },
    /// A three-valued verdict's third value: a budget ran out before
    /// the answer settled. Retry with larger budgets.
    Unknown(String),
}

impl Reply {
    /// A `SHED` without a retry hint.
    pub fn shed(reason: impl Into<String>) -> Reply {
        Reply::Shed { reason: reason.into(), retry_after_ms: None }
    }

    /// A `SHED` carrying the admission controller's retry estimate.
    pub fn shed_after(reason: impl Into<String>, retry_after_ms: u64) -> Reply {
        Reply::Shed { reason: reason.into(), retry_after_ms: Some(retry_after_ms) }
    }

    /// Serialize onto `w`. Status-line messages are flattened to one
    /// line (the framing has nowhere to put embedded newlines).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = String::new();
        match self {
            Reply::Ok(lines) => {
                out.reserve(16 + lines.iter().map(|l| l.len() + 1).sum::<usize>());
                out.push_str(&format!("OK {}\n", lines.len()));
                for line in lines {
                    out.push_str(&oneline(line));
                    out.push('\n');
                }
            }
            Reply::Err(m) => out.push_str(&format!("ERR {}\n", oneline(m))),
            Reply::Shed { reason, retry_after_ms } => {
                out.push_str("SHED ");
                if let Some(ms) = retry_after_ms {
                    out.push_str(&format!("retry-after-ms={ms} "));
                }
                out.push_str(&format!("{}\n", oneline(reason)));
            }
            Reply::Unknown(m) => out.push_str(&format!("UNKNOWN {}\n", oneline(m))),
        }
        w.write_all(out.as_bytes())?;
        w.flush()
    }
}

/// Read one reply off `r`.
pub fn read_reply(r: &mut impl BufRead) -> io::Result<Reply> {
    let Some(status) = read_line(r)? else {
        return Err(bad("connection closed before a reply arrived"));
    };
    let (word, rest) = status.split_once(' ').unwrap_or((status.as_str(), ""));
    match word {
        "OK" => {
            let n: usize =
                rest.trim().parse().map_err(|_| bad(format!("bad OK count: {status}")))?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                let Some(line) = read_line(r)? else {
                    return Err(bad("connection closed mid-payload"));
                };
                lines.push(line);
            }
            Ok(Reply::Ok(lines))
        }
        "ERR" => Ok(Reply::Err(rest.to_owned())),
        "SHED" => {
            let (retry_after_ms, reason) = match rest.split_once(' ').unwrap_or((rest, "")) {
                (first, tail) if first.starts_with("retry-after-ms=") => {
                    let value = &first["retry-after-ms=".len()..];
                    let ms = value
                        .parse::<u64>()
                        .map_err(|_| bad(format!("bad retry-after-ms: {status}")))?;
                    (Some(ms), tail.to_owned())
                }
                _ => (None, rest.to_owned()),
            };
            Ok(Reply::Shed { reason, retry_after_ms })
        }
        "UNKNOWN" => Ok(Reply::Unknown(rest.to_owned())),
        _ => Err(bad(format!("unrecognized reply status: {status}"))),
    }
}

fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// `s` with each newline replaced by `"; "`; borrowed when it has none.
fn oneline(s: &str) -> Cow<'_, str> {
    if s.contains('\n') {
        Cow::Owned(s.replace('\n', "; "))
    } else {
        Cow::Borrowed(s)
    }
}

fn bad(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip(req: &Request) -> Request {
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let bare = Request::bare("PING");
        assert_eq!(roundtrip(&bare), bare);
        let full = Request::on("CHASE", "flights")
            .header("deadline-ms", 250)
            .header("node-budget", 10_000)
            .body_text("P(a, b)\nP(b, c)\n");
        assert_eq!(roundtrip(&full), full);
        assert_eq!(full.u64_header("deadline-ms").unwrap(), Some(250));
        assert_eq!(full.u64_header("missing").unwrap(), None);
        assert_eq!(full.body, "P(a, b)\nP(b, c)\n");
    }

    #[test]
    fn set_header_replaces_in_place() {
        let mut req = Request::bare("PING").header("node-budget", 10);
        req.set_header("node-budget", 80);
        req.set_header("time-budget-ms", 5);
        assert_eq!(req.get_header("node-budget"), Some("80"));
        assert_eq!(req.get_header("time-budget-ms"), Some("5"));
        assert_eq!(req.headers.len(), 2, "replacement does not duplicate");
    }

    #[test]
    fn multiple_requests_share_a_stream_and_eof_is_clean() {
        let mut wire = Vec::new();
        Request::bare("PING").write_to(&mut wire).unwrap();
        Request::on("ARROW", "m").body_text("P(a)\n--\nP(b)\n").write_to(&mut wire).unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(read_request(&mut r).unwrap().unwrap().op, "PING");
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.body, "P(a)\n--\nP(b)\n");
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF between requests");
    }

    #[test]
    fn malformed_requests_are_errors_not_hangs() {
        let cases: &[&str] = &[
            "CHASE m extra words\n.\n",
            "CHASE m\nno-equals-sign\n.\n",
            "CHASE m\nheader=ok\n", // stream ends mid-request
        ];
        for wire in cases {
            assert!(
                read_request(&mut BufReader::new(wire.as_bytes())).is_err(),
                "must reject: {wire:?}"
            );
        }
        assert!(Request::bare("PING").u64_header("x").is_ok(), "missing numeric headers are fine");
        let req = Request::bare("PING").header("deadline-ms", "soon");
        assert!(req.u64_header("deadline-ms").is_err(), "malformed numbers are not");
    }

    #[test]
    fn violations_with_intact_terminators_are_recoverable() {
        let limits = ProtocolLimits::default();
        // Trailing words, bad header, duplicate header: all are framed
        // through their `.`, so the stream stays usable — the next
        // request parses.
        let wire = b"CHASE m extra words\n.\nPING\n.\n";
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable(), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");

        let wire = b"CHASE m\ntenant=a\ntenant=b\n.\nPING\n.\n";
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable() && err.to_string().contains("duplicate header"), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");
    }

    #[test]
    fn oversized_lines_are_capped_not_buffered() {
        let limits = ProtocolLimits { max_line_bytes: 16, ..ProtocolLimits::default() };
        let mut wire = Vec::new();
        wire.extend_from_slice(b"CHASE m\nheader=");
        wire.extend_from_slice(&vec![b'x'; 1024]);
        wire.extend_from_slice(b"\n.\nPING\n.\n");
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable(), "drains through the terminator: {err}");
        assert!(err.to_string().contains("exceeds 16 bytes"), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");
    }

    #[test]
    fn header_count_and_body_bytes_are_capped() {
        let limits =
            ProtocolLimits { max_headers: 2, max_body_bytes: 8, ..ProtocolLimits::default() };
        let wire = b"CHASE m\na=1\nb=2\nc=3\n.\nPING\n.\n";
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable() && err.to_string().contains("header lines"), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");

        let wire = b"CHASE m\n\nP(a, b, c)\nP(d, e, f)\n.\nPING\n.\n";
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable() && err.to_string().contains("body exceeds"), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");
    }

    #[test]
    fn nul_bytes_and_bad_utf8_are_rejected() {
        let limits = ProtocolLimits::default();
        let wire = b"PING\0\n.\nPING\n.\n";
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable() && err.to_string().contains("NUL"), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");

        let wire = b"PING \xff\xfe\n.\nPING\n.\n";
        let mut r = BufReader::new(&wire[..]);
        let err = read_request_limited(&mut r, &limits).unwrap_err();
        assert!(err.recoverable() && err.to_string().contains("UTF-8"), "{err}");
        assert_eq!(read_request_limited(&mut r, &limits).unwrap().unwrap().op, "PING");
    }

    #[test]
    fn truncated_requests_are_unrecoverable() {
        let limits = ProtocolLimits::default();
        for wire in [&b"CHASE m\nheader=ok\n"[..], &b"CHASE"[..]] {
            let mut r = BufReader::new(wire);
            let err = read_request_limited(&mut r, &limits).unwrap_err();
            assert!(!err.recoverable(), "truncation must close: {err}");
        }
    }

    #[test]
    fn replies_round_trip_and_flatten_newlines() {
        for reply in [
            Reply::Ok(vec!["a".into(), "b".into()]),
            Reply::Ok(Vec::new()),
            Reply::Err("no such mapping".into()),
            Reply::shed("overloaded"),
            Reply::shed_after("tenant quota", 125),
            Reply::Unknown("node budget of 5 exhausted".into()),
        ] {
            let mut wire = Vec::new();
            reply.write_to(&mut wire).unwrap();
            assert_eq!(read_reply(&mut BufReader::new(&wire[..])).unwrap(), reply);
        }
        let mut wire = Vec::new();
        Reply::Err("two\nlines".into()).write_to(&mut wire).unwrap();
        assert_eq!(
            read_reply(&mut BufReader::new(&wire[..])).unwrap(),
            Reply::Err("two; lines".into())
        );
    }

    #[test]
    fn shed_retry_hint_is_wire_visible_and_optional() {
        let mut wire = Vec::new();
        Reply::shed_after("tenant `noisy` over quota", 250).write_to(&mut wire).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert_eq!(text, "SHED retry-after-ms=250 tenant `noisy` over quota\n");
        // A reason that merely *mentions* the key is not a hint.
        let reply = read_reply(&mut BufReader::new(&b"SHED plain overload\n"[..])).unwrap();
        assert_eq!(reply, Reply::shed("plain overload"));
        assert!(read_reply(&mut BufReader::new(&b"SHED retry-after-ms=soon x\n"[..])).is_err());
    }
}
