//! HTTP/1.1 framing and the per-connection state machine driven by the
//! event loop. The workspace is offline, so no external HTTP stack is
//! available; this keeps the wire format auditable.
//!
//! Server side: [`parse_request`] is an *incremental* parser over a growing
//! byte buffer (returns `Ok(None)` until one full request is buffered,
//! enforcing the head/body caps exactly), and [`Conn`] owns one
//! non-blocking socket plus its read buffer, pipelined response slots, and
//! write buffer. Responses always leave in request order, keep-alive is the
//! HTTP/1.1 default (honouring `Connection: close` and HTTP/1.0
//! semantics), and every in-flight `/decide` slot carries its own deadline
//! so a stuck decision becomes a `504` instead of a wedged connection.
//!
//! Client side: [`http_request`] stays the blocking one-shot helper
//! (`Connection: close`) and [`HttpClient`] is a persistent keep-alive
//! client able to pipeline, used by the e2e tests.

use crate::queue::ReplyReceiver;
use crate::{error_json, metrics};
use ppn_obs::Span;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Hard cap on request-head bytes, including the `\r\n\r\n` terminator
/// (enforced exactly: a head that would exceed this is refused before any
/// further read).
pub const MAX_HEAD: usize = 16 * 1024;
/// Hard cap on body bytes (from `Content-Length`, checked before the body
/// is buffered).
pub const MAX_BODY: usize = 8 * 1024 * 1024;
/// Most unanswered pipelined requests a single connection may have in
/// flight before the event loop stops reading from it (backpressure).
pub const MAX_PIPELINE: usize = 128;

/// A parsed inbound request.
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), uppercased by convention.
    pub method: String,
    /// Request target path, e.g. `/decide`.
    pub path: String,
    /// Raw body bytes (`Content-Length`-framed).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after this exchange
    /// (HTTP/1.1 default true, `Connection: close` or HTTP/1.0 false).
    pub keep_alive: bool,
}

fn proto_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Tries to parse one complete HTTP/1.1 request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full head+body is
/// buffered (`consumed` bytes belong to it; any remainder is the next
/// pipelined request), `Ok(None)` when more bytes are needed, and `Err`
/// on a malformed or cap-violating request (the connection cannot resync
/// and must close after answering 400).
pub fn parse_request(buf: &[u8]) -> io::Result<Option<(HttpRequest, usize)>> {
    let window = &buf[..buf.len().min(MAX_HEAD)];
    let Some(head_end) = find_head_end(window) else {
        // No terminator within the cap: either wait for more bytes or, if
        // the cap is already saturated, refuse — exactly at MAX_HEAD, never
        // a chunk beyond it.
        if buf.len() >= MAX_HEAD {
            return Err(proto_err("request head too large"));
        }
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| proto_err("non-utf8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() {
        return Err(proto_err("malformed request line"));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    let mut keep_alive = !version.eq_ignore_ascii_case("HTTP/1.0");
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim();
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().map_err(|_| proto_err("unparseable content-length"))?;
            } else if k.eq_ignore_ascii_case("connection") {
                if v.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if v.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(proto_err("request body too large"));
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    // Exactly content_length bytes belong to this request — trailing bytes
    // stay in the buffer as the next pipelined request, never truncated.
    let body = buf[body_start..total].to_vec();
    Ok(Some((HttpRequest { method, path, body, keep_alive }, total)))
}

/// Reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Renders a complete response with explicit `Content-Type`, optional
/// extra header lines (e.g. `Retry-After: 1`), and the keep-alive
/// decision encoded in the `Connection` header.
pub fn format_response(
    status: u16,
    content_type: &str,
    extra_headers: &[&str],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

/// An in-flight `/decide` awaiting its batched outcome.
struct WaitingSlot {
    rx: ReplyReceiver,
    started: Instant,
    deadline: Instant,
    /// The request's `serve.request` root span; dropped (ending the span)
    /// when the response is rendered.
    root: Span,
    keep_alive: bool,
}

/// One pipelined response position: either bytes ready to send or a
/// decision still in flight. Responses leave strictly in request order.
enum Slot {
    Ready { bytes: Vec<u8>, keep_alive: bool },
    Waiting(Box<WaitingSlot>),
}

/// State machine for one client connection owned by the event loop: a
/// non-blocking socket, the growing read buffer, ordered response slots
/// (keep-alive pipelining), and the write buffer.
pub struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    pending: VecDeque<Slot>,
    /// EOF observed on the read side.
    peer_closed: bool,
    /// Stop parsing further requests (a `Connection: close` response is
    /// queued, a parse error poisoned the stream, or shutdown began).
    no_more_requests: bool,
    /// When the oldest bytes of a still-incomplete request arrived; drives
    /// the slow-read (slow-loris) deadline.
    partial_since: Option<Instant>,
    /// Last moment bytes moved in either direction; drives idle reaping.
    last_activity: Instant,
}

impl Conn {
    /// Wraps a freshly accepted stream (switched to non-blocking,
    /// `TCP_NODELAY` for small-response latency).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Nagle off: responses are small JSON bodies where the 40ms delayed
        // -ACK interaction would dominate latency. Best effort.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            peer_closed: false,
            no_more_requests: false,
            partial_since: None,
            last_activity: ppn_obs::clock::now(),
        })
    }

    /// The underlying socket, for selector registration.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads until `WouldBlock`/EOF, growing the read buffer. Returns `Err`
    /// only on fatal transport errors (caller drops the connection).
    pub fn fill(&mut self) -> io::Result<()> {
        if self.saturated() || self.no_more_requests {
            return Ok(());
        }
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    if self.read_buf.is_empty() {
                        self.partial_since = Some(ppn_obs::clock::now());
                    }
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = ppn_obs::clock::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Pulls the next complete request out of the read buffer, if one is
    /// fully buffered. `Err` means the stream is unparseable (the caller
    /// answers 400 and marks the connection for close).
    pub fn next_request(&mut self) -> io::Result<Option<HttpRequest>> {
        if self.no_more_requests || self.saturated() {
            return Ok(None);
        }
        match parse_request(&self.read_buf)? {
            Some((req, consumed)) => {
                self.read_buf.drain(..consumed);
                self.partial_since =
                    if self.read_buf.is_empty() { None } else { Some(ppn_obs::clock::now()) };
                if !req.keep_alive {
                    // Everything after a Connection: close request is
                    // ignored by contract.
                    self.no_more_requests = true;
                }
                Ok(Some(req))
            }
            None => Ok(None),
        }
    }

    /// Queues an already-rendered response at the next pipeline position.
    pub fn push_ready(&mut self, bytes: Vec<u8>, keep_alive: bool) {
        self.pending.push_back(Slot::Ready { bytes, keep_alive });
    }

    /// Queues an in-flight `/decide` at the next pipeline position; the
    /// outcome (or `deadline` expiring into a 504) fills it later.
    pub fn push_waiting(
        &mut self,
        rx: ReplyReceiver,
        started: Instant,
        deadline: Instant,
        root: Span,
        keep_alive: bool,
    ) {
        self.pending.push_back(Slot::Waiting(Box::new(WaitingSlot {
            rx,
            started,
            deadline,
            root,
            keep_alive,
        })));
    }

    /// Resolves finished/timed-out decision slots, moves ordered ready
    /// responses into the write buffer, and writes as much as the socket
    /// accepts. Fatal transport errors bubble up (caller drops the conn).
    pub fn pump(&mut self, now: Instant) -> io::Result<()> {
        // 1. Resolve Waiting slots anywhere in the pipeline: an outcome
        //    that arrived, or a deadline that passed (504 — dropping the
        //    receiver cancels the batcher job).
        for slot in self.pending.iter_mut() {
            let Slot::Waiting(w) = slot else { continue };
            if let Some(outcome) = w.rx.try_take() {
                let _respond = w.root.child("serve.respond");
                metrics::latency_ms().observe(ms_between(w.started, now));
                let (status, body, model_version) = match outcome {
                    Ok(resp) => {
                        let version = resp.model_version;
                        match serde_json::to_string(&resp) {
                            Ok(body) => (200, body, Some(version)),
                            Err(e) => {
                                metrics::errors().inc();
                                (
                                    500,
                                    error_json(&format!("response serialization failed: {e}")),
                                    None,
                                )
                            }
                        }
                    }
                    // Routing/validation errors were counted by the batcher.
                    Err(e) => (e.status(), error_json(&e.message()), None),
                };
                // Stamp the deciding model version into the response header
                // and the request's trace, so swaps are attributable from
                // either the wire or the flamegraph.
                let version_header = model_version.map(|v| format!("X-PPN-Model-Version: {v}"));
                if let Some(v) = model_version {
                    w.root.context().annotate("model_version", v);
                }
                let extra: Vec<&str> = version_header.as_deref().into_iter().collect();
                let keep_alive = w.keep_alive;
                let bytes = format_response(status, "application/json", &extra, &body, keep_alive);
                *slot = Slot::Ready { bytes, keep_alive };
            } else if now >= w.deadline {
                metrics::errors().inc();
                metrics::latency_ms().observe(ms_between(w.started, now));
                let keep_alive = w.keep_alive;
                let bytes = format_response(
                    504,
                    "application/json",
                    &[],
                    &error_json("decision timed out"),
                    keep_alive,
                );
                *slot = Slot::Ready { bytes, keep_alive };
            }
        }
        // 2. Move the ready prefix into the write buffer, preserving
        //    request order.
        while let Some(Slot::Ready { .. }) = self.pending.front() {
            let Some(Slot::Ready { bytes, keep_alive }) = self.pending.pop_front() else {
                break;
            };
            self.write_buf.extend_from_slice(&bytes);
            if !keep_alive {
                self.no_more_requests = true;
            }
        }
        // 3. Write until the socket pushes back.
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped")),
                Ok(n) => {
                    self.written += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// Applies the slow-read deadline: a request that has been arriving in
    /// fragments for longer than `read_timeout` is answered `408` and the
    /// connection marked for close. Returns true if it fired.
    pub fn check_read_deadline(&mut self, now: Instant, read_timeout: std::time::Duration) -> bool {
        let Some(since) = self.partial_since else { return false };
        if now.duration_since(since) < read_timeout {
            return false;
        }
        metrics::requests().inc();
        metrics::errors().inc();
        metrics::latency_ms().observe(ms_between(since, now));
        let body = error_json("request header/body read timed out");
        self.push_ready(format_response(408, "application/json", &[], &body, false), false);
        self.read_buf.clear();
        self.partial_since = None;
        self.no_more_requests = true;
        true
    }

    /// True when the connection has been completely idle (no buffered
    /// bytes, no in-flight work) for longer than `idle_timeout`.
    pub fn idle_expired(&self, now: Instant, idle_timeout: std::time::Duration) -> bool {
        self.pending.is_empty()
            && self.read_buf.is_empty()
            && self.write_buf.len() == self.written
            && now.duration_since(self.last_activity) >= idle_timeout
    }

    /// Stops parsing new requests (shutdown); in-flight slots still resolve
    /// and flush.
    pub fn begin_shutdown(&mut self) {
        self.no_more_requests = true;
    }

    /// True when unanswered pipelined requests hit [`MAX_PIPELINE`] — the
    /// event loop stops reading from this connection until slots drain.
    pub fn saturated(&self) -> bool {
        self.pending.len() >= MAX_PIPELINE
    }

    /// Whether the event loop should keep READABLE interest registered.
    pub fn wants_read(&self) -> bool {
        !self.peer_closed && !self.no_more_requests && !self.saturated()
    }

    /// Whether unflushed response bytes are waiting on socket writability.
    pub fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// True when the connection is finished and should be dropped: all
    /// responses flushed and either side has decided to close.
    pub fn finished(&self) -> bool {
        let flushed = self.pending.is_empty() && self.write_buf.len() == self.written;
        flushed && (self.peer_closed || self.no_more_requests)
    }
}

/// Milliseconds between two instants (saturating at 0 for out-of-order
/// clock reads).
fn ms_between(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Blocking clients (tests, tools, soak bench)
// ---------------------------------------------------------------------------

/// Blocking one-shot client: sends `method path` with a JSON `body` over a
/// fresh `Connection: close` connection and returns `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| proto_err("malformed status line"))?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// Blocking persistent keep-alive client: one TCP connection carrying many
/// requests, with optional pipelining ([`HttpClient::send`] several times,
/// then [`HttpClient::recv`] the responses in order).
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One parsed client-side response.
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Raw header block (for asserting on headers like `Retry-After`).
    pub headers: String,
}

impl HttpClient {
    /// Opens a persistent connection to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(HttpClient { stream, buf: Vec::new() })
    }

    /// Writes one keep-alive request without waiting for the response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())
    }

    /// Blocks until one complete response is read, consuming it from the
    /// connection (pipelined successors stay buffered for the next call).
    pub fn recv(&mut self) -> io::Result<HttpResponse> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let headers = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
                let status: u16 = headers
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| proto_err("malformed response status line"))?;
                let content_length: usize = headers
                    .split("\r\n")
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse())
                    })
                    .transpose()
                    .map_err(|_| proto_err("unparseable response content-length"))?
                    .unwrap_or(0);
                let total = head_end + 4 + content_length;
                if self.buf.len() >= total {
                    let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).to_string();
                    self.buf.drain(..total);
                    return Ok(HttpResponse { status, body, headers });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(proto_err("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Send + recv one request/response pair.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.send(method, path, body)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_bytes(body: &str, extra_headers: &str) -> Vec<u8> {
        format!(
            "POST /decide HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn parser_waits_for_split_crlf_across_chunks() {
        // Feed the request byte by byte: the parser must return None at
        // every prefix — including splits inside the \r\n\r\n terminator —
        // and parse exactly once at the end.
        let raw = req_bytes("{\"x\":1}", "");
        for cut in 1..raw.len() {
            assert!(
                parse_request(&raw[..cut]).expect("prefix must not error").is_none(),
                "cut at {cut} must be incomplete"
            );
        }
        let (req, consumed) = parse_request(&raw).unwrap().expect("full request parses");
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/decide");
        assert_eq!(req.body, b"{\"x\":1}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parser_handles_zero_content_length_and_missing_header() {
        let raw = b"GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
        let (req, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert!(req.body.is_empty());

        let raw = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n";
        let (req, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert!(req.body.is_empty(), "missing content-length means empty body");
    }

    #[test]
    fn parser_refuses_huge_content_length_before_buffering() {
        let raw =
            format!("POST /decide HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse_request(raw.as_bytes()).is_err());
        // Unparseable lengths are refused too.
        let raw = b"POST /decide HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        assert!(parse_request(raw).is_err());
    }

    #[test]
    fn parser_enforces_head_cap_exactly() {
        // A head that never terminates: fine below MAX_HEAD, refused at it.
        let mut raw = b"POST /decide HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(MAX_HEAD - 1, b'a');
        assert!(parse_request(&raw).expect("below cap still incomplete").is_none());
        raw.resize(MAX_HEAD, b'a');
        assert!(parse_request(&raw).is_err(), "cap must bind exactly at MAX_HEAD");
        // A terminated head within the cap parses even with more bytes
        // appended after it.
        let ok = req_bytes("xy", "");
        let mut with_extra = ok.clone();
        with_extra.extend_from_slice(&vec![b'z'; 4096]);
        let (_, consumed) = parse_request(&with_extra).unwrap().unwrap();
        assert_eq!(consumed, ok.len());
    }

    #[test]
    fn parser_leaves_pipelined_bytes_untouched() {
        let first = req_bytes("{\"n\":1}", "");
        let second = req_bytes("{\"n\":22}", "");
        let mut buf = first.clone();
        buf.extend_from_slice(&second);
        let (req1, c1) = parse_request(&buf).unwrap().unwrap();
        assert_eq!(c1, first.len());
        assert_eq!(req1.body, b"{\"n\":1}", "body must not swallow pipelined bytes");
        let (req2, c2) = parse_request(&buf[c1..]).unwrap().unwrap();
        assert_eq!(c2, second.len());
        assert_eq!(req2.body, b"{\"n\":22}");
    }

    #[test]
    fn parser_connection_and_version_semantics() {
        let (req, _) = parse_request(&req_bytes("x", "Connection: close\r\n")).unwrap().unwrap();
        assert!(!req.keep_alive);
        let raw = b"GET /health HTTP/1.0\r\nHost: t\r\n\r\n";
        let (req, _) = parse_request(raw).unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let raw = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let (req, _) = parse_request(raw).unwrap().unwrap();
        assert!(req.keep_alive, "explicit keep-alive overrides the 1.0 default");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_request(b"\r\n\r\n").is_err(), "empty request line");
        assert!(parse_request(b"ONLYMETHOD\r\n\r\n").is_err(), "missing path");
        let mut nonutf8 = b"POST /p HTTP/1.1\r\nX: ".to_vec();
        nonutf8.extend_from_slice(&[0xff, 0xfe]);
        nonutf8.extend_from_slice(b"\r\n\r\n");
        assert!(parse_request(&nonutf8).is_err(), "non-utf8 head");
    }

    #[test]
    fn format_response_encodes_connection_and_extra_headers() {
        let out = format_response(429, "application/json", &["Retry-After: 1"], "{}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        let out = format_response(200, "text/plain", &[], "hi", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhi"), "{text}");
    }
}
