//! Open-loop `/decide` load generator.
//!
//! Requests are sent on a fixed schedule whether or not earlier ones have
//! been answered (independent users), over one pipelined keep-alive
//! connection. Two threads from the `ppn_tensor::par` pool drive it: the
//! sender sleeps until each request is due and writes it; the receiver
//! blocks on the socket and matches responses to requests in order. Each
//! latency is measured from when the request was *due*, so a stall also
//! charges the requests it delayed, and the sender records how late it ran.

use crate::stats;
use ppn_tensor::par;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest a read or write may block before the run counts as broken.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Most requests the sender writes in one syscall when it has fallen behind.
const MAX_BURST: usize = 64;
/// How long after its last send a schedule waits for the outstanding
/// answers before closing the connection; the unanswered ones are misses.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// One answered request.
pub struct Reply {
    /// Index of the request body in the corpus.
    pub idx: u32,
    /// Schedule offset (seconds from the start of the run) it was due at.
    pub due_s: f64,
    /// Due time to fully-read response, milliseconds.
    pub latency_ms: f64,
    /// HTTP status.
    pub status: u16,
    /// What a 200 answered, reduced to a fingerprint on the receiving
    /// thread so a long run keeps no response bodies in memory.
    pub answer: Option<Answer>,
}

/// The deciding model version and a hash of the `weights` array text of a
/// `/decide` response. Floats print in shortest round-trip form, so equal
/// text means bit-identical weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub version: u64,
    pub weights_fp: u64,
}

/// Fingerprints a `/decide` response body; `None` when it is not one.
pub fn fingerprint(body: &[u8]) -> Option<Answer> {
    let find = |pat: &[u8]| body.windows(pat.len()).position(|w| w == pat).map(|p| p + pat.len());
    let v = find(b"\"model_version\":")?;
    let digits = body[v..].iter().take_while(|b| b.is_ascii_digit()).count();
    let version = std::str::from_utf8(&body[v..v + digits]).ok()?.parse().ok()?;
    let w = find(b"\"weights\":[")?;
    let len = body[w..].iter().position(|&b| b == b']')?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &body[w..w + len] {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Some(Answer { version, weights_fp: h })
}

/// Everything one open-loop run observed.
pub struct Run {
    /// Requests written to the socket.
    pub sent: u64,
    /// Responses read, in request order.
    pub replies: Vec<Reply>,
    /// How late the sender wrote each request against its schedule, ms.
    pub lag_ms: Vec<f64>,
    /// `(seconds since start, requests outstanding)` sampled at each send.
    pub outstanding: Vec<(f64, f64)>,
    /// First transport error, if the connection broke.
    pub error: Option<String>,
}

impl Run {
    /// Latencies with every unanswered or non-200 request counted as a
    /// miss (`+inf`), so failures can only raise a percentile.
    pub fn latencies_with_misses(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .replies
            .iter()
            .map(|r| if r.status == 200 { r.latency_ms } else { f64::INFINITY })
            .collect();
        v.extend((self.replies.len() as u64..self.sent).map(|_| f64::INFINITY));
        v
    }

    /// Growth of the outstanding backlog across the run: mean outstanding
    /// count over the last quarter minus that over the second quarter (the
    /// first quarter is left out as ramp-up).
    pub fn backlog_growth(&self) -> f64 {
        let Some(&(end, _)) = self.outstanding.last() else { return 0.0 };
        let in_range = |lo: f64, hi: f64| {
            let v: Vec<f64> =
                self.outstanding.iter().filter(|(t, _)| *t >= lo && *t < hi).map(|p| p.1).collect();
            if v.is_empty() {
                0.0
            } else {
                stats::mean(&v)
            }
        };
        in_range(0.75 * end, end + 1.0) - in_range(0.25 * end, 0.5 * end)
    }
}

/// What to send and how fast.
pub struct Plan<'a> {
    /// Complete HTTP request bytes, one per corpus entry.
    pub corpus: &'a [Vec<u8>],
    /// Requests per second.
    pub rate: f64,
    /// Schedule length; fewer requests are sent if `stop` fires first.
    pub duration: Duration,
    /// Polled before each send; `true` ends the schedule early.
    pub stop: &'a (dyn Fn() -> bool + Sync),
    /// Called with each request's schedule offset (seconds) before it is
    /// sent, e.g. to switch request tracing on and off by time window.
    pub on_send: &'a (dyn Fn(f64) + Sync),
}

enum Half {
    Sent { sent: u64, lag_ms: Vec<f64>, outstanding: Vec<(f64, f64)>, error: Option<String> },
    Received { replies: Vec<Reply>, error: Option<String> },
}

/// Runs one open-loop schedule against `addr`.
pub fn open_loop(addr: SocketAddr, plan: &Plan<'_>) -> Run {
    let stream = TcpStream::connect(addr).expect("load generator connects");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(IO_TIMEOUT)).expect("set read timeout");
    stream.set_write_timeout(Some(IO_TIMEOUT)).expect("set write timeout");
    let reader = stream.try_clone().expect("clone socket for the receiver");
    let (tx, rx) = mpsc::channel::<(u32, f64)>();
    let tx = Mutex::new(Some(tx));
    let rx = Mutex::new(Some(rx));
    let writer = Mutex::new(Some(stream));
    let reader = Mutex::new(Some(reader));
    let received = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(1);

    let halves = par::with_threads(2, || {
        par::par_map(2, |half| {
            if half == 0 {
                let tx = tx.lock().expect("sender slot").take().expect("sender taken once");
                let w = writer.lock().expect("writer slot").take().expect("writer taken once");
                send_half(w, tx, plan, start, &received)
            } else {
                let rx = rx.lock().expect("receiver slot").take().expect("receiver taken once");
                let r = reader.lock().expect("reader slot").take().expect("reader taken once");
                receive_half(r, rx, start, &received)
            }
        })
    });
    let mut run = Run {
        sent: 0,
        replies: Vec::new(),
        lag_ms: Vec::new(),
        outstanding: Vec::new(),
        error: None,
    };
    for h in halves {
        match h {
            Half::Sent { sent, lag_ms, outstanding, error } => {
                run.sent = sent;
                run.lag_ms = lag_ms;
                run.outstanding = outstanding;
                run.error = run.error.or(error);
            }
            Half::Received { replies, error } => {
                run.replies = replies;
                run.error = run.error.or(error);
            }
        }
    }
    run
}

fn send_half(
    mut stream: TcpStream,
    tx: mpsc::Sender<(u32, f64)>,
    plan: &Plan<'_>,
    start: Instant,
    received: &AtomicU64,
) -> Half {
    let total = (plan.rate * plan.duration.as_secs_f64()).round().max(1.0) as u64;
    let interval = 1.0 / plan.rate;
    let n = plan.corpus.len() as u64;
    let mut lag_ms = Vec::with_capacity(total as usize);
    let mut outstanding = Vec::with_capacity(total as usize);
    let mut buf = Vec::new();
    let mut i = 0u64;
    let mut error = None;
    while i < total && !(plan.stop)() {
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let now = Instant::now();
        let now_s = now.saturating_duration_since(start).as_secs_f64();
        buf.clear();
        let mut burst = 0;
        while i < total && burst < MAX_BURST {
            let due_s = i as f64 * interval;
            if due_s > now_s && burst > 0 {
                break;
            }
            let idx = (i % n) as u32;
            (plan.on_send)(due_s);
            // Announce before writing so the receiver never reads a
            // response it has no schedule entry for.
            if tx.send((idx, due_s)).is_err() {
                break;
            }
            buf.extend_from_slice(&plan.corpus[idx as usize]);
            lag_ms.push((now_s - due_s).max(0.0) * 1e3);
            i += 1;
            burst += 1;
        }
        if let Err(e) = stream.write_all(&buf) {
            error = Some(format!("write: {e}"));
            break;
        }
        outstanding.push((now_s, (i - received.load(Ordering::Relaxed)) as f64));
    }
    // An overloaded server can hold pipelined requests for seconds; closing
    // the connection after the grace period ends the receiver's wait, so a
    // schedule takes its own length plus at most the grace.
    let deadline = Instant::now() + DRAIN_GRACE;
    while received.load(Ordering::Relaxed) < i && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    if received.load(Ordering::Relaxed) < i {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    Half::Sent { sent: lag_ms.len() as u64, lag_ms, outstanding, error }
}

fn receive_half(
    stream: TcpStream,
    rx: mpsc::Receiver<(u32, f64)>,
    start: Instant,
    received: &AtomicU64,
) -> Half {
    let mut replies = Vec::new();
    let mut responses = Responses::new(stream);
    let mut error = None;
    // `recv` fails once the sender has finished and every announced
    // request has been matched.
    while let Ok((idx, due_s)) = rx.recv() {
        match responses.next() {
            Ok((status, body)) => {
                let latency_ms = (start.elapsed().as_secs_f64() - due_s) * 1e3;
                let answer = if status == 200 { fingerprint(body) } else { None };
                replies.push(Reply { idx, due_s, latency_ms, status, answer });
                received.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    // Unblock a sender stuck on a full socket.
    let _ = responses.stream.shutdown(std::net::Shutdown::Both);
    Half::Received { replies, error }
}

/// Reads pipelined HTTP/1.1 responses (status line, headers and a
/// `Content-Length` body) off one connection.
struct Responses {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` belonging to the response returned last.
    consumed: usize,
}

impl Responses {
    fn new(stream: TcpStream) -> Self {
        Responses { stream, buf: Vec::with_capacity(1 << 16), consumed: 0 }
    }

    /// The next response's status and body (valid until the next call).
    fn next(&mut self) -> std::io::Result<(u16, &[u8])> {
        let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| bad("non-UTF-8 head"))?;
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("malformed status line"))?;
                let len: usize = head
                    .split("\r\n")
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.trim()
                            .eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())
                    })
                    .flatten()
                    .unwrap_or(0);
                let total = head_end + 4 + len;
                if self.buf.len() >= total {
                    self.consumed = total;
                    return Ok((status, &self.buf[head_end + 4..total]));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// What a closed-loop run observed.
pub struct Closed {
    /// Responses that passed the check.
    pub ok: u64,
    /// Responses that did not (wrong answers and refusals).
    pub failed: u64,
    /// Checked-correct completions in each whole `RATE_WINDOW_S` window.
    pub per_window: Vec<u64>,
    /// First transport error, if a connection broke.
    pub error: Option<String>,
}

/// Width of the windows a closed-loop run counts completions in, seconds.
pub const RATE_WINDOW_S: f64 = 0.25;

/// Saturation run: each of two connections keeps `window` pipelined
/// requests in flight, sending the next one as soon as a response arrives,
/// for `duration`. Completed requests per second is the server's capacity
/// with full batches; `2 * window` stays below the queue bound, so nothing
/// is shed. Every response goes through `check` as it arrives; none is
/// kept.
pub fn closed_loop(
    addr: SocketAddr,
    corpus: &[Vec<u8>],
    window: usize,
    duration: Duration,
    check: &(dyn Fn(&Reply) -> bool + Sync),
) -> Closed {
    let start = Instant::now();
    let deadline = start + duration;
    let halves = par::with_threads(2, || {
        par::par_map(2, |conn| {
            let mut stream = TcpStream::connect(addr).expect("load generator connects");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            stream.set_read_timeout(Some(IO_TIMEOUT)).expect("set read timeout");
            let mut responses = Responses::new(stream.try_clone().expect("clone socket"));
            let n = corpus.len();
            let mut next = conn * n / 2;
            let mut sent = std::collections::VecDeque::new();
            let (mut ok, mut failed) = (0u64, 0u64);
            let windows = (duration.as_secs_f64() / RATE_WINDOW_S) as usize;
            let mut per_window = vec![0u64; windows];
            let mut send =
                |stream: &mut TcpStream, sent: &mut std::collections::VecDeque<(u32, f64)>| {
                    let idx = next % n;
                    next += 1;
                    sent.push_back((idx as u32, start.elapsed().as_secs_f64()));
                    stream.write_all(&corpus[idx])
                };
            for _ in 0..window {
                if let Err(e) = send(&mut stream, &mut sent) {
                    return (ok, failed, per_window, Some(format!("write: {e}")));
                }
            }
            while let Some((idx, sent_s)) = sent.pop_front() {
                let reply = match responses.next() {
                    Ok((status, body)) => Reply {
                        idx,
                        due_s: sent_s,
                        latency_ms: (start.elapsed().as_secs_f64() - sent_s) * 1e3,
                        status,
                        answer: if status == 200 { fingerprint(body) } else { None },
                    },
                    Err(e) => return (ok, failed, per_window, Some(format!("read: {e}"))),
                };
                if check(&reply) {
                    ok += 1;
                    let w = (start.elapsed().as_secs_f64() / RATE_WINDOW_S) as usize;
                    if let Some(count) = per_window.get_mut(w) {
                        *count += 1;
                    }
                } else {
                    failed += 1;
                }
                if Instant::now() < deadline {
                    if let Err(e) = send(&mut stream, &mut sent) {
                        return (ok, failed, per_window, Some(format!("write: {e}")));
                    }
                }
            }
            (ok, failed, per_window, None)
        })
    });
    let mut closed = Closed { ok: 0, failed: 0, per_window: Vec::new(), error: None };
    for (ok, failed, per_window, error) in halves {
        closed.ok += ok;
        closed.failed += failed;
        closed.per_window.resize(per_window.len(), 0);
        closed.per_window.iter_mut().zip(per_window).for_each(|(a, b)| *a += b);
        closed.error = closed.error.or(error);
    }
    closed
}

/// The fixed rate ladder: rung `k` offers `LADDER_BASE * LADDER_STEP^k`
/// requests per second. Adjacent rungs differ by 5%, so a result that
/// flips by one rung moves by less than the metric's bound.
pub const LADDER_BASE: f64 = 250.0;
/// Ratio between adjacent ladder rungs.
pub const LADDER_STEP: f64 = 1.05;

/// Offered rate of ladder rung `k`.
pub fn rung_rate(k: u32) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}
