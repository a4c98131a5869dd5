//! The event-driven serving core: a single epoll loop (readiness via the
//! vendored `mio` shim) owning the listener and every connection state
//! machine, plus the batcher thread. This is the **only** ppn-serve module
//! sanctioned to spawn threads (enforced by the ppn-check `no-thread`
//! allowlist): exactly two per server — the event loop and the batcher —
//! regardless of connection count. The batcher runs each batched forward
//! pass on its own thread; the tensor kernels never fan out further.
//!
//! Admission control happens at two layers: the accept path refuses
//! connections beyond `max_conns` (best-effort `503`), and `/decide`
//! requests that find the bounded [`RequestQueue`] full are shed with
//! `429 Too Many Requests` + `Retry-After` instead of queueing without
//! bound. Connections are keep-alive with pipelining; idle connections are
//! reaped after `idle_timeout`, half-fed requests after `read_timeout`, so
//! shutdown is bounded even with slow-loris peers attached.

use crate::batcher::process_batch;
use crate::http::{format_response, Conn, HttpRequest};
use crate::queue::{reply_pair, QueuedRequest, RequestQueue};
use crate::registry::ModelRegistry;
use crate::{error_json, metrics, DecideRequest, RollbackRequest};
use mio::{Events, Interest, Poll, Token, Waker};
use ppn_obs::clock;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Bounded decision-queue capacity; overflow is shed with `429`
    /// (`PPN_SERVE_QUEUE_CAP`).
    pub queue_cap: usize,
    /// Most concurrent connections admitted; beyond it, accepts are
    /// refused with a best-effort `503` (`PPN_SERVE_MAX_CONNS`).
    pub max_conns: usize,
    /// Idle keep-alive connections are reaped after this long
    /// (`PPN_SERVE_IDLE_MS`).
    pub idle_timeout: Duration,
    /// A request arriving in fragments for longer than this is answered
    /// `408` and the connection closed (slow-loris guard).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 1024,
            max_conns: 1024,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// Defaults with the `PPN_SERVE_*` environment overrides applied
    /// (unparseable values fall back to the default silently — serving
    /// must not fail to start over a typo'd knob).
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Some(cap) = parse_env(std::env::var("PPN_SERVE_QUEUE_CAP").ok()) {
            cfg.queue_cap = cap;
        }
        if let Some(n) = parse_env(std::env::var("PPN_SERVE_MAX_CONNS").ok()) {
            cfg.max_conns = n;
        }
        if let Some(ms) = parse_env(std::env::var("PPN_SERVE_IDLE_MS").ok()) {
            cfg.idle_timeout = Duration::from_millis(ms);
        }
        cfg
    }
}

fn parse_env<T: std::str::FromStr>(raw: Option<String>) -> Option<T> {
    raw.and_then(|s| s.trim().parse().ok())
}

/// Largest forward-pass batch the batcher will assemble.
const MAX_BATCH: usize = 32;

/// Batcher stop-flag recheck slice while waiting on the queue condvar.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How long a queued decision may stay unanswered before its slot resolves
/// to `504` (and the batcher job is cancelled).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Event-loop poll tick: the upper bound on how stale a deadline check
/// (504 / 408 / idle reap) can be. Readiness and batch completions wake
/// the loop immediately; only deadline granularity rides on this.
const TICK: Duration = Duration::from_millis(25);

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const FIRST_CONN: usize = 2;

/// A running inference server.
///
/// [`Server::shutdown`] (or dropping the handle) stops accepting, lets
/// in-flight decisions finish (bounded by `REQUEST_TIMEOUT`), closes every
/// connection — idle ones immediately — drains the decision queue, and
/// joins both threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stop_batcher: Arc<AtomicBool>,
    waker: Arc<Waker>,
    queue: Arc<RequestQueue>,
    event_loop: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the event loop and the batcher thread, and
    /// returns immediately.
    ///
    /// The registry is taken as a shared `Arc` so callers (the stream
    /// updater, tests, admin tooling) can keep publishing and rolling back
    /// models on the same instance the server decides with — hot-swaps
    /// need no restart.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Touch every instrument up front so /metrics and shutdown
        // snapshots expose them even before the first request.
        metrics::requests();
        metrics::errors();
        metrics::shed();
        metrics::cancelled();
        metrics::model_swaps();
        metrics::latency_ms();
        metrics::batch_size();
        metrics::queue_depth_peak();
        metrics::connections();
        let queue = Arc::new(RequestQueue::new(cfg.queue_cap));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_batcher = Arc::new(AtomicBool::new(false));

        let poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poll, WAKER)?);

        let batcher = {
            let registry = Arc::clone(&registry);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop_batcher);
            let waker = Arc::clone(&waker);
            // Natural batching: the batcher forwards whatever is queued the
            // moment it wakes (up to `MAX_BATCH`) and never sleeps to gather
            // company. Requests that arrive during a forward pass queue up
            // and form the next batch, so batches grow with load on their own.
            std::thread::spawn(move || loop {
                // Condvar-notified: wakes the instant work arrives; the
                // timeout slice only bounds stop-flag latency.
                let jobs = queue.next_batch(MAX_BATCH, POLL_INTERVAL);
                if !jobs.is_empty() {
                    process_batch(&registry, jobs);
                    // Outcomes are in their reply slots: poke the event loop
                    // so it writes responses now rather than at the next tick.
                    let _ = waker.wake();
                } else if stop.load(Ordering::SeqCst) {
                    // The event loop has exited, so nothing is pushed any
                    // more: an empty batch means the queue is drained.
                    break;
                }
            })
        };

        let event_loop = {
            let registry = Arc::clone(&registry);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                run_event_loop(poll, listener, &waker, &registry, &queue, &cfg, &stop);
            })
        };
        ppn_obs::obs_info!("serve: listening on {addr} (event loop, queue cap {})", cfg.queue_cap);
        Ok(Server {
            addr,
            stop,
            stop_batcher,
            waker,
            queue,
            event_loop: Some(event_loop),
            batcher: Some(batcher),
        })
    }

    /// The bound socket address (resolves the ephemeral port of `addr: …:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, resolve in-flight decisions
    /// (bounded), close all connections, drain the queue, join threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        // The event loop has exited: every reply slot it owned is dropped,
        // so remaining queue jobs are answered into the void (and skipped
        // by the batcher's disconnect check). Let the batcher drain out.
        self.stop_batcher.store(true, Ordering::SeqCst);
        self.queue.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        ppn_obs::obs_info!("serve: {} shut down", self.addr);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.event_loop.is_some() || self.batcher.is_some() {
            self.stop();
        }
    }
}

/// One registered connection plus the interest currently installed in the
/// selector (so reregistration happens only on change).
struct ConnEntry {
    conn: Conn,
    interest: (bool, bool),
}

/// The event loop body: owns the selector, the listener, and every
/// connection state machine until shutdown completes.
fn run_event_loop(
    poll: Poll,
    listener: TcpListener,
    waker: &Waker,
    registry: &ModelRegistry,
    queue: &RequestQueue,
    cfg: &ServeConfig,
    stop: &AtomicBool,
) {
    let mut conns: BTreeMap<usize, ConnEntry> = BTreeMap::new();
    let mut events = Events::with_capacity(256);
    let mut next_token = FIRST_CONN;
    let mut listener = Some(listener);
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if poll.poll(&mut events, Some(TICK)).is_err() {
            ppn_obs::obs_warn!("serve: selector poll failed, shutting the event loop down");
            break;
        }
        let now = clock::now();
        let stopping = stop.load(Ordering::SeqCst);

        // Tokens whose sockets reported readiness this round.
        let mut readable: Vec<usize> = Vec::new();
        let mut accept_ready = false;
        for ev in events.iter() {
            match ev.token() {
                LISTENER => accept_ready = true,
                WAKER => waker.drain(),
                Token(t) => {
                    if ev.is_readable() || ev.is_closed() {
                        readable.push(t);
                    }
                    // Writable readiness needs no marker: every connection
                    // is pumped below regardless.
                }
            }
        }

        if accept_ready && !stopping {
            if let Some(l) = listener.as_ref() {
                accept_all(l, &poll, &mut conns, &mut next_token, cfg);
            }
        }

        // Read + parse + route on connections that reported readiness.
        for t in readable {
            let Some(entry) = conns.get_mut(&t) else { continue };
            if entry.conn.fill().is_err() {
                deregister_conn(&poll, entry);
                conns.remove(&t);
                continue;
            }
            loop {
                match entry.conn.next_request() {
                    Ok(Some(req)) => {
                        route_request(&mut entry.conn, req, registry, queue, stopping, now)
                    }
                    Ok(None) => break,
                    Err(e) => {
                        metrics::requests().inc();
                        metrics::errors().inc();
                        metrics::latency_ms().observe(0.0);
                        let body = error_json(&format!("malformed request: {e}"));
                        entry.conn.push_ready(
                            format_response(400, "application/json", &[], &body, false),
                            false,
                        );
                        entry.conn.begin_shutdown();
                        break;
                    }
                }
            }
        }

        if stopping {
            // First observation of the stop flag: close the accept path,
            // stop parsing new requests everywhere, and set the hard
            // drain deadline (in-flight decisions get REQUEST_TIMEOUT).
            if let Some(l) = listener.take() {
                let _ = poll.deregister(&l);
                drop(l);
                for entry in conns.values_mut() {
                    entry.conn.begin_shutdown();
                }
                drain_deadline = Some(now + REQUEST_TIMEOUT + Duration::from_secs(1));
            }
        }

        // Deadlines, pumping, interest maintenance, reaping — full sweep
        // (connection counts are modest; the sweep is cache-friendly and
        // keeps the logic free of dirty-set bookkeeping).
        let mut dead: Vec<usize> = Vec::new();
        for (&t, entry) in conns.iter_mut() {
            entry.conn.check_read_deadline(now, cfg.read_timeout);
            if entry.conn.pump(now).is_err() {
                dead.push(t);
                continue;
            }
            if entry.conn.finished() || entry.conn.idle_expired(now, cfg.idle_timeout) {
                dead.push(t);
                continue;
            }
            let want = (entry.conn.wants_read(), entry.conn.wants_write());
            if want != entry.interest {
                let interest = build_interest(want);
                if poll.reregister(entry.conn.stream(), Token(t), interest).is_err() {
                    dead.push(t);
                    continue;
                }
                entry.interest = want;
            }
        }
        for t in dead {
            if let Some(entry) = conns.get(&t) {
                deregister_conn(&poll, entry);
            }
            conns.remove(&t);
        }
        metrics::connections().set(conns.len() as f64);

        if stopping && listener.is_none() {
            let expired = drain_deadline.is_some_and(|d| now >= d);
            if conns.is_empty() || expired {
                if expired && !conns.is_empty() {
                    ppn_obs::obs_warn!(
                        "serve: drain deadline hit with {} connection(s) still open — force-closing",
                        conns.len()
                    );
                }
                break;
            }
        }
    }
    // Dropping `conns` drops every reply receiver: in-queue jobs for these
    // connections read as disconnected and are skipped by the batcher.
}

/// Builds a selector interest from `(read, write)` wants. A connection
/// waiting on nothing still registers READABLE so peer hangups surface.
fn build_interest(want: (bool, bool)) -> Interest {
    match want {
        (_, false) => Interest::READABLE,
        (false, true) => Interest::WRITABLE,
        (true, true) => Interest::READABLE.add(Interest::WRITABLE),
    }
}

/// Accepts every pending connection, applying the `max_conns` admission
/// bound (refused peers get a best-effort `503` and an immediate close).
fn accept_all(
    listener: &TcpListener,
    poll: &Poll,
    conns: &mut BTreeMap<usize, ConnEntry>,
    next_token: &mut usize,
    cfg: &ServeConfig,
) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if conns.len() >= cfg.max_conns {
                    metrics::shed().inc();
                    metrics::errors().inc();
                    let body = error_json("connection limit reached");
                    let _ = stream.write_all(&format_response(
                        503,
                        "application/json",
                        &["Retry-After: 1"],
                        &body,
                        false,
                    ));
                    continue;
                }
                let Ok(conn) = Conn::new(stream) else { continue };
                let t = *next_token;
                *next_token += 1;
                if poll.register(conn.stream(), Token(t), Interest::READABLE).is_ok() {
                    conns.insert(t, ConnEntry { conn, interest: (true, false) });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    metrics::connections().set(conns.len() as f64);
}

fn deregister_conn(poll: &Poll, entry: &ConnEntry) {
    let _ = poll.deregister(entry.conn.stream());
}

/// Routes one parsed request: immediate endpoints are answered in place;
/// `/decide` enters the bounded queue (or is shed with `429`).
fn route_request(
    conn: &mut Conn,
    req: HttpRequest,
    registry: &ModelRegistry,
    queue: &RequestQueue,
    stopping: bool,
    now: Instant,
) {
    metrics::requests().inc();
    let keep = req.keep_alive;
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/decide") => {
            let parsed: DecideRequest = match serde_json::from_slice(&req.body) {
                Ok(p) => p,
                Err(e) => {
                    respond_error(conn, 400, &format!("bad request body: {e}"), &[], keep, now);
                    return;
                }
            };
            if stopping {
                respond_error(conn, 503, "server is shutting down", &[], keep, now);
                return;
            }
            // Root span for the request's whole server-side lifetime,
            // detached because the connection holds it until the response
            // is rendered. Traced only when picked by `PPN_TRACE_SAMPLE`
            // every-Nth sampling; the context rides through the queue so the
            // batcher can attach the queue-wait / assemble / forward stage
            // spans to the same trace.
            let root = ppn_obs::span::detached("serve.request");
            let trace = root.context();
            let (tx, rx) = reply_pair();
            // Queue wait starts here, not at the poll round's `now`: the
            // round also decoded every request parsed before this one. The
            // 504 deadline and `serve.latency_ms` stay on the round's clock.
            let enqueued_at = clock::now();
            let job = QueuedRequest { request: parsed, reply: tx, enqueued_at, trace };
            match queue.try_push(job) {
                Ok(()) => conn.push_waiting(rx, now, now + REQUEST_TIMEOUT, root, keep),
                Err(_refused) => {
                    metrics::shed().inc();
                    respond_error(
                        conn,
                        429,
                        "decision queue is full, retry shortly",
                        &["Retry-After: 1"],
                        keep,
                        now,
                    );
                }
            }
        }
        ("GET", "/health") => {
            let mut s = serde::Ser::new();
            s.begin_obj();
            s.key("status");
            s.write_str("ok");
            s.key("models");
            registry.names().serialize(&mut s);
            s.end_obj();
            respond_ok(conn, "application/json", &s.finish(), keep, now);
        }
        ("GET", "/models") => match serde_json::to_string(&registry.status()) {
            Ok(body) => respond_ok(conn, "application/json", &body, keep, now),
            Err(e) => respond_error(conn, 500, &format!("status failed: {e}"), &[], keep, now),
        },
        ("POST", "/rollback") => {
            let parsed: RollbackRequest = match serde_json::from_slice(&req.body) {
                Ok(p) => p,
                Err(e) => {
                    respond_error(conn, 400, &format!("bad request body: {e}"), &[], keep, now);
                    return;
                }
            };
            match registry.rollback(&parsed.model, parsed.version) {
                Ok(()) => {
                    let mut s = serde::Ser::new();
                    s.begin_obj();
                    s.key("model");
                    s.write_str(&parsed.model);
                    s.key("live_version");
                    parsed.version.serialize(&mut s);
                    s.end_obj();
                    respond_ok(conn, "application/json", &s.finish(), keep, now);
                }
                Err(e) => respond_error(conn, 404, &e.to_string(), &[], keep, now),
            }
        }
        ("GET", "/metrics") => {
            let body = ppn_obs::metrics_snapshot().to_prometheus();
            respond_ok(conn, ppn_obs::prom::CONTENT_TYPE, &body, keep, now);
        }
        ("GET", "/metrics.json") => match serde_json::to_string(&ppn_obs::metrics_snapshot()) {
            Ok(body) => respond_ok(conn, "application/json", &body, keep, now),
            Err(e) => respond_error(conn, 500, &format!("snapshot failed: {e}"), &[], keep, now),
        },
        (m, "/decide" | "/health" | "/models" | "/rollback" | "/metrics" | "/metrics.json") => {
            respond_error(
                conn,
                405,
                &format!("method {m} not allowed on {}", req.path),
                &[],
                keep,
                now,
            );
        }
        (_, p) => {
            respond_error(conn, 404, &format!("no route {p}"), &[], keep, now);
        }
    }
}

/// Queues an immediate 200 and records its (sub-tick) latency — every
/// outcome shows up in `serve.latency_ms`, not just decisions.
fn respond_ok(conn: &mut Conn, content_type: &str, body: &str, keep_alive: bool, started: Instant) {
    metrics::latency_ms()
        .observe(clock::now().saturating_duration_since(started).as_secs_f64() * 1e3);
    conn.push_ready(format_response(200, content_type, &[], body, keep_alive), keep_alive);
}

/// Queues an error response, counting it and recording its latency.
fn respond_error(
    conn: &mut Conn,
    status: u16,
    message: &str,
    extra_headers: &[&str],
    keep_alive: bool,
    started: Instant,
) {
    metrics::errors().inc();
    metrics::latency_ms()
        .observe(clock::now().saturating_duration_since(started).as_secs_f64() * 1e3);
    let body = error_json(message);
    conn.push_ready(
        format_response(status, "application/json", extra_headers, &body, keep_alive),
        keep_alive,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_overrides_the_serve_limits_and_ignores_bad_values() {
        const VARS: [&str; 3] = ["PPN_SERVE_QUEUE_CAP", "PPN_SERVE_MAX_CONNS", "PPN_SERVE_IDLE_MS"];
        std::env::set_var("PPN_SERVE_QUEUE_CAP", "64");
        std::env::set_var("PPN_SERVE_MAX_CONNS", " 8 ");
        std::env::set_var("PPN_SERVE_IDLE_MS", "250");
        let set = ServeConfig::from_env();
        std::env::set_var("PPN_SERVE_QUEUE_CAP", "lots");
        std::env::set_var("PPN_SERVE_MAX_CONNS", "-1");
        std::env::set_var("PPN_SERVE_IDLE_MS", "1.5");
        let bad = ServeConfig::from_env();
        for var in VARS {
            std::env::remove_var(var);
        }

        assert_eq!(set.queue_cap, 64);
        assert_eq!(set.max_conns, 8, "surrounding whitespace is trimmed");
        assert_eq!(set.idle_timeout, Duration::from_millis(250));

        let default = ServeConfig::default();
        assert_eq!(bad.queue_cap, default.queue_cap);
        assert_eq!(bad.max_conns, default.max_conns);
        assert_eq!(bad.idle_timeout, default.idle_timeout);
    }
}
