#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-serve
//!
//! Micro-batching inference server for trained Portfolio Policy Networks:
//! the live counterpart of the offline backtester, exposing the batch-first
//! `Policy` decision path over HTTP.
//!
//! ## Architecture
//!
//! ```text
//!                 ┌────────────── event-loop thread (epoll) ──────────────┐
//! client ──TCP──▶ │ accept (≤max_conns, else 503)                        │
//! client ──TCP──▶ │ per-conn state machines: keep-alive + pipelining,    │
//!                 │ read/write deadlines, idle reaping                   │
//!                 │   POST /decide ──▶ bounded RequestQueue ── full? 429 │
//!                 └──────────────────────────│───────────────────────────┘
//!                                            │ drain(≤max_batch) + condvar wake
//!                                            ▼
//!                                     batcher thread ── act_batch (one forward
//!                                            │          pass on the ppn_tensor::par
//!                                            │          pool; disconnected jobs
//!                                            │          skipped pre-forward)
//! client ◀── ordered pipelined responses ◀───┘  (one-shot reply slots + waker)
//! ```
//!
//! Exactly **two** threads per server regardless of connection count: the
//! epoll event loop (via the vendored `mio` readiness shim) and the
//! batcher. Overload degrades by *shedding* — a full decision queue
//! answers `429 Too Many Requests` with `Retry-After`, a full connection
//! table answers `503` — never by unbounded queueing.
//!
//! Concurrent requests that arrive within a batching window are coalesced
//! into **one** batched forward pass ([`ppn_core::ppn::PolicyNet::act_batch`]).
//! Because every tensor kernel keeps its per-row accumulation order
//! independent of the batch dimension, a micro-batched decision is
//! **bit-identical** to the same request served alone — batching is purely a
//! throughput optimisation, never a numerics change (`tests/serve_e2e.rs`
//! asserts this end to end).
//!
//! Models come from [`ppn_core::persist`] checkpoints or live publication
//! via the [`registry::ModelRegistry`] — a concurrent *versioned* store:
//! `publish` hot-swaps the live pointer (epoch-style, so in-flight decides
//! keep their [`registry::PinnedModel`] pin and never observe a torn
//! model), `rollback` re-points at a retained older version, and every
//! `/decide` response carries the deciding version in its body and an
//! `X-PPN-Model-Version` header. Telemetry (request counter, queue-depth
//! gauges, `serve.shed` / `serve.cancelled` / `serve.model_swaps` counters,
//! `serve.latency_ms` / `serve.batch_size` histograms) flows through
//! `ppn-obs`. The HTTP layer
//! speaks minimal HTTP/1.1 over non-blocking `std::net` sockets driven by
//! an epoll readiness loop — the workspace is offline, so no external
//! server stack is used (readiness comes from the vendored `mio` shim).
//!
//! When request tracing is sampled in (`PPN_TRACE_SAMPLE=1/N`), each
//! `/decide` request carries a `ppn_obs::TraceContext` from its
//! `serve.request` root span through the queue and the batcher, which emits
//! `serve.queue_wait` / `serve.batch_assemble` / `serve.forward` /
//! `serve.respond` stage spans to the JSONL sink — render them with the
//! `ppn-trace` profiler.
//!
//! ## Endpoints
//!
//! | Route | Method | Body | Response |
//! |---|---|---|---|
//! | `/decide` | POST | [`DecideRequest`] JSON | [`DecideResponse`] JSON |
//! | `/health` | GET | — | `{"status":"ok","models":[…]}` |
//! | `/models` | GET | — | [`registry::ModelStatus`] list JSON |
//! | `/rollback` | POST | [`RollbackRequest`] JSON | `{"model":…,"live_version":…}` |
//! | `/metrics` | GET | — | Prometheus text exposition (v0.0.4) |
//! | `/metrics.json` | GET | — | `ppn_obs::MetricsSnapshot` JSON |

/// Micro-batch execution over drained request groups.
pub mod batcher;
/// HTTP/1.1 framing, the per-connection state machine, blocking clients.
pub mod http;
/// Bounded decision queue and one-shot reply slots.
pub mod queue;
/// Versioned concurrent model store with hot-swap and rollback.
pub mod registry;
/// The epoll event loop, batcher thread, and graceful shutdown.
pub mod server;

pub use registry::{
    ModelRegistry, ModelStatus, ModelVersion, PinnedModel, RegistryError, VersionInfo,
};
pub use server::{ServeConfig, Server};

use ppn_core::ppn::PolicyNet;

/// Body of a `POST /decide` request.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecideRequest {
    /// Registry name of the model that should decide.
    pub model: String,
    /// Flattened `assets × window × features` price window.
    pub window: Vec<f64>,
    /// Previous portfolio on the `assets + 1` simplex (cash at index 0).
    pub prev_action: Vec<f64>,
}

/// Body of a successful `POST /decide` response.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecideResponse {
    /// The model that produced the decision.
    pub model: String,
    /// Registry version of the model that produced the decision (also
    /// echoed in the `X-PPN-Model-Version` response header).
    pub model_version: ModelVersion,
    /// Portfolio weights on the `assets + 1` simplex, cash at index 0.
    pub weights: Vec<f64>,
    /// Size of the forward-pass batch this request was coalesced into.
    pub batch_size: usize,
}

/// Body of a `POST /rollback` admin request: re-point a model's live
/// pointer at a retained older version.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RollbackRequest {
    /// Registry name of the model to roll back.
    pub model: String,
    /// The retained version to restore.
    pub version: ModelVersion,
}

/// Why a decision request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested model name is not in the registry.
    UnknownModel(String),
    /// The request body does not fit the model's input contract.
    BadRequest(String),
    /// The server is draining and no longer decides.
    ShuttingDown,
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::UnknownModel(_) => 404,
            ServeError::BadRequest(_) => 400,
            ServeError::ShuttingDown => 503,
        }
    }

    /// Human-readable description, used as the JSON error message.
    pub fn message(&self) -> String {
        match self {
            ServeError::UnknownModel(name) => format!("unknown model '{name}'"),
            ServeError::BadRequest(why) => why.clone(),
            ServeError::ShuttingDown => "server is shutting down".to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for ServeError {}

/// Checks a request against `net`'s input contract before it may enter a
/// batch: exact window / previous-action lengths and finite values. This is
/// what keeps malformed requests from panicking the batched forward pass.
pub fn validate_request(net: &PolicyNet, req: &DecideRequest) -> Result<(), ServeError> {
    let cfg = &net.cfg;
    let want = cfg.assets * cfg.window * cfg.features;
    if req.window.len() != want {
        return Err(ServeError::BadRequest(format!(
            "window has {} values, model '{}' expects {want} (assets {} × window {} × features {})",
            req.window.len(),
            req.model,
            cfg.assets,
            cfg.window,
            cfg.features
        )));
    }
    if req.prev_action.len() != cfg.assets + 1 {
        return Err(ServeError::BadRequest(format!(
            "prev_action has {} values, model '{}' expects {} (assets + cash)",
            req.prev_action.len(),
            req.model,
            cfg.assets + 1
        )));
    }
    if req.window.iter().any(|v| !v.is_finite()) {
        return Err(ServeError::BadRequest("window contains non-finite values".to_string()));
    }
    if req.prev_action.iter().any(|v| !v.is_finite()) {
        return Err(ServeError::BadRequest("prev_action contains non-finite values".to_string()));
    }
    Ok(())
}

/// Builds the `{"error": …}` JSON body for an error response.
pub fn error_json(msg: &str) -> String {
    let mut s = serde::Ser::new();
    s.begin_obj();
    s.key("error");
    s.write_str(msg);
    s.end_obj();
    s.finish()
}

/// The server's `ppn-obs` instruments, shared by the event loop and the
/// batcher (handles are process-global by name).
pub mod metrics {
    /// Batch-size histogram bounds.
    pub const BATCH_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

    /// Total HTTP requests parsed (any route).
    pub fn requests() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("serve.requests")
    }

    /// Requests that ended in an error response.
    pub fn errors() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("serve.errors")
    }

    /// Work refused by admission control: `429` queue-full sheds and `503`
    /// connection-limit refusals.
    pub fn shed() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("serve.shed")
    }

    /// Queued jobs skipped by the batcher because their reply slot was
    /// already abandoned (client gone / request timed out) — forward-pass
    /// compute saved.
    pub fn cancelled() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("serve.cancelled")
    }

    /// Live-pointer changes in the model registry: overwrite publishes and
    /// rollbacks (a name's initial publication does not count).
    pub fn model_swaps() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("serve.model_swaps")
    }

    /// Currently open client connections (level gauge).
    pub fn connections() -> ppn_obs::metrics::Gauge {
        ppn_obs::gauge("serve.connections")
    }

    /// Current decision-queue depth (level gauge: last-written value).
    pub fn queue_depth() -> ppn_obs::metrics::Gauge {
        ppn_obs::gauge("serve.queue_depth")
    }

    /// High-water decision-queue depth since process start (peak gauge).
    pub fn queue_depth_peak() -> ppn_obs::metrics::Gauge {
        ppn_obs::gauge_peak("serve.queue_depth_peak")
    }

    /// End-to-end `/decide` latency (enqueue → reply), milliseconds, on the
    /// shared log-linear latency buckets (1µs–10s, 3 per decade).
    pub fn latency_ms() -> ppn_obs::metrics::Histogram {
        ppn_obs::auto_histogram("serve.latency_ms")
    }

    /// Forward-pass batch sizes assembled by the batcher.
    pub fn batch_size() -> ppn_obs::metrics::Histogram {
        ppn_obs::histogram("serve.batch_size", &BATCH_BOUNDS)
    }
}
