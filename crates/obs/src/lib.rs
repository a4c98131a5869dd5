#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-obs
//!
//! Zero-heavy-dependency observability substrate for the PPN workspace:
//!
//! * [`span`] — the one span primitive: `span!("train.step")` times a
//!   scope into a total/self-time report (a poor-man's profiler for the
//!   tensor hot paths) and, inside a sampled trace, also emits the span as a
//!   `trace.span` event;
//! * [`metrics`] — a process-wide registry of counters, gauges, and
//!   fixed-bucket histograms behind `parking_lot` locks;
//! * leveled structured logging ([`obs_info!`], [`event!`], …) with two
//!   sinks: human-readable stderr and machine-readable JSONL under
//!   `results/telemetry/`;
//! * [`manifest::RunManifest`] — provenance capture (binary, args, seed,
//!   git describe, timing, the final span report) so every table/figure is
//!   reproducible from its manifest;
//! * [`trace`] — what request tracing adds to spans: the `Copy`
//!   [`TraceContext`] that carries a trace across threads,
//!   `PPN_TRACE_SAMPLE=1/N` sampling, and the `trace.span` JSONL events the
//!   `ppn-trace` binary turns into flamegraphs, latency breakdowns, and
//!   waterfalls;
//! * [`prom`] — Prometheus text exposition of metric snapshots (cumulative
//!   `le` buckets, `+Inf`, `_sum`/`_count`) plus log-linear auto-bucketing,
//!   served by ppn-serve's `GET /metrics`.
//!
//! ## Configuration
//!
//! Everything is driven by the `PPN_OBS` environment variable, a
//! comma-separated token list parsed by [`ObsConfig::from_env_str`]:
//!
//! | token | effect |
//! |---|---|
//! | `off` | disable all sinks, spans, and metrics (near-zero overhead) |
//! | `error`/`warn`/`info`/`debug`/`trace` | stderr log level (default `info`) |
//! | `jsonl` | JSONL sink at `results/telemetry/<process>-<pid>.jsonl` |
//! | `jsonl=PATH` | JSONL sink at `PATH` |
//! | `quiet` | suppress the human stderr sink (JSONL unaffected) |
//! | `nospans` | disable span timing only |
//!
//! e.g. `PPN_OBS=debug,jsonl cargo run --bin table3_profitability`.
//!
//! The first telemetry call auto-initialises from the environment;
//! [`init`] / [`init_from_env`] make it explicit (and are idempotent).

/// The single audited wall-clock read point for non-obs crates.
pub mod clock;
/// Run manifests: provenance capture for experiment binaries.
pub mod manifest;
/// Counters, gauges (level/peak), histograms, and snapshots.
pub mod metrics;
/// Prometheus text exposition and log-linear auto-bucketing.
pub mod prom;
/// Log/event sinks: human-readable stderr and machine-readable JSONL.
pub mod sink;
/// Spans: aggregate wall-clock timing plus sampled trace events.
pub mod span;
/// Request-scoped distributed tracing with `PPN_TRACE_SAMPLE` sampling.
pub mod trace;

pub use manifest::RunManifest;
pub use metrics::{
    auto_histogram, counter, gauge, gauge_peak, histogram, metrics_snapshot, MetricsSnapshot,
};
pub use sink::{emit_event, emit_log, FieldValue};
pub use span::{span_report, span_stats, Span, SpanStat};
pub use trace::TraceContext;

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or surprising failures.
    Error = 1,
    /// Suspicious conditions that do not stop the run.
    Warn = 2,
    /// Run-level progress (default stderr level).
    Info = 3,
    /// Per-epoch / per-experiment detail.
    Debug = 4,
    /// Per-step / per-period firehose.
    Trace = 5,
}

impl Level {
    /// Lower-case name, as emitted into JSONL.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Parsed observability configuration. See the crate docs for the `PPN_OBS`
/// token grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Maximum level written to stderr (`None` silences the sink).
    pub stderr_level: Option<Level>,
    /// Maximum level written to the JSONL sink (`None` disables it).
    pub jsonl_level: Option<Level>,
    /// JSONL output path (`None` → `results/telemetry/<process>-<pid>.jsonl`).
    pub jsonl_path: Option<String>,
    /// Record span timings.
    pub spans: bool,
    /// Record metrics (counters/gauges/histograms).
    pub metrics: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            stderr_level: Some(Level::Info),
            jsonl_level: None,
            jsonl_path: None,
            spans: true,
            metrics: true,
        }
    }
}

impl ObsConfig {
    /// Fully-disabled configuration (`PPN_OBS=off`).
    pub fn off() -> Self {
        ObsConfig {
            stderr_level: None,
            jsonl_level: None,
            jsonl_path: None,
            spans: false,
            metrics: false,
        }
    }

    /// Parses a `PPN_OBS`-style token list.
    pub fn from_env_str(raw: &str) -> Self {
        let mut cfg = ObsConfig::default();
        for token in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token {
                "off" | "0" | "none" => return ObsConfig::off(),
                "error" => cfg.stderr_level = Some(Level::Error),
                "warn" => cfg.stderr_level = Some(Level::Warn),
                "info" => cfg.stderr_level = Some(Level::Info),
                "debug" => cfg.stderr_level = Some(Level::Debug),
                "trace" => cfg.stderr_level = Some(Level::Trace),
                "quiet" => cfg.stderr_level = None,
                "jsonl" => cfg.jsonl_level = Some(Level::Trace),
                "spans" => cfg.spans = true,
                "nospans" => cfg.spans = false,
                "nometrics" => cfg.metrics = false,
                other => {
                    if let Some(path) = other.strip_prefix("jsonl=") {
                        cfg.jsonl_level = Some(Level::Trace);
                        cfg.jsonl_path = Some(path.to_string());
                    } else {
                        eprintln!("[ppn-obs] ignoring unknown PPN_OBS token `{other}`");
                    }
                }
            }
        }
        cfg
    }

    /// Reads `PPN_OBS` from the process environment.
    pub fn from_env() -> Self {
        match std::env::var("PPN_OBS") {
            Ok(raw) => Self::from_env_str(&raw),
            Err(_) => ObsConfig::default(),
        }
    }

    fn max_level(&self) -> u8 {
        let s = self.stderr_level.map(|l| l as u8).unwrap_or(0);
        let j = self.jsonl_level.map(|l| l as u8).unwrap_or(0);
        s.max(j)
    }
}

static CONFIG: OnceLock<ObsConfig> = OnceLock::new();
/// Cached `max(stderr_level, jsonl_level)` for the fast path; 0 = all off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
/// Cached `spans` flag for the fast path.
static SPANS_ON: AtomicBool = AtomicBool::new(true);
/// Cached `metrics` flag for the fast path.
static METRICS_ON: AtomicBool = AtomicBool::new(true);

/// Installs an explicit configuration. First caller wins (subsequent calls
/// — including the implicit env-var initialisation — are no-ops), matching
/// the usual logger-initialisation contract.
pub fn init(cfg: ObsConfig) -> &'static ObsConfig {
    let installed = CONFIG.get_or_init(|| cfg);
    MAX_LEVEL.store(installed.max_level(), Ordering::Relaxed);
    SPANS_ON.store(installed.spans, Ordering::Relaxed);
    METRICS_ON.store(installed.metrics, Ordering::Relaxed);
    installed
}

/// Installs the configuration parsed from `PPN_OBS` (idempotent).
pub fn init_from_env() -> &'static ObsConfig {
    init(ObsConfig::from_env())
}

/// The active configuration, auto-initialising from the environment.
pub fn config() -> &'static ObsConfig {
    match CONFIG.get() {
        Some(c) => c,
        None => init_from_env(),
    }
}

/// Fast check: would an event at `level` reach any sink?
#[inline]
pub fn enabled(level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if max == u8::MAX {
        // Not initialised yet: initialise, then re-check.
        return level as u8 <= config().max_level();
    }
    level as u8 <= max
}

/// Fast check: is span timing active?
#[inline]
pub fn spans_enabled() -> bool {
    if MAX_LEVEL.load(Ordering::Relaxed) == u8::MAX {
        config();
    }
    SPANS_ON.load(Ordering::Relaxed)
}

/// Fast check: is the metrics registry active?
#[inline]
pub fn metrics_enabled() -> bool {
    if MAX_LEVEL.load(Ordering::Relaxed) == u8::MAX {
        config();
    }
    METRICS_ON.load(Ordering::Relaxed)
}

/// Times a lexical scope: `let _g = span!("train.step");` (see [`span`]).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Emits a structured event: `event!(Level::Trace, "train.step", step = i,
/// reward = r);`. Keys become JSONL fields; the stderr sink renders
/// `key=value` pairs.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::emit_event(
                $level,
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($value)),)*],
            );
        }
    };
}

/// `error`-level formatted log line.
#[macro_export]
macro_rules! obs_error {
    ($($fmt:tt)+) => {
        if $crate::enabled($crate::Level::Error) {
            $crate::emit_log($crate::Level::Error, &format!($($fmt)+));
        }
    };
}

/// `warn`-level formatted log line.
#[macro_export]
macro_rules! obs_warn {
    ($($fmt:tt)+) => {
        if $crate::enabled($crate::Level::Warn) {
            $crate::emit_log($crate::Level::Warn, &format!($($fmt)+));
        }
    };
}

/// `info`-level formatted log line.
#[macro_export]
macro_rules! obs_info {
    ($($fmt:tt)+) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::emit_log($crate::Level::Info, &format!($($fmt)+));
        }
    };
}

/// `debug`-level formatted log line.
#[macro_export]
macro_rules! obs_debug {
    ($($fmt:tt)+) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::emit_log($crate::Level::Debug, &format!($($fmt)+));
        }
    };
}

/// `trace`-level formatted log line.
#[macro_export]
macro_rules! obs_trace {
    ($($fmt:tt)+) => {
        if $crate::enabled($crate::Level::Trace) {
            $crate::emit_log($crate::Level::Trace, &format!($($fmt)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_grammar_parses_the_documented_matrix() {
        assert_eq!(ObsConfig::from_env_str("off"), ObsConfig::off());
        let c = ObsConfig::from_env_str("debug,jsonl=/tmp/t.jsonl,nospans");
        assert_eq!(c.stderr_level, Some(Level::Debug));
        assert_eq!(c.jsonl_level, Some(Level::Trace));
        assert_eq!(c.jsonl_path.as_deref(), Some("/tmp/t.jsonl"));
        assert!(!c.spans);
        let q = ObsConfig::from_env_str("quiet,jsonl");
        assert_eq!(q.stderr_level, None);
        assert_eq!(q.jsonl_level, Some(Level::Trace));
        // Unknown tokens are ignored, not fatal.
        let u = ObsConfig::from_env_str("info,bogus");
        assert_eq!(u.stderr_level, Some(Level::Info));
    }

    #[test]
    fn off_token_wins_regardless_of_position() {
        assert_eq!(ObsConfig::from_env_str("debug,jsonl,off"), ObsConfig::off());
    }

    #[test]
    fn levels_order_from_error_to_trace() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
        assert_eq!(Level::Warn.name(), "warn");
    }
}
