//! Request-scoped distributed tracing: trace/span ids, sampling, and JSONL
//! span events.
//!
//! Spans themselves are [`crate::span::Span`] guards: one guard both feeds
//! the aggregate span report and, when sampled, emits a `trace.span` event.
//! This module owns what tracing adds on top — the [`TraceContext`]
//! (trace id, span id) pair, the sampler, and the event format. A trace
//! root ([`crate::span::root`] / [`crate::span::detached`]) decides — once —
//! whether the whole trace is **sampled**; everything under an unsampled
//! root is inert (no ids, no emission), which is what keeps tracing inside
//! the observability overhead budget.
//!
//! Sampling is driven by the `PPN_TRACE_SAMPLE` environment variable:
//!
//! | value | effect |
//! |---|---|
//! | unset / `0` / `off` | tracing disabled (default) |
//! | `1` or `1/1` | every trace sampled |
//! | `1/N` (or bare `N`) | every `N`-th root span sampled |
//!
//! Sampled spans are emitted on close as `trace.span` events through the
//! standard sink (enable the JSONL sink with `PPN_OBS=jsonl=PATH` to
//! capture them), carrying hex `trace`/`span`/`parent` ids, the span name,
//! and `start_ns`/`dur_ns` relative to process start. The `ppn-trace`
//! binary turns these lines into flamegraphs, latency breakdowns, and
//! per-trace waterfalls.
//!
//! A [`TraceContext`] is `Copy`, so it carries a trace across threads:
//!
//! ```no_run
//! let request = ppn_obs::span::detached("serve.request");
//! let ctx = request.context(); // shipped to the worker thread
//! let enqueued = std::time::Instant::now();
//! // … on the worker, once the job is drained …
//! ctx.emit_span("serve.queue_wait", enqueued, std::time::Instant::now());
//! // `serve.request` emitted when `request` drops (if sampled)
//! ```

use crate::sink::instant_offset_ns;
use crate::{FieldValue, Level};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sentinel meaning "not yet initialised from the environment".
const SAMPLE_UNSET: u64 = u64::MAX;

/// 1/N sampling denominator; 0 disables tracing.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(SAMPLE_UNSET);
/// Root-span counter driving the every-Nth sampling decision.
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);
/// Id counter, mixed through splitmix64 for well-spread ids.
static ID_SEQ: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 finalizer: bijective, so ids from distinct counters never
/// collide within a process.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fresh non-zero id, unique within the process and seeded by pid so ids
/// from different processes are unlikely to collide in shared logs.
fn next_id() -> u64 {
    let seq = ID_SEQ.fetch_add(1, Ordering::Relaxed);
    let seed = (std::process::id() as u64) << 32;
    let id = splitmix64(seed ^ seq);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Parses a `PPN_TRACE_SAMPLE` value into the 1/N denominator (0 = off).
pub fn parse_sample_rate(raw: &str) -> u64 {
    let raw = raw.trim();
    if raw.is_empty() || raw == "off" || raw == "none" {
        return 0;
    }
    let denom = match raw.split_once('/') {
        Some((num, den)) => {
            if num.trim() != "1" {
                eprintln!("[ppn-obs] PPN_TRACE_SAMPLE `{raw}`: only 1/N fractions are supported");
                return 0;
            }
            den.trim().parse::<u64>().ok()
        }
        None => raw.parse::<u64>().ok(),
    };
    match denom {
        Some(n) => n,
        None => {
            eprintln!("[ppn-obs] ignoring unparseable PPN_TRACE_SAMPLE `{raw}`");
            0
        }
    }
}

/// The active sampling denominator (0 = tracing off), initialising from
/// `PPN_TRACE_SAMPLE` on first call.
pub fn sample_rate() -> u64 {
    let cur = SAMPLE_EVERY.load(Ordering::Relaxed);
    if cur != SAMPLE_UNSET {
        return cur;
    }
    let parsed = match std::env::var("PPN_TRACE_SAMPLE") {
        Ok(raw) => parse_sample_rate(&raw),
        Err(_) => 0,
    };
    // First writer wins; concurrent initialisers computed the same value.
    let _ =
        SAMPLE_EVERY.compare_exchange(SAMPLE_UNSET, parsed, Ordering::Relaxed, Ordering::Relaxed);
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Overrides the sampling denominator programmatically (tests, probes).
/// `0` disables tracing; `1` samples every trace.
pub fn set_sample_rate(every: u64) {
    SAMPLE_EVERY.store(every.min(SAMPLE_UNSET - 1), Ordering::Relaxed);
}

/// Every-Nth sampling decision for a new root span.
fn sample_next() -> bool {
    let every = sample_rate();
    if every == 0 {
        return false;
    }
    ROOT_SEQ.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
}

/// Coordinates for a new trace root: fresh ids when the sampler picks it,
/// inert otherwise (an unsampled root costs two relaxed atomic ops).
pub(crate) fn start_trace() -> TraceContext {
    if !sample_next() {
        return TraceContext::inert();
    }
    TraceContext { trace_id: next_id(), span_id: next_id() }
}

/// The (trace id, span id) coordinates children attach to. `Copy`, 16
/// bytes, safe to ship across threads inside queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span of one request; 0 = unsampled.
    trace_id: u64,
    /// The span new children report as their parent.
    pub(crate) span_id: u64,
}

impl TraceContext {
    /// An inert context: children and emissions are no-ops.
    pub fn inert() -> TraceContext {
        TraceContext { trace_id: 0, span_id: 0 }
    }

    /// Whether spans derived from this context will be emitted.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }

    /// The trace id as the 16-hex-digit string used in span events
    /// (`None` when unsampled).
    pub fn trace_id_hex(&self) -> Option<String> {
        self.is_sampled().then(|| format!("{:016x}", self.trace_id))
    }

    /// Coordinates for a child span of this one (inert when unsampled).
    pub(crate) fn new_child(&self) -> TraceContext {
        if !self.is_sampled() {
            return TraceContext::inert();
        }
        TraceContext { trace_id: self.trace_id, span_id: next_id() }
    }

    /// Emits a child span with explicit endpoints — for stages whose start
    /// and end are observed on different threads (e.g. queue wait, measured
    /// from the handler's enqueue instant to the batcher's drain instant).
    pub fn emit_span(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.is_sampled() {
            return;
        }
        let dur = end.saturating_duration_since(start);
        emit_span_event(self.new_child(), self.span_id, name, start, dur.as_nanos() as u64);
    }

    /// Attaches a key/value annotation to this context's span, emitted as a
    /// `trace.annotation` event — how facts that are data rather than
    /// timing (e.g. the model version that served a `/decide`) get stamped
    /// onto the span tree. No-op when unsampled.
    pub fn annotate(&self, key: &'static str, value: u64) {
        if !self.is_sampled() || !crate::enabled(Level::Trace) {
            return;
        }
        crate::emit_event(
            Level::Trace,
            "trace.annotation",
            &[
                ("trace", FieldValue::Str(format!("{:016x}", self.trace_id))),
                ("span", FieldValue::Str(format!("{:016x}", self.span_id))),
                ("key", FieldValue::Str(key.to_string())),
                ("value", FieldValue::U64(value)),
            ],
        );
    }
}

/// Writes one `trace.span` event through the sink (trace level, so it only
/// reaches sinks configured to accept the firehose — in practice the JSONL
/// sink).
pub(crate) fn emit_span_event(
    ctx: TraceContext,
    parent: u64,
    name: &str,
    start: Instant,
    dur_ns: u64,
) {
    if !crate::enabled(Level::Trace) {
        return;
    }
    crate::emit_event(
        Level::Trace,
        "trace.span",
        &[
            ("trace", FieldValue::Str(format!("{:016x}", ctx.trace_id))),
            ("span", FieldValue::Str(format!("{:016x}", ctx.span_id))),
            ("parent", FieldValue::Str(format!("{parent:016x}"))),
            ("name", FieldValue::Str(name.to_string())),
            ("start_ns", FieldValue::U64(instant_offset_ns(start))),
            ("dur_ns", FieldValue::U64(dur_ns)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sampling denominator and root counter are process globals, so
    /// tests that mutate them serialize on this lock.
    static SAMPLE_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn sample_rate_grammar() {
        assert_eq!(parse_sample_rate("0"), 0);
        assert_eq!(parse_sample_rate("off"), 0);
        assert_eq!(parse_sample_rate(""), 0);
        assert_eq!(parse_sample_rate("1"), 1);
        assert_eq!(parse_sample_rate("1/1"), 1);
        assert_eq!(parse_sample_rate("1/16"), 16);
        assert_eq!(parse_sample_rate(" 1/64 "), 64);
        assert_eq!(parse_sample_rate("64"), 64);
        assert_eq!(parse_sample_rate("2/3"), 0, "non-unit fractions are rejected");
        assert_eq!(parse_sample_rate("bogus"), 0);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let ids: Vec<u64> = (0..1_000).map(|_| next_id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert!(ids.iter().all(|&i| i != 0));
    }

    #[test]
    fn inert_spans_stay_inert() {
        let ctx = TraceContext::inert();
        assert!(!ctx.is_sampled());
        assert!(ctx.trace_id_hex().is_none());
        assert!(!ctx.new_child().is_sampled());
        // emit_span/annotate on an inert context are no-ops (must not
        // panic or emit).
        ctx.emit_span("y", Instant::now(), Instant::now());
        ctx.annotate("model_version", 7);
        // With sampling off, roots and their children stay unsampled.
        let _serial = SAMPLE_LOCK.lock();
        set_sample_rate(0);
        let root = crate::span::detached("t.off");
        assert!(!root.context().is_sampled());
        assert!(!root.child("t.off_child").context().is_sampled());
    }

    #[test]
    fn sampling_picks_every_nth_root() {
        let _serial = SAMPLE_LOCK.lock();
        set_sample_rate(4);
        let sampled = || crate::span::root("t.count").context().is_sampled();
        // Align to the start of a sampling period, then count.
        while !sampled() {}
        let hits = (0..16).filter(|_| sampled()).count();
        set_sample_rate(0);
        assert_eq!(hits, 4, "1/4 sampling over the 16 roots after an aligned hit");
    }

    #[test]
    fn child_spans_link_to_their_parent() {
        let _serial = SAMPLE_LOCK.lock();
        set_sample_rate(1);
        let root = crate::span::root("t.root");
        let request = crate::span::detached("t.request");
        set_sample_rate(0);
        // A lexical span opened inside a root joins its trace, and so does
        // the child of a detached span, each with a fresh span id.
        let pairs = [
            (root.context(), crate::span!("t.lexical").context()),
            (request.context(), request.child("t.respond").context()),
        ];
        for (parent, child) in pairs {
            assert!(parent.is_sampled() && child.is_sampled());
            assert_eq!(parent.trace_id_hex(), child.trace_id_hex());
            assert_ne!(parent.span_id, child.span_id);
        }
        assert_ne!(root.context().trace_id_hex(), request.context().trace_id_hex());
    }
}
