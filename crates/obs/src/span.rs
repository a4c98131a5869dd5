//! The one span primitive: a [`Span`] guard times a scope into the
//! aggregate report and, when its trace is sampled, emits a `trace.span`
//! event (see [`crate::trace`]).
//!
//! `let _g = span!("train.step");` times the enclosing scope. Each thread
//! keeps a stack of open spans; a span's registry key is the `/`-joined
//! path of names from the stack root (`experiment.run/train.step/
//! net.forward`). On close, the elapsed time is added to the span's own
//! total *and* to its parent's child-time, so the report can show
//! **self-time** (total minus children). Each stack frame also holds the
//! span's [`TraceContext`], so a `span!` opened inside a sampled span joins
//! its trace. [`root`] starts a new trace on the stack (`train.step`);
//! [`detached`] starts one off it, for a span held in a data structure that
//! closes out of order (`serve.request`).
//!
//! With span timing off (`PPN_OBS=off` or `nospans`) and no sampled span
//! open, a span costs one relaxed atomic load and a thread-local check; see
//! the `obs_overhead` test in `ppn-bench`.

use crate::trace::{self, TraceContext};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

#[derive(Default, Clone)]
struct Node {
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

static REGISTRY: Mutex<Option<HashMap<String, Node>>> = Mutex::new(None);

/// The open lexical spans of one thread: their `/`-joined path (empty while
/// span timing is off) and, innermost last, each span's path length before
/// it was pushed plus its trace context.
struct Stack {
    path: String,
    frames: Vec<(usize, TraceContext)>,
}

thread_local! {
    static STACK: RefCell<Stack> =
        const { RefCell::new(Stack { path: String::new(), frames: Vec::new() }) };
}

/// RAII guard for one timed interval: closing it (drop or [`Span::close`])
/// records the aggregate entry and, when sampled, emits the trace event.
#[must_use = "a span closes when its guard drops"]
pub struct Span(Option<Open>);

struct Open {
    name: &'static str,
    start: Instant,
    /// This span's own trace coordinates (inert when unsampled).
    ctx: TraceContext,
    parent_id: u64,
    /// `None` for a lexical span (its path is on the thread stack). A
    /// detached span owns its path, whose first `parent_len` bytes are the
    /// parent's path.
    detached: Option<(String, usize)>,
}

/// Opens a lexical span named `name` (prefer the `span!` macro).
#[inline]
pub fn enter(name: &'static str) -> Span {
    open(name, None, false)
}

/// [`enter`] with a start instant the caller already read, so one interval
/// feeds both the span and the caller (pair with [`Span::close`]).
pub fn enter_at(name: &'static str, start: Instant) -> Span {
    open(name, Some(start), false)
}

/// Opens a lexical span that starts a new trace (every-Nth
/// `PPN_TRACE_SAMPLE` sampling); its path still nests under open spans.
pub fn root(name: &'static str) -> Span {
    open(name, None, true)
}

fn open(name: &'static str, start: Option<Instant>, new_trace: bool) -> Span {
    let timed = crate::spans_enabled();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.frames.last().map_or(TraceContext::inert(), |f| f.1);
        let (ctx, parent_id) = if new_trace {
            (trace::start_trace(), 0)
        } else {
            (parent.new_child(), parent.span_id)
        };
        if !timed && !ctx.is_sampled() {
            return Span(None);
        }
        let prev = stack.path.len();
        if timed {
            if prev > 0 {
                stack.path.push('/');
            }
            stack.path.push_str(name);
        }
        stack.frames.push((prev, ctx));
        let start = start.unwrap_or_else(Instant::now);
        Span(Some(Open { name, start, ctx, parent_id, detached: None }))
    })
}

/// Opens a detached span that starts a new trace (sampled like [`root`]).
/// It lives off the thread stack, so it can be stored, moved and closed in
/// any order; its aggregate path is `name` alone.
pub fn detached(name: &'static str) -> Span {
    let path = if crate::spans_enabled() { name.to_string() } else { String::new() };
    open_detached(name, path, 0, trace::start_trace(), 0)
}

fn open_detached(
    name: &'static str,
    path: String,
    parent_len: usize,
    ctx: TraceContext,
    parent_id: u64,
) -> Span {
    if path.is_empty() && !ctx.is_sampled() {
        return Span(None);
    }
    let (start, detached) = (Instant::now(), Some((path, parent_len)));
    Span(Some(Open { name, start, ctx, parent_id, detached }))
}

impl Span {
    /// Opens a detached child of this detached span: aggregated under its
    /// path and, when it is sampled, part of its trace. (Inside a lexical
    /// span, open children with `span!`; this child would be trace-only.)
    pub fn child(&self, name: &'static str) -> Span {
        let Some(open) = &self.0 else { return Span(None) };
        let parent = open.detached.as_ref().map_or("", |(path, _)| path.as_str());
        let path = if parent.is_empty() { String::new() } else { format!("{parent}/{name}") };
        open_detached(name, path, parent.len(), open.ctx.new_child(), open.ctx.span_id)
    }

    /// This span's trace coordinates, for stages observed on other threads
    /// ([`TraceContext::emit_span`], [`TraceContext::annotate`]).
    pub fn context(&self) -> TraceContext {
        self.0.as_ref().map_or(TraceContext::inert(), |o| o.ctx)
    }

    /// Closes the span now and returns the end instant (read even when the
    /// span is inert), so the caller can reuse the interval.
    pub fn close(mut self) -> Instant {
        let end = Instant::now();
        if let Some(open) = self.0.take() {
            open.finish(end);
        }
        end
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            open.finish(Instant::now());
        }
    }
}

impl Open {
    fn finish(self, end: Instant) {
        let dur_ns = end.saturating_duration_since(self.start).as_nanos() as u64;
        if self.ctx.is_sampled() {
            trace::emit_span_event(self.ctx, self.parent_id, self.name, self.start, dur_ns);
        }
        match self.detached {
            Some((path, parent_len)) => {
                record(&path, path.get(..parent_len).unwrap_or_default(), dur_ns)
            }
            None => STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let Some((prev, _)) = stack.frames.pop() else { return };
                record(&stack.path, stack.path.get(..prev).unwrap_or_default(), dur_ns);
                stack.path.truncate(prev);
            }),
        }
    }
}

/// Adds one closed interval to `path` and to `parent`'s child time. An
/// empty path means span timing is off.
fn record(path: &str, parent: &str, dur_ns: u64) {
    if path.is_empty() {
        return;
    }
    let mut reg = REGISTRY.lock();
    let map = reg.get_or_insert_with(HashMap::new);
    let node = map.entry(path.to_string()).or_default();
    node.count += 1;
    node.total_ns += dur_ns;
    if !parent.is_empty() {
        map.entry(parent.to_string()).or_default().child_ns += dur_ns;
    }
}

/// Aggregated timing for one span path.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SpanStat {
    /// `/`-joined path from the root span.
    pub path: String,
    /// Number of completed executions.
    pub count: u64,
    /// Total wall-clock nanoseconds (includes children).
    pub total_ns: u64,
    /// Nanoseconds spent in child spans.
    pub child_ns: u64,
}

impl SpanStat {
    /// Time spent in this span excluding instrumented children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Leaf name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Snapshot of every recorded span, sorted by total time descending with
/// ties broken by path so the order is deterministic (the registry is a
/// `HashMap`; without the tie-break, equal totals would surface its
/// iteration order).
pub fn span_stats() -> Vec<SpanStat> {
    let reg = REGISTRY.lock();
    let mut stats: Vec<SpanStat> = reg
        .as_ref()
        .map(|map| {
            map.iter()
                .map(|(path, n)| SpanStat {
                    path: path.clone(),
                    count: n.count,
                    total_ns: n.total_ns,
                    child_ns: n.child_ns,
                })
                .collect()
        })
        .unwrap_or_default();
    stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| a.path.cmp(&b.path)));
    stats
}

/// Clears the span registry (between experiments / in tests).
pub fn reset_spans() {
    *REGISTRY.lock() = None;
}

/// Renders the span registry as an aligned self-time report.
pub fn span_report() -> String {
    let stats = span_stats();
    if stats.is_empty() {
        return "span report: no spans recorded (PPN_OBS=off or nospans?)\n".to_string();
    }
    let width = stats.iter().map(|s| s.path.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<width$} {:>10} {:>12} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms", "mean µs"
    );
    // ppn-check: allow(hash-iter) span_stats() returns a (total, path)-sorted vec
    for s in &stats {
        out.push_str(&format!(
            "{:<width$} {:>10} {:>12.3} {:>12.3} {:>12.2}\n",
            s.path,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns() as f64 / 1e6,
            s.total_ns as f64 / 1e3 / s.count.max(1) as f64,
        ));
    }
    out
}
