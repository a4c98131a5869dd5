//! Process-wide metrics registry: counters, gauges (level or peak mode),
//! and fixed-bucket histograms with optional log-linear auto-bucketing.
//!
//! Handles are cheap `Arc` clones; hot-path operations (`inc`, `observe`)
//! are single atomic ops and never take the registry lock. Snapshots are
//! serializable (JSONL-able) and deterministically ordered (sorted by
//! metric name).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

static REGISTRY: Mutex<Option<HashMap<String, Handle>>> = Mutex::new(None);

/// Monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::metrics_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a gauge aggregates: a last-written level, or a monotone peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeMode {
    /// `set` overwrites; snapshots report the last-written level.
    Level,
    /// `set` only raises; snapshots report the high-water mark.
    Peak,
}

/// Floating-point gauge (stored as `f64` bits). See [`GaugeMode`] for the
/// level/peak semantics; [`gauge`] registers levels, [`gauge_peak`] peaks.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
    mode: GaugeMode,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::with_mode(GaugeMode::Level)
    }
}

impl Gauge {
    fn with_mode(mode: GaugeMode) -> Self {
        Gauge { bits: Arc::new(AtomicU64::new(0f64.to_bits())), mode }
    }

    /// Records `v`: overwrites the level, or raises the peak (a peak gauge
    /// ignores values below its current high-water mark).
    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::metrics_enabled() {
            return;
        }
        match self.mode {
            GaugeMode::Level => self.bits.store(v.to_bits(), Ordering::Relaxed),
            GaugeMode::Peak => {
                let mut cur = self.bits.load(Ordering::Relaxed);
                loop {
                    if v.total_cmp(&f64::from_bits(cur)) != std::cmp::Ordering::Greater {
                        break;
                    }
                    match self.bits.compare_exchange_weak(
                        cur,
                        v.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
    }

    /// Current level (or high-water mark for peak gauges).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// This gauge's aggregation mode.
    pub fn mode(&self) -> GaugeMode {
        self.mode
    }
}

struct HistInner {
    /// Upper bucket bounds, strictly increasing; an implicit `+inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Σ observed values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
    /// Number of observations.
    count: AtomicU64,
}

/// Fixed-bucket histogram.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation. Bucket `i` counts values `v <= bounds[i]`
    /// (first matching bound); larger values land in the overflow bucket.
    pub fn observe(&self, v: f64) {
        if !crate::metrics_enabled() {
            return;
        }
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Upper bucket bounds (without the implicit overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts including the trailing overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

fn with_registry<T>(f: impl FnOnce(&mut HashMap<String, Handle>) -> T) -> T {
    let mut reg = REGISTRY.lock();
    f(reg.get_or_insert_with(HashMap::new))
}

/// Registers (or fetches) the counter `name`.
pub fn counter(name: &str) -> Counter {
    with_registry(|reg| {
        match reg.entry(name.to_string()).or_insert_with(|| Handle::Counter(Counter::default())) {
            Handle::Counter(c) => c.clone(),
            // ppn-check: allow(no-panic) registering one name as two metric kinds is a programming error; failing fast beats silently splitting the metric
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    })
}

fn gauge_with_mode(name: &str, mode: GaugeMode) -> Gauge {
    with_registry(|reg| {
        match reg.entry(name.to_string()).or_insert_with(|| Handle::Gauge(Gauge::with_mode(mode))) {
            Handle::Gauge(g) if g.mode == mode => g.clone(),
            Handle::Gauge(g) => {
                // ppn-check: allow(no-panic) level/peak mix-ups on one name corrupt the gauge's meaning; fail fast like a kind mismatch
                panic!("gauge `{name}` already registered as {:?}, requested {mode:?}", g.mode)
            }
            // ppn-check: allow(no-panic) registering one name as two metric kinds is a programming error; failing fast beats silently splitting the metric
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    })
}

/// Registers (or fetches) the level gauge `name` (last-written value).
pub fn gauge(name: &str) -> Gauge {
    gauge_with_mode(name, GaugeMode::Level)
}

/// Registers (or fetches) the peak gauge `name` (monotone high-water
/// mark). Conventionally named `*_peak`.
pub fn gauge_peak(name: &str) -> Gauge {
    gauge_with_mode(name, GaugeMode::Peak)
}

/// Registers (or fetches) the histogram `name` with the given bucket
/// bounds. The first registration wins; later calls with different bounds
/// get the existing histogram.
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    with_registry(|reg| {
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Handle::Histogram(Histogram::with_bounds(bounds)))
        {
            Handle::Histogram(h) => h.clone(),
            // ppn-check: allow(no-panic) registering one name as two metric kinds is a programming error; failing fast beats silently splitting the metric
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    })
}

/// Registers (or fetches) the histogram `name` with log-linear
/// auto-buckets (1 µs – 10 s, 3 per decade; see
/// [`crate::prom::default_latency_bounds_ms`]) — for latency-style metrics
/// in milliseconds that don't want hand-picked bounds.
pub fn auto_histogram(name: &str) -> Histogram {
    histogram(name, &crate::prom::default_latency_bounds_ms())
}

/// Serializable counter state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// Serializable gauge state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge level (or high-water mark when `peak`).
    pub value: f64,
    /// True for peak-mode gauges (a high-water mark, not a level).
    pub peak: bool,
}

/// Serializable histogram state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Bucket counts (`bounds.len() + 1`, trailing overflow).
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Observation count.
    pub count: u64,
}

/// Full registry snapshot, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sorts counters, gauges, and histograms by metric name, making the
    /// serialized form byte-stable. [`metrics_snapshot`] calls this;
    /// hand-built snapshots should too before serialization.
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Renders this snapshot in Prometheus text exposition format (see
    /// [`crate::prom::render`]).
    pub fn to_prometheus(&self) -> String {
        crate::prom::render(self)
    }
}

/// Snapshots every registered metric, sorted by name (byte-stable across
/// runs that register the same metrics).
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    with_registry(|reg| {
        for (name, h) in reg.iter() {
            match h {
                Handle::Counter(c) => {
                    snap.counters.push(CounterSnapshot { name: name.clone(), value: c.get() })
                }
                Handle::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    value: g.get(),
                    peak: g.mode() == GaugeMode::Peak,
                }),
                Handle::Histogram(hist) => snap.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    bounds: hist.bounds().to_vec(),
                    counts: hist.bucket_counts(),
                    sum: hist.sum(),
                    count: hist.count(),
                }),
            }
        }
    });
    snap.sort();
    snap
}
