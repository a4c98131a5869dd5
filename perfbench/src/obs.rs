//! Reads the crates' own `ppn-obs` instruments without registering them:
//! an instrument that no crate registered reads as `None` (missing),
//! never as zero.

use ppn_obs::metrics_snapshot;

/// A point-in-time reading of the instruments the benchmark reports.
pub struct Reading(ppn_obs::MetricsSnapshot);

impl Reading {
    /// Snapshots the registry now.
    pub fn now() -> Reading {
        Reading(metrics_snapshot())
    }

    /// Counter value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.0.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.0.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram `(count, sum)`.
    pub fn hist(&self, name: &str) -> Option<(u64, f64)> {
        self.0.histograms.iter().find(|h| h.name == name).map(|h| (h.count, h.sum))
    }

    /// Counter increase since `before`.
    pub fn counter_delta(&self, before: &Reading, name: &str) -> Option<u64> {
        Some(self.counter(name)? - before.counter(name).unwrap_or(0))
    }

    /// Histogram `(count, sum)` increase since `before`.
    pub fn hist_delta(&self, before: &Reading, name: &str) -> Option<(u64, f64)> {
        let (c1, s1) = self.hist(name)?;
        let (c0, s0) = before.hist(name).unwrap_or((0, 0.0));
        Some((c1 - c0, s1 - s0))
    }
}

/// `Some(x)` as a number, `None` as NaN (which the report keeps missing).
pub fn or_nan(x: Option<f64>) -> f64 {
    x.unwrap_or(f64::NAN)
}
