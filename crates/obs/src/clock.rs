//! The workspace's single wall-clock chokepoint.
//!
//! The `no-wallclock` lint (ppn-check) confines `Instant::now` /
//! `SystemTime::now` to the observability stack: numerical crates that read
//! the clock directly can smuggle nondeterminism into results and break the
//! bit-identical replay contract. Everything outside `ppn-obs`, `ppn-trace`,
//! and `ppn-bench` takes its timestamps from here instead, so there is
//! exactly one audited place a replay harness would need to virtualize.
//!
//! Only clock *reads* route through this module. Holding or differencing an
//! [`Instant`] (e.g. `t.elapsed()`) is fine anywhere — the nondeterminism
//! enters at the read, and the read is what this module owns.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Reads the monotonic clock. The only sanctioned `Instant::now` for
/// first-party crates outside obs/trace/bench.
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// Reads the wall clock. Use only for human-facing timestamps (manifests,
/// log lines) — never as an input to numerics.
#[inline]
pub fn system_now() -> SystemTime {
    SystemTime::now()
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is broken),
/// for human-facing timestamps (log lines, manifests, model publish times).
pub fn unix_ms() -> u64 {
    system_now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
        assert!(a.elapsed() >= std::time::Duration::ZERO);
    }

    #[test]
    fn system_clock_is_after_unix_epoch() {
        assert!(system_now().duration_since(UNIX_EPOCH).is_ok());
        assert!(unix_ms() > 0);
    }
}
