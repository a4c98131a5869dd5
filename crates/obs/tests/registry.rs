//! Registry-level behaviour: histogram bucket edges, span nesting and
//! self-time accounting, concurrent counters, and gauge modes.

use ppn_obs::ObsConfig;
use std::time::Duration;

/// Quiet sinks, but spans + metrics active. First caller wins, so every
/// test calls this to make the config independent of test ordering.
fn init() {
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: None,
        jsonl_path: None,
        spans: true,
        metrics: true,
    });
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper() {
    init();
    let h = ppn_obs::histogram("reg.bounds", &[1.0, 2.0, 5.0]);
    // A value exactly on a bound lands in that bound's bucket.
    for v in [0.5, 1.0] {
        h.observe(v);
    }
    for v in [1.5, 2.0] {
        h.observe(v);
    }
    for v in [2.1, 5.0] {
        h.observe(v);
    }
    for v in [5.1, 100.0] {
        h.observe(v); // overflow bucket
    }
    assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
    assert_eq!(h.count(), 8);
    let expected_sum = 0.5 + 1.0 + 1.5 + 2.0 + 2.1 + 5.0 + 5.1 + 100.0;
    assert!((h.sum() - expected_sum).abs() < 1e-9);
}

#[test]
fn span_nesting_attributes_self_time_to_the_parent() {
    init();
    ppn_obs::span::reset_spans();
    {
        let _outer = ppn_obs::span!("reg.outer");
        std::thread::sleep(Duration::from_millis(4));
        {
            let _inner = ppn_obs::span!("reg.inner");
            std::thread::sleep(Duration::from_millis(8));
        }
    }
    let stats = ppn_obs::span_stats();
    let outer = stats.iter().find(|s| s.path == "reg.outer").expect("outer span");
    let inner = stats.iter().find(|s| s.path == "reg.outer/reg.inner").expect("nested inner span");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    assert_eq!(inner.name(), "reg.inner");
    // The inner span's whole duration is charged to the outer's child time.
    assert_eq!(outer.child_ns, inner.total_ns);
    assert!(outer.total_ns > inner.total_ns);
    assert_eq!(outer.self_ns(), outer.total_ns - inner.total_ns);
    assert!(inner.total_ns >= 8_000_000, "inner slept 8ms: {}ns", inner.total_ns);
    // The rendered report mentions both paths.
    let report = ppn_obs::span_report();
    assert!(report.contains("reg.outer"));
    assert!(report.contains("reg.outer/reg.inner"));
}

#[test]
fn counters_are_exact_under_concurrency() {
    init();
    let c = ppn_obs::counter("reg.concurrent");
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let c = c.clone();
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(c.get(), 80_000);
    // The registry hands back the same underlying counter by name.
    assert_eq!(ppn_obs::counter("reg.concurrent").get(), 80_000);
}

#[test]
fn gauge_modes_level_overwrites_peak_is_monotone() {
    init();
    let level = ppn_obs::gauge("reg.level_gauge");
    level.set(5.0);
    level.set(2.0);
    assert_eq!(level.get(), 2.0, "level gauges keep the last-written value");
    let peak = ppn_obs::gauge_peak("reg.peak_gauge");
    peak.set(5.0);
    peak.set(2.0);
    assert_eq!(peak.get(), 5.0, "peak gauges ignore values below the high-water mark");
    peak.set(9.0);
    assert_eq!(peak.get(), 9.0);
    // Snapshots carry the mode.
    let snap = ppn_obs::metrics_snapshot();
    let find = |name: &str| snap.gauges.iter().find(|g| g.name == name).expect("gauge in snapshot");
    assert!(!find("reg.level_gauge").peak);
    assert!(find("reg.peak_gauge").peak);
}
