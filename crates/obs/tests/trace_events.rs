//! End-to-end trace emission: sampled spans written through the JSONL sink
//! carry the documented `trace.span` schema (hex ids, parent links,
//! `start_ns`/`dur_ns`) and also land in the aggregate span report, and
//! snapshot serialization is byte-stable.

use ppn_obs::trace::set_sample_rate;
use ppn_obs::{Level, ObsConfig};
use serde_json::Value;
use std::time::Duration;

#[test]
fn sampled_spans_emit_linked_jsonl_events() {
    let path = std::env::temp_dir().join(format!("ppn-obs-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: Some(Level::Trace),
        jsonl_path: Some(path.display().to_string()),
        spans: true,
        metrics: true,
    });
    set_sample_rate(1);
    {
        let root = ppn_obs::span::root("t.request");
        let ctx = root.context();
        assert!(ctx.is_sampled());
        {
            let _child = ppn_obs::span!("t.forward");
            std::thread::sleep(Duration::from_millis(2));
        }
        let t0 = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        ctx.emit_span("t.queue_wait", t0, std::time::Instant::now());
    }
    set_sample_rate(0);
    ppn_obs::sink::jsonl_flush();

    let text = std::fs::read_to_string(&path).expect("trace jsonl written");
    let spans: Vec<Value> = text
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .filter(|v| matches!(v.field("event"), Ok(Value::Str(s)) if s == "trace.span"))
        .collect();
    assert_eq!(spans.len(), 3, "root + child + explicit span: {text}");

    let str_field = |v: &Value, k: &str| match v.field(k) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("field {k} must be a string, got {other:?}"),
    };
    let num_field = |v: &Value, k: &str| match v.field(k) {
        Ok(Value::Num(n)) => *n,
        other => panic!("field {k} must be a number, got {other:?}"),
    };
    let root = spans.iter().find(|s| str_field(s, "name") == "t.request").expect("root span event");
    let child =
        spans.iter().find(|s| str_field(s, "name") == "t.forward").expect("child span event");
    let explicit =
        spans.iter().find(|s| str_field(s, "name") == "t.queue_wait").expect("explicit span event");

    // One shared 16-hex-digit trace id; children link to the root span id.
    let trace_id = str_field(root, "trace");
    assert_eq!(trace_id.len(), 16);
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(str_field(child, "trace"), trace_id);
    assert_eq!(str_field(explicit, "trace"), trace_id);
    assert_eq!(str_field(root, "parent"), "0".repeat(16), "roots have a zero parent");
    assert_eq!(str_field(child, "parent"), str_field(root, "span"));
    assert_eq!(str_field(explicit, "parent"), str_field(root, "span"));

    // Durations nest: the ~2ms child and ~1ms explicit span fit inside the
    // root, and offsets are expressed on the shared process timebase.
    assert!(num_field(child, "dur_ns") >= 2e6);
    assert!(num_field(explicit, "dur_ns") >= 1e6);
    assert!(num_field(root, "dur_ns") >= num_field(child, "dur_ns"));
    assert!(num_field(child, "start_ns") >= num_field(root, "start_ns"));

    // The same guards fed the aggregate report: one entry per lexical span,
    // the child nested under the root and charged to its child time. The
    // explicit cross-thread span is trace-only.
    let stats = ppn_obs::span_stats();
    let stat = |path: &str| {
        stats.iter().find(|s| s.path == path).unwrap_or_else(|| panic!("{path} in {stats:?}"))
    };
    let (root_stat, child_stat) = (stat("t.request"), stat("t.request/t.forward"));
    assert_eq!((root_stat.count, child_stat.count), (1, 1));
    assert_eq!(root_stat.child_ns, child_stat.total_ns);
    assert!(child_stat.total_ns >= 2_000_000);
    assert!(stats.iter().all(|s| s.name() != "t.queue_wait"));
}

#[test]
fn snapshot_serialization_is_byte_stable() {
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: Some(Level::Trace),
        jsonl_path: Some(
            std::env::temp_dir()
                .join(format!("ppn-obs-trace-{}.jsonl", std::process::id()))
                .display()
                .to_string(),
        ),
        spans: true,
        metrics: true,
    });
    // Register in an order that differs from the sorted order.
    ppn_obs::counter("z.counter").inc();
    ppn_obs::counter("a.counter").inc();
    ppn_obs::gauge("z.gauge").set(1.0);
    ppn_obs::gauge_peak("a.gauge_peak").set(2.0);
    ppn_obs::histogram("z.hist", &[1.0, 2.0]).observe(0.5);
    ppn_obs::histogram("a.hist", &[1.0]).observe(3.0);

    let a = ppn_obs::metrics_snapshot();
    let b = ppn_obs::metrics_snapshot();
    let ser_a = serde_json::to_string(&a).expect("snapshot serializes");
    let ser_b = serde_json::to_string(&b).expect("snapshot serializes");
    assert_eq!(ser_a, ser_b, "same registry state must serialize identically");
    // Sorted by name within each kind, regardless of registration order.
    let names: Vec<&str> = a.counters.iter().map(|c| c.name.as_str()).collect();
    assert!(names.windows(2).all(|w| w[0] <= w[1]), "counters sorted: {names:?}");
    let gnames: Vec<&str> = a.gauges.iter().map(|g| g.name.as_str()).collect();
    assert!(gnames.windows(2).all(|w| w[0] <= w[1]), "gauges sorted: {gnames:?}");
    let hnames: Vec<&str> = a.histograms.iter().map(|h| h.name.as_str()).collect();
    assert!(hnames.windows(2).all(|w| w[0] <= w[1]), "histograms sorted: {hnames:?}");
    // And the Prometheus rendering is equally stable.
    assert_eq!(a.to_prometheus(), b.to_prometheus());
    assert!(a.to_prometheus().contains("# TYPE a_counter counter"));
}
