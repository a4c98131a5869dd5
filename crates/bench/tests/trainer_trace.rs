//! Trace shape of one training step: with sampling on, `Trainer::step`
//! emits a `train.step` root whose four stage spans link to it, and the
//! same guards fill the aggregate span report under matching paths.
//! `Trainer::train` writes each step's `StepStats` as a `train.step` event.

use ppn_core::prelude::*;
use ppn_market::{Dataset, Preset};
use ppn_obs::{Level, ObsConfig};
use serde_json::Value;

const STAGES: [&str; 4] = ["train.synth", "train.forward", "train.backward", "train.pvm_writeback"];

#[test]
fn sampled_step_emits_root_and_four_stage_children() {
    let path = std::env::temp_dir().join(format!("ppn-trainer-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: Some(Level::Trace),
        jsonl_path: Some(path.display().to_string()),
        spans: true,
        metrics: true,
    });
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 1, batch: 8, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), cfg);
    ppn_obs::span::reset_spans();
    ppn_obs::trace::set_sample_rate(1);
    let report = tr.train();
    ppn_obs::trace::set_sample_rate(0);
    ppn_obs::sink::jsonl_flush();

    let text = std::fs::read_to_string(&path).expect("trace jsonl written");
    let _ = std::fs::remove_file(&path);

    // The per-step row: the sink's `train.step` event carries the report's
    // `StepStats` under the step index.
    let rows: Vec<Value> = text
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .filter(|v| matches!(v.field("event"), Ok(Value::Str(s)) if s == "train.step"))
        .collect();
    assert_eq!(rows.len(), 1, "one train.step event per step in:\n{text}");
    let num = |k: &str| match rows[0].field(k) {
        Ok(Value::Num(n)) => *n,
        other => panic!("field {k} must be a number, got {other:?}"),
    };
    let st = report.steps[0];
    assert_eq!(num("step"), 0.0);
    assert_eq!(num("reward").to_bits(), st.reward.to_bits());
    assert_eq!(num("mean_log_return").to_bits(), st.mean_log_return.to_bits());
    assert_eq!(num("variance").to_bits(), st.variance.to_bits());
    assert_eq!(num("mean_turnover").to_bits(), st.mean_turnover.to_bits());
    assert_eq!(num("grad_norm").to_bits(), st.grad_norm.to_bits());
    let spans: Vec<Value> = text
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .filter(|v| matches!(v.field("event"), Ok(Value::Str(s)) if s == "trace.span"))
        .collect();
    let field = |v: &Value, k: &str| match v.field(k) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("field {k} must be a string, got {other:?}"),
    };
    let named = |name: &str| -> &Value {
        let hits: Vec<&Value> = spans.iter().filter(|s| field(s, "name") == name).collect();
        assert_eq!(hits.len(), 1, "exactly one `{name}` span event in:\n{text}");
        hits[0]
    };

    let root = named("train.step");
    assert_eq!(field(root, "parent"), "0".repeat(16), "the step is a trace root");
    let (trace_id, root_id) = (field(root, "trace"), field(root, "span"));
    for stage in STAGES {
        let ev = named(stage);
        assert_eq!(field(ev, "parent"), root_id, "{stage} is a child of train.step");
        assert_eq!(field(ev, "trace"), trace_id);
    }
    // `net.forward` is a plain span! site: it joins the trace under its
    // enclosing stage without being handed a context.
    assert_eq!(field(named("net.forward"), "parent"), field(named("train.forward"), "span"));
    assert!(spans.iter().all(|s| field(s, "trace") == trace_id), "one trace per step");

    let stats = ppn_obs::span_stats();
    let stat = |path: &str| {
        stats.iter().find(|s| s.path == path).unwrap_or_else(|| panic!("{path} in {stats:?}"))
    };
    let step = stat("train.step");
    assert_eq!(step.count, 1);
    let mut stage_ns = 0;
    for stage in STAGES {
        let s = stat(&format!("train.step/{stage}"));
        assert_eq!(s.count, 1, "{stage}");
        stage_ns += s.total_ns;
    }
    assert_eq!(step.child_ns, stage_ns, "the stages are the step's only direct children");
    assert_eq!(stat("train.step/train.forward/net.forward").count, 1);
}
