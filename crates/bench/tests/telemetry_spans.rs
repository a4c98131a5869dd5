//! End-to-end telemetry coverage: a tiny train + backtest must populate the
//! span registry with the instrumented hot paths, feed the metrics
//! registry, and keep the per-step trace in its report.

use ppn_core::prelude::*;
use ppn_market::{run_backtest, Dataset, Preset};
use ppn_obs::ObsConfig;

#[test]
fn spans_metrics_and_step_trace_cover_train_and_backtest() {
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: None,
        jsonl_path: None,
        spans: true,
        metrics: true,
    });
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 2, batch: 8, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), cfg);
    let report = tr.train();

    // The report retains the full StepStats trace; its JSONL form is the
    // sink's `train.step` event (see trainer_trace.rs).
    assert_eq!(report.steps.len(), 2);

    let mut policy = NetPolicy::new(tr.into_net());
    let r = run_backtest(&ds, &mut policy, 0.0025, 100..140);
    assert_eq!(r.records.len(), 40);

    // The instrumented spans all recorded non-zero wall time.
    let stats = ppn_obs::span_stats();
    for name in ["train.step", "net.forward", "backtest.period", "backtest.run", "dataset.load"] {
        let s = stats
            .iter()
            .find(|s| s.name() == name)
            .unwrap_or_else(|| panic!("span `{name}` missing from {stats:?}"));
        assert!(s.total_ns > 0, "span `{name}` has zero duration");
    }
    // net.forward nests under train.step's forward stage, so the step's
    // self time is strictly less than its total.
    let step = stats.iter().find(|s| s.path == "train.step").expect("train.step root");
    assert!(step.child_ns > 0 && step.self_ns() < step.total_ns);
    let report_text = ppn_obs::span_report();
    assert!(report_text.contains("train.step/train.forward/net.forward"));

    // Metrics side: counters and histograms moved.
    let snap = ppn_obs::metrics_snapshot();
    let counter = |n: &str| snap.counters.iter().find(|c| c.name == n).map(|c| c.value);
    assert_eq!(counter("train.steps"), Some(2));
    assert_eq!(counter("backtest.periods"), Some(40));
    let hist =
        snap.histograms.iter().find(|h| h.name == "backtest.turnover").expect("turnover histogram");
    assert_eq!(hist.count, 40);

    // The pooled tensor kernels record per-call wall time while metrics are
    // live: a real train + backtest must have populated both histograms.
    for name in ["tensor.matmul_ms", "tensor.conv_ms"] {
        let h = snap.histograms.iter().find(|h| h.name == name);
        let h = h.unwrap_or_else(|| panic!("{name} histogram missing"));
        assert!(h.count > 0, "{name} recorded no kernel calls");
    }
}
