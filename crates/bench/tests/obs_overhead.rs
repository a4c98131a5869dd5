//! Overhead guard: with `PPN_OBS=off` the telemetry hot paths must cost a
//! negligible fraction of a training step (acceptance target: < 2%).
//!
//! The disabled fast path is a couple of relaxed atomic loads per call, so
//! even hundreds of telemetry call-sites per step must stay far under the
//! budget. Measured directly rather than via two separate builds.

use ppn_core::prelude::*;
use ppn_market::{Dataset, Preset};
use std::hint::black_box;
use std::time::Instant;

#[test]
fn disabled_telemetry_is_under_the_two_percent_budget() {
    ppn_obs::init(ppn_obs::ObsConfig::off());

    // Baseline: a real training step with all telemetry disabled.
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 3, batch: 8, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), cfg);
    tr.step(); // warm-up
    let t0 = Instant::now();
    for _ in 0..3 {
        tr.step();
    }
    let step_ns = t0.elapsed().as_nanos() as f64 / 3.0;

    // Cost of one disabled telemetry cluster (span + event + counter +
    // histogram) — everything a single instrumented step adds per call-site.
    let c = ppn_obs::counter("overhead.counter");
    let h = ppn_obs::histogram("overhead.hist", &[1.0, 10.0]);
    let iters = 100_000u64;
    let t1 = Instant::now();
    for i in 0..iters {
        let _g = ppn_obs::span!("overhead.span");
        ppn_obs::event!(ppn_obs::Level::Trace, "overhead.event", i = i, v = 1.25f64,);
        c.inc();
        h.observe(black_box(1.0));
    }
    let cluster_ns = t1.elapsed().as_nanos() as f64 / iters as f64;

    // Telemetry stayed off: nothing was recorded.
    assert_eq!(c.get(), 0);
    assert_eq!(h.count(), 0);
    assert!(ppn_obs::span_stats().is_empty());

    // Even at 100 clusters per training step (far above the real count of
    // ~6), the disabled path must stay under 2% of a step.
    let budget = 0.02 * step_ns;
    let projected = 100.0 * cluster_ns;
    assert!(
        projected < budget,
        "disabled telemetry too slow: {cluster_ns:.1}ns/cluster, projected \
         {projected:.0}ns per step vs 2% budget {budget:.0}ns (step {step_ns:.0}ns)"
    );
}

#[test]
fn sampled_request_tracing_stays_inside_the_budget() {
    ppn_obs::init(ppn_obs::ObsConfig::off());

    // Baseline: a real training step (same shape as the disabled-path test;
    // the two tests share one process, and init is first-caller-wins).
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 3, batch: 8, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), cfg);
    tr.step(); // warm-up
    let t0 = Instant::now();
    for _ in 0..3 {
        tr.step();
    }
    let step_ns = t0.elapsed().as_nanos() as f64 / 3.0;

    // Cost of one fully *sampled* trace cluster — a root plus two child
    // stage spans, the shape `train.step` and `serve.request` emit — with
    // the sink gated off. This bounds what `PPN_TRACE_SAMPLE=1` adds on top
    // of id generation when trace-level output is not being written.
    ppn_obs::trace::set_sample_rate(1);
    let iters = 100_000u64;
    let t1 = Instant::now();
    for _ in 0..iters {
        let root = ppn_obs::span::root("overhead.trace");
        black_box(root.context().is_sampled());
        drop(ppn_obs::span!("overhead.stage_a"));
        drop(ppn_obs::span!("overhead.stage_b"));
    }
    let cluster_ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    ppn_obs::trace::set_sample_rate(0);

    // Even at 100 traced clusters per training step (a step emits one),
    // sampled tracing must stay under the same 2% budget.
    let budget = 0.02 * step_ns;
    let projected = 100.0 * cluster_ns;
    assert!(
        projected < budget,
        "sampled tracing too slow: {cluster_ns:.1}ns/cluster, projected \
         {projected:.0}ns per step vs 2% budget {budget:.0}ns (step {step_ns:.0}ns)"
    );
}
