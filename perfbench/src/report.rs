//! Metric catalogue, predictions, and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and every
//! per-layer metric (traced run). The per-layer catalogue records, for each
//! layer metric, which end-to-end metric it is predicted to move and on
//! which workload, so a later change can cite the arrow by name.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// What the metric measures on each workload.
    pub meaning: &'static str,
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        meaning: "median of several set-ups: datasets, networks, registry, server start",
    },
    EndToEnd { name: "peak_rss_mb", unit: "MB", meaning: "peak resident set size of the process" },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        meaning: "train: PPN train steps/s (batch 16); decide: completed /decide per second \
                  with 64 requests in flight (median over 0.25 s windows); live: feed bars/s",
    },
    EndToEnd {
        name: "decision_p50_ms",
        unit: "ms",
        meaning: "train: one backtest period of the trained paper net (batch-1 decide plus \
                  accounting); decide, live: one /decide request from its due time",
    },
    EndToEnd {
        name: "apv",
        unit: "x",
        meaning: "accumulated portfolio value net of 0.25% cost: train: trained net on the \
                  Crypto-A test split; decide: the served decisions over the replayed path; \
                  live: the final live version over the last live bars",
    },
];

/// A per-layer metric with its prediction.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metric this layer metric is predicted to move.
    pub moves: &'static str,
    /// Workload(s) on which it should move it.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, moves, on }
}

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const LAYERS: &[Layer] = &[
    // market
    layer("market.dataset_load_ms", "ms", "setup_s", "train, decide, live"),
    layer("market.backtest_self_ms", "ms", "decision_p50_ms", "train"),
    // core / tensor: one PPN train step, replayed piece by piece
    layer("core.step_ms", "ms", "throughput_per_s", "train"),
    layer("core.synth_ms", "ms", "throughput_per_s", "train"),
    layer("tensor.bind_ms", "ms", "throughput_per_s", "train"),
    layer("core.forward_ms", "ms", "throughput_per_s", "train"),
    layer("tensor.backward_ms", "ms", "throughput_per_s", "train"),
    layer("tensor.optim_ms", "ms", "throughput_per_s", "train"),
    layer("core.step_unaccounted_ms", "ms", "throughput_per_s", "train"),
    // kernels and arena per train step
    layer("tensor.matmul_calls", "count", "throughput_per_s", "train"),
    layer("tensor.matmul_ms", "ms", "throughput_per_s", "train"),
    layer("tensor.conv_calls", "count", "throughput_per_s", "train"),
    layer("tensor.conv_ms", "ms", "throughput_per_s", "train"),
    layer("tensor.alloc_bytes_per_step", "bytes", "throughput_per_s, peak_rss_mb", "train"),
    layer("tensor.arena_hit_ratio", "ratio", "throughput_per_s, peak_rss_mb", "train"),
    // inference
    layer("core.act_ms", "ms", "decision_p50_ms", "train"),
    layer("tensor.act_alloc_bytes", "bytes", "decision_p50_ms", "train"),
    layer("core.act_small_us_b1", "us", "decision_p50_ms", "decide"),
    layer("core.act_small_us_b16", "us", "decision_p50_ms", "decide"),
    // serve: request path, timed in-process
    layer("serve.parse_us", "us", "decision_p50_ms", "decide"),
    layer("serve.decode_us", "us", "decision_p50_ms", "decide"),
    layer("serve.encode_us", "us", "decision_p50_ms", "decide"),
    layer("serve.process_batch_ms_b1", "ms", "throughput_per_s", "decide"),
    layer("serve.process_batch_ms_b16", "ms", "throughput_per_s", "decide"),
    layer("serve.resolve_us", "us", "tail.decision_p99_ms", "live"),
    layer("serve.publish_us", "us", "tail.decision_p99_ms", "live"),
    // serve: from the running server's metrics and request spans
    layer("serve.ladder_max_rps", "1/s", "throughput_per_s", "decide"),
    layer("serve.batch_size_mean", "count", "throughput_per_s", "decide"),
    layer("serve.shed_ratio", "ratio", "throughput_per_s", "decide"),
    layer("serve.queue_depth_peak", "count", "tail.decision_p99_ms", "decide"),
    layer("serve.queue_wait_ms_p50", "ms", "tail.decision_p99_ms", "decide"),
    layer("serve.queue_wait_ms_p99", "ms", "tail.decision_p99_ms", "decide"),
    layer("serve.forward_ms_p50", "ms", "decision_p50_ms", "decide"),
    layer("serve.respond_ms_p50", "ms", "decision_p50_ms", "decide"),
    layer("serve.model_swaps", "count", "tail.decision_p99_ms", "live"),
    // stream
    layer("core.online_step_ms", "ms", "throughput_per_s", "live"),
    layer("core.snapshot_ms", "ms", "throughput_per_s", "live"),
    layer("stream.shadow_ms", "ms", "throughput_per_s", "live"),
    layer("stream.promote_ms", "ms", "throughput_per_s", "live"),
    layer("stream.publishes", "count", "throughput_per_s", "live"),
    layer("stream.rollbacks", "count", "throughput_per_s", "live"),
    layer("stream.promote_ratio", "ratio", "throughput_per_s", "live"),
    // decision tails: on a shared 2-core host they spread too far from run
    // to run to hold an end-to-end bound, so they are reported here
    layer("tail.decision_p99_ms", "ms", "decision_p50_ms (its tail)", "all"),
    // generator and tracing
    layer(
        "loadgen.lag_p99_ms",
        "ms",
        "validity of decision_p50_ms, tail.decision_p99_ms",
        "decide, live",
    ),
    layer("trace.overhead_ratio", "ratio", "all (traced / untraced primary figure)", "all"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Failed correctness checks beyond per-operation ones.
    pub failed_checks: usize,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records `value` under `name` unless it is not a finite number: a
    /// value that could not be measured stays missing rather than becoming
    /// a misleading number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.values.insert(name, value);
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: check failed: {why}");
        self.failed_checks += 1;
    }

    /// Counts `n` checked operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// Prints the per-metric table (with predictions when traced) and the final
/// JSON result line. Metrics that could not be read are listed as missing,
/// never printed as zero.
pub fn print(outcome: &Outcome, traced: bool) {
    let wanted: Vec<(&str, &str, String)> = if traced {
        LAYERS.iter().map(|l| (l.name, l.unit, format!("-> {} ({})", l.moves, l.on))).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, m.meaning.to_string())).collect()
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for (name, unit, note) in &wanted {
        match outcome.values.get(name) {
            Some(v) => {
                println!("{name:<30} {v:>16.6} {unit:<6} {note}");
                metrics
                    .push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*v)));
            }
            None => {
                println!("{name:<30} {:>16} {unit:<6} {note}", "MISSING");
                missing.push(*name);
            }
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: could not read {}", missing.join(", "));
    }
    let correct = outcome.failed == 0 && outcome.failed_checks == 0 && missing.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}

/// A finite `f64` as JSON with every significant digit.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
