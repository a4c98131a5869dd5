//! Per-pass conv telemetry of one PPN trainer step.
//!
//! Its own test binary, so no other test's kernels run in this process
//! while the histogram counts are read. The paper net has 11 conv nodes:
//! three TCCB blocks (two DCONVs and a CCONV each), `Conv4` and the
//! decision conv. A step runs each forward once and its kernel gradient
//! once, but the input gradient only ten times: the first DCONV reads the
//! data leaf, whose gradient nobody reads.

use ppn_core::prelude::*;
use ppn_market::{Dataset, Preset};
use ppn_obs::ObsConfig;

fn conv_counts() -> [u64; 4] {
    let snap = ppn_obs::metrics_snapshot();
    let count = |name: &str| snap.histograms.iter().find(|h| h.name == name).map_or(0, |h| h.count);
    [
        count("tensor.conv_fwd_ms"),
        count("tensor.conv_grad_x_ms"),
        count("tensor.conv_grad_w_ms"),
        count("tensor.conv_ms"),
    ]
}

#[test]
fn ppn_step_times_each_conv_pass_once_and_skips_the_leaf_grad_x() {
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: None,
        jsonl_path: None,
        spans: false,
        metrics: true,
    });
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 1, batch: 2, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), cfg);
    let before = conv_counts();
    tr.step();
    let after = conv_counts();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    // fwd, grad-x, grad-w, and the unchanged total: one observation per
    // forward node and one per backward node.
    assert_eq!(delta, [11, 10, 11, 22]);
}
