//! Kernel timers keep counting into the registry's histograms.
//!
//! Each kernel caches its histogram handle on first use. This test checks
//! that the cached handle is the registry's own: `tensor.matmul_ms` gains
//! exactly one observation per matmul, on the first call and on every later
//! one. (`ppn-core`'s `conv_pass_counts` does the same for the conv
//! histograms.) It is its own test binary, so no other test's kernels run
//! in this process while the counts are read.

use ppn_obs::ObsConfig;
use ppn_tensor::Tensor;

fn matmul_count() -> u64 {
    let snap = ppn_obs::metrics_snapshot();
    snap.histograms.iter().find(|h| h.name == "tensor.matmul_ms").map_or(0, |h| h.count)
}

#[test]
fn each_matmul_adds_one_observation() {
    ppn_obs::init(ObsConfig {
        stderr_level: None,
        jsonl_level: None,
        jsonl_path: None,
        spans: false,
        metrics: true,
    });
    let (a, b) = (Tensor::ones(&[3, 4]), Tensor::ones(&[4, 2]));
    for calls in [1, 5] {
        let before = matmul_count();
        for _ in 0..calls {
            a.matmul(&b);
        }
        assert_eq!(matmul_count() - before, calls);
    }
}
