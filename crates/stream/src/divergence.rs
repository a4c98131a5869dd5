//! Shadow comparison between two policy versions over recent bars.
//!
//! A promotion's safety gate: replay the last few decision contexts through
//! both the previously-live network and the candidate, and measure how far
//! their portfolio vectors drift apart. Both outputs lie on the `m+1`
//! simplex, so the per-bar L1 distance is bounded by 2 (total disagreement:
//! all mass moved to disjoint assets) — thresholds are therefore absolute
//! and dataset-independent.
//!
//! The comparison is deliberately *stateless*: both networks see identical
//! `(window, prev_action)` inputs with a uniform previous action, so the
//! report isolates what the *network update* changed, not path-dependent
//! portfolio drift. It runs on the serving forward pass ([`PolicyNet::act_batch`])
//! — one batched call per network — so checking overhead stays well below a
//! single gradient step.

use ppn_core::ppn::PolicyNet;
use ppn_market::Dataset;

/// Divergence between two policy versions over a shadow window.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DivergenceReport {
    /// Worst per-bar L1 distance between the two action vectors (`[0, 2]`,
    /// or `+∞` when either version emitted a non-finite action).
    pub max_l1: f64,
    /// Mean per-bar L1 distance.
    pub mean_l1: f64,
    /// Bars actually compared (may be fewer than requested near the start
    /// of a dataset, where full price windows don't exist yet).
    pub windows: usize,
}

/// Replays the `windows` bars ending at (and excluding) `t_end` through
/// `live` and `candidate` and reports their action divergence.
///
/// Bars without a full price window are skipped; with no comparable bar at
/// all the report is all-zero with `windows == 0` (a vacuous pass — callers
/// gate on `max_l1`, and an empty comparison cannot justify a rejection).
pub fn shadow_divergence(
    live: &PolicyNet,
    candidate: &PolicyNet,
    dataset: &Dataset,
    t_end: usize,
    windows: usize,
) -> DivergenceReport {
    let k = candidate.cfg.window;
    debug_assert_eq!(live.cfg.window, k, "shadow versions must share a window length");
    let t_end = t_end.min(dataset.relatives.len());
    // Each compared bar t needs a full k-length price window ending at t.
    let first = t_end.saturating_sub(windows).max(k.saturating_sub(1));
    if first >= t_end {
        return DivergenceReport { max_l1: 0.0, mean_l1: 0.0, windows: 0 };
    }
    let m1 = dataset.assets() + 1;
    let uniform = vec![1.0 / m1 as f64; m1];
    let inputs: Vec<Vec<f64>> = (first..t_end).map(|t| dataset.window(t, k)).collect();
    let prevs = vec![uniform.as_slice(); inputs.len()];
    let a = live.act_batch(&inputs, &prevs);
    let b = candidate.act_batch(&inputs, &prevs);
    let mut max_l1 = 0.0_f64;
    let mut sum_l1 = 0.0_f64;
    for (wa, wb) in a.iter().zip(&b) {
        let l1 = bar_l1(wa, wb);
        max_l1 = max_l1.max(l1);
        sum_l1 += l1;
    }
    DivergenceReport { max_l1, mean_l1: sum_l1 / inputs.len() as f64, windows: inputs.len() }
}

/// L1 distance between two action vectors, with a non-finite distance
/// reported as `+∞` so it trips any threshold. `f64::max` drops NaN, so a
/// NaN left in the fold would read as no divergence at all.
fn bar_l1(a: &[f64], b: &[f64]) -> f64 {
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    if l1.is_finite() {
        l1
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_core::config::NetConfig;
    use ppn_core::ppn::Variant;
    use ppn_market::Preset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64, assets: usize) -> PolicyNet {
        let cfg = NetConfig { window: 8, lstm_hidden: 4, ..NetConfig::paper(assets) };
        PolicyNet::new(Variant::PpnLstm, cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn identical_networks_have_exactly_zero_divergence() {
        let ds = Dataset::load(Preset::CryptoA);
        let net = small_net(3, ds.assets());
        let twin = small_net(3, ds.assets());
        let r = shadow_divergence(&net, &twin, &ds, ds.split, 8);
        assert_eq!(r.windows, 8);
        assert_eq!(r.max_l1.to_bits(), 0.0_f64.to_bits());
        assert_eq!(r.mean_l1.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn different_networks_diverge_within_the_simplex_bound() {
        let ds = Dataset::load(Preset::CryptoA);
        let a = small_net(3, ds.assets());
        let b = small_net(4004, ds.assets());
        let r = shadow_divergence(&a, &b, &ds, ds.split, 8);
        assert!(r.max_l1 > 0.0, "differently-initialised nets must disagree somewhere");
        assert!(r.max_l1 <= 2.0 + 1e-12, "simplex L1 distance is bounded by 2");
        assert!(r.mean_l1 > 0.0 && r.mean_l1 <= r.max_l1);
    }

    #[test]
    fn non_finite_actions_count_as_infinite_divergence() {
        assert_eq!(bar_l1(&[0.5, 0.5], &[0.25, 0.75]).to_bits(), 0.5_f64.to_bits());
        assert_eq!(bar_l1(&[f64::NAN, 1.0], &[0.0, 1.0]), f64::INFINITY);
        assert_eq!(bar_l1(&[0.0, 1.0], &[f64::INFINITY, 0.0]), f64::INFINITY);
        // The fold keeps the infinity, so the report trips any threshold.
        assert_eq!(0.3_f64.max(bar_l1(&[f64::NAN], &[0.0])), f64::INFINITY);
    }

    #[test]
    fn early_bars_without_full_windows_are_skipped() {
        let ds = Dataset::load(Preset::CryptoA);
        let net = small_net(3, ds.assets());
        // t_end barely past the first full window: only a partial shadow.
        let k = net.cfg.window;
        let r = shadow_divergence(&net, &net, &ds, k + 2, 64);
        assert_eq!(r.windows, 3, "only bars k-1..k+2 have full windows");
        // And a t_end inside the warm-up yields the vacuous pass.
        let r0 = shadow_divergence(&net, &net, &ds, k - 2, 8);
        assert_eq!(r0.windows, 0);
        assert_eq!(r0.max_l1.to_bits(), 0.0_f64.to_bits());
    }
}
