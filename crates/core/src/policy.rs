//! Adapters exposing trained networks as [`ppn_market::Policy`] so they run
//! under the shared backtest harness next to the classic baselines.

use crate::config::{RewardConfig, TrainConfig};
use crate::ppn::{PolicyNet, Variant};
use crate::trainer::{TrainReport, Trainer};
use ppn_market::{Dataset, DecisionContext, Policy, Weights};

/// A trained policy network wrapped for backtesting.
pub struct NetPolicy {
    /// The trained network.
    pub net: PolicyNet,
}

impl NetPolicy {
    /// Wraps a trained network.
    pub fn new(net: PolicyNet) -> Self {
        NetPolicy { net }
    }
}

impl Policy for NetPolicy {
    fn name(&self) -> String {
        self.net.variant.name().to_string()
    }

    fn decide_batch(&mut self, ctxs: &[DecisionContext<'_>]) -> Vec<Weights> {
        let windows: Vec<Vec<f64>> =
            ctxs.iter().map(|ctx| ctx.dataset.window(ctx.t, self.net.cfg.window)).collect();
        let prevs: Vec<&[f64]> = ctxs.iter().map(|ctx| ctx.prev_action).collect();
        let mut actions = self.net.act_batch(&windows, &prevs);
        for a in &mut actions {
            // Guard against tiny softmax round-off drifting off the simplex.
            let s: f64 = a.iter().sum();
            for w in a.iter_mut() {
                *w /= s;
            }
        }
        actions
    }
}

/// Trains `variant` on `dataset` and returns the wrapped policy plus the
/// training report. This is the one-call entry point the experiment
/// harnesses use.
pub fn train_policy(
    dataset: &Dataset,
    variant: Variant,
    reward_cfg: RewardConfig,
    train_cfg: TrainConfig,
) -> (NetPolicy, TrainReport) {
    let mut trainer = Trainer::new(dataset, variant, reward_cfg, train_cfg);
    let report = trainer.train();
    (NetPolicy::new(trainer.into_net()), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_market::{run_backtest, Preset};

    #[test]
    fn untrained_net_still_backtests_validly() {
        let ds = Dataset::load(Preset::CryptoA);
        let mut rng = rand::rngs::mock::StepRng::new(7, 11);
        let net = PolicyNet::new(
            Variant::PpnLstm,
            crate::config::NetConfig::paper(ds.assets()),
            &mut rng,
        );
        let mut policy = NetPolicy::new(net);
        let r = run_backtest(&ds, &mut policy, 0.0025, ds.split..ds.split + 30);
        assert_eq!(r.records.len(), 30);
        for rec in &r.records {
            let s: f64 = rec.action.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(rec.wealth.is_finite() && rec.wealth > 0.0);
        }
    }
}
