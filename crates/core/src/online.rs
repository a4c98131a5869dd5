//! Online rolling training: keep learning *during* the test period.
//!
//! The paper's protocol trains offline and freezes the policy for the test
//! split. The EIIE framework it builds on additionally supports online
//! learning — after each live period the newly-observed data joins the
//! training set and a few gradient steps run before the next decision. This
//! module implements that extension (DESIGN.md lists it as an optional
//! feature) as a [`SequentialPolicy`] wrapper — the gradient steps between
//! decisions make it inherently sequential, so it opts out of batching and
//! reaches the backtest harness through the blanket
//! `Policy for SequentialPolicy` impl.
//!
//! Zero look-ahead by construction: at period `t` the trainer may only
//! sample windows whose *outcome* relative `x_{t'}` has `t' < t`.

use crate::config::{RewardConfig, TrainConfig};
use crate::ppn::Variant;
use crate::trainer::Trainer;
use ppn_market::{DatasetHandle, DecisionContext, SequentialPolicy, Weights};

/// A policy that performs `steps_per_period` gradient updates between
/// consecutive live decisions, on data up to (but excluding) the current
/// period.
pub struct OnlineNetPolicy<'a> {
    trainer: Trainer<'a>,
    /// Gradient steps between decisions.
    pub steps_per_period: usize,
    last_seen: usize,
}

impl<'a> OnlineNetPolicy<'a> {
    /// Pre-trains on the training split, then keeps adapting online.
    ///
    /// Accepts `&Dataset` for the classic borrowed flow or `Arc<Dataset>`
    /// for an owned `OnlineNetPolicy<'static>` that can move across thread
    /// boundaries.
    pub fn new(
        dataset: impl Into<DatasetHandle<'a>>,
        variant: Variant,
        reward: RewardConfig,
        pretrain: TrainConfig,
        steps_per_period: usize,
    ) -> Self {
        let mut trainer = Trainer::new(dataset, variant, reward, pretrain);
        trainer.train();
        OnlineNetPolicy { trainer, steps_per_period, last_seen: 0 }
    }
}

impl SequentialPolicy for OnlineNetPolicy<'_> {
    fn name(&self) -> String {
        format!("{}-online", self.trainer.net.variant.name())
    }

    fn decide_one(&mut self, ctx: &DecisionContext<'_>) -> Weights {
        // Extend the trainable horizon to everything strictly before `t`,
        // then adapt.
        if ctx.t > self.last_seen {
            self.trainer.extend_horizon(ctx.t);
            self.last_seen = ctx.t;
            for _ in 0..self.steps_per_period {
                self.trainer.step();
            }
        }
        let window = ctx.dataset.window(ctx.t, self.trainer.net.cfg.window);
        let mut a = self.trainer.net.act(&window, ctx.prev_action);
        let s: f64 = a.iter().sum();
        for w in &mut a {
            *w /= s;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_market::{run_backtest, Dataset, Preset};

    #[test]
    fn arc_constructor_yields_static_policy() {
        use std::sync::Arc;
        let ds = Arc::new(Dataset::load(Preset::CryptoA));
        let pretrain = TrainConfig { steps: 2, batch: 8, ..TrainConfig::default() };
        let p: OnlineNetPolicy<'static> = OnlineNetPolicy::new(
            Arc::clone(&ds),
            Variant::PpnLstm,
            RewardConfig::default(),
            pretrain,
            1,
        );
        // An owned policy must be movable across a thread boundary.
        fn assert_send<T: Send + 'static>(_: &T) {}
        assert_send(&p);
    }

    #[test]
    fn online_policy_backtests_validly() {
        let ds = Dataset::load(Preset::CryptoA);
        let pretrain = TrainConfig { steps: 10, batch: 8, ..TrainConfig::default() };
        let mut p =
            OnlineNetPolicy::new(&ds, Variant::PpnLstm, RewardConfig::default(), pretrain, 1);
        let r = run_backtest(&ds, &mut p, 0.0025, ds.split..ds.split + 25);
        assert_eq!(r.records.len(), 25);
        for rec in &r.records {
            let s: f64 = rec.action.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(r.metrics.apv.is_finite() && r.metrics.apv > 0.0);
    }

    #[test]
    fn horizon_never_includes_current_period() {
        // The trainer's sampling ceiling must stay strictly below the
        // decision period (no label leakage).
        let ds = Dataset::load(Preset::CryptoA);
        let pretrain = TrainConfig { steps: 5, batch: 8, ..TrainConfig::default() };
        let mut p =
            OnlineNetPolicy::new(&ds, Variant::PpnLstm, RewardConfig::default(), pretrain, 1);
        let _ = run_backtest(&ds, &mut p, 0.0025, ds.split..ds.split + 10);
        assert!(p.trainer.horizon() <= ds.split + 9);
    }
}
