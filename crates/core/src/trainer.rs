//! Direct policy gradient training (§5.1) with the online stochastic batch
//! method and portfolio-vector memory (Remark 3; the mechanism originates in
//! the EIIE framework the paper builds on).
//!
//! The trainer keeps one stored action per training period (the PVM). Each
//! step it samples a contiguous trajectory, feeds every period's window plus
//! the *stored* previous action, assembles the cost-sensitive reward over
//! the trajectory, ascends its gradient, and writes the fresh actions back
//! to the PVM. Because the zero-market-impact assumption decouples actions
//! from state transitions, the same price segment can be re-evaluated under
//! new policies indefinitely — that is what makes this data-efficient.

use crate::batch::WindowBatch;
use crate::config::{NetConfig, RewardConfig, TrainConfig};
use crate::ppn::{PolicyNet, Variant};
use crate::reward::cost_sensitive_reward;
use ppn_market::{drifted_weights, DatasetHandle};
use ppn_tensor::{clip_global_norm, Adam, Optimizer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-step training telemetry.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct StepStats {
    /// Cost-sensitive reward of the sampled batch.
    pub reward: f64,
    /// Mean rebalanced log-return component.
    pub mean_log_return: f64,
    /// Risk (variance) component.
    pub variance: f64,
    /// Mean L1 turnover component.
    pub mean_turnover: f64,
    /// Pre-clip gradient norm.
    pub grad_norm: f64,
}

/// Aggregate training summary.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Full telemetry trace, one [`StepStats`] per step. `train` also emits
    /// each row as a `train.step` event to the JSONL sink.
    pub steps: Vec<StepStats>,
    /// Mean reward over the final 10% of steps; `f64::NAN` when the run had
    /// zero steps (no reward is defined over an empty trace).
    pub final_reward: f64,
}

/// Trains a [`PolicyNet`] on a dataset's training split.
pub struct Trainer<'a> {
    /// The dataset being learned — borrowed for offline training, or
    /// `Arc`-shared so the trainer can own it across a stream thread
    /// boundary (see [`ppn_market::DatasetHandle`]).
    pub dataset: DatasetHandle<'a>,
    /// The network under training.
    pub net: PolicyNet,
    /// Reward configuration (λ, γ, ψ).
    pub reward_cfg: RewardConfig,
    /// Optimisation configuration.
    pub train_cfg: TrainConfig,
    pvm: Vec<Vec<f64>>,
    opt: Adam,
    rng: StdRng,
    horizon: usize,
    /// Tape reused across steps: resetting (rather than dropping) it keeps
    /// its node arena, and the tensor buffers it releases each step are
    /// rebound from the thread-local storage arena on the next sweep.
    tape: ppn_tensor::Graph,
}

impl<'a> Trainer<'a> {
    /// Builds a trainer with a freshly-initialised network. Accepts either
    /// `&Dataset` (offline) or `Arc<Dataset>` (owned, `'static`).
    pub fn new(
        dataset: impl Into<DatasetHandle<'a>>,
        variant: Variant,
        reward_cfg: RewardConfig,
        train_cfg: TrainConfig,
    ) -> Self {
        let dataset = dataset.into();
        let mut rng = StdRng::seed_from_u64(train_cfg.seed);
        let cfg = NetConfig::paper(dataset.assets());
        let net = PolicyNet::new(variant, cfg, &mut rng);
        Self::with_net(dataset, net, reward_cfg, train_cfg)
    }

    /// Builds a trainer around an existing network (custom `NetConfig`s).
    pub fn with_net(
        dataset: impl Into<DatasetHandle<'a>>,
        net: PolicyNet,
        reward_cfg: RewardConfig,
        train_cfg: TrainConfig,
    ) -> Self {
        let dataset = dataset.into();
        let m1 = dataset.assets() + 1;
        let uniform = vec![1.0 / m1 as f64; m1];
        let pvm = vec![uniform; dataset.split];
        let opt = Adam::new(train_cfg.lr);
        let rng = StdRng::seed_from_u64(train_cfg.seed ^ 0x5EED);
        let horizon = dataset.split;
        Trainer {
            dataset,
            net,
            reward_cfg,
            train_cfg,
            pvm,
            opt,
            rng,
            horizon,
            tape: ppn_tensor::Graph::new(),
        }
    }

    /// Last period (exclusive) the trainer may sample outcomes from.
    /// Defaults to the dataset's train/test split.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Extends the sampling horizon for online rolling training. Periods up
    /// to (but excluding) `t` become available; the portfolio-vector memory
    /// grows accordingly. Capped at the dataset's relative count.
    pub fn extend_horizon(&mut self, t: usize) {
        let t = t.min(self.dataset.relatives.len());
        if t <= self.horizon {
            return;
        }
        let m1 = self.dataset.assets() + 1;
        let uniform = vec![1.0 / m1 as f64; m1];
        self.pvm.resize(t, uniform);
        self.horizon = t;
    }

    /// Earliest period with a full window *and* a PVM predecessor.
    fn min_start(&self) -> usize {
        self.net.cfg.window
    }

    /// Latest admissible batch start.
    fn max_start(&self) -> usize {
        self.horizon - self.train_cfg.batch
    }

    /// Samples a batch start, geometrically biased toward recent data when
    /// `sample_bias > 0` (EIIE-style).
    fn sample_start(&mut self) -> usize {
        let lo = self.min_start();
        let hi = self.max_start();
        assert!(hi > lo, "training split too small for the batch size");
        if self.train_cfg.sample_bias <= 0.0 {
            return self.rng.gen_range(lo..hi);
        }
        let beta = self.train_cfg.sample_bias;
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let offset = (u.ln() / (1.0 - beta).ln()).floor() as usize;
        hi.saturating_sub(offset).max(lo).min(hi - 1)
    }

    /// Runs one gradient step; returns telemetry.
    // ppn-check: contract(simplex)
    pub fn step(&mut self) -> StepStats {
        // One `train.step` root (a new trace when `PPN_TRACE_SAMPLE` picks
        // it) over four stage spans: synth → forward → backward → PVM
        // writeback. `ppn-trace` renders the sampled tree.
        let _step = ppn_obs::span::root("train.step");
        let wall = ppn_obs::clock::now(); // for the train.step_ms histogram
        let synth = ppn_obs::span!("train.synth");
        let t0 = self.sample_start();
        let tn = self.train_cfg.batch;
        let m1 = self.dataset.assets() + 1;
        let k = self.net.cfg.window;

        // Assemble the trajectory inputs from dataset + PVM.
        let mut windows = Vec::with_capacity(tn);
        let mut prevs = Vec::with_capacity(tn);
        let mut drifted = Vec::with_capacity(tn * m1);
        let mut rels = Vec::with_capacity(tn * m1);
        for b in 0..tn {
            let t = t0 + b;
            windows.push(self.dataset.window(t, k));
            let prev = self.pvm[t - 1].clone();
            let hat = drifted_weights(&prev, self.dataset.relative(t - 1));
            drifted.extend_from_slice(&hat);
            rels.extend_from_slice(self.dataset.relative(t));
            prevs.push(prev);
        }
        let batch =
            WindowBatch::new(&windows, &prevs, self.dataset.assets(), k, self.net.cfg.features);
        let rel_t = Tensor::from_vec(&[tn, m1], rels);
        let hat_t = Tensor::from_vec(&[tn, m1], drifted);
        drop(synth);

        // Forward + reward + backward on the reused tape (taken out of
        // `self` so the borrow checker allows `self.net` access below).
        let forward = ppn_obs::span!("train.forward");
        let mut g = std::mem::take(&mut self.tape);
        g.reset();
        let bind = self.net.store.bind(&mut g);
        let actions = self.net.forward(&mut g, &bind, &batch, true, &mut self.rng);
        let nodes = cost_sensitive_reward(
            &mut g,
            actions,
            &rel_t,
            &hat_t,
            self.reward_cfg.lambda,
            self.reward_cfg.gamma,
            self.reward_cfg.psi,
        );
        drop(forward);
        let backward = ppn_obs::span!("train.backward");
        g.backward(nodes.loss);
        let mut grads = bind.grads(&g);
        let grad_norm = clip_global_norm(&mut grads, self.train_cfg.clip);
        self.opt.step(&mut self.net.store, &grads);
        drop(backward);

        // Write the new actions back into the PVM.
        let writeback = ppn_obs::span!("train.pvm_writeback");
        let a = g.value(actions);
        for b in 0..tn {
            let row = a.data()[b * m1..(b + 1) * m1].to_vec();
            crate::contracts::assert_simplex(&row, "Trainer::step PVM writeback");
            self.pvm[t0 + b] = row;
        }
        drop(writeback);

        let stats = StepStats {
            reward: g.value(nodes.reward).item(),
            mean_log_return: g.value(nodes.mean_log_return).item(),
            variance: g.value(nodes.variance).item(),
            mean_turnover: g.value(nodes.mean_turnover).item(),
            grad_norm,
        };
        self.tape = g;
        if ppn_obs::metrics_enabled() {
            ppn_obs::counter("train.steps").inc();
            ppn_obs::histogram("train.grad_norm", &[0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 50.0])
                .observe(stats.grad_norm);
            ppn_obs::histogram("train.turnover", &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
                .observe(stats.mean_turnover);
            ppn_obs::histogram(
                "train.step_ms",
                &[1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0],
            )
            .observe(wall.elapsed().as_secs_f64() * 1e3);
        }
        stats
    }

    /// Runs the configured number of steps.
    ///
    /// A zero-step configuration is a no-op: the report comes back with
    /// empty traces and `final_reward = f64::NAN` (see
    /// [`TrainReport::final_reward`]) rather than panicking.
    pub fn train(&mut self) -> TrainReport {
        let total = self.train_cfg.steps;
        if total == 0 {
            return TrainReport { steps: Vec::new(), final_reward: f64::NAN };
        }
        let mut steps = Vec::with_capacity(total);
        // Per-epoch progress cadence: ~10 summaries over the run.
        let epoch = (total / 10).max(1);
        for i in 0..total {
            let s = self.step();
            ppn_obs::event!(
                ppn_obs::Level::Trace,
                "train.step",
                step = i,
                reward = s.reward,
                mean_log_return = s.mean_log_return,
                variance = s.variance,
                mean_turnover = s.mean_turnover,
                grad_norm = s.grad_norm,
            );
            if (i + 1) % epoch == 0 || i + 1 == total {
                let lo = (i + 1).saturating_sub(epoch);
                let window = &steps[lo..];
                let mean = |f: fn(&StepStats) -> f64| {
                    (window.iter().map(f).sum::<f64>() + f(&s)) / (window.len() + 1) as f64
                };
                ppn_obs::event!(
                    ppn_obs::Level::Debug,
                    "train.epoch",
                    step = i + 1,
                    steps_total = total,
                    mean_reward = mean(|x| x.reward),
                    mean_turnover = mean(|x| x.mean_turnover),
                    mean_grad_norm = mean(|x| x.grad_norm),
                );
            }
            steps.push(s);
        }
        let tail = (steps.len() / 10).max(1);
        let final_reward =
            steps[steps.len() - tail..].iter().map(|s| s.reward).sum::<f64>() / tail as f64;
        ppn_obs::event!(
            ppn_obs::Level::Debug,
            "train.finish",
            steps = total,
            final_reward = final_reward,
        );
        TrainReport { steps, final_reward }
    }

    /// Consumes the trainer, returning the trained network.
    pub fn into_net(self) -> PolicyNet {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_market::{Dataset, Preset};

    fn small_train_cfg(steps: usize) -> TrainConfig {
        TrainConfig { steps, batch: 8, lr: 1e-3, clip: 5.0, sample_bias: 0.0, seed: 1 }
    }

    #[test]
    fn step_produces_finite_telemetry_and_updates_pvm() {
        let ds = Dataset::load(Preset::CryptoA);
        let mut tr =
            Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), small_train_cfg(1));
        let before = tr.pvm.clone();
        let s = tr.step();
        assert!(s.reward.is_finite() && s.grad_norm.is_finite());
        assert!(s.variance >= 0.0);
        assert!(s.mean_turnover >= 0.0);
        let changed = tr.pvm.iter().zip(&before).filter(|(a, b)| a != b).count();
        assert_eq!(changed, tr.train_cfg.batch, "exactly the batch rows change");
        // PVM rows stay on the simplex.
        for row in &tr.pvm {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn training_improves_batch_reward() {
        // On the momentum-rich Crypto-A training data, even a short run
        // should push the average batch reward above the initial level.
        let ds = Dataset::load(Preset::CryptoA);
        let mut tr =
            Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), small_train_cfg(60));
        let report = tr.train();
        let head: f64 = report.steps[..10].iter().map(|s| s.reward).sum::<f64>() / 10.0;
        assert!(
            report.final_reward > head - 5e-4,
            "reward regressed: head {head} final {}",
            report.final_reward
        );
    }

    #[test]
    fn zero_step_train_returns_empty_report() {
        // Regression: `train()` used to underflow on the reward tail slice
        // when configured with zero steps.
        let ds = Dataset::load(Preset::CryptoA);
        let mut tr =
            Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), small_train_cfg(0));
        let report = tr.train();
        assert!(report.steps.is_empty());
        assert!(report.final_reward.is_nan(), "empty run must report NaN final reward");
    }

    #[test]
    fn geometric_sampling_prefers_recent_starts() {
        let ds = Dataset::load(Preset::CryptoA);
        let mut cfg = small_train_cfg(0);
        cfg.sample_bias = 0.01;
        let mut tr = Trainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), cfg);
        let hi = tr.max_start();
        let lo = tr.min_start();
        let draws: Vec<usize> = (0..500).map(|_| tr.sample_start()).collect();
        let mean = draws.iter().sum::<usize>() as f64 / draws.len() as f64;
        assert!(draws.iter().all(|&s| (lo..hi).contains(&s)));
        assert!(mean > (lo + hi) as f64 / 2.0, "mean start {mean} not biased to the end");
    }
}
