//! PPN-AC: the DDPG actor-critic comparison of §7.2 / Table 9.
//!
//! The paper argues that value-function approximation is ill-suited to this
//! MDP (the action does not influence the state, and the decision process is
//! non-stationary) and shows empirically that a DDPG-trained PPN ("PPN-AC")
//! underperforms the direct-policy-gradient PPN. This module implements that
//! comparison system: the actor *is* a [`PolicyNet`], the critic is a small
//! convolutional Q-network, and training uses the standard DDPG loop —
//! replay buffer, target networks with soft updates, deterministic policy
//! gradient through the critic.

use crate::batch::WindowBatch;
use crate::config::{NetConfig, RewardConfig};
use crate::ppn::{PolicyNet, Variant};
use ppn_market::{Dataset, Ledger};
use ppn_tensor::layers::{Conv2dLayer, ConvKind, Dense};
use ppn_tensor::{clip_global_norm, Adam, Binding, Graph, NodeId, Optimizer, ParamStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Q-network: window features + proposed action → scalar value.
pub struct Critic {
    /// Parameters of the critic.
    pub store: ParamStore,
    conv1: Conv2dLayer,
    conv2: Conv2dLayer,
    fuse: Conv2dLayer,
    head1: Dense,
    head2: Dense,
}

impl Critic {
    /// Fresh critic for the given architecture config.
    pub fn new<R: Rng>(cfg: NetConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let conv1 = Conv2dLayer::new(
            &mut store,
            rng,
            "q.conv1",
            cfg.features,
            8,
            (1, 3),
            (1, 1),
            ConvKind::Valid,
        );
        let conv2 = Conv2dLayer::new(
            &mut store,
            rng,
            "q.conv2",
            8,
            16,
            (1, cfg.window - 2),
            (1, 1),
            ConvKind::Valid,
        );
        // 16 feature channels + 1 action channel fused per asset.
        let fuse =
            Conv2dLayer::new(&mut store, rng, "q.fuse", 17, 4, (1, 1), (1, 1), ConvKind::Valid);
        let head1 = Dense::new(&mut store, rng, "q.head1", 4 * cfg.assets + 1, 32);
        let head2 = Dense::new(&mut store, rng, "q.head2", 32, 1);
        Critic { store, conv1, conv2, fuse, head1, head2 }
    }

    /// `Q(s, a)`: `batch` carries the states; `actions` is a `(B, m+1)`
    /// node (cash first). Returns `(B, 1)`.
    pub fn forward(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &WindowBatch,
        actions: NodeId,
    ) -> NodeId {
        let b = batch.batch;
        let m = batch.m;
        let x = g.leaf(batch.conv_input.clone());
        let h = self.conv1.forward(g, bind, x);
        let h = g.relu(h);
        let h = self.conv2.forward(g, bind, h); // (B, 16, m, 1)
        let h = g.relu(h);
        // Risky action slice as an extra channel.
        let risky = g.slice(actions, 1, 1, m + 1); // (B, m)
        let risky4 = g.reshape(risky, &[b, 1, m, 1]);
        let fused_in = g.concat(&[h, risky4], 1); // (B, 17, m, 1)
        let f = self.fuse.forward(g, bind, fused_in); // (B, 4, m, 1)
        let f = g.relu(f);
        let flat = g.reshape(f, &[b, 4 * m]);
        // Cash weight enters the head directly.
        let cash = g.slice(actions, 1, 0, 1); // (B, 1)
        let head_in = g.concat(&[flat, cash], 1);
        let h1 = self.head1.forward(g, bind, head_in);
        let h1 = g.relu(h1);
        self.head2.forward(g, bind, h1)
    }
}

/// One replay transition.
#[derive(Clone)]
struct Transition {
    window: Vec<f64>,
    prev_action: Vec<f64>,
    action: Vec<f64>,
    reward: f64,
    next_window: Vec<f64>,
}

/// DDPG hyper-parameters.
#[derive(Debug, Clone)]
pub struct DdpgConfig {
    /// Environment steps (and gradient updates once the buffer warms up).
    pub steps: usize,
    /// Replay capacity.
    pub buffer: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Discount factor.
    pub discount: f64,
    /// Target-network soft-update rate τ.
    pub tau: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Initial exploration mixing weight (decays linearly to 0).
    pub explore: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            steps: 600,
            buffer: 2_000,
            batch: 16,
            discount: 0.99,
            tau: 0.01,
            actor_lr: 1e-4,
            critic_lr: 1e-3,
            explore: 0.3,
            seed: 0,
        }
    }
}

/// DDPG trainer producing a PPN-AC policy.
pub struct DdpgTrainer<'a> {
    dataset: &'a Dataset,
    /// The actor network (a PPN).
    pub actor: PolicyNet,
    actor_target: PolicyNet,
    critic: Critic,
    critic_target: Critic,
    cfg: DdpgConfig,
    reward_cfg: RewardConfig,
    buffer: Vec<Transition>,
    rng: StdRng,
    actor_opt: Adam,
    critic_opt: Adam,
}

impl<'a> DdpgTrainer<'a> {
    /// Builds actor/critic pairs with aligned target copies.
    pub fn new(
        dataset: &'a Dataset,
        variant: Variant,
        reward_cfg: RewardConfig,
        cfg: DdpgConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let net_cfg = NetConfig::paper(dataset.assets());
        let actor = PolicyNet::new(variant, net_cfg.clone(), &mut rng);
        let mut actor_target = PolicyNet::new(variant, net_cfg.clone(), &mut rng);
        actor_target.store.copy_from(&actor.store);
        let critic = Critic::new(net_cfg.clone(), &mut rng);
        let mut critic_target = Critic::new(net_cfg, &mut rng);
        critic_target.store.copy_from(&critic.store);
        let actor_opt = Adam::new(cfg.actor_lr);
        let critic_opt = Adam::new(cfg.critic_lr);
        DdpgTrainer {
            dataset,
            actor,
            actor_target,
            critic,
            critic_target,
            cfg,
            reward_cfg,
            buffer: Vec::new(),
            rng,
            actor_opt,
            critic_opt,
        }
    }

    fn batch_from(&self, trans: &[&Transition]) -> (WindowBatch, Vec<Vec<f64>>) {
        let windows: Vec<Vec<f64>> = trans.iter().map(|t| t.window.clone()).collect();
        let prevs: Vec<Vec<f64>> = trans.iter().map(|t| t.prev_action.clone()).collect();
        let b = WindowBatch::new(
            &windows,
            &prevs,
            self.dataset.assets(),
            self.actor.cfg.window,
            self.actor.cfg.features,
        );
        (b, prevs)
    }

    fn update_networks(&mut self) -> (f64, f64) {
        let idx: Vec<usize> =
            (0..self.cfg.batch).map(|_| self.rng.gen_range(0..self.buffer.len())).collect();
        let trans: Vec<Transition> = idx.iter().map(|&i| self.buffer[i].clone()).collect();
        let refs: Vec<&Transition> = trans.iter().collect();
        let bsz = refs.len();
        let m1 = self.dataset.assets() + 1;

        // ----- Targets: y = r + γ Q'(s', μ'(s')) — no gradients needed.
        let next_windows: Vec<&[f64]> = refs.iter().map(|t| t.next_window.as_slice()).collect();
        let next_prevs: Vec<&[f64]> = refs.iter().map(|t| t.action.as_slice()).collect();
        let next_batch = WindowBatch::new(
            &next_windows,
            &next_prevs,
            self.dataset.assets(),
            self.actor.cfg.window,
            self.actor.cfg.features,
        );
        let mut y = vec![0.0; bsz];
        {
            let mut g = Graph::new();
            let ab = self.actor_target.store.bind_frozen(&mut g);
            let qb = self.critic_target.store.bind_frozen(&mut g);
            let next_a = self.actor_target.forward(&mut g, &ab, &next_batch, false, &mut self.rng);
            let q_next = self.critic_target.forward(&mut g, &qb, &next_batch, next_a);
            for (i, t) in refs.iter().enumerate() {
                y[i] = t.reward + self.cfg.discount * g.value(q_next).data()[i];
            }
        }

        // ----- Critic update: minimise MSE(Q(s,a), y).
        let (state_batch, _) = self.batch_from(&refs);
        let actions_flat: Vec<f64> = refs.iter().flat_map(|t| t.action.clone()).collect();
        let critic_loss;
        {
            let mut g = Graph::new();
            let qb = self.critic.store.bind(&mut g);
            let a = g.leaf(ppn_tensor::Tensor::from_vec(&[bsz, m1], actions_flat));
            let q = self.critic.forward(&mut g, &qb, &state_batch, a);
            let target = g.leaf(ppn_tensor::Tensor::from_vec(&[bsz, 1], y));
            let d = g.sub(q, target);
            let sq = g.square(d);
            let loss = g.mean(sq);
            g.backward(loss);
            critic_loss = g.value(loss).item();
            let mut grads = qb.grads(&g);
            clip_global_norm(&mut grads, 5.0);
            self.critic_opt.step(&mut self.critic.store, &grads);
        }

        // ----- Actor update: maximise Q(s, μ(s)) with the critic frozen.
        let actor_obj;
        {
            let mut g = Graph::new();
            let ab = self.actor.store.bind(&mut g);
            let qb = self.critic.store.bind_frozen(&mut g);
            let a = self.actor.forward(&mut g, &ab, &state_batch, true, &mut self.rng);
            let q = self.critic.forward(&mut g, &qb, &state_batch, a);
            let mq = g.mean(q);
            let loss = g.neg(mq);
            g.backward(loss);
            actor_obj = g.value(mq).item();
            let mut grads = ab.grads(&g);
            clip_global_norm(&mut grads, 5.0);
            self.actor_opt.step(&mut self.actor.store, &grads);
        }

        // ----- Soft target updates.
        self.actor_target.store.soft_update_from(&self.actor.store, self.cfg.tau);
        self.critic_target.store.soft_update_from(&self.critic.store, self.cfg.tau);
        (critic_loss, actor_obj)
    }

    /// Runs the DDPG loop and returns the trained actor.
    ///
    /// The rollout walks the training periods `k..split` through a
    /// [`Ledger`] and wraps back to `k` with a fresh all-cash ledger when
    /// it reaches the test split.
    pub fn train(mut self) -> PolicyNet {
        let k = self.actor.cfg.window;
        let split = self.dataset.split;
        let m1 = self.dataset.assets() + 1;
        let psi = self.reward_cfg.psi;
        let mut t = k;
        let mut ledger = Ledger::new(m1, psi);
        let mut window = self.dataset.window(t, k);
        for step in 0..self.cfg.steps {
            // ε-mixed exploratory action.
            let eps = self.cfg.explore * (1.0 - step as f64 / self.cfg.steps as f64);
            let mut action = self.actor.act(&window, ledger.prev_action());
            if eps > 0.0 {
                let noise: Vec<f64> =
                    (0..m1).map(|_| -self.rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln()).collect();
                let ns: f64 = noise.iter().sum();
                for (a, n) in action.iter_mut().zip(&noise) {
                    *a = (1.0 - eps) * *a + eps * n / ns;
                }
            }
            let prev_action = ledger.prev_action().to_vec();
            let rec = ledger.apply(t, action, self.dataset.relative(t));
            t += 1;
            if t >= split {
                t = k;
                ledger = Ledger::new(m1, psi);
            }
            let next_window = self.dataset.window(t, k);
            self.buffer.push(Transition {
                window,
                prev_action,
                action: rec.action,
                reward: rec.net_log_return,
                next_window: next_window.clone(),
            });
            window = next_window;
            if self.buffer.len() > self.cfg.buffer {
                self.buffer.remove(0);
            }
            if self.buffer.len() >= self.cfg.batch {
                self.update_networks();
            }
        }
        self.actor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_market::Preset;

    #[test]
    fn critic_outputs_scalar_per_sample() {
        let cfg = NetConfig { window: 10, ..NetConfig::paper(4) };
        let mut rng = StdRng::seed_from_u64(0);
        let critic = Critic::new(cfg.clone(), &mut rng);
        let windows = vec![vec![1.0; 4 * 10 * 4]; 3];
        let prevs = vec![vec![0.2; 5]; 3];
        let batch = WindowBatch::new(&windows, &prevs, 4, 10, 4);
        let mut g = Graph::new();
        let bind = critic.store.bind(&mut g);
        let a = g.leaf(ppn_tensor::Tensor::full(&[3, 5], 0.2));
        let q = critic.forward(&mut g, &bind, &batch, a);
        assert_eq!(g.value(q).shape(), &[3, 1]);
    }

    #[test]
    fn actor_gradient_flows_through_frozen_critic() {
        let cfg = NetConfig { window: 10, ..NetConfig::paper(3) };
        let mut rng = StdRng::seed_from_u64(1);
        let actor = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);
        let critic = Critic::new(cfg.clone(), &mut rng);
        let windows = vec![vec![1.0; 3 * 10 * 4]; 2];
        let prevs = vec![vec![0.25; 4]; 2];
        let batch = WindowBatch::new(&windows, &prevs, 3, 10, 4);
        let mut g = Graph::new();
        let ab = actor.store.bind(&mut g);
        let qb = critic.store.bind_frozen(&mut g);
        let a = actor.forward(&mut g, &ab, &batch, false, &mut rng);
        let q = critic.forward(&mut g, &qb, &batch, a);
        let mq = g.mean(q);
        let loss = g.neg(mq);
        g.backward(loss);
        let actor_grads = ab.grads(&g);
        assert!(actor_grads.iter().all(|gr| gr.is_some()), "actor params unreached");
        let critic_grads = qb.grads(&g);
        assert!(critic_grads.iter().all(|gr| gr.is_none()), "frozen critic got gradients");
    }

    #[test]
    fn short_ddpg_run_produces_usable_actor() {
        let ds = Dataset::load(Preset::CryptoA);
        let cfg = DdpgConfig { steps: 12, batch: 4, ..DdpgConfig::default() };
        let trainer = DdpgTrainer::new(&ds, Variant::PpnLstm, RewardConfig::default(), cfg);
        let actor = trainer.train();
        let w = ds.window(100, actor.cfg.window);
        let a = actor.act(&w, &[1.0 / 13.0; 13]);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Golden pin: the exploration rollout and the per-step reward both
        // feed these bits.
        let bits: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
        let expect: [u64; 13] = [
            4588871609576749510,
            4590280969131356136,
            4590290928832173196,
            4590279416742366024,
            4590278480346466202,
            4590321452057692944,
            4590310221699454583,
            4590320766289661070,
            4590332862050186029,
            4590292560408914827,
            4590290614279992111,
            4590338487943583205,
            4590338487943583205,
        ];
        assert_eq!(bits, expect, "{a:?}");
    }
}
