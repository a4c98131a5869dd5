//! The Portfolio Policy Network and every ablation variant from the paper's
//! Table 4, plus the EIIE comparison network.
//!
//! | Variant | sequential stream | convolutional stream | fusion |
//! |---|---|---|---|
//! | `Ppn` | LSTM | TCCB ×3 + Conv4 | two-stream parallel |
//! | `PpnI` | LSTM | TCB ×3 + Conv4 | two-stream parallel |
//! | `PpnLstm` | LSTM | — | single stream |
//! | `PpnTcb` | — | TCB + Conv4 | single stream |
//! | `PpnTccb` | — | TCCB + Conv4 | single stream |
//! | `PpnTcbLstm` | LSTM *after* TCB blocks | TCB (no Conv4) | cascade |
//! | `PpnTccbLstm` | LSTM *after* TCCB blocks | TCCB (no Conv4) | cascade |
//! | `Eiie` | — | EIIE 2-layer CNN | (Jiang et al. 2017) |

use crate::batch::WindowBatch;
use crate::config::NetConfig;
use crate::corrnet::{CorrMode, CorrNet};
use crate::decision::DecisionModule;
use crate::seqnet::SeqNet;
use ppn_tensor::layers::{Conv2dLayer, ConvKind};
use ppn_tensor::{Binding, Graph, NodeId, ParamStore};
use rand::Rng;

thread_local! {
    /// Per-thread inference tape reused by [`PolicyNet::act_batch`].
    static ACT_TAPE: std::cell::RefCell<Graph> = std::cell::RefCell::new(Graph::new());
}

/// Network variant (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Variant {
    /// Full two-stream PPN (LSTM ∥ TCCB).
    Ppn,
    /// Independent-asset PPN (LSTM ∥ TCB).
    PpnI,
    /// LSTM stream only.
    PpnLstm,
    /// TCB stream only.
    PpnTcb,
    /// TCCB stream only.
    PpnTccb,
    /// Cascade: TCB blocks feeding an LSTM.
    PpnTcbLstm,
    /// Cascade: TCCB blocks feeding an LSTM.
    PpnTccbLstm,
    /// The EIIE CNN of Jiang et al. (2017), the paper's strongest baseline.
    Eiie,
}

impl Variant {
    /// Display name used in the result tables.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Ppn => "PPN",
            Variant::PpnI => "PPN-I",
            Variant::PpnLstm => "PPN-LSTM",
            Variant::PpnTcb => "PPN-TCB",
            Variant::PpnTccb => "PPN-TCCB",
            Variant::PpnTcbLstm => "PPN-TCB-LSTM",
            Variant::PpnTccbLstm => "PPN-TCCB-LSTM",
            Variant::Eiie => "EIIE",
        }
    }

    /// Parses a variant from its display name.
    pub fn from_name(name: &str) -> Option<Variant> {
        [
            Variant::Ppn,
            Variant::PpnI,
            Variant::PpnLstm,
            Variant::PpnTcb,
            Variant::PpnTccb,
            Variant::PpnTcbLstm,
            Variant::PpnTccbLstm,
            Variant::Eiie,
        ]
        .into_iter()
        .find(|v| v.name() == name)
    }

    /// All PPN ablation variants in the row order of Table 4.
    pub fn table4_order() -> [Variant; 7] {
        [
            Variant::PpnLstm,
            Variant::PpnTcb,
            Variant::PpnTccb,
            Variant::PpnTcbLstm,
            Variant::PpnTccbLstm,
            Variant::PpnI,
            Variant::Ppn,
        ]
    }
}

enum Arch {
    TwoStream { seq: SeqNet, corr: CorrNet },
    SeqOnly { seq: SeqNet },
    ConvOnly { corr: CorrNet },
    Cascade { corr: CorrNet, seq: SeqNet },
    Eiie { conv1: Conv2dLayer, conv2: Conv2dLayer },
}

/// A trainable portfolio policy: owns its parameters and produces simplex
/// portfolios from [`WindowBatch`]es.
pub struct PolicyNet {
    /// The architecture variant.
    pub variant: Variant,
    /// Architecture configuration.
    pub cfg: NetConfig,
    /// The network's parameters.
    pub store: ParamStore,
    arch: Arch,
    decision: DecisionModule,
}

impl PolicyNet {
    /// Builds a network with freshly-initialised parameters.
    pub fn new<R: Rng>(variant: Variant, cfg: NetConfig, rng: &mut R) -> Self {
        let mut store = ParamStore::new();
        let mk_corr = |store: &mut ParamStore, rng: &mut R, mode: CorrMode| {
            CorrNet::new(
                store,
                rng,
                "corr",
                mode,
                cfg.assets,
                cfg.window,
                cfg.features,
                &cfg.tccb_channels,
                &cfg.tccb_dilations,
                cfg.dropout,
            )
        };
        let (arch, feat_channels) = match variant {
            Variant::Ppn | Variant::PpnI => {
                let mode = if variant == Variant::Ppn { CorrMode::Tccb } else { CorrMode::Tcb };
                let corr = mk_corr(&mut store, rng, mode);
                let seq = SeqNet::new(&mut store, rng, "seq", cfg.features, cfg.lstm_hidden);
                let ch = seq.channels() + corr.channels();
                (Arch::TwoStream { seq, corr }, ch)
            }
            Variant::PpnLstm => {
                let seq = SeqNet::new(&mut store, rng, "seq", cfg.features, cfg.lstm_hidden);
                let ch = seq.channels();
                (Arch::SeqOnly { seq }, ch)
            }
            Variant::PpnTcb | Variant::PpnTccb => {
                let mode = if variant == Variant::PpnTccb { CorrMode::Tccb } else { CorrMode::Tcb };
                let corr = mk_corr(&mut store, rng, mode);
                let ch = corr.channels();
                (Arch::ConvOnly { corr }, ch)
            }
            Variant::PpnTcbLstm | Variant::PpnTccbLstm => {
                let mode =
                    if variant == Variant::PpnTccbLstm { CorrMode::Tccb } else { CorrMode::Tcb };
                let corr = CorrNet::new_blocks_only(
                    &mut store,
                    rng,
                    "corr",
                    mode,
                    cfg.assets,
                    cfg.window,
                    cfg.features,
                    &cfg.tccb_channels,
                    &cfg.tccb_dilations,
                    cfg.dropout,
                );
                // Cascade LSTM consumes the blocks' channel output per period.
                let seq = SeqNet::new(
                    &mut store,
                    rng,
                    "seq",
                    // ppn-check: allow(no-panic) NetConfig always carries at least one TCCB block
                    *cfg.tccb_channels.last().expect("tccb_channels is non-empty"),
                    cfg.lstm_hidden,
                );
                let ch = seq.channels();
                (Arch::Cascade { corr, seq }, ch)
            }
            Variant::Eiie => {
                let conv1 = Conv2dLayer::new(
                    &mut store,
                    rng,
                    "eiie.conv1",
                    cfg.features,
                    8,
                    (1, 3),
                    (1, 1),
                    ConvKind::Valid,
                );
                let conv2 = Conv2dLayer::new(
                    &mut store,
                    rng,
                    "eiie.conv2",
                    8,
                    cfg.eiie_channels,
                    (1, cfg.window - 2),
                    (1, 1),
                    ConvKind::Valid,
                );
                let ch = cfg.eiie_channels;
                (Arch::Eiie { conv1, conv2 }, ch)
            }
        };
        let decision =
            DecisionModule::new(&mut store, rng, "decision", feat_channels, cfg.cash_bias);
        PolicyNet { variant, cfg, store, arch, decision }
    }

    /// Forward pass: returns the `(B, m+1)` portfolio node (softmax rows,
    /// cash at column 0).
    // ppn-check: contract(simplex)
    pub fn forward<R: Rng>(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &WindowBatch,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        let _span = ppn_obs::span!("net.forward");
        let features: Vec<NodeId> = match &self.arch {
            Arch::TwoStream { seq, corr } => {
                let f_seq = seq.forward(g, bind, batch);
                let f_corr = corr.forward(g, bind, batch, training, rng);
                vec![f_seq, f_corr]
            }
            Arch::SeqOnly { seq } => vec![seq.forward(g, bind, batch)],
            Arch::ConvOnly { corr } => vec![corr.forward(g, bind, batch, training, rng)],
            Arch::Cascade { corr, seq } => {
                let x = g.leaf(batch.conv_input.clone());
                let h = corr.forward_blocks(g, bind, x, training, rng); // (B, C, m, k)
                let c = g.value(h).shape()[1];
                // Slice each period into a (B·m, C) LSTM step.
                let steps: Vec<NodeId> = (0..batch.k)
                    .map(|t| {
                        let st = g.slice(h, 3, t, t + 1); // (B, C, m, 1)
                        let r = g.reshape(st, &[batch.batch, c, batch.m]);
                        let p = g.permute(r, &[0, 2, 1]); // (B, m, C)
                        g.reshape(p, &[batch.batch * batch.m, c])
                    })
                    .collect();
                vec![seq.forward_steps(g, bind, &steps, batch.batch, batch.m)]
            }
            Arch::Eiie { conv1, conv2 } => {
                let x = g.leaf(batch.conv_input.clone());
                let h = conv1.forward(g, bind, x);
                let h = g.relu(h);
                let h = conv2.forward(g, bind, h); // (B, C, m, 1)
                vec![g.relu(h)]
            }
        };
        let prev = g.leaf(batch.prev_risky.clone());
        let out = self.decision.forward(g, bind, &features, prev);
        crate::contracts::assert_simplex_rows(
            g.value(out).data(),
            batch.m + 1,
            "PolicyNet::forward",
        );
        out
    }

    /// Deep-copies the network: rebuilds the architecture and copies every
    /// parameter tensor. Same rebuild idiom as [`PolicyNet::load`] — the
    /// registration order of a `(variant, cfg)` pair is deterministic, so
    /// pairwise copy is exact and the copy acts bit-identically. This is
    /// how the streaming updater publishes immutable candidates while the
    /// trainer keeps mutating its own parameters.
    pub fn snapshot(&self) -> PolicyNet {
        let mut rng = rand::rngs::mock::StepRng::new(1, 1);
        let mut net = PolicyNet::new(self.variant, self.cfg.clone(), &mut rng);
        debug_assert_eq!(net.store.len(), self.store.len());
        for (dst, src) in net.store.ids().zip(self.store.ids()).collect::<Vec<_>>() {
            *net.store.value_mut(dst) = self.store.value(src).clone();
        }
        net
    }

    /// Convenience single-sample evaluation (no dropout, no gradient):
    /// returns the `m+1` portfolio for one window. The simplex contract is
    /// enforced inside [`PolicyNet::act_batch`], which this delegates to.
    pub fn act(&self, window: &[f64], prev_action: &[f64]) -> Vec<f64> {
        let mut out = self.act_batch(&[window], &[prev_action]);
        debug_assert_eq!(out.len(), 1);
        out.pop().unwrap_or_default()
    }

    /// Batched evaluation (no dropout, no gradient): one forward pass over
    /// all samples, returning an `m+1` portfolio per window.
    ///
    /// Every kernel in the forward pass accumulates each output row
    /// independently of the batch dimension, so each returned portfolio is
    /// bit-identical to what [`PolicyNet::act`] produces for the same
    /// `(window, prev_action)` pair — the property the `ppn-serve`
    /// micro-batcher relies on.
    // ppn-check: contract(simplex)
    pub fn act_batch(
        &self,
        windows: &[impl AsRef<[f64]>],
        prev_actions: &[impl AsRef<[f64]>],
    ) -> Vec<Vec<f64>> {
        assert_eq!(windows.len(), prev_actions.len(), "act_batch input length mismatch");
        if windows.is_empty() {
            return Vec::new();
        }
        let batch = WindowBatch::new(
            windows,
            prev_actions,
            self.cfg.assets,
            self.cfg.window,
            self.cfg.features,
        );
        // Reuse one tape per serving thread: reset keeps the node arena,
        // and released tensor buffers are rebound from the storage arena on
        // the next call instead of hitting the allocator.
        let mut g = ACT_TAPE.try_with(std::cell::RefCell::take).unwrap_or_default();
        g.reset();
        let bind = self.store.bind(&mut g);
        // Dropout disabled → rng unused; any cheap source works.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = self.forward(&mut g, &bind, &batch, false, &mut rng);
        let data = g.value(out).data();
        let row = self.cfg.assets + 1;
        let actions: Vec<Vec<f64>> = data
            .chunks(row)
            .map(|r| {
                crate::contracts::assert_simplex(r, "PolicyNet::act_batch");
                r.to_vec()
            })
            .collect();
        let _ = ACT_TAPE.try_with(|cell| *cell.borrow_mut() = g);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch(cfg: &NetConfig, b: usize) -> WindowBatch {
        let (m, k, d) = (cfg.assets, cfg.window, cfg.features);
        let windows: Vec<Vec<f64>> = (0..b)
            .map(|s| (0..m * k * d).map(|i| 1.0 + 0.01 * ((i + s) as f64 * 0.7).sin()).collect())
            .collect();
        let prev = vec![vec![1.0 / (m as f64 + 1.0); m + 1]; b];
        WindowBatch::new(&windows, &prev, m, k, d)
    }

    #[test]
    fn every_variant_outputs_simplex() {
        let cfg = NetConfig { window: 12, ..NetConfig::paper(5) };
        let variants = [
            Variant::Ppn,
            Variant::PpnI,
            Variant::PpnLstm,
            Variant::PpnTcb,
            Variant::PpnTccb,
            Variant::PpnTcbLstm,
            Variant::PpnTccbLstm,
            Variant::Eiie,
        ];
        for v in variants {
            let mut rng = StdRng::seed_from_u64(9);
            let net = PolicyNet::new(v, cfg.clone(), &mut rng);
            let batch = toy_batch(&cfg, 2);
            let mut g = Graph::new();
            let bind = net.store.bind(&mut g);
            let out = net.forward(&mut g, &bind, &batch, false, &mut rng);
            let val = g.value(out);
            assert_eq!(val.shape(), &[2, 6], "{v:?}");
            for r in 0..2 {
                let s: f64 = val.data()[r * 6..(r + 1) * 6].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "{v:?} row sum {s}");
            }
        }
    }

    #[test]
    fn act_matches_forward() {
        let cfg = NetConfig { window: 10, ..NetConfig::paper(4) };
        let mut rng = StdRng::seed_from_u64(4);
        let net = PolicyNet::new(Variant::Ppn, cfg.clone(), &mut rng);
        let window: Vec<f64> =
            (0..cfg.assets * cfg.window * 4).map(|i| 1.0 + 0.001 * i as f64).collect();
        let prev = vec![0.2; 5];
        let a = net.act(&window, &prev);
        assert_eq!(a.len(), 5);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Deterministic in eval mode.
        assert_eq!(a, net.act(&window, &prev));
    }

    #[test]
    fn act_batch_rows_are_bit_identical_to_single_sample_act() {
        let cfg = NetConfig { window: 8, lstm_hidden: 4, ..NetConfig::paper(3) };
        for v in [Variant::Ppn, Variant::PpnLstm, Variant::PpnTccbLstm, Variant::Eiie] {
            let mut rng = StdRng::seed_from_u64(11);
            let net = PolicyNet::new(v, cfg.clone(), &mut rng);
            let (m, k, d) = (cfg.assets, cfg.window, cfg.features);
            let windows: Vec<Vec<f64>> = (0..5)
                .map(|s| {
                    (0..m * k * d).map(|i| 1.0 + 0.02 * ((i * (s + 1)) as f64).cos()).collect()
                })
                .collect();
            let prevs: Vec<Vec<f64>> = (0..5)
                .map(|s| {
                    let mut p = vec![1.0; m + 1];
                    p[s % (m + 1)] += 1.0;
                    let t: f64 = p.iter().sum();
                    p.iter().map(|w| w / t).collect()
                })
                .collect();
            let batched = net.act_batch(&windows, &prevs);
            assert_eq!(batched.len(), 5, "{v:?}");
            for i in 0..5 {
                let single = net.act(&windows[i], &prevs[i]);
                // Bitwise, not approximate: the serving micro-batcher
                // depends on batch size not perturbing decisions.
                let a: Vec<u64> = batched[i].iter().map(|x| x.to_bits()).collect();
                let b: Vec<u64> = single.iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "{v:?} row {i} differs between batched and single");
            }
        }
        // Empty input short-circuits without building a WindowBatch.
        let mut rng = StdRng::seed_from_u64(11);
        let net = PolicyNet::new(Variant::PpnLstm, cfg, &mut rng);
        let none: [&[f64]; 0] = [];
        assert!(net.act_batch(&none, &none).is_empty());
    }

    #[test]
    fn param_counts_scale_with_variant() {
        let cfg = NetConfig { window: 12, ..NetConfig::paper(6) };
        let count = |v: Variant| {
            let mut rng = StdRng::seed_from_u64(0);
            PolicyNet::new(v, cfg.clone(), &mut rng).store.num_scalars()
        };
        // Two-stream has strictly more parameters than either single stream.
        assert!(count(Variant::Ppn) > count(Variant::PpnLstm));
        assert!(count(Variant::Ppn) > count(Variant::PpnTccb));
        // TCCB adds the correlational kernels over TCB.
        assert!(count(Variant::PpnTccb) > count(Variant::PpnTcb));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let cfg = NetConfig { window: 10, ..NetConfig::paper(3) };
        for v in [Variant::Ppn, Variant::PpnTccbLstm, Variant::Eiie] {
            let mut rng = StdRng::seed_from_u64(5);
            let net = PolicyNet::new(v, cfg.clone(), &mut rng);
            let batch = toy_batch(&cfg, 2);
            let mut g = Graph::new();
            let bind = net.store.bind(&mut g);
            let out = net.forward(&mut g, &bind, &batch, false, &mut rng);
            // Arbitrary scalar objective touching every output.
            let w = g.leaf(ppn_tensor::Tensor::randn(&mut rng, &[2, 4], 1.0));
            let p = g.mul(out, w);
            let s = g.sum(p);
            g.backward(s);
            let grads = bind.grads(&g);
            let reached = grads.iter().filter(|gr| gr.is_some()).count();
            assert_eq!(
                reached,
                net.store.len(),
                "{v:?}: {reached}/{} params reached",
                net.store.len()
            );
        }
    }

    #[test]
    fn ppn_forward_backward_gradcheck_spotcheck() {
        // End-to-end finite-difference check through the full two-stream
        // network (subsampled — the net has thousands of scalars). `forward`
        // only reads the architecture, so the store can be moved out and
        // driven by the gradcheck harness.
        let cfg = NetConfig {
            window: 8,
            lstm_hidden: 4,
            tccb_channels: [3, 4, 4],
            ..NetConfig::paper(3)
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = PolicyNet::new(Variant::Ppn, cfg.clone(), &mut rng);
        let batch = toy_batch(&cfg, 1);
        let weights = ppn_tensor::Tensor::from_vec(&[1, 4], vec![0.3, -0.2, 0.8, -0.5]);
        let mut store = std::mem::take(&mut net.store);
        // Shift conv biases away from the ReLU kink: central differences
        // straddling a kink disagree with the (correct) subgradient and
        // would produce spurious errors.
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            if store.name(id).ends_with(".b") && store.name(id).contains("conv") {
                for v in store.value_mut(id).data_mut() {
                    *v += 0.5;
                }
            }
        }
        let report = ppn_tensor::gradcheck::gradcheck(
            &mut store,
            |g, bind| {
                let mut rng = rand::rngs::mock::StepRng::new(0, 1);
                let out = net.forward(g, bind, &batch, false, &mut rng);
                let w = g.leaf(weights.clone());
                let p = g.mul(out, w);
                g.sum(p)
            },
            1e-5,
            97,
        );
        assert!(report.checked > 10, "too few coordinates checked");
        assert!(report.max_rel_err < 1e-4, "{report:?}");
    }
}

/// Per-variant end-to-end gradient certification (ReLU kinks avoided by
/// shifting conv biases — see the note in `ppn::tests`).
#[cfg(test)]
mod variant_gradcheck {
    use super::*;
    use crate::batch::WindowBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch(cfg: &NetConfig, b: usize) -> WindowBatch {
        let (m, k, d) = (cfg.assets, cfg.window, cfg.features);
        let windows: Vec<Vec<f64>> = (0..b)
            .map(|s| (0..m * k * d).map(|i| 1.0 + 0.01 * ((i + s) as f64 * 0.7).sin()).collect())
            .collect();
        let prev = vec![vec![1.0 / (m as f64 + 1.0); m + 1]; b];
        WindowBatch::new(&windows, &prev, m, k, d)
    }

    fn check(v: Variant) -> f64 {
        let cfg = NetConfig {
            window: 8,
            lstm_hidden: 4,
            tccb_channels: [3, 4, 4],
            ..NetConfig::paper(3)
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = PolicyNet::new(v, cfg.clone(), &mut rng);
        let batch = toy_batch(&cfg, 1);
        let weights = ppn_tensor::Tensor::from_vec(&[1, 4], vec![0.3, -0.2, 0.8, -0.5]);
        let mut store = std::mem::take(&mut net.store);
        // Push conv biases away from the ReLU kink to test the kink hypothesis.
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            if store.name(id).ends_with(".b") && store.name(id).contains("conv") {
                for v in store.value_mut(id).data_mut() {
                    *v += 0.5;
                }
            }
        }
        let report = ppn_tensor::gradcheck::gradcheck(
            &mut store,
            |g, bind| {
                let mut rng = rand::rngs::mock::StepRng::new(0, 1);
                let out = net.forward(g, bind, &batch, false, &mut rng);
                let w = g.leaf(weights.clone());
                let p = g.mul(out, w);
                g.sum(p)
            },
            1e-5,
            37,
        );
        ppn_obs::obs_debug!("{v:?}: {report:?}");
        report.max_rel_err
    }

    #[test]
    fn per_variant() {
        for v in [Variant::PpnLstm, Variant::PpnTcb, Variant::PpnTccb, Variant::Eiie] {
            let err = check(v);
            assert!(err < 1e-6, "{v:?} gradcheck failed: {err}");
        }
    }
}
