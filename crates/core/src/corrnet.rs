//! Correlation information net (§4.3): a stack of Temporal Correlational
//! Convolution Blocks (TCCB) followed by the `Conv4` time-collapse.
//!
//! Each TCCB is (Table 2):
//!
//! ```text
//! DCONV (1×3, dilation r, causal)  → dropout → ReLU
//! DCONV (1×3, dilation r, causal)  → dropout → ReLU
//! CCONV (m×1, SAME over assets)    → dropout → ReLU      [TCCB only]
//! ```
//!
//! The degenerate **TCB** block drops the CCONV — it models each asset's
//! series independently and is the paper's ablation for the value of the
//! asset-correlation pathway (PPN-I uses it).

use crate::batch::WindowBatch;
use ppn_tensor::layers::{Conv2dLayer, ConvKind};
use ppn_tensor::{Binding, Graph, NodeId, ParamStore};
use rand::Rng;

/// Whether blocks include the correlational convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrMode {
    /// Full TCCB blocks (dilated causal + correlational convolutions).
    Tccb,
    /// TCB blocks (dilated causal convolutions only).
    Tcb,
}

struct Block {
    dconv1: Conv2dLayer,
    dconv2: Conv2dLayer,
    cconv: Option<Conv2dLayer>,
}

/// The convolutional feature stream.
pub struct CorrNet {
    blocks: Vec<Block>,
    conv4: Option<Conv2dLayer>,
    out_channels: usize,
    dropout: f64,
}

impl CorrNet {
    /// Builds the three-block net of Table 2 for `m` assets, including the
    /// `Conv4` time collapse.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        mode: CorrMode,
        assets: usize,
        window: usize,
        features: usize,
        channels: &[usize; 3],
        dilations: &[usize; 3],
        dropout: f64,
    ) -> Self {
        Self::build(
            store, rng, name, mode, assets, window, features, channels, dilations, dropout, true,
        )
    }

    /// Builds the block stack **without** `Conv4` — used by the cascade
    /// variants whose time axis is consumed by a downstream LSTM instead.
    #[allow(clippy::too_many_arguments)]
    pub fn new_blocks_only<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        mode: CorrMode,
        assets: usize,
        window: usize,
        features: usize,
        channels: &[usize; 3],
        dilations: &[usize; 3],
        dropout: f64,
    ) -> Self {
        Self::build(
            store, rng, name, mode, assets, window, features, channels, dilations, dropout, false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        mode: CorrMode,
        assets: usize,
        window: usize,
        features: usize,
        channels: &[usize; 3],
        dilations: &[usize; 3],
        dropout: f64,
        with_conv4: bool,
    ) -> Self {
        let mut blocks = Vec::with_capacity(3);
        let mut c_in = features;
        for (bi, (&c_out, &dil)) in channels.iter().zip(dilations).enumerate() {
            let dconv1 = Conv2dLayer::new(
                store,
                rng,
                &format!("{name}.b{bi}.dconv1"),
                c_in,
                c_out,
                (1, 3),
                (1, dil),
                ConvKind::DilatedCausal,
            );
            let dconv2 = Conv2dLayer::new(
                store,
                rng,
                &format!("{name}.b{bi}.dconv2"),
                c_out,
                c_out,
                (1, 3),
                (1, dil),
                ConvKind::DilatedCausal,
            );
            let cconv = (mode == CorrMode::Tccb).then(|| {
                Conv2dLayer::new(
                    store,
                    rng,
                    &format!("{name}.b{bi}.cconv"),
                    c_out,
                    c_out,
                    (assets, 1),
                    (1, 1),
                    ConvKind::CorrelationalSame,
                )
            });
            blocks.push(Block { dconv1, dconv2, cconv });
            c_in = c_out;
        }
        let conv4 = with_conv4.then(|| {
            Conv2dLayer::new(
                store,
                rng,
                &format!("{name}.conv4"),
                c_in,
                c_in,
                (1, window),
                (1, 1),
                ConvKind::Valid,
            )
        });
        CorrNet { blocks, conv4, out_channels: c_in, dropout }
    }

    /// Output channel count after the blocks (and Conv4).
    pub fn channels(&self) -> usize {
        self.out_channels
    }

    /// Runs the block stack only, keeping the time axis:
    /// `(B, d, m, k) → (B, C, m, k)`. Used by the cascade variants.
    pub fn forward_blocks<R: Rng>(
        &self,
        g: &mut Graph,
        bind: &Binding,
        x: NodeId,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        let p = self.dropout;
        let mut h = x;
        for b in &self.blocks {
            h = b.dconv1.forward_dropout_relu(g, bind, h, p, training, rng);
            h = b.dconv2.forward_dropout_relu(g, bind, h, p, training, rng);
            if let Some(cc) = &b.cconv {
                h = cc.forward_dropout_relu(g, bind, h, p, training, rng);
            }
        }
        h
    }

    /// Full stream including the `Conv4` time collapse:
    /// `(B, d, m, k) → (B, C, m, 1)`.
    ///
    /// # Panics
    /// Panics if the net was built with [`CorrNet::new_blocks_only`].
    pub fn forward<R: Rng>(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &WindowBatch,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        // ppn-check: allow(no-panic) documented precondition — see `# Panics` above
        let conv4 = self.conv4.as_ref().expect("CorrNet built without Conv4");
        let x = g.leaf(batch.conv_input.clone());
        let h = self.forward_blocks(g, bind, x, training, rng);
        conv4.forward_dropout_relu(g, bind, h, 0.0, training, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch(m: usize, k: usize) -> WindowBatch {
        let d = 4;
        let w: Vec<f64> = (0..m * k * d).map(|i| 1.0 + (i as f64 * 0.37).sin() * 0.01).collect();
        let prev = vec![1.0 / (m as f64 + 1.0); m + 1];
        WindowBatch::new(&[w], &[prev], m, k, d)
    }

    fn net(mode: CorrMode, m: usize, k: usize) -> (ParamStore, CorrNet) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let net = CorrNet::new(
            &mut store,
            &mut rng,
            "corr",
            mode,
            m,
            k,
            4,
            &[8, 16, 16],
            &[1, 2, 4],
            0.2,
        );
        (store, net)
    }

    #[test]
    fn tccb_shapes_match_table2() {
        let (m, k) = (12, 30);
        let (store, net) = net(CorrMode::Tccb, m, k);
        let b = batch(m, k);
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let mut rng = StdRng::seed_from_u64(1);
        let blocks = {
            let x = g.leaf(b.conv_input.clone());
            net.forward_blocks(&mut g, &bind, x, false, &mut rng)
        };
        assert_eq!(g.value(blocks).shape(), &[1, 16, m, k]);
        let out = net.forward(&mut g, &bind, &b, false, &mut rng);
        assert_eq!(g.value(out).shape(), &[1, 16, m, 1]);
    }

    #[test]
    fn tcb_keeps_assets_independent_but_tccb_mixes() {
        let (m, k) = (4, 16);
        for (mode, expect_mix) in [(CorrMode::Tcb, false), (CorrMode::Tccb, true)] {
            let (store, net) = net(mode, m, k);
            let run = |w: Vec<f64>| {
                let prev = vec![1.0 / (m as f64 + 1.0); m + 1];
                let b = WindowBatch::new(&[w], &[prev], m, k, 4);
                let mut g = Graph::new();
                let bind = store.bind(&mut g);
                let mut rng = StdRng::seed_from_u64(2);
                let out = net.forward(&mut g, &bind, &b, false, &mut rng);
                g.value(out).clone()
            };
            let w0: Vec<f64> = (0..m * k * 4).map(|i| 1.0 + 0.001 * i as f64).collect();
            let mut w1 = w0.clone();
            for v in &mut w1[(m - 1) * k * 4..] {
                *v += 0.3; // perturb only the last asset
            }
            let a = run(w0);
            let b2 = run(w1);
            let asset0_changed = (0..16).any(|c| a.at(&[0, c, 0, 0]) != b2.at(&[0, c, 0, 0]));
            assert_eq!(
                asset0_changed, expect_mix,
                "{mode:?}: cross-asset influence should be {expect_mix}"
            );
        }
    }

    #[test]
    fn causality_no_future_influence_on_block_features() {
        // Perturbing the last period must not change block features at
        // earlier time positions.
        let (m, k) = (3, 12);
        let (store, net) = net(CorrMode::Tccb, m, k);
        let run = |w: Vec<f64>| {
            let prev = vec![0.25; m + 1];
            let b = WindowBatch::new(&[w], &[prev], m, k, 4);
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let mut rng = StdRng::seed_from_u64(3);
            let x = g.leaf(b.conv_input.clone());
            let h = net.forward_blocks(&mut g, &bind, x, false, &mut rng);
            g.value(h).clone()
        };
        let w0: Vec<f64> = (0..m * k * 4).map(|i| 1.0 + 0.001 * i as f64).collect();
        let mut w1 = w0.clone();
        // Perturb the final period of every asset (last d entries per asset row).
        for i in 0..m {
            for f in 0..4 {
                w1[i * k * 4 + (k - 1) * 4 + f] += 1.0;
            }
        }
        let a = run(w0);
        let b2 = run(w1);
        for c in 0..16 {
            for i in 0..m {
                for t in 0..k - 1 {
                    assert_eq!(
                        a.at(&[0, c, i, t]),
                        b2.at(&[0, c, i, t]),
                        "future leaked into (c={c}, i={i}, t={t})"
                    );
                }
            }
        }
    }

    #[test]
    fn dropout_active_only_in_training() {
        let (m, k) = (3, 12);
        let (store, net) = net(CorrMode::Tccb, m, k);
        let b = batch(m, k);
        let eval = |seed: u64| {
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = net.forward(&mut g, &bind, &b, false, &mut rng);
            g.value(out).clone()
        };
        // Eval mode is deterministic across rng seeds.
        assert_eq!(eval(1).data(), eval(2).data());
        // Training mode differs between seeds (dropout masks differ).
        let train = |seed: u64| {
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = net.forward(&mut g, &bind, &b, true, &mut rng);
            g.value(out).clone()
        };
        assert_ne!(train(1).data(), train(2).data());
    }
}
