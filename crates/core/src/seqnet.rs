//! Sequential information net (§4.2): one LSTM shared across assets.
//!
//! Each asset's `(k, d)` price window is run through the same LSTM (assets
//! folded into the batch dimension) and the final hidden state becomes that
//! asset's sequential feature vector. Output is reshaped to the NCHW feature
//! map `(B, H, m, 1)` so it concatenates with the correlation-net features.

use crate::batch::WindowBatch;
use ppn_tensor::layers::Lstm;
use ppn_tensor::{Binding, Graph, NodeId, ParamStore};
use rand::Rng;

/// LSTM feature stream.
pub struct SeqNet {
    lstm: Lstm,
    hidden: usize,
}

impl SeqNet {
    /// Registers the LSTM parameters under `name`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        features: usize,
        hidden: usize,
    ) -> Self {
        SeqNet { lstm: Lstm::new(store, rng, name, features, hidden), hidden }
    }

    /// Output channel count.
    pub fn channels(&self) -> usize {
        self.hidden
    }

    /// Runs the stream; returns `(B, H, m, 1)`.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, batch: &WindowBatch) -> NodeId {
        let steps: Vec<NodeId> = batch.seq_steps.iter().map(|t| g.leaf(t.clone())).collect();
        self.forward_steps(g, bind, &steps, batch.batch, batch.m)
    }

    /// Cascade entry point: runs the LSTM over externally-provided timestep
    /// nodes (used by the TCB-LSTM / TCCB-LSTM cascade variants) and returns
    /// the `(B, H, m, 1)` feature map.
    pub fn forward_steps(
        &self,
        g: &mut Graph,
        bind: &Binding,
        steps: &[NodeId],
        batch: usize,
        m: usize,
    ) -> NodeId {
        let h = self.lstm.forward(g, bind, steps); // (B·m, H)
        let h3 = g.reshape(h, &[batch, m, self.hidden]);
        let hp = g.permute(h3, &[0, 2, 1]); // (B, H, m)
        g.reshape(hp, &[batch, self.hidden, m, 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_table2() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let net = SeqNet::new(&mut store, &mut rng, "seq", 4, 16);
        let (m, k, d) = (5, 30, 4);
        let windows = vec![vec![1.0; m * k * d]; 2];
        let prev = vec![vec![1.0 / (m as f64 + 1.0); m + 1]; 2];
        let batch = WindowBatch::new(&windows, &prev, m, k, d);
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let out = net.forward(&mut g, &bind, &batch);
        assert_eq!(g.value(out).shape(), &[2, 16, 5, 1]);
    }

    #[test]
    fn assets_processed_independently() {
        // Changing asset 1's series must not change asset 0's feature.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let net = SeqNet::new(&mut store, &mut rng, "seq", 2, 4);
        let (m, k, d) = (2, 5, 2);
        let run = |w: Vec<f64>| {
            let batch = WindowBatch::new(&[w], &[vec![0.4, 0.3, 0.3]], m, k, d);
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let out = net.forward(&mut g, &bind, &batch);
            g.value(out).clone()
        };
        let mut w1: Vec<f64> = (0..m * k * d).map(|i| 1.0 + 0.01 * i as f64).collect();
        let base = run(w1.clone());
        for v in &mut w1[k * d..] {
            *v += 0.5; // perturb only asset 1
        }
        let pert = run(w1);
        for c in 0..4 {
            assert_eq!(base.at(&[0, c, 0, 0]), pert.at(&[0, c, 0, 0]), "asset 0 leaked");
            assert_ne!(base.at(&[0, c, 1, 0]), pert.at(&[0, c, 1, 0]), "asset 1 unchanged");
        }
    }
}
