//! LSTM layer (Hochreiter & Schmidhuber 1997), the paper's *sequential
//! information net* backbone (§4.2).
//!
//! The PPN applies one shared LSTM to every asset's price series separately,
//! so callers fold the asset axis into the batch: input timesteps are
//! `(B·m, d)` and the final hidden state `(B·m, H)` is reshaped back to
//! `(B, m, H)` by the caller.

use crate::graph::{Graph, NodeId};
use crate::init::xavier_uniform;
use crate::optim::{Binding, ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;

/// Single-layer LSTM with a fused `(i, f, ĉ, o)` gate matrix.
pub struct Lstm {
    w: ParamId, // (in, 4H)
    u: ParamId, // (H, 4H)
    b: ParamId, // (4H,)
    /// Input feature count per timestep.
    pub in_dim: usize,
    /// Hidden-state width.
    pub hidden: usize,
}

impl Lstm {
    /// Registers parameters under `name.{w,u,b}`. The forget-gate bias is
    /// initialised to 1 (standard trick for gradient flow on long windows).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let w = store
            .add(format!("{name}.w"), xavier_uniform(rng, &[in_dim, 4 * hidden], in_dim, hidden));
        let u = store
            .add(format!("{name}.u"), xavier_uniform(rng, &[hidden, 4 * hidden], hidden, hidden));
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for j in hidden..2 * hidden {
            bias.data_mut()[j] = 1.0; // forget gate
        }
        let b = store.add(format!("{name}.b"), bias);
        Lstm { w, u, b, in_dim, hidden }
    }

    /// Runs the recurrence from a zero state over `xs` (one `(B, in)` node
    /// per timestep) and returns the final hidden state `(B, H)`. Each step
    /// is one fused [`Graph::lstm_step`], matmuls included.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, xs: &[NodeId]) -> NodeId {
        assert!(!xs.is_empty(), "LSTM needs at least one timestep");
        let batch = g.value(xs[0]).shape()[0];
        let (wn, un, bn) = (bind.node(self.w), bind.node(self.u), bind.node(self.b));
        let mut h = g.leaf(Tensor::zeros(&[batch, self.hidden]));
        let mut c = g.leaf(Tensor::zeros(&[batch, self.hidden]));
        for &x in xs {
            (h, c) = g.lstm_step(x, wn, h, un, bn, c);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn steps(g: &mut Graph, data: &[Tensor]) -> Vec<NodeId> {
        data.iter().map(|t| g.leaf(t.clone())).collect()
    }

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, &mut rng, "lstm", 4, 16);
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let xs: Vec<Tensor> = (0..30).map(|_| Tensor::randn(&mut rng, &[3, 4], 1.0)).collect();
        let ids = steps(&mut g, &xs);
        let h = lstm.forward(&mut g, &bind, &ids);
        assert_eq!(g.value(h).shape(), &[3, 16]);
        assert!(g.value(h).data().iter().all(|v| v.abs() <= 1.0), "h bounded by tanh");
    }

    #[test]
    fn longer_history_changes_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, &mut rng, "lstm", 2, 8);
        let xs: Vec<Tensor> = (0..5).map(|_| Tensor::randn(&mut rng, &[1, 2], 1.0)).collect();
        let run = |n: usize| {
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let ids = steps(&mut g, &xs[..n]);
            let h = lstm.forward(&mut g, &bind, &ids);
            g.value(h).clone()
        };
        assert!(run(5).max_abs_diff(&run(1)) > 1e-6);
    }

    #[test]
    fn learns_to_memorise_first_input() {
        // Task: output the sign of the first timestep's first feature after
        // a short sequence of noise — needs the cell memory to work.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, &mut rng, "lstm", 1, 8);
        let head = crate::layers::dense::Dense::new(&mut store, &mut rng, "head", 8, 1);
        let mut opt = Adam::new(0.02);
        let seq_len = 6;
        let batch = 16;
        let mut final_loss = f64::INFINITY;
        for _ in 0..250 {
            // First step carries the signal; the rest is small noise.
            let signal: Vec<f64> =
                (0..batch).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
            let mut seq = vec![Tensor::from_vec(&[batch, 1], signal.clone())];
            for _ in 1..seq_len {
                seq.push(Tensor::randn(&mut rng, &[batch, 1], 0.1));
            }
            let target = Tensor::from_vec(&[batch, 1], signal);
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let ids = steps(&mut g, &seq);
            let h = lstm.forward(&mut g, &bind, &ids);
            let y = head.forward(&mut g, &bind, h);
            let t = g.leaf(target);
            let d = g.sub(y, t);
            let sq = g.square(d);
            let loss = g.mean(sq);
            g.backward(loss);
            final_loss = g.value(loss).item();
            opt.step(&mut store, &bind.grads(&g));
        }
        assert!(final_loss < 0.2, "memorisation loss {final_loss}");
    }
}
