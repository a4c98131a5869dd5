//! Parameter storage and the Adam optimiser.
//!
//! Parameters outlive the per-step tape: a [`ParamStore`] owns the weights,
//! [`ParamStore::bind`] inserts them into a fresh [`Graph`] for one forward/
//! backward pass, and an [`Optimizer`] consumes the gradients gathered by
//! [`Binding::grads`].
//!
//! ```
//! use ppn_tensor::{Graph, ParamStore, Adam, Optimizer, Tensor};
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::scalar(2.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let bind = store.bind(&mut g);
//!     let loss = g.square(bind.node(w));
//!     g.backward(loss);
//!     let grads = bind.grads(&g);
//!     opt.step(&mut store, &grads);
//! }
//! assert!(store.value(w).item().abs() < 1e-2);
//! ```

use crate::graph::{Graph, NodeId};
use crate::tensor::Tensor;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

#[derive(serde::Serialize, serde::Deserialize)]
struct Param {
    name: String,
    value: Tensor,
}

/// Owns a model's trainable weights across training steps.
#[derive(Default, serde::Serialize, serde::Deserialize)]
pub struct ParamStore {
    params: Vec<Param>,
}

/// The `ParamId → NodeId` mapping produced by one [`ParamStore::bind`] call.
pub struct Binding {
    nodes: Vec<NodeId>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.params.push(Param { name: name.into(), value });
        ParamId(self.params.len() - 1)
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameter tensors.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable access (used by optimisers and target-network copies).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// All parameter handles in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Inserts every parameter into `g` as a trainable leaf.
    pub fn bind(&self, g: &mut Graph) -> Binding {
        let nodes = self.params.iter().map(|p| g.param(p.value.clone())).collect();
        Binding { nodes }
    }

    /// Inserts every parameter into `g` as a **frozen** (constant) leaf.
    /// Used when one network's output feeds another's loss but must not
    /// receive gradients (e.g. the critic during DDPG actor updates).
    pub fn bind_frozen(&self, g: &mut Graph) -> Binding {
        let nodes = self.params.iter().map(|p| g.leaf(p.value.clone())).collect();
        Binding { nodes }
    }

    /// Copies all values from another store (shapes must match). Used for
    /// target networks in DDPG.
    pub fn copy_from(&mut self, other: &ParamStore) {
        assert_eq!(self.params.len(), other.params.len());
        for (a, b) in self.params.iter_mut().zip(&other.params) {
            assert_eq!(a.value.shape(), b.value.shape(), "copy_from shape mismatch on {}", a.name);
            a.value = b.value.clone();
        }
    }

    /// Soft update `θ ← τ·θ_src + (1−τ)·θ` (DDPG target tracking).
    pub fn soft_update_from(&mut self, src: &ParamStore, tau: f64) {
        assert_eq!(self.params.len(), src.params.len());
        for (dst, s) in self.params.iter_mut().zip(&src.params) {
            dst.value = s.value.scale(tau).add(&dst.value.scale(1.0 - tau));
        }
    }
}

impl Binding {
    /// Graph node for a parameter.
    pub fn node(&self, id: ParamId) -> NodeId {
        self.nodes[id.0]
    }

    /// Gathers gradients after `Graph::backward`, in registration order.
    /// Parameters not reached by the sweep yield `None`.
    pub fn grads(&self, g: &Graph) -> Vec<Option<Tensor>> {
        self.nodes.iter().map(|&n| g.grad(n).cloned()).collect()
    }
}

/// Clips gradients to a maximum global L2 norm; returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [Option<Tensor>], max_norm: f64) -> f64 {
    let mut sq = 0.0;
    for g in grads.iter().flatten() {
        sq += g.data().iter().map(|x| x * x).sum::<f64>();
    }
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grads.iter_mut().flatten() {
            *g = g.scale(s);
        }
    }
    norm
}

/// A first-order optimiser over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update given gradients in registration order.
    fn step(&mut self, store: &mut ParamStore, grads: &[Option<Tensor>]);
}

/// Adam (Kingma & Ba). The paper trains PPN with Adam at lr 1e−3.
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    t: u64,
    /// First and second moments per parameter, empty until its first
    /// gradient. Plain vectors, not arena-backed tensors: they live as long
    /// as the optimiser, and taking them from the storage arena on the
    /// first step would keep buffers the tape recycles, so the next step
    /// would miss them.
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999).
    pub fn new(lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &[Option<Tensor>]) {
        self.t += 1;
        self.m.resize_with(grads.len(), Vec::new);
        self.v.resize_with(grads.len(), Vec::new);
        let c = AdamStep {
            beta1: self.beta1,
            beta2: self.beta2,
            inv_bc1: 1.0 / (1.0 - self.beta1.powi(self.t as i32)),
            inv_bc2: 1.0 / (1.0 - self.beta2.powi(self.t as i32)),
            eps: self.eps,
            lr: self.lr,
        };
        let state = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, g), (m, v)) in store.params.iter_mut().zip(grads).zip(state) {
            let Some(g) = g else { continue };
            let first = m.is_empty();
            if first {
                m.resize(g.len(), 0.0);
                v.resize(g.len(), 0.0);
            }
            adam_update(p.value.data_mut(), g.data(), m, v, first, &c);
        }
    }
}

/// The per-step constants of one Adam update.
struct AdamStep {
    beta1: f64,
    beta2: f64,
    /// `1 / (1 − βᵗ)`, the bias corrections.
    inv_bc1: f64,
    inv_bc2: f64,
    eps: f64,
    lr: f64,
}

/// Updates one parameter's moments `m`, `v` and weights `w` in place:
/// `m ← (m·β1) + (g·(1−β1))`, `v ← (v·β2) + ((g·g)·(1−β2))`, then
/// `w ← w − ((m·bc1⁻¹) / (√(v·bc2⁻¹) + ε))·lr`. On the `first` step the
/// moments are `g·(1−β1)` and `(g·g)·(1−β2)` alone, with no `0·β` term
/// that would turn a `−0` into `+0`.
fn adam_update(w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], first: bool, c: &AdamStep) {
    let state = m.iter_mut().zip(v.iter_mut());
    for ((w, &g), (m, v)) in w.iter_mut().zip(g).zip(state) {
        let (gm, gv) = (g * (1.0 - c.beta1), (g * g) * (1.0 - c.beta2));
        (*m, *v) = if first { (gm, gv) } else { (*m * c.beta1 + gm, *v * c.beta2 + gv) };
        let update = (*m * c.inv_bc1) / ((*v * c.inv_bc2).sqrt() + c.eps);
        *w -= update * c.lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quadratic_loss(store: &ParamStore, w: ParamId) -> (Graph, Binding, NodeId) {
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        // loss = sum((w - 3)^2)
        let t = g.add_scalar(bind.node(w), -3.0);
        let sq = g.square(t);
        let loss = g.sum(sq);
        (g, bind, loss)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[2], vec![-8.0, 8.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..400 {
            let (mut g, bind, loss) = quadratic_loss(&store, w);
            g.backward(loss);
            opt.step(&mut store, &bind.grads(&g));
        }
        for &x in store.value(w).data() {
            assert!((x - 3.0).abs() < 1e-3, "{x}");
        }
    }

    #[test]
    fn clip_reduces_norm() {
        let mut grads = vec![Some(Tensor::from_vec(&[2], vec![3.0, 4.0])), None];
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-12);
        let post: f64 = grads[0].as_ref().unwrap().l2_norm();
        assert!((post - 1.0).abs() < 1e-12);
        // Under the cap: untouched.
        let mut small = vec![Some(Tensor::from_vec(&[1], vec![0.5]))];
        clip_global_norm(&mut small, 1.0);
        assert_eq!(small[0].as_ref().unwrap().item(), 0.5);
    }

    #[test]
    fn soft_update_interpolates() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::scalar(0.0));
        let mut b = ParamStore::new();
        let wb = b.add("w", Tensor::scalar(10.0));
        a.soft_update_from(&b, 0.1);
        assert!((a.value(ParamId(0)).item() - 1.0).abs() < 1e-12);
        let _ = wb;
    }

    /// The tensor-by-tensor Adam step the in-place loop replaced.
    fn reference_adam_step(
        w: &mut Tensor,
        m: &mut Option<Tensor>,
        v: &mut Option<Tensor>,
        g: &Tensor,
        t: u64,
    ) {
        let (b1, b2, eps, lr) = (0.9, 0.999, 1e-8, 0.05);
        let bc1 = 1.0 - f64::powi(b1, t as i32);
        let bc2 = 1.0 - f64::powi(b2, t as i32);
        let mn = match m {
            Some(m) => m.scale(b1).add(&g.scale(1.0 - b1)),
            None => g.scale(1.0 - b1),
        };
        let vn = match v {
            Some(v) => v.scale(b2).add(&g.mul(g).scale(1.0 - b2)),
            None => g.mul(g).scale(1.0 - b2),
        };
        let update = mn.scale(1.0 / bc1).zip(&vn.scale(1.0 / bc2), |mh, vh| mh / (vh.sqrt() + eps));
        *w = w.sub(&update.scale(lr));
        (*m, *v) = (Some(mn), Some(vn));
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn adam_in_place_matches_the_tensor_formula_bit_for_bit() {
        // Weights and gradients with exact and signed zeros; the second
        // parameter skips step 2 (no gradient), so its moments carry over.
        let w0 = [0.0, -0.0, 1.5, -2.25, 1e-12, 0.0];
        let steps: [[f64; 6]; 4] = [
            [-0.0, 0.0, -0.0, 0.5, -1e-9, 3.0],
            [0.0, -0.0, 0.25, -0.0, 2.0, -0.0],
            [-0.0, -0.0, 0.0, -0.75, 0.0, 1e-300],
            [1.0, 0.0, -0.0, -0.0, -4.0, 0.0],
        ];
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(&[6], w0.to_vec()));
        let b = store.add("b", Tensor::from_vec(&[2, 3], w0.to_vec()));
        let mut opt = Adam::new(0.05);
        let mut want = [(store.value(a).clone(), None, None), (store.value(b).clone(), None, None)];
        for (step, g) in steps.iter().enumerate() {
            let ga = Tensor::from_vec(&[6], g.to_vec());
            let gb = (step != 1).then(|| Tensor::from_vec(&[2, 3], g.iter().map(|v| -v).collect()));
            opt.step(&mut store, &[Some(ga.clone()), gb.clone()]);
            let t = step as u64 + 1;
            let (w, m, v) = &mut want[0];
            reference_adam_step(w, m, v, &ga, t);
            if let Some(gb) = &gb {
                let (w, m, v) = &mut want[1];
                reference_adam_step(w, m, v, gb, t);
            }
            if step == 0 {
                // The first step's −0 gradient leaves a −0 first moment.
                assert_eq!(opt.m[0][0].to_bits(), (-0.0f64).to_bits());
            }
            for (i, id) in [a, b].into_iter().enumerate() {
                let (w, m, v) = &want[i];
                let state = |s: &Option<Tensor>| s.as_ref().map_or(vec![], |t| bits(t.data()));
                assert_eq!(
                    bits(store.value(id).data()),
                    bits(w.data()),
                    "step {step} param {i}: w"
                );
                assert_eq!(bits(&opt.m[i]), state(m), "step {step} param {i}: m");
                assert_eq!(bits(&opt.v[i]), state(v), "step {step} param {i}: v");
            }
        }
    }

    #[test]
    fn unreached_params_untouched() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(1.0));
        let u = store.add("unused", Tensor::scalar(42.0));
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let loss = g.square(bind.node(w));
        g.backward(loss);
        let grads = bind.grads(&g);
        assert!(grads[1].is_none());
        Adam::new(0.1).step(&mut store, &grads);
        assert_eq!(store.value(u).item(), 42.0);
    }
}
