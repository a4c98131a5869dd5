//! Reverse-mode autodiff tape.
//!
//! A [`Graph`] is a flat arena of nodes. Builder methods evaluate eagerly
//! (each node's value is computed at construction), so by the time
//! [`Graph::backward`] runs, every forward value is already in place and the
//! tape is in topological order by construction — backward is a single
//! reverse sweep.
//!
//! ## Buffer reuse across steps
//!
//! Training replays the same network structure every step, so the tape's
//! buffer population is identical sweep after sweep. The reuse plan is
//! implicit in tensor lifetimes: [`Graph::reset`] (and the grad clear at
//! the top of [`Graph::backward_with`]) drops each node's tensors, which
//! parks their aligned buffers in the thread-local size-bucketed arena
//! ([`crate::storage`]); the next sweep's node outputs and gradients then
//! rebind those exact buffers (same size class → same free-list, LIFO).
//! After the first step a steady-state trainer loop allocates nothing —
//! observable via the `tensor.arena_hits` / `tensor.alloc_bytes` counters
//! flushed at the end of every backward sweep, and via [`Graph::tape_stats`].
//! Within a sweep, backward arms write into recycled buffers through
//! [`crate::tensor::Tensor::add_assign`] instead of allocating fresh
//! intermediates (the `ppn-check` `no-hot-alloc` rule keeps it that way).
//!
//! Typical training-step usage:
//!
//! ```
//! use ppn_tensor::{Graph, Tensor};
//! let mut g = Graph::new();
//! let w = g.param(Tensor::from_vec(&[2, 1], vec![0.5, -0.5]));
//! let x = g.leaf(Tensor::from_vec(&[1, 2], vec![1.0, 2.0]));
//! let y = g.matmul(x, w);
//! let loss = g.mean(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).unwrap().data(), &[1.0, 2.0]);
//! ```

use crate::conv::{conv2d_forward, conv2d_grad_w, conv2d_grad_x, Dilation, Padding};
use crate::shape;
use crate::storage::Storage;
use crate::tensor::Tensor;
use rand::Rng;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

#[derive(Debug, Clone)]
#[allow(dead_code)] // some payloads (e.g. the AddScalar constant) exist for Debug introspection only
enum Op {
    Leaf,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Div(NodeId, NodeId),
    Neg(NodeId),
    Scale(NodeId, f64),
    AddScalar(NodeId, f64),
    MatMul(NodeId, NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    Exp(NodeId),
    Log(NodeId),
    Abs(NodeId),
    Square(NodeId),
    Sqrt(NodeId),
    Softmax(NodeId),
    Sum(NodeId),
    Mean(NodeId),
    SumAxis(NodeId, usize),
    Concat(Vec<NodeId>, usize),
    Slice { x: NodeId, axis: usize, start: usize, end: usize },
    Reshape(NodeId),
    Permute(NodeId, Vec<usize>),
    Conv2d { x: NodeId, w: NodeId, dilation: Dilation, pad: Padding },
}

struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
    requires_grad: bool,
}

/// Reverse-mode autodiff tape. See the module docs for usage.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

/// Size summary of a tape, reported by [`Graph::tape_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeStats {
    /// Nodes on the tape.
    pub nodes: usize,
    /// Total elements across all node forward values.
    pub value_elems: usize,
    /// Total elements across all live gradients.
    pub grad_elems: usize,
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::with_capacity(256) }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape for reuse, keeping its node allocation. Dropping the
    /// nodes parks their value/grad buffers in the thread-local arena, so
    /// the next sweep over the same network rebinds them instead of
    /// allocating (see the module docs).
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Aggregate tape size: what the buffer-reuse plan holds live.
    pub fn tape_stats(&self) -> TapeStats {
        let mut s = TapeStats { nodes: self.nodes.len(), ..TapeStats::default() };
        for n in &self.nodes {
            s.value_elems += n.value.len();
            s.grad_elems += n.grad.as_ref().map_or(0, Tensor::len);
        }
        s
    }

    fn push(&mut self, op: Op, value: Tensor, requires_grad: bool) -> NodeId {
        debug_assert!(value.all_finite(), "non-finite forward value from {op:?}");
        self.nodes.push(Node { op, value, grad: None, requires_grad });
        NodeId(self.nodes.len() - 1)
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of a node after [`Graph::backward`]; `None` if the node does
    /// not require grad or was not reached.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes[id.0].grad.as_ref()
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Constant leaf (no gradient).
    pub fn leaf(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Leaf, t, false)
    }

    /// Trainable leaf (receives a gradient).
    pub fn param(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Leaf, t, true)
    }

    // ------------------------------------------------------------------
    // Elementwise / scalar
    // ------------------------------------------------------------------

    /// Elementwise addition with broadcasting.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Add(a, b), v, rg)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Sub(a, b), v, rg)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Mul(a, b), v, rg)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).div(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Div(a, b), v, rg)
    }

    /// Negation.
    pub fn neg(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).scale(-1.0);
        let rg = self.rg(x);
        self.push(Op::Neg(x), v, rg)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, x: NodeId, s: f64) -> NodeId {
        let v = self.value(x).scale(s);
        let rg = self.rg(x);
        self.push(Op::Scale(x, s), v, rg)
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, x: NodeId, s: f64) -> NodeId {
        let v = self.value(x).map(|v| v + s);
        let rg = self.rg(x);
        self.push(Op::AddScalar(x, s), v, rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        let rg = self.rg(x);
        self.push(Op::Sigmoid(x), v, rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f64::tanh);
        let rg = self.rg(x);
        self.push(Op::Tanh(x), v, rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| v.max(0.0));
        let rg = self.rg(x);
        self.push(Op::Relu(x), v, rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f64::exp);
        let rg = self.rg(x);
        self.push(Op::Exp(x), v, rg)
    }

    /// Elementwise natural logarithm.
    ///
    /// # Panics
    /// Debug-asserts that every input element is positive.
    pub fn log(&mut self, x: NodeId) -> NodeId {
        debug_assert!(self.value(x).data().iter().all(|&v| v > 0.0), "log of non-positive value");
        let v = self.value(x).map(f64::ln);
        let rg = self.rg(x);
        self.push(Op::Log(x), v, rg)
    }

    /// Elementwise absolute value (subgradient 0 at 0).
    pub fn abs(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f64::abs);
        let rg = self.rg(x);
        self.push(Op::Abs(x), v, rg)
    }

    /// Elementwise square.
    pub fn square(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| v * v);
        let rg = self.rg(x);
        self.push(Op::Square(x), v, rg)
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f64::sqrt);
        let rg = self.rg(x);
        self.push(Op::Sqrt(x), v, rg)
    }

    // ------------------------------------------------------------------
    // Linear algebra / shape
    // ------------------------------------------------------------------

    /// 2-D matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MatMul(a, b), v, rg)
    }

    /// Numerically-stable softmax along the **last** axis.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        let t = self.value(x);
        let shape = t.shape().to_vec();
        // ppn-check: allow(no-panic) invariant: every graph tensor has rank >= 1
        let last = *shape.last().expect("softmax needs rank >= 1");
        let rows = t.len() / last;
        let mut out = Storage::uninit(t.len());
        for r in 0..rows {
            let row = &t.data()[r * last..(r + 1) * last];
            let mx = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - mx).exp();
                out[r * last + j] = e;
                z += e;
            }
            for j in 0..last {
                out[r * last + j] /= z;
            }
        }
        let rg = self.rg(x);
        self.push(Op::Softmax(x), Tensor::from_storage(&shape, out), rg)
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(x).sum());
        let rg = self.rg(x);
        self.push(Op::Sum(x), v, rg)
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(x).mean());
        let rg = self.rg(x);
        self.push(Op::Mean(x), v, rg)
    }

    /// Sum-reduction of one axis (axis removed from the shape).
    pub fn sum_axis(&mut self, x: NodeId, axis: usize) -> NodeId {
        let v = self.value(x).sum_axis(axis);
        let rg = self.rg(x);
        self.push(Op::SumAxis(x, axis), v, rg)
    }

    /// Population variance of all elements (scalar), composed from
    /// differentiable primitives so it backpropagates.
    pub fn variance(&mut self, x: NodeId) -> NodeId {
        let m = self.mean(x);
        let d = self.sub(x, m);
        let sq = self.square(d);
        self.mean(sq)
    }

    /// Concatenation along `axis`.
    ///
    /// # Panics
    /// Panics if shapes differ anywhere except `axis`.
    pub fn concat(&mut self, xs: &[NodeId], axis: usize) -> NodeId {
        assert!(!xs.is_empty(), "concat of zero tensors");
        let first = self.value(xs[0]).shape().to_vec();
        let mut out_shape = first.clone();
        let mut total = 0;
        for &x in xs {
            let s = self.value(x).shape();
            assert_eq!(s.len(), first.len(), "concat rank mismatch");
            for (d, (&a, &b)) in first.iter().zip(s.iter()).enumerate() {
                if d != axis {
                    assert_eq!(a, b, "concat dim {d} mismatch: {first:?} vs {s:?}");
                }
            }
            total += s[axis];
        }
        out_shape[axis] = total;
        // Copy contiguous (mid·inner) chunks per outer index.
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let row_out = total * inner;
        let mut out = Storage::uninit(outer * row_out);
        let mut base = 0usize;
        for &x in xs {
            let t = self.value(x);
            let mid = t.shape()[axis];
            let chunk = mid * inner;
            for o in 0..outer {
                out[o * row_out + base..o * row_out + base + chunk]
                    .copy_from_slice(&t.data()[o * chunk..(o + 1) * chunk]);
            }
            base += chunk;
        }
        let rg = xs.iter().any(|&x| self.rg(x));
        self.push(Op::Concat(xs.to_vec(), axis), Tensor::from_storage(&out_shape, out), rg)
    }

    /// Sub-range `start..end` of `axis`.
    pub fn slice(&mut self, x: NodeId, axis: usize, start: usize, end: usize) -> NodeId {
        let shape = self.value(x).shape().to_vec();
        assert!(
            axis < shape.len() && start < end && end <= shape[axis],
            "slice {start}..{end} axis {axis} of {shape:?}"
        );
        let mut out_shape = shape.clone();
        out_shape[axis] = end - start;
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let take = (end - start) * inner;
        let mut out = Storage::uninit(outer * take);
        {
            let data = self.value(x).data();
            for o in 0..outer {
                let row = o * mid * inner + start * inner;
                out[o * take..(o + 1) * take].copy_from_slice(&data[row..row + take]);
            }
        }
        let rg = self.rg(x);
        self.push(Op::Slice { x, axis, start, end }, Tensor::from_storage(&out_shape, out), rg)
    }

    /// Shape change preserving element order.
    pub fn reshape(&mut self, x: NodeId, shape: &[usize]) -> NodeId {
        let v = self.value(x).reshape(shape);
        let rg = self.rg(x);
        self.push(Op::Reshape(x), v, rg)
    }

    /// Axis permutation.
    pub fn permute(&mut self, x: NodeId, perm: &[usize]) -> NodeId {
        let v = self.value(x).permute(perm);
        let rg = self.rg(x);
        self.push(Op::Permute(x, perm.to_vec()), v, rg)
    }

    // ------------------------------------------------------------------
    // Convolution / dropout
    // ------------------------------------------------------------------

    /// Stride-1 2-D convolution (NCHW input, OIHW kernel) with dilation and
    /// explicit zero padding.
    pub fn conv2d(&mut self, x: NodeId, w: NodeId, dilation: Dilation, pad: Padding) -> NodeId {
        let v = conv2d_forward(self.value(x), self.value(w), dilation, pad);
        let rg = self.rg(x) || self.rg(w);
        self.push(Op::Conv2d { x, w, dilation, pad }, v, rg)
    }

    /// Inverted dropout. In training mode each element is zeroed with
    /// probability `p` and survivors are scaled by `1/(1-p)`; in eval mode it
    /// is the identity.
    pub fn dropout<R: Rng>(&mut self, x: NodeId, p: f64, training: bool, rng: &mut R) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate {p}");
        if !training || crate::approx::is_zero(p) {
            return x;
        }
        let keep = 1.0 - p;
        let mask_t = {
            let t = self.value(x);
            let data = t
                .data()
                .iter()
                .map(|_| if rng.gen::<f64>() < keep { 1.0 / keep } else { 0.0 })
                .collect();
            Tensor::from_vec(t.shape(), data)
        };
        let mask = self.leaf(mask_t);
        self.mul(x, mask)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs the reverse sweep from `output`, which must be a scalar node.
    /// Gradients accumulate into every `requires_grad` node reachable from it.
    ///
    /// # Panics
    /// Panics if `output` is not a scalar.
    pub fn backward(&mut self, output: NodeId) {
        assert_eq!(
            self.value(output).len(),
            1,
            "backward needs a scalar output, got {:?}",
            self.value(output).shape()
        );
        self.backward_with(output, Tensor::from_vec(self.value(output).shape(), vec![1.0]));
    }

    /// Reverse sweep with an explicit seed gradient for `output`.
    pub fn backward_with(&mut self, output: NodeId, seed: Tensor) {
        assert_eq!(seed.shape(), self.value(output).shape(), "seed shape mismatch");
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[output.0].grad = Some(seed);
        for i in (0..=output.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.take() else { continue };
            self.propagate(i, &g);
            self.nodes[i].grad = Some(g);
        }
        crate::storage::flush_obs_counters();
    }

    fn accumulate(&mut self, id: NodeId, delta: Tensor) {
        if !self.nodes[id.0].requires_grad {
            return;
        }
        match &mut self.nodes[id.0].grad {
            // Same-shape accumulation reuses the existing buffer in place
            // (bit-identical to `g.add(&delta)` for equal shapes).
            Some(g) if g.shape() == delta.shape() => g.add_assign(&delta),
            Some(g) => *g = g.add(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Reduces `grad` (shaped like the broadcast output) back down to
    /// `target` by summing over broadcast dimensions.
    fn reduce_to(grad: &Tensor, target: &[usize]) -> Tensor {
        grad.reduce_broadcast(target)
    }

    fn propagate(&mut self, i: usize, g: &Tensor) {
        let op = self.nodes[i].op.clone();
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let ga = Self::reduce_to(g, self.value(a).shape());
                let gb = Self::reduce_to(g, self.value(b).shape());
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Sub(a, b) => {
                let ga = Self::reduce_to(g, self.value(a).shape());
                let gb = Self::reduce_to(&g.scale(-1.0), self.value(b).shape());
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Mul(a, b) => {
                let ga = Self::reduce_to(&g.mul(self.value(b)), self.value(a).shape());
                let gb = Self::reduce_to(&g.mul(self.value(a)), self.value(b).shape());
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Div(a, b) => {
                // Borrow the operand values in a scope that ends before the
                // mutable accumulate calls — no defensive clones.
                let (ga, gb) = {
                    let va = self.value(a);
                    let vb = self.value(b);
                    let ga = Self::reduce_to(&g.div(vb), va.shape());
                    let gb_full = g.mul(va).div(&vb.mul(vb)).scale(-1.0);
                    (ga, Self::reduce_to(&gb_full, vb.shape()))
                };
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Neg(x) => self.accumulate(x, g.scale(-1.0)),
            Op::Scale(x, s) => self.accumulate(x, g.scale(s)),
            Op::AddScalar(x, _) => self.accumulate(x, g.clone()),
            Op::MatMul(a, b) => {
                // dA = G Bᵀ, dB = Aᵀ G
                let ga = g.matmul(&self.value(b).transpose2());
                let gb = self.value(a).transpose2().matmul(g);
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Sigmoid(x) => {
                let y = &self.nodes[i].value;
                let d = y.map(|v| v * (1.0 - v));
                self.accumulate(x, g.mul(&d));
            }
            Op::Tanh(x) => {
                let y = &self.nodes[i].value;
                let d = y.map(|v| 1.0 - v * v);
                self.accumulate(x, g.mul(&d));
            }
            Op::Relu(x) => {
                let d = self.value(x).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                self.accumulate(x, g.mul(&d));
            }
            Op::Exp(x) => {
                let gx = g.mul(&self.nodes[i].value);
                self.accumulate(x, gx);
            }
            Op::Log(x) => {
                let d = self.value(x).map(|v| 1.0 / v);
                self.accumulate(x, g.mul(&d));
            }
            Op::Abs(x) => {
                let d = self.value(x).map(|v| {
                    if v > 0.0 {
                        1.0
                    } else if v < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                });
                self.accumulate(x, g.mul(&d));
            }
            Op::Square(x) => {
                let d = self.value(x).scale(2.0);
                self.accumulate(x, g.mul(&d));
            }
            Op::Sqrt(x) => {
                let y = &self.nodes[i].value;
                let d = y.map(|v| 0.5 / v.max(1e-300));
                self.accumulate(x, g.mul(&d));
            }
            Op::Softmax(x) => {
                // Per-row: dx = y ⊙ (g − ⟨g, y⟩)
                let gx = {
                    let y = &self.nodes[i].value;
                    // ppn-check: allow(no-panic) invariant: softmax output keeps its input's rank >= 1
                    let last = *y.shape().last().expect("softmax output has rank >= 1");
                    let rows = y.len() / last;
                    let mut dx = Storage::uninit(y.len());
                    for r in 0..rows {
                        let yr = &y.data()[r * last..(r + 1) * last];
                        let gr = &g.data()[r * last..(r + 1) * last];
                        let dot: f64 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                        for j in 0..last {
                            dx[r * last + j] = yr[j] * (gr[j] - dot);
                        }
                    }
                    Tensor::from_storage(y.shape(), dx)
                };
                self.accumulate(x, gx);
            }
            Op::Sum(x) => {
                let gx = Tensor::full(self.value(x).shape(), g.item());
                self.accumulate(x, gx);
            }
            Op::Mean(x) => {
                let n = self.value(x).len() as f64;
                let gx = Tensor::full(self.value(x).shape(), g.item() / n);
                self.accumulate(x, gx);
            }
            Op::SumAxis(x, axis) => {
                // Broadcast the reduced gradient back along the removed axis.
                let xs = self.value(x).shape().to_vec();
                let outer: usize = xs[..axis].iter().product();
                let mid = xs[axis];
                let inner: usize = xs[axis + 1..].iter().product();
                let mut gx = Storage::uninit(outer * mid * inner);
                for o in 0..outer {
                    let src = &g.data()[o * inner..(o + 1) * inner];
                    for m in 0..mid {
                        gx[(o * mid + m) * inner..(o * mid + m + 1) * inner].copy_from_slice(src);
                    }
                }
                self.accumulate(x, Tensor::from_storage(&xs, gx));
            }
            Op::Concat(xs, axis) => {
                let out_shape = self.nodes[i].value.shape().to_vec();
                let outer: usize = out_shape[..axis].iter().product();
                let inner: usize = out_shape[axis + 1..].iter().product();
                let row_out = out_shape[axis] * inner;
                let mut base = 0usize;
                for x in xs {
                    let s = self.value(x).shape().to_vec();
                    let chunk = s[axis] * inner;
                    let mut gx = Storage::uninit(outer * chunk);
                    for o in 0..outer {
                        gx[o * chunk..(o + 1) * chunk].copy_from_slice(
                            &g.data()[o * row_out + base..o * row_out + base + chunk],
                        );
                    }
                    base += chunk;
                    self.accumulate(x, Tensor::from_storage(&s, gx));
                }
            }
            Op::Slice { x, axis, start, end } => {
                let s = self.value(x).shape().to_vec();
                let outer: usize = s[..axis].iter().product();
                let mid = s[axis];
                let inner: usize = s[axis + 1..].iter().product();
                let take = (end - start) * inner;
                // Zeroed, not uninit: only the sliced range is overwritten.
                let mut gx = Storage::zeroed(outer * mid * inner);
                for o in 0..outer {
                    let dst = o * mid * inner + start * inner;
                    gx[dst..dst + take].copy_from_slice(&g.data()[o * take..(o + 1) * take]);
                }
                self.accumulate(x, Tensor::from_storage(&s, gx));
            }
            Op::Reshape(x) => {
                let s = self.value(x).shape().to_vec();
                self.accumulate(x, g.reshape(&s));
            }
            Op::Permute(x, perm) => {
                // Inverse permutation routes the gradient back; the inverse
                // lives in stack scratch.
                let gx = shape::with_dims(perm.len(), |inv| {
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = i;
                    }
                    g.permute(inv)
                });
                self.accumulate(x, gx);
            }
            Op::Conv2d { x, w, dilation, pad } => {
                // The first conv of a net reads a data leaf, whose grad-x
                // nobody reads, so it is not computed. One `tensor.conv_ms`
                // observation covers the whole node.
                let timer = crate::tensor::kernel_timer();
                let (xv, wv) = (self.value(x), self.value(w));
                let gx = self.rg(x).then(|| conv2d_grad_x(xv, wv, g, dilation, pad));
                let gw = conv2d_grad_w(xv, wv, g, dilation, pad);
                crate::tensor::observe_kernel_ms("tensor.conv_ms", timer);
                if let Some(gx) = gx {
                    self.accumulate(x, gx);
                }
                self.accumulate(w, gw);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_rule() {
        // f(x) = (2x + 1)^2 at x = 3 → f = 49, f' = 2·7·2 = 28.
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(3.0));
        let y = g.scale(x, 2.0);
        let y = g.add_scalar(y, 1.0);
        let f = g.square(y);
        g.backward(f);
        assert_eq!(g.value(f).item(), 49.0);
        assert_eq!(g.grad(x).unwrap().item(), 28.0);
    }

    #[test]
    fn fanout_accumulates() {
        // f = x·x + x → f' = 2x + 1.
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(5.0));
        let xx = g.mul(x, x);
        let f = g.add(xx, x);
        g.backward(f);
        assert_eq!(g.grad(x).unwrap().item(), 11.0);
    }

    #[test]
    fn matmul_grads() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]));
        let b = g.param(Tensor::from_vec(&[2, 2], vec![5., 6., 7., 8.]));
        let c = g.matmul(a, b);
        let s = g.sum(c);
        g.backward(s);
        // d(sum AB)/dA = 1 Bᵀ → rows are column sums of Bᵀ.
        assert_eq!(g.grad(a).unwrap().data(), &[11., 15., 11., 15.]);
        assert_eq!(g.grad(b).unwrap().data(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_grad_sums_to_zero() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(&[2, 3], vec![1., 2., 3., 0.1, 0.2, 0.3]));
        let y = g.softmax(x);
        for r in 0..2 {
            let row: f64 = g.value(y).data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row - 1.0).abs() < 1e-12);
        }
        // Gradient of any scalar through softmax sums to 0 per row
        // (softmax output lives on the simplex).
        let w = g.leaf(Tensor::from_vec(&[2, 3], vec![1., -2., 0.5, 3., 1., -1.]));
        let p = g.mul(y, w);
        let s = g.sum(p);
        g.backward(s);
        let gx = g.grad(x).unwrap();
        for r in 0..2 {
            let row: f64 = gx.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(row.abs() < 1e-12, "row {r} grad sum {row}");
        }
    }

    #[test]
    fn variance_value_and_grad() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(&[4], vec![1., 2., 3., 4.]));
        let v = g.variance(x);
        g.backward(v);
        assert!((g.value(v).item() - 1.25).abs() < 1e-12);
        // d var / dx_i = 2 (x_i - mean) / n
        let expect = [-0.75, -0.25, 0.25, 0.75];
        for (a, b) in g.grad(x).unwrap().data().iter().zip(expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn broadcast_add_reduces_grad() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[2, 3]));
        let b = g.param(Tensor::zeros(&[3]));
        let y = g.add(x, b);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().shape(), &[3]);
        assert_eq!(g.grad(b).unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn concat_slice_roundtrip_grads() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(&[2, 1], vec![1., 2.]));
        let b = g.param(Tensor::from_vec(&[2, 2], vec![3., 4., 5., 6.]));
        let c = g.concat(&[a, b], 1); // (2,3)
        let sl = g.slice(c, 1, 1, 3); // drops a's column
        let s = g.sum(sl);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[0., 0.]);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn dropout_eval_is_identity_and_train_scales() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Graph::new();
        let x = g.param(Tensor::ones(&[1000]));
        let y = g.dropout(x, 0.5, false, &mut rng);
        assert_eq!(y, x); // eval mode: same node
        let z = g.dropout(x, 0.5, true, &mut rng);
        let m = g.value(z).mean();
        assert!((m - 1.0).abs() < 0.1, "inverted dropout keeps the mean, got {m}");
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.param(Tensor::ones(&[2]));
        let y = g.scale(x, 2.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g2 = Graph::new();
            let x2 = g2.param(Tensor::ones(&[2]));
            g2.backward(x2);
        }));
        assert!(result.is_err());
        let s = g.sum(y);
        g.backward(s); // fine
    }

    #[test]
    fn grad_not_tracked_for_leaves() {
        let mut g = Graph::new();
        let c = g.leaf(Tensor::scalar(2.0));
        let x = g.param(Tensor::scalar(3.0));
        let y = g.mul(c, x);
        g.backward(y);
        assert!(g.grad(c).is_none());
        assert_eq!(g.grad(x).unwrap().item(), 2.0);
    }
}
