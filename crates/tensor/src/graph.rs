//! Reverse-mode autodiff tape.
//!
//! A [`Graph`] is a flat arena of nodes. Builder methods evaluate eagerly
//! (each node's value is computed at construction), so by the time
//! [`Graph::backward`] runs, every forward value is already in place and the
//! tape is in topological order by construction — backward is a single
//! reverse sweep.
//!
//! ## Gradients live only on leaves
//!
//! The reverse sweep keeps a gradient only on [`Op::Leaf`] nodes (the
//! parameters a [`crate::Binding`] reads). An interior node's gradient is
//! dropped as soon as it has been propagated to the node's operands, so its
//! buffer goes back to the arena while still cache-hot and the next interior
//! gradient rebinds it. An operand that does not require a gradient gets
//! none computed for it: a dropout mask, a data leaf, an LSTM's zero state.
//!
//! ## Fused ops
//!
//! The two glue chains that dominated the PPN tape are fused:
//! [`Graph::conv_bias_dropout_relu`] is one node for a convolution, its
//! bias, inverted dropout and ReLU (the mask held as bits), and
//! [`Graph::lstm_step`] is three nodes for one LSTM step (gates, cell and
//! hidden state). Their loops (`crate::fused`) compute the same
//! per-element expressions in the same order as the primitive chains they
//! replace, so results are bit-identical. Neither keeps a value that no
//! backward reads: the conv's epilogue runs in place on its output, and
//! the LSTM gates node drops its two matmul products once the gates exist.
//!
//! ## Buffer reuse across steps
//!
//! Training replays the same network structure every step, so the tape's
//! buffer population is identical sweep after sweep. The reuse plan is
//! implicit in tensor lifetimes: [`Graph::reset`] (and the grad clear at
//! the top of [`Graph::backward_with`]) drops each node's tensors, which
//! parks their buffers in the thread-local size-bucketed arena
//! ([`crate::storage`]); the next sweep's node outputs and gradients then
//! rebind those exact buffers (same size class → same free-list, LIFO).
//! A reused tape's dropout bits live in one word buffer that
//! [`Graph::reset`] clears without freeing. So after the first step a
//! steady-state trainer loop on a reused tape allocates nothing, provided
//! the buffers one step holds at its peak fit under the arena's per-thread
//! cap (64 MiB). A paper-sized PPN step keeps about 11 MB of node values;
//! before the fused ops and leaf-only gradients it held about 94 MB, so
//! every step sent about 65 MB of buffers back to the system allocator. The
//! `tensor.arena_hits` / `tensor.alloc_bytes` counters flushed at the end of
//! every backward sweep, and [`Graph::tape_stats`], show which case holds.
//! Within a sweep, backward arms write into the gradient they own or into
//! recycled buffers through [`crate::tensor::Tensor::add_assign`] instead of
//! allocating fresh intermediates (the `ppn-check` `no-hot-alloc` rule
//! keeps it that way).
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
use crate::fused::{self, MASK_BITS};
use crate::shape;
use crate::storage::Storage;
use crate::tensor::Tensor;
use rand::Rng;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

#[derive(Debug)]
#[allow(dead_code)] // some payloads (e.g. the AddScalar constant) exist for Debug introspection only
enum Op {
    Leaf,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Neg(NodeId),
    Scale(NodeId, f64),
    AddScalar(NodeId, f64),
    MatMul(NodeId, NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    Log(NodeId),
    Abs(NodeId),
    Square(NodeId),
    Softmax(NodeId),
    Sum(NodeId),
    Mean(NodeId),
    SumAxis(NodeId, usize),
    Concat(Vec<NodeId>, usize),
    Slice {
        x: NodeId,
        axis: usize,
        start: usize,
        end: usize,
    },
    Reshape(NodeId),
    Permute(NodeId, Vec<usize>),
    Conv2d {
        x: NodeId,
        w: NodeId,
        dilation: Dilation,
        pad: Padding,
    },
    /// `relu((conv(x, w) + bias) · m)`; `mask` is `None` when dropout is
    /// off.
    ConvBiasDropoutRelu {
        x: NodeId,
        w: NodeId,
        dilation: Dilation,
        pad: Padding,
        bias: NodeId,
        mask: Option<Dropout>,
    },
    /// LSTM gate activations `[i | f | ĉ | o]` of
    /// `z = (x·w + h·u) + bias`.
    LstmGates {
        x: NodeId,
        w: NodeId,
        h: NodeId,
        u: NodeId,
        bias: NodeId,
        hidden: usize,
    },
    /// LSTM cell `c = f·c_prev + i·ĉ`.
    LstmCell {
        gates: NodeId,
        c_prev: NodeId,
        hidden: usize,
    },
    /// LSTM hidden state `h = o·tanh(c)`, keeping `tanh(c)`.
    LstmHidden {
        gates: NodeId,
        cell: NodeId,
        hidden: usize,
        tanh_c: Tensor,
    },
}

/// Where a dropout node's mask bits live in [`Graph::masks`], and the
/// survivors' scale `1/(1−p)`.
#[derive(Debug, Clone, Copy)]
struct Dropout {
    word: usize,
    scale: f64,
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
    /// Dropout mask bits of every [`Op::ConvBiasDropoutRelu`] node, packed
    /// `MASK_BITS` to a word, one word-aligned run per node.
    masks: Vec<u64>,
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
        Graph { nodes: Vec::with_capacity(256), masks: Vec::new() }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape for reuse, keeping its node and mask allocations.
    /// Dropping the nodes parks their value/grad buffers in the
    /// thread-local arena, so the next sweep over the same network rebinds
    /// them instead of allocating (see the module docs).
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.masks.clear();
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

    /// Gradient of a leaf after [`Graph::backward`]; `None` if the node does
    /// not require grad or was not reached.
    ///
    /// Only leaves ([`Graph::param`]) keep their gradient: the sweep drops
    /// each interior node's gradient once it has been propagated, so this
    /// is `None` for every node an op produced.
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
    // Convolution and fused layer glue
    // ------------------------------------------------------------------

    /// Stride-1 2-D convolution (NCHW input, OIHW kernel) with dilation and
    /// explicit zero padding.
    pub fn conv2d(&mut self, x: NodeId, w: NodeId, dilation: Dilation, pad: Padding) -> NodeId {
        let v = conv2d_forward(self.value(x), self.value(w), dilation, pad);
        let rg = self.rg(x) || self.rg(w);
        self.push(Op::Conv2d { x, w, dilation, pad }, v, rg)
    }

    /// `relu((conv(x, w) + bias) · m)` as one node: a convolution as in
    /// [`Graph::conv2d`], its per-channel bias, inverted dropout and a
    /// ReLU. The epilogue runs in place on the convolution's output, which
    /// is then the node's value: backward reads that output and the
    /// convolution's operands, never the pre-bias activations.
    ///
    /// The convolution's output is `(B, C, H, W)` and `bias` is `(C, 1, 1)`.
    /// In training mode with `p > 0`, `m` is `1/(1−p)` for each element
    /// that survives and `0` for each one dropped; the op draws one
    /// `rng.gen::<f64>()` per element in flat order (survival is
    /// `u < 1 − p`) after the convolution and keeps the mask as bits.
    /// Otherwise no `m` is applied and `rng` is not touched.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1)` and the shapes are as above.
    #[allow(clippy::too_many_arguments)] // a convolution's four operands plus bias and dropout
    pub fn conv_bias_dropout_relu<R: Rng>(
        &mut self,
        x: NodeId,
        w: NodeId,
        dilation: Dilation,
        pad: Padding,
        bias: NodeId,
        p: f64,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate {p}");
        let mut y = conv2d_forward(self.value(x), self.value(w), dilation, pad);
        let (channels, plane) = (y.shape()[1], y.shape()[2] * y.shape()[3]);
        assert!(
            self.value(bias).shape() == [channels, 1, 1],
            "conv_bias_dropout_relu wants a (C, 1, 1) bias for a (B, C, H, W) output, \
             got {:?} and {:?}",
            self.value(bias).shape(),
            y.shape()
        );
        let n = y.len();
        let mask = (training && !crate::approx::is_zero(p)).then(|| {
            let keep = 1.0 - p;
            let word = self.masks.len();
            self.masks.resize(word + n.div_ceil(MASK_BITS), 0);
            for e in 0..n {
                if rng.gen::<f64>() < keep {
                    self.masks[word + e / MASK_BITS] |= 1 << (e % MASK_BITS);
                }
            }
            Dropout { word, scale: 1.0 / keep }
        });
        fused::bias_dropout_relu_in_place(
            y.data_mut(),
            self.value(bias).data(),
            plane,
            mask.map(|m| (&self.masks[m.word..], m.scale)),
        );
        let rg = self.rg(x) || self.rg(w) || self.rg(bias);
        self.push(Op::ConvBiasDropoutRelu { x, w, dilation, pad, bias, mask }, y, rg)
    }

    /// One LSTM step as three nodes; returns `(h, c)`.
    ///
    /// `x` is `(B, D)`, `w` is `(D, 4H)`, `h_prev` is `(B, H)`, `u` is
    /// `(H, 4H)`, `bias` is `(4H,)` and `c_prev` is `(B, H)`. The gates node
    /// computes `x·W` and `h_prev·U` with [`Tensor::matmul`] as temporaries
    /// (`x·W`'s buffer becomes the gates, `h_prev·U`'s is dropped), so the
    /// tape keeps neither product. The gates `[i | f | ĉ | o]` are sigmoid,
    /// sigmoid, tanh, sigmoid of `z = (x·W + h_prev·U) + bias`; then
    /// `c = f·c_prev + i·ĉ` and `h = o·tanh(c)`.
    ///
    /// # Panics
    /// Panics if the shapes disagree.
    pub fn lstm_step(
        &mut self,
        x: NodeId,
        w: NodeId,
        h_prev: NodeId,
        u: NodeId,
        bias: NodeId,
        c_prev: NodeId,
    ) -> (NodeId, NodeId) {
        let mut z = self.value(x).matmul(self.value(w));
        let hu = self.value(h_prev).matmul(self.value(u));
        let (rows, hidden) = (z.shape()[0], z.shape()[1] / 4);
        assert!(
            z.shape() == [rows, 4 * hidden]
                && hu.shape() == z.shape()
                && self.value(bias).shape() == [4 * hidden]
                && self.value(c_prev).shape() == [rows, hidden],
            "lstm_step shapes: x·w {:?}, h_prev·u {:?}, bias {:?}, c_prev {:?}",
            z.shape(),
            hu.shape(),
            self.value(bias).shape(),
            self.value(c_prev).shape()
        );
        fused::lstm_gates(z.data_mut(), hu.data(), self.value(bias).data(), hidden);
        drop(hu);
        let rg = self.rg(x) || self.rg(w) || self.rg(h_prev) || self.rg(u) || self.rg(bias);
        let gates = self.push(Op::LstmGates { x, w, h: h_prev, u, bias, hidden }, z, rg);

        let mut c = Storage::uninit(rows * hidden);
        fused::lstm_cell(self.value(gates).data(), self.value(c_prev).data(), hidden, &mut c);
        let rg = rg || self.rg(c_prev);
        let cell = self.push(
            Op::LstmCell { gates, c_prev, hidden },
            Tensor::from_storage(&[rows, hidden], c),
            rg,
        );

        let mut tanh_c = Storage::uninit(rows * hidden);
        let mut h = Storage::uninit(rows * hidden);
        fused::lstm_hidden(
            self.value(gates).data(),
            self.value(cell).data(),
            hidden,
            &mut tanh_c,
            &mut h,
        );
        let op = Op::LstmHidden {
            gates,
            cell,
            hidden,
            tanh_c: Tensor::from_storage(&[rows, hidden], tanh_c),
        };
        let h = self.push(op, Tensor::from_storage(&[rows, hidden], h), rg);
        (h, cell)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs the reverse sweep from `output`, which must be a scalar node.
    /// Gradients accumulate into every `requires_grad` leaf reachable from
    /// it (see [`Graph::grad`]).
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
            let node = &mut self.nodes[i];
            if !node.requires_grad || matches!(node.op, Op::Leaf) {
                continue;
            }
            // Taking the gradient out drops it once propagated: only leaves
            // keep theirs.
            let Some(g) = node.grad.take() else { continue };
            self.propagate(i, g);
        }
        crate::storage::flush_obs_counters();
    }

    /// Propagates node `i`'s gradient `g` to its operands. Operands always
    /// precede their node on the tape, so the sweep splits the tape at `i`:
    /// the node is read in place (no clone of its `Op`) while the operands
    /// before it receive gradients. An operand that does not require a
    /// gradient gets none computed.
    fn propagate(&mut self, i: usize, mut g: Tensor) {
        let Graph { nodes, masks } = self;
        let (inputs, rest) = nodes.split_at_mut(i);
        let node = &rest[0];
        let y = &node.value;
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let (ga, gb) = route2(g, shape_if(inputs, a), shape_if(inputs, b));
                accumulate(inputs, *a, ga);
                accumulate(inputs, *b, gb);
            }
            Op::Sub(a, b) => {
                // `b` gets `−g` summed down, negated before the reduction
                // (negating a sum of zeros would flip its sign).
                let (ga, gb) = match (shape_if(inputs, a), shape_if(inputs, b)) {
                    (sa, Some(sb)) => {
                        let ga = sa.map(|sa| g.reduce_broadcast(sa));
                        g.map_assign(|v| -v);
                        (ga, Some(reduce_into(g, sb)))
                    }
                    (sa, None) => (sa.map(|sa| reduce_into(g, sa)), None),
                };
                accumulate(inputs, *a, ga);
                accumulate(inputs, *b, gb);
            }
            Op::Mul(a, b) => {
                let (va, vb) = (&inputs[a.0].value, &inputs[b.0].value);
                let ga = wants(inputs, a).then(|| reduce_into(g.mul(vb), va.shape()));
                let gb = wants(inputs, b).then(|| reduce_into(g.mul(va), vb.shape()));
                accumulate(inputs, *a, ga);
                accumulate(inputs, *b, gb);
            }
            Op::Neg(x) => {
                g.map_assign(|v| -v);
                accumulate(inputs, *x, Some(g));
            }
            Op::Scale(x, s) => {
                g.map_assign(|v| v * s);
                accumulate(inputs, *x, Some(g));
            }
            Op::AddScalar(x, _) => accumulate(inputs, *x, Some(g)),
            Op::MatMul(a, b) => {
                let (ga, gb) = matmul_grads(inputs, a, b, &g);
                accumulate(inputs, *a, ga);
                accumulate(inputs, *b, gb);
            }
            // Unary ops: g ← g · f′ in the gradient's own buffer.
            Op::Sigmoid(x) => {
                g.zip_assign(y, |g, v| g * (v * (1.0 - v)));
                accumulate(inputs, *x, Some(g));
            }
            Op::Tanh(x) => {
                g.zip_assign(y, |g, v| g * (1.0 - v * v));
                accumulate(inputs, *x, Some(g));
            }
            Op::Relu(x) => {
                g.zip_assign(&inputs[x.0].value, |g, v| g * if v > 0.0 { 1.0 } else { 0.0 });
                accumulate(inputs, *x, Some(g));
            }
            Op::Log(x) => {
                g.zip_assign(&inputs[x.0].value, |g, v| g * (1.0 / v));
                accumulate(inputs, *x, Some(g));
            }
            Op::Abs(x) => {
                let sign = |v: f64| {
                    if v > 0.0 {
                        1.0
                    } else if v < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                };
                g.zip_assign(&inputs[x.0].value, |g, v| g * sign(v));
                accumulate(inputs, *x, Some(g));
            }
            Op::Square(x) => {
                g.zip_assign(&inputs[x.0].value, |g, v| g * (v * 2.0));
                accumulate(inputs, *x, Some(g));
            }
            Op::Softmax(x) => {
                // Per-row: dx = y ⊙ (g − ⟨g, y⟩), written over g.
                // ppn-check: allow(no-panic) invariant: softmax output keeps its input's rank >= 1
                let last = *y.shape().last().expect("softmax output has rank >= 1");
                for (yr, gr) in y.data().chunks_exact(last).zip(g.data_mut().chunks_exact_mut(last))
                {
                    let dot: f64 = yr.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
                    for (d, &yv) in gr.iter_mut().zip(yr) {
                        *d = yv * (*d - dot);
                    }
                }
                accumulate(inputs, *x, Some(g));
            }
            Op::Sum(x) => {
                let gx = Tensor::full(inputs[x.0].value.shape(), g.item());
                accumulate(inputs, *x, Some(gx));
            }
            Op::Mean(x) => {
                let xv = &inputs[x.0].value;
                let gx = Tensor::full(xv.shape(), g.item() / xv.len() as f64);
                accumulate(inputs, *x, Some(gx));
            }
            Op::SumAxis(x, axis) => {
                // Broadcast the reduced gradient back along the removed axis.
                let xs = inputs[x.0].value.shape();
                let outer: usize = xs[..*axis].iter().product();
                let mid = xs[*axis];
                let inner: usize = xs[axis + 1..].iter().product();
                let mut gx = Storage::uninit(outer * mid * inner);
                for o in 0..outer {
                    let src = &g.data()[o * inner..(o + 1) * inner];
                    for m in 0..mid {
                        gx[(o * mid + m) * inner..(o * mid + m + 1) * inner].copy_from_slice(src);
                    }
                }
                let gx = Tensor::from_storage(xs, gx);
                accumulate(inputs, *x, Some(gx));
            }
            Op::Concat(xs, axis) => {
                let out_shape = y.shape();
                let outer: usize = out_shape[..*axis].iter().product();
                let inner: usize = out_shape[axis + 1..].iter().product();
                let row_out = out_shape[*axis] * inner;
                let mut base = 0usize;
                for x in xs {
                    let s = inputs[x.0].value.shape();
                    let chunk = s[*axis] * inner;
                    let gx = wants(inputs, x).then(|| {
                        let mut gx = Storage::uninit(outer * chunk);
                        for o in 0..outer {
                            gx[o * chunk..(o + 1) * chunk].copy_from_slice(
                                &g.data()[o * row_out + base..o * row_out + base + chunk],
                            );
                        }
                        Tensor::from_storage(s, gx)
                    });
                    base += chunk;
                    accumulate(inputs, *x, gx);
                }
            }
            Op::Slice { x, axis, start, end } => {
                let s = inputs[x.0].value.shape();
                let outer: usize = s[..*axis].iter().product();
                let mid = s[*axis];
                let inner: usize = s[axis + 1..].iter().product();
                let take = (end - start) * inner;
                // Zeroed, not uninit: only the sliced range is overwritten.
                let mut gx = Storage::zeroed(outer * mid * inner);
                for o in 0..outer {
                    let dst = o * mid * inner + start * inner;
                    gx[dst..dst + take].copy_from_slice(&g.data()[o * take..(o + 1) * take]);
                }
                let gx = Tensor::from_storage(s, gx);
                accumulate(inputs, *x, Some(gx));
            }
            Op::Reshape(x) => {
                let gx = g.into_shape(inputs[x.0].value.shape());
                accumulate(inputs, *x, Some(gx));
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
                accumulate(inputs, *x, Some(gx));
            }
            Op::Conv2d { x, w, dilation, pad } => {
                conv_grads(inputs, *x, *w, *dilation, *pad, &g);
            }
            Op::ConvBiasDropoutRelu { x, w, dilation, pad, bias, mask } => {
                let mask = mask.map(|m| (&masks[m.word..], m.scale));
                let plane = y.shape()[2] * y.shape()[3];
                let bs = shape_if(inputs, bias);
                let mut gb = bs.map(|s| Storage::zeroed(shape::numel(s)));
                fused::bias_dropout_relu_grad(
                    g.data_mut(),
                    y.data(),
                    plane,
                    mask,
                    gb.as_deref_mut(),
                );
                let gb = bs.zip(gb).map(|(s, gb)| Tensor::from_storage(s, gb));
                accumulate(inputs, *bias, gb);
                // `g` is now the convolution output's gradient.
                conv_grads(inputs, *x, *w, *dilation, *pad, &g);
            }
            Op::LstmGates { x, w, h, u, bias, hidden } => {
                let bs = shape_if(inputs, bias);
                let mut gb = bs.map(|s| Storage::zeroed(shape::numel(s)));
                fused::lstm_gates_grad(g.data_mut(), y.data(), *hidden, gb.as_deref_mut());
                let gb = bs.zip(gb).map(|(s, gb)| Tensor::from_storage(s, gb));
                accumulate(inputs, *bias, gb);
                // `g` is now `z`'s gradient, read by both products. `h·U`'s
                // terms go first: an operand of both products (`W` = `U`)
                // then sums its two terms in the order of the unfused tape,
                // whose `h·U` node came later and so was swept first.
                let (gh, gu) = matmul_grads(inputs, h, u, &g);
                accumulate(inputs, *h, gh);
                accumulate(inputs, *u, gu);
                let (gx, gw) = matmul_grads(inputs, x, w, &g);
                accumulate(inputs, *x, gx);
                accumulate(inputs, *w, gw);
            }
            Op::LstmCell { gates, c_prev, hidden } => {
                let mut gg = Storage::uninit(g.len() * 4);
                let zv = &inputs[gates.0].value;
                let cv = inputs[c_prev.0].value.data();
                fused::lstm_cell_grad(g.data_mut(), zv.data(), cv, *hidden, &mut gg);
                let gg = Tensor::from_storage(zv.shape(), gg);
                accumulate(inputs, *gates, Some(gg));
                accumulate(inputs, *c_prev, wants(inputs, c_prev).then_some(g));
            }
            Op::LstmHidden { gates, cell, hidden, tanh_c } => {
                let mut gg = Storage::uninit(g.len() * 4);
                let zv = &inputs[gates.0].value;
                fused::lstm_hidden_grad(g.data_mut(), zv.data(), tanh_c.data(), *hidden, &mut gg);
                let gg = Tensor::from_storage(zv.shape(), gg);
                accumulate(inputs, *gates, Some(gg));
                accumulate(inputs, *cell, Some(g));
            }
        }
    }
}

/// Adds `delta` into node `id`'s gradient (`None`: nothing to add).
fn accumulate(nodes: &mut [Node], id: NodeId, delta: Option<Tensor>) {
    let node = &mut nodes[id.0];
    let Some(delta) = delta else { return };
    if !node.requires_grad {
        return;
    }
    match &mut node.grad {
        // Same-shape accumulation reuses the existing buffer in place
        // (bit-identical to `g.add(&delta)` for equal shapes).
        Some(g) if g.shape() == delta.shape() => g.add_assign(&delta),
        Some(g) => *g = g.add(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// Whether operand `id` wants a gradient.
fn wants(nodes: &[Node], id: &NodeId) -> bool {
    nodes[id.0].requires_grad
}

/// The operand's shape when it wants a gradient.
fn shape_if<'a>(nodes: &'a [Node], id: &NodeId) -> Option<&'a [usize]> {
    let n = &nodes[id.0];
    n.requires_grad.then(|| n.value.shape())
}

/// `g` summed down to `target` over broadcast dims; `g` itself, not a copy,
/// when the shapes already match.
fn reduce_into(g: Tensor, target: &[usize]) -> Tensor {
    if g.shape() == target {
        g
    } else {
        g.reduce_broadcast(target)
    }
}

/// Routes `g` to two operands shaped `a` and `b` (`None`: not wanted). The
/// last operand that wants it takes `g` itself, so a same-shape gradient is
/// copied only when both operands need it.
fn route2(g: Tensor, a: Option<&[usize]>, b: Option<&[usize]>) -> (Option<Tensor>, Option<Tensor>) {
    match (a, b) {
        (Some(a), Some(b)) => (Some(g.reduce_broadcast(a)), Some(reduce_into(g, b))),
        (Some(a), None) => (Some(reduce_into(g, a)), None),
        (None, b) => (None, b.map(|b| reduce_into(g, b))),
    }
}

/// `dA = G·Bᵀ` and `dB = Aᵀ·G` of the product `A·B`, each computed only
/// when its operand wants it.
fn matmul_grads(
    nodes: &[Node],
    a: &NodeId,
    b: &NodeId,
    g: &Tensor,
) -> (Option<Tensor>, Option<Tensor>) {
    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
    let ga = wants(nodes, a).then(|| g.matmul(&vb.transpose2()));
    let gb = wants(nodes, b).then(|| va.transpose2().matmul(g));
    (ga, gb)
}

/// Routes a convolution output's gradient `g` to the input `x` and the
/// kernel `w`. The first conv of a net reads a data leaf, whose grad-x
/// nobody reads, so it is not computed. One `tensor.conv_ms` observation
/// covers both kernels.
fn conv_grads(
    nodes: &mut [Node],
    x: NodeId,
    w: NodeId,
    dilation: Dilation,
    pad: Padding,
    g: &Tensor,
) {
    let timer = crate::tensor::kernel_timer();
    let (xv, wv) = (&nodes[x.0].value, &nodes[w.0].value);
    let gx = wants(nodes, &x).then(|| conv2d_grad_x(xv, wv, g, dilation, pad));
    let gw = wants(nodes, &w).then(|| conv2d_grad_w(xv, wv, g, dilation, pad));
    crate::tensor::CONV_MS.observe_since(timer);
    accumulate(nodes, x, gx);
    accumulate(nodes, w, gw);
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
        let x = g.param(Tensor::ones(&[1, 1, 10, 100]));
        let w = g.param(Tensor::ones(&[1, 1, 1, 1])); // identity kernel
        let b = g.param(Tensor::zeros(&[1, 1, 1]));
        let nopad = (0, 0, 0, 0);
        // Eval mode: relu(x + b) = x, and the rng is not touched.
        let before = rng.clone().gen::<u64>();
        let y = g.conv_bias_dropout_relu(x, w, (1, 1), nopad, b, 0.5, false, &mut rng);
        assert_eq!(g.value(y), g.value(x));
        assert_eq!(rng.clone().gen::<u64>(), before);
        let z = g.conv_bias_dropout_relu(x, w, (1, 1), nopad, b, 0.5, true, &mut rng);
        let m = g.value(z).mean();
        assert!((m - 1.0).abs() < 0.1, "inverted dropout keeps the mean, got {m}");
        assert!(g.value(z).data().iter().all(|&v| v == 0.0 || v == 2.0));
    }

    #[test]
    fn interior_gradients_are_dropped_and_leaves_keep_theirs() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(&[2], vec![1.0, -2.0]));
        let c = g.leaf(Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let y = g.mul(x, c);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[3.0, 4.0]);
        assert!(g.grad(c).is_none(), "a constant gets no gradient");
        assert!(g.grad(y).is_none() && g.grad(s).is_none(), "interior grads are freed");
        assert_eq!(g.tape_stats().grad_elems, 2);
    }

    #[test]
    fn sub_broadcast_grad_negates_before_summing() {
        // −(0 + 0) is −0 but (−0) + (−0) summed from +0 is +0: the
        // subtrahend's gradient is reduced from −g, not negated after.
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[2]));
        let m = g.param(Tensor::scalar(1.0));
        let y = g.sub(x, m);
        g.backward_with(y, Tensor::zeros(&[2]));
        assert_eq!(g.grad(m).unwrap().item().to_bits(), 0.0f64.to_bits());
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.0]);
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
