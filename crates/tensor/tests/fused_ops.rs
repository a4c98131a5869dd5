//! The fused tape ops against the primitive chains they replace, bit for
//! bit: forward values, every leaf gradient and the RNG stream. The chains
//! include the kernels the fused nodes run themselves: `conv2d` before the
//! conv node's bias, dropout and ReLU, and both matmuls of an LSTM step.
//!
//! Inputs include exact zeros (a ReLU input of exactly `0`, zero state) and
//! seed gradients of `+0.0` and `−0.0`, where a different order of the same
//! arithmetic would show up as a flipped sign bit.

use ppn_tensor::{Graph, NodeId, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Random values with a sprinkling of exact `+0`, `−0` and repeated values.
fn values(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.5..1.5),
        })
        .collect()
}

fn grad_bits(g: &Graph, ids: &[NodeId]) -> Vec<Option<Vec<u64>>> {
    ids.iter().map(|&id| g.grad(id).map(bits)).collect()
}

/// `relu((x + b) · mask)` on primitive nodes, the mask drawn exactly as
/// inverted dropout draws it.
fn dropout_relu_reference(
    g: &mut Graph,
    x: NodeId,
    b: NodeId,
    p: f64,
    training: bool,
    rng: &mut StdRng,
) -> NodeId {
    let s = g.add(x, b);
    if !training || p == 0.0 {
        return g.relu(s);
    }
    let keep = 1.0 - p;
    let shape = g.value(s).shape().to_vec();
    let n = g.value(s).len();
    let m: Vec<f64> =
        (0..n).map(|_| if rng.gen::<f64>() < keep { 1.0 / keep } else { 0.0 }).collect();
    let mask = g.leaf(Tensor::from_vec(&shape, m));
    let d = g.mul(s, mask);
    g.relu(d)
}

/// One convolution layer's inputs: `x` is `(B, C_in, H, W)`, `w` is
/// `(C_out, C_in, KH, KW)`, `b` is `(C_out, 1, 1)`.
struct ConvCase {
    x_shape: [usize; 4],
    w_shape: [usize; 4],
    dilation: (usize, usize),
    pad: (usize, usize, usize, usize),
    x: Vec<f64>,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// A random layer whose output channel 0 has an all-zero kernel and a
/// bias of `±0`, so its ReLU inputs are exactly zero.
fn conv_case(rng: &mut StdRng) -> ConvCase {
    let (kh, kw) = (rng.gen_range(1..3), rng.gen_range(1..4));
    let dilation = (rng.gen_range(1..3), rng.gen_range(1..3));
    let pad = (rng.gen_range(0..2), rng.gen_range(0..2), rng.gen_range(0..3), 0);
    let (eh, ew) = (dilation.0 * (kh - 1) + 1, dilation.1 * (kw - 1) + 1);
    let x_shape = [
        rng.gen_range(1..3),
        rng.gen_range(1..4),
        eh + rng.gen_range(0..3usize),
        ew + rng.gen_range(0..40usize),
    ];
    let w_shape = [rng.gen_range(1..6), x_shape[1], kh, kw];
    let x = values(rng, x_shape.iter().product());
    let mut w = values(rng, w_shape.iter().product());
    let per_channel = w.len() / w_shape[0];
    w[..per_channel].fill(0.0);
    let mut b = values(rng, w_shape[0]);
    b[0] = if rng.gen::<bool>() { 0.0 } else { -0.0 };
    ConvCase { x_shape, w_shape, dilation, pad, x, w, b }
}

#[test]
fn bias_dropout_relu_matches_the_primitive_chain() {
    // The fused conv node against `conv2d` followed by bias, dropout and
    // ReLU as separate nodes. In odd cases the input is a data leaf, as the
    // first conv of a net reads, and gets no gradient.
    let mut shapes = StdRng::seed_from_u64(11);
    for case in 0..8 {
        let c = conv_case(&mut shapes);
        let x_wants_grad = case % 2 == 0;
        let out_shape = {
            let mut g = Graph::new();
            let x = g.leaf(Tensor::from_vec(&c.x_shape, c.x.clone()));
            let w = g.leaf(Tensor::from_vec(&c.w_shape, c.w.clone()));
            let y = g.conv2d(x, w, c.dilation, c.pad);
            g.value(y).shape().to_vec()
        };
        let seed = values(&mut shapes, out_shape.iter().product());
        for (p, training) in [(0.0, true), (0.2, true), (0.2, false)] {
            let run = |fused: bool| {
                let mut rng = StdRng::seed_from_u64(case);
                let mut g = Graph::new();
                let x = Tensor::from_vec(&c.x_shape, c.x.clone());
                let xn = if x_wants_grad { g.param(x) } else { g.leaf(x) };
                let wn = g.param(Tensor::from_vec(&c.w_shape, c.w.clone()));
                let bn = g.param(Tensor::from_vec(&[c.w_shape[0], 1, 1], c.b.clone()));
                let y = if fused {
                    g.conv_bias_dropout_relu(xn, wn, c.dilation, c.pad, bn, p, training, &mut rng)
                } else {
                    let conv = g.conv2d(xn, wn, c.dilation, c.pad);
                    dropout_relu_reference(&mut g, conv, bn, p, training, &mut rng)
                };
                g.backward_with(y, Tensor::from_vec(&out_shape, seed.clone()));
                (bits(g.value(y)), grad_bits(&g, &[xn, wn, bn]), rng.gen::<u64>())
            };
            let (fused, reference) = (run(true), run(false));
            assert_eq!(fused.1[0].is_some(), x_wants_grad, "case {case}: input gradient");
            assert_eq!(fused.0, reference.0, "case {case} p={p} training={training}: values");
            assert_eq!(fused.1, reference.1, "case {case} p={p} training={training}: grads");
            assert_eq!(fused.2, reference.2, "case {case} p={p} training={training}: rng");
        }
    }
}

/// Inputs of one LSTM recurrence: per-step inputs, weights and state.
struct LstmCase {
    rows: usize,
    hidden: usize,
    xs: Vec<Vec<f64>>,
    /// Whether the inputs want a gradient, as a cascade's conv features
    /// do; otherwise they are data leaves.
    xs_want_grad: bool,
    w: Vec<f64>,
    u: Vec<f64>,
    b: Vec<f64>,
    c0: Vec<f64>,
    wh: Vec<f64>,
    wc: Vec<f64>,
}

/// Every third bias at 40, where sigmoid and tanh round to exactly 1 and
/// their derivative to exactly 0: a negative gradient times that 0 is `−0`
/// in the fused step and `+0` in the unfused one.
fn saturating(mut b: Vec<f64>) -> Vec<f64> {
    for v in b.iter_mut().step_by(3) {
        *v = 40.0;
    }
    b
}

/// One step on primitive nodes: the graph the LSTM layer used to build,
/// two matmuls and the gate, cell and hidden-state chain.
#[allow(clippy::too_many_arguments)] // the fused step's six operands plus the width
fn lstm_step_reference(
    g: &mut Graph,
    x: NodeId,
    w: NodeId,
    h: NodeId,
    u: NodeId,
    b: NodeId,
    c: NodeId,
    hn: usize,
) -> (NodeId, NodeId) {
    let xw = g.matmul(x, w);
    let hu = g.matmul(h, u);
    let z0 = g.add(xw, hu);
    let z = g.add(z0, b);
    let zi = g.slice(z, 1, 0, hn);
    let zf = g.slice(z, 1, hn, 2 * hn);
    let zc = g.slice(z, 1, 2 * hn, 3 * hn);
    let zo = g.slice(z, 1, 3 * hn, 4 * hn);
    let i = g.sigmoid(zi);
    let f = g.sigmoid(zf);
    let chat = g.tanh(zc);
    let o = g.sigmoid(zo);
    let fc = g.mul(f, c);
    let ic = g.mul(i, chat);
    let c = g.add(fc, ic);
    let tc = g.tanh(c);
    (g.mul(o, tc), c)
}

/// The loss `Σ h·wh + Σ c·wc`, which feeds `±0` gradients into both
/// outputs of the last step.
fn lstm_loss(g: &mut Graph, h: NodeId, c: NodeId, wh: &[f64], wc: &[f64]) -> NodeId {
    let shape = g.value(h).shape().to_vec();
    let whn = g.leaf(Tensor::from_vec(&shape, wh.to_vec()));
    let wcn = g.leaf(Tensor::from_vec(&shape, wc.to_vec()));
    let ph = g.mul(h, whn);
    let pc = g.mul(c, wcn);
    let sh = g.sum(ph);
    let sc = g.sum(pc);
    g.add(sh, sc)
}

/// Runs the recurrence from a zero hidden state; returns value and
/// gradient bits.
fn run_lstm(case: &LstmCase, fused: bool) -> (Vec<u64>, Vec<Option<Vec<u64>>>) {
    let (rows, hn) = (case.rows, case.hidden);
    let mut g = Graph::new();
    let xs: Vec<NodeId> = case
        .xs
        .iter()
        .map(|x| {
            let t = Tensor::from_vec(&[rows, x.len() / rows], x.clone());
            if case.xs_want_grad {
                g.param(t)
            } else {
                g.leaf(t)
            }
        })
        .collect();
    let d = case.w.len() / (4 * hn);
    let w = g.param(Tensor::from_vec(&[d, 4 * hn], case.w.clone()));
    let u = g.param(Tensor::from_vec(&[hn, 4 * hn], case.u.clone()));
    let b = g.param(Tensor::from_vec(&[4 * hn], case.b.clone()));
    let mut h = g.leaf(Tensor::zeros(&[rows, hn]));
    let c0 = g.param(Tensor::from_vec(&[rows, hn], case.c0.clone()));
    let mut c = c0;
    for &x in &xs {
        (h, c) = if fused {
            g.lstm_step(x, w, h, u, b, c)
        } else {
            lstm_step_reference(&mut g, x, w, h, u, b, c, hn)
        };
    }
    let loss = lstm_loss(&mut g, h, c, &case.wh, &case.wc);
    g.backward(loss);
    let mut out = bits(g.value(h));
    out.extend(bits(g.value(c)));
    let mut leaves = xs;
    leaves.extend([w, u, b, c0]);
    (out, grad_bits(&g, &leaves))
}

#[test]
fn lstm_step_matches_the_primitive_chain() {
    let mut rng = StdRng::seed_from_u64(12);
    for case in 0..8 {
        let (rows, hidden, d, steps): (usize, usize, usize, usize) =
            (rng.gen_range(1..5), rng.gen_range(1..6), rng.gen_range(1..4), rng.gen_range(1..5));
        let case_in = LstmCase {
            rows,
            hidden,
            xs: (0..steps).map(|_| values(&mut rng, rows * d)).collect(),
            xs_want_grad: case % 2 == 1,
            w: values(&mut rng, d * 4 * hidden),
            u: values(&mut rng, hidden * 4 * hidden),
            b: saturating(values(&mut rng, 4 * hidden)),
            c0: if case == 0 { vec![0.0; rows * hidden] } else { values(&mut rng, rows * hidden) },
            wh: values(&mut rng, rows * hidden),
            wc: values(&mut rng, rows * hidden),
        };
        let (fused, reference) = (run_lstm(&case_in, true), run_lstm(&case_in, false));
        assert_eq!(fused.0, reference.0, "case {case}: values");
        assert_eq!(fused.1, reference.1, "case {case}: grads");
    }
}

#[test]
fn lstm_step_matches_on_leaf_inputs() {
    // One step with every operand a leaf that wants a gradient, `h_prev`
    // included, and saturated gates.
    let mut rng = StdRng::seed_from_u64(13);
    for case in 0..6 {
        let (rows, hn, d): (usize, usize, usize) =
            (rng.gen_range(1..5), rng.gen_range(1..6), rng.gen_range(1..4));
        let x = values(&mut rng, rows * d);
        let w = values(&mut rng, d * 4 * hn);
        let h0 = values(&mut rng, rows * hn);
        let u = values(&mut rng, hn * 4 * hn);
        let b = saturating(values(&mut rng, 4 * hn));
        let c0 = values(&mut rng, rows * hn);
        let (wh, wc) = (values(&mut rng, rows * hn), values(&mut rng, rows * hn));
        let run = |fused: bool| {
            let mut g = Graph::new();
            let xn = g.param(Tensor::from_vec(&[rows, d], x.clone()));
            let wn = g.param(Tensor::from_vec(&[d, 4 * hn], w.clone()));
            let hnode = g.param(Tensor::from_vec(&[rows, hn], h0.clone()));
            let un = g.param(Tensor::from_vec(&[hn, 4 * hn], u.clone()));
            let bn = g.param(Tensor::from_vec(&[4 * hn], b.clone()));
            let cn = g.param(Tensor::from_vec(&[rows, hn], c0.clone()));
            let (h, c) = if fused {
                g.lstm_step(xn, wn, hnode, un, bn, cn)
            } else {
                lstm_step_reference(&mut g, xn, wn, hnode, un, bn, cn, hn)
            };
            let loss = lstm_loss(&mut g, h, c, &wh, &wc);
            g.backward(loss);
            let mut out = bits(g.value(h));
            out.extend(bits(g.value(c)));
            (out, grad_bits(&g, &[xn, wn, hnode, un, bn, cn]))
        };
        assert_eq!(run(true), run(false), "case {case}");
    }
}

#[test]
fn fused_ops_keep_their_node_count() {
    // One node per conv layer, three per LSTM step, matmuls included.
    let mut g = Graph::new();
    let x = g.param(Tensor::ones(&[1, 2, 1, 3]));
    let w = g.param(Tensor::ones(&[2, 2, 1, 1]));
    let b = g.param(Tensor::zeros(&[2, 1, 1]));
    let mut rng = StdRng::seed_from_u64(0);
    let before = g.len();
    g.conv_bias_dropout_relu(x, w, (1, 1), (0, 0, 0, 0), b, 0.2, true, &mut rng);
    assert_eq!(g.len() - before, 1);
    let x = g.param(Tensor::zeros(&[2, 3]));
    let w = g.param(Tensor::zeros(&[3, 8]));
    let h = g.leaf(Tensor::zeros(&[2, 2]));
    let u = g.param(Tensor::zeros(&[2, 8]));
    let bias = g.param(Tensor::zeros(&[8]));
    let c = g.leaf(Tensor::zeros(&[2, 2]));
    let before = g.len();
    g.lstm_step(x, w, h, u, bias, c);
    assert_eq!(g.len() - before, 3);
}

#[test]
#[should_panic(expected = "conv_bias_dropout_relu wants")]
fn bias_dropout_relu_rejects_a_misshapen_bias() {
    let mut g = Graph::new();
    let x = g.param(Tensor::ones(&[1, 2, 1, 3]));
    let w = g.param(Tensor::ones(&[2, 2, 1, 1]));
    let b = g.param(Tensor::zeros(&[3, 1, 1]));
    g.conv_bias_dropout_relu(
        x,
        w,
        (1, 1),
        (0, 0, 0, 0),
        b,
        0.0,
        false,
        &mut StdRng::seed_from_u64(0),
    );
}
