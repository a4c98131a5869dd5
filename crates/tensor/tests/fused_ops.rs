//! The fused tape ops against the primitive chains they replace, bit for
//! bit: forward values, every leaf gradient and the RNG stream.
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

#[test]
fn bias_dropout_relu_matches_the_primitive_chain() {
    let mut shapes = StdRng::seed_from_u64(11);
    for case in 0..8 {
        let shape: [usize; 4] = [
            shapes.gen_range(1..4),
            shapes.gen_range(1..5),
            shapes.gen_range(1..4),
            shapes.gen_range(1..70),
        ];
        let n: usize = shape.iter().product();
        let bias = values(&mut shapes, shape[1]);
        let mut x = values(&mut shapes, n);
        // Some ReLU inputs of exactly zero: x = −b.
        let plane = shape[2] * shape[3];
        for e in (0..n).step_by(5) {
            x[e] = -bias[(e / plane) % shape[1]];
        }
        let seed = values(&mut shapes, n);
        for (p, training) in [(0.0, true), (0.2, true), (0.2, false)] {
            let run = |fused: bool| {
                let mut rng = StdRng::seed_from_u64(case);
                let mut g = Graph::new();
                let xn = g.param(Tensor::from_vec(&shape, x.clone()));
                let bn = g.param(Tensor::from_vec(&[shape[1], 1, 1], bias.clone()));
                let y = if fused {
                    g.bias_dropout_relu(xn, bn, p, training, &mut rng)
                } else {
                    dropout_relu_reference(&mut g, xn, bn, p, training, &mut rng)
                };
                g.backward_with(y, Tensor::from_vec(&shape, seed.clone()));
                (bits(g.value(y)), grad_bits(&g, &[xn, bn]), rng.gen::<u64>())
            };
            let (fused, reference) = (run(true), run(false));
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
    w: Vec<f64>,
    u: Vec<f64>,
    b: Vec<f64>,
    c0: Vec<f64>,
    wh: Vec<f64>,
    wc: Vec<f64>,
}

/// Every third bias at 40, where sigmoid and tanh round to exactly 1 and
/// their derivative to exactly 0: a negative gradient times that 0 is `−0`.
fn saturating(mut b: Vec<f64>) -> Vec<f64> {
    for v in b.iter_mut().step_by(3) {
        *v = 40.0;
    }
    b
}

/// One step on primitive nodes: the graph the LSTM layer used to build.
fn lstm_step_reference(
    g: &mut Graph,
    xw: NodeId,
    hu: NodeId,
    b: NodeId,
    c: NodeId,
    hn: usize,
) -> (NodeId, NodeId) {
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

/// Runs the recurrence; the loss `Σ h_T·wh + Σ c_T·wc` feeds `±0`
/// gradients into both outputs. Returns value and gradient bits.
fn run_lstm(case: &LstmCase, fused: bool) -> (Vec<u64>, Vec<Option<Vec<u64>>>) {
    let (rows, hn) = (case.rows, case.hidden);
    let mut g = Graph::new();
    let xs: Vec<NodeId> = case
        .xs
        .iter()
        .map(|x| g.param(Tensor::from_vec(&[rows, x.len() / rows], x.clone())))
        .collect();
    let d = case.w.len() / (4 * hn);
    let w = g.param(Tensor::from_vec(&[d, 4 * hn], case.w.clone()));
    let u = g.param(Tensor::from_vec(&[hn, 4 * hn], case.u.clone()));
    let b = g.param(Tensor::from_vec(&[4 * hn], case.b.clone()));
    let mut h = g.leaf(Tensor::zeros(&[rows, hn]));
    let c0 = g.param(Tensor::from_vec(&[rows, hn], case.c0.clone()));
    let mut c = c0;
    for &x in &xs {
        let xw = g.matmul(x, w);
        let hu = g.matmul(h, u);
        (h, c) = if fused {
            g.lstm_step(xw, hu, b, c)
        } else {
            lstm_step_reference(&mut g, xw, hu, b, c, hn)
        };
    }
    let wh = g.leaf(Tensor::from_vec(&[rows, hn], case.wh.clone()));
    let wc = g.leaf(Tensor::from_vec(&[rows, hn], case.wc.clone()));
    let ph = g.mul(h, wh);
    let pc = g.mul(c, wc);
    let sh = g.sum(ph);
    let sc = g.sum(pc);
    let loss = g.add(sh, sc);
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
    for case in 0..6 {
        let (rows, hidden, d, steps): (usize, usize, usize, usize) =
            (rng.gen_range(1..5), rng.gen_range(1..6), rng.gen_range(1..4), rng.gen_range(1..5));
        let case_in = LstmCase {
            rows,
            hidden,
            xs: (0..steps).map(|_| values(&mut rng, rows * d)).collect(),
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
    // With `xw` and `hu` as leaves their gradients are `z`'s gradient
    // itself, so a sign of zero the matmuls would wash out shows here.
    let mut rng = StdRng::seed_from_u64(13);
    for case in 0..6 {
        let (rows, hn): (usize, usize) = (rng.gen_range(1..5), rng.gen_range(1..6));
        let xw = values(&mut rng, rows * 4 * hn);
        let hu = values(&mut rng, rows * 4 * hn);
        let b = saturating(values(&mut rng, 4 * hn));
        let c0 = values(&mut rng, rows * hn);
        let (wh, wc) = (values(&mut rng, rows * hn), values(&mut rng, rows * hn));
        let run = |fused: bool| {
            let mut g = Graph::new();
            let xwn = g.param(Tensor::from_vec(&[rows, 4 * hn], xw.clone()));
            let hun = g.param(Tensor::from_vec(&[rows, 4 * hn], hu.clone()));
            let bn = g.param(Tensor::from_vec(&[4 * hn], b.clone()));
            let cn = g.param(Tensor::from_vec(&[rows, hn], c0.clone()));
            let (h, c) = if fused {
                g.lstm_step(xwn, hun, bn, cn)
            } else {
                lstm_step_reference(&mut g, xwn, hun, bn, cn, hn)
            };
            let whn = g.leaf(Tensor::from_vec(&[rows, hn], wh.clone()));
            let wcn = g.leaf(Tensor::from_vec(&[rows, hn], wc.clone()));
            let ph = g.mul(h, whn);
            let pc = g.mul(c, wcn);
            let sh = g.sum(ph);
            let sc = g.sum(pc);
            let loss = g.add(sh, sc);
            g.backward(loss);
            grad_bits(&g, &[xwn, hun, bn, cn])
        };
        assert_eq!(run(true), run(false), "case {case}");
    }
}

#[test]
fn fused_ops_keep_their_node_count() {
    // One node for the conv glue, three per LSTM step.
    let mut g = Graph::new();
    let x = g.param(Tensor::ones(&[1, 2, 1, 3]));
    let b = g.param(Tensor::zeros(&[2, 1, 1]));
    let mut rng = StdRng::seed_from_u64(0);
    let before = g.len();
    g.bias_dropout_relu(x, b, 0.2, true, &mut rng);
    assert_eq!(g.len() - before, 1);
    let xw = g.param(Tensor::zeros(&[2, 8]));
    let hu = g.param(Tensor::zeros(&[2, 8]));
    let bias = g.param(Tensor::zeros(&[8]));
    let c = g.leaf(Tensor::zeros(&[2, 2]));
    let before = g.len();
    g.lstm_step(xw, hu, bias, c);
    assert_eq!(g.len() - before, 3);
}

#[test]
#[should_panic(expected = "bias_dropout_relu wants")]
fn bias_dropout_relu_rejects_a_misshapen_bias() {
    let mut g = Graph::new();
    let x = g.param(Tensor::ones(&[1, 2, 1, 3]));
    let b = g.param(Tensor::zeros(&[3, 1, 1]));
    g.bias_dropout_relu(x, b, 0.0, false, &mut StdRng::seed_from_u64(0));
}
