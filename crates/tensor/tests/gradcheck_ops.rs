//! Finite-difference certification of every differentiable op on the tape.
//!
//! Each test builds a small composite loss exercising one op (plus the
//! reductions needed to reach a scalar) and compares analytic gradients to
//! central differences via `ppn_tensor::gradcheck`.

use ppn_tensor::gradcheck::gradcheck;
use ppn_tensor::{Graph, NodeId, ParamStore, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-6;

fn store_with(shapes: &[&[usize]], seed: u64) -> ParamStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    for (i, s) in shapes.iter().enumerate() {
        store.add(format!("p{i}"), Tensor::randn(&mut rng, s, 0.5));
    }
    store
}

fn check<F>(store: &mut ParamStore, f: F)
where
    F: FnMut(&mut Graph, &ppn_tensor::Binding) -> NodeId,
{
    let report = gradcheck(store, f, EPS, 1);
    assert!(report.max_rel_err < TOL, "gradcheck failed: {report:?}");
}

fn pid(store: &ParamStore, i: usize) -> ppn_tensor::ParamId {
    store.ids().nth(i).unwrap()
}

#[test]
fn add_with_broadcast() {
    let mut s = store_with(&[&[2, 3], &[3]], 1);
    let (a, b) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        let y = g.add(bind.node(a), bind.node(b));
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn sub_with_broadcast() {
    let mut s = store_with(&[&[2, 3], &[2, 1]], 2);
    let (a, b) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        let y = g.sub(bind.node(a), bind.node(b));
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn mul_with_broadcast() {
    let mut s = store_with(&[&[2, 3], &[3]], 3);
    let (a, b) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        let y = g.mul(bind.node(a), bind.node(b));
        g.sum(y)
    });
}

#[test]
fn neg_scale_addscalar() {
    let mut s = store_with(&[&[4]], 4);
    let a = pid(&s, 0);
    check(&mut s, |g, bind| {
        let n = g.neg(bind.node(a));
        let sc = g.scale(n, 2.5);
        let ad = g.add_scalar(sc, 1.0);
        let sq = g.square(ad);
        g.sum(sq)
    });
}

#[test]
fn matmul_grad() {
    let mut s = store_with(&[&[3, 4], &[4, 2]], 5);
    let (a, b) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        let y = g.matmul(bind.node(a), bind.node(b));
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn sigmoid_grad() {
    let mut s = store_with(&[&[5]], 6);
    let a = pid(&s, 0);
    check(&mut s, |g, bind| {
        let y = g.sigmoid(bind.node(a));
        g.sum(y)
    });
}

#[test]
fn tanh_grad() {
    let mut s = store_with(&[&[5]], 7);
    let a = pid(&s, 0);
    check(&mut s, |g, bind| {
        let y = g.tanh(bind.node(a));
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn relu_grad_away_from_kink() {
    let mut s = ParamStore::new();
    let a = s.add("a", Tensor::from_vec(&[4], vec![1.0, -1.0, 2.0, -0.5]));
    check(&mut s, |g, bind| {
        let y = g.relu(bind.node(a));
        g.sum(y)
    });
}

#[test]
fn log_grad() {
    let mut s = ParamStore::new();
    let a = s.add("a", Tensor::from_vec(&[3], vec![0.2, 1.0, -0.3]));
    check(&mut s, |g, bind| {
        let sq = g.square(bind.node(a));
        let e = g.add_scalar(sq, 0.5); // strictly positive → safe log
        let l = g.log(e);
        let sq = g.square(l);
        g.sum(sq)
    });
}

#[test]
fn abs_grad_away_from_kink() {
    let mut s = ParamStore::new();
    let a = s.add("a", Tensor::from_vec(&[4], vec![1.0, -2.0, 0.7, -0.1]));
    check(&mut s, |g, bind| {
        let y = g.abs(bind.node(a));
        g.sum(y)
    });
}

#[test]
fn softmax_grad() {
    let mut s = store_with(&[&[2, 4]], 8);
    let a = pid(&s, 0);
    // Weighted sum so the softmax gradient is non-trivial.
    let w = Tensor::from_vec(&[2, 4], vec![1., -1., 2., 0.5, -0.3, 1.2, 0., 2.]);
    check(&mut s, move |g, bind| {
        let y = g.softmax(bind.node(a));
        let wn = g.leaf(w.clone());
        let p = g.mul(y, wn);
        g.sum(p)
    });
}

#[test]
fn mean_variance_grad() {
    let mut s = store_with(&[&[6]], 9);
    let a = pid(&s, 0);
    check(&mut s, |g, bind| {
        let m = g.mean(bind.node(a));
        let v = g.variance(bind.node(a));
        g.add(m, v)
    });
}

#[test]
fn sum_axis_grad() {
    let mut s = store_with(&[&[2, 3, 4]], 10);
    let a = pid(&s, 0);
    check(&mut s, |g, bind| {
        let y = g.sum_axis(bind.node(a), 1);
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn concat_slice_grad() {
    let mut s = store_with(&[&[2, 2], &[2, 3]], 11);
    let (a, b) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        let c = g.concat(&[bind.node(a), bind.node(b)], 1);
        let sl = g.slice(c, 1, 1, 4);
        let sq = g.square(sl);
        g.sum(sq)
    });
}

#[test]
fn reshape_permute_grad() {
    let mut s = store_with(&[&[2, 3, 4]], 12);
    let a = pid(&s, 0);
    check(&mut s, |g, bind| {
        let p = g.permute(bind.node(a), &[2, 0, 1]);
        let r = g.reshape(p, &[4, 6]);
        let sq = g.square(r);
        g.sum(sq)
    });
}

#[test]
fn conv2d_dilated_causal_grad() {
    let mut s = store_with(&[&[1, 2, 3, 8], &[4, 2, 1, 3]], 13);
    let (x, w) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        // Causal over W: left pad = dilation*(k-1).
        let y = g.conv2d(bind.node(x), bind.node(w), (1, 2), (0, 0, 4, 0));
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn conv2d_same_over_assets_grad() {
    let mut s = store_with(&[&[1, 2, 5, 4], &[3, 2, 5, 1]], 14);
    let (x, w) = (pid(&s, 0), pid(&s, 1));
    check(&mut s, |g, bind| {
        let y = g.conv2d(bind.node(x), bind.node(w), (1, 1), (2, 2, 0, 0));
        let sq = g.square(y);
        g.sum(sq)
    });
}

#[test]
fn bias_dropout_relu_grad() {
    // The fused conv node: input, kernel and bias. Eval (no mask), p = 0
    // and training at p = 0.2; each evaluation reseeds the rng, so every
    // finite difference sees the same mask.
    for (p, training) in [(0.2, false), (0.0, true), (0.2, true)] {
        let mut s = store_with(&[&[2, 3, 2, 5], &[4, 3, 1, 2], &[4, 1, 1]], 17);
        let (x, w, b) = (pid(&s, 0), pid(&s, 1), pid(&s, 2));
        check(&mut s, |g, bind| {
            let mut rng = StdRng::seed_from_u64(18);
            let (xn, wn, bn) = (bind.node(x), bind.node(w), bind.node(b));
            let y =
                g.conv_bias_dropout_relu(xn, wn, (1, 2), (0, 0, 2, 0), bn, p, training, &mut rng);
            let sq = g.square(y);
            g.sum(sq)
        });
    }
}

#[test]
fn lstm_step_grad() {
    // Two chained steps, so the gradient also flows through `h` and `c`
    // into the first step and its input `x` (the cascade path).
    let mut s = store_with(&[&[3, 2], &[2, 8], &[3, 2], &[2, 8], &[8], &[3, 2]], 19);
    let ids: Vec<_> = (0..6).map(|i| pid(&s, i)).collect();
    check(&mut s, |g, bind| {
        let [x, w, h0, u, b, c0] = [0, 1, 2, 3, 4, 5].map(|i| bind.node(ids[i]));
        let (h, c) = g.lstm_step(x, w, h0, u, b, c0);
        let (h2, c2) = g.lstm_step(x, w, h, u, b, c);
        let sh = g.square(h2);
        let sc = g.square(c2);
        let t = g.add(sh, sc);
        g.sum(t)
    });
}

#[test]
fn lstm_end_to_end_grad() {
    use ppn_tensor::layers::Lstm;
    let mut rng = StdRng::seed_from_u64(15);
    let mut s = ParamStore::new();
    let lstm = Lstm::new(&mut s, &mut rng, "lstm", 3, 4);
    let xs: Vec<Tensor> = (0..4).map(|_| Tensor::randn(&mut rng, &[2, 3], 0.5)).collect();
    let report = gradcheck(
        &mut s,
        move |g, bind| {
            let ids: Vec<NodeId> = xs.iter().map(|t| g.leaf(t.clone())).collect();
            let h = lstm.forward(g, bind, &ids);
            let sq = g.square(h);
            g.sum(sq)
        },
        EPS,
        3, // subsample: the LSTM has a few hundred scalars
    );
    assert!(report.max_rel_err < 1e-5, "{report:?}");
}

#[test]
fn dense_chain_grad() {
    use ppn_tensor::layers::Dense;
    let mut rng = StdRng::seed_from_u64(16);
    let mut s = ParamStore::new();
    let d1 = Dense::new(&mut s, &mut rng, "d1", 3, 5);
    let d2 = Dense::new(&mut s, &mut rng, "d2", 5, 1);
    let x = Tensor::randn(&mut rng, &[4, 3], 1.0);
    check(&mut s, move |g, bind| {
        let xn = g.leaf(x.clone());
        let h = d1.forward(g, bind, xn);
        let h = g.tanh(h);
        let y = d2.forward(g, bind, h);
        let sq = g.square(y);
        g.sum(sq)
    });
}
