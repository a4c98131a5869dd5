//! Property tests for the optimisers.

use ppn_tensor::{Adam, Graph, Optimizer, ParamStore, Tensor};
use proptest::prelude::*;

fn quad_step(store: &mut ParamStore, opt: &mut dyn Optimizer, target: f64) -> f64 {
    let ids: Vec<_> = store.ids().collect();
    let w = ids[0];
    let mut g = Graph::new();
    let bind = store.bind(&mut g);
    let c = g.add_scalar(bind.node(w), -target);
    let sq = g.square(c);
    let loss = g.sum(sq);
    g.backward(loss);
    let val = g.value(loss).item();
    let grads = bind.grads(&g);
    opt.step(store, &grads);
    val
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adam_first_step_size_is_lr_bounded(
        start in -10.0..10.0f64,
        lr in 0.001..0.5f64,
    ) {
        prop_assume!(start.abs() > 1e-3);
        // Adam's bias-corrected first update has magnitude ≈ lr regardless
        // of the raw gradient scale.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(start));
        let mut opt = Adam::new(lr);
        quad_step(&mut store, &mut opt, 0.0);
        let moved = (store.value(w).item() - start).abs();
        prop_assert!(moved <= lr * 1.001, "moved {moved} > lr {lr}");
        prop_assert!(moved >= lr * 0.5, "moved {moved} ≪ lr {lr}");
    }

    #[test]
    fn adam_is_gradient_scale_invariant_on_first_step(
        scale in 0.1..100.0f64,
    ) {
        // Two losses differing by a constant factor produce the same first
        // Adam update.
        let run = |s: f64| {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::scalar(2.0));
            let mut opt = Adam::new(0.1);
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let sq = g.square(bind.node(w));
            let loss = g.scale(sq, s);
            g.backward(loss);
            opt.step(&mut store, &bind.grads(&g));
            store.value(w).item()
        };
        prop_assert!((run(1.0) - run(scale)).abs() < 1e-9);
    }

    #[test]
    fn soft_update_converges_geometrically(tau in 0.01..0.5f64) {
        let mut tgt = ParamStore::new();
        tgt.add("w", Tensor::scalar(0.0));
        let mut src = ParamStore::new();
        src.add("w", Tensor::scalar(1.0));
        for _ in 0..200 {
            tgt.soft_update_from(&src, tau);
        }
        let ids: Vec<_> = tgt.ids().collect();
        let v = tgt.value(ids[0]).item();
        let expect = 1.0 - (1.0 - tau).powi(200);
        prop_assert!((v - expect).abs() < 1e-9, "{v} vs {expect}");
    }
}
