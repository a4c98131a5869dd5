//! A warmed-up paper-sized PPN training step takes every tensor buffer from
//! the storage arena: no arena miss, no byte from the system allocator.
//!
//! The arena parks at most 64 MiB per thread, so this holds only while one
//! step's peak of live buffers stays under that cap. The storage tests use
//! small graphs and never reach it; this test runs the real network. The
//! tape's size, which sets that peak, is pinned here too.

use ppn_core::batch::WindowBatch;
use ppn_core::prelude::*;
use ppn_core::reward::cost_sensitive_reward;
use ppn_market::{Dataset, Preset};
use ppn_tensor::graph::TapeStats;
use ppn_tensor::{storage, Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn warmed_up_ppn_step_allocates_nothing() {
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 4, batch: 16, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), cfg);
    tr.step();
    tr.step();
    let before = storage::arena_stats();
    tr.step();
    tr.step();
    let after = storage::arena_stats();
    assert_eq!(after.arena_misses - before.arena_misses, 0, "arena misses");
    assert_eq!(after.alloc_bytes - before.alloc_bytes, 0, "allocator bytes");
    assert!(after.arena_hits > before.arena_hits, "the step must use the arena");
}

#[test]
fn paper_ppn_step_tape_keeps_only_what_backward_reads() {
    // One training step's tape on Crypto-A at batch 16, built as
    // `Trainer::step` builds it: bind, forward, reward. Each conv layer is
    // one node holding only its output, and each LSTM step keeps its gates
    // but not its two matmul products.
    let ds = Dataset::load(Preset::CryptoA);
    let mut rng = StdRng::seed_from_u64(0);
    let net = PolicyNet::new(Variant::Ppn, NetConfig::paper(ds.assets()), &mut rng);
    let (batch, k, m1) = (16, net.cfg.window, ds.assets() + 1);
    let t0 = ds.split - batch;
    let windows: Vec<Vec<f64>> = (t0..t0 + batch).map(|t| ds.window(t, k)).collect();
    let prevs = vec![vec![1.0 / m1 as f64; m1]; batch];
    let input = WindowBatch::new(&windows, &prevs, ds.assets(), k, net.cfg.features);
    let rels = Tensor::from_vec(
        &[batch, m1],
        (t0..t0 + batch).flat_map(|t| ds.relative(t).to_vec()).collect(),
    );
    let mut g = Graph::new();
    let bind = net.store.bind(&mut g);
    let actions = net.forward(&mut g, &bind, &input, true, &mut rng);
    let reward = RewardConfig::default();
    let held = Tensor::from_vec(&[batch, m1], prevs.concat());
    let nodes = cost_sensitive_reward(
        &mut g,
        actions,
        &rels,
        &held,
        reward.lambda,
        reward.gamma,
        reward.psi,
    );
    let stats = g.tape_stats();
    assert_eq!((stats.nodes, stats.value_elems), (192, 1_343_699), "{stats:?}");
    g.backward(nodes.loss);
    let after = g.tape_stats();
    assert_eq!(
        after,
        TapeStats { grad_elems: net.store.num_scalars(), ..stats },
        "only leaves keep a gradient"
    );
}

#[test]
fn interleaved_trainers_settle_after_one_step_each() {
    // Two trainers taking turns on one thread share its arena: once each
    // has taken one step, neither takes a buffer the other recycles. (A
    // buffer kept for good on a first step, such as Adam's moments if they
    // came from the arena, would leave the other trainer short once.)
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 4, batch: 16, ..TrainConfig::default() };
    let mut a = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), cfg.clone());
    let mut b =
        Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), TrainConfig { seed: 1, ..cfg });
    a.step();
    b.step();
    let before = storage::arena_stats();
    a.step();
    b.step();
    let after = storage::arena_stats();
    assert_eq!(after.arena_misses - before.arena_misses, 0, "arena misses");
}
