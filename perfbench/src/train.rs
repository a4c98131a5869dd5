//! The `train` workload and the paper-net layer probes.
//!
//! One repeat = a fresh `Trainer` on the Crypto-A preset (paper
//! `NetConfig`, batch 16, seeded by `--seed`) running `STEPS` steps, then a
//! backtest of the trained net over the test split at psi = 0.25%. Repeats
//! continue until the time budget is spent; each must reproduce the first
//! one's rewards and APV bit for bit.

use crate::obs::Reading;
use crate::report::Outcome;
use crate::stats::{self, ms_since};
use crate::Args;
use ppn_core::batch::WindowBatch;
use ppn_core::prelude::*;
use ppn_core::reward::cost_sensitive_reward;
use ppn_market::{
    drifted_weights, run_backtest, test_range, Dataset, DecisionContext, Policy, Preset, Weights,
};
use ppn_tensor::{clip_global_norm, Adam, Graph, Optimizer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Gradient steps per repeat: fixed, so `apv` is a pure function of the
/// seed. A repeat (steps plus backtest) takes 3 to 8 s on a shared 2-core
/// host, whose speed drifted by about 2x within a day.
const STEPS: usize = 30;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The paper's cost rate.
pub const PSI: f64 = 0.0025;

/// The paper configuration the workload trains with.
pub fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig { steps: STEPS, batch: 16, seed, ..TrainConfig::default() }
}

/// Wraps a policy and records when each decision started and how long the
/// wrapped `decide_batch` took, so a backtest splits into policy time and
/// the backtest's own accounting.
pub struct TimedPolicy<P> {
    pub inner: P,
    pub starts: Vec<Instant>,
    pub decide_ms: Vec<f64>,
}

impl<P: Policy> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        TimedPolicy { inner, starts: Vec::new(), decide_ms: Vec::new() }
    }

    /// Wall time of each backtest period (from one decision's start to the
    /// next, the last one ending at `end`), milliseconds.
    pub fn period_ms(&self, end: Instant) -> Vec<f64> {
        let mut ends = self.starts[1..].to_vec();
        ends.push(end);
        self.starts
            .iter()
            .zip(ends)
            .map(|(s, e)| e.saturating_duration_since(*s).as_secs_f64() * 1e3)
            .collect()
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide_batch(&mut self, ctxs: &[DecisionContext<'_>]) -> Vec<Weights> {
        let t = Instant::now();
        self.starts.push(t);
        let out = self.inner.decide_batch(ctxs);
        self.decide_ms.push(ms_since(t));
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Counts backtest actions that are not finite or not on the simplex.
pub fn off_simplex(actions: impl Iterator<Item = impl AsRef<[f64]>>) -> (u64, u64) {
    let (mut n, mut bad) = (0, 0);
    for a in actions {
        let a = a.as_ref();
        n += 1;
        let sum: f64 = a.iter().sum();
        if !a.iter().all(|w| w.is_finite() && *w >= 0.0) || (sum - 1.0).abs() > 1e-9 {
            bad += 1;
        }
    }
    (n, bad)
}

/// Kernel and arena counters summed over a set of train steps.
#[derive(Default)]
struct KernelTally {
    matmul: (u64, f64),
    conv: (u64, f64),
    alloc_bytes: u64,
    hits: u64,
    misses: u64,
}

impl KernelTally {
    /// Runs `f` and adds the kernel and arena activity it caused; `None`
    /// when a kernel histogram is not registered at all.
    fn around<T>(&mut self, f: impl FnOnce() -> T) -> Option<T> {
        let (r0, a0) = (Reading::now(), ppn_tensor::storage::arena_stats());
        let out = f();
        let (r1, a1) = (Reading::now(), ppn_tensor::storage::arena_stats());
        let mm = r1.hist_delta(&r0, "tensor.matmul_ms")?;
        let cv = r1.hist_delta(&r0, "tensor.conv_ms")?;
        self.matmul = (self.matmul.0 + mm.0, self.matmul.1 + mm.1);
        self.conv = (self.conv.0 + cv.0, self.conv.1 + cv.1);
        self.alloc_bytes += a1.alloc_bytes - a0.alloc_bytes;
        self.hits += a1.arena_hits - a0.arena_hits;
        self.misses += a1.arena_misses - a0.arena_misses;
        Some(out)
    }

    fn report(&self, steps: usize, out: &mut Outcome) {
        let n = steps as f64;
        out.set("tensor.matmul_calls", self.matmul.0 as f64 / n);
        out.set("tensor.matmul_ms", self.matmul.1 / n);
        out.set("tensor.conv_calls", self.conv.0 as f64 / n);
        out.set("tensor.conv_ms", self.conv.1 / n);
        out.set("tensor.alloc_bytes_per_step", self.alloc_bytes as f64 / n);
        out.set("tensor.arena_hit_ratio", self.hits as f64 / (self.hits + self.misses) as f64);
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let started = Instant::now();
    let cfg = train_cfg(args.seed);
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let d = Dataset::load(Preset::CryptoA);
        load_ms.push(ms_since(t));
        drop(std::hint::black_box(Trainer::new(
            &d,
            Variant::Ppn,
            RewardConfig::default(),
            cfg.clone(),
        )));
        setup_s.push(t.elapsed().as_secs_f64());
        ds = Some(d);
    }
    let ds = ds.expect("at least one set-up");
    out.set("setup_s", stats::median(&setup_s));
    out.set("market.dataset_load_ms", stats::median(&load_ms));

    let mut step_ms = Vec::new();
    let mut period_ms = Vec::new();
    let mut self_ms = Vec::new();
    let (mut sampled_ms, mut unsampled_ms) = (Vec::new(), Vec::new());
    let mut reference: Option<(Vec<u64>, u64)> = None;
    let mut apv = f64::NAN;
    let mut repeats = 0;
    let mut repeat_s = 0.0;
    // At least two repeats (the bit-identity check needs a pair); more
    // while another one fits in the budget.
    while repeats < 2 || started.elapsed().as_secs_f64() + repeat_s <= args.seconds {
        let repeat_start = Instant::now();
        // In a traced run, alternate repeats with span sampling on and off:
        // the pair gives the tracing overhead on the train step.
        let sampled = args.trace && repeats % 2 == 0;
        ppn_obs::trace::set_sample_rate(u64::from(sampled));
        let mut trainer = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), cfg.clone());
        let mut rewards = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let t = Instant::now();
            let s = trainer.step();
            let ms = ms_since(t);
            step_ms.push(ms);
            if sampled { &mut sampled_ms } else { &mut unsampled_ms }.push(ms);
            out.count(1, u64::from(!(s.reward.is_finite() && s.grad_norm.is_finite())));
            rewards.push(s.reward.to_bits());
        }
        ppn_obs::trace::set_sample_rate(0);

        let mut policy = TimedPolicy::new(NetPolicy::new(trainer.into_net()));
        let t = Instant::now();
        let result = run_backtest(&ds, &mut policy, PSI, test_range(&ds));
        let end = Instant::now();
        let periods = result.records.len() as f64;
        period_ms.extend(policy.period_ms(end));
        self_ms.push(
            (end.duration_since(t).as_secs_f64() * 1e3 - policy.decide_ms.iter().sum::<f64>())
                / periods,
        );
        let (n, bad) = off_simplex(result.records.iter().map(|r| &r.action));
        out.count(n, bad);
        if !(result.metrics.apv.is_finite() && result.metrics.apv > 0.0) {
            out.fail(format!("apv {} is not a positive number", result.metrics.apv));
        }
        apv = result.metrics.apv;
        match &reference {
            None => reference = Some((rewards, apv.to_bits())),
            Some((r0, a0)) => {
                if *r0 != rewards {
                    out.fail(format!("repeat {repeats}: per-step rewards differ from repeat 0"));
                }
                if *a0 != apv.to_bits() {
                    out.fail(format!("repeat {repeats}: apv {apv} differs from repeat 0"));
                }
            }
        }
        repeats += 1;
        repeat_s = repeat_start.elapsed().as_secs_f64();
    }
    eprintln!("perfbench: train: {repeats} repeats of {STEPS} steps, apv {apv}");

    out.set("throughput_per_s", 1e3 / stats::median(&step_ms));
    out.set("decision_p50_ms", stats::quantile(&period_ms, 0.50));
    out.set("tail.decision_p99_ms", stats::quantile(&period_ms, 0.99));
    out.set("apv", apv);
    out.set("market.backtest_self_ms", stats::median(&self_ms));
    if args.trace {
        out.set("trace.overhead_ratio", stats::median(&sampled_ms) / stats::median(&unsampled_ms));
    }
}

/// Times real `Trainer::step`s on the paper net, each followed by a replay
/// of the public calls the step makes, in the same order, with each piece
/// timed. Alternating the two keeps them under the same host conditions;
/// `core.step_unaccounted_ms` is the real step's median minus the pieces'
/// medians, so it shows when the replay drifts from the step it stands for.
/// Kernel and arena figures are per real step.
pub fn step_probe(ds: &Dataset, seed: u64, steps: usize, out: &mut Outcome) {
    let cfg = train_cfg(seed);
    let reward = RewardConfig::default();
    let mut trainer = Trainer::new(ds, Variant::Ppn, reward, cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = PolicyNet::new(Variant::Ppn, NetConfig::paper(ds.assets()), &mut rng);
    let mut opt = Adam::new(cfg.lr);
    let (m1, k, tn) = (ds.assets() + 1, net.cfg.window, cfg.batch);
    let mut pvm = vec![vec![1.0 / m1 as f64; m1]; ds.split];
    let mut g = Graph::new();
    let mut tally = KernelTally::default();
    let mut step_ms = Vec::new();
    let mut piece: [Vec<f64>; 5] = Default::default();
    // The first round fills the arenas and is not recorded.
    for round in 0..=steps {
        let t = Instant::now();
        let real = tally.around(|| trainer.step());
        if round > 0 {
            step_ms.push(ms_since(t));
        } else {
            tally = KernelTally::default();
        }
        if real.is_none() {
            return;
        }

        let t0 = Instant::now();
        let start = rng.gen_range(k..ds.split - tn);
        let mut windows = Vec::with_capacity(tn);
        let mut prevs = Vec::with_capacity(tn);
        let mut drifted = Vec::with_capacity(tn * m1);
        let mut rels = Vec::with_capacity(tn * m1);
        for b in 0..tn {
            let t = start + b;
            windows.push(ds.window(t, k));
            let prev = pvm[t - 1].clone();
            drifted.extend_from_slice(&drifted_weights(&prev, ds.relative(t - 1)));
            rels.extend_from_slice(ds.relative(t));
            prevs.push(prev);
        }
        let batch = WindowBatch::new(&windows, &prevs, ds.assets(), k, net.cfg.features);
        let rel_t = Tensor::from_vec(&[tn, m1], rels);
        let hat_t = Tensor::from_vec(&[tn, m1], drifted);
        let t1 = Instant::now();
        g.reset();
        let bind = net.store.bind(&mut g);
        let t2 = Instant::now();
        let actions = net.forward(&mut g, &bind, &batch, true, &mut rng);
        let nodes = cost_sensitive_reward(
            &mut g,
            actions,
            &rel_t,
            &hat_t,
            reward.lambda,
            reward.gamma,
            reward.psi,
        );
        let t3 = Instant::now();
        g.backward(nodes.loss);
        let mut grads = bind.grads(&g);
        let t4 = Instant::now();
        clip_global_norm(&mut grads, cfg.clip);
        opt.step(&mut net.store, &grads);
        let t5 = Instant::now();
        let a = g.value(actions).data();
        for b in 0..tn {
            pvm[start + b] = a[b * m1..(b + 1) * m1].to_vec();
        }
        if round > 0 {
            for (i, (from, to)) in
                [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)].iter().enumerate()
            {
                piece[i].push(to.duration_since(*from).as_secs_f64() * 1e3);
            }
        }
    }
    tally.report(steps, out);
    let step = stats::median(&step_ms);
    out.set("core.step_ms", step);
    let names = [
        "core.synth_ms",
        "tensor.bind_ms",
        "core.forward_ms",
        "tensor.backward_ms",
        "tensor.optim_ms",
    ];
    let mut accounted = 0.0;
    for (name, samples) in names.iter().zip(&piece) {
        let m = stats::median(samples);
        accounted += m;
        out.set(name, m);
    }
    out.set("core.step_unaccounted_ms", step - accounted);
}
