//! The `decide` and `live` workloads: an open-loop generator against a
//! running `ppn-serve` server holding the small PPN-LSTM.

use crate::loadgen::{self, Plan, Reply, Run};
use crate::obs::{or_nan, Reading};
use crate::report::Outcome;
use crate::stats::{self, quantile};
use crate::train::{off_simplex, PSI};
use crate::Args;
use ppn_core::prelude::*;
use ppn_market::{
    run_backtest, stitched_dataset, Dataset, DecisionContext, MarketConfig, Policy, Preset, Weights,
};
use ppn_serve::{DecideRequest, DecideResponse, ModelRegistry, ServeConfig, Server};
use ppn_stream::{StreamConfig, StreamService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Registry name the workloads serve.
pub const MODEL: &str = "bench";
/// Assets of the small served net.
const ASSETS: usize = 4;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The `decide` nominal rate, requests/s: well inside capacity on a
/// 2-core host (the closed-loop saturation run completes about ten times
/// as many), so latency describes a stable server, not a queue.
pub const NOMINAL_RPS: f64 = 2000.0;
/// Latency limit of the ladder: a rung passes only when its median
/// latency stays at or below this (and no request is missed).
const P50_LIMIT_MS: f64 = 5.0;
/// Wall-clock budget of the ladder climb, seconds.
const LADDER_BUDGET_S: f64 = 15.0;
/// Rungs the ladder climb skips per stride (16 rungs of 5% is about 2.2x).
const LADDER_STRIDE: u32 = 16;
/// Requests per window of the windowed p99.
const P99_WINDOW: usize = 1000;
/// Requests in flight per connection in the saturation run.
const SATURATION_WINDOW: usize = 32;
/// The served net's initialisation seed: fixed, so `apv` of the served
/// decisions depends on the code alone; `--seed` orders the requests.
const SERVED_NET_SEED: u64 = 42;
/// Seconds each ladder rung is offered for.
const RUNG_SECS: f64 = 0.6;
/// The `live` generator's fixed low rate, requests/s.
const LIVE_RPS: f64 = 500.0;
/// Live feed bars per second of the run budget: sized so the updater,
/// running at full speed next to the generator, takes about the budget.
const LIVE_BARS_PER_BUDGET_S: f64 = 2500.0;
/// Bars between candidate publications in `live`.
const PUBLISH_EVERY: usize = 50;
/// Bars at the end of the live feed the final version is backtested on.
const LIVE_APV_BARS: usize = 1000;
/// Width of the alternating traced/untraced windows in a traced run.
const TRACE_WINDOW_S: f64 = 0.25;

/// The small served network configuration (as in `serve_probe`).
pub fn small_cfg() -> NetConfig {
    NetConfig { window: 8, lstm_hidden: 4, tccb_channels: [3, 4, 4], ..NetConfig::paper(ASSETS) }
}

/// A fresh small PPN-LSTM seeded by `seed`.
pub fn small_net(seed: u64) -> PolicyNet {
    PolicyNet::new(Variant::PpnLstm, small_cfg(), &mut StdRng::seed_from_u64(seed))
}

/// A two-regime 4-asset market (up-drift then down-drift, spliced
/// price-continuously) with `live_bars` bars after the `split`. The market
/// is the same for every seed; the seed moves the networks.
pub fn regime_market(split: usize, live_bars: usize) -> Dataset {
    let first = (split + live_bars) / 2 + 1;
    let up = MarketConfig {
        assets: ASSETS,
        periods: first,
        seed: 11,
        drift: 2e-3,
        momentum: 0.3,
        ..MarketConfig::default()
    };
    let down = MarketConfig {
        seed: 22,
        drift: -2e-3,
        periods: split + live_bars + 1 - first,
        ..up.clone()
    };
    stitched_dataset(Preset::CryptoA, &[up, down], split)
}

/// The request corpus: one `/decide` per period `t` in `periods`, with a
/// uniform previous portfolio, in an order shuffled by `seed`.
pub struct Corpus {
    pub ts: Vec<usize>,
    pub windows: Vec<Vec<f64>>,
    pub prev: Vec<f64>,
    pub http: Vec<Vec<u8>>,
}

impl Corpus {
    pub fn new(ds: &Dataset, periods: std::ops::Range<usize>, seed: u64) -> Corpus {
        let k = small_cfg().window;
        let prev = vec![1.0 / (ASSETS + 1) as f64; ASSETS + 1];
        let mut ts: Vec<usize> = periods.collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..ts.len()).rev() {
            ts.swap(i, rng.gen_range(0..=i));
        }
        let windows: Vec<Vec<f64>> = ts.iter().map(|&t| ds.window(t, k)).collect();
        let http = windows
            .iter()
            .map(|w| {
                let req = DecideRequest {
                    model: MODEL.to_string(),
                    window: w.clone(),
                    prev_action: prev.clone(),
                };
                let body = serde_json::to_string(&req).expect("request serializes");
                format!(
                    "POST /decide HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        Corpus { ts, windows, prev, http }
    }
}

/// An expected answer: the fingerprint of the weights array and the weights.
type Expected = (u64, Vec<f64>);

/// Checks answers against `PolicyNet::act` of the version each names.
/// A 200 is correct when its weights are bit-identical to `act` of the
/// version in its `model_version`, looked up with
/// `ModelRegistry::resolve_version`, and that output is finite and on the
/// simplex.
struct Verifier<'a> {
    registry: &'a ModelRegistry,
    corpus: &'a Corpus,
    /// Expected `(weights fingerprint, weights)` per `(version, index)`;
    /// `None` when the version is not retained or its output is invalid.
    expected: HashMap<(u64, u32), Option<Expected>>,
    /// Correctly served weights per corpus index (first answer).
    served: HashMap<u32, Vec<f64>>,
}

impl<'a> Verifier<'a> {
    fn new(registry: &'a ModelRegistry, corpus: &'a Corpus) -> Self {
        Verifier { registry, corpus, expected: HashMap::new(), served: HashMap::new() }
    }

    fn expected(&mut self, version: u64, idx: u32) -> Option<&Expected> {
        let (registry, corpus) = (self.registry, self.corpus);
        self.expected
            .entry((version, idx))
            .or_insert_with(|| {
                let pinned = registry.resolve_version(MODEL, version)?;
                let weights = pinned.net().act(&corpus.windows[idx as usize], &corpus.prev);
                if off_simplex(std::iter::once(&weights)).1 > 0 {
                    return None;
                }
                let resp = DecideResponse {
                    model: MODEL.to_string(),
                    model_version: version,
                    weights,
                    batch_size: 1,
                };
                let body = serde_json::to_string(&resp).ok()?;
                Some((loadgen::fingerprint(body.as_bytes())?.weights_fp, resp.weights))
            })
            .as_ref()
    }

    fn correct(&mut self, r: &Reply) -> bool {
        let Some(a) = r.answer.filter(|_| r.status == 200) else { return false };
        match self.expected(a.version, r.idx) {
            Some((fp, w)) if *fp == a.weights_fp => {
                let w = w.clone();
                self.served.entry(r.idx).or_insert(w);
                true
            }
            _ => false,
        }
    }

    /// Verifies a run offered within capacity: every request must have
    /// come back as a correct 200; refused, unanswered and wrong ones count
    /// as failed.
    fn check(&mut self, run: &Run, out: &mut Outcome) {
        if let Some(e) = &run.error {
            out.fail(format!("load generator transport error: {e}"));
        }
        let wrong = run.replies.iter().filter(|r| !self.correct(r)).count() as u64;
        out.count(run.sent, wrong + run.sent - run.replies.len() as u64);
    }
}

/// Replays served decisions through the backtester, so their APV comes
/// from the same accounting as every other policy's.
struct Replay<'a> {
    by_t: HashMap<usize, &'a Vec<f64>>,
}

impl Policy for Replay<'_> {
    fn name(&self) -> String {
        "served".to_string()
    }

    fn decide_batch(&mut self, ctxs: &[DecisionContext<'_>]) -> Vec<Weights> {
        ctxs.iter().map(|c| self.by_t[&c.t].clone()).collect()
    }
}

/// Traced runs alternate request sampling on and off in fixed windows of
/// schedule time; this says which window a due time fell in.
fn sampled_window(due_s: f64) -> bool {
    ((due_s / TRACE_WINDOW_S) as u64).is_multiple_of(2)
}

fn toggle_sampling(due_s: f64) {
    ppn_obs::trace::set_sample_rate(u64::from(sampled_window(due_s)));
}

fn no_toggle(_: f64) {}

fn never() -> bool {
    false
}

/// Latency and generator figures of a measured run.
fn record_latency(run: &Run, traced: bool, out: &mut Outcome) {
    let lat = run.latencies_with_misses();
    out.set("decision_p50_ms", quantile(&lat, 0.50));
    // Stalls on a shared host arrive in bursts that land in one window or
    // another; the median over consecutive 1000-request windows of each
    // window's p99 (10 samples beyond it) is the typical tail, which one
    // burst cannot set the way it sets a whole-run p99.
    let window_p99: Vec<f64> = lat
        .chunks(P99_WINDOW)
        .filter(|c| c.len() == P99_WINDOW)
        .map(|c| quantile(c, 0.99))
        .collect();
    out.set("tail.decision_p99_ms", stats::median(&window_p99));
    out.set("loadgen.lag_p99_ms", quantile(&run.lag_ms, 0.99));
    if traced {
        let part = |on: bool| -> Vec<f64> {
            run.replies
                .iter()
                .filter(|r| r.status == 200 && sampled_window(r.due_s) == on)
                .map(|r| r.latency_ms)
                .collect()
        };
        out.set("trace.overhead_ratio", stats::median(&part(true)) / stats::median(&part(false)));
    }
}

/// Serve-side figures from the server's own instruments over a span.
pub fn record_serve(before: &Reading, sent: u64, out: &mut Outcome) {
    let now = Reading::now();
    let batch = now.hist_delta(before, "serve.batch_size");
    out.set("serve.batch_size_mean", or_nan(batch.map(|(c, s)| s / c as f64)));
    let shed = now.counter_delta(before, "serve.shed");
    out.set("serve.shed_ratio", or_nan(shed.map(|s| s as f64 / sent.max(1) as f64)));
    out.set("serve.queue_depth_peak", or_nan(now.gauge("serve.queue_depth_peak")));
    let swaps = now.counter_delta(before, "serve.model_swaps");
    out.set("serve.model_swaps", or_nan(swaps.map(|s| s as f64)));
}

/// The served decisions' APV over the corpus periods, or `NaN` when some
/// period never got a correct answer.
fn served_apv(ds: &Dataset, corpus: &Corpus, served: &HashMap<u32, Vec<f64>>) -> f64 {
    let mut by_t = HashMap::new();
    for (i, &t) in corpus.ts.iter().enumerate() {
        match served.get(&(i as u32)) {
            Some(w) => by_t.insert(t, w),
            None => return f64::NAN,
        };
    }
    let lo = corpus.ts.iter().min().copied().unwrap_or(0);
    let range = lo..lo + corpus.ts.len();
    run_backtest(ds, &mut Replay { by_t }, PSI, range).metrics.apv
}

/// Starts a server holding `net` as version 1 of [`MODEL`].
fn serve(net: PolicyNet, retention: usize) -> (Arc<ModelRegistry>, Server) {
    let registry = Arc::new(ModelRegistry::with_retention(retention));
    registry.publish(MODEL, net);
    let server =
        Server::start(Arc::clone(&registry), ServeConfig::default()).expect("server starts");
    (registry, server)
}

pub fn decide(args: &Args, out: &mut Outcome) {
    // Market: 1000 request periods after a 200-bar head.
    let (split, periods) = (200, 1000);
    let (mut setup_s, mut load_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ds = regime_market(split, periods + 1);
        load_ms.push(stats::ms_since(t));
        let corpus = Corpus::new(&ds, split..split + periods, args.seed);
        let (registry, server) = serve(small_net(SERVED_NET_SEED), 8);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, _, _, old)) = last.replace((ds, corpus, registry, server)) {
            Server::shutdown(old);
        }
    }
    out.set("setup_s", stats::median(&setup_s));
    out.set("market.dataset_load_ms", stats::median(&load_ms));
    let (ds, corpus, registry, server) = last.expect("at least one set-up");
    let addr = server.addr();
    let mut verify = Verifier::new(&registry, &corpus);
    let plan = |rate: f64, secs: f64, on_send: &'static (dyn Fn(f64) + Sync)| {
        let duration = Duration::from_secs_f64(secs);
        loadgen::open_loop(
            addr,
            &Plan { corpus: &corpus.http, rate, duration, stop: &never, on_send },
        )
    };

    // Warm-up, then the nominal-rate measurement.
    let warm = plan(NOMINAL_RPS, 0.5, &no_toggle);
    verify.check(&warm, out);
    let before = Reading::now();
    let phase_secs = (0.4 * args.seconds).max(2.0);
    let nominal =
        plan(NOMINAL_RPS, phase_secs, if args.trace { &toggle_sampling } else { &no_toggle });
    ppn_obs::trace::set_sample_rate(0);
    verify.check(&nominal, out);
    record_latency(&nominal, args.trace, out);
    record_serve(&before, nominal.sent, out);
    out.set("apv", served_apv(&ds, &corpus, &verify.served));

    // Capacity: completions per second with the batcher kept full, each
    // response checked as it arrives against version 1's answers.
    let table: Vec<Option<u64>> =
        (0..corpus.http.len() as u32).map(|i| verify.expected(1, i).map(|e| e.0)).collect();
    let check = |r: &Reply| {
        r.status == 200
            && r.answer
                .is_some_and(|a| a.version == 1 && Some(a.weights_fp) == table[r.idx as usize])
    };
    let duration = Duration::from_secs_f64(phase_secs);
    let sat = loadgen::closed_loop(addr, &corpus.http, SATURATION_WINDOW, duration, &check);
    if let Some(e) = &sat.error {
        out.fail(format!("saturation run transport error: {e}"));
    }
    out.count(sat.ok + sat.failed, sat.failed);
    // Median over short windows, so a stall of the shared host during one
    // window does not set the figure.
    let rates: Vec<f64> =
        sat.per_window.iter().map(|&n| n as f64 / loadgen::RATE_WINDOW_S).collect();
    out.set("throughput_per_s", stats::median(&rates));
    server.shutdown();
}

/// The highest fixed ladder rung the server sustains open-loop against
/// `addr`, in requests per second: every request answered 200, median
/// latency within the limit and no growing backlog. The climb goes up
/// `LADDER_STRIDE` rungs at a time until a stride fails, then bisects
/// between the best pass and the failed stride, offering each rung up to
/// twice (unless it missed a request) so one stall on a shared host does
/// not fail it; it stops early, keeping the best pass, after
/// `LADDER_BUDGET_S`. The limit is on the median, not the p99: a low rung
/// offers a few hundred requests, so its p99 is one of the slowest two or
/// three, and a single scheduler stall of a shared host fails even the
/// lowest rung (the tail is `tail.decision_p99_ms`). Rungs are offered over
/// one connection, so this is one connection's capacity; the closed-loop
/// `throughput_per_s` uses two.
pub fn ladder_max_rps(addr: std::net::SocketAddr, corpus: &[Vec<u8>]) -> f64 {
    let started = Instant::now();
    let in_budget = || started.elapsed().as_secs_f64() < LADDER_BUDGET_S;
    let passes = |k: u32| -> bool {
        let rate = loadgen::rung_rate(k);
        let duration = Duration::from_secs_f64(RUNG_SECS);
        for _ in 0..2 {
            if !in_budget() {
                return false;
            }
            let run = loadgen::open_loop(
                addr,
                &Plan { corpus, rate, duration, stop: &never, on_send: &no_toggle },
            );
            let lat = run.latencies_with_misses();
            // A missed request means overload, which a second offer
            // would not cure.
            if run.error.is_some() || lat.iter().any(|l| !l.is_finite()) {
                return false;
            }
            if quantile(&lat, 0.5) <= P50_LIMIT_MS
                && run.backlog_growth() <= (0.002 * rate).max(8.0)
            {
                return true;
            }
        }
        false
    };
    let mut best = None;
    let mut k = 0;
    while in_budget() && passes(k) {
        best = Some(k);
        k += LADDER_STRIDE;
    }
    let Some(mut lo) = best else { return f64::NAN };
    let mut hi = lo + LADDER_STRIDE;
    while hi - lo > 1 && in_budget() {
        let mid = (lo + hi) / 2;
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    loadgen::rung_rate(lo)
}

pub fn live(args: &Args, out: &mut Outcome) {
    let split = 600;
    let bars = (LIVE_BARS_PER_BUDGET_S * args.seconds).round() as usize;
    let retention = bars / PUBLISH_EVERY + 16;
    let (mut setup_s, mut load_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ds = Arc::new(regime_market(split, bars));
        load_ms.push(stats::ms_since(t));
        let corpus = Corpus::new(&ds, split..split + 1000, args.seed);
        let (registry, server) = serve(small_net(SERVED_NET_SEED), retention);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, _, _, old)) = last.replace((ds, corpus, registry, server)) {
            Server::shutdown(old);
        }
    }
    out.set("setup_s", stats::median(&setup_s));
    out.set("market.dataset_load_ms", stats::median(&load_ms));
    let (ds, corpus, registry, server) = last.expect("at least one set-up");
    let addr = server.addr();

    let before = Reading::now();
    let pretrain =
        TrainConfig { steps: 20, batch: 8, seed: SERVED_NET_SEED, ..TrainConfig::default() };
    let cfg = StreamConfig { publish_every: PUBLISH_EVERY, ..StreamConfig::default() };
    let svc = StreamService::start(
        Arc::clone(&registry),
        MODEL,
        Arc::clone(&ds),
        small_net(SERVED_NET_SEED + 1),
        RewardConfig::default(),
        pretrain,
        cfg,
    );
    // The server already holds version 1; the updater's first publication
    // (after pre-training) marks the start of the live feed.
    while registry.live_version(MODEL) == Some(1) && !svc.is_finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    let finished_at = OnceLock::new();
    let stop = || {
        let done = svc.is_finished();
        if done {
            finished_at.get_or_init(Instant::now);
        }
        done
    };
    let run = loadgen::open_loop(
        addr,
        &Plan {
            corpus: &corpus.http,
            rate: LIVE_RPS,
            duration: Duration::from_secs(600),
            stop: &stop,
            on_send: if args.trace { &toggle_sampling } else { &no_toggle },
        },
    );
    ppn_obs::trace::set_sample_rate(0);
    let t_end = *finished_at.get_or_init(Instant::now);
    let stats = svc.stop();
    if stats.bars != bars as u64 {
        out.fail(format!("updater consumed {} of {bars} bars", stats.bars));
    }
    out.set("throughput_per_s", stats.bars as f64 / t_end.duration_since(t0).as_secs_f64());
    let mut verify = Verifier::new(&registry, &corpus);
    verify.check(&run, out);
    record_latency(&run, args.trace, out);
    record_serve(&before, run.sent, out);
    out.set("stream.publishes", stats.publishes as f64);
    out.set("stream.rollbacks", stats.rolled_back as f64);
    out.set("stream.promote_ratio", stats.promoted as f64 / stats.publishes as f64);
    eprintln!(
        "perfbench: live: {} bars, {} publishes, {} rolled back, {} requests",
        stats.bars, stats.publishes, stats.rolled_back, run.sent
    );

    // APV of the final live version over the last live bars.
    let live = registry.resolve(MODEL).expect("a live version");
    let end = ds.periods() - 1;
    let mut policy = NetPolicy::new(live.net().snapshot());
    let result = run_backtest(&ds, &mut policy, PSI, end - LIVE_APV_BARS..end);
    let (n, bad) = off_simplex(result.records.iter().map(|r| &r.action));
    out.count(n, bad);
    out.set("apv", result.metrics.apv);
    server.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_matches_exactly_the_served_weights() {
        let body = |weights: Vec<f64>, version| {
            let r = DecideResponse {
                model: MODEL.to_string(),
                model_version: version,
                weights,
                batch_size: 7,
            };
            serde_json::to_string(&r).expect("serializes")
        };
        let w = vec![0.1, 0.2, 0.3, 0.4];
        let a = loadgen::fingerprint(body(w.clone(), 3).as_bytes()).expect("a decide body");
        assert_eq!(a.version, 3);
        let same = loadgen::fingerprint(body(w.clone(), 3).as_bytes()).expect("a decide body");
        assert_eq!(a, same);
        let mut nudged = w;
        nudged[2] = f64::from_bits(nudged[2].to_bits() + 1);
        let b = loadgen::fingerprint(body(nudged, 3).as_bytes()).expect("a decide body");
        assert_ne!(a.weights_fp, b.weights_fp, "one ulp must change the fingerprint");
        assert!(loadgen::fingerprint(b"{\"error\":\"x\"}").is_none());
    }
}
