//! Per-layer probes for traced runs.
//!
//! Each probe times calls into one layer's public functions in-process, or
//! reads the layer's own counters around them. A traced run reports every
//! per-layer metric: the workload itself fills the ones it exercises (for
//! example the server figures on `decide` and `live`), and the probes here
//! fill the rest, so each layer is measured on every workload the same way.

use crate::loadgen::{self, Plan};
use crate::obs::{or_nan, Reading};
use crate::report::Outcome;
use crate::serving::{ladder_max_rps, record_serve, regime_market, small_net, Corpus, MODEL};
use crate::stats::{self, median, median_us, ms_since};
use crate::train::{self, TimedPolicy, PSI};
use crate::Args;
use ppn_core::prelude::*;
use ppn_market::{run_backtest, Dataset, Preset};
use ppn_serve::queue::{reply_pair, QueuedRequest};
use ppn_serve::{batcher, http, DecideRequest, DecideResponse, ModelRegistry, ServeConfig, Server};
use ppn_stream::{promote, shadow_divergence, PromotionOutcome, StreamConfig};
use ppn_trace::{breakdown_rows, SpanEvent};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs every probe whose metric the workload did not already report.
pub fn run(args: &Args, out: &mut Outcome) {
    let has = |out: &Outcome, name: &str| out.values.contains_key(name);

    // market + paper net
    if !has(out, "market.dataset_load_ms") {
        let mut ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(Dataset::load(Preset::CryptoA));
            ms.push(ms_since(t));
        }
        out.set("market.dataset_load_ms", median(&ms));
    }
    let ds = Dataset::load(Preset::CryptoA);
    train::step_probe(&ds, args.seed, 8, out);
    let net = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), train::train_cfg(args.seed))
        .into_net();
    let window = ds.window(ds.split, net.cfg.window);
    let prev = vec![1.0 / (ds.assets() + 1) as f64; ds.assets() + 1];
    net.act(&window, &prev); // warm the inference tape
    let arena0 = ppn_tensor::storage::arena_stats();
    let calls = 40;
    out.set("core.act_ms", median_us(calls, || net.act(&window, &prev)) / 1e3);
    let arena1 = ppn_tensor::storage::arena_stats();
    out.set(
        "tensor.act_alloc_bytes",
        (arena1.alloc_bytes - arena0.alloc_bytes) as f64 / calls as f64,
    );
    if !has(out, "market.backtest_self_ms") {
        let mut policy = TimedPolicy::new(NetPolicy::new(net.snapshot()));
        let t = Instant::now();
        let r = run_backtest(&ds, &mut policy, PSI, ds.split..ds.split + 200);
        let total = ms_since(t);
        let self_ms = (total - policy.decide_ms.iter().sum::<f64>()) / r.records.len() as f64;
        out.set("market.backtest_self_ms", self_ms);
    }

    // small net, serve request path, registry
    let small_ds = regime_market(200, 1000);
    let corpus = Corpus::new(&small_ds, 200..216, args.seed);
    let small = small_net(args.seed);
    let windows16: Vec<Vec<f64>> = corpus.windows.clone();
    let prevs16 = vec![corpus.prev.clone(); windows16.len()];
    small.act(&corpus.windows[0], &corpus.prev);
    out.set("core.act_small_us_b1", median_us(400, || small.act(&corpus.windows[0], &corpus.prev)));
    out.set("core.act_small_us_b16", median_us(200, || small.act_batch(&windows16, &prevs16)));

    let raw = &corpus.http[0];
    let (parsed, _) =
        http::parse_request(raw).expect("probe request parses").expect("complete request");
    out.set("serve.parse_us", median_us(2000, || http::parse_request(raw)));
    out.set(
        "serve.decode_us",
        median_us(2000, || serde_json::from_slice::<DecideRequest>(&parsed.body).expect("decodes")),
    );
    let resp = DecideResponse {
        model: MODEL.to_string(),
        model_version: 1,
        weights: small.act(&corpus.windows[0], &corpus.prev),
        batch_size: 1,
    };
    out.set(
        "serve.encode_us",
        median_us(2000, || {
            let body = serde_json::to_string(&resp).expect("encodes");
            http::format_response(200, "application/json", &["X-PPN-Model-Version: 1"], &body, true)
        }),
    );

    let registry = ModelRegistry::new();
    registry.publish(MODEL, small.snapshot());
    let decode = |i: usize| {
        serde_json::from_slice::<DecideRequest>(
            &http::parse_request(&corpus.http[i]).expect("parses").expect("complete").0.body,
        )
        .expect("decodes")
    };
    let requests: Vec<DecideRequest> = (0..corpus.http.len()).map(decode).collect();
    let batch_ms = |n: usize, reps: usize, out: &mut Outcome| -> f64 {
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut receivers = Vec::with_capacity(n);
            let jobs: Vec<QueuedRequest> = requests[..n]
                .iter()
                .map(|r| {
                    let (reply, rx) = reply_pair();
                    receivers.push(rx);
                    QueuedRequest {
                        request: r.clone(),
                        reply,
                        enqueued_at: Instant::now(),
                        trace: ppn_obs::TraceContext::inert(),
                    }
                })
                .collect();
            let t = Instant::now();
            batcher::process_batch(&registry, jobs);
            ms.push(ms_since(t));
            let ok = receivers.iter().filter(|rx| matches!(rx.try_take(), Some(Ok(_)))).count();
            out.count(n as u64, (n - ok) as u64);
        }
        median(&ms)
    };
    let b1 = batch_ms(1, 300, out);
    let b16 = batch_ms(16, 100, out);
    out.set("serve.process_batch_ms_b1", b1);
    out.set("serve.process_batch_ms_b16", b16);
    out.set("serve.resolve_us", median_us(5000, || registry.resolve(MODEL)));
    let mut candidates: Vec<PolicyNet> = (0..100).map(|_| small.snapshot()).collect();
    out.set(
        "serve.publish_us",
        median_us(100, || registry.publish("probe", candidates.pop().expect("candidate"))),
    );

    // stream: online step, snapshot, shadow check, promotion
    let live_ds = Arc::new(regime_market(600, 400));
    let cfg = TrainConfig { steps: 0, batch: 8, seed: args.seed, ..TrainConfig::default() };
    let mut trainer =
        Trainer::with_net(Arc::clone(&live_ds), small_net(args.seed), RewardConfig::default(), cfg);
    trainer.step();
    out.set("core.online_step_ms", median_us(200, || trainer.step()) / 1e3);
    out.set("core.snapshot_ms", median_us(200, || trainer.net.snapshot()) / 1e3);
    let other = small_net(args.seed + 1);
    let t_end = live_ds.split;
    let shadow = StreamConfig::default().shadow_window;
    out.set(
        "stream.shadow_ms",
        median_us(200, || shadow_divergence(&trainer.net, &other, &live_ds, t_end, shadow)) / 1e3,
    );
    let promo_registry = ModelRegistry::new();
    promo_registry.publish("promo", trainer.net.snapshot());
    let stream_cfg = StreamConfig::default();
    let (mut promoted, mut rolled_back, mut promote_ms) = (0u64, 0u64, Vec::new());
    for i in 0..40 {
        trainer.step();
        let candidate = trainer.net.snapshot();
        let t = Instant::now();
        let p = promote(&promo_registry, "promo", candidate, &live_ds, t_end + i, &stream_cfg);
        promote_ms.push(ms_since(t));
        match p.outcome {
            PromotionOutcome::RolledBack { .. } => rolled_back += 1,
            _ => promoted += 1,
        }
    }
    out.set("stream.promote_ms", median(&promote_ms));
    if !has(out, "stream.publishes") {
        out.set("stream.publishes", (promoted + rolled_back) as f64);
        out.set("stream.rollbacks", rolled_back as f64);
        out.set("stream.promote_ratio", promoted as f64 / (promoted + rolled_back) as f64);
    }

    // A workload without a server still reports the serve figures, from a
    // short sampled open-loop run against a probe server.
    if !has(out, "serve.batch_size_mean") {
        sampled_serve_run(&small, &corpus, out);
    }

    // Open-loop capacity under the latency limit, against a fresh server.
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(MODEL, small.snapshot());
    let server =
        Server::start(Arc::clone(&registry), ServeConfig::default()).expect("server starts");
    out.set("serve.ladder_max_rps", ladder_max_rps(server.addr(), &corpus.http));
    server.shutdown();
}

/// One second of sampled open-loop traffic against a fresh server; fills
/// the run-derived serve and generator figures.
fn sampled_serve_run(net: &PolicyNet, corpus: &Corpus, out: &mut Outcome) {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(MODEL, net.snapshot());
    let server =
        Server::start(Arc::clone(&registry), ServeConfig::default()).expect("server starts");
    let before = Reading::now();
    ppn_obs::trace::set_sample_rate(1);
    let run = loadgen::open_loop(
        server.addr(),
        &Plan {
            corpus: &corpus.http,
            rate: 1000.0,
            duration: Duration::from_secs(1),
            stop: &|| false,
            on_send: &|_| {},
        },
    );
    ppn_obs::trace::set_sample_rate(0);
    let ok = run.replies.iter().filter(|r| r.status == 200).count() as u64;
    out.count(run.sent, run.sent - ok);
    record_serve(&before, run.sent, out);
    out.set("loadgen.lag_p99_ms", stats::quantile(&run.lag_ms, 0.99));
    server.shutdown();
}

/// Stage durations from the server's sampled `serve.*` request spans.
pub fn span_metrics(events: &[SpanEvent], out: &mut Outcome) {
    let rows = breakdown_rows(events);
    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let get =
        |name: &str, p99: bool| or_nan(row(name).map(|r| if p99 { r.p99_ms } else { r.p50_ms }));
    out.set("serve.queue_wait_ms_p50", get("serve.queue_wait", false));
    out.set("serve.queue_wait_ms_p99", get("serve.queue_wait", true));
    out.set("serve.forward_ms_p50", get("serve.forward", false));
    out.set("serve.respond_ms_p50", get("serve.respond", false));
}
