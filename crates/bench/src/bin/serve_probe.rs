//! Load + soak probe for the ppn-serve event-driven inference server.
//!
//! Starts an in-process server backed by a seeded PPN-LSTM and drives it
//! with **persistent keep-alive clients** fanned out on the
//! `ppn_tensor::par` worker pool, in three phases:
//!
//! 1. **Levels** — closed-loop request/response at several concurrency
//!    levels: client-side p50/p99 latency, throughput, mean forward-pass
//!    batch size, and bit-identity of every served weight vector against
//!    the direct single-sample `PolicyNet::act` path.
//! 2. **Soak** — sustained closed-loop load at the top concurrency for a
//!    fixed wall-clock window: latency under saturation (p50/p99/max) and
//!    sustained throughput.
//! 3. **Shed curve** — a second server with a deliberately small decision
//!    queue, driven with pipelined bursts of increasing depth: measures
//!    the 429 shed rate as offered load exceeds capacity, demonstrating
//!    bounded-queue degradation instead of unbounded queueing.
//!
//! Results land in `results/BENCH_serve.json`.
//!
//! `--smoke` runs a single reduced level and asserts instead of writing:
//! 200 responses, simplex outputs, a non-empty `serve.latency_ms`
//! histogram, and a graceful shutdown. `--soak-smoke` runs every phase at
//! reduced scale and writes the JSON (the CI artifact).

use ppn_core::prelude::*;
use ppn_serve::http::{http_request, HttpClient};
use ppn_serve::{DecideRequest, DecideResponse, ModelRegistry, ServeConfig, Server};
use ppn_tensor::par;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

#[derive(serde::Serialize)]
struct LevelSample {
    concurrency: usize,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    rps: f64,
    mean_batch: f64,
    bit_identical: bool,
}

#[derive(serde::Serialize)]
struct SoakSample {
    concurrency: usize,
    duration_s: f64,
    requests: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_batch: f64,
    shed_429: u64,
}

#[derive(serde::Serialize)]
struct ShedSample {
    pipeline_depth: usize,
    concurrency: usize,
    offered: u64,
    ok_200: u64,
    shed_429: u64,
    shed_rate: f64,
    rps: f64,
}

#[derive(serde::Serialize)]
struct BenchServe {
    model: String,
    assets: usize,
    max_batch: usize,
    queue_cap: usize,
    /// Closed-loop keep-alive levels (one in-flight request per client).
    levels: Vec<LevelSample>,
    /// Sustained closed-loop load at the top level.
    soak: Option<SoakSample>,
    /// Decision-queue capacity of the dedicated shed-curve server.
    shed_queue_cap: usize,
    /// Pipelined overload against the small-queue server.
    shed_curve: Vec<ShedSample>,
}

fn small_cfg(assets: usize) -> NetConfig {
    NetConfig { window: 8, lstm_hidden: 4, tccb_channels: [3, 4, 4], ..NetConfig::paper(assets) }
}

fn probe_inputs(cfg: &NetConfig, salt: u64) -> (Vec<f64>, Vec<f64>) {
    let window: Vec<f64> = (0..cfg.assets * cfg.window * cfg.features)
        .map(|i| 1.0 + 0.003 * ((i as u64 + 7 * salt) as f64 * 0.9).sin())
        .collect();
    let prev = vec![1.0 / (cfg.assets as f64 + 1.0); cfg.assets + 1];
    (window, prev)
}

/// Mean forward-pass batch size from the `batch_size` of each 200 response.
/// A batch of `b` answers `b` requests that each report `b`, so summing
/// `1/b` over responses counts batches: mean = requests / Σ(1/b). Read
/// from the responses rather than the `serve.batch_size` histogram, which
/// records nothing under `PPN_OBS=off`.
fn mean_batch(batch_sizes: &[usize]) -> f64 {
    let batches: f64 = batch_sizes.iter().map(|&b| 1.0 / b.max(1) as f64).sum();
    if batches > 0.0 {
        batch_sizes.len() as f64 / batches
    } else {
        0.0
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One closed-loop keep-alive worker: `per_worker` sequential decide
/// requests over a single persistent connection. Returns per-request
/// latencies (ms), the batch size of each 200 response, and whether every
/// response was 200 with bit-identical weights.
fn closed_loop_worker(
    addr: SocketAddr,
    bodies: &[String],
    expected_bits: &[Vec<u64>],
    worker: usize,
    per_worker: usize,
) -> (Vec<f64>, Vec<usize>, bool) {
    let mut client = HttpClient::connect(addr).expect("client connects");
    let mut lat = Vec::with_capacity(per_worker);
    let mut batch_sizes = Vec::with_capacity(per_worker);
    let mut ok = true;
    for r in 0..per_worker {
        let salt = (worker * per_worker + r) % bodies.len();
        let t = Instant::now();
        let resp = client.request("POST", "/decide", &bodies[salt]).expect("request transport");
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            println!("  !! status {}: {}", resp.status, resp.body);
            ok = false;
            continue;
        }
        let parsed: DecideResponse =
            serde_json::from_str(&resp.body).expect("response deserializes");
        batch_sizes.push(parsed.batch_size);
        let bits: Vec<u64> = parsed.weights.iter().map(|w| w.to_bits()).collect();
        if bits != expected_bits[salt] {
            println!("  !! salt {salt}: weights diverged from direct act()");
            ok = false;
        }
    }
    (lat, batch_sizes, ok)
}

/// Drives one closed-loop level with `concurrency` keep-alive workers on
/// the par pool and aggregates their samples into a [`LevelSample`].
fn drive_level(
    addr: SocketAddr,
    bodies: &[String],
    expected_bits: &[Vec<u64>],
    concurrency: usize,
    per_worker: usize,
) -> LevelSample {
    let t0 = Instant::now();
    let results = par::with_threads(concurrency, || {
        par::par_map(concurrency, |i| {
            closed_loop_worker(addr, bodies, expected_bits, i, per_worker)
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut ok = true;
    for (l, b, o) in results {
        lat.extend(l);
        batch_sizes.extend(b);
        ok &= o;
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    LevelSample {
        concurrency,
        requests: lat.len(),
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        rps: lat.len() as f64 / wall_s,
        mean_batch: mean_batch(&batch_sizes),
        bit_identical: ok,
    }
}

/// Sustained closed-loop load: every worker hammers its keep-alive
/// connection until the shared deadline passes.
fn drive_soak(
    addr: SocketAddr,
    bodies: &[String],
    concurrency: usize,
    duration: Duration,
) -> SoakSample {
    let shed = ppn_serve::metrics::shed();
    let shed0 = shed.get();
    let t0 = Instant::now();
    let deadline = t0 + duration;
    let results = par::with_threads(concurrency, || {
        par::par_map(concurrency, |i| {
            let mut client = HttpClient::connect(addr).expect("client connects");
            let mut lat = Vec::new();
            let mut batch_sizes = Vec::new();
            let mut r = 0usize;
            while Instant::now() < deadline {
                let salt = (i + r * concurrency) % bodies.len();
                let t = Instant::now();
                let resp =
                    client.request("POST", "/decide", &bodies[salt]).expect("request transport");
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                assert_eq!(resp.status, 200, "soak decide failed: {}", resp.body);
                let parsed: DecideResponse =
                    serde_json::from_str(&resp.body).expect("response deserializes");
                batch_sizes.push(parsed.batch_size);
                r += 1;
            }
            (lat, batch_sizes)
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let shed1 = shed.get();
    let (lat, batch_sizes): (Vec<Vec<f64>>, Vec<Vec<usize>>) = results.into_iter().unzip();
    let mut lat: Vec<f64> = lat.into_iter().flatten().collect();
    let batch_sizes: Vec<usize> = batch_sizes.into_iter().flatten().collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    SoakSample {
        concurrency,
        duration_s: wall_s,
        requests: lat.len(),
        rps: lat.len() as f64 / wall_s,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(f64::NAN),
        mean_batch: mean_batch(&batch_sizes),
        shed_429: shed1 - shed0,
    }
}

/// Pipelined overload at one burst depth against the small-queue server:
/// each worker fires `depth` requests back-to-back, then reads the `depth`
/// ordered responses, counting 200s vs 429 sheds.
fn drive_shed_depth(
    addr: SocketAddr,
    bodies: &[String],
    concurrency: usize,
    depth: usize,
    per_worker: usize,
) -> ShedSample {
    let rounds = (per_worker / depth).max(1);
    let t0 = Instant::now();
    let results = par::with_threads(concurrency, || {
        par::par_map(concurrency, |i| {
            let mut client = HttpClient::connect(addr).expect("client connects");
            let (mut ok, mut shed) = (0u64, 0u64);
            for round in 0..rounds {
                for k in 0..depth {
                    let salt = (i + round * depth + k) % bodies.len();
                    client.send("POST", "/decide", &bodies[salt]).expect("send");
                }
                for _ in 0..depth {
                    let resp = client.recv().expect("recv");
                    match resp.status {
                        200 => ok += 1,
                        429 => shed += 1,
                        other => panic!("unexpected status {other} under overload: {}", resp.body),
                    }
                }
            }
            (ok, shed)
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (mut ok, mut shed) = (0u64, 0u64);
    for (o, s) in results {
        ok += o;
        shed += s;
    }
    let offered = ok + shed;
    ShedSample {
        pipeline_depth: depth,
        concurrency,
        offered,
        ok_200: ok,
        shed_429: shed,
        shed_rate: if offered > 0 { shed as f64 / offered as f64 } else { 0.0 },
        rps: offered as f64 / wall_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let soak_smoke = std::env::args().any(|a| a == "--soak-smoke");
    let run = ppn_bench::start_run("serve_probe");

    let cfg = small_cfg(4);
    let mut rng = StdRng::seed_from_u64(42);
    let net = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);

    // Precompute the direct single-sample reference before the registry
    // takes ownership of the net.
    let n_inputs = 32;
    let mut bodies = Vec::with_capacity(n_inputs);
    let mut expected_bits = Vec::with_capacity(n_inputs);
    for salt in 0..n_inputs as u64 {
        let (window, prev_action) = probe_inputs(&cfg, salt);
        expected_bits.push(net.act(&window, &prev_action).iter().map(|w| w.to_bits()).collect());
        let req = DecideRequest { model: "probe".to_string(), window, prev_action };
        bodies.push(serde_json::to_string(&req).expect("request serializes"));
    }
    let mk_registry = || {
        let mut rng = StdRng::seed_from_u64(42);
        let registry = std::sync::Arc::new(ModelRegistry::new());
        registry.publish("probe", PolicyNet::new(Variant::PpnLstm, small_cfg(4), &mut rng));
        registry
    };

    let serve_cfg = ServeConfig::default();
    let max_batch = serve_cfg.max_batch;
    let queue_cap = serve_cfg.queue_cap;
    let server = Server::start(mk_registry(), serve_cfg).expect("server starts");
    let addr = server.addr();
    println!("serve_probe: listening on {addr}");

    let (levels, per_worker): (&[usize], usize) = if smoke {
        (&[4], 24)
    } else if soak_smoke {
        (&[1, 4, 16], 64)
    } else {
        (&[1, 2, 4, 8, 16], 500)
    };

    let mut samples = Vec::new();
    for &c in levels {
        let s = drive_level(addr, &bodies, &expected_bits, c, per_worker);
        println!(
            "c={:<3} {:>5} reqs  p50 {:7.3} ms  p99 {:7.3} ms  {:8.1} req/s  mean batch {:.2}  bit_identical={}",
            s.concurrency, s.requests, s.p50_ms, s.p99_ms, s.rps, s.mean_batch, s.bit_identical
        );
        samples.push(s);
    }
    assert!(
        samples.iter().all(|s| s.bit_identical),
        "batched serving diverged from the single-request act() path"
    );

    if smoke {
        assert!(
            ppn_serve::metrics::latency_ms().count() > 0,
            "serve.latency_ms must record observations"
        );
        // Every response already checked bit-identical against act(), whose
        // simplex contract is asserted inside the net; re-check the sums
        // from the wire anyway.
        let (status, body) =
            http_request(addr, "POST", "/decide", &bodies[0]).expect("smoke decide");
        assert_eq!(status, 200, "smoke decide must return 200: {body}");
        let parsed: DecideResponse = serde_json::from_str(&body).expect("smoke body parses");
        let sum: f64 = parsed.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "served weights must lie on the simplex: {sum}");
        server.shutdown();
        println!("smoke ok: batched serving bit-identical, graceful shutdown clean");
        let _ = run.finish();
        return;
    }

    // Phase 2: sustained saturation at the top concurrency level.
    let soak_dur = if soak_smoke { Duration::from_millis(750) } else { Duration::from_secs(5) };
    let soak = drive_soak(addr, &bodies, 16, soak_dur);
    println!(
        "soak c={} {:.1}s  {:>6} reqs  {:8.1} req/s  p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms  shed {}",
        soak.concurrency, soak.duration_s, soak.requests, soak.rps, soak.p50_ms, soak.p99_ms,
        soak.max_ms, soak.shed_429
    );
    server.shutdown();

    // Phase 3: overload a deliberately tiny queue with pipelined bursts to
    // trace the shed-rate curve — the queue must refuse, never grow.
    let shed_queue_cap = 64;
    let overload_cfg = ServeConfig { queue_cap: shed_queue_cap, ..ServeConfig::default() };
    let overload = Server::start(mk_registry(), overload_cfg).expect("overload server starts");
    let oaddr = overload.addr();
    let depths: &[usize] = if soak_smoke { &[2, 32] } else { &[2, 8, 32, 64] };
    let shed_per_worker = if soak_smoke { 64 } else { 256 };
    let mut shed_curve = Vec::new();
    for &d in depths {
        let s = drive_shed_depth(oaddr, &bodies, 16, d, shed_per_worker);
        println!(
            "shed depth={:<3} offered {:>6}  200s {:>6}  429s {:>6}  shed_rate {:.3}  {:8.1} req/s",
            s.pipeline_depth, s.offered, s.ok_200, s.shed_429, s.shed_rate, s.rps
        );
        shed_curve.push(s);
    }
    overload.shutdown();
    let deepest = shed_curve.last().expect("at least one shed depth");
    assert!(
        deepest.shed_429 > 0,
        "pipelined overload at depth {} must exceed queue cap {shed_queue_cap} and shed",
        deepest.pipeline_depth
    );

    let report = BenchServe {
        model: "PPN-LSTM".to_string(),
        assets: cfg.assets,
        max_batch,
        queue_cap,
        levels: samples,
        soak: Some(soak),
        shed_queue_cap,
        shed_curve,
    };
    std::fs::create_dir_all("results").ok();
    let json = serde_json::to_vec_pretty(&report).expect("report serializes");
    std::fs::write("results/BENCH_serve.json", json).expect("write BENCH_serve.json");
    println!("wrote results/BENCH_serve.json");
    let _ = run.finish();
}
