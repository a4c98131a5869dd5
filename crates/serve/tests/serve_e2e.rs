//! End-to-end tests for ppn-serve: concurrent decide requests must be
//! bit-identical to direct single-sample `PolicyNet::act`, keep-alive and
//! pipelined connections must get ordered responses, overload must shed
//! with 429 (never queue without bound), error paths must map to the right
//! HTTP statuses *and* still be metered, and shutdown must stay bounded
//! even with idle or slow-loris connections attached.
//!
//! Metrics share one process-global registry, so these tests only assert
//! monotone facts (counts grew, histogram non-empty) and never reset it.

use ppn_core::config::NetConfig;
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_serve::batcher::process_batch;
use ppn_serve::http::{http_request, HttpClient};
use ppn_serve::queue::{reply_pair, QueuedRequest, RequestQueue};
use ppn_serve::{DecideRequest, DecideResponse, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Starts a server with one seeded PPN-LSTM model named `model` and the
/// given config, returning the handle plus the per-salt expected outputs of
/// the direct `act` path.
fn start_server_with(
    n_expected: u64,
    serve_cfg: ServeConfig,
) -> (Server, Vec<Vec<f64>>, NetConfig) {
    let (server, expected, cfg, _registry) = start_server_with_registry(n_expected, serve_cfg);
    (server, expected, cfg)
}

/// As [`start_server_with`], but also hands back the shared registry so a
/// test can publish/rollback into the running server.
fn start_server_with_registry(
    n_expected: u64,
    serve_cfg: ServeConfig,
) -> (Server, Vec<Vec<f64>>, NetConfig, Arc<ModelRegistry>) {
    let cfg = small_cfg(3);
    let mut rng = StdRng::seed_from_u64(42);
    let net = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);
    let expected: Vec<Vec<f64>> = (0..n_expected)
        .map(|salt| {
            let (w, p) = probe_inputs(&cfg, salt);
            net.act(&w, &p)
        })
        .collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("model", net);
    let server = Server::start(Arc::clone(&registry), serve_cfg).unwrap();
    (server, expected, cfg, registry)
}

fn start_server(n_expected: u64) -> (Server, Vec<Vec<f64>>, NetConfig) {
    start_server_with(n_expected, ServeConfig::default())
}

fn decide_body(cfg: &NetConfig, salt: u64) -> String {
    let (window, prev_action) = probe_inputs(cfg, salt);
    serde_json::to_string(&DecideRequest { model: "model".to_string(), window, prev_action })
        .unwrap()
}

#[test]
fn concurrent_decides_are_bit_identical_to_direct_act() {
    let clients = 8;
    let (server, expected, cfg) = start_server(clients as u64);
    let addr = server.addr();
    let bodies: Vec<String> = (0..clients).map(|i| decide_body(&cfg, i as u64)).collect();

    // Fan the requests out on the tensor worker pool (bench/test code may
    // not spawn raw threads) so several can queue behind one forward pass.
    let responses = ppn_tensor::par::with_threads(clients, || {
        ppn_tensor::par::par_map(clients, |i| http_request(addr, "POST", "/decide", &bodies[i]))
    });

    for (i, resp) in responses.into_iter().enumerate() {
        let (status, body) = resp.unwrap();
        assert_eq!(status, 200, "client {i}: body {body}");
        let resp: DecideResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.model, "model");
        let got: Vec<u64> = resp.weights.iter().map(|w| w.to_bits()).collect();
        let want: Vec<u64> = expected[i].iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, want, "client {i}: batched weights must be bit-identical to act()");
        assert!(
            (1..=clients).contains(&resp.batch_size),
            "client {i}: batch size {} must lie in 1..={clients}",
            resp.batch_size
        );
    }
    server.shutdown();
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let (server, expected, cfg) = start_server(4);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for salt in 0..4u64 {
        let resp = client.request("POST", "/decide", &decide_body(&cfg, salt)).unwrap();
        assert_eq!(resp.status, 200, "salt {salt}: {}", resp.body);
        assert!(
            resp.headers.contains("Connection: keep-alive"),
            "decide responses on a 1.1 connection must keep it alive: {}",
            resp.headers
        );
        let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
        let got: Vec<u64> = parsed.weights.iter().map(|w| w.to_bits()).collect();
        let want: Vec<u64> = expected[salt as usize].iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, want, "salt {salt}");
    }
    // Mixed routes ride the same connection.
    let resp = client.request("GET", "/health", "").unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn pipelined_requests_get_ordered_responses() {
    let n = 6u64;
    let (server, expected, cfg) = start_server(n);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // Write every request before reading a single response: the server must
    // parse them all from the buffer and answer strictly in request order.
    for salt in 0..n {
        client.send("POST", "/decide", &decide_body(&cfg, salt)).unwrap();
    }
    for salt in 0..n {
        let resp = client.recv().unwrap();
        assert_eq!(resp.status, 200, "salt {salt}: {}", resp.body);
        let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
        let got: Vec<u64> = parsed.weights.iter().map(|w| w.to_bits()).collect();
        let want: Vec<u64> = expected[salt as usize].iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, want, "response {salt} must answer request {salt} (ordering)");
    }
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // queue_cap 0: every decide is refused at admission — deterministic
    // shedding regardless of batcher timing.
    let serve_cfg = ServeConfig { queue_cap: 0, ..ServeConfig::default() };
    let (server, _expected, cfg) = start_server_with(0, serve_cfg);
    let shed_before = ppn_serve::metrics::shed().get();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..3 {
        let resp = client.request("POST", "/decide", &decide_body(&cfg, 0)).unwrap();
        assert_eq!(resp.status, 429, "{}", resp.body);
        assert!(resp.headers.contains("Retry-After: 1"), "{}", resp.headers);
        assert!(
            resp.headers.contains("Connection: keep-alive"),
            "shedding must not tear down the connection: {}",
            resp.headers
        );
    }
    assert!(ppn_serve::metrics::shed().get() >= shed_before + 3);
    // Non-decide routes are unaffected by decision-queue pressure.
    let resp = client.request("GET", "/health", "").unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn connection_limit_refuses_with_503() {
    let serve_cfg = ServeConfig { max_conns: 1, ..ServeConfig::default() };
    let (server, _expected, _cfg) = start_server_with(0, serve_cfg);
    let mut first = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(first.request("GET", "/health", "").unwrap().status, 200);
    // The second connection is over the limit: refused with a best-effort
    // 503 and closed. An Err means it was dropped before the response could
    // be read — also a refusal, so only a readable status is asserted on.
    if let Ok((status, _)) = http_request(server.addr(), "GET", "/health", "") {
        assert_eq!(status, 503);
    }
    // The admitted connection keeps working.
    assert_eq!(first.request("GET", "/health", "").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn error_paths_map_to_http_statuses() {
    let (server, _expected, cfg) = start_server(1);
    let addr = server.addr();

    let (status, body) = http_request(addr, "POST", "/decide", "{not json").unwrap();
    assert_eq!(status, 400, "bad JSON: {body}");

    let mut req = serde_json::from_str::<DecideRequest>(&decide_body(&cfg, 0)).unwrap();
    req.model = "nope".to_string();
    let (status, body) =
        http_request(addr, "POST", "/decide", &serde_json::to_string(&req).unwrap()).unwrap();
    assert_eq!(status, 404, "unknown model: {body}");
    assert!(body.contains("nope"), "error should name the model: {body}");

    let mut req = serde_json::from_str::<DecideRequest>(&decide_body(&cfg, 0)).unwrap();
    req.window.pop();
    let (status, body) =
        http_request(addr, "POST", "/decide", &serde_json::to_string(&req).unwrap()).unwrap();
    assert_eq!(status, 400, "wrong window length: {body}");

    let (status, _) = http_request(addr, "GET", "/decide", "").unwrap();
    assert_eq!(status, 405, "GET on /decide");

    let (status, _) = http_request(addr, "POST", "/bogus", "{}").unwrap();
    assert_eq!(status, 404, "unknown route");
    server.shutdown();
}

#[test]
fn every_outcome_is_metered_including_malformed() {
    let (server, _expected, _cfg) = start_server(0);
    let addr = server.addr();
    let requests_before = ppn_serve::metrics::requests().get();
    let errors_before = ppn_serve::metrics::errors().get();
    let latency_before = ppn_serve::metrics::latency_ms().count();

    // A request that never parses still counts: it arrived, it errored, and
    // its latency was observed (the old code only metered the 200 path).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut raw = String::new();
    use std::io::Read;
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    drop(stream);

    // An error-status route outcome is metered too.
    let (status, _) = http_request(addr, "POST", "/bogus", "{}").unwrap();
    assert_eq!(status, 404);

    assert!(ppn_serve::metrics::requests().get() >= requests_before + 2);
    assert!(ppn_serve::metrics::errors().get() >= errors_before + 2);
    assert!(ppn_serve::metrics::latency_ms().count() >= latency_before + 2);
    server.shutdown();
}

#[test]
fn slow_request_times_out_with_408() {
    let serve_cfg =
        ServeConfig { read_timeout: Duration::from_millis(150), ..ServeConfig::default() };
    let (server, _expected, _cfg) = start_server_with(0, serve_cfg);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Half a request head, then silence: the read deadline must answer 408
    // and close instead of holding the connection open forever.
    stream.write_all(b"POST /decide HTTP/1.1\r\nContent-").unwrap();
    let mut raw = String::new();
    use std::io::Read;
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");
    server.shutdown();
}

#[test]
fn health_and_metrics_endpoints_respond() {
    let (server, _expected, cfg) = start_server(1);
    let addr = server.addr();

    // One decide so serve.latency_ms has at least one observation.
    let (status, _) = http_request(addr, "POST", "/decide", &decide_body(&cfg, 0)).unwrap();
    assert_eq!(status, 200);

    let (status, body) = http_request(addr, "GET", "/health", "").unwrap();
    assert_eq!(status, 200);
    let health = Value::parse(&body).unwrap();
    match health.field("status").unwrap() {
        Value::Str(s) => assert_eq!(s, "ok"),
        other => panic!("unexpected status value {other:?}"),
    }
    assert!(body.contains("\"model\""), "health must list registered models: {body}");

    // /metrics speaks Prometheus text exposition (sanitized metric names,
    // TYPE comments, cumulative buckets ending in +Inf).
    let (status, body) = http_request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("# TYPE serve_latency_ms histogram"),
        "metrics must expose serve_latency_ms as a histogram: {body}"
    );
    assert!(
        body.contains("serve_batch_size_bucket{le=\"+Inf\"}"),
        "histograms must end in a +Inf bucket: {body}"
    );
    assert!(body.contains("serve_latency_ms_count"), "histogram count line: {body}");
    assert!(body.contains("# TYPE serve_requests counter"), "counter TYPE line: {body}");
    assert!(body.contains("# TYPE serve_queue_depth gauge"), "gauge TYPE line: {body}");
    assert!(body.contains("serve_shed"), "shed counter must be exported: {body}");
    assert!(body.contains("serve_connections"), "connection gauge must be exported: {body}");

    // The JSON snapshot stays available at /metrics.json for tooling that
    // wants the raw structure.
    let (status, body) = http_request(addr, "GET", "/metrics.json", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("serve.latency_ms"), "JSON keeps dotted names: {body}");
    assert!(Value::parse(&body).is_ok(), "metrics.json must parse as JSON: {body}");

    // The histogram must be non-empty after a successful decide.
    assert!(ppn_serve::metrics::latency_ms().count() > 0);
    assert!(ppn_serve::metrics::batch_size().count() > 0);
    server.shutdown();
}

#[test]
fn shutdown_is_graceful_and_idempotent_under_drop() {
    let (server, _expected, cfg) = start_server(1);
    let addr = server.addr();
    let (status, _) = http_request(addr, "POST", "/decide", &decide_body(&cfg, 0)).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
    // Post-shutdown the port no longer serves decisions.
    assert!(http_request(addr, "POST", "/decide", &decide_body(&cfg, 0)).is_err());

    // Dropping without an explicit shutdown must also join cleanly.
    let (server2, _expected, _cfg) = start_server(1);
    drop(server2);
}

#[test]
fn shutdown_is_bounded_with_idle_and_slow_loris_connections() {
    let (server, _expected, _cfg) = start_server(0);
    let addr = server.addr();
    // An idle keep-alive connection that finished a request…
    let mut idle = HttpClient::connect(addr).unwrap();
    assert_eq!(idle.request("GET", "/health", "").unwrap().status, 200);
    // …and a slow-loris peer that sent half a request and went quiet. The
    // old thread-per-connection server joined handler threads blocked in
    // read() here and hung until the peer gave up.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"POST /decide HTTP/1.1\r\nConte").unwrap();

    let begin = Instant::now();
    server.shutdown();
    let took = begin.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown with idle + slow-loris connections must stay bounded, took {took:?}"
    );
    drop(idle);
    drop(loris);
}

#[test]
fn process_batch_coalesces_jobs_into_one_forward_pass() {
    let cfg = small_cfg(3);
    let mut rng = StdRng::seed_from_u64(7);
    let net = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);
    let registry = ModelRegistry::new();
    registry.publish("m", net);

    let queue = RequestQueue::new(64);
    let n = 5;
    let mut receivers = Vec::new();
    for salt in 0..n {
        let (window, prev_action) = probe_inputs(&cfg, salt);
        let (tx, rx) = reply_pair();
        queue
            .try_push(QueuedRequest {
                request: DecideRequest { model: "m".to_string(), window, prev_action },
                reply: tx,
                enqueued_at: Instant::now(),
                trace: ppn_obs::TraceContext::inert(),
            })
            .unwrap_or_else(|_| panic!("queue has room"));
        receivers.push(rx);
    }
    assert_eq!(queue.len(), n as usize);
    process_batch(&registry, queue.next_batch(16, Duration::ZERO));
    assert!(queue.is_empty());
    for rx in receivers {
        let resp = rx.try_take().expect("outcome delivered").unwrap();
        assert_eq!(resp.batch_size, n as usize, "all jobs must share one forward pass");
        let sum: f64 = resp.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights must lie on the simplex: {sum}");
    }
}

#[test]
fn models_endpoint_version_stamping_and_rollback() {
    let (server, expected, cfg, registry) = start_server_with_registry(1, ServeConfig::default());
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let want_v1: Vec<u64> = expected[0].iter().map(|w| w.to_bits()).collect();

    // v1 serves, stamped in both the body and the response header.
    let resp = client.request("POST", "/decide", &decide_body(&cfg, 0)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.headers.contains("X-PPN-Model-Version: 1"), "{}", resp.headers);
    let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(parsed.model_version, 1);

    // GET /models reports name, live version, swap count, and history.
    let resp = client.request("GET", "/models", "").unwrap();
    assert_eq!(resp.status, 200);
    let v = Value::parse(&resp.body).unwrap();
    let Value::Arr(models) = &v else { panic!("expected array: {}", resp.body) };
    assert_eq!(models.len(), 1);
    match models[0].field("name").unwrap() {
        Value::Str(s) => assert_eq!(s, "model"),
        other => panic!("unexpected name {other:?}"),
    }
    assert_eq!(models[0].field("live_version").unwrap(), &Value::Num(1.0));
    assert!(resp.body.contains("last_swap_unix_ms"), "{}", resp.body);
    assert!(resp.body.contains("history"), "{}", resp.body);

    // Hot-swap a different net into the *running* server: decides flip to
    // v2 with no restart, and the swap is metered.
    let swaps_before = ppn_serve::metrics::model_swaps().get();
    let mut rng = StdRng::seed_from_u64(1234);
    let v2 = registry.publish("model", PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng));
    assert_eq!(v2, 2);
    assert!(ppn_serve::metrics::model_swaps().get() > swaps_before);
    let resp = client.request("POST", "/decide", &decide_body(&cfg, 0)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.headers.contains("X-PPN-Model-Version: 2"), "{}", resp.headers);
    let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
    let got_v2: Vec<u64> = parsed.weights.iter().map(|w| w.to_bits()).collect();
    assert_ne!(got_v2, want_v1, "a differently-seeded net must decide differently");

    // POST /rollback restores v1; decides are bit-identical to before.
    let resp = client.request("POST", "/rollback", r#"{"model":"model","version":1}"#).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"live_version\":1"), "{}", resp.body);
    let resp = client.request("POST", "/decide", &decide_body(&cfg, 0)).unwrap();
    assert!(resp.headers.contains("X-PPN-Model-Version: 1"), "{}", resp.headers);
    let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
    let got: Vec<u64> = parsed.weights.iter().map(|w| w.to_bits()).collect();
    assert_eq!(got, want_v1, "rollback must restore the exact v1 network");

    // Unknown versions 404; wrong methods 405.
    let resp = client.request("POST", "/rollback", r#"{"model":"model","version":99}"#).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    let (status, _) = http_request(addr, "POST", "/models", "{}").unwrap();
    assert_eq!(status, 405);
    let (status, _) = http_request(addr, "GET", "/rollback", "").unwrap();
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn hot_swap_mid_soak_zero_failures_and_pinned_bit_identity() {
    // Satellite 4: concurrent /decide soak across live hot-swaps. Every
    // response must succeed, and every row must be bit-identical to the
    // *pinned* version's direct act_batch — proof nobody observed a torn
    // or half-swapped model.
    let (server, _expected, cfg, registry) = start_server_with_registry(0, ServeConfig::default());
    let addr = server.addr();
    let body = decide_body(&cfg, 0);
    let (window, prev) = probe_inputs(&cfg, 0);
    let soakers = 4;
    let rounds = 25;
    let results = ppn_tensor::par::with_threads(soakers + 1, || {
        ppn_tensor::par::par_map(soakers + 1, |w| {
            if w == 0 {
                // The swapper: publish fresh nets while decides are in flight.
                for s in 0..4u64 {
                    std::thread::sleep(Duration::from_millis(4));
                    let mut rng = StdRng::seed_from_u64(100 + s);
                    let net = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);
                    registry.publish("model", net);
                }
                return Vec::new();
            }
            let mut client = HttpClient::connect(addr).unwrap();
            (0..rounds)
                .map(|_| {
                    let resp = client.request("POST", "/decide", &body).unwrap();
                    (resp.status, resp.body, resp.headers)
                })
                .collect::<Vec<_>>()
        })
    });

    let mut versions = std::collections::BTreeSet::new();
    for outcomes in &results {
        for (status, body, headers) in outcomes {
            assert_eq!(*status, 200, "no decide may fail across a swap: {body}");
            let parsed: DecideResponse = serde_json::from_str(body).unwrap();
            assert!(
                headers.contains(&format!("X-PPN-Model-Version: {}", parsed.model_version)),
                "header/body version mismatch: {headers}"
            );
            let pinned = registry
                .resolve_version("model", parsed.model_version)
                .expect("every served version must still be retained");
            let direct =
                pinned.net().act_batch(std::slice::from_ref(&window), std::slice::from_ref(&prev));
            let got: Vec<u64> = parsed.weights.iter().map(|w| w.to_bits()).collect();
            let want: Vec<u64> = direct[0].iter().map(|w| w.to_bits()).collect();
            assert_eq!(got, want, "row not bit-identical to pinned v{}", parsed.model_version);
            versions.insert(parsed.model_version);
        }
    }
    assert_eq!(registry.live_version("model"), Some(5), "4 swaps on top of v1");
    assert!(!versions.is_empty());
    server.shutdown();
}

#[test]
fn batcher_skips_jobs_whose_client_disconnected() {
    let cfg = small_cfg(3);
    let mut rng = StdRng::seed_from_u64(9);
    let net = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);
    let registry = ModelRegistry::new();
    registry.publish("m", net);

    let cancelled_before = ppn_serve::metrics::cancelled().get();
    let mut jobs = Vec::new();
    let mut kept = Vec::new();
    for salt in 0..4u64 {
        let (window, prev_action) = probe_inputs(&cfg, salt);
        let (tx, rx) = reply_pair();
        jobs.push(QueuedRequest {
            request: DecideRequest { model: "m".to_string(), window, prev_action },
            reply: tx,
            enqueued_at: Instant::now(),
            trace: ppn_obs::TraceContext::inert(),
        });
        // Abandon the odd salts' receivers: their clients are gone.
        if salt % 2 == 0 {
            kept.push(rx);
        }
    }
    process_batch(&registry, jobs);
    for rx in kept {
        let resp = rx.try_take().expect("connected jobs must still be answered").unwrap();
        // batch_size proves the abandoned jobs were dropped *before* the
        // forward pass, not computed and then thrown away.
        assert_eq!(resp.batch_size, 2, "only the 2 connected jobs may enter the batch");
    }
    assert!(ppn_serve::metrics::cancelled().get() >= cancelled_before + 2);
}
