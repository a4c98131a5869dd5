//! Full pipeline: a live ppn-serve server with request tracing sampled at
//! 1/1 serves real `/decide` traffic; the JSONL the obs sink writes must
//! render into a flamegraph carrying the documented stage chain
//! (`serve.request;serve.queue_wait` / `…;serve.batch_assemble` /
//! `…;serve.forward` / `…;serve.respond`), a non-empty breakdown, and a
//! waterfall, both in-process and through the `ppn-trace` binary — and
//! `/metrics` must speak Prometheus text along the way.

use ppn_core::config::NetConfig;
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_serve::http::http_request;
use ppn_serve::{DecideRequest, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn traced_serve_run_renders_flamegraph_breakdown_and_waterfall() {
    let jsonl = std::env::temp_dir().join(format!("ppn-trace-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&jsonl);
    ppn_obs::init(ppn_obs::ObsConfig {
        stderr_level: None,
        jsonl_level: Some(ppn_obs::Level::Trace),
        jsonl_path: Some(jsonl.display().to_string()),
        spans: true,
        metrics: true,
    });
    ppn_obs::trace::set_sample_rate(1);

    let cfg =
        NetConfig { window: 8, lstm_hidden: 4, tccb_channels: [3, 4, 4], ..NetConfig::paper(3) };
    let mut rng = StdRng::seed_from_u64(11);
    let net = PolicyNet::new(Variant::PpnLstm, cfg.clone(), &mut rng);
    let registry = std::sync::Arc::new(ModelRegistry::new());
    registry.publish("model", net);
    let server = Server::start(registry, ServeConfig::default()).unwrap();
    let addr = server.addr();

    let window: Vec<f64> = (0..cfg.assets * cfg.window * cfg.features)
        .map(|i| 1.0 + 0.002 * (i as f64 * 0.7).sin())
        .collect();
    let prev_action = vec![1.0 / (cfg.assets as f64 + 1.0); cfg.assets + 1];
    let body =
        serde_json::to_string(&DecideRequest { model: "model".to_string(), window, prev_action })
            .unwrap();
    for _ in 0..4 {
        let (status, resp) = http_request(addr, "POST", "/decide", &body).unwrap();
        assert_eq!(status, 200, "{resp}");
    }

    // The same process also exposes Prometheus text on /metrics.
    let (status, metrics) = http_request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE serve_latency_ms histogram"), "{metrics}");
    assert!(metrics.contains("serve_latency_ms_bucket{le=\"+Inf\"}"), "{metrics}");

    server.shutdown();
    ppn_obs::trace::set_sample_rate(0);
    ppn_obs::sink::jsonl_flush();

    let text = std::fs::read_to_string(&jsonl).unwrap();
    let events = ppn_trace::parse_events(&text);
    assert!(events.len() >= 4 * 5, "4 requests × 5 spans each, got {}", events.len());

    let flame = ppn_trace::flamegraph(&events);
    for stack in [
        "serve.request;serve.queue_wait",
        "serve.request;serve.batch_assemble",
        "serve.request;serve.forward",
        "serve.request;serve.respond",
    ] {
        assert!(
            flame.lines().any(|l| l.starts_with(&format!("{stack} "))),
            "flamegraph must contain the {stack} stack:\n{flame}"
        );
    }

    let breakdown = ppn_trace::breakdown(&events);
    for name in ["serve.request", "serve.queue_wait", "serve.forward"] {
        assert!(breakdown.contains(name), "breakdown must list {name}:\n{breakdown}");
    }

    let waterfall = ppn_trace::waterfall(&events, None);
    assert!(waterfall.starts_with("trace "), "{waterfall}");
    assert!(waterfall.contains("serve.request"), "{waterfall}");
    assert!(waterfall.contains("  serve.forward"), "children indent:\n{waterfall}");

    let listing = ppn_trace::traces(&events);
    assert!(listing.lines().count() >= 4, "one line per traced request:\n{listing}");

    // The CLI renders the same file.
    let flame = run_cli("flame", &jsonl);
    assert!(flame.contains("serve.request;serve.forward"), "{flame}");
    let breakdown = run_cli("breakdown", &jsonl);
    assert!(breakdown.contains("serve.queue_wait"), "{breakdown}");
    let _ = std::fs::remove_file(&jsonl);
}

/// Runs the `ppn-trace` binary in `mode` over `jsonl`; returns its stdout
/// after asserting a zero exit status.
fn run_cli(mode: &str, jsonl: &std::path::Path) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppn-trace"))
        .arg(mode)
        .arg(jsonl)
        .output()
        .unwrap();
    assert!(out.status.success(), "ppn-trace {mode}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}
