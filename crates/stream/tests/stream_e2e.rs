//! End-to-end tests for the streaming online-adaptation pipeline: a live
//! ppn-serve server whose model keeps training on a simulated feed must
//! hot-swap refreshed versions with zero downtime (every in-flight decide
//! answers 200 and is bit-identical to the version it was stamped with),
//! and an injected divergent candidate must be rejected before publication
//! while the previous version keeps serving bit-for-bit.
//!
//! Metrics share one process-global registry, so these tests only assert
//! monotone facts (counts grew) and never reset it.

use ppn_core::config::{NetConfig, RewardConfig, TrainConfig};
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_market::{stitched_dataset, Dataset, MarketConfig, Preset};
use ppn_serve::http::HttpClient;
use ppn_serve::{DecideRequest, DecideResponse, ModelRegistry, ServeConfig, Server};
use ppn_stream::{promote, PromotionOutcome, StreamConfig, StreamService};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const ASSETS: usize = 3;

fn small_cfg() -> NetConfig {
    NetConfig { window: 8, lstm_hidden: 4, tccb_channels: [3, 4, 4], ..NetConfig::paper(ASSETS) }
}

/// Two opposite-drift regimes spliced price-continuously: the seam is a
/// known mid-stream regime shift the online updater has to live through.
fn regime_shift_dataset(split: usize) -> Arc<Dataset> {
    let up = MarketConfig {
        assets: ASSETS,
        periods: 300,
        seed: 11,
        drift: 2e-3,
        momentum: 0.3,
        ..MarketConfig::default()
    };
    let down = MarketConfig { seed: 22, drift: -2e-3, ..up.clone() };
    Arc::new(stitched_dataset(Preset::CryptoA, &[up, down], split))
}

fn probe_inputs(cfg: &NetConfig) -> (Vec<f64>, Vec<f64>) {
    let window: Vec<f64> = (0..cfg.assets * cfg.window * cfg.features)
        .map(|i| 1.0 + 0.003 * (i as f64 * 0.9).sin())
        .collect();
    let prev = vec![1.0 / (cfg.assets as f64 + 1.0); cfg.assets + 1];
    (window, prev)
}

fn decide_body(cfg: &NetConfig, model: &str) -> String {
    let (window, prev_action) = probe_inputs(cfg);
    serde_json::to_string(&DecideRequest { model: model.to_string(), window, prev_action }).unwrap()
}

fn version_header(headers: &str) -> Option<u64> {
    headers
        .lines()
        .find_map(|l| l.strip_prefix("X-PPN-Model-Version: ").and_then(|v| v.trim().parse().ok()))
}

/// The headline demo: a serving model adapts to a mid-stream regime shift
/// through zero-downtime hot swaps. A client soaks `/decide` for the whole
/// run; every response must succeed, be stamped with the version that
/// produced it, and match that version's direct `act` bit-for-bit — across
/// at least one swap.
#[test]
fn live_server_adapts_across_regime_shift_with_zero_downtime_swaps() {
    let split = 280;
    let ds = regime_shift_dataset(split);
    let live_bars = (ds.periods() - split) as u64;
    let net_cfg = small_cfg();
    let net = PolicyNet::new(Variant::PpnLstm, net_cfg.clone(), &mut StdRng::seed_from_u64(9));
    // Retain every version the run can produce so each soak response can be
    // bit-verified against the exact network that was live when it landed.
    let registry = Arc::new(ModelRegistry::with_retention(64));
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).unwrap();

    let stream_cfg = StreamConfig {
        feed_period: Duration::from_millis(1),
        publish_every: 30,
        divergence_threshold: 2.1, // simplex L1 caps at 2.0: swaps always stick
        ..StreamConfig::default()
    };
    let pretrain = TrainConfig { steps: 10, batch: 8, ..TrainConfig::default() };
    let svc = StreamService::start(
        Arc::clone(&registry),
        "live",
        Arc::clone(&ds),
        net,
        RewardConfig::default(),
        pretrain,
        stream_cfg,
    );

    // Wait for the initial publication, then soak until the feed runs dry.
    while registry.live_version("live").is_none() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let body = decide_body(&net_cfg, "live");
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut observed: Vec<(u64, Vec<u64>)> = Vec::new();
    while !svc.is_finished() {
        let resp = client.request("POST", "/decide", &body).unwrap();
        assert_eq!(resp.status, 200, "zero-downtime means zero failed decides: {}", resp.body);
        let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(
            version_header(&resp.headers),
            Some(parsed.model_version),
            "stamped header and body must agree: {}",
            resp.headers
        );
        observed.push((parsed.model_version, parsed.weights.iter().map(|w| w.to_bits()).collect()));
    }
    let stats = svc.stop();

    assert_eq!(stats.bars, live_bars, "the updater must consume the whole live feed");
    assert!(stats.promoted >= 1, "at least one hot swap must have landed: {stats:?}");
    assert_eq!(stats.rolled_back, 0);
    assert_eq!(registry.live_version("live"), Some(stats.live_version));
    assert!(stats.live_version > 1);

    let mut versions: Vec<u64> = observed.iter().map(|(v, _)| *v).collect();
    versions.dedup();
    assert!(!observed.is_empty(), "the soak must overlap the stream run");
    let distinct: std::collections::BTreeSet<u64> = versions.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "the soak must observe serving before and after a swap, saw versions {distinct:?}"
    );
    // Versions only ever move forward.
    assert!(versions.windows(2).all(|w| w[0] < w[1]), "out-of-order versions: {versions:?}");

    // Bit-identity: every response matches the direct forward pass of the
    // exact version it was stamped with.
    let (window, prev) = probe_inputs(&net_cfg);
    for (version, got) in &observed {
        let pin = registry
            .resolve_version("live", *version)
            .unwrap_or_else(|| panic!("version {version} not retained"));
        let want: Vec<u64> = pin.net().act(&window, &prev).iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, &want, "response stamped v{version} diverges from that version's act()");
    }
    server.shutdown();
}

/// Injecting a wildly divergent candidate through the promotion gate on a
/// live server: the gate detects the divergence on the shadow window before
/// publication, so the candidate never enters the registry and every client
/// keeps being decided by the exact pre-injection network.
#[test]
fn injected_divergent_candidate_never_serves_on_a_live_server() {
    let ds = regime_shift_dataset(280);
    let net_cfg = small_cfg();
    let good = PolicyNet::new(Variant::PpnLstm, net_cfg.clone(), &mut StdRng::seed_from_u64(1));
    let evil = PolicyNet::new(Variant::PpnLstm, net_cfg.clone(), &mut StdRng::seed_from_u64(666));
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("live", good);
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).unwrap();
    let rollbacks_before = ppn_stream::metrics::rollbacks().get();

    let mut client = HttpClient::connect(server.addr()).unwrap();
    let body = decide_body(&net_cfg, "live");
    let mut decide = || {
        let resp = client.request("POST", "/decide", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(version_header(&resp.headers), Some(1));
        let parsed: DecideResponse = serde_json::from_str(&resp.body).unwrap();
        parsed.weights.iter().map(|w| w.to_bits()).collect::<Vec<u64>>()
    };
    let before = decide();

    // Threshold so tight any differently-initialised net trips it.
    let cfg = StreamConfig { divergence_threshold: 1e-9, ..StreamConfig::default() };
    let promotion = promote(&registry, "live", evil, &ds, ds.split, &cfg);
    assert_eq!(promotion.candidate_version, 0);
    assert_eq!(promotion.outcome, PromotionOutcome::RolledBack { restored: 1 });
    assert!(promotion.divergence.unwrap().max_l1 > 1e-9);
    assert!(ppn_stream::metrics::rollbacks().get() > rollbacks_before);

    // v1 never stopped serving, bit for bit.
    assert_eq!(decide(), before, "the rejected candidate must never decide a request");

    // The candidate took no version number and no swap.
    let models = client.request("GET", "/models", "").unwrap();
    assert_eq!(models.status, 200);
    assert!(models.body.contains("\"live_version\":1"), "{}", models.body);
    assert!(models.body.contains("\"swaps\":0"), "{}", models.body);
    assert!(!models.body.contains("\"version\":2"), "{}", models.body);
    assert!(registry.resolve_version("live", 2).is_none());
    server.shutdown();
}
