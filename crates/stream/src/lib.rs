#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming online-adaptation pipeline: keep a served policy learning on a
//! live bar feed, and hot-swap refreshed versions into the model registry
//! with automatic rollback when a candidate diverges.
//!
//! The paper trains offline and freezes the policy for the test split; the
//! EIIE framework it builds on supports *online* learning, and `ppn-core`'s
//! [`OnlineNetPolicy`](ppn_core::online::OnlineNetPolicy) already implements
//! the per-period gradient steps. This crate closes the remaining gap to a
//! *serving* deployment: a [`StreamService`] owns one updater thread that
//!
//! 1. replays bars from a [`ppn_market::LiveFeed`] (simulated live data),
//! 2. decides and adapts through the online policy (zero look-ahead — the
//!    trainer's sampling horizon always stays strictly below the current
//!    bar),
//! 3. every `publish_every` bars snapshots the network and runs it through
//!    [`promote`]: publish into the shared
//!    [`ModelRegistry`](ppn_serve::ModelRegistry) (a zero-downtime
//!    epoch-style pointer swap — in-flight `/decide` batches keep their
//!    pinned version), then shadow-compare the candidate against the
//!    previously-live version over recent bars and roll back automatically
//!    if the action divergence exceeds a threshold.
//!
//! Divergence is measured as the maximum L1 distance between the two
//! versions' portfolio vectors over a shadow window of recent bars (both
//! actions lie on the simplex, so the distance is in `[0, 2]` — see
//! [`divergence`]). The threshold guards serving against a corrupted or
//! destabilised candidate (e.g. a learning-rate blow-up mid-stream) without
//! requiring human intervention: traffic is on the candidate only for the
//! duration of the shadow check, and the rolled-back-to version keeps its
//! number so stamped responses stay attributable.
//!
//! Knobs (see `env_manifest.toml`): `PPN_STREAM_FEED_MS` paces the simulated
//! feed, `PPN_STREAM_PUBLISH_EVERY` sets the bars-per-checkpoint cadence,
//! and `PPN_STREAM_DIVERGENCE` sets the rollback threshold.

/// Shadow comparison between two policy versions over recent bars.
pub mod divergence;
/// The updater thread: feed → decide/train → snapshot → promote.
pub mod service;

pub use divergence::{shadow_divergence, DivergenceReport};
pub use service::{StreamService, StreamStats};

use ppn_serve::{ModelRegistry, ModelVersion};
use std::time::Duration;

/// Pacing and promotion knobs for the streaming updater.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Delay between simulated bars (`PPN_STREAM_FEED_MS`; 0 = replay as
    /// fast as the updater can train, the right setting for tests and
    /// benches).
    pub feed_period: Duration,
    /// Bars between candidate publications (`PPN_STREAM_PUBLISH_EVERY`).
    pub publish_every: usize,
    /// Max allowed shadow-window action divergence (L1, in `[0, 2]`) before
    /// a freshly-published candidate is rolled back
    /// (`PPN_STREAM_DIVERGENCE`).
    pub divergence_threshold: f64,
    /// Recent bars the shadow comparison replays through both versions.
    pub shadow_window: usize,
    /// Gradient steps the online policy takes per arriving bar.
    pub steps_per_bar: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            feed_period: Duration::from_millis(0),
            publish_every: 16,
            divergence_threshold: 0.75,
            shadow_window: 8,
            steps_per_bar: 1,
        }
    }
}

impl StreamConfig {
    /// Defaults with the `PPN_STREAM_*` environment overrides applied
    /// (unparseable values fall back to the default silently — the updater
    /// must not fail to start over a typo'd knob).
    pub fn from_env() -> Self {
        let mut cfg = StreamConfig::default();
        if let Some(ms) = parse_env(std::env::var("PPN_STREAM_FEED_MS").ok()) {
            cfg.feed_period = Duration::from_millis(ms);
        }
        if let Some(n) = parse_env::<usize>(std::env::var("PPN_STREAM_PUBLISH_EVERY").ok()) {
            cfg.publish_every = n.max(1);
        }
        if let Some(d) = parse_env(std::env::var("PPN_STREAM_DIVERGENCE").ok()) {
            cfg.divergence_threshold = d;
        }
        cfg
    }
}

fn parse_env<T: std::str::FromStr>(raw: Option<String>) -> Option<T> {
    raw.and_then(|s| s.trim().parse().ok())
}

/// Stream-side metric registration, one function per metric so call sites
/// and the Prometheus endpoint agree on names.
pub mod metrics {
    /// Bars consumed from the live feed.
    pub fn bars() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.bars")
    }

    /// Candidate versions published into the registry.
    pub fn publishes() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.publishes")
    }

    /// Candidates rolled back for exceeding the divergence threshold.
    pub fn rollbacks() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.rollbacks")
    }

    /// Shadow-window max-L1 divergence per promotion (simplex L1 ∈ [0, 2]).
    pub fn divergence() -> ppn_obs::metrics::Histogram {
        ppn_obs::histogram("stream.divergence", &[0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
    }

    /// Updater threads that died by panic.
    pub fn updater_panics() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.updater_panics")
    }

    /// Wall-clock milliseconds the registry swap (publish call) took.
    pub fn swap_ms() -> ppn_obs::metrics::Histogram {
        ppn_obs::histogram("stream.swap_ms", &[0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 25.0])
    }

    /// Wall-clock milliseconds the shadow divergence check took.
    pub fn shadow_ms() -> ppn_obs::metrics::Histogram {
        ppn_obs::histogram("stream.shadow_ms", &[0.1, 0.5, 1.0, 5.0, 25.0, 100.0])
    }
}

/// What [`promote`] did with a candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromotionOutcome {
    /// First publication under this name — nothing to compare against.
    First,
    /// The candidate stayed live; shadow divergence was within threshold.
    Promoted,
    /// The candidate exceeded the divergence threshold and serving was
    /// rolled back to the version that was live before the publish.
    RolledBack {
        /// The version serving again after the rollback.
        restored: ModelVersion,
    },
}

/// Outcome report of one [`promote`] call.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// Version the candidate was published as (live unless rolled back).
    pub candidate_version: ModelVersion,
    /// Whether the candidate survived the shadow comparison.
    pub outcome: PromotionOutcome,
    /// Shadow-window divergence vs the previously-live version (`None` on
    /// a first publication).
    pub divergence: Option<DivergenceReport>,
    /// How long the registry pointer swap (the publish call) took.
    pub swap_latency: Duration,
}

impl Promotion {
    /// True when the candidate is still the live version.
    pub fn is_live(&self) -> bool {
        !matches!(self.outcome, PromotionOutcome::RolledBack { .. })
    }
}

/// Publishes `candidate` under `name` and guards the swap with a shadow
/// comparison: replay the `cfg.shadow_window` bars ending at `t_end`
/// through both the candidate and the previously-live version, and roll
/// back if the worst-case action divergence exceeds
/// `cfg.divergence_threshold`.
///
/// Ordering is deliberate — publish first, compare second. The swap is
/// zero-downtime either way (pointer store), and publishing first means the
/// shadow check exercises exactly the artifact that is serving, so a
/// rollback also exercises the same path an operator would use via
/// `POST /rollback`.
pub fn promote(
    registry: &ModelRegistry,
    name: &str,
    candidate: ppn_core::ppn::PolicyNet,
    dataset: &ppn_market::Dataset,
    t_end: usize,
    cfg: &StreamConfig,
) -> Promotion {
    let previous = registry.resolve(name);
    let swap_start = ppn_obs::clock::now();
    let candidate_version = registry.publish(name, candidate);
    let swap_latency = swap_start.elapsed();
    metrics::publishes().inc();
    metrics::swap_ms().observe(swap_latency.as_secs_f64() * 1e3);

    let Some(previous) = previous else {
        return Promotion {
            candidate_version,
            outcome: PromotionOutcome::First,
            divergence: None,
            swap_latency,
        };
    };

    let shadow_start = ppn_obs::clock::now();
    let live = registry.resolve_version(name, candidate_version);
    let report = match live {
        Some(live) => {
            shadow_divergence(previous.net(), live.net(), dataset, t_end, cfg.shadow_window)
        }
        // Unreachable in practice (we just published), but degrade to an
        // empty report rather than panic in library code.
        None => DivergenceReport { max_l1: 0.0, mean_l1: 0.0, windows: 0 },
    };
    metrics::shadow_ms().observe(shadow_start.elapsed().as_secs_f64() * 1e3);
    metrics::divergence().observe(report.max_l1);

    if report.max_l1 > cfg.divergence_threshold
        && registry.rollback(name, previous.version()).is_ok()
    {
        metrics::rollbacks().inc();
        ppn_obs::obs_warn!(
            "stream: candidate v{candidate_version} of '{name}' diverged \
             (max L1 {:.4} > {:.4}), rolled back to v{}",
            report.max_l1,
            cfg.divergence_threshold,
            previous.version()
        );
        return Promotion {
            candidate_version,
            outcome: PromotionOutcome::RolledBack { restored: previous.version() },
            divergence: Some(report),
            swap_latency,
        };
    }
    Promotion {
        candidate_version,
        outcome: PromotionOutcome::Promoted,
        divergence: Some(report),
        swap_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_core::config::NetConfig;
    use ppn_core::ppn::{PolicyNet, Variant};
    use ppn_market::{Dataset, Preset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64, assets: usize) -> PolicyNet {
        let cfg = NetConfig { window: 8, lstm_hidden: 4, ..NetConfig::paper(assets) };
        PolicyNet::new(Variant::PpnLstm, cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn env_overrides_apply_and_bad_values_fall_back() {
        std::env::set_var("PPN_STREAM_FEED_MS", "25");
        std::env::set_var("PPN_STREAM_PUBLISH_EVERY", "0");
        std::env::set_var("PPN_STREAM_DIVERGENCE", "not-a-number");
        let cfg = StreamConfig::from_env();
        std::env::remove_var("PPN_STREAM_FEED_MS");
        std::env::remove_var("PPN_STREAM_PUBLISH_EVERY");
        std::env::remove_var("PPN_STREAM_DIVERGENCE");
        assert_eq!(cfg.feed_period, Duration::from_millis(25));
        assert_eq!(cfg.publish_every, 1, "publish cadence is clamped to at least 1");
        assert_eq!(
            cfg.divergence_threshold.to_bits(),
            StreamConfig::default().divergence_threshold.to_bits()
        );
    }

    #[test]
    fn first_publication_skips_the_shadow_check() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        let p =
            promote(&reg, "m", small_net(1, ds.assets()), &ds, ds.split, &StreamConfig::default());
        assert_eq!(p.candidate_version, 1);
        assert_eq!(p.outcome, PromotionOutcome::First);
        assert!(p.divergence.is_none());
        assert!(p.is_live());
    }

    #[test]
    fn identical_candidate_promotes_with_zero_divergence() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        let cfg = StreamConfig { divergence_threshold: 1e-12, ..StreamConfig::default() };
        reg.publish("m", small_net(7, ds.assets()));
        // Bit-identical weights → bit-identical actions → max L1 exactly 0.
        let p = promote(&reg, "m", small_net(7, ds.assets()), &ds, ds.split, &cfg);
        assert_eq!(p.outcome, PromotionOutcome::Promoted);
        let report = p.divergence.unwrap();
        assert_eq!(report.max_l1.to_bits(), 0.0_f64.to_bits());
        assert_eq!(report.windows, cfg.shadow_window);
        assert_eq!(reg.live_version("m"), Some(2));
    }

    #[test]
    fn diverging_candidate_is_rolled_back_to_previous_live() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        // Threshold so tight that any differently-initialised net trips it.
        let cfg = StreamConfig { divergence_threshold: 1e-9, ..StreamConfig::default() };
        reg.publish("m", small_net(1, ds.assets()));
        let before = reg.resolve("m").unwrap();
        let p = promote(&reg, "m", small_net(999, ds.assets()), &ds, ds.split, &cfg);
        assert_eq!(p.outcome, PromotionOutcome::RolledBack { restored: 1 });
        assert!(!p.is_live());
        assert!(p.divergence.unwrap().max_l1 > 1e-9);
        // The exact previous network serves again; the candidate's number is
        // burned, not reused.
        let after = reg.resolve("m").unwrap();
        assert_eq!(after.version(), 1);
        assert!(std::sync::Arc::ptr_eq(after.net(), before.net()));
        assert_eq!(reg.publish("m", small_net(2, ds.assets())), 3);
    }

    #[test]
    fn generous_threshold_promotes_a_different_net() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        // Simplex L1 caps at 2.0, so 2.1 can never trip — promotion must
        // stick even for unrelated networks.
        let cfg = StreamConfig { divergence_threshold: 2.1, ..StreamConfig::default() };
        reg.publish("m", small_net(1, ds.assets()));
        let p = promote(&reg, "m", small_net(999, ds.assets()), &ds, ds.split, &cfg);
        assert_eq!(p.outcome, PromotionOutcome::Promoted);
        let report = p.divergence.unwrap();
        assert!(report.max_l1 <= 2.0 + 1e-12);
        assert!(report.mean_l1 <= report.max_l1);
        assert_eq!(reg.live_version("m"), Some(2));
    }
}
