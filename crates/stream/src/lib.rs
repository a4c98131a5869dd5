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
//! A candidate with any non-finite parameter never reaches the registry:
//! [`promote`] refuses it before publication. A non-finite action on the
//! shadow window counts as divergence over any threshold, so such a
//! candidate is rolled back.
//!
//! The knobs live in [`StreamConfig`]; callers set them in code. The online
//! policy takes one gradient step per bar.

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
    /// Delay between simulated bars (0 = replay as fast as the updater can
    /// train, the right setting for tests and benches).
    pub feed_period: Duration,
    /// Bars between candidate publications.
    pub publish_every: usize,
    /// Max allowed shadow-window action divergence (L1, in `[0, 2]`) before
    /// a freshly-published candidate is rolled back.
    pub divergence_threshold: f64,
    /// Recent bars the shadow comparison replays through both versions.
    pub shadow_window: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            feed_period: Duration::from_millis(0),
            publish_every: 16,
            divergence_threshold: 0.75,
            shadow_window: 8,
        }
    }
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
    /// The candidate had a non-finite parameter and was never published;
    /// serving is unchanged.
    Refused,
}

/// Outcome report of one [`promote`] call.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// Version the candidate was published as (live unless rolled back);
    /// 0 for a [`PromotionOutcome::Refused`] candidate, which gets none.
    pub candidate_version: ModelVersion,
    /// Whether the candidate survived the shadow comparison.
    pub outcome: PromotionOutcome,
    /// Shadow-window divergence vs the previously-live version (`None` on
    /// a first publication or a refusal).
    pub divergence: Option<DivergenceReport>,
    /// How long the registry pointer swap (the publish call) took.
    pub swap_latency: Duration,
}

impl Promotion {
    /// True when the candidate is still the live version.
    pub fn is_live(&self) -> bool {
        matches!(self.outcome, PromotionOutcome::First | PromotionOutcome::Promoted)
    }
}

/// Publishes `net` under `name` unless one of its parameters is non-finite,
/// returning the assigned version and how long the swap took. A refused
/// network is counted in `stream.rollbacks` and never reaches the registry.
pub(crate) fn publish_finite(
    registry: &ModelRegistry,
    name: &str,
    net: ppn_core::ppn::PolicyNet,
) -> Option<(ModelVersion, Duration)> {
    let store = &net.store;
    if !store.ids().all(|id| store.value(id).data().iter().all(|v| v.is_finite())) {
        metrics::rollbacks().inc();
        ppn_obs::obs_warn!("stream: refused a candidate of '{name}' with non-finite parameters");
        return None;
    }
    let swap_start = ppn_obs::clock::now();
    let version = registry.publish(name, net);
    let swap_latency = swap_start.elapsed();
    metrics::publishes().inc();
    metrics::swap_ms().observe(swap_latency.as_secs_f64() * 1e3);
    Some((version, swap_latency))
}

/// Publishes `candidate` under `name` and guards the swap with a shadow
/// comparison: replay the `cfg.shadow_window` bars ending at `t_end`
/// through both the candidate and the previously-live version, and roll
/// back if the worst-case action divergence exceeds
/// `cfg.divergence_threshold`. A candidate with a non-finite parameter is
/// refused before publication, on a first publication too.
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
    let Some((candidate_version, swap_latency)) = publish_finite(registry, name, candidate) else {
        return Promotion {
            candidate_version: 0,
            outcome: PromotionOutcome::Refused,
            divergence: None,
            swap_latency: Duration::ZERO,
        };
    };

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

    /// `net` with its first parameter scalar set to NaN.
    fn nan_poisoned(mut net: PolicyNet) -> PolicyNet {
        let id = net.store.ids().next().unwrap();
        net.store.value_mut(id).data_mut()[0] = f64::NAN;
        net
    }

    #[test]
    fn nan_candidate_is_refused_and_serving_is_unchanged() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        reg.publish("m", small_net(1, ds.assets()));
        let before = reg.resolve("m").unwrap();
        let rollbacks = metrics::rollbacks().get();
        let candidate = nan_poisoned(small_net(1, ds.assets()));
        let p = promote(&reg, "m", candidate, &ds, ds.split, &StreamConfig::default());
        assert_eq!(p.outcome, PromotionOutcome::Refused);
        assert!(!p.is_live());
        assert_eq!(p.candidate_version, 0);
        assert!(p.divergence.is_none());
        let after = reg.resolve("m").unwrap();
        assert_eq!(after.version(), 1);
        assert!(std::sync::Arc::ptr_eq(after.net(), before.net()));
        // The refused candidate burned no version number.
        assert_eq!(reg.publish("m", small_net(2, ds.assets())), 2);
        if ppn_obs::metrics_enabled() {
            assert!(metrics::rollbacks().get() > rollbacks);
        }
    }

    #[test]
    fn nan_first_publication_is_refused() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        let candidate = nan_poisoned(small_net(1, ds.assets()));
        let p = promote(&reg, "m", candidate, &ds, ds.split, &StreamConfig::default());
        assert_eq!(p.outcome, PromotionOutcome::Refused);
        assert!(!p.is_live());
        assert_eq!(reg.live_version("m"), None);
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
