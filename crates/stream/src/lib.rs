#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming online-adaptation pipeline: keep a served policy learning as
//! new bars arrive, and hot-swap refreshed versions into the model registry
//! once each candidate has passed a divergence gate.
//!
//! The paper trains offline and freezes the policy for the test split; the
//! EIIE framework it builds on supports *online* learning, and `ppn-core`'s
//! [`Trainer::extend_horizon`](ppn_core::trainer::Trainer::extend_horizon)
//! lets a trainer keep stepping as bars arrive. This crate closes the
//! remaining gap to a *serving* deployment: a [`StreamService`] owns one
//! updater thread that
//!
//! 1. walks the dataset's bars from its split onward (simulated live data;
//!    a [`ppn_market::stitched_dataset`] makes regime shifts),
//! 2. takes one gradient step per bar (zero look-ahead — the trainer's
//!    sampling horizon always stays strictly below the current bar), and
//!    decides nothing itself: clients decide through `/decide` on the
//!    registry's live version,
//! 3. every `publish_every` bars snapshots the network and runs it through
//!    [`promote`]: shadow-compare the candidate against the live version
//!    over recent bars, and publish it into the shared
//!    [`ModelRegistry`](ppn_serve::ModelRegistry) (a zero-downtime
//!    epoch-style pointer swap — in-flight `/decide` batches keep their
//!    pinned version) only if the action divergence stays within a
//!    threshold.
//!
//! Divergence is measured as the maximum L1 distance between the two
//! versions' portfolio vectors over a shadow window of recent bars (both
//! actions lie on the simplex, so the distance is in `[0, 2]` — see
//! [`divergence`]). The threshold guards serving against a corrupted or
//! destabilised candidate (e.g. a learning-rate blow-up mid-stream) without
//! requiring human intervention: a rejected candidate never serves, takes
//! no version number and costs no registry swap.
//!
//! A candidate with any non-finite parameter is refused without a shadow
//! check. A non-finite action on the shadow window counts as divergence
//! over any threshold, so such a candidate is rejected too.
//!
//! The knobs live in [`StreamConfig`]; callers set them in code. The updater
//! takes one gradient step per bar.

/// Shadow comparison between two policy versions over recent bars.
pub mod divergence;
/// The updater thread: bar → train → snapshot → promote.
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
    /// Max allowed shadow-window action divergence (L1, in `[0, 2]`) for a
    /// candidate to be published.
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
    /// Live bars the updater has trained on.
    pub fn bars() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.bars")
    }

    /// Candidate versions published into the registry.
    pub fn publishes() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.publishes")
    }

    /// Candidates rejected before publication: refused for a non-finite
    /// parameter, or diverged past the threshold.
    pub fn rollbacks() -> ppn_obs::metrics::Counter {
        ppn_obs::counter("stream.rollbacks")
    }

    /// Shadow-window max-L1 divergence per shadow check (simplex L1 ∈ [0, 2]).
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
    /// The candidate passed the shadow comparison and was published.
    Promoted,
    /// A rejection: the candidate diverged past the threshold and was never
    /// published.
    RolledBack {
        /// The version that kept serving.
        restored: ModelVersion,
    },
    /// The candidate had a non-finite parameter and was never published;
    /// serving is unchanged.
    Refused,
}

/// Outcome report of one [`promote`] call.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// Version the candidate was published as; 0 for a rejected candidate
    /// ([`PromotionOutcome::Refused`] or [`PromotionOutcome::RolledBack`]),
    /// which gets none.
    pub candidate_version: ModelVersion,
    /// Whether the candidate passed the gate.
    pub outcome: PromotionOutcome,
    /// Shadow-window divergence vs the live version (`None` on a first
    /// publication or a refusal).
    pub divergence: Option<DivergenceReport>,
    /// How long the registry pointer swap (the publish call) took; zero for
    /// a rejected candidate.
    pub swap_latency: Duration,
}

impl Promotion {
    /// True when the candidate was published and is now the live version.
    pub fn is_live(&self) -> bool {
        matches!(self.outcome, PromotionOutcome::First | PromotionOutcome::Promoted)
    }

    /// The report of a candidate that never reached the registry.
    fn rejected(outcome: PromotionOutcome, divergence: Option<DivergenceReport>) -> Promotion {
        Promotion { candidate_version: 0, outcome, divergence, swap_latency: Duration::ZERO }
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
    params_finite(name, &net).then(|| publish(registry, name, net))
}

/// True when every parameter of `net` is finite; otherwise counts the
/// refusal in `stream.rollbacks` and logs it.
fn params_finite(name: &str, net: &ppn_core::ppn::PolicyNet) -> bool {
    let store = &net.store;
    let finite = store.ids().all(|id| store.value(id).data().iter().all(|v| v.is_finite()));
    if !finite {
        metrics::rollbacks().inc();
        ppn_obs::obs_warn!("stream: refused a candidate of '{name}' with non-finite parameters");
    }
    finite
}

/// Publishes `net` under `name`, returning the assigned version and how
/// long the swap took.
fn publish(
    registry: &ModelRegistry,
    name: &str,
    net: ppn_core::ppn::PolicyNet,
) -> (ModelVersion, Duration) {
    let swap_start = ppn_obs::clock::now();
    let version = registry.publish(name, net);
    let swap_latency = swap_start.elapsed();
    metrics::publishes().inc();
    metrics::swap_ms().observe(swap_latency.as_secs_f64() * 1e3);
    (version, swap_latency)
}

/// Gates `candidate` and publishes it under `name` only if it passes. A
/// candidate with a non-finite parameter is refused, on a first
/// publication too. Otherwise the `cfg.shadow_window` bars ending at
/// `t_end` replay through both the candidate and the live version, and a
/// worst-case action divergence above `cfg.divergence_threshold` rejects
/// the candidate. A rejected candidate never enters the registry: the live
/// version, the history, the swap count and the next version number are
/// untouched, and the rejection is counted in `stream.rollbacks`.
///
/// The shadow check runs on the same `PolicyNet` that is then moved into
/// the registry, so the gate exercises exactly the artifact that serves.
pub fn promote(
    registry: &ModelRegistry,
    name: &str,
    candidate: ppn_core::ppn::PolicyNet,
    dataset: &ppn_market::Dataset,
    t_end: usize,
    cfg: &StreamConfig,
) -> Promotion {
    if !params_finite(name, &candidate) {
        return Promotion::rejected(PromotionOutcome::Refused, None);
    }
    let (outcome, divergence) = match registry.resolve(name) {
        None => (PromotionOutcome::First, None),
        Some(live) => {
            let shadow_start = ppn_obs::clock::now();
            let report =
                shadow_divergence(live.net(), &candidate, dataset, t_end, cfg.shadow_window);
            metrics::shadow_ms().observe(shadow_start.elapsed().as_secs_f64() * 1e3);
            metrics::divergence().observe(report.max_l1);
            if report.max_l1 > cfg.divergence_threshold {
                let restored = live.version();
                metrics::rollbacks().inc();
                ppn_obs::obs_warn!(
                    "stream: rejected a candidate of '{name}' that diverged \
                     (max L1 {:.4} > {:.4}); v{restored} keeps serving",
                    report.max_l1,
                    cfg.divergence_threshold
                );
                return Promotion::rejected(
                    PromotionOutcome::RolledBack { restored },
                    Some(report),
                );
            }
            (PromotionOutcome::Promoted, Some(report))
        }
    };
    let (candidate_version, swap_latency) = publish(registry, name, candidate);
    Promotion { candidate_version, outcome, divergence, swap_latency }
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

    /// Asserts that a rejected `promote` left the registry exactly as it
    /// was: only v1 in the history, no swap, the same live network, and the
    /// next publication numbered 2.
    fn assert_never_published(reg: &ModelRegistry, before: &ppn_serve::PinnedModel, p: &Promotion) {
        assert!(!p.is_live());
        assert_eq!(p.candidate_version, 0);
        assert_eq!(p.swap_latency, Duration::ZERO);
        let status = reg.status();
        let history: Vec<ModelVersion> = status[0].history.iter().map(|v| v.version).collect();
        assert_eq!(history, vec![1]);
        assert_eq!(status[0].swaps, 0);
        let after = reg.resolve("m").unwrap();
        assert_eq!(after.version(), 1);
        assert!(std::sync::Arc::ptr_eq(after.net(), before.net()));
        assert_eq!(reg.publish("m", small_net(2, before.net().cfg.assets)), 2);
    }

    #[test]
    fn diverging_candidate_is_rejected_before_publication() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        // Threshold so tight that any differently-initialised net trips it.
        let cfg = StreamConfig { divergence_threshold: 1e-9, ..StreamConfig::default() };
        reg.publish("m", small_net(1, ds.assets()));
        let before = reg.resolve("m").unwrap();
        let p = promote(&reg, "m", small_net(999, ds.assets()), &ds, ds.split, &cfg);
        assert_eq!(p.outcome, PromotionOutcome::RolledBack { restored: 1 });
        assert!(p.divergence.as_ref().unwrap().max_l1 > 1e-9);
        assert_never_published(&reg, &before, &p);
    }

    /// In a release build the finite and simplex contracts are compiled
    /// out, so the gate alone keeps a candidate with finite parameters but
    /// non-finite actions away from serving.
    #[cfg(not(debug_assertions))]
    #[test]
    fn non_finite_actions_are_rejected_in_release_builds() {
        let ds = Dataset::load(Preset::CryptoA);
        let reg = ModelRegistry::new();
        reg.publish("m", small_net(1, ds.assets()));
        let before = reg.resolve("m").unwrap();
        // Saturated decision weights overflow the votes, and the softmax of
        // infinite logits is NaN.
        let mut candidate = small_net(1, ds.assets());
        for id in candidate.store.ids().collect::<Vec<_>>() {
            if candidate.store.name(id).starts_with("decision.") {
                candidate.store.value_mut(id).data_mut().fill(f64::MAX);
            }
        }
        let k = candidate.cfg.window;
        let prev = vec![1.0 / (ds.assets() + 1) as f64; ds.assets() + 1];
        let action = candidate.act(&ds.window(ds.split - 1, k), &prev);
        assert!(action.iter().any(|w| !w.is_finite()), "the candidate must act non-finitely");

        let p = promote(&reg, "m", candidate, &ds, ds.split, &StreamConfig::default());
        assert_eq!(p.outcome, PromotionOutcome::RolledBack { restored: 1 });
        assert!(p.divergence.as_ref().unwrap().max_l1.is_infinite());
        assert_never_published(&reg, &before, &p);
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
