//! Concurrent versioned model store: the set of named networks a server
//! instance decides with, each name carrying a monotonically-versioned
//! history so the streaming updater can hot-swap candidates in, and an
//! operator can roll back, without interrupting serving.
//!
//! ## Swap semantics (no torn models, no blocking decides)
//!
//! Publishing is an epoch-style pointer swap. A candidate network is fully
//! constructed (and `Arc`-wrapped) *before* the registry's write lock is
//! taken, so the critical section is a pointer store plus history
//! bookkeeping — never a model build, deserialize, or forward pass. Readers
//! take a short read lock only to clone the live `Arc` into a
//! [`PinnedModel`]; the batcher resolves once per batch and holds the pin
//! for the whole forward pass, so an in-flight `/decide` either sees the
//! complete old version or the complete new one, and is never blocked by a
//! concurrent publish for longer than the pointer swap itself.
//!
//! Every live-pointer change after a name's initial publication (overwrite
//! publishes and rollbacks alike) increments the `serve.model_swaps`
//! counter — there is no silent-overwrite path anymore.

use ppn_core::ppn::PolicyNet;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Monotonic per-name version number. Starts at 1 for a name's first
/// publication and never repeats, even across rollbacks (rolling back
/// re-points the live pointer at an old version, it does not renumber).
pub type ModelVersion = u64;

/// How many versions of each model the registry retains by default.
pub const DEFAULT_RETENTION: usize = 8;

/// A version-stamped snapshot of one model, cheap to clone.
///
/// Resolution hands out a pin rather than a bare `Arc` so consumers can
/// stamp the exact version into responses, traces, and bit-identity checks.
/// Holding a pin keeps that version's network alive even after retention
/// evicts it from the history.
#[derive(Clone)]
pub struct PinnedModel {
    name: String,
    version: ModelVersion,
    net: Arc<PolicyNet>,
}

impl std::fmt::Debug for PinnedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedModel")
            .field("name", &self.name)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl PinnedModel {
    /// Registry name this pin resolves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pinned version.
    pub fn version(&self) -> ModelVersion {
        self.version
    }

    /// The pinned network.
    pub fn net(&self) -> &Arc<PolicyNet> {
        &self.net
    }
}

/// Why a registry mutation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No model is registered under the given name.
    UnknownModel(String),
    /// The name exists but the requested version is not in its retained
    /// history (never published, or already evicted by retention).
    UnknownVersion {
        /// The model name.
        model: String,
        /// The version that could not be found.
        version: ModelVersion,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            RegistryError::UnknownVersion { model, version } => {
                write!(f, "model '{model}' has no retained version {version}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// One retained version in a model's history.
#[derive(Clone)]
struct VersionEntry {
    version: ModelVersion,
    net: Arc<PolicyNet>,
    published_unix_ms: u64,
}

/// Per-name state: the live pointer plus the retained version history.
struct ModelState {
    live_version: ModelVersion,
    live: Arc<PolicyNet>,
    history: VecDeque<VersionEntry>,
    next_version: ModelVersion,
    swaps: u64,
    last_swap_unix_ms: u64,
}

/// Status of one retained version, as reported by `GET /models`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct VersionInfo {
    /// The version number.
    pub version: ModelVersion,
    /// Wall-clock publication time (unix milliseconds).
    pub published_unix_ms: u64,
}

/// Status of one registered model name, as reported by `GET /models`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ModelStatus {
    /// Registry name.
    pub name: String,
    /// The version currently serving `/decide` traffic.
    pub live_version: ModelVersion,
    /// Live-pointer changes since the initial publication (overwrite
    /// publishes + rollbacks).
    pub swaps: u64,
    /// Wall-clock time of the last live-pointer change (unix milliseconds);
    /// the initial publication counts.
    pub last_swap_unix_ms: u64,
    /// Retained history, oldest first.
    pub history: Vec<VersionInfo>,
}

/// Named collection of versioned live models.
///
/// All methods take `&self`: the registry is designed to be shared as an
/// `Arc<ModelRegistry>` between the event loop, the batcher, admin
/// endpoints, and the stream updater. `BTreeMap` keeps name iteration
/// deterministic, which keeps the batcher's per-model execution order
/// deterministic.
pub struct ModelRegistry {
    models: parking_lot::RwLock<BTreeMap<String, ModelState>>,
    retain: usize,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new()
    }
}

impl ModelRegistry {
    /// Empty registry with [`DEFAULT_RETENTION`] versions of history.
    pub fn new() -> Self {
        ModelRegistry::with_retention(DEFAULT_RETENTION)
    }

    /// Empty registry retaining the last `retain` versions per name
    /// (clamped to at least 1 — the live version is always retained).
    pub fn with_retention(retain: usize) -> Self {
        ModelRegistry { models: parking_lot::RwLock::new(BTreeMap::new()), retain: retain.max(1) }
    }

    /// Publishes `net` as the new live version of `name`, returning the
    /// version it was assigned. The first publication of a name gets
    /// version 1; later ones hot-swap the live pointer (a replaced name
    /// increments `serve.model_swaps`). The swap itself is a pointer store
    /// under a short write lock — in-flight batches keep their pins.
    pub fn publish(&self, name: impl Into<String>, net: PolicyNet) -> ModelVersion {
        let name = name.into();
        let net = Arc::new(net);
        let now_ms = ppn_obs::clock::unix_ms();
        let mut models = self.models.write();
        let (version, swapped) = match models.get_mut(&name) {
            Some(state) => {
                let version = state.next_version;
                state.next_version += 1;
                state.live_version = version;
                state.live = Arc::clone(&net);
                state.swaps += 1;
                state.last_swap_unix_ms = now_ms;
                state.history.push_back(VersionEntry { version, net, published_unix_ms: now_ms });
                while state.history.len() > self.retain {
                    state.history.pop_front();
                }
                (version, true)
            }
            None => {
                let mut history = VecDeque::new();
                history.push_back(VersionEntry {
                    version: 1,
                    net: Arc::clone(&net),
                    published_unix_ms: now_ms,
                });
                models.insert(
                    name.clone(),
                    ModelState {
                        live_version: 1,
                        live: net,
                        history,
                        next_version: 2,
                        swaps: 0,
                        last_swap_unix_ms: now_ms,
                    },
                );
                (1, false)
            }
        };
        drop(models);
        if swapped {
            crate::metrics::model_swaps().inc();
            ppn_obs::obs_info!("serve: hot-swapped model '{name}' to v{version}");
        } else {
            ppn_obs::obs_info!("serve: published model '{name}' v{version}");
        }
        version
    }

    /// Re-points `name`'s live pointer at a previously-published `version`
    /// still in the retained history. Counts as a swap. The rolled-back-to
    /// version keeps its number — no renumbering, so `/decide` responses
    /// stamped during the bad interval remain attributable.
    ///
    /// # Errors
    /// [`RegistryError::UnknownModel`] when the name was never published,
    /// [`RegistryError::UnknownVersion`] when the version is not retained.
    pub fn rollback(&self, name: &str, version: ModelVersion) -> Result<(), RegistryError> {
        let now_ms = ppn_obs::clock::unix_ms();
        let mut models = self.models.write();
        let state =
            models.get_mut(name).ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        let entry = state
            .history
            .iter()
            .find(|e| e.version == version)
            .ok_or(RegistryError::UnknownVersion { model: name.to_string(), version })?;
        state.live = Arc::clone(&entry.net);
        state.live_version = version;
        state.swaps += 1;
        state.last_swap_unix_ms = now_ms;
        drop(models);
        crate::metrics::model_swaps().inc();
        ppn_obs::obs_warn!("serve: rolled back model '{name}' to v{version}");
        Ok(())
    }

    /// Loads a [`ppn_core::persist`] checkpoint from `path` and publishes it
    /// under `name`. Fails with the checkpoint loader's error (bad schema
    /// version, unknown variant, shape mismatch, …).
    pub fn load_checkpoint(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> io::Result<ModelVersion> {
        let net = PolicyNet::load(path)?;
        Ok(self.publish(name, net))
    }

    /// Resolves `name` to a version-stamped pin of its live network, if
    /// any. The returned [`PinnedModel`] stays valid (and bit-identical)
    /// regardless of later publishes or rollbacks.
    pub fn resolve(&self, name: &str) -> Option<PinnedModel> {
        let models = self.models.read();
        models.get(name).map(|state| PinnedModel {
            name: name.to_string(),
            version: state.live_version,
            net: Arc::clone(&state.live),
        })
    }

    /// Resolves a specific retained version of `name` (history lookups for
    /// bit-identity checks and shadow comparisons).
    pub fn resolve_version(&self, name: &str, version: ModelVersion) -> Option<PinnedModel> {
        let models = self.models.read();
        let state = models.get(name)?;
        let entry = state.history.iter().find(|e| e.version == version)?;
        Some(PinnedModel { name: name.to_string(), version, net: Arc::clone(&entry.net) })
    }

    /// The version currently serving `name`, if any.
    pub fn live_version(&self, name: &str) -> Option<ModelVersion> {
        self.models.read().get(name).map(|s| s.live_version)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models.read().keys().cloned().collect()
    }

    /// Per-name status report, sorted by name (`GET /models`).
    pub fn status(&self) -> Vec<ModelStatus> {
        let models = self.models.read();
        models
            .iter()
            .map(|(name, state)| ModelStatus {
                name: name.clone(),
                live_version: state.live_version,
                swaps: state.swaps,
                last_swap_unix_ms: state.last_swap_unix_ms,
                history: state
                    .history
                    .iter()
                    .map(|e| VersionInfo {
                        version: e.version,
                        published_unix_ms: e.published_unix_ms,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Number of registered model names.
    pub fn len(&self) -> usize {
        self.models.read().len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_core::config::NetConfig;
    use ppn_core::ppn::Variant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> PolicyNet {
        let cfg = NetConfig { window: 8, lstm_hidden: 4, ..NetConfig::paper(3) };
        PolicyNet::new(Variant::PpnLstm, cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn publish_assigns_monotonic_versions() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.publish("m", net(1)), 1);
        assert_eq!(reg.publish("m", net(2)), 2);
        assert_eq!(reg.publish("m", net(3)), 3);
        assert_eq!(reg.live_version("m"), Some(3));
        assert_eq!(reg.publish("other", net(4)), 1, "versions are per-name");
    }

    #[test]
    fn resolve_pins_survive_later_publishes() {
        let reg = ModelRegistry::new();
        reg.publish("m", net(1));
        let pin = reg.resolve("m").unwrap();
        assert_eq!(pin.version(), 1);
        reg.publish("m", net(2));
        let live = reg.resolve("m").unwrap();
        assert_eq!(live.version(), 2);
        assert!(!Arc::ptr_eq(pin.net(), live.net()), "new version is a different network");
        // The old pin still answers and matches the retained v1 exactly.
        let v1 = reg.resolve_version("m", 1).unwrap();
        assert!(Arc::ptr_eq(pin.net(), v1.net()));
    }

    #[test]
    fn rollback_restores_the_exact_old_network() {
        let reg = ModelRegistry::new();
        reg.publish("m", net(1));
        let v1 = reg.resolve("m").unwrap();
        reg.publish("m", net(2));
        reg.rollback("m", 1).unwrap();
        let live = reg.resolve("m").unwrap();
        assert_eq!(live.version(), 1);
        assert!(Arc::ptr_eq(live.net(), v1.net()));
        // Publishing after a rollback continues the version sequence.
        assert_eq!(reg.publish("m", net(3)), 3);
    }

    #[test]
    fn rollback_errors_are_precise() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.rollback("nope", 1), Err(RegistryError::UnknownModel("nope".into())));
        reg.publish("m", net(1));
        assert_eq!(
            reg.rollback("m", 9),
            Err(RegistryError::UnknownVersion { model: "m".into(), version: 9 })
        );
        // Failed rollbacks change nothing.
        assert_eq!(reg.live_version("m"), Some(1));
    }

    #[test]
    fn retention_evicts_oldest_versions() {
        let reg = ModelRegistry::with_retention(2);
        for s in 1..=4 {
            reg.publish("m", net(s));
        }
        assert!(reg.resolve_version("m", 1).is_none());
        assert!(reg.resolve_version("m", 2).is_none());
        assert!(reg.resolve_version("m", 3).is_some());
        assert!(reg.resolve_version("m", 4).is_some());
        assert_eq!(
            reg.rollback("m", 1),
            Err(RegistryError::UnknownVersion { model: "m".into(), version: 1 })
        );
    }

    #[test]
    fn status_reports_history_and_swaps() {
        let reg = ModelRegistry::new();
        reg.publish("m", net(1));
        reg.publish("m", net(2));
        reg.rollback("m", 1).unwrap();
        let status = reg.status();
        assert_eq!(status.len(), 1);
        let s = &status[0];
        assert_eq!(s.name, "m");
        assert_eq!(s.live_version, 1);
        assert_eq!(s.swaps, 2, "one overwrite publish + one rollback");
        assert!(s.last_swap_unix_ms > 0);
        assert_eq!(s.history.iter().map(|v| v.version).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn concurrent_resolves_across_publishes_never_tear() {
        // Readers hammering resolve() while a writer publishes must only
        // ever observe complete (version, net) pairs whose acts are
        // bit-identical to the retained entry of that version.
        let reg = Arc::new(ModelRegistry::new());
        reg.publish("m", net(1));
        let cfg = reg.resolve("m").unwrap().net().cfg.clone();
        let window: Vec<f64> = (0..cfg.assets * cfg.window * cfg.features)
            .map(|i| 1.0 + (i as f64 % 7.0) * 1e-3)
            .collect();
        let prev = vec![1.0 / (cfg.assets + 1) as f64; cfg.assets + 1];
        let workers = 4;
        let outcomes = ppn_tensor::par::with_threads(workers, || {
            ppn_tensor::par::par_map(workers, |w| {
                if w == 0 {
                    for s in 2..=6 {
                        reg.publish("m", net(s));
                    }
                    return true;
                }
                for _ in 0..40 {
                    let pin = reg.resolve("m").unwrap();
                    let got = pin.net().act(&window, &prev);
                    let want = reg
                        .resolve_version("m", pin.version())
                        .map(|p| p.net().act(&window, &prev));
                    if want != Some(got) {
                        return false;
                    }
                }
                true
            })
        });
        assert!(outcomes.into_iter().all(|ok| ok), "a resolve observed a torn model");
        assert_eq!(reg.live_version("m"), Some(6));
    }
}
