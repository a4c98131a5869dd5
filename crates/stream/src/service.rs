//! The streaming updater service: one owned thread that trains on each new
//! bar and periodically promotes refreshed versions into the shared model
//! registry. It makes no decisions of its own: clients get theirs from
//! `/decide` on the registry's live version.
//!
//! This is the only ppn-stream module allowed to spawn a thread (the
//! ppn-check `no-thread` allowlist pins it): exactly one updater thread per
//! [`StreamService`], owning the bar → train → snapshot → promote loop end
//! to end. Forward and backward passes inside the loop run on this
//! thread too: the tensor kernels never fan out further.
//!
//! Serving is never blocked by the updater: the registry swap is an
//! epoch-style pointer store, and the expensive pieces (gradient steps,
//! network snapshot, shadow forward passes) all happen outside the
//! registry's locks.

use crate::{metrics, promote, publish_finite, StreamConfig};
use ppn_core::config::{RewardConfig, TrainConfig};
use ppn_core::ppn::PolicyNet;
use ppn_core::trainer::Trainer;
use ppn_market::Dataset;
use ppn_serve::ModelRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Progress counters for one updater run. Snapshot with
/// [`StreamService::stats`] while live, or take the final report from
/// [`StreamService::stop`].
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct StreamStats {
    /// Live bars trained on.
    pub bars: u64,
    /// Versions that entered the registry (including the initial one).
    pub publishes: u64,
    /// Candidates that passed the shadow comparison and were published.
    pub promoted: u64,
    /// Candidates rejected before publication: refused for a non-finite
    /// parameter, or diverged past the threshold. None of them served.
    pub rolled_back: u64,
    /// Shadow-window max-L1 divergence of the most recent shadow check
    /// (0 until the first one).
    pub last_divergence: f64,
    /// Version currently serving (0 until the initial publish lands).
    pub live_version: u64,
    /// True once the last bar is trained on or a stop was requested.
    pub finished: bool,
    /// True when the updater thread died by panic; serving keeps the last
    /// published version and the stream adapts no further.
    pub panicked: bool,
}

/// A running streaming updater.
///
/// Created with [`StreamService::start`], which returns immediately; the
/// updater pre-trains, publishes its initial version, and then adapts
/// online on its own thread. Call [`StreamService::stop`] to request
/// shutdown and join.
pub struct StreamService {
    handle: std::thread::JoinHandle<()>,
    stop: Arc<AtomicBool>,
    stats: Arc<parking_lot::Mutex<StreamStats>>,
}

impl StreamService {
    /// Spawns the updater thread.
    ///
    /// `net` is the (typically untrained) network to start from;
    /// `pretrain.steps` offline gradient steps run on the training split
    /// before the initial version is published under `name`, after which
    /// the updater walks the bars from `dataset.split` onward — taking one
    /// online gradient step per bar on the history before it, and every
    /// `cfg.publish_every` bars promoting a snapshot through the
    /// divergence gate ([`promote`]).
    ///
    /// The caller must size the problem so online steps can sample:
    /// `dataset.split - pretrain.batch` must exceed the network's window
    /// (the trainer's no-look-ahead sampling precondition).
    pub fn start(
        registry: Arc<ModelRegistry>,
        name: impl Into<String>,
        dataset: Arc<Dataset>,
        net: PolicyNet,
        reward: RewardConfig,
        pretrain: TrainConfig,
        cfg: StreamConfig,
    ) -> StreamService {
        let name = name.into();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(parking_lot::Mutex::new(StreamStats::default()));
        let worker = StreamWorker {
            registry,
            name,
            dataset,
            cfg,
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
        };
        let handle = std::thread::spawn(move || worker.run(net, reward, pretrain));
        StreamService { handle, stop, stats }
    }

    /// A point-in-time copy of the updater's progress counters.
    pub fn stats(&self) -> StreamStats {
        self.stats.lock().clone()
    }

    /// True once the updater thread has exited (bars exhausted or stop
    /// requested).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Requests shutdown, joins the updater thread, and returns the final
    /// counters; [`StreamStats::panicked`] reports a crashed updater.
    pub fn stop(self) -> StreamStats {
        self.stop.store(true, Ordering::Relaxed);
        // The join error is the panic payload, which the panic hook already
        // printed; the crash itself is recorded by the worker's `PanicFlag`.
        let _ = self.handle.join();
        let stats = self.stats.lock().clone();
        stats
    }
}

/// Records a crash in the shared counters when the updater thread unwinds
/// past it, so a dead stream is visible before anyone joins it.
struct PanicFlag<'a>(&'a parking_lot::Mutex<StreamStats>);

impl Drop for PanicFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            metrics::updater_panics().inc();
            self.0.lock().panicked = true;
        }
    }
}

/// Everything the updater thread owns besides its trainer.
struct StreamWorker {
    registry: Arc<ModelRegistry>,
    name: String,
    dataset: Arc<Dataset>,
    cfg: StreamConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<parking_lot::Mutex<StreamStats>>,
}

impl StreamWorker {
    fn run(self, net: PolicyNet, reward: RewardConfig, pretrain: TrainConfig) {
        let _crash = PanicFlag(&self.stats);
        let _span = ppn_obs::span!("stream.run");
        // Pre-train on the training split, publish the initial version.
        let mut trainer = Trainer::with_net(Arc::clone(&self.dataset), net, reward, pretrain);
        trainer.train();
        // No shadow check: the initial version replaces whatever the
        // registry served before the stream started.
        match publish_finite(&self.registry, &self.name, trainer.net.snapshot()) {
            Some((v1, _)) => {
                {
                    let mut s = self.stats.lock();
                    s.publishes = 1;
                    s.live_version = v1;
                }
                ppn_obs::obs_info!(
                    "stream: '{}' initial version v{v1} published, training from bar {}",
                    self.name,
                    self.dataset.split
                );
            }
            None => self.stats.lock().rolled_back = 1,
        }

        let bars_counter = metrics::bars();
        let mut since_publish = 0usize;

        for t in self.dataset.split..self.dataset.periods() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            // Bars before `t` become trainable, then one gradient step.
            trainer.extend_horizon(t);
            trainer.step();
            bars_counter.inc();
            self.stats.lock().bars += 1;

            since_publish += 1;
            if since_publish >= self.cfg.publish_every {
                since_publish = 0;
                let candidate = trainer.net.snapshot();
                let promotion =
                    promote(&self.registry, &self.name, candidate, &self.dataset, t, &self.cfg);
                let mut s = self.stats.lock();
                if let Some(report) = &promotion.divergence {
                    s.last_divergence = report.max_l1;
                }
                if promotion.is_live() {
                    s.publishes += 1;
                    s.promoted += 1;
                    s.live_version = promotion.candidate_version;
                } else {
                    s.rolled_back += 1;
                }
            }

            if !self.cfg.feed_period.is_zero() {
                std::thread::sleep(self.cfg.feed_period);
            }
        }
        self.stats.lock().finished = true;
        ppn_obs::obs_info!("stream: '{}' updater finished", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_core::config::NetConfig;
    use ppn_core::ppn::Variant;
    use ppn_market::{stitched_dataset, MarketConfig, Preset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_world() -> (Arc<Dataset>, PolicyNet, RewardConfig, TrainConfig) {
        let seg = MarketConfig { assets: 3, periods: 260, seed: 11, ..MarketConfig::default() };
        let ds = Arc::new(stitched_dataset(Preset::CryptoA, &[seg], 200));
        let net_cfg = NetConfig { window: 8, lstm_hidden: 4, ..NetConfig::paper(3) };
        let net = PolicyNet::new(Variant::PpnLstm, net_cfg, &mut StdRng::seed_from_u64(5));
        let pretrain = TrainConfig { steps: 3, batch: 8, ..TrainConfig::default() };
        (ds, net, RewardConfig::default(), pretrain)
    }

    #[test]
    fn updater_replays_the_whole_feed_and_publishes_on_cadence() {
        let (ds, net, reward, pretrain) = tiny_world();
        let registry = Arc::new(ModelRegistry::new());
        let cfg = StreamConfig {
            publish_every: 20,
            divergence_threshold: 2.1, // simplex L1 caps at 2.0: never rejects
            ..StreamConfig::default()
        };
        let svc = StreamService::start(
            Arc::clone(&registry),
            "live",
            Arc::clone(&ds),
            net,
            reward,
            pretrain,
            cfg,
        );
        while !svc.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = svc.stop();
        // 260 periods − 200 warm-up bars = 60 live bars, cadence 20.
        assert_eq!(stats.bars, 60);
        assert_eq!(stats.publishes, 1 + 3, "initial publish + three cadence snapshots");
        assert_eq!(stats.promoted, 3);
        assert_eq!(stats.rolled_back, 0);
        assert!(stats.finished);
        assert_eq!(registry.live_version("live"), Some(stats.live_version));
        assert_eq!(stats.live_version, 4);
    }

    fn param_bits(net: &PolicyNet) -> Vec<u64> {
        net.store
            .ids()
            .flat_map(|id| net.store.value(id).data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn published_versions_match_a_plain_trainer_replay_bit_for_bit() {
        let (ds, net, reward, pretrain) = tiny_world();
        let registry = Arc::new(ModelRegistry::with_retention(8));
        let cfg = StreamConfig {
            publish_every: 20,
            divergence_threshold: 2.1,
            ..StreamConfig::default()
        };
        let svc = StreamService::start(
            Arc::clone(&registry),
            "live",
            Arc::clone(&ds),
            net,
            reward,
            pretrain.clone(),
            cfg,
        );
        while !svc.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(svc.stop().publishes, 4);

        // The same pretrain, then one gradient step per live bar.
        let (_, net, _, _) = tiny_world();
        let mut trainer = Trainer::with_net(Arc::clone(&ds), net, reward, pretrain);
        trainer.train();
        let mut want = vec![param_bits(&trainer.net)];
        for (i, t) in (ds.split..ds.periods()).enumerate() {
            trainer.extend_horizon(t);
            trainer.step();
            if (i + 1) % 20 == 0 {
                want.push(param_bits(&trainer.net));
            }
        }
        for (v, want) in (1..).zip(&want) {
            let pin = registry.resolve_version("live", v).expect("every version retained");
            assert!(param_bits(pin.net()) == *want, "v{v} differs from the replay");
        }
    }

    #[test]
    fn stop_mid_feed_joins_promptly() {
        let (ds, net, reward, pretrain) = tiny_world();
        let registry = Arc::new(ModelRegistry::new());
        let cfg = StreamConfig {
            feed_period: std::time::Duration::from_millis(5),
            publish_every: 1_000_000, // never publishes past the initial one
            ..StreamConfig::default()
        };
        let svc =
            StreamService::start(Arc::clone(&registry), "live", ds, net, reward, pretrain, cfg);
        // Wait for the initial publication, then cut the feed short.
        while registry.live_version("live").is_none() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = svc.stop();
        assert!(stats.bars < 60, "stop must interrupt the paced feed");
        assert_eq!(stats.publishes, 1);
        assert_eq!(registry.live_version("live"), Some(1));
    }

    #[test]
    fn stop_reports_a_panicked_updater() {
        let (ds, net, reward, pretrain) = tiny_world();
        // A batch wider than the 200-bar training split cannot be sampled,
        // so pretraining panics before anything is published.
        let pretrain = TrainConfig { batch: 400, ..pretrain };
        let registry = Arc::new(ModelRegistry::new());
        let panics = metrics::updater_panics().get();
        let svc = StreamService::start(
            Arc::clone(&registry),
            "live",
            ds,
            net,
            reward,
            pretrain,
            StreamConfig::default(),
        );
        let stats = svc.stop();
        assert!(stats.panicked);
        assert!(!stats.finished);
        assert_eq!(stats.publishes, 0);
        assert_eq!(registry.live_version("live"), None);
        if ppn_obs::metrics_enabled() {
            assert!(metrics::updater_panics().get() > panics);
        }
    }
}
