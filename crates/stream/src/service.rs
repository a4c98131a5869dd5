//! The streaming updater service: one owned thread that feeds bars through
//! an online policy and periodically promotes refreshed versions into the
//! shared model registry.
//!
//! This is the only ppn-stream module allowed to spawn a thread (the
//! ppn-check `no-thread` allowlist pins it): exactly one updater thread per
//! [`StreamService`], owning the feed → decide/train → snapshot → promote
//! loop end to end. Forward and backward passes inside the loop still run
//! on the `ppn_tensor::par` worker pool, so `PPN_THREADS` keeps governing
//! compute parallelism; this thread only sequences the pipeline.
//!
//! Serving is never blocked by the updater: the registry swap is an
//! epoch-style pointer store, and the expensive pieces (gradient steps,
//! network snapshot, shadow forward passes) all happen outside the
//! registry's locks.

use crate::{metrics, promote, PromotionOutcome, StreamConfig};
use ppn_core::config::{RewardConfig, TrainConfig};
use ppn_core::online::OnlineNetPolicy;
use ppn_core::ppn::PolicyNet;
use ppn_core::trainer::Trainer;
use ppn_market::{drifted_weights, Dataset, DecisionContext, LiveFeed, SequentialPolicy};
use ppn_serve::ModelRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Progress counters for one updater run. Snapshot with
/// [`StreamService::stats`] while live, or take the final report from
/// [`StreamService::stop`].
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct StreamStats {
    /// Bars consumed from the live feed.
    pub bars: u64,
    /// Candidate versions published (including the initial one).
    pub publishes: u64,
    /// Candidates that survived the shadow comparison.
    pub promoted: u64,
    /// Candidates rolled back for exceeding the divergence threshold.
    pub rolled_back: u64,
    /// Shadow-window max-L1 divergence of the most recent promotion
    /// (0 until the second publish).
    pub last_divergence: f64,
    /// Version currently serving (0 until the initial publish lands).
    pub live_version: u64,
    /// True once the feed is exhausted or a stop was requested.
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
    /// the feed replays bars from `dataset.split` onward — deciding,
    /// taking `cfg.steps_per_bar` online gradient steps per bar, and every
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

    /// True once the updater thread has exited (feed exhausted or stop
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

/// Everything the updater thread owns besides the policy itself.
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
        let v1 = self.registry.publish(&self.name, trainer.net.snapshot());
        metrics::publishes().inc();
        {
            let mut s = self.stats.lock();
            s.publishes = 1;
            s.live_version = v1;
        }
        ppn_obs::obs_info!(
            "stream: '{}' initial version v{v1} published, feeding from bar {}",
            self.name,
            self.dataset.split
        );

        let mut policy = OnlineNetPolicy::from_trainer(trainer, self.cfg.steps_per_bar);
        let mut feed = LiveFeed::new(Arc::clone(&self.dataset), self.dataset.split);
        let m1 = self.dataset.assets() + 1;
        let mut prev_action = vec![0.0; m1];
        prev_action[0] = 1.0;
        let bars_counter = metrics::bars();
        let mut since_publish = 0usize;

        while !self.stop.load(Ordering::Relaxed) {
            let Some(bar) = feed.next_bar() else { break };
            // Holdings drift with the realised relative before we re-decide.
            let drifted = drifted_weights(&prev_action, &bar.relative);
            let ctx = DecisionContext {
                t: bar.t,
                dataset: &self.dataset,
                history: &self.dataset.relatives[..bar.t],
                drifted: &drifted,
                prev_action: &prev_action,
            };
            prev_action = policy.decide_one(&ctx);
            bars_counter.inc();
            self.stats.lock().bars += 1;

            since_publish += 1;
            if since_publish >= self.cfg.publish_every {
                since_publish = 0;
                let candidate = policy.trainer().net.snapshot();
                let promotion =
                    promote(&self.registry, &self.name, candidate, &self.dataset, bar.t, &self.cfg);
                let mut s = self.stats.lock();
                s.publishes += 1;
                if let Some(report) = &promotion.divergence {
                    s.last_divergence = report.max_l1;
                }
                match promotion.outcome {
                    PromotionOutcome::RolledBack { restored } => {
                        s.rolled_back += 1;
                        s.live_version = restored;
                    }
                    _ => {
                        s.promoted += 1;
                        s.live_version = promotion.candidate_version;
                    }
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
            divergence_threshold: 2.1, // simplex L1 caps at 2.0: never rolls back
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
