//! Online rolling adaptation (optional extension, EIIE-style): compare a
//! frozen PPN-LSTM against one that keeps taking gradient steps during the
//! test period, and demonstrate checkpointing the trained network.
//!
//! ```sh
//! cargo run --release -p ppn-repro --example online_adaptation
//! ```

use ppn_repro::core::prelude::*;
use ppn_repro::core::PolicyNet;
use ppn_repro::market::{run_backtest, Dataset, Preset};
use std::sync::Arc;

fn main() {
    let ds = Arc::new(Dataset::load(Preset::CryptoA));
    let range = ds.split..ds.split + 200;
    let reward = RewardConfig::default();
    let pretrain = TrainConfig { steps: 100, batch: 12, ..TrainConfig::default() };

    // Frozen policy.
    println!("Pre-training the frozen policy ({} steps) ...", pretrain.steps);
    let (mut frozen, _) = train_policy(&ds, Variant::PpnLstm, reward, pretrain.clone());
    let r_frozen = run_backtest(&ds, &mut frozen, 0.0025, range.clone());

    // Checkpoint round-trip: save, reload, verify identical behaviour.
    let path = std::env::temp_dir().join("ppn_online_example.json");
    frozen.net.save(&path).expect("save checkpoint");
    let reloaded = PolicyNet::load(&path).expect("load checkpoint");
    let mut reloaded_policy = NetPolicy::new(reloaded);
    let r_reload = run_backtest(&ds, &mut reloaded_policy, 0.0025, range.clone());
    assert_eq!(r_frozen.metrics.apv, r_reload.metrics.apv);
    println!("checkpoint round-trip OK ({})\n", path.display());

    // Online policy: 2 extra gradient steps per live period. Built from the
    // shared `Arc` handle — the resulting `OnlineNetPolicy<'static>` owns
    // its dataset, so it could move to another thread.
    println!("Running the online-adapting policy (2 steps/period) ...");
    let mut online: OnlineNetPolicy<'static> =
        OnlineNetPolicy::new(Arc::clone(&ds), Variant::PpnLstm, reward, pretrain, 2);
    let r_online = run_backtest(&ds, &mut online, 0.0025, range);

    println!("\nover {} test periods:", r_frozen.records.len());
    println!(
        "  frozen  APV {:.3}  SR {:.2}%  TO {:.3}",
        r_frozen.metrics.apv, r_frozen.metrics.sharpe_pct, r_frozen.metrics.turnover
    );
    println!(
        "  online  APV {:.3}  SR {:.2}%  TO {:.3}",
        r_online.metrics.apv, r_online.metrics.sharpe_pct, r_online.metrics.turnover
    );
    println!("\n(Online adaptation keeps learning from the newest periods — the");
    println!(" paper's Remark 3 data-efficiency argument applies unchanged.)");
}
