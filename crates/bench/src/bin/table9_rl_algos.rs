//! Table 9: reinforcement-learning algorithm comparison on Crypto-A —
//! PPN trained by direct policy gradient vs PPN-AC trained by DDPG (§7.2).
//!
//! The paper's finding (and the expected shape here): the critic's Q
//! approximation is poor for this non-stationary, action-decoupled MDP, so
//! PPN-AC lands well below PPN while still beating the handcraft baselines
//! thanks to the shared two-stream actor.

use ppn_bench::{default_config, fnum, run_cells, scaled_steps, train_and_backtest, TableWriter};
use ppn_core::prelude::*;
use ppn_market::{run_backtest, test_range, Dataset, Metrics, Preset};

/// DDPG training steps for PPN-AC before `PPN_STEPS_SCALE`.
const DDPG_STEPS: usize = 250;

fn main() {
    let run = ppn_bench::start_run("table9_rl_algos");
    let ds = Dataset::load(Preset::CryptoA);
    let mut table = TableWriter::new(
        "Table 9 — RL algorithms for PPN on Crypto-A",
        &["Algos", "APV", "STD(%)", "SR(%)", "MDD(%)", "CR"],
    );

    // Heterogeneous cells (DDPG actor-critic vs direct policy gradient), so
    // fan out via `run_cells` with a common `Metrics` payload.
    let labels = ["PPN-AC".to_string(), "PPN".to_string()];
    ppn_obs::obs_info!("[table9] fanning out {} cells ...", labels.len());
    let results: Vec<Metrics> = run_cells("table9_rl_algos", &labels, |i| match i {
        0 => {
            // PPN-AC via DDPG.
            let ddpg_cfg = DdpgConfig { steps: scaled_steps(DDPG_STEPS), ..DdpgConfig::default() };
            let actor =
                DdpgTrainer::new(&ds, Variant::Ppn, RewardConfig::default(), ddpg_cfg).train();
            let mut ac_policy = NetPolicy::new(actor);
            run_backtest(&ds, &mut ac_policy, 0.0025, test_range(&ds)).metrics
        }
        // PPN via direct policy gradient (cached from Table 3).
        _ => train_and_backtest(&default_config(Preset::CryptoA, Variant::Ppn)).metrics,
    });

    for (label, m) in labels.iter().zip(&results) {
        table.row(vec![
            label.clone(),
            fnum(m.apv),
            fnum(m.std_pct),
            fnum(m.sharpe_pct),
            fnum(m.mdd * 100.0),
            fnum(m.calmar),
        ]);
    }
    table.finish("table9.md");
    let _ = run.finish();
}
