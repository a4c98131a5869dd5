//! Experiment orchestration: cached train-and-backtest runs.
//!
//! Several of the paper's tables share columns (the PPN of Table 3 is the
//! PPN of Table 4, the γ=1e−3 row of Table 6, the λ=1e−4 row of Table 7 and
//! the ψ=0.25% column of Table 5), so each unique configuration is trained
//! once and its result persisted under `results/cache/`. Re-running any
//! experiment binary reuses the cache; delete the directory for a cold run.

use ppn_core::prelude::*;
use ppn_market::{run_backtest, test_range, Dataset, Metrics, Preset};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// A fully-specified neural-strategy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpConfig {
    /// Dataset preset name (`Preset::name`).
    pub preset: String,
    /// Variant name (`Variant::name`).
    pub variant: String,
    /// Reward λ.
    pub lambda: f64,
    /// Reward γ.
    pub gamma: f64,
    /// Cost rate ψ (used for both training reward and backtest).
    pub psi: f64,
    /// Training steps.
    pub steps: usize,
    /// Batch (trajectory) length.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// Seed.
    pub seed: u64,
}

/// Cached result of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpResult {
    /// The configuration that produced this result.
    pub config: ExpConfig,
    /// Backtest metrics over the test split.
    pub metrics: Metrics,
    /// Wealth curve over the test split (one point per period).
    pub wealth: Vec<f64>,
    /// Mean reward over the final 10% of training steps.
    pub final_reward: f64,
    /// Wall-clock seconds spent in `train_policy` only.
    pub train_secs: f64,
    /// Wall-clock seconds spent loading/synthesizing the dataset.
    pub synth_secs: f64,
    /// Wall-clock seconds spent in the backtest.
    pub backtest_secs: f64,
}

/// Parses a preset by its display name.
pub fn preset_by_name(name: &str) -> Preset {
    match name {
        "Crypto-A" => Preset::CryptoA,
        "Crypto-B" => Preset::CryptoB,
        "Crypto-C" => Preset::CryptoC,
        "Crypto-D" => Preset::CryptoD,
        "S&P500" => Preset::Sp500,
        other => panic!("unknown preset {other}"),
    }
}

/// Parses a variant by its display name.
pub fn variant_by_name(name: &str) -> Variant {
    Variant::from_name(name).unwrap_or_else(|| panic!("unknown variant {name}"))
}

/// `base` training steps scaled by the `PPN_STEPS_SCALE` environment
/// variable (default 1.0), floored at 10 steps.
pub fn scaled_steps(base: usize) -> usize {
    let scale: f64 =
        std::env::var("PPN_STEPS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    ((base as f64) * scale).round().max(10.0) as usize
}

/// Step-budget tier for an experiment. The paper trains every run 1e5 steps
/// on a GPU; on a single CPU core the budgets are tiered by how much each
/// table leans on absolute performance vs relative trends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Headline profitability tables (3 and 8).
    Full,
    /// The representation ablation (Table 4 / Fig. 5).
    Ablation,
    /// The γ/λ/ψ sweeps (Tables 5–7 / Fig. 6) where only trends matter.
    Sweep,
}

/// Per-preset step budget at a tier. Scaled by the `PPN_STEPS_SCALE`
/// environment variable (e.g. `4.0` for a 4× longer run).
pub fn steps_for(preset: Preset, budget: Budget) -> usize {
    let base = match (budget, preset) {
        (Budget::Full, Preset::CryptoA) => 1_200,
        (Budget::Full, Preset::CryptoB) => 1_000,
        (Budget::Full, Preset::CryptoC) => 700,
        (Budget::Full, Preset::CryptoD) => 350,
        (Budget::Full, Preset::Sp500) => 180,
        (Budget::Ablation, Preset::CryptoA) => 350,
        (Budget::Ablation, Preset::CryptoB) => 275,
        (Budget::Ablation, Preset::CryptoC) => 200,
        (Budget::Ablation, Preset::CryptoD) => 90,
        (Budget::Ablation, Preset::Sp500) => 120,
        (Budget::Sweep, Preset::CryptoA) => 200,
        (Budget::Sweep, Preset::CryptoB) => 150,
        (Budget::Sweep, Preset::CryptoC) => 75,
        (Budget::Sweep, Preset::CryptoD) => 40,
        (Budget::Sweep, Preset::Sp500) => 60,
    };
    scaled_steps(base)
}

/// Canonical config for `(preset, variant)` with the paper-default reward at
/// the given budget tier.
///
/// Per-variant training adjustments (the stand-in for the paper's per-method
/// cross-validation): EIIE trains at lr 1e−3 — at the PPN-class lr of 1e−2
/// its ReLU feature maps die — and receives 4× the steps, matching roughly
/// equal wall-clock since its forward/backward is ~16× cheaper.
pub fn config_at(preset: Preset, variant: Variant, budget: Budget) -> ExpConfig {
    let (steps, lr) = match variant {
        Variant::Eiie => (steps_for(preset, budget) * 4, 1e-3),
        _ => (steps_for(preset, budget), 1e-2),
    };
    ExpConfig {
        preset: preset.name().to_string(),
        variant: variant.name().to_string(),
        lambda: 1e-4,
        gamma: 1e-3,
        psi: 0.0025,
        steps,
        batch: 16,
        lr,
        seed: 0,
    }
}

/// Full-budget config (Tables 3 and 8).
pub fn default_config(preset: Preset, variant: Variant) -> ExpConfig {
    config_at(preset, variant, Budget::Full)
}

fn cache_dir() -> PathBuf {
    let dir = std::env::var("PPN_CACHE_DIR").unwrap_or_else(|_| "results/cache".into());
    PathBuf::from(dir)
}

fn cache_path(cfg: &ExpConfig) -> PathBuf {
    // Stable, readable key.
    let key = format!(
        "{}_{}_l{:e}_g{:e}_p{:e}_s{}_b{}_lr{:e}_seed{}",
        cfg.preset,
        cfg.variant,
        cfg.lambda,
        cfg.gamma,
        cfg.psi,
        cfg.steps,
        cfg.batch,
        cfg.lr,
        cfg.seed
    )
    .replace(['&', '/', ' '], "-");
    cache_dir().join(format!("{key}.json"))
}

/// Directory where telemetry (JSONL streams, run manifests) is written.
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// Standard experiment-binary prologue: initialises observability from
/// `PPN_OBS` and opens a run manifest that will land next to the results
/// (`results/telemetry/<name>.manifest.json`) when finished or dropped.
pub fn start_run(name: &str) -> ppn_obs::manifest::ManifestGuard {
    ppn_obs::init_from_env();
    ppn_obs::obs_info!(
        "{name}: starting (PPN_OBS={})",
        std::env::var("PPN_OBS").unwrap_or_else(|_| "<unset>".into())
    );
    ppn_obs::RunManifest::start(name, TELEMETRY_DIR)
}

/// Trains (or loads from cache) and backtests one neural configuration.
pub fn train_and_backtest(cfg: &ExpConfig) -> ExpResult {
    let _span = ppn_obs::span!("experiment.run");
    let path = cache_path(cfg);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(res) = serde_json::from_slice::<ExpResult>(&bytes) {
            ppn_obs::counter("experiment.cache_hits").inc();
            ppn_obs::obs_debug!("cache hit: {}", path.display());
            return res;
        }
    }
    ppn_obs::event!(
        ppn_obs::Level::Debug,
        "experiment.start",
        preset = cfg.preset.as_str(),
        variant = cfg.variant.as_str(),
        steps = cfg.steps,
        seed = cfg.seed,
    );
    let preset = preset_by_name(&cfg.preset);
    let variant = variant_by_name(&cfg.variant);
    let t_synth = std::time::Instant::now();
    let ds = Dataset::load(preset);
    let synth_secs = t_synth.elapsed().as_secs_f64();
    let reward = RewardConfig { lambda: cfg.lambda, gamma: cfg.gamma, psi: cfg.psi };
    let train = TrainConfig {
        steps: cfg.steps,
        batch: cfg.batch,
        lr: cfg.lr,
        seed: cfg.seed,
        ..TrainConfig::default()
    };
    let t0 = std::time::Instant::now();
    let (mut policy, report) = train_policy(&ds, variant, reward, train);
    let train_secs = t0.elapsed().as_secs_f64();
    let t_bt = std::time::Instant::now();
    let bt = run_backtest(&ds, &mut policy, cfg.psi, test_range(&ds));
    let backtest_secs = t_bt.elapsed().as_secs_f64();
    ppn_obs::event!(
        ppn_obs::Level::Info,
        "experiment.finish",
        preset = cfg.preset.as_str(),
        variant = cfg.variant.as_str(),
        train_secs = train_secs,
        synth_secs = synth_secs,
        backtest_secs = backtest_secs,
        final_reward = report.final_reward,
        apv = bt.metrics.apv,
    );
    let res = ExpResult {
        config: cfg.clone(),
        metrics: bt.metrics,
        wealth: bt.wealth_curve(),
        final_reward: report.final_reward,
        train_secs,
        synth_secs,
        backtest_secs,
    };
    let _ = std::fs::create_dir_all(cache_dir());
    if let Ok(js) = serde_json::to_vec_pretty(&res) {
        let _ = std::fs::write(&path, js);
    }
    res
}

/// Filesystem-safe manifest suffix for one experiment cell.
fn cell_label(s: &str) -> String {
    s.replace(['&', '/', ' '], "-")
}

/// Fans `labels.len()` experiment cells out across the shared worker pool
/// (`ppn_tensor::par`, sized by `PPN_THREADS`): the workspace's one level of
/// parallelism. A cell runs start to finish on one worker, its kernels on
/// that worker's thread, so it computes exactly what a serial run computes.
/// Each cell runs under its own run manifest named `<parent>.<label>` in
/// [`TELEMETRY_DIR`], so per-cell provenance and span reports land next to
/// the table output. Results come back in cell order regardless of
/// scheduling; `run(i)` is called exactly once per cell.
pub fn run_cells<T: Send>(
    parent: &str,
    labels: &[String],
    run: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    ppn_tensor::par::par_map(labels.len(), |i| {
        let cell = format!("{parent}.{}", cell_label(&labels[i]));
        let guard = ppn_obs::RunManifest::start(&cell, TELEMETRY_DIR);
        let out = run(i);
        let _ = guard.finish();
        out
    })
}

/// Runs every configuration through [`train_and_backtest`], fanned out via
/// [`run_cells`]. The index prefix keeps manifest names unique even when a
/// sweep varies a parameter (γ, λ, ψ) that the label text does not show.
pub fn run_many(parent: &str, cfgs: &[ExpConfig]) -> Vec<ExpResult> {
    let labels: Vec<String> = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| format!("{i:02}-{}-{}", c.preset, c.variant))
        .collect();
    run_cells(parent, &labels, |i| train_and_backtest(&cfgs[i]))
}

/// Runs the classic baseline suite over a preset's test split.
pub fn run_baselines(preset: Preset, psi: f64) -> Vec<(String, Metrics, Vec<f64>)> {
    let ds = Dataset::load(preset);
    let range = test_range(&ds);
    ppn_baselines::standard_suite(&ds, range.clone())
        .into_iter()
        .map(|mut p| {
            let r = run_backtest(&ds, p.as_mut(), psi, range.clone());
            (r.name.clone(), r.metrics, r.wealth_curve())
        })
        .collect()
}

/// Simple fixed-width table printer; also returns the rendered string so the
/// binaries can persist it under `results/`.
pub struct TableWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl TableWriter {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TableWriter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders, prints to stdout, and writes `results/<file>`.
    pub fn finish(&self, file: &str) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = format!("# {}\n\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        print!("{out}");
        let _ = std::fs::create_dir_all("results");
        let _ = std::fs::write(format!("results/{file}"), &out);
        out
    }
}

/// Formats a float the way the paper's tables do (2 decimals, scientific for
/// very small magnitudes).
pub fn fnum(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.005 {
        format!("{v:.0e}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnum_formats_like_the_paper() {
        assert_eq!(fnum(32.04), "32.04");
        assert_eq!(fnum(0.001), "1e-3");
        assert_eq!(fnum(2e-8), "2e-8");
        assert_eq!(fnum(9842.56), "9843");
        assert_eq!(fnum(0.0), "0.00");
        assert_eq!(fnum(-5.85), "-5.85");
    }

    #[test]
    fn budgets_are_ordered() {
        for p in Preset::all() {
            assert!(steps_for(p, Budget::Full) >= steps_for(p, Budget::Ablation));
            assert!(steps_for(p, Budget::Ablation) >= steps_for(p, Budget::Sweep));
        }
    }

    #[test]
    fn eiie_gets_lower_lr_and_more_steps() {
        let e = config_at(Preset::CryptoA, Variant::Eiie, Budget::Full);
        let p = config_at(Preset::CryptoA, Variant::Ppn, Budget::Full);
        assert!(e.lr < p.lr);
        assert_eq!(e.steps, 4 * p.steps);
    }

    #[test]
    fn name_round_trips() {
        for p in Preset::all() {
            assert_eq!(preset_by_name(p.name()), p);
        }
        for v in [
            Variant::Ppn,
            Variant::PpnI,
            Variant::PpnLstm,
            Variant::PpnTcb,
            Variant::PpnTccb,
            Variant::PpnTcbLstm,
            Variant::PpnTccbLstm,
            Variant::Eiie,
        ] {
            assert_eq!(variant_by_name(v.name()), v);
        }
    }

    #[test]
    fn cache_paths_distinguish_configs() {
        let a = config_at(Preset::CryptoA, Variant::Ppn, Budget::Full);
        let mut b = a.clone();
        b.gamma = 0.1;
        assert_ne!(cache_path(&a), cache_path(&b));
        let mut c = a.clone();
        c.seed = 1;
        assert_ne!(cache_path(&a), cache_path(&c));
        let mut d = a.clone();
        d.lr = 0.5;
        assert_ne!(cache_path(&a), cache_path(&d));
    }

    #[test]
    fn exp_result_round_trips_the_timing_split() {
        let cfg = config_at(Preset::CryptoA, Variant::Ppn, Budget::Sweep);
        let fresh = ExpResult {
            config: cfg.clone(),
            metrics: Metrics {
                apv: 1.5,
                sharpe_pct: 2.0,
                calmar: 0.5,
                mdd: 0.1,
                std_pct: 0.2,
                turnover: 0.3,
            },
            wealth: vec![1.0],
            final_reward: 0.25,
            train_secs: 1.0,
            synth_secs: 0.5,
            backtest_secs: 0.25,
        };
        let bytes = serde_json::to_vec(&fresh).unwrap();
        let back: ExpResult = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.synth_secs, 0.5);
        assert_eq!(back.backtest_secs, 0.25);

        // A cache file without the timing split does not parse, so
        // `train_and_backtest` treats it as a miss and retrains.
        let legacy = format!(
            concat!(
                r#"{{"config":{},"metrics":{{"apv":1.5,"sharpe_pct":2.0,"calmar":0.5,"#,
                r#""mdd":0.1,"std_pct":0.2,"turnover":0.3}},"#,
                r#""wealth":[1.0,1.5],"final_reward":0.01,"train_secs":3.5}}"#
            ),
            String::from_utf8(serde_json::to_vec(&cfg).unwrap()).unwrap()
        );
        assert!(serde_json::from_slice::<ExpResult>(legacy.as_bytes()).is_err());
    }

    #[test]
    fn run_cells_preserves_cell_order_across_threads() {
        // Keep the per-cell manifest guards inert so the test writes nothing.
        ppn_obs::init(ppn_obs::ObsConfig::off());
        let labels: Vec<String> = (0..12).map(|i| format!("cell {i}/x")).collect();
        let out =
            ppn_tensor::par::with_threads(4, || run_cells("test_run_cells", &labels, |i| i * 3));
        assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_cells_train_the_same_bits_as_a_serial_loop() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        ppn_obs::init(ppn_obs::ObsConfig::off());
        let ds = Dataset::load(Preset::CryptoA);
        // One small two-stream PPN cell per seed: the bits of each step's
        // reward, then the bits of every trained parameter.
        let cell = |seed: u64| {
            let cfg = NetConfig {
                window: 8,
                lstm_hidden: 4,
                tccb_channels: [2, 3, 3],
                ..NetConfig::paper(ds.assets())
            };
            let net = PolicyNet::new(Variant::Ppn, cfg, &mut StdRng::seed_from_u64(seed));
            let train = TrainConfig { steps: 3, batch: 4, seed, ..TrainConfig::default() };
            let mut tr = Trainer::with_net(&ds, net, RewardConfig::default(), train);
            let rewards: Vec<u64> = (0..3).map(|_| tr.step().reward.to_bits()).collect();
            let net = tr.into_net();
            let params: Vec<u64> = net
                .store
                .ids()
                .flat_map(|id| net.store.value(id).data())
                .map(|v| v.to_bits())
                .collect();
            (rewards, params)
        };
        let serial: Vec<_> = (0..4).map(cell).collect();
        assert!(serial.windows(2).all(|w| w[0] != w[1]), "the seeds must train distinct cells");
        let labels: Vec<String> = (0..4).map(|i| format!("seed {i}")).collect();
        let concurrent = ppn_tensor::par::with_threads(4, || {
            run_cells("test_concurrent_cells", &labels, |i| cell(i as u64))
        });
        assert!(concurrent == serial, "cells trained on workers diverged from the serial loop");
    }

    #[test]
    fn table_writer_renders_aligned_markdown() {
        let mut t = TableWriter::new("T", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("ppn_tw_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = {
            let cwd = std::env::current_dir().unwrap();
            std::env::set_current_dir(&dir).unwrap();
            let out = t.finish("t.md");
            std::env::set_current_dir(cwd).unwrap();
            out
        };
        assert!(out.contains("# T"));
        assert!(out.contains("| a |"));
        assert!(out.lines().count() >= 4);
    }
}
