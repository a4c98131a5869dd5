#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the per-experiment index).
//!
//! Each table/figure has a dedicated binary under `src/bin/`; results are
//! printed, written to `results/`, and neural training runs are cached under
//! `results/cache/` so shared columns are trained once.

pub mod plot;
pub mod runner;

pub use plot::{render_line_chart, save_chart, Series};
pub use runner::{
    config_at, default_config, fnum, preset_by_name, run_baselines, run_cells, run_many,
    scaled_steps, start_run, steps_for, train_and_backtest, variant_by_name, Budget, ExpConfig,
    ExpResult, TableWriter, TELEMETRY_DIR,
};
