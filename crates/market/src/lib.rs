#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-market
//!
//! Market substrate for the Rust reproduction of *"Cost-Sensitive Portfolio
//! Selection via Deep Reinforcement Learning"*: a synthetic OHLC market
//! generator standing in for the paper's Poloniex/Kaggle feeds, the
//! proportional transaction-cost model of §5.2.2 with its Proposition-4
//! bounds, the rebalance [`Ledger`] that charges it period by period, the
//! backtest runner, and the evaluation metrics of §6.1.2 (APV, SR, CR, MDD,
//! STD, TO).
//!
//! Decisions go through the batch-first [`Policy`] trait
//! (`decide_batch(&[DecisionContext]) -> Vec<Weights>`); simple sequential
//! strategies implement the per-context [`SequentialPolicy`] shim and
//! inherit the batch API through its blanket impl:
//!
//! ```
//! use ppn_market::{Dataset, Preset, run_backtest, SequentialPolicy, DecisionContext, Weights};
//!
//! struct Uniform;
//! impl SequentialPolicy for Uniform {
//!     fn name(&self) -> String { "UBAH-ish".into() }
//!     fn decide_one(&mut self, ctx: &DecisionContext<'_>) -> Weights {
//!         let n = ctx.dataset.assets() + 1;
//!         vec![1.0 / n as f64; n]
//!     }
//! }
//!
//! let ds = Dataset::load(Preset::CryptoA);
//! let result = run_backtest(&ds, &mut Uniform, 0.0025, 100..200);
//! assert!(result.metrics.apv > 0.0);
//! ```

/// Backtest runner, the rebalance [`Ledger`] and the [`Policy`] trait.
pub mod backtest;
/// Debug-build numerical contracts (simplex/finite invariants).
pub mod contracts;
/// Proportional transaction-cost model with the Proposition-4 bounds.
pub mod cost;
/// Synthetic dataset presets standing in for the paper's feeds.
pub mod dataset;
/// Live-feed simulation: regime-stitched datasets.
pub mod feed;
/// Geometric-Brownian-motion close-price path generator.
pub mod gbm;
/// Evaluation metrics of §6.1.2 (APV, SR, CR, MDD, STD, TO).
pub mod metrics;
/// OHLC bar synthesis over generated close paths.
pub mod ohlc;
/// Price relatives, drifted weights and portfolio returns.
pub mod relatives;
/// Risk measures beyond the paper's core table (VaR, ES, Sortino).
pub mod risk;

pub use backtest::{
    run_backtest, test_range, BacktestResult, DecisionContext, Ledger, PeriodRecord, Policy,
    SequentialPolicy, Weights,
};
pub use cost::{cost_proportion, max_turnover, prop4_bounds, turnover_l1, CostSolution};
pub use dataset::{stats, Dataset, DatasetHandle, DatasetStats, Preset};
pub use feed::stitched_dataset;
pub use gbm::{generate_paths, ClosePaths, MarketConfig};
pub use metrics::{compute as compute_metrics, max_drawdown, mean_std, Metrics};
pub use ohlc::{synthesize_ohlc, Bar, OhlcSeries};
pub use relatives::{drifted_weights, portfolio_return, price_relatives};
pub use risk::{
    annualized_return, annualized_volatility, downside_deviation, expected_shortfall,
    sortino_ratio, value_at_risk,
};
