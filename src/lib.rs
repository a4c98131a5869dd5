#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-repro
//!
//! Rust reproduction of *"Cost-Sensitive Portfolio Selection via Deep
//! Reinforcement Learning"* (Zhang, Zhao, Wu, Li, Huang & Tan).
//!
//! This facade crate re-exports the four subsystem crates so downstream
//! users can depend on one package:
//!
//! * [`tensor`] — the reverse-mode autodiff engine (`ppn-tensor`);
//! * [`market`] — synthetic markets, costs, the rebalance ledger and metrics
//!   (`ppn-market`);
//! * [`baselines`] — the twelve classic online portfolio strategies
//!   (`ppn-baselines`);
//! * [`core`] — the Portfolio Policy Network, its reward, and its trainers
//!   (`ppn-core`).
//!
//! See `examples/quickstart.rs` for the 30-line end-to-end flow, and
//! DESIGN.md / EXPERIMENTS.md for the paper-reproduction map.

pub use ppn_baselines as baselines;
pub use ppn_core as core;
pub use ppn_market as market;
pub use ppn_tensor as tensor;
