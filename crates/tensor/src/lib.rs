// `deny` rather than `forbid`: the `simd` module carries the crate's only
// audited `unsafe` (the AVX2 intrinsics) under a module-level `allow`;
// everything else still refuses unsafe code. The ppn-check `no-unsafe` rule
// audits every unsafe line in that module.
#![deny(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-tensor
//!
//! A minimal, dependency-light reverse-mode autodiff engine that serves as
//! the deep-learning substrate for the Rust reproduction of *"Cost-Sensitive
//! Portfolio Selection via Deep Reinforcement Learning"* (Zhang et al.).
//!
//! The paper implements its Portfolio Policy Network in TensorFlow; Rust has
//! no comparable batteries-included framework offline, so this crate rebuilds
//! exactly the pieces the paper's architecture (Table 2) needs:
//!
//! * a dense row-major [`Tensor`] over `f64`,
//! * an eager, tape-based [`Graph`] with reverse-mode [`Graph::backward`],
//! * dilated **causal** and correlational **SAME** 2-D convolutions
//!   ([`layers::Conv2dLayer`]), an [`layers::Lstm`], dense layers, dropout
//!   and softmax,
//! * the [`Adam`] optimiser over a persistent [`ParamStore`],
//! * a finite-difference [`gradcheck`](gradcheck::gradcheck) harness used by
//!   the test suites to certify every backward rule,
//! * a scoped worker pool ([`par`]) behind the `PPN_THREADS` environment
//!   variable that runs whole independent jobs (experiment cells, test
//!   clients) side by side; the kernels themselves run on the calling
//!   thread,
//! * a boxed-buffer backing store with a thread-local buffer-reuse arena
//!   ([`storage`]) and register-blocked AXPY kernels ([`simd`], optional
//!   AVX2 behind the `simd` cargo feature, used whenever the CPU has it) —
//!   all bit-identical to the naive scalar loops.
//!
//! ## Quickstart
//!
//! ```
//! use ppn_tensor::{Graph, ParamStore, Adam, Optimizer, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::scalar(5.0));
//! let mut opt = Adam::new(0.2);
//! for _ in 0..300 {
//!     let mut g = Graph::new();
//!     let bind = store.bind(&mut g);
//!     let centered = g.add_scalar(bind.node(w), -1.5);
//!     let loss = g.square(centered);
//!     g.backward(loss);
//!     opt.step(&mut store, &bind.grads(&g));
//! }
//! assert!((store.value(w).item() - 1.5).abs() < 1e-2);
//! ```

pub mod approx;
pub mod conv;
mod fused;
pub mod gradcheck;
pub mod graph;
pub mod init;
pub mod layers;
pub mod optim;
pub mod par;
pub mod shape;
pub mod simd;
pub mod storage;
pub mod tensor;

pub use graph::{Graph, NodeId};
pub use optim::{clip_global_norm, Adam, Binding, Optimizer, ParamId, ParamStore};
pub use tensor::Tensor;
