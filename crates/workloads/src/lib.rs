//! The four applications of the paper's evaluation (§4), each in every
//! version the paper measures, written once and generic over a
//! [`TraceSink`](memtrace::TraceSink).
//!
//! | Paper section | Module | Versions |
//! |---|---|---|
//! | §4.2 Matrix multiply | [`matmul`] | interchanged, transposed, tiled ×2, threaded |
//! | §4.3 PDE (red-black Gauss–Seidel) | [`pde`] | regular, cache-conscious, threaded |
//! | §4.3 SOR | [`sor`] | untiled, hand-tiled (skewed), threaded |
//! | §4.4 N-body (Barnes–Hut) | [`nbody`] | unthreaded, threaded |
//!
//! Every version of a workload computes the same mathematical result
//! (bitwise-identical where the paper's transformation is
//! order-preserving; convergence-equivalent for threaded SOR, whose
//! reordering the paper itself notes changes the iteration order but
//! "works fine because the goal is to reach convergence").
//!
//! Instantiate with [`memtrace::NullSink`] for native speed, or with
//! `cachesim::SimSink` to reproduce the paper's trace-driven cache
//! simulations.

pub mod geometry;
pub mod matmul;
pub mod nbody;
pub mod overhead;
pub mod pde;
pub mod report;
pub mod sor;

pub use geometry::{BinGeometry, HintKind, Kernel, OrderSemantics};
pub use report::WorkloadReport;
