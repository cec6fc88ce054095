//! Reproduction harness for every table and figure in the paper's
//! evaluation (§4).
//!
//! Every experiment is one row of [`registry::REGISTRY`], which the
//! `repro` binary iterates; [`experiments`] computes structured results
//! that [`mod@print`] renders next to the paper's published numbers.
//! Absolute times cannot match 1996 SGI hardware; what must match — and
//! what the integration tests assert — is the *shape*: which version
//! wins, by roughly what factor, and where behaviour changes (e.g.
//! Figure 4's degradation once the block size exceeds the L2 size).
//!
//! Problem/machine scaling: the paper's traces are 10⁹–10¹⁰
//! references. The default [`ExpScale`] shrinks each problem *and* the
//! machine's caches by the same factor, preserving every
//! data-set : cache ratio the analysis depends on (see EXPERIMENTS.md);
//! `ExpScale::full()` reproduces the paper's exact sizes.

pub mod benchdiff;
pub mod cli;
pub mod experiments;
pub mod fmt;
pub mod paper;
pub mod print;
pub mod registry;
pub mod scale;
pub mod servebench;
pub mod studies;

pub use scale::ExpScale;
