//! # thread-locality
//!
//! A Rust reproduction of **"Thread Scheduling for Cache Locality"**
//! (Philbin, Edler, Anshus, Douglas, Li — ASPLOS VII, 1996): a
//! fine-grained, run-to-completion thread package whose scheduler uses
//! per-thread *address hints* to order execution for second-level-cache
//! locality, together with everything needed to reproduce the paper's
//! evaluation — a Pixie-style tracing substrate, a DineroIII-style
//! cache simulator with compulsory/capacity/conflict classification,
//! models of the paper's two SGI machines, and the four benchmark
//! applications in every published variant.
//!
//! This crate is a facade: it re-exports the workspace members so that
//! examples and downstream users can depend on one crate.
//!
//! * [`sched`] — the thread package ([`sched::Scheduler`],
//!   [`sched::Hints`], [`sched::SchedulerConfig`], bin policies,
//!   baselines).
//! * [`trace`] — traced containers and trace sinks.
//! * [`sim`] — the cache simulator and machine models.
//! * [`apps`] — matmul, PDE, SOR, and Barnes–Hut N-body workloads.
//!
//! # Quickstart
//!
//! Reorder fine-grained work for cache locality (the paper's §2.4
//! example, a blocked matrix-multiply schedule):
//!
//! ```
//! use thread_locality::sched::{Hints, RunMode, Scheduler, SchedulerConfig};
//!
//! // One "thread" per dot product, hinted by the two columns it reads.
//! fn dot(log: &mut Vec<(usize, usize)>, i: usize, j: usize) {
//!     log.push((i, j));
//! }
//!
//! let config = SchedulerConfig::for_cache(2 << 20, 2)?; // 2 MB L2, 2-D hints
//! // `<_>`: the context type is inferred, the policy is the paper's default.
//! let mut sched = Scheduler::<_>::new(config);
//! for i in 0..64usize {
//!     for j in 0..64usize {
//!         let a_col = 0x1000_0000u64 + (i as u64) * 8192;
//!         let b_col = 0x2000_0000u64 + (j as u64) * 8192;
//!         sched.fork(dot, i, j, Hints::two(a_col.into(), b_col.into()));
//!     }
//! }
//! let mut log = Vec::new();
//! let stats = sched.run(&mut log, RunMode::Consume);
//! assert_eq!(stats.threads_run, 64 * 64);
//! # Ok::<(), thread_locality::sched::ConfigError>(())
//! ```

/// The locality thread package (re-export of [`locality_sched`]).
pub mod sched {
    pub use locality_sched::*;
}

/// Memory-reference tracing substrate (re-export of [`memtrace`]).
pub mod trace {
    pub use memtrace::*;
}

/// Cache simulation and machine models (re-export of [`cachesim`]).
pub mod sim {
    pub use cachesim::*;
}

/// The paper's four applications (re-export of [`workloads`]).
pub mod apps {
    pub use workloads::*;
}
