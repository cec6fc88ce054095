//! Fine-grained thread scheduling for cache locality.
//!
//! This crate is a Rust implementation of the thread package described
//! in *Thread Scheduling for Cache Locality* (Philbin, Edler, Anshus,
//! Douglas, Li — ASPLOS VII, 1996). The idea: decompose a sequential
//! program into very fine-grained, independent, run-to-completion
//! threads, attach one to three *address hints* to each thread at fork
//! time, and let the scheduler reorder execution so that threads whose
//! data shares a region of the address space run back-to-back. When the
//! per-bin working set fits in the second-level cache, the reordering
//! eliminates most L2 *capacity* misses — recovering most of the benefit
//! of loop tiling without static analysis, which makes the technique
//! applicable to irregular and dynamic programs (the paper's N-body
//! benchmark) where compilers cannot tile.
//!
//! # The algorithm (paper §2.3)
//!
//! Each thread's k hint addresses place it at a point in a k-dimensional
//! space. The space is divided into blocks whose dimension sizes sum to
//! (at most) the cache size; all threads falling into the same block are
//! placed in the same *bin*, bins are kept in a hash table and chained
//! onto a *ready list* in allocation order, and running the threads
//! walks the ready list bin by bin, draining each bin completely before
//! moving on.
//!
//! # Mapping from the paper's C interface
//!
//! | Paper                                  | This crate                          |
//! |----------------------------------------|-------------------------------------|
//! | `th_init(blocksize, hashsize)`         | [`SchedulerConfig`] (builder)       |
//! | `th_fork(f, a1, a2, h1, h2, h3)`       | [`Scheduler::fork`] with [`Hints`]  |
//! | `th_run(keep)`                         | [`Scheduler::run`] with [`RunMode`] |
//!
//! The scheduler is generic over a *context* type `C` passed by
//! exclusive reference to every thread body: `fn(&mut C, usize, usize)`.
//! The context carries whatever the threads operate on (matrices, trace
//! sinks, …), which replaces the global state the C version relied on
//! while keeping thread records two words of arguments, exactly as
//! compact as the paper's.
//!
//! # Examples
//!
//! Threaded 4×4 matrix multiply from paper §2.4 — fork one thread per
//! dot product, hinted by the two column addresses it reads:
//!
//! ```
//! use locality_sched::{Hints, RunMode, Scheduler, SchedulerConfig};
//!
//! struct Ctx { sum: usize }
//! // The "dot product" body: just records which (i, j) it computed.
//! fn dot(ctx: &mut Ctx, i: usize, j: usize) { ctx.sum += i * 4 + j; }
//!
//! // Cache of 4 "vectors" of 32 bytes; block dimension = half of that.
//! let config = SchedulerConfig::builder().block_size(64).build()?;
//! let mut sched = Scheduler::<Ctx>::new(config);
//! for i in 0..4usize {
//!     for j in 0..4usize {
//!         let a_col = 0x1000 + (i as u64) * 32; // &A[1, i]
//!         let b_col = 0x2000 + (j as u64) * 32; // &B[1, j]
//!         sched.fork(dot, i, j, Hints::two(a_col.into(), b_col.into()));
//!     }
//! }
//! let mut ctx = Ctx { sum: 0 };
//! let stats = sched.run(&mut ctx, RunMode::Consume);
//! assert_eq!(stats.threads_run, 16);
//! assert_eq!(ctx.sum, (0..16).sum());
//! # Ok::<(), locality_sched::ConfigError>(())
//! ```

mod baseline;
mod config;
mod engine;
mod hint;
mod parallel;
mod policy;
mod scheduler;
mod stats;
mod table;

pub use baseline::{FifoScheduler, RandomScheduler};
pub use config::{
    prev_power_of_two, ConfigError, EvictionPolicy, SchedulerConfig, SchedulerConfigBuilder,
};
pub use engine::PACKAGE_TRACE_BASE;
pub use hint::{Hints, MAX_DIMS};
pub use parallel::{ParRunReport, ParScheduler, ParThreadFn, StealPolicy};
pub use policy::{
    AnyPolicy, BinPolicy, Hierarchical, SingleBin, TopologyPolicy, UniqueBin, MAX_LEVELS,
};
pub use scheduler::{RunMode, Scheduler, ThreadFn, ThreadScheduler};
pub use stats::{RunStats, SchedulerStats, WorkerStats};

/// Hint addresses are virtual addresses, shared with the tracing crate.
pub use memtrace::Addr;
