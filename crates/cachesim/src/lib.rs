//! Trace-driven cache simulation (the reproduction's stand-in for the
//! paper's modified DineroIII).
//!
//! The ASPLOS'96 paper attributes its speedups to second-level-cache
//! *capacity* misses, measured by feeding Pixie address traces through a
//! DineroIII simulator modified to classify misses as compulsory,
//! capacity, or conflict in a single pass. This crate provides the same
//! capability for traces produced by the `memtrace` crate:
//!
//! * [`Cache`] — one set-associative, write-allocate, write-back LRU
//!   cache level.
//! * [`MissClassifier`] — one-pass 3C classification (Hill & Smith):
//!   compulsory if the line was never referenced, capacity if a
//!   fully-associative LRU cache of the same capacity would also miss,
//!   conflict otherwise.
//! * [`Hierarchy`] — split L1 data cache backed by a unified L2 (the
//!   configuration of both paper machines); the L2 reference stream is
//!   classified.
//! * [`MachineModel`] — the two paper machines ([`MachineModel::r8000`],
//!   [`MachineModel::r10000`]) with cache geometry and the paper's crude
//!   timing model (§4.2: 1 instruction/cycle, 7-cycle L1-miss penalty,
//!   1.06 µs / 0.85 µs L2-miss penalty), plus proportional scaling for
//!   reduced-size experiments.
//! * [`SimSink`] — a [`memtrace::TraceSink`] that drives a [`Hierarchy`]
//!   online, replacing the Pixie trace file.
//!
//! # Examples
//!
//! ```
//! use cachesim::{MachineModel, SimSink};
//! use memtrace::{Addr, TraceSink};
//!
//! let machine = MachineModel::r8000();
//! let mut sim = SimSink::new(machine.hierarchy());
//! // Stream two passes of a little loop over 64 KiB...
//! for _pass in 0..2 {
//!     for off in (0..65536u64).step_by(8) {
//!         sim.read(Addr::new(0x1000_0000 + off), 8);
//!     }
//! }
//! let report = sim.finish();
//! assert!(report.l1.misses() > 0);
//! // 64 KiB fits in the 2 MB L2: second pass hits, all L2 misses compulsory.
//! assert_eq!(report.l2.misses(), report.classes.compulsory);
//! ```

mod cache;
mod classify;
mod config;
mod hierarchy;
mod lru;
mod machine;
mod recency;
mod report;
mod shard;
mod sink;
mod timing;

pub use cache::{Cache, CacheStats};
pub use classify::{MissClass, MissClassCounts, MissClassifier};
pub use config::{CacheConfig, CacheConfigError};
pub use hierarchy::{Hierarchy, HierarchyConfig};
pub use machine::MachineModel;
pub use report::SimReport;
pub use shard::{ShardPlan, ShardedSimSink};
pub use sink::SimSink;
pub use timing::{TimeBreakdown, TimingModel};

/// The machine's locality topology is its capacity ladder,
/// [`MachineModel::capacities`]: these tests pin how that ladder is
/// read off a hierarchy, clamped into strict order and scaled.
#[cfg(test)]
mod topology {
    mod tests {
        use crate::{CacheConfig, HierarchyConfig, MachineModel};

        #[test]
        fn valid_tree_round_trips() {
            let numa2 = MachineModel::numa2();
            let caps = numa2.capacities();
            assert_eq!(caps, vec![32 << 10, 256 << 10, 8 << 20, 64 << 20]);
            // An identity scaling keeps every level where it was.
            assert_eq!(numa2.scaled(1.0).unwrap().capacities(), caps);
            let modern = MachineModel::modern();
            assert_eq!(
                modern.scaled(1.0).unwrap().capacities(),
                modern.capacities()
            );
        }

        #[test]
        fn clamping_restores_strict_order() {
            // L1 as large as L2: the clamp halves it under L2.
            let m = MachineModel::custom(
                "flat",
                1e9,
                1.0,
                1.0,
                1.0,
                HierarchyConfig::new(
                    CacheConfig::new(1 << 20, 64, 1).unwrap(),
                    CacheConfig::new(1 << 20, 64, 1).unwrap(),
                ),
                1.0,
            );
            assert_eq!(m.capacities(), vec![1 << 19, 1 << 20]);
        }

        #[test]
        fn scaling_scales_and_clamps() {
            // The L2 and L3 shrink 32x; the unscaled L1 is clamped under
            // the shrunken L2.
            let m = MachineModel::modern()
                .scaled_split(1.0, 1.0 / 32.0)
                .unwrap();
            assert_eq!(m.capacities(), vec![8 << 10, 16 << 10, 1 << 20]);
            assert!(
                MachineModel::numa2().scaled_split(1e-6, 1e-6).is_err(),
                "degenerate scale"
            );
        }
    }
}
