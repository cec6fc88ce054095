//! Online simulation as a trace sink.

use crate::{Hierarchy, SimReport};
use memtrace::{Access, AccessKind, TraceSink};

/// A [`TraceSink`] that drives a cache [`Hierarchy`] online.
///
/// This replaces the paper's Pixie-trace-file → DineroIII pipeline with
/// direct streaming: the workload's traced containers emit accesses
/// straight into the simulator, so paper-scale reference streams never
/// need to be materialized.
///
/// # Examples
///
/// ```
/// use cachesim::{MachineModel, SimSink};
/// use memtrace::{Addr, TraceSink};
///
/// let mut sim = SimSink::new(MachineModel::r10000().hierarchy());
/// sim.read(Addr::new(0x1000_0000), 8);
/// sim.instructions(4);
/// let report = sim.finish();
/// assert_eq!(report.reads, 1);
/// assert_eq!(report.instructions, 4);
/// ```
#[derive(Clone, Debug)]
pub struct SimSink {
    hierarchy: Hierarchy,
    instructions: u64,
    reads: u64,
    writes: u64,
    threads: u64,
}

impl SimSink {
    /// Creates a sink over an empty hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        SimSink {
            hierarchy,
            instructions: 0,
            reads: 0,
            writes: 0,
            threads: 0,
        }
    }

    /// Records that `count` threads were forked and run during the
    /// measured region (drives the timing model's overhead term).
    pub fn add_threads(&mut self, count: u64) {
        self.threads += count;
    }

    /// Enables or disables the hierarchy's fast lookup paths; reports
    /// are bit-identical either way (see [`Hierarchy::set_fast_path`]).
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.hierarchy.set_fast_path(enabled);
    }

    /// Whether the fast lookup paths are enabled.
    pub fn fast_path(&self) -> bool {
        self.hierarchy.fast_path()
    }

    /// The underlying hierarchy (e.g. for mid-run inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Zeroes all counters and cache statistics while keeping cache
    /// contents warm — call after initialization, before the measured
    /// region, to mirror the paper's "results exclude program
    /// initialization costs".
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.instructions = 0;
        self.reads = 0;
        self.writes = 0;
        self.threads = 0;
    }

    /// Snapshots the current statistics.
    pub fn report(&self) -> SimReport {
        let mut report = SimReport {
            instructions: self.instructions,
            reads: self.reads,
            writes: self.writes,
            threads: self.threads,
            ..SimReport::default()
        };
        self.hierarchy.add_to(&mut report);
        report
    }

    /// Consumes the sink and returns the final statistics.
    pub fn finish(self) -> SimReport {
        self.report()
    }

    /// Flushes the hierarchy's probe observations (per-level
    /// hit/rehit/miss counts, modelled miss-latency histogram,
    /// classifier verdicts) into a profile for report embedding. Kept
    /// separate from [`report`](Self::report) on purpose: `SimReport`
    /// is `PartialEq`-compared by the fast≡slow differential suite,
    /// and probe counts legitimately differ between those paths.
    pub fn run_profile(&self) -> probe::RunProfile {
        self.hierarchy.run_profile()
    }
}

impl TraceSink for SimSink {
    #[inline]
    fn access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.hierarchy.access(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        // Count reads/writes in one pass, then drive the hierarchy
        // without re-dispatching through the trait per element. Exactly
        // equivalent to element-wise delivery.
        let mut writes = 0u64;
        for access in accesses {
            writes += u64::from(access.kind == AccessKind::Write);
        }
        self.writes += writes;
        self.reads += accesses.len() as u64 - writes;
        for &access in accesses {
            self.hierarchy.access(access);
        }
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineModel;
    use memtrace::Addr;

    #[test]
    fn counts_match_hierarchy() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        for off in (0..4096).step_by(8) {
            sim.read(Addr::new(0x1000_0000 + off), 8);
        }
        sim.write(Addr::new(0x1000_0000), 8);
        sim.instructions(100);
        let r = sim.finish();
        assert_eq!(r.reads, 512);
        assert_eq!(r.writes, 1);
        assert_eq!(r.instructions, 100);
        assert_eq!(r.l1.references(), 513);
        assert_eq!(r.classes.total(), r.l2.misses());
    }

    #[test]
    fn reset_stats_starts_measured_region() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        // "Initialization": touch everything once (cold misses).
        for off in (0..4096).step_by(8) {
            sim.write(Addr::new(off), 8);
        }
        sim.reset_stats();
        // Measured region: everything is L2-warm.
        for off in (0..4096).step_by(8) {
            sim.read(Addr::new(off), 8);
        }
        let r = sim.finish();
        assert_eq!(r.l2.misses(), 0, "no compulsory misses in measured region");
        assert_eq!(r.classes.compulsory, 0);
        assert_eq!(r.writes, 0, "init writes excluded");
    }

    #[test]
    fn batch_delivery_equals_element_wise() {
        let mut one = SimSink::new(MachineModel::r8000().hierarchy());
        let mut many = SimSink::new(MachineModel::r8000().hierarchy());
        let accesses: Vec<Access> = (0..1000u64)
            .map(|i| {
                if i % 3 == 0 {
                    Access::write(Addr::new(i * 16), 8)
                } else {
                    Access::read(Addr::new((i * 56) % 4096), 8)
                }
            })
            .collect();
        for &access in &accesses {
            one.access(access);
        }
        // Ragged chunks so batch boundaries land everywhere.
        for chunk in accesses.chunks(13) {
            many.access_batch(chunk);
        }
        assert_eq!(one.finish(), many.finish());
    }

    #[test]
    fn fast_path_knob_reaches_the_hierarchy() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        assert!(sim.fast_path());
        sim.set_fast_path(false);
        assert!(!sim.fast_path());
        assert!(!sim.hierarchy().fast_path());
    }

    #[test]
    fn add_threads_accumulates() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        sim.add_threads(100);
        sim.add_threads(23);
        assert_eq!(sim.report().threads, 123);
    }
}
