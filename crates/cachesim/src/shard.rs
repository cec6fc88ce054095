//! The sharded simulator's shell.
//!
//! Replay is not partitioned. Routing every record into per-shard
//! queues, replaying them on private hierarchies and merging the 3C
//! classifier's inputs back into program order never beat one inline
//! [`SimSink`] on any host measured, so [`ShardedSimSink`] is that
//! `SimSink` under a one-shard plan.

use crate::{Hierarchy, SimReport, SimSink};
use memtrace::{Access, SchedMark, StreamRun, TraceSink};

/// The address-region partition a [`ShardedSimSink`] replays under:
/// always one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan(());

impl ShardPlan {
    /// Effective number of shards (always 1).
    #[must_use]
    pub fn shards(&self) -> u32 {
        1
    }
}

/// A [`SimSink`] with a one-shard [`ShardPlan`]: every call forwards to
/// the inner sink, so its reports and profiles are `SimSink`'s own.
///
/// # Examples
///
/// ```
/// use cachesim::{MachineModel, ShardedSimSink, SimSink};
/// use memtrace::{Addr, TraceSink};
///
/// let machine = MachineModel::r8000();
/// let mut sharded = ShardedSimSink::new(machine.hierarchy(), 4);
/// let mut plain = SimSink::new(machine.hierarchy());
/// for off in (0..65536u64).step_by(8) {
///     sharded.read(Addr::new(off), 8);
///     plain.read(Addr::new(off), 8);
/// }
/// assert_eq!(sharded.plan().shards(), 1);
/// assert_eq!(sharded.finish(), plain.finish());
/// ```
#[derive(Clone, Debug)]
pub struct ShardedSimSink {
    sim: SimSink,
}

impl ShardedSimSink {
    /// Creates a sink over `hierarchy`. Whatever count is asked for,
    /// the plan is one shard (see the module docs).
    #[must_use]
    pub fn new(hierarchy: Hierarchy, _shards: u32) -> Self {
        ShardedSimSink {
            sim: SimSink::new(hierarchy),
        }
    }

    /// The partition in effect.
    #[must_use]
    pub fn plan(&self) -> ShardPlan {
        ShardPlan(())
    }

    /// Records forked threads, as [`SimSink::add_threads`].
    pub fn add_threads(&mut self, count: u64) {
        self.sim.add_threads(count);
    }

    /// Snapshots the current statistics, as [`SimSink::report`].
    pub fn report(&self) -> SimReport {
        self.sim.report()
    }

    /// Consumes the sink and returns the final statistics.
    pub fn finish(self) -> SimReport {
        self.sim.finish()
    }

    /// The probe observations, as [`SimSink::run_profile`].
    pub fn run_profile(&self) -> probe::RunProfile {
        self.sim.run_profile()
    }
}

impl TraceSink for ShardedSimSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.sim.access(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        self.sim.access_batch(accesses);
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.sim.instructions(count);
    }

    #[inline]
    fn run(&mut self, run: &StreamRun<'_>) {
        self.sim.run(run);
    }

    #[inline]
    fn mark(&mut self, mark: SchedMark<'_>) {
        self.sim.mark(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, HierarchyConfig};
    use memtrace::Addr;

    /// Feeds the same pseudo-random reads and writes — a strided walk
    /// and scattered references, some spanning lines — to a `SimSink`
    /// and to a `ShardedSimSink` asking for `shards`: equal reports.
    fn reports_match(hierarchy: impl Fn() -> Hierarchy, shards: u32, seed: u64) {
        let mut plain = SimSink::new(hierarchy());
        let mut sharded = ShardedSimSink::new(hierarchy(), shards);
        let mut state = seed;
        for i in 0..50_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new(if i % 2 == 0 { i * 8 } else { state >> 43 });
            let size = [1u32, 8, 8, 256][(state % 4) as usize];
            let access = if state.is_multiple_of(3) {
                Access::write(addr, size)
            } else {
                Access::read(addr, size)
            };
            plain.access(access);
            sharded.access(access);
        }
        assert_eq!(plain.finish(), sharded.finish());
    }

    #[test]
    fn degenerate_geometry_falls_back_to_one_shard() {
        // L1 way size equals the L2 line size: still one shard, and
        // the shell still replays.
        let h = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(64, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        ));
        let mut sink = ShardedSimSink::new(h, 8);
        assert_eq!(sink.plan().shards(), 1);
        sink.read(Addr::new(0), 8);
        assert_eq!(sink.report().reads, 1);
    }

    /// More shards than a byte can index: still one shard, still equal.
    #[test]
    fn sharded_equals_unsharded_at_512_requested_shards() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 16, 32, 1).unwrap(),
            CacheConfig::new(1 << 17, 32, 1).unwrap(),
        );
        let sink = ShardedSimSink::new(Hierarchy::new(config), 512);
        assert_eq!(sink.plan().shards(), 1);
        reports_match(|| Hierarchy::new(config), 512, 19);
    }
}
