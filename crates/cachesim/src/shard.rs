//! Address-region partitions of a hierarchy.
//!
//! The hierarchy's set-index bit fields make a partition exact rather
//! than approximate: pick `k` *selector bits* that lie inside the
//! set-index field of **every** level, and two addresses with different
//! selector values can never meet in a set at any level — they are, in
//! BUNDLEP's terms, conflict-free regions. A [`ShardPlan`] is such a
//! choice of bits; schedlint's partition certificates check real kernel
//! footprints against it. An MMU (fully-associative TLB, physically
//! indexed L2) breaks the selector-bit invariant, so a hierarchy with
//! one plans a single shard.
//!
//! Replay is not partitioned. Routing every record into per-shard
//! queues, replaying them on private hierarchies and merging the 3C
//! classifier's inputs back into program order never beat one inline
//! [`SimSink`] on any host measured, so [`ShardedSimSink`] is that
//! `SimSink` under a one-shard plan.

use crate::{Hierarchy, SimReport, SimSink};
use memtrace::{Access, SchedMark, StreamRun, TraceSink};

/// Most shards a plan may have.
const MAX_SHARDS: u32 = 1 << u8::BITS;

/// The address-region partition for a hierarchy: which selector bits
/// split the address space into conflict-free shards.
///
/// Validity: the selector bits `[shift, shift + log2(shards))` must lie
/// inside every level's set-index field, i.e. at or above every line
/// offset (`shift >= log2(line)`) and strictly below every level's way
/// size (`shift + k <= log2(line * sets)`). [`ShardPlan::for_hierarchy`]
/// picks the highest valid shift that still yields the requested shard
/// count and clamps that count to what the geometry supports;
/// [`ShardPlan::with_shift`] lets tests explore the whole valid space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shift: u32,
    mask: u64,
    shards: u32,
}

impl ShardPlan {
    /// The lowest valid selector shift for `hierarchy`: every level's
    /// line offset is below it.
    fn min_shift(hierarchy: &Hierarchy) -> u32 {
        let line_bits = |c: crate::CacheConfig| c.line().trailing_zeros();
        let levels = hierarchy.config().levels();
        levels.map(line_bits).max().expect("at least two levels")
    }

    /// One past the highest valid selector bit: the log2 of the
    /// smallest way size (line × sets) over all levels.
    fn max_shift(hierarchy: &Hierarchy) -> u32 {
        let way_bits = |c: crate::CacheConfig| (c.line() * c.sets()).trailing_zeros();
        let levels = hierarchy.config().levels();
        levels.map(way_bits).min().expect("at least two levels")
    }

    /// Plans a partition of `hierarchy` into at most `requested` shards.
    /// The effective shard count is the largest power of two ≤
    /// `requested` (and ≤ 256) that the geometry (and the absence of an
    /// MMU) supports; it can be 1.
    ///
    /// Among the valid selector shifts the planner takes the *highest*
    /// one that still yields that shard count — the coarsest granules,
    /// so interleaved streams (multiple arrays walked in lockstep)
    /// switch shards once per granule instead of once per line.
    #[must_use]
    pub fn for_hierarchy(hierarchy: &Hierarchy, requested: u32) -> ShardPlan {
        let lo = Self::min_shift(hierarchy);
        let hi = Self::max_shift(hierarchy);
        let fallback = ShardPlan {
            shift: lo,
            mask: 0,
            shards: 1,
        };
        if lo >= hi {
            return fallback;
        }
        // Bits needed for the requested count, clamped to the field.
        let k = 32 - requested.clamp(1, MAX_SHARDS).leading_zeros() - 1;
        let shift = hi - k.clamp(1, hi - lo);
        Self::with_shift(hierarchy, requested, shift).unwrap_or(fallback)
    }

    /// Plans a partition with an explicit selector shift, or `None` if
    /// `shift` is outside the valid selector field. The shard count is
    /// still clamped to the bits available above `shift`, and to 256.
    #[must_use]
    pub fn with_shift(hierarchy: &Hierarchy, requested: u32, shift: u32) -> Option<ShardPlan> {
        let lo = Self::min_shift(hierarchy);
        let hi = Self::max_shift(hierarchy);
        if shift < lo || shift >= hi {
            return None;
        }
        let mut k = hi - shift;
        if hierarchy.has_mmu() {
            // Physically-indexed levels and the fully-associative TLB
            // do not partition by virtual address.
            k = 0;
        }
        let requested = requested.clamp(1, MAX_SHARDS);
        let mut shards = 1u32 << k.min(31);
        while shards > requested {
            shards >>= 1;
        }
        Some(ShardPlan {
            shift,
            mask: u64::from(shards) - 1,
            shards,
        })
    }

    /// Effective number of shards (a power of two, ≥ 1).
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The selector shift: shard identity is `(addr >> shift) % shards`.
    #[must_use]
    pub fn selector_shift(&self) -> u32 {
        self.shift
    }

    /// Which shard owns `addr`.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, addr: u64) -> u32 {
        ((addr >> self.shift) & self.mask) as u32
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
    plan: ShardPlan,
}

impl ShardedSimSink {
    /// Creates a sink over `hierarchy`. Whatever count is asked for,
    /// the plan is one shard (see the module docs).
    #[must_use]
    pub fn new(hierarchy: Hierarchy, _shards: u32) -> Self {
        ShardedSimSink {
            plan: ShardPlan::for_hierarchy(&hierarchy, 1),
            sim: SimSink::new(hierarchy),
        }
    }

    /// The partition in effect.
    #[must_use]
    pub fn plan(&self) -> ShardPlan {
        self.plan
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
    use crate::{CacheConfig, HierarchyConfig, MachineModel};
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
    fn plan_respects_geometry_bounds() {
        let machine = MachineModel::r8000();
        let h = machine.hierarchy();
        // r8000: L1 way size 16 KiB (2^14), L2 line 128 B → selector
        // field [7, 14): up to 128 shards.
        let plan = ShardPlan::for_hierarchy(&h, 1024);
        assert_eq!(plan.selector_shift(), 7);
        assert_eq!(plan.shards(), 128);
        assert_eq!(ShardPlan::for_hierarchy(&h, 4).shards(), 4);
        // When the field has spare bits, the planner sits the selector
        // at the top of it: 4 shards need 2 bits → shift 12, not 7.
        assert_eq!(ShardPlan::for_hierarchy(&h, 4).selector_shift(), 12);
        assert_eq!(ShardPlan::for_hierarchy(&h, 5).shards(), 4, "round down");
        assert_eq!(ShardPlan::for_hierarchy(&h, 0).shards(), 1);
        assert!(ShardPlan::with_shift(&h, 4, 6).is_none(), "inside L2 line");
        assert!(ShardPlan::with_shift(&h, 4, 14).is_none(), "above L1 way");
        assert_eq!(ShardPlan::with_shift(&h, 4, 11).unwrap().shards(), 4);
    }

    #[test]
    fn degenerate_geometry_falls_back_to_one_shard() {
        // L1 way size equals the L2 line size: no valid selector bits.
        let h = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(64, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        ));
        let plan = ShardPlan::for_hierarchy(&h, 8);
        assert_eq!(plan.shards(), 1);
        let mut sink = ShardedSimSink::new(h, 8);
        sink.read(Addr::new(0), 8);
        assert_eq!(sink.report().reads, 1);
    }

    #[test]
    fn mmu_forces_inline_mode_and_stays_identical() {
        use crate::{Mmu, PageMapper, PagePolicy};
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 12, 32, 1).unwrap(),
            CacheConfig::new(1 << 16, 128, 4).unwrap(),
        );
        let make = || {
            Hierarchy::with_mmu(
                config,
                Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(5), 4096), 8),
            )
        };
        assert_eq!(ShardPlan::for_hierarchy(&make(), 8).shards(), 1);
        reports_match(make, 8, 11);
    }

    /// More shards than a byte can index: the plan clamps to 256.
    #[test]
    fn sharded_equals_unsharded_at_512_requested_shards() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 16, 32, 1).unwrap(),
            CacheConfig::new(1 << 17, 32, 1).unwrap(),
        );
        let plan = ShardPlan::for_hierarchy(&Hierarchy::new(config), 512);
        assert_eq!(plan.shards(), MAX_SHARDS);
        let low = ShardPlan::with_shift(&Hierarchy::new(config), 512, 5).unwrap();
        assert!(low.shards() <= 256);
        reports_match(|| Hierarchy::new(config), 512, 19);
    }
}
