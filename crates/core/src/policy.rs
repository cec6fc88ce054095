//! Bin policies: the pluggable hints → bin-key mapping.
//!
//! The paper's engine (hash table, ready list, drain loop) is separate
//! from its *policy* (block sizes, symmetric folding): "the default
//! dimension sizes of the block are set such that their sum are the
//! same as the second-level cache size" (§3.2) is one choice among
//! many. [`BinPolicy`] makes that choice a first-class parameter of the
//! shared bin engine, so the locality and parallel schedulers are thin
//! configurations of one engine, and the FIFO and random
//! baselines are type aliases of the locality scheduler under a
//! degenerate policy.
//!
//! One type reproduces and extends the paper — [`TopologyPolicy`], a
//! ladder of block sizes, one per machine level, finest to coarsest
//! (L1 ⊂ L2 ⊂ L3 ⊂ NUMA node ⊂ …). Threads are binned at the finest
//! granularity; the engine tours the coarsest-level groups and drains
//! nested sub-bins back-to-back in sorted-key order at every depth. At
//! depth 1 ([`TopologyPolicy::from_config`]) it is the paper's mapping,
//! bit-identical to `SchedulerConfig::block_coords`: shift each hint by
//! `log2(block size)`, optionally fold symmetric hints by sorting
//! coordinates descending. At depth 2 it nests L1-sized sub-bins in
//! L2-sized parents.
//!
//! Two degenerate policies express the baselines:
//!
//! * [`SingleBin`] — every thread in one bin (FIFO order).
//! * [`UniqueBin`] — every thread in its own bin (combined with
//!   [`RandomScheduler`](crate::RandomScheduler)'s shuffled bin order,
//!   a seeded shuffle).
//!
//! [`AnyPolicy`] is the closed sum of the three — what a caller that
//! picks its policy from a name at run time passes to the engine.

use crate::config::ConfigError;
use crate::hint::MAX_DIMS;
use crate::{Hints, SchedulerConfig};

/// Maximum depth of a [`TopologyPolicy`] ancestor ladder, and so of the
/// machine capacity ladders bin geometry reads.
pub const MAX_LEVELS: usize = 8;

/// A policy mapping fork-time [`Hints`] to a bin key in the scheduling
/// space. The bin engine owns everything else (hashing, ready list,
/// tour, drain loop); the policy owns only geometry.
///
/// `bin_key` takes `&mut self` so policies may be stateful (see
/// [`UniqueBin`]); stateless policies simply ignore the mutability.
pub trait BinPolicy: Clone + std::fmt::Debug {
    /// Maps hints to the (finest-level) bin key.
    fn bin_key(&mut self, hints: Hints) -> [u64; MAX_DIMS];

    /// Maps a fine bin key to its enclosing ancestor key at `level` of
    /// the policy's ladder: level 0 is the key itself, level
    /// `depth() - 1` the coarsest grouping. Levels at or beyond the
    /// depth saturate at the coarsest key. The engine tours
    /// coarsest-level groups and drains each group's bins contiguously,
    /// sorted by their full ancestor ladder; for single-level policies
    /// every level is the identity, so the tour sees the bin keys
    /// themselves.
    fn ancestor_key(&self, key: [u64; MAX_DIMS], level: u32) -> [u64; MAX_DIMS] {
        let _ = level;
        key
    }

    /// Number of ladder levels (1 = flat, 2 = sub-bins within parents,
    /// 3+ = deeper machine hierarchies). The engine groups bins by
    /// ancestor only when this exceeds 1; at depth 1 it drains bins in
    /// allocation order, the paper's ready list.
    fn depth(&self) -> u32 {
        1
    }

    /// Whether this policy folds hint permutations into one bin
    /// (`bin_key` is invariant under reordering of the hint addresses).
    fn symmetric(&self) -> bool {
        false
    }

    /// Whether every `bin_key` call returns a key never seen before.
    /// The engine then appends bins without consulting the hash table,
    /// avoiding quadratic chain walks for per-thread-unique keys.
    fn always_unique(&self) -> bool {
        false
    }
}

/// Multi-level policy: one bin block size per machine-hierarchy level,
/// finest to coarsest (L1 ⊂ L2 ⊂ L3 ⊂ NUMA node ⊂ …).
///
/// Threads are keyed at the finest granularity
/// (`addr >> log2(level-0 block)`); the ancestor key at level `l`
/// truncates the fine key to that level's block granularity. The engine
/// tours the coarsest-level groups — so inter-group order matches what
/// the depth-1 ladder of the coarsest blocks would produce — and drains
/// each group's bins sorted by their full ancestor ladder, running
/// threads that share any level's working set back-to-back. This is the
/// "hierarchy level as a scheduling parameter" extension (compare
/// bubble scheduling over the cache hierarchy): coarsest-level capacity
/// misses are avoided by the grouping exactly as in the paper, and
/// finer-level capacity misses shrink because the within-group order is
/// no longer arbitrary ("the scheduling order of threads in the same
/// bin can be arbitrary", §2.3 — here it nests locality at every
/// depth).
///
/// Build one from a machine with
/// `BinGeometry::topology_policy` (workloads crate), which derives the
/// per-level block sizes from `cachesim::MachineModel::capacities`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyPolicy {
    base_shifts: [u32; MAX_DIMS],
    /// Per-level, per-dimension cumulative shift from the fine key to
    /// that level's ancestor key (`rel_shifts[0]` is all zeros).
    rel_shifts: [[u32; MAX_DIMS]; MAX_LEVELS],
    depth: u32,
    symmetric: bool,
}

impl TopologyPolicy {
    /// The paper's policy (§2.3/§3.2), the depth-1 ladder of a
    /// [`SchedulerConfig`]'s block sizes and symmetric flag: each hint
    /// address shifted right by `log2(block size)` for its dimension,
    /// with optional symmetric folding (coordinates sorted descending so
    /// mirrored hints share a bin). The mapping every config-built
    /// scheduler uses. Built directly rather than through
    /// [`new`](Self::new): the paper folds whatever per-dimension sizes
    /// `th_init` was given; the uniform-blocks rule exists for nested
    /// levels.
    pub fn from_config(config: &SchedulerConfig) -> Self {
        TopologyPolicy {
            base_shifts: config.shifts(),
            rel_shifts: [[0; MAX_DIMS]; MAX_LEVELS],
            depth: 1,
            symmetric: config.symmetric(),
        }
    }

    /// Builds a policy from per-level, per-dimension block sizes,
    /// finest level first.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no levels or more than
    /// [`MAX_LEVELS`], if any block size is zero or not a power of two,
    /// if a dimension's block sizes decrease up the levels, or if
    /// `symmetric` is requested with non-uniform block sizes within any
    /// level (folding permutes coordinates across dimensions, which is
    /// only meaningful when every dimension uses the same geometry).
    pub fn new(level_blocks: &[[u64; MAX_DIMS]], symmetric: bool) -> Result<Self, ConfigError> {
        if level_blocks.is_empty() {
            return Err(ConfigError::new("topology policy needs at least one level"));
        }
        if level_blocks.len() > MAX_LEVELS {
            return Err(ConfigError::new(format!(
                "topology policy has {} levels, more than the supported {MAX_LEVELS}",
                level_blocks.len()
            )));
        }
        let mut shifts = [[0u32; MAX_DIMS]; MAX_LEVELS];
        for (level, blocks) in level_blocks.iter().enumerate() {
            for (dim, &size) in blocks.iter().enumerate() {
                if size == 0 || !size.is_power_of_two() {
                    return Err(ConfigError::new(format!(
                        "block size {size} in level {level} dimension {dim} is not a nonzero \
                         power of two"
                    )));
                }
                shifts[level][dim] = size.trailing_zeros();
            }
            if symmetric && blocks.windows(2).any(|w| w[0] != w[1]) {
                return Err(ConfigError::new(
                    "symmetric folding requires uniform block sizes across dimensions",
                ));
            }
        }
        for level in 1..level_blocks.len() {
            for dim in 0..MAX_DIMS {
                if shifts[level][dim] < shifts[level - 1][dim] {
                    return Err(ConfigError::new(format!(
                        "block sizes must not shrink up the levels: dimension {dim} uses {} at \
                         level {} but {} at level {level}",
                        level_blocks[level - 1][dim],
                        level - 1,
                        level_blocks[level][dim],
                    )));
                }
            }
        }
        let base_shifts = shifts[0];
        let mut rel_shifts = [[0u32; MAX_DIMS]; MAX_LEVELS];
        for level in 0..level_blocks.len() {
            for dim in 0..MAX_DIMS {
                rel_shifts[level][dim] = shifts[level][dim] - base_shifts[dim];
            }
        }
        Ok(TopologyPolicy {
            base_shifts,
            rel_shifts,
            depth: level_blocks.len() as u32,
            symmetric,
        })
    }

    /// Convenience constructor: the same block size in every dimension
    /// of each level.
    pub fn uniform(level_blocks: &[u64], symmetric: bool) -> Result<Self, ConfigError> {
        let levels: Vec<[u64; MAX_DIMS]> = level_blocks.iter().map(|&b| [b; MAX_DIMS]).collect();
        TopologyPolicy::new(&levels, symmetric)
    }
}

impl BinPolicy for TopologyPolicy {
    #[inline]
    fn bin_key(&mut self, hints: Hints) -> [u64; MAX_DIMS] {
        let addrs = hints.as_array();
        let mut coords = [
            addrs[0].raw() >> self.base_shifts[0],
            addrs[1].raw() >> self.base_shifts[1],
            addrs[2].raw() >> self.base_shifts[2],
            addrs[3].raw() >> self.base_shifts[3],
        ];
        if self.symmetric {
            // Canonicalize the coordinate multiset; descending order
            // keeps null (zero) coordinates in the trailing dimensions.
            // Shifting is monotone, so descending fine keys yield
            // descending ancestor keys: folding stays consistent across
            // every level.
            coords.sort_unstable_by(|a, b| b.cmp(a));
        }
        coords
    }

    #[inline]
    fn ancestor_key(&self, key: [u64; MAX_DIMS], level: u32) -> [u64; MAX_DIMS] {
        let rel = &self.rel_shifts[level.min(self.depth - 1) as usize];
        [
            key[0] >> rel[0],
            key[1] >> rel[1],
            key[2] >> rel[2],
            key[3] >> rel[3],
        ]
    }

    fn depth(&self) -> u32 {
        self.depth
    }

    fn symmetric(&self) -> bool {
        self.symmetric
    }
}

/// The two-level ladder's former constructor, kept only because the
/// repo benchmark's `sched_null` workload names it; no value of this
/// type exists. The next benchmark change (ROADMAP item 1) deletes it.
pub enum Hierarchical {}

impl Hierarchical {
    /// `TopologyPolicy::uniform(&[l1_block, l2_block], symmetric)`: L1
    /// sub-bins nested in L2 parent bins.
    ///
    /// # Errors
    ///
    /// As [`TopologyPolicy::uniform`].
    pub fn uniform(
        l1_block: u64,
        l2_block: u64,
        symmetric: bool,
    ) -> Result<TopologyPolicy, ConfigError> {
        TopologyPolicy::uniform(&[l1_block, l2_block], symmetric)
    }
}

/// Degenerate policy: every thread lands in one bin, so the engine
/// drains in fork (FIFO) order. [`FifoScheduler`](crate::FifoScheduler)
/// is the locality scheduler under it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SingleBin;

impl BinPolicy for SingleBin {
    #[inline]
    fn bin_key(&mut self, _hints: Hints) -> [u64; MAX_DIMS] {
        [0; MAX_DIMS]
    }

    fn symmetric(&self) -> bool {
        // A constant map is trivially permutation-invariant.
        true
    }
}

/// Degenerate policy: every thread gets its own bin (keys are a fork
/// counter). Under a shuffled bin order this shuffles individual
/// threads — [`RandomScheduler`](crate::RandomScheduler) is the
/// locality scheduler under it, bit-identical to the pre-refactor
/// per-thread shuffle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniqueBin {
    next: u64,
}

impl BinPolicy for UniqueBin {
    #[inline]
    fn bin_key(&mut self, _hints: Hints) -> [u64; MAX_DIMS] {
        let key = self.next;
        self.next += 1;
        [key, 0, 0, 0]
    }

    fn always_unique(&self) -> bool {
        true
    }
}

/// Any shipped policy as one value: the block ladder at whatever depth
/// (1 = the paper's flat policy, 2 = L1-in-L2, n = the machine tree) or
/// one of the two degenerate baselines. For callers that choose the
/// policy from a name at run time and so cannot name it as a type
/// parameter; each method forwards to the variant's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnyPolicy {
    /// A block-size ladder, finest level first.
    Ladder(TopologyPolicy),
    /// Everything in one bin.
    Single(SingleBin),
    /// Every thread its own bin.
    Unique(UniqueBin),
}

impl BinPolicy for AnyPolicy {
    #[inline]
    fn bin_key(&mut self, hints: Hints) -> [u64; MAX_DIMS] {
        match self {
            AnyPolicy::Ladder(p) => p.bin_key(hints),
            AnyPolicy::Single(p) => p.bin_key(hints),
            AnyPolicy::Unique(p) => p.bin_key(hints),
        }
    }

    #[inline]
    fn ancestor_key(&self, key: [u64; MAX_DIMS], level: u32) -> [u64; MAX_DIMS] {
        match self {
            AnyPolicy::Ladder(p) => p.ancestor_key(key, level),
            AnyPolicy::Single(_) | AnyPolicy::Unique(_) => key,
        }
    }

    fn depth(&self) -> u32 {
        match self {
            AnyPolicy::Ladder(p) => p.depth(),
            AnyPolicy::Single(_) | AnyPolicy::Unique(_) => 1,
        }
    }

    fn symmetric(&self) -> bool {
        match self {
            AnyPolicy::Ladder(p) => p.symmetric(),
            AnyPolicy::Single(p) => p.symmetric(),
            AnyPolicy::Unique(p) => p.symmetric(),
        }
    }

    fn always_unique(&self) -> bool {
        matches!(self, AnyPolicy::Unique(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Addr;

    #[test]
    fn paper_block_hash_matches_config_block_coords() {
        // Non-uniform blocks fold too: the paper folds whatever
        // per-dimension sizes `th_init` was given.
        for symmetric in [false, true] {
            let cfg = SchedulerConfig::builder()
                .block_sizes([1024, 2048, 4096, 8192])
                .symmetric(symmetric)
                .build()
                .unwrap();
            let mut policy = TopologyPolicy::from_config(&cfg);
            for hints in [
                Hints::three(Addr::new(10_000), Addr::new(70_000), Addr::new(5_000)),
                Hints::two(Addr::new(0x9000), Addr::new(0x1000)),
            ] {
                let key = policy.bin_key(hints);
                assert_eq!(key, cfg.block_coords(hints));
                assert_eq!(policy.ancestor_key(key, 1), key, "one level");
            }
            assert_eq!((policy.depth(), policy.symmetric()), (1, symmetric));
        }
        let cfg = SchedulerConfig::builder()
            .block_sizes([1024, 2048, 4096, 8192])
            .build()
            .unwrap();
        assert_eq!(
            TopologyPolicy::new(&[[1024, 2048, 4096, 8192]], false),
            Ok(TopologyPolicy::from_config(&cfg))
        );
    }

    #[test]
    fn hierarchical_nests_l1_in_l2() {
        let mut policy = TopologyPolicy::uniform(&[1 << 10, 1 << 12], false).unwrap();
        assert_eq!(policy.depth(), 2);
        // Two addresses in the same 4 KiB parent but different 1 KiB
        // sub-blocks.
        let a = policy.bin_key(Hints::one(Addr::new(0x1000)));
        let b = policy.bin_key(Hints::one(Addr::new(0x1400)));
        assert_ne!(a, b, "distinct L1 sub-bins");
        assert_eq!(
            policy.ancestor_key(a, 1),
            policy.ancestor_key(b, 1),
            "same L2 parent"
        );
        // A third address in another parent.
        let c = policy.bin_key(Hints::one(Addr::new(0x4000)));
        assert_ne!(policy.ancestor_key(a, 1), policy.ancestor_key(c, 1));
    }

    #[test]
    fn topology_policy_nests_every_level() {
        let mut policy =
            TopologyPolicy::uniform(&[1 << 10, 1 << 12, 1 << 14, 1 << 16], false).unwrap();
        assert_eq!(policy.depth(), 4);
        // Same 64 KiB node, same 16 KiB group, different 4 KiB parents.
        let a = policy.bin_key(Hints::one(Addr::new(0x1000)));
        let b = policy.bin_key(Hints::one(Addr::new(0x2400)));
        assert_ne!(a, b);
        assert_ne!(policy.ancestor_key(a, 1), policy.ancestor_key(b, 1));
        assert_eq!(policy.ancestor_key(a, 2), policy.ancestor_key(b, 2));
        assert_eq!(policy.ancestor_key(a, 3), policy.ancestor_key(b, 3));
        // Level 0 is the key itself; levels beyond the depth saturate.
        assert_eq!(policy.ancestor_key(a, 0), a);
        assert_eq!(policy.ancestor_key(a, 9), policy.ancestor_key(a, 3));
    }

    #[test]
    fn topology_policy_validates_geometry() {
        assert!(TopologyPolicy::uniform(&[], false).is_err(), "no levels");
        assert!(
            TopologyPolicy::uniform(&[1 << 12, 1 << 10], false).is_err(),
            "L1 > L2: blocks shrink up the levels"
        );
        assert!(TopologyPolicy::uniform(&[0, 1 << 10], false).is_err());
        assert!(TopologyPolicy::uniform(&[3000], false).is_err());
        assert!(TopologyPolicy::uniform(&[3000, 1 << 12], false).is_err());
        assert!(TopologyPolicy::new(&[[0, 1, 1, 1]], false).is_err());
        assert!(TopologyPolicy::new(&[[3, 1, 1, 1]], false).is_err());
        assert!(
            TopologyPolicy::new(&[[512, 1024, 512, 512], [4096; 4]], true).is_err(),
            "symmetric folding needs uniform blocks"
        );
        let nine: Vec<u64> = (0..9).map(|i| 1u64 << (10 + i)).collect();
        assert!(TopologyPolicy::uniform(&nine, false).is_err(), "too deep");
        assert!(TopologyPolicy::uniform(&[1 << 10], false).is_ok(), "flat");
        assert!(TopologyPolicy::uniform(&[1 << 10], true).is_ok());
        assert!(TopologyPolicy::uniform(&[1 << 10, 1 << 12], true).is_ok());
        // Equal block sizes at adjacent levels are allowed (a level can
        // be a no-op for one dimension).
        assert!(TopologyPolicy::uniform(&[1 << 10, 1 << 10, 1 << 12], false).is_ok());
    }

    #[test]
    fn hierarchical_symmetric_folds_at_both_levels() {
        for levels in [&[1 << 10, 1 << 12][..], &[1 << 10, 1 << 13]] {
            let mut policy = TopologyPolicy::uniform(levels, true).unwrap();
            for (x, y) in [(0x1000, 0x9000), (0x123456, 0xffff)] {
                let ab = policy.bin_key(Hints::two(Addr::new(x), Addr::new(y)));
                let ba = policy.bin_key(Hints::two(Addr::new(y), Addr::new(x)));
                assert_eq!(ab, ba);
                assert_eq!(policy.ancestor_key(ab, 1), policy.ancestor_key(ba, 1));
            }
        }
    }

    #[test]
    fn unique_bin_never_repeats() {
        let mut policy = UniqueBin::default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(policy.bin_key(Hints::none())));
        }
        assert!(policy.always_unique());
    }

    #[test]
    fn single_bin_is_constant() {
        let mut policy = SingleBin;
        assert_eq!(
            policy.bin_key(Hints::one(Addr::new(123))),
            policy.bin_key(Hints::one(Addr::new(1 << 40)))
        );
    }
}
