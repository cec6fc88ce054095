//! Property-based tests of the cache simulator's invariants.

use cachesim::{Cache, CacheConfig, Hierarchy, HierarchyConfig, MissClass, MissClassifier};
use memtrace::{Access, Addr};
use proptest::prelude::*;

/// A naive reference model of a set-associative LRU cache, O(assoc) per
/// access, kept deliberately dumb so it can serve as an oracle.
struct NaiveCache {
    sets: Vec<Vec<(u64, bool)>>, // MRU-first (tag, dirty) lists
    assoc: usize,
    line: u64,
    writebacks: u64,
}

impl NaiveCache {
    fn new(config: CacheConfig) -> Self {
        NaiveCache {
            sets: vec![Vec::new(); config.sets() as usize],
            assoc: config.assoc() as usize,
            line: config.line(),
            writebacks: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        let line = addr / self.line;
        let set = (line % self.sets.len() as u64) as usize;
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&(t, _)| t == line) {
            let (_, dirty) = list.remove(pos);
            list.insert(0, (line, dirty || write));
            true
        } else {
            if list.len() == self.assoc {
                let (_, dirty) = list.pop().expect("a full set");
                self.writebacks += u64::from(dirty);
            }
            list.insert(0, (line, write));
            false
        }
    }
}

fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
    // sizes 256B..8KiB, lines 16..128, assoc 1..64, filtered for validity
    (8u32..14, 4u32..8, 0u32..7).prop_filter_map(
        "valid geometry",
        |(size_log2, line_log2, assoc_log2)| {
            CacheConfig::new(1 << size_log2, 1 << line_log2, 1 << assoc_log2).ok()
        },
    )
}

proptest! {
    /// The set-associative cache matches a naive LRU oracle on random
    /// address streams, for any geometry.
    #[test]
    fn cache_matches_naive_lru_oracle(
        config in arb_geometry(),
        addrs in prop::collection::vec(0u64..16384, 1..2000),
        writes in prop::collection::vec(any::<bool>(), 2000),
    ) {
        let mut cache = Cache::new(config);
        let mut oracle = NaiveCache::new(config);
        for (i, &addr) in addrs.iter().enumerate() {
            let hit = cache.access_addr(Addr::new(addr), writes[i]);
            prop_assert_eq!(hit, oracle.access(addr, writes[i]), "access {} at {:#x}", i, addr);
        }
        prop_assert_eq!(cache.stats().writebacks, oracle.writebacks);
    }

    /// 3C classes always partition the misses, and the first touch of
    /// every line is compulsory.
    #[test]
    fn classes_partition_and_first_touch_is_compulsory(
        lines in prop::collection::vec(0u64..64, 1..2000),
    ) {
        let config = CacheConfig::new(512, 32, 1).unwrap();
        let mut classifier = MissClassifier::new(&config);
        let mut seen = std::collections::HashSet::new();
        let mut misses = 0u64;
        for &line in &lines {
            let class = classifier.classify_miss(line);
            misses += 1;
            if seen.insert(line) {
                prop_assert_eq!(class, MissClass::Compulsory);
            } else {
                prop_assert_ne!(class, MissClass::Compulsory);
            }
        }
        prop_assert_eq!(classifier.counts().total(), misses);
    }

    /// Fully-associative LRU caches have the stack (inclusion)
    /// property: a larger cache never misses where a smaller one hits.
    #[test]
    fn fully_associative_inclusion_property(
        addrs in prop::collection::vec(0u64..8192, 1..2000),
    ) {
        let small = CacheConfig::new(256, 32, 8).unwrap(); // 8 lines FA
        let large = CacheConfig::new(512, 32, 16).unwrap(); // 16 lines FA
        let mut small_cache = Cache::new(small);
        let mut large_cache = Cache::new(large);
        for &addr in &addrs {
            let small_hit = small_cache.access_addr(Addr::new(addr), false);
            let large_hit = large_cache.access_addr(Addr::new(addr), false);
            prop_assert!(!small_hit || large_hit, "inclusion violated at {addr:#x}");
        }
    }

    /// In a hierarchy, L2 references never exceed L1 references, and
    /// the classifier exactly partitions L2 misses.
    #[test]
    fn hierarchy_invariants(
        accesses in prop::collection::vec((0u64..32768, any::<bool>(), 1u32..16), 1..2000),
    ) {
        let mut h = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(512, 32, 1).unwrap(),
            CacheConfig::new(4096, 64, 2).unwrap(),
        ));
        for &(addr, write, size) in &accesses {
            let access = if write {
                Access::write(Addr::new(addr), size)
            } else {
                Access::read(Addr::new(addr), size)
            };
            h.access(access);
        }
        prop_assert!(h.l2_stats().references() <= h.l1_stats().references() + h.l1_stats().writebacks);
        prop_assert_eq!(h.classes().total(), h.l2_stats().misses());
        prop_assert!(h.l1_stats().misses() <= h.l1_stats().references());
        prop_assert_eq!(h.memory_reads(), h.l2_stats().misses());
    }

    /// An access of any size touches exactly the L1 lines it spans.
    #[test]
    fn access_splitting_touches_spanned_lines(
        addr in 0u64..4096,
        size in 1u32..256,
    ) {
        let mut h = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(1024, 32, 2).unwrap(),
            CacheConfig::new(4096, 64, 2).unwrap(),
        ));
        h.access(Access::read(Addr::new(addr), size));
        let expected = (addr + u64::from(size) - 1) / 32 - addr / 32 + 1;
        prop_assert_eq!(h.l1_stats().references(), expected);
    }

    /// Warm reruns of a working set that fits in L2 produce zero L2
    /// misses, regardless of the access pattern.
    #[test]
    fn l2_resident_working_set_stops_missing(
        offsets in prop::collection::vec(0u64..2048, 1..500),
    ) {
        let mut h = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(), // holds all 2 KiB
        ));
        for &off in &offsets {
            h.access(Access::read(Addr::new(off), 8));
        }
        h.reset_stats();
        for &off in &offsets {
            h.access(Access::read(Addr::new(off), 8));
        }
        prop_assert_eq!(h.l2_stats().misses(), 0);
    }
}
