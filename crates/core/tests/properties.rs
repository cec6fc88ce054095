//! Property-based tests of the locality scheduler's invariants.

use locality_sched::{
    Addr, AnyPolicy, BinPolicy, FifoScheduler, Hierarchical, Hints, PaperBlockHash,
    RandomScheduler, RunMode, Scheduler, SchedulerConfig, SingleBin, ThreadScheduler,
    TopologyPolicy,
};
use proptest::prelude::*;

type Log = Vec<(usize, usize)>;

fn record(log: &mut Log, a: usize, b: usize) {
    log.push((a, b));
}

/// Arbitrary hint tuples over a bounded address space.
fn arb_hints() -> impl Strategy<Value = Hints> {
    let addr = 0u64..(1 << 26);
    prop_oneof![
        Just(Hints::none()),
        addr.clone().prop_map(|a| Hints::one(Addr::new(a))),
        (addr.clone(), addr.clone()).prop_map(|(a, b)| Hints::two(Addr::new(a), Addr::new(b))),
        (addr.clone(), addr.clone(), addr.clone()).prop_map(|(a, b, c)| Hints::three(
            Addr::new(a),
            Addr::new(b),
            Addr::new(c)
        )),
        (addr.clone(), addr.clone(), addr.clone(), addr).prop_map(|(a, b, c, d)| {
            Hints::four(Addr::new(a), Addr::new(b), Addr::new(c), Addr::new(d))
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = locality_sched::StealPolicy> {
    use locality_sched::StealPolicy;
    prop_oneof![
        Just(StealPolicy::None),
        Just(StealPolicy::Random),
        Just(StealPolicy::LocalityAware),
    ]
}

fn arb_config() -> impl Strategy<Value = SchedulerConfig> {
    (6u32..24, 1usize..6, any::<bool>()).prop_map(|(block_log2, hash_log2, symmetric)| {
        SchedulerConfig::builder()
            .block_size(1 << block_log2)
            .hash_size(1 << hash_log2)
            .symmetric(symmetric)
            .build()
            .expect("generated configs are valid")
    })
}

/// FNV-1a digest of `block_coords` over a deterministic pseudo-random
/// hint set, captured from the pre-refactor mapping: the policy
/// extraction must not move a single bin key.
#[test]
fn block_coords_digest_matches_pre_refactor_golden() {
    for (symmetric, golden) in [
        (false, 0xb241_e70e_f124_5edd_u64),
        (true, 0x1b46_4ef1_f4fe_c907),
    ] {
        let cfg = SchedulerConfig::builder()
            .block_size(1 << 16)
            .symmetric(symmetric)
            .build()
            .unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..500 {
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let a = next() % (1 << 30);
            let b = next() % (1 << 30);
            let c = next() % (1 << 30);
            let hints = Hints::three(Addr::new(a), Addr::new(b), Addr::new(c));
            for v in cfg.block_coords(hints) {
                digest ^= v;
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, golden, "symmetric={symmetric}");
    }
}

proptest! {
    /// Every forked thread runs exactly once, under any configuration
    /// and hint mixture.
    #[test]
    fn every_thread_runs_exactly_once(
        config in arb_config(),
        hints in prop::collection::vec(arb_hints(), 0..300),
    ) {
        let mut sched = Scheduler::<Log>::new(config);
        for (i, h) in hints.iter().enumerate() {
            sched.fork(record, i, 0, *h);
        }
        let mut log = Log::new();
        let stats = sched.run(&mut log, RunMode::Consume);
        prop_assert_eq!(stats.threads_run, hints.len() as u64);
        let mut ids: Vec<usize> = log.iter().map(|&(a, _)| a).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..hints.len()).collect::<Vec<_>>());
    }

    /// Threads sharing a bin run contiguously: for any two threads with
    /// identical hints, no thread with a different bin runs between
    /// them.
    #[test]
    fn identical_hints_run_contiguously(
        config in arb_config(),
        hints in prop::collection::vec(arb_hints(), 1..100),
        picks in prop::collection::vec(0usize..100, 2..50),
    ) {
        // Fork threads whose hints repeat (tagged by hint index).
        let mut sched = Scheduler::<Log>::new(config);
        let assignments: Vec<usize> =
            picks.iter().map(|&p| p % hints.len()).collect();
        for (i, &which) in assignments.iter().enumerate() {
            sched.fork(record, i, which, hints[which]);
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        // Threads sharing a *block key* (bin) must form one contiguous
        // run in the log — the scheduler drains each bin completely.
        for target in 0..hints.len() {
            let target_key = config.block_coords(hints[target]);
            let positions: Vec<usize> = log
                .iter()
                .enumerate()
                .filter(|(_, &(_, w))| config.block_coords(hints[w]) == target_key)
                .map(|(pos, _)| pos)
                .collect();
            if let (Some(&first), Some(&last)) = (positions.first(), positions.last()) {
                prop_assert_eq!(
                    last - first + 1,
                    positions.len(),
                    "bin {:?} scattered", target_key
                );
            }
        }
    }

    /// Retained schedules re-run identically.
    #[test]
    fn retain_is_deterministic(
        config in arb_config(),
        hints in prop::collection::vec(arb_hints(), 0..100),
    ) {
        let mut sched = Scheduler::<Log>::new(config);
        for (i, h) in hints.iter().enumerate() {
            sched.fork(record, i, 0, *h);
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Retain);
        let first: Log = log.clone();
        log.clear();
        sched.run(&mut log, RunMode::Consume);
        prop_assert_eq!(first, log);
    }

    /// Symmetric folding: mirrored two-dimensional hints land in the
    /// same bin (§2.3's 50% bin saving), for any pair of addresses.
    #[test]
    fn symmetric_folding_merges_mirrored_pairs(
        a in 0u64..(1 << 30),
        b in 0u64..(1 << 30),
        block_log2 in 6u32..20,
    ) {
        let config = SchedulerConfig::builder()
            .block_size(1 << block_log2)
            .symmetric(true)
            .build()
            .unwrap();
        let mut sched = Scheduler::<Log>::new(config);
        sched.fork(record, 0, 0, Hints::two(Addr::new(a), Addr::new(b)));
        sched.fork(record, 1, 0, Hints::two(Addr::new(b), Addr::new(a)));
        prop_assert_eq!(sched.bins(), 1);
    }

    /// Block assignment matches the arithmetic definition: hints whose
    /// per-dimension blocks all match share a bin; hints differing in
    /// any dimension's block do not (symmetric folding off).
    #[test]
    fn bin_sharing_matches_block_arithmetic(
        a in 0u64..(1 << 26),
        b in 0u64..(1 << 26),
        block_log2 in 6u32..20,
    ) {
        let block = 1u64 << block_log2;
        let config = SchedulerConfig::builder().block_size(block).build().unwrap();
        let mut sched = Scheduler::<Log>::new(config);
        sched.fork(record, 0, 0, Hints::one(Addr::new(a)));
        sched.fork(record, 1, 0, Hints::one(Addr::new(b)));
        let same_block = (a / block) == (b / block);
        prop_assert_eq!(sched.bins(), if same_block { 1 } else { 2 });
    }

    /// All scheduler policies run the same thread multiset.
    #[test]
    fn baselines_run_the_same_threads(
        hints in prop::collection::vec(arb_hints(), 0..100),
        seed in any::<u64>(),
    ) {
        let mut reference: Vec<usize> = (0..hints.len()).collect();
        reference.sort_unstable();

        let mut locality = Scheduler::<Log>::new(SchedulerConfig::default());
        let mut fifo: FifoScheduler<Log> = FifoScheduler::new();
        let mut random: RandomScheduler<Log> = RandomScheduler::new(seed);
        for (i, h) in hints.iter().enumerate() {
            ThreadScheduler::fork(&mut locality, record, i, 0, *h);
            fifo.fork(record, i, 0, *h);
            random.fork(record, i, 0, *h);
        }
        for sched in [
            &mut locality as &mut dyn ThreadScheduler<Log>,
            &mut fifo,
            &mut random,
        ] {
            let mut log = Log::new();
            sched.run(&mut log, RunMode::Consume);
            let mut ids: Vec<usize> = log.iter().map(|&(a, _)| a).collect();
            ids.sort_unstable();
            prop_assert_eq!(&ids, &reference);
        }
    }

    /// The parallel scheduler runs every thread exactly once for any
    /// worker count, steal policy, and hint distribution — the
    /// workers-racing-and-stealing analogue of
    /// `every_thread_runs_exactly_once`.
    #[test]
    fn parallel_runs_every_thread_once(
        hints in prop::collection::vec(arb_hints(), 1..200),
        workers in 1usize..9,
        policy in arb_policy(),
    ) {
        use locality_sched::ParScheduler;
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Ctx {
            counts: Vec<AtomicU64>,
        }
        fn bump(ctx: &Ctx, i: usize, _j: usize) {
            ctx.counts[i].fetch_add(1, Ordering::Relaxed);
        }

        let config = SchedulerConfig::builder().steal_policy(policy).build().unwrap();
        let mut sched: ParScheduler<Ctx> = ParScheduler::new(config);
        for (i, h) in hints.iter().enumerate() {
            sched.fork(bump, i, 0, *h);
        }
        let ctx = Ctx {
            counts: (0..hints.len()).map(|_| AtomicU64::new(0)).collect(),
        };
        let stats = sched.run(&ctx, workers);
        prop_assert_eq!(stats.threads_run, hints.len() as u64);
        for (i, c) in ctx.counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "thread {} ran wrong count", i);
        }
    }

    /// Per-worker steal counters stay coherent for any run: the
    /// per-worker execution counts sum to the run totals, a worker
    /// never succeeds more often than it attempts, and under
    /// `StealPolicy::None` nobody attempts (or is parked) at all.
    #[test]
    fn steal_counters_are_consistent(
        hints in prop::collection::vec(arb_hints(), 1..200),
        workers in 1usize..9,
        policy in arb_policy(),
    ) {
        use locality_sched::{ParScheduler, StealPolicy};

        fn nop(_ctx: &(), _i: usize, _j: usize) {}

        let config = SchedulerConfig::builder().steal_policy(policy).build().unwrap();
        let mut sched: ParScheduler<()> = ParScheduler::new(config);
        for (i, h) in hints.iter().enumerate() {
            sched.fork(nop, i, 0, *h);
        }
        let report = sched.run_report(&(), workers);
        prop_assert_eq!(report.policy, policy);
        prop_assert_eq!(report.workers, workers);
        prop_assert_eq!(report.stats.workers().len(), workers);
        let threads: u64 = report.stats.workers().iter().map(|w| w.threads_executed).sum();
        let bins: u64 = report.stats.workers().iter().map(|w| w.bins_executed).sum();
        prop_assert_eq!(threads, report.run.threads_run);
        prop_assert_eq!(bins, report.run.bins_visited as u64);
        for w in report.stats.workers() {
            prop_assert!(
                w.steals_succeeded <= w.steals_attempted,
                "worker succeeded {} of {} attempts",
                w.steals_succeeded,
                w.steals_attempted
            );
        }
        if policy == StealPolicy::None {
            prop_assert_eq!(report.stats.steals_attempted(), 0);
            prop_assert_eq!(report.stats.steals_succeeded(), 0);
            for w in report.stats.workers() {
                prop_assert_eq!(w.parked_ns, 0);
            }
        }
        if workers == 1 {
            // A lone worker has no victims: it owns every bin.
            prop_assert_eq!(report.stats.steals_succeeded(), 0);
        }
    }

    /// Any policy reporting `symmetric() == true` is invariant under
    /// permutation of its hint addresses: mirrored (or arbitrarily
    /// reordered) hints land in the same bin. This is the trait-level
    /// restatement of the paper's §2.3 symmetric folding, checked for
    /// every shipped symmetric policy.
    #[test]
    fn symmetric_policies_are_hint_permutation_invariant(
        addr_tuple in (0u64..(1 << 30), 0u64..(1 << 30), 0u64..(1 << 30), 0u64..(1 << 30)),
        seed in any::<u64>(),
        block_log2 in 6u32..20,
        sub_log2 in 3u32..6,
    ) {
        fn permuted(addrs: [u64; 4], seed: u64) -> [u64; 4] {
            let mut rest = addrs.to_vec();
            let mut out = [0u64; 4];
            let mut s = seed;
            for slot in &mut out {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *slot = rest.remove((s >> 33) as usize % rest.len());
            }
            out
        }

        fn check<P: BinPolicy>(mut policy: P, a: [u64; 4], b: [u64; 4]) {
            assert!(policy.symmetric(), "{policy:?} must report symmetric");
            let key = |p: &mut P, v: [u64; 4]| {
                p.bin_key(Hints::four(
                    Addr::new(v[0]),
                    Addr::new(v[1]),
                    Addr::new(v[2]),
                    Addr::new(v[3]),
                ))
            };
            assert_eq!(key(&mut policy, a), key(&mut policy, b), "{policy:?}");
        }

        let addrs = [addr_tuple.0, addr_tuple.1, addr_tuple.2, addr_tuple.3];
        let other = permuted(addrs, seed);
        let block = 1u64 << block_log2;
        check(
            PaperBlockHash::new([block; 4], true).unwrap(),
            addrs,
            other,
        );
        check(
            Hierarchical::uniform(block >> sub_log2, block, true).unwrap(),
            addrs,
            other,
        );
        check(
            TopologyPolicy::uniform(&[block >> sub_log2, block], true).unwrap(),
            addrs,
            other,
        );
        check(SingleBin, addrs, other);
    }

    /// A two-rung [`TopologyPolicy`] ladder IS the two-level
    /// [`Hierarchical`] policy: identical bin keys, identical ancestor
    /// ladder, and an identical drain order under any configuration and
    /// hint mixture. This is what licenses `Hierarchical` to
    /// remain a thin alias for the depth-2 case — and the ladder carried
    /// as an [`AnyPolicy`] value drains identically at depth 1 (against
    /// [`PaperBlockHash`]), 2 and 3.
    #[test]
    fn topology_depth2_matches_hierarchical(
        config in arb_config(),
        hints in prop::collection::vec(arb_hints(), 0..150),
        sub_log2 in 3u32..10,
        block_log2 in 10u32..24,
        symmetric in any::<bool>(),
    ) {
        let (sub, block) = (1u64 << sub_log2, 1u64 << block_log2);
        let mut hier = Hierarchical::uniform(sub, block, symmetric).unwrap();
        let mut tree = TopologyPolicy::uniform(&[sub, block], symmetric).unwrap();
        prop_assert_eq!(BinPolicy::depth(&hier), 2);
        prop_assert_eq!(BinPolicy::depth(&tree), 2);
        for h in &hints {
            let key = hier.bin_key(*h);
            prop_assert_eq!(key, tree.bin_key(*h));
            for level in 0..2 {
                prop_assert_eq!(
                    hier.ancestor_key(key, level),
                    tree.ancestor_key(key, level),
                    "level {}", level
                );
            }
        }
        fn drain<P: BinPolicy>(config: SchedulerConfig, policy: P, hints: &[Hints]) -> Log {
            let mut sched: Scheduler<Log, P> = Scheduler::with_policy(config, policy);
            for (i, h) in hints.iter().enumerate() {
                sched.fork(record, i, 0, *h);
            }
            let mut log = Log::new();
            sched.run(&mut log, RunMode::Consume);
            log
        }
        let two_level = drain(config, hier, &hints);
        prop_assert_eq!(&two_level, &drain(config, tree, &hints), "drain order diverged");
        prop_assert_eq!(&two_level, &drain(config, AnyPolicy::Ladder(tree), &hints));
        prop_assert_eq!(&two_level, &drain(config, AnyPolicy::Ladder(hier.into()), &hints));
        let flat = PaperBlockHash::new([block; 4], symmetric).unwrap();
        prop_assert_eq!(
            drain(config, flat, &hints),
            drain(config, AnyPolicy::Ladder(flat.into()), &hints)
        );
        let deep = TopologyPolicy::uniform(&[sub, block, block << 3], symmetric).unwrap();
        prop_assert_eq!(
            drain(config, deep, &hints),
            drain(config, AnyPolicy::Ladder(deep), &hints)
        );
    }

    /// [`PaperBlockHash`] computes exactly the pre-refactor hints→bin
    /// arithmetic — per-dimension address shift, then (symmetric only)
    /// a descending coordinate sort — and agrees with the public
    /// [`SchedulerConfig::block_coords`] on every hint shape.
    #[test]
    fn paper_block_hash_matches_pre_refactor_mapping(
        hints in arb_hints(),
        block_log2 in 6u32..24,
        symmetric in any::<bool>(),
    ) {
        let mut expect = [0u64; 4];
        for (dim, coord) in expect.iter_mut().enumerate() {
            *coord = hints.get(dim).raw() >> block_log2;
        }
        if symmetric {
            expect.sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut policy =
            PaperBlockHash::new([1u64 << block_log2; 4], symmetric).unwrap();
        prop_assert_eq!(policy.bin_key(hints), expect);
        let config = SchedulerConfig::builder()
            .block_size(1 << block_log2)
            .symmetric(symmetric)
            .build()
            .unwrap();
        prop_assert_eq!(config.block_coords(hints), expect);
    }

    /// Scheduler stats are consistent with what fork recorded.
    #[test]
    fn stats_are_consistent(
        config in arb_config(),
        hints in prop::collection::vec(arb_hints(), 0..200),
    ) {
        let mut sched = Scheduler::<Log>::new(config);
        for (i, h) in hints.iter().enumerate() {
            sched.fork(record, i, 0, *h);
        }
        let stats = sched.stats();
        prop_assert_eq!(stats.threads(), hints.len() as u64);
        prop_assert_eq!(stats.bins(), sched.bins());
        prop_assert_eq!(
            stats.threads_per_bin().iter().sum::<u64>(),
            hints.len() as u64
        );
        if !hints.is_empty() {
            prop_assert!(stats.max_threads_per_bin() >= 1);
            prop_assert!(stats.min_threads_per_bin() >= 1);
        }
    }
}
