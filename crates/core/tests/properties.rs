//! Property-based tests of the locality scheduler's invariants.

use locality_sched::{
    Addr, AnyPolicy, BinPolicy, FifoScheduler, Hints, RandomScheduler, RunMode, Scheduler,
    SchedulerConfig, SingleBin, ThreadScheduler, TopologyPolicy,
};
use memtrace::{Access, SchedMark, TraceSink};
use proptest::prelude::*;

type Log = Vec<(usize, usize)>;

fn record(log: &mut Log, a: usize, b: usize) {
    log.push((a, b));
}

/// Arbitrary hint tuples over a bounded address space.
fn arb_hints() -> impl Strategy<Value = Hints> {
    arb_hints_below(1 << 26)
}

/// Arbitrary hint tuples of zero to four dimensions, every address
/// below `limit`.
fn arb_hints_below(limit: u64) -> impl Strategy<Value = Hints> {
    let addr = move || (0..limit).prop_map(Addr::new);
    prop_oneof![
        Just(Hints::none()),
        addr().prop_map(Hints::one),
        (addr(), addr()).prop_map(|(a, b)| Hints::two(a, b)),
        (addr(), addr(), addr()).prop_map(|(a, b, c)| Hints::three(a, b, c)),
        (addr(), addr(), addr(), addr()).prop_map(|(a, b, c, d)| Hints::four(a, b, c, d)),
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

/// The paper's loop over a ladder of uniform block sizes (`levels`,
/// finest first), as plain code: `th_fork` keys each thread by its
/// hints shifted by the finest block (§2.3, §3.2), folded by a
/// descending sort when `symmetric`, into bins kept in allocation
/// order; `th_run` visits the bins grouped by their coarsest ancestor,
/// groups in order of first appearance, each group's bins sorted by
/// their ancestor ladder coarse to fine, and runs each bin's threads in
/// fork order. Returns the fork indices in run order and the number of
/// groups (drain units).
fn paper_loop(levels: &[u64], symmetric: bool, hints: &[Hints]) -> (Vec<usize>, usize) {
    /// A bin: its key at every level, finest first, and its threads.
    type Bin = (Vec<[u64; 4]>, Vec<usize>);

    // The key at every level, finest first.
    let ladder = |h: &Hints| -> Vec<[u64; 4]> {
        levels
            .iter()
            .map(|block| {
                let mut key = h.as_array().map(|a| a.raw() >> block.trailing_zeros());
                if symmetric {
                    key.sort_unstable_by(|a, b| b.cmp(a));
                }
                key
            })
            .collect()
    };
    let mut bins: Vec<Bin> = Vec::new();
    for (fork, h) in hints.iter().enumerate() {
        let keys = ladder(h);
        match bins.iter_mut().find(|(k, _)| k[0] == keys[0]) {
            Some((_, threads)) => threads.push(fork),
            None => bins.push((keys, vec![fork])),
        }
    }
    let mut groups: Vec<([u64; 4], Vec<&Bin>)> = Vec::new();
    for bin in &bins {
        let coarsest = *bin.0.last().unwrap();
        match groups.iter_mut().find(|(k, _)| *k == coarsest) {
            Some((_, members)) => members.push(bin),
            None => groups.push((coarsest, vec![bin])),
        }
    }
    let mut order = Vec::new();
    for (_, members) in &mut groups {
        members.sort_by_key(|(keys, _)| keys.iter().rev().copied().collect::<Vec<_>>());
        for (_, threads) in members.iter() {
            order.extend(threads);
        }
    }
    (order, groups.len())
}

/// A run's thread log and its drain-unit count, the context and sink
/// of the paper-loop test.
#[derive(Default)]
struct Marked {
    log: Vec<usize>,
    units: usize,
}

impl TraceSink for Marked {
    fn access(&mut self, _access: Access) {}

    fn instructions(&mut self, _count: u64) {}

    fn mark(&mut self, mark: SchedMark<'_>) {
        if let SchedMark::DrainBegin(_) = mark {
            self.units += 1;
        }
    }
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
        check(TopologyPolicy::uniform(&[block], true).unwrap(), addrs, other);
        check(
            TopologyPolicy::uniform(&[block >> sub_log2, block], true).unwrap(),
            addrs,
            other,
        );
        check(SingleBin, addrs, other);
    }

    /// `Scheduler` runs the paper's loop ([`paper_loop`]) at ladder
    /// depths 1 to 3, folded and not, whatever the hash-table size:
    /// through a batch `run`, an online `drain_next` to exhaustion,
    /// `run_traced`, a retained re-run, and the ladder carried as an
    /// [`AnyPolicy`]. Depth 1 is the default policy of
    /// `Scheduler::new`.
    #[test]
    fn scheduler_runs_the_paper_loop(
        // 64 KiB of hint space, so that forks share bins and
        // ancestors at every level of a small ladder.
        hints in prop::collection::vec(arb_hints_below(1 << 16), 0..160),
        depth in 1usize..=3,
        fine_log2 in 6u32..12,
        steps in prop::collection::vec(0u32..4, 2),
        symmetric in any::<bool>(),
        hash_log2 in 0usize..6,
    ) {
        let mut levels = vec![1u64 << fine_log2];
        for &step in &steps[..depth - 1] {
            levels.push(levels.last().unwrap() << step);
        }
        let config = SchedulerConfig::builder()
            .block_size(levels[0])
            .hash_size(1 << hash_log2)
            .symmetric(symmetric)
            .build()
            .unwrap();
        let ladder = TopologyPolicy::uniform(&levels, symmetric).unwrap();
        let (order, units) = paper_loop(&levels, symmetric, &hints);
        let fork_all = |sched: &mut Scheduler<Marked>| {
            for (i, h) in hints.iter().enumerate() {
                sched.fork(|ctx: &mut Marked, i, _| ctx.log.push(i), i, 0, *h);
            }
        };
        let new = || if depth == 1 {
            Scheduler::<Marked>::new(config)
        } else {
            Scheduler::with_policy(config, ladder)
        };

        let mut batch = new();
        prop_assert_eq!(batch.policy(), &ladder);
        fork_all(&mut batch);
        let mut ctx = Marked::default();
        batch.run(&mut ctx, RunMode::Retain);
        prop_assert_eq!(&ctx.log, &order, "batch run");
        let mut ctx = Marked::default();
        batch.run_traced(&mut ctx, RunMode::Consume, |c| c);
        prop_assert_eq!(&ctx.log, &order, "traced re-run");
        prop_assert_eq!(ctx.units, units, "drain units");

        let mut online = new();
        fork_all(&mut online);
        online.enable_online();
        let mut ctx = Marked::default();
        let mut drains = 0;
        while online.drain_next(&mut ctx).is_some() {
            drains += 1;
        }
        prop_assert_eq!(&ctx.log, &order, "online drain");
        prop_assert_eq!(drains, units, "online drain units");

        let mut any: Scheduler<Log, AnyPolicy> =
            Scheduler::with_policy(config, AnyPolicy::Ladder(ladder));
        for (i, h) in hints.iter().enumerate() {
            any.fork(record, i, 0, *h);
        }
        let mut log = Log::new();
        any.run(&mut log, RunMode::Consume);
        prop_assert!(log.iter().map(|&(i, _)| i).eq(order.iter().copied()), "AnyPolicy");
    }

    /// The paper's block hash, the depth-1 [`TopologyPolicy`], computes
    /// exactly the pre-refactor hints→bin
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
        let mut policy = TopologyPolicy::uniform(&[1 << block_log2], symmetric).unwrap();
        prop_assert_eq!(policy.bin_key(hints), expect);
        let config = SchedulerConfig::builder()
            .block_size(1 << block_log2)
            .symmetric(symmetric)
            .build()
            .unwrap();
        prop_assert_eq!(TopologyPolicy::from_config(&config).bin_key(hints), expect);
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
