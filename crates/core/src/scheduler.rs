//! The locality scheduler (paper §2.3, §3), expressed over the shared
//! [`BinEngine`](crate::engine::BinEngine).

use crate::engine::BinEngine;
use crate::policy::{BinPolicy, TopologyPolicy};
use crate::stats::{RunStats, SchedulerStats};
use crate::{Hints, SchedulerConfig};
use memtrace::TraceSink;

/// A thread body: a plain function pointer taking the shared context
/// and the two word-sized arguments supplied at fork time — the same
/// record layout as the paper's `th_fork(f, arg1, arg2, …)`.
///
/// Keeping bodies as `fn` pointers (not closures) keeps a thread record
/// at three words, so forking cannot allocate per thread or touch
/// unbounded memory — a precondition of the paper's claim that "thread
/// creation doesn't cause cache misses". State a body needs beyond its
/// two words lives in the context, as in the crate example.
pub type ThreadFn<C> = fn(&mut C, usize, usize);

/// What `run` does with the thread specifications afterwards, mirroring
/// the paper's `th_run(keep)` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Destroy the thread specifications after running (paper:
    /// `keep = 0`).
    Consume,
    /// Retain the specifications so the same schedule can be re-run
    /// (paper: `keep != 0`; used by iterative solvers that re-execute
    /// an identical sweep every iteration).
    Retain,
}

/// One scheduled thread: function pointer plus two arguments.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ThreadSpec<C> {
    pub(crate) func: ThreadFn<C>,
    pub(crate) arg1: usize,
    pub(crate) arg2: usize,
}

/// A scheduler that can fork run-to-completion threads and run them in
/// some order. Implemented by the locality [`Scheduler`] and by the
/// [`FifoScheduler`](crate::FifoScheduler) /
/// [`RandomScheduler`](crate::RandomScheduler) baselines, so
/// experiments can swap policies generically.
pub trait ThreadScheduler<C> {
    /// Creates and schedules a thread to call `func(ctx, arg1, arg2)`.
    fn fork(&mut self, func: ThreadFn<C>, arg1: usize, arg2: usize, hints: Hints);

    /// Runs all scheduled threads and returns what ran.
    fn run(&mut self, ctx: &mut C, mode: RunMode) -> RunStats;

    /// Number of threads currently scheduled.
    fn pending(&self) -> u64;
}

/// The hint-based locality scheduler.
///
/// Threads are placed into bins by the configured [`BinPolicy`]
/// (default: the depth-1 [`TopologyPolicy`] of
/// [`from_config`](TopologyPolicy::from_config), hint address ÷ block
/// size per dimension, the paper's mapping); [`run`](Scheduler::run)
/// visits bins in allocation order — the paper's ready list — draining
/// each bin completely. Threads within a bin run in fork order ("the
/// scheduling order of threads in the same bin can be arbitrary",
/// §2.3). A deeper ladder additionally groups bins by their coarsest
/// ancestor and orders each group's L1-sized sub-bins so threads
/// sharing an L1 working set run back-to-back.
///
/// See the [crate docs](crate) for a complete example.
#[derive(Clone, Debug)]
pub struct Scheduler<C, P = TopologyPolicy> {
    config: SchedulerConfig,
    engine: BinEngine<ThreadSpec<C>, P>,
}

impl<C> Scheduler<C> {
    /// Creates an empty scheduler (the paper's `th_init`) using the
    /// paper's binning policy derived from `config`. The paper's
    /// `th_init` "can be called more than once to change those sizes";
    /// here that is a new scheduler, which reuses the traced package
    /// region (see [`trace_package_memory`](Self::trace_package_memory)).
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler::with_policy(config, TopologyPolicy::from_config(&config))
    }
}

impl<C, P: BinPolicy> Scheduler<C, P> {
    /// Creates an empty scheduler binning with an explicit `policy`;
    /// `config` still supplies the hash-table size.
    pub fn with_policy(config: SchedulerConfig, policy: P) -> Self {
        Scheduler::shuffled(config, policy, None)
    }

    /// Like [`with_policy`](Self::with_policy), with the batch bin order
    /// shuffled by `shuffle` if set (the
    /// [`RandomScheduler`](crate::RandomScheduler) baseline).
    pub(crate) fn shuffled(config: SchedulerConfig, policy: P, shuffle: Option<u64>) -> Self {
        Scheduler {
            engine: BinEngine::new(config.hash_size(), policy, shuffle),
            config,
        }
    }

    /// Enables tracing of the package's *own* memory traffic through
    /// [`fork_traced`](Self::fork_traced) /
    /// [`run_traced`](Self::run_traced): hash-bucket probes, bin
    /// records, and thread-group reads/writes are emitted at synthetic
    /// addresses, the way Pixie's whole-binary instrumentation captured
    /// the paper's package.
    ///
    /// The package region lives at a fixed high address (as an mmap'd
    /// allocator's would), far above `memtrace::AddressSpace` data
    /// regions; successive scheduler instances therefore *reuse* the
    /// same region, exactly like the real package reusing its heap
    /// across iterations.
    pub fn trace_package_memory(&mut self) {
        self.engine.trace_package_memory();
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The active binning policy.
    pub fn policy(&self) -> &P {
        self.engine.policy()
    }

    /// Creates and schedules a thread to call `func(ctx, arg1, arg2)`,
    /// binned by `hints` (the paper's `th_fork`).
    #[inline]
    pub fn fork(&mut self, func: ThreadFn<C>, arg1: usize, arg2: usize, hints: Hints) {
        self.fork_traced(func, arg1, arg2, hints, &mut memtrace::NullSink);
    }

    /// Like [`fork`](Self::fork), additionally emitting the package's
    /// own memory references into `sink` if
    /// [`trace_package_memory`](Self::trace_package_memory) was called:
    /// the hash-bucket probe, the thread-record store, and the
    /// bin-header update.
    #[inline]
    pub fn fork_traced<S: TraceSink>(
        &mut self,
        func: ThreadFn<C>,
        arg1: usize,
        arg2: usize,
        hints: Hints,
        sink: &mut S,
    ) {
        self.engine
            .insert_traced(ThreadSpec { func, arg1, arg2 }, hints, sink);
    }

    /// Runs every scheduled thread, visiting bins in allocation order
    /// and draining each bin before moving on (the paper's `th_run`).
    ///
    /// With [`RunMode::Retain`] the schedule survives and can be re-run
    /// (or extended with further forks); with [`RunMode::Consume`] the
    /// scheduler is left empty.
    pub fn run(&mut self, ctx: &mut C, mode: RunMode) -> RunStats {
        self.engine.run_with(
            ctx,
            mode,
            |_, _, _| {},
            |_, _| {},
            |ctx, spec| (spec.func)(ctx, spec.arg1, spec.arg2),
        )
    }

    /// Like [`run`](Self::run), additionally emitting the package's
    /// dispatch-time memory references (ready-list walk, bin headers,
    /// thread-record loads) if
    /// [`trace_package_memory`](Self::trace_package_memory) was called,
    /// plus the run's [`SchedMark`](memtrace::SchedMark)s: a `Dispatch`
    /// before each thread body, a `DrainBegin` / `DrainEnd` pair around
    /// each drain unit (one bin for flat policies, one parent group's
    /// sub-bins for nested ones), and a `RunEnd` when the drain
    /// finishes. Ordinary sinks ignore those (the default `mark` is a
    /// no-op); schedule-analysis sinks use them to attribute the trace
    /// to threads and to rebuild the drain-unit structure.
    ///
    /// `sink_of` borrows the sink out of the context between thread
    /// invocations (thread bodies usually own the sink through the same
    /// context).
    pub fn run_traced<S, F>(&mut self, ctx: &mut C, mode: RunMode, sink_of: F) -> RunStats
    where
        S: TraceSink,
        F: FnMut(&mut C) -> &mut S,
    {
        // Two of the engine's callbacks borrow the sink accessor; they
        // never run reentrantly, so a RefCell shares it between them.
        let sink_of = std::cell::RefCell::new(sink_of);
        let stats = self.engine.run_with(
            ctx,
            mode,
            |ctx, addr, size| (sink_of.borrow_mut())(ctx).read(addr, size),
            |ctx, mark| (sink_of.borrow_mut())(ctx).mark(mark),
            |ctx, spec| (spec.func)(ctx, spec.arg1, spec.arg2),
        );
        (sink_of.into_inner())(ctx).mark(memtrace::SchedMark::RunEnd);
        stats
    }

    /// Switches the scheduler into *online* (incremental) drain mode
    /// for serving-style workloads: forks keep arriving while
    /// [`drain_next`](Self::drain_next) hands out one ready drain unit
    /// at a time from the front of the ready list. A drain unit is one
    /// bin for flat policies, or one parent bin's sub-bins (drained
    /// back-to-back in sorted fine-key order) for hierarchical
    /// policies.
    ///
    /// Threads already scheduled become ready in bin-creation order, so
    /// enabling after a batch of forks and draining to exhaustion
    /// executes exactly what one [`run`](Self::run) would have — same
    /// order, same dispatch numbering. A bin refilled after its drain
    /// is re-linked at the *back* of the ready list, as the paper's
    /// package re-links a refilled bin. A
    /// [`RandomScheduler`](crate::RandomScheduler)'s seed shuffles only
    /// the batch run: online, it drains in ready (fork) order like
    /// every other scheduler.
    ///
    /// The configured [`EvictionPolicy`](crate::EvictionPolicy) (see
    /// [`SchedulerConfigBuilder::eviction`](crate::SchedulerConfigBuilder::eviction))
    /// takes effect here: with it on, drained-and-empty bin records are
    /// retired so a long-running server's bin table stays bounded. An
    /// evicted key that re-arrives behaves exactly like a fresh fork,
    /// and records are only reaped during forks — so a run whose forks
    /// all precede its drains never evicts, and live-bin drain order is
    /// identical with eviction on or off.
    ///
    /// Idempotent; batch [`run`](Self::run) calls remain available and
    /// unchanged, but mixing [`RunMode::Retain`] runs with incremental
    /// drains is unsupported.
    pub fn enable_online(&mut self) {
        let eviction = self.config.eviction();
        self.engine.enable_online(eviction);
    }

    /// Whether [`enable_online`](Self::enable_online) was called.
    pub fn online(&self) -> bool {
        self.engine.online()
    }

    /// Drains the single next ready unit (online mode), consuming its
    /// threads. Returns `None` when no thread is ready.
    ///
    /// # Panics
    ///
    /// Panics if [`enable_online`](Self::enable_online) was not called.
    pub fn drain_next(&mut self, ctx: &mut C) -> Option<RunStats> {
        self.engine.drain_next_with(
            ctx,
            |_, _, _| {},
            |_, _| {},
            |ctx, spec| (spec.func)(ctx, spec.arg1, spec.arg2),
        )
    }

    /// Number of threads currently scheduled.
    pub fn pending(&self) -> u64 {
        self.engine.pending()
    }

    /// Number of bins currently allocated.
    pub fn bins(&self) -> usize {
        self.engine.bins()
    }

    /// High-water mark of live bin records over the scheduler's life.
    /// With an [`EvictionPolicy::LruCap`](crate::EvictionPolicy::LruCap)
    /// this is the number the cap bounds.
    pub fn peak_bins(&self) -> usize {
        self.engine.peak_bins()
    }

    /// Bin records freed by the online eviction policy so far (zero
    /// for batch mode or [`EvictionPolicy::Off`](crate::EvictionPolicy::Off)).
    pub fn evictions(&self) -> u64 {
        self.engine.evictions()
    }

    /// Distribution statistics over the current schedule (the paper
    /// reports these per benchmark: threads, bins, threads per bin).
    pub fn stats(&self) -> SchedulerStats {
        self.engine.stats()
    }

    /// Flushes the probe observations accumulated so far (forks, bin
    /// creation vs. reuse, bin occupancy/drain times, run turnaround;
    /// for hierarchical policies also parent occupancy and sub-bin
    /// drains) into a `"sched"` profile section. Cumulative across
    /// runs; with the probe layer compiled out (see [`probe::enabled`])
    /// every counter reads zero and every histogram is empty.
    pub fn run_profile(&self) -> probe::Section {
        self.engine.run_profile()
    }

    /// Removes all scheduled threads and bins (the arena of a traced
    /// package is recycled, as a real allocator would).
    pub fn clear(&mut self) {
        self.engine.clear();
    }
}

impl<C, P: BinPolicy> ThreadScheduler<C> for Scheduler<C, P> {
    #[inline]
    fn fork(&mut self, func: ThreadFn<C>, arg1: usize, arg2: usize, hints: Hints) {
        Scheduler::fork(self, func, arg1, arg2, hints);
    }

    fn run(&mut self, ctx: &mut C, mode: RunMode) -> RunStats {
        Scheduler::run(self, ctx, mode)
    }

    fn pending(&self) -> u64 {
        Scheduler::pending(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GROUP_CAPACITY;
    use memtrace::Addr;

    type Log = Vec<(usize, usize)>;

    fn record(log: &mut Log, a: usize, b: usize) {
        log.push((a, b));
    }

    fn config(block: u64) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(block)
            .build()
            .unwrap()
    }

    #[test]
    fn runs_every_thread_exactly_once() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        for i in 0..100 {
            sched.fork(record, i, i * 2, Hints::one(Addr::new((i as u64) * 333)));
        }
        assert_eq!(sched.pending(), 100);
        let mut log = Log::new();
        let stats = sched.run(&mut log, RunMode::Consume);
        assert_eq!(stats.threads_run, 100);
        assert_eq!(log.len(), 100);
        let mut seen: Vec<usize> = log.iter().map(|&(a, _)| a).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn threads_with_same_block_run_adjacently() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        // Interleave forks into two far-apart blocks.
        for i in 0..10 {
            sched.fork(record, 0, i, Hints::one(Addr::new(0)));
            sched.fork(record, 1, i, Hints::one(Addr::new(1 << 30)));
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        // All block-0 threads must precede all block-1 threads
        // (allocation order: block 0 was allocated first).
        let first_of_b1 = log.iter().position(|&(a, _)| a == 1).unwrap();
        assert!(log[..first_of_b1].iter().all(|&(a, _)| a == 0));
        assert_eq!(
            log[first_of_b1..].iter().filter(|&&(a, _)| a == 1).count(),
            10
        );
    }

    #[test]
    fn within_bin_order_is_fork_order() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        for i in 0..(GROUP_CAPACITY * 2 + 7) {
            sched.fork(record, i, 0, Hints::one(Addr::new(4)));
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        let order: Vec<usize> = log.iter().map(|&(a, _)| a).collect();
        assert_eq!(order, (0..GROUP_CAPACITY * 2 + 7).collect::<Vec<_>>());
    }

    #[test]
    fn retain_re_runs_the_same_schedule() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        for i in 0..5 {
            sched.fork(record, i, 0, Hints::one(Addr::new(i as u64 * 10_000)));
        }
        let mut log = Log::new();
        let s1 = sched.run(&mut log, RunMode::Retain);
        assert_eq!(sched.pending(), 5, "retained");
        let s2 = sched.run(&mut log, RunMode::Consume);
        assert_eq!(s1.threads_run, s2.threads_run);
        assert_eq!(log.len(), 10);
        assert_eq!(&log[..5], &log[5..], "identical re-execution");
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn paper_2_4_example_binning() {
        // 4x4 matmul, cache = 4 vectors, block dim = half the cache:
        // threads (i,j) with hints (a_i, b_j) fall into 4 bins of 4.
        let vec_bytes = 1024u64;
        let a_base = 0u64; // A's columns at 0..4*vec_bytes
        let b_base = 1 << 20; // B's columns elsewhere
        let cfg = SchedulerConfig::builder()
            .block_size(2 * vec_bytes)
            .build()
            .unwrap();
        let mut sched = Scheduler::<Log>::new(cfg);
        for i in 0..4usize {
            for j in 0..4usize {
                sched.fork(
                    record,
                    i,
                    j,
                    Hints::two(
                        Addr::new(a_base + i as u64 * vec_bytes),
                        Addr::new(b_base + j as u64 * vec_bytes),
                    ),
                );
            }
        }
        assert_eq!(sched.bins(), 4);
        let stats = sched.stats();
        assert_eq!(stats.max_threads_per_bin(), 4);
        assert_eq!(stats.min_threads_per_bin(), 4);
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        // Each consecutive run of 4 threads shares the bin's two vector
        // pairs: i in {0,1} x j in {0,1}, etc.
        for chunk in log.chunks(4) {
            let i_block = chunk[0].0 / 2;
            let j_block = chunk[0].1 / 2;
            for &(i, j) in chunk {
                assert_eq!(i / 2, i_block);
                assert_eq!(j / 2, j_block);
            }
        }
    }

    #[test]
    fn symmetric_config_folds_mirrored_hints() {
        let cfg = SchedulerConfig::builder()
            .block_size(1024)
            .symmetric(true)
            .build()
            .unwrap();
        let mut sched = Scheduler::<Log>::new(cfg);
        sched.fork(record, 0, 0, Hints::two(Addr::new(0), Addr::new(1 << 20)));
        sched.fork(record, 1, 0, Hints::two(Addr::new(1 << 20), Addr::new(0)));
        assert_eq!(sched.bins(), 1, "mirrored hints share a bin");
    }

    #[test]
    fn no_hint_threads_run_in_fork_order() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        for i in 0..10 {
            sched.fork(record, i, 0, Hints::none());
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        assert_eq!(
            log.iter().map(|&(a, _)| a).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_on_empty_scheduler_is_a_noop() {
        let mut sched = Scheduler::<Log>::new(SchedulerConfig::default());
        let mut log = Log::new();
        let stats = sched.run(&mut log, RunMode::Consume);
        assert_eq!(stats.threads_run, 0);
        assert_eq!(stats.bins_visited, 0);
        assert!(log.is_empty());
    }

    #[test]
    fn fork_after_consume_starts_fresh() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        sched.fork(record, 0, 0, Hints::one(Addr::new(0)));
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        sched.fork(record, 1, 1, Hints::one(Addr::new(0)));
        let stats = sched.run(&mut log, RunMode::Consume);
        assert_eq!(stats.threads_run, 1);
        assert_eq!(log, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn package_memory_tracing_emits_references() {
        use memtrace::CountingSink;
        let mut sched = Scheduler::<Log>::new(config(1024));
        sched.trace_package_memory();
        let mut fork_sink = CountingSink::new();
        for i in 0..10 {
            sched.fork_traced(
                record,
                i,
                0,
                Hints::one(Addr::new(i as u64 * 100_000)),
                &mut fork_sink,
            );
        }
        // Per fork: bucket probe (read) + spec store + count bump; per
        // new bin: header init; per new group: header init.
        assert_eq!(fork_sink.reads(), 10, "one hash probe per fork");
        assert_eq!(
            fork_sink.writes(),
            10 * 2 + 10 + 10,
            "records+counts+bins+groups"
        );

        struct Ctx {
            log: Log,
            sink: CountingSink,
        }
        fn traced_record(ctx: &mut Ctx, a: usize, b: usize) {
            ctx.log.push((a, b));
        }
        let mut sched2 = Scheduler::<Ctx>::new(config(1024));
        sched2.trace_package_memory();
        let mut fork_sink = CountingSink::new();
        for i in 0..10 {
            sched2.fork_traced(
                traced_record,
                i,
                0,
                Hints::one(Addr::new(i as u64 * 100_000)),
                &mut fork_sink,
            );
        }
        let mut ctx = Ctx {
            log: Log::new(),
            sink: CountingSink::new(),
        };
        let stats = sched2.run_traced(&mut ctx, RunMode::Consume, |c| &mut c.sink);
        assert_eq!(stats.threads_run, 10);
        assert_eq!(ctx.log.len(), 10);
        // Per bin: header read + group header read; per thread: one
        // record read. 10 bins here (distinct blocks).
        assert_eq!(ctx.sink.reads(), 10 + 10 + 10);
    }

    /// The package-memory stream itself, pinned: FNV-1a over every
    /// `(kind, addr, size)` that `fork_traced` + `run_traced` emit for
    /// a seeded interleaving of three 600-thread bins (each crossing
    /// two thread-group boundaries) and fifty one-thread bins, captured
    /// while bins still stored their records in 256-record groups.
    #[test]
    fn package_memory_stream_matches_pre_refactor_golden() {
        use memtrace::{AccessKind, VecSink};
        struct Ctx {
            sink: VecSink,
        }
        fn idle(_: &mut Ctx, _: usize, _: usize) {}

        let mut blocks: Vec<u64> = (0..3 * 600).map(|i| i % 3).collect();
        blocks.extend(3..53);
        // Seeded Fisher-Yates, so the bins' groups interleave in the
        // arena.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..blocks.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            blocks.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut sched = Scheduler::<Ctx>::new(config(1 << 12));
        sched.trace_package_memory();
        let mut ctx = Ctx {
            sink: VecSink::new(),
        };
        for (i, &block) in blocks.iter().enumerate() {
            let hints = Hints::one(Addr::new(block << 12));
            sched.fork_traced(idle, i, 0, hints, &mut ctx.sink);
        }
        let stats = sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut c.sink);
        assert_eq!((stats.threads_run, stats.bins_visited), (1850, 53));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for access in ctx.sink.accesses() {
            let kind = u64::from(access.kind == AccessKind::Write);
            for word in [kind, access.addr.raw(), u64::from(access.size)] {
                digest ^= word;
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(ctx.sink.accesses().len(), 7624);
        assert_eq!(digest, 0xa071_5621_7a4f_6739, "digest {digest:#018x}");
    }

    /// The synthetic arena cannot run out before the `u32` bin-id space
    /// does: 200,000 traced one-thread bins take 1.2 GiB of it, past
    /// the 1 GiB it was once capped at.
    #[test]
    #[cfg_attr(miri, ignore = "200k forks are slow under the interpreter")]
    fn traced_schedule_outgrows_a_gibibyte_of_synthetic_arena() {
        use crate::policy::UniqueBin;
        use memtrace::CountingSink;
        fn idle(_: &mut CountingSink, _: usize, _: usize) {}
        let mut sched: Scheduler<CountingSink, UniqueBin> =
            Scheduler::with_policy(SchedulerConfig::default(), UniqueBin::default());
        sched.trace_package_memory();
        let mut sink = CountingSink::new();
        for i in 0..200_000 {
            sched.fork_traced(idle, i, 0, Hints::none(), &mut sink);
        }
        let stats = sched.run_traced(&mut sink, RunMode::Consume, |sink| sink);
        assert_eq!((stats.threads_run, stats.bins_visited), (200_000, 200_000));
    }

    #[test]
    fn schedule_events_reach_the_sink_in_schedule_order() {
        use crate::engine::PACKAGE_TRACE_BASE;
        use memtrace::{FootprintSink, TraceSink};

        struct Ctx {
            sink: FootprintSink,
        }
        fn touch(ctx: &mut Ctx, a: usize, _b: usize) {
            ctx.sink.write(Addr::new(a as u64 * 0x100), 8);
        }

        let mut sched = Scheduler::<Ctx>::new(config(1024));
        sched.trace_package_memory();
        let mut sink = FootprintSink::ignoring_at_or_above(Addr::new(PACKAGE_TRACE_BASE));
        // Two bins: forks 0 and 2 share a block, fork 1 sits far away;
        // the drain visits bins in allocation order, so dispatch order
        // is fork 0, fork 2, fork 1.
        sched.fork_traced(touch, 1, 0, Hints::one(Addr::new(0x10)), &mut sink);
        sched.fork_traced(touch, 2, 0, Hints::one(Addr::new(0x100_000)), &mut sink);
        sched.fork_traced(touch, 3, 0, Hints::one(Addr::new(0x20)), &mut sink);
        let mut ctx = Ctx { sink };
        sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut c.sink);

        let phases = ctx.sink.into_phases();
        assert_eq!(phases.len(), 1);
        let phase = &phases[0];
        // Hints arrive in fork order.
        assert_eq!(
            phase.hints,
            vec![
                vec![Addr::new(0x10)],
                vec![Addr::new(0x100_000)],
                vec![Addr::new(0x20)],
            ]
        );
        // Footprints arrive in dispatch order, package traffic
        // filtered out by the base-address threshold.
        let written: Vec<u64> = phase
            .dispatches
            .iter()
            .map(|fp| fp.write_words().iter().next().copied().unwrap() * 8)
            .collect();
        assert_eq!(written, vec![0x100, 0x300, 0x200]);
    }

    #[test]
    fn tracing_disabled_emits_nothing() {
        use memtrace::CountingSink;
        let mut sched = Scheduler::<Log>::new(config(1024));
        let mut sink = CountingSink::new();
        sched.fork_traced(record, 0, 0, Hints::none(), &mut sink);
        assert_eq!(sink.data_references(), 0);
    }

    #[test]
    fn trait_object_compatible_generics() {
        fn drive<S: ThreadScheduler<Log>>(sched: &mut S) -> u64 {
            sched.fork(record, 7, 7, Hints::none());
            let mut log = Log::new();
            sched.run(&mut log, RunMode::Consume).threads_run
        }
        let mut sched = Scheduler::<Log>::new(SchedulerConfig::default());
        assert_eq!(drive(&mut sched), 1);
    }

    /// FNV-1a digest of the executed `arg1` sequence when 300 threads
    /// with dense pseudo-random 2-D hints are forked under `policy` and
    /// run. Any deviation in the hints → bin → tour → drain pipeline
    /// changes it.
    fn digest_of<P: BinPolicy>(cfg: SchedulerConfig, policy: P) -> u64 {
        fn body(log: &mut Vec<usize>, i: usize, _j: usize) {
            log.push(i);
        }
        let mut sched: Scheduler<Vec<usize>, P> = Scheduler::with_policy(cfg, policy);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..300usize {
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let a = next() % (1 << 21);
            let b = next() % (1 << 21);
            sched.fork(body, i, 0, Hints::two(Addr::new(a), Addr::new(b)));
        }
        let mut log = Vec::new();
        sched.run(&mut log, RunMode::Consume);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for v in &log {
            digest ^= *v as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest
    }

    /// The pre-refactor `Scheduler` run order, captured before the
    /// engine extraction.
    #[test]
    fn run_order_matches_pre_refactor_golden() {
        for (symmetric, golden) in [
            (false, 0x602b_6d0e_814b_6447u64),
            (true, 0x75cd_8bb5_5def_c1e9),
        ] {
            let cfg = SchedulerConfig::builder()
                .block_size(1 << 16)
                .symmetric(symmetric)
                .build()
                .unwrap();
            // The same digest through the paper policy and through the
            // same ladder carried as an `AnyPolicy` value.
            let paper = TopologyPolicy::from_config(&cfg);
            let ladder = crate::AnyPolicy::Ladder(paper);
            assert_eq!(digest_of(cfg, paper), golden, "symmetric={symmetric}");
            assert_eq!(
                digest_of(cfg, ladder),
                golden,
                "ladder symmetric={symmetric}"
            );
        }
    }

    /// The nested drain orders of the same 300 forks, captured before
    /// the depth-2 wrapper type was removed: 4 KiB sub-bins in 64 KiB
    /// parents, folded and not, and a third 256 KiB level.
    #[test]
    fn nested_run_order_matches_pre_refactor_golden() {
        let cfg = SchedulerConfig::default();
        for (symmetric, golden) in [
            (false, 0x6449_e202_04d9_ff13u64),
            (true, 0xb029_f9a1_898c_c7e1),
        ] {
            let two = TopologyPolicy::uniform(&[1 << 12, 1 << 16], symmetric).unwrap();
            assert_eq!(digest_of(cfg, two), golden, "symmetric={symmetric}");
            assert_eq!(
                digest_of(cfg, crate::AnyPolicy::Ladder(two)),
                golden,
                "ladder symmetric={symmetric}"
            );
        }
        let three = TopologyPolicy::uniform(&[1 << 12, 1 << 16, 1 << 18], false).unwrap();
        assert_eq!(digest_of(cfg, three), 0xa9a3_6254_2597_f2e1);
    }

    #[test]
    fn hierarchical_policy_drains_subbins_within_parents() {
        // 1 KiB sub-bins inside 4 KiB parents. Forks touch two parents
        // (0x0000.. and 0x8000..), each with interleaved sub-blocks.
        let policy = TopologyPolicy::uniform(&[1 << 10, 1 << 12], false).unwrap();
        let mut sched: Scheduler<Log, TopologyPolicy> =
            Scheduler::with_policy(SchedulerConfig::default(), policy);
        let addrs: [u64; 8] = [
            0x0000, 0x8000, 0x0400, 0x8400, 0x0800, 0x8800, 0x0c00, 0x8c00,
        ];
        for (i, &addr) in addrs.iter().enumerate() {
            sched.fork(record, i, 0, Hints::one(Addr::new(addr)));
        }
        assert_eq!(sched.bins(), 8, "one sub-bin per 1 KiB block");
        let mut log = Log::new();
        let stats = sched.run(&mut log, RunMode::Consume);
        assert_eq!(stats.threads_run, 8);
        // Parent 0x0000 was allocated first: all four of its sub-bins
        // drain before any of parent 0x8000's, each parent's sub-bins
        // in ascending fine-key order.
        let order: Vec<usize> = log.iter().map(|&(a, _)| a).collect();
        assert_eq!(order, vec![0, 2, 4, 6, 1, 3, 5, 7]);
    }

    /// Batch-fork + online drain-to-exhaustion must equal the batch run
    /// exactly.
    #[test]
    fn online_drain_matches_batch_run() {
        let cfg = config(1 << 12);
        let fork_all = |sched: &mut Scheduler<Log>| {
            let mut x = 0xD1B5_4A32_D192_ED03u64;
            for i in 0..400usize {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sched.fork(record, i, 0, Hints::one(Addr::new(x % (1 << 22))));
            }
            // Eight bins equal in dimensions 0-2, forked in descending
            // dimension 3: a key sort would reverse them, the ready list
            // keeps bin-creation order.
            for i in 0..8usize {
                let tied = Addr::new(1 << 30);
                let last = Addr::new((7 - i as u64) << 12);
                sched.fork(record, 400 + i, 0, Hints::four(tied, tied, tied, last));
            }
        };
        let mut batch = Scheduler::<Log>::new(cfg);
        fork_all(&mut batch);
        let mut batch_log = Log::new();
        batch.run(&mut batch_log, RunMode::Consume);

        let mut online = Scheduler::<Log>::new(cfg);
        fork_all(&mut online);
        online.enable_online();
        assert!(online.online());
        let mut online_log = Log::new();
        let mut units = 0;
        while let Some(stats) = online.drain_next(&mut online_log) {
            assert!(stats.threads_run > 0);
            units += 1;
        }
        assert_eq!(online.pending(), 0);
        assert!(units > 1, "drained in more than one unit");
        assert_eq!(online_log, batch_log);
    }

    #[test]
    fn online_drain_matches_batch_run_hierarchical() {
        let policy = TopologyPolicy::uniform(&[1 << 10, 1 << 12], false).unwrap();
        let fork_all = |sched: &mut Scheduler<Log, TopologyPolicy>| {
            for i in 0..120usize {
                let addr = (i as u64 * 0x2f1) % (1 << 16);
                sched.fork(record, i, 0, Hints::one(Addr::new(addr)));
            }
        };
        let mut batch = Scheduler::with_policy(SchedulerConfig::default(), policy);
        fork_all(&mut batch);
        let mut batch_log = Log::new();
        batch.run(&mut batch_log, RunMode::Consume);

        let mut online = Scheduler::with_policy(SchedulerConfig::default(), policy);
        fork_all(&mut online);
        online.enable_online();
        let mut online_log = Log::new();
        let mut max_unit = 0;
        while let Some(stats) = online.drain_next(&mut online_log) {
            max_unit = max_unit.max(stats.bins_visited);
        }
        assert!(max_unit > 1, "a parent unit spans several sub-bins");
        assert_eq!(online_log, batch_log);
    }

    #[test]
    fn online_refilled_bin_relinks_at_the_back() {
        let mut sched = Scheduler::<Log>::new(config(1024));
        sched.enable_online();
        // Bin X gets work, drains.
        sched.fork(record, 0, 0, Hints::one(Addr::new(0)));
        let mut log = Log::new();
        assert!(sched.drain_next(&mut log).is_some());
        // Bin Y then bin X again: the refilled X must drain *after* Y.
        sched.fork(record, 1, 0, Hints::one(Addr::new(1 << 20)));
        sched.fork(record, 2, 0, Hints::one(Addr::new(4)));
        assert!(sched.drain_next(&mut log).is_some());
        assert!(sched.drain_next(&mut log).is_some());
        assert!(sched.drain_next(&mut log).is_none());
        assert_eq!(log, vec![(0, 0), (1, 0), (2, 0)]);
    }

    fn eviction_config(eviction: crate::EvictionPolicy) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(1 << 10)
            .eviction(eviction)
            .build()
            .unwrap()
    }

    /// Serving-style fork/drain alternation with many distinct keys:
    /// the LRU cap must bound the live record count for the whole run.
    #[test]
    fn lru_cap_bounds_live_bin_records() {
        use crate::EvictionPolicy;
        let mut sched =
            Scheduler::<Log>::new(eviction_config(EvictionPolicy::LruCap { max_records: 4 }));
        sched.enable_online();
        let mut log = Log::new();
        for i in 0..64usize {
            sched.fork(record, i, 0, Hints::one(Addr::new(i as u64 * 2048)));
            assert!(sched.bins() <= 4, "cap violated at fork {i}");
            assert!(sched.drain_next(&mut log).is_some());
        }
        assert_eq!(sched.peak_bins(), 4);
        assert_eq!(sched.evictions(), 64 - 4);
        // Order is untouched: strict fork order, one bin at a time.
        assert_eq!(
            log.iter().map(|&(a, _)| a).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
    }

    /// An evicted key that re-arrives behaves exactly like a refilled
    /// bin: fresh record, re-linked at the back of the ready order.
    #[test]
    fn evicted_key_rearrives_as_fresh_fork() {
        use crate::EvictionPolicy;
        let mut sched =
            Scheduler::<Log>::new(eviction_config(EvictionPolicy::LruCap { max_records: 1 }));
        sched.enable_online();
        let mut log = Log::new();
        // Bin X fills and drains, leaving an idle record.
        sched.fork(record, 0, 0, Hints::one(Addr::new(0)));
        assert!(sched.drain_next(&mut log).is_some());
        // Bin Y's fork pushes the table over the cap: X is reaped.
        sched.fork(record, 1, 0, Hints::one(Addr::new(1 << 20)));
        assert_eq!(sched.evictions(), 1);
        assert_eq!(sched.bins(), 1);
        // X re-arrives; it must drain *after* Y, like any fresh fork.
        sched.fork(record, 2, 0, Hints::one(Addr::new(4)));
        while sched.drain_next(&mut log).is_some() {}
        assert_eq!(log, vec![(0, 0), (1, 0), (2, 0)]);
    }

    /// UniqueBin (every fork a fresh record) is the worst-case leak;
    /// the cap must bound it too.
    #[test]
    fn unique_bin_records_stay_bounded_under_cap() {
        use crate::policy::UniqueBin;
        use crate::EvictionPolicy;
        let mut sched: Scheduler<Log, UniqueBin> = Scheduler::with_policy(
            eviction_config(EvictionPolicy::LruCap { max_records: 4 }),
            UniqueBin::default(),
        );
        sched.enable_online();
        let mut log = Log::new();
        for i in 0..40usize {
            sched.fork(record, i, 0, Hints::none());
            assert!(sched.bins() <= 4, "cap violated at fork {i}");
            assert!(sched.drain_next(&mut log).is_some());
        }
        assert_eq!(sched.evictions(), 40 - 4);
    }

    /// With every fork preceding every drain (the t=0 equivalence
    /// shape), eviction never fires and the drain order is byte-equal
    /// to the batch run.
    #[test]
    fn t0_drain_with_eviction_matches_batch_and_never_evicts() {
        use crate::EvictionPolicy;
        let fork_all = |sched: &mut Scheduler<Log>| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..300usize {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sched.fork(record, i, 0, Hints::one(Addr::new(x % (1 << 20))));
            }
        };
        let mut batch = Scheduler::<Log>::new(eviction_config(EvictionPolicy::Off));
        fork_all(&mut batch);
        let mut batch_log = Log::new();
        batch.run(&mut batch_log, RunMode::Consume);

        let mut online =
            Scheduler::<Log>::new(eviction_config(EvictionPolicy::LruCap { max_records: 2 }));
        fork_all(&mut online);
        online.enable_online();
        let mut online_log = Log::new();
        while online.drain_next(&mut online_log).is_some() {}
        assert_eq!(online.evictions(), 0, "no insert follows a drain");
        assert_eq!(online_log, batch_log);
    }

    #[test]
    fn online_drain_on_empty_is_none_and_fifo_policy_batches() {
        use crate::policy::SingleBin;
        let mut sched: Scheduler<Log, SingleBin> =
            Scheduler::with_policy(SchedulerConfig::default(), SingleBin);
        sched.enable_online();
        let mut log = Log::new();
        assert!(sched.drain_next(&mut log).is_none());
        for i in 0..5 {
            sched.fork(record, i, 0, Hints::none());
        }
        // One bin ⇒ the whole backlog is one drain unit, in fork order.
        let stats = sched.drain_next(&mut log).unwrap();
        assert_eq!(stats.threads_run, 5);
        assert_eq!(
            log.iter().map(|&(a, _)| a).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(sched.drain_next(&mut log).is_none());
    }

    #[test]
    fn hierarchical_retain_re_runs_identically() {
        let policy = TopologyPolicy::uniform(&[512, 4096], false).unwrap();
        let mut sched: Scheduler<Log, TopologyPolicy> =
            Scheduler::with_policy(SchedulerConfig::default(), policy);
        for i in 0..50 {
            sched.fork(
                record,
                i,
                0,
                Hints::one(Addr::new((i as u64 * 397) % 16384)),
            );
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Retain);
        sched.run(&mut log, RunMode::Consume);
        assert_eq!(&log[..50], &log[50..], "identical re-execution");
    }
}
