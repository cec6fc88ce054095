//! Symmetric-multiprocessor extension — the paper's SMP future work
//! (§7).
//!
//! "It appears that the idea proposed in this paper can be extended in
//! a straightforward manner to improve performance on symmetric
//! multiprocessors, but this remains to be demonstrated."
//!
//! [`ParScheduler`] is that demonstration: hints bin threads exactly
//! as in the sequential [`Scheduler`](crate::Scheduler), and
//! [`run`](ParScheduler::run) hands out *whole bins* to worker OS
//! threads. A bin is the unit of work distribution because it is the
//! unit of locality: every thread of a bin runs on the same core, so
//! the bin's cache-sized working set is loaded once into that core's
//! cache — per-core locality scheduling plus cache-affinity placement
//! in one mechanism (compare Squillante & Lazowska's affinity
//! scheduling, reference [38] of the paper).
//!
//! # Work distribution and stealing
//!
//! The bin tour is the engine's ready list flattened into its bins, the
//! order a sequential run drains them in. It is split into one
//! *contiguous* segment per worker, balanced by thread count, so each
//! core starts with a contiguous stretch of scheduling space — adjacent
//! bins share block boundaries, and a core walking its segment
//! front-to-back replays the sequential scheduler's locality within its
//! slice. Each segment lives in a per-worker deque of tour positions.
//! An owner pops from the *front*
//! (the hot end, nearest its current bin); a worker whose deque drains
//! steals *half* a victim's deque from the *back* (the cold end, the
//! work the victim would reach last) according to the configured
//! [`StealPolicy`]. Stealing whole bins from the cold end keeps both
//! parties contiguous: the victim keeps the half adjacent to what it
//! is executing, and the thief receives an unbroken run of tour
//! positions. [`StealPolicy::LocalityAware`] additionally picks the
//! victim whose cold end is *farthest* (Manhattan distance over block
//! coordinates) from that victim's currently-executing bin — the bins
//! least likely to share a cache-sized working set with the victim's
//! near-term work, so the transfer costs the victim the least reuse.
//!
//! # Concurrency contract
//!
//! Because threads now run concurrently, bodies take the context by
//! *shared* reference (`fn(&C, usize, usize)`) and the context must be
//! [`Sync`]; writes go through interior mutability (atomics, or
//! disjoint-index cells the caller vouches for). Threads remain
//! independent and run-to-completion; there is no synchronization
//! between them beyond deque transfers and the final join. Work only
//! ever moves *between deques* (under their mutexes), so every forked
//! thread is executed exactly once by exactly one worker regardless of
//! how steals interleave. Nothing else is shared: each worker owns its
//! counters and probe observations and hands them back at the join.

use crate::config::StealPolicy;
use crate::engine::{Bin, BinEngine};
use crate::hint::MAX_DIMS;
use crate::policy::{BinPolicy, TopologyPolicy};
use crate::stats::{RunStats, SchedulerStats, WorkerStats};
use crate::table::BinId;
use crate::{Hints, SchedulerConfig};
use memtrace::{SchedEvent, ScheduleLog};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A thread body for parallel execution: shared context plus the two
/// word-sized arguments.
pub type ParThreadFn<C> = fn(&C, usize, usize);

#[derive(Clone, Copy, Debug)]
pub(crate) struct ParSpec<C> {
    func: ParThreadFn<C>,
    arg1: usize,
    arg2: usize,
}

/// Sentinel for "this worker is not executing any bin".
const NO_BIN: usize = usize::MAX;

/// One worker's share of the tour: a deque of tour positions guarded
/// by a mutex (owner pops front, thieves split the back), plus the
/// tour position the worker is currently executing, published so
/// locality-aware thieves can score this worker as a victim. `current`
/// may lag by one bin while the owner is between pops; victim scoring
/// tolerates that staleness.
struct WorkerQueue {
    deque: Mutex<VecDeque<u32>>,
    current: AtomicUsize,
}

impl WorkerQueue {
    fn new() -> Self {
        WorkerQueue {
            deque: Mutex::new(VecDeque::new()),
            current: AtomicUsize::new(NO_BIN),
        }
    }
}

/// Probe observations of one parallel run. The coordinator's copy
/// records the partition; each worker records into its own copy (plain
/// cells, like its [`WorkerStats`]) and returns it at the join, where
/// it is merged into the coordinator's. Kept out of [`WorkerStats`] so
/// the always-on report stays identical whether or not probes are
/// compiled in; flushed into [`ParRunReport::profile`].
#[derive(Default)]
struct ParObs {
    /// Tour positions moved per successful half-steal.
    steal_size: probe::LocalHistogram,
    /// Deque depths observed at partition time and after each transfer
    /// (thief's new depth, victim's remainder) — the histogram's `max`
    /// is the run's deque-depth high-water mark.
    deque_depth: probe::LocalHistogram,
    /// Wall time one worker spent draining one bin.
    bin_run_ns: probe::LocalHistogram,
    /// Steals that moved at least one tour position.
    half_steals: probe::LocalCounter,
}

impl ParObs {
    /// Folds one worker's observations into these.
    fn merge_from(&self, other: &ParObs) {
        self.steal_size.merge_from(&other.steal_size);
        self.deque_depth.merge_from(&other.deque_depth);
        self.bin_run_ns.merge_from(&other.bin_run_ns);
        self.half_steals.add(other.half_steals.get());
    }

    /// Flushes the observations into a `"par"` profile section.
    fn section(&self) -> probe::Section {
        let mut section = probe::Section::new("par");
        section
            .counter("half_steals", self.half_steals.get())
            .histogram("steal_size", &self.steal_size)
            .histogram("deque_depth", &self.deque_depth)
            .histogram("bin_run_ns", &self.bin_run_ns);
        section
    }
}

/// Everything one parallel run did: the aggregate [`RunStats`], the
/// consumed schedule's bin distribution, and per-worker steal /
/// execution counters. Produced by [`ParScheduler::run_report`];
/// serializable with [`to_json`](ParRunReport::to_json) for benchmark
/// harnesses.
#[derive(Clone, Debug)]
pub struct ParRunReport {
    /// Steal policy the run used.
    pub policy: StealPolicy,
    /// Number of worker threads the run was asked to use.
    pub workers: usize,
    /// Aggregate outcome, identical to what [`ParScheduler::run`]
    /// returns.
    pub run: RunStats,
    /// Bin distribution of the consumed schedule, with one
    /// [`WorkerStats`] entry per worker.
    pub stats: SchedulerStats,
    /// Probe observations (steal sizes, deque high-water marks,
    /// per-bin run times). Empty when the probe layer is compiled out.
    pub profile: probe::RunProfile,
    /// The *observed* schedule-event stream of this run: actor 0 is the
    /// partitioning coordinator, actors 1..=workers the workers. Each
    /// drain unit (tour position) appears as exactly one
    /// [`DrainBegin`](SchedEvent::DrainBegin)/[`DrainEnd`](SchedEvent::DrainEnd)
    /// pair on the worker that executed it, with
    /// [`Steal`](SchedEvent::Steal) provenance events where deque
    /// halves moved. Event *content* depends on how steals raced, so
    /// the log is for structural checks (every unit drained exactly
    /// once, steals consistent with counters), not for byte-stable
    /// artifacts — reproducible analysis uses mirror replay instead.
    pub schedule: ScheduleLog,
}

impl ParRunReport {
    /// Serializes the report as a single-line JSON object with
    /// aggregate fields and a `per_worker` array.
    pub fn to_json(&self) -> String {
        probe::json::write(|w| self.write_json(w))
    }

    /// Writes the report as the next value of `w`.
    pub fn write_json(&self, w: &mut probe::json::Writer) {
        w.object(|w| {
            w.key("policy").string(&self.policy.to_string());
            w.key("workers").uint(self.workers as u64);
            w.key("threads_run").uint(self.run.threads_run);
            w.key("bins_visited").uint(self.run.bins_visited as u64);
            w.key("steals_attempted")
                .uint(self.stats.steals_attempted());
            w.key("steals_succeeded")
                .uint(self.stats.steals_succeeded());
            w.key("makespan_ns").uint(self.stats.makespan_ns());
            w.key("per_worker").array(|w| {
                for (i, worker) in self.stats.workers().iter().enumerate() {
                    w.object(|w| {
                        w.key("worker").uint(i as u64);
                        w.key("bins_executed").uint(worker.bins_executed);
                        w.key("threads_executed").uint(worker.threads_executed);
                        w.key("steals_attempted").uint(worker.steals_attempted);
                        w.key("steals_succeeded").uint(worker.steals_succeeded);
                        w.key("busy_ns").uint(worker.busy_ns);
                        w.key("parked_ns").uint(worker.parked_ns);
                    });
                }
            });
            if probe::enabled() && !self.profile.is_empty() {
                self.profile.write_json(w.key("run_profile"));
            }
        });
    }
}

/// A locality scheduler whose `run` executes bins on multiple worker
/// threads.
///
/// # Examples
///
/// ```
/// use locality_sched::{Hints, ParScheduler, SchedulerConfig};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// struct Ctx {
///     sums: Vec<AtomicU64>,
/// }
/// fn body(ctx: &Ctx, slot: usize, value: usize) {
///     ctx.sums[slot].fetch_add(value as u64, Ordering::Relaxed);
/// }
///
/// let mut sched = ParScheduler::new(SchedulerConfig::default());
/// for i in 0..100usize {
///     sched.fork(body, i % 4, i, Hints::one((i as u64 * 100_000).into()));
/// }
/// let ctx = Ctx {
///     sums: (0..4).map(|_| AtomicU64::new(0)).collect(),
/// };
/// let stats = sched.run(&ctx, 4);
/// assert_eq!(stats.threads_run, 100);
/// let total: u64 = ctx.sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
/// assert_eq!(total, (0..100).sum::<usize>() as u64);
/// ```
#[derive(Debug)]
pub struct ParScheduler<C, P = TopologyPolicy> {
    config: SchedulerConfig,
    engine: BinEngine<ParSpec<C>, P>,
}

impl<C: Sync> ParScheduler<C> {
    /// Creates an empty parallel scheduler using the paper's binning
    /// policy derived from `config`.
    pub fn new(config: SchedulerConfig) -> Self {
        ParScheduler::with_policy(config, TopologyPolicy::from_config(&config))
    }
}

impl<C: Sync, P: BinPolicy> ParScheduler<C, P> {
    /// Creates an empty parallel scheduler binning with an explicit
    /// `policy`; `config` still supplies the hash-table size and the
    /// steal policy. Bins are partitioned in ready-list order.
    pub fn with_policy(config: SchedulerConfig, policy: P) -> Self {
        ParScheduler {
            engine: BinEngine::new(&config, policy, None),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Creates and schedules a thread to call `func(ctx, arg1, arg2)`,
    /// binned by `hints`.
    pub fn fork(&mut self, func: ParThreadFn<C>, arg1: usize, arg2: usize, hints: Hints) {
        self.engine
            .insert_traced(ParSpec { func, arg1, arg2 }, hints, &mut memtrace::NullSink);
    }

    /// Number of threads currently scheduled.
    pub fn pending(&self) -> u64 {
        self.engine.pending()
    }

    /// Number of bins currently allocated.
    pub fn bins(&self) -> usize {
        self.engine.bins()
    }

    /// Distribution statistics over the current schedule.
    pub fn stats(&self) -> SchedulerStats {
        self.engine.stats()
    }

    /// Runs and consumes every scheduled thread on `workers` OS
    /// threads. The bin tour is partitioned contiguously across
    /// per-worker deques (balanced by thread count); idle workers
    /// steal per the configured
    /// [`steal_policy`](SchedulerConfig::steal_policy). Each bin is
    /// executed to completion by exactly one worker.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or propagates a panic from a thread
    /// body.
    pub fn run(&mut self, ctx: &C, workers: usize) -> RunStats {
        self.run_report(ctx, workers).run
    }

    /// Like [`run`](ParScheduler::run), but returns the full
    /// [`ParRunReport`] with per-worker steal and execution counters.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or propagates a panic from a thread
    /// body.
    pub fn run_report(&mut self, ctx: &C, workers: usize) -> ParRunReport {
        assert!(workers > 0, "need at least one worker");
        let policy = self.config.steal_policy();
        let mut stats = self.stats();
        let order = self.engine.ready_bins();
        // Block coordinates per *tour position* at the coarsest (steal)
        // granularity, for victim scoring. A multi-level policy's bins
        // score as their coarsest-level group — working-set distance is
        // a last-level notion.
        let keys: Vec<[u64; MAX_DIMS]> =
            order.iter().map(|&id| self.engine.steal_key(id)).collect();
        let bins = self.engine.bins_slice();

        // Contiguous partition of the tour, balanced by thread count:
        // worker w's segment ends once the cumulative thread count
        // reaches w+1 fair shares.
        let total = self.engine.pending();
        let queues: Vec<WorkerQueue> = (0..workers).map(|_| WorkerQueue::new()).collect();
        let obs = ParObs::default();
        // The observed schedule log opens with one partition hand-off
        // per worker that received a non-empty initial segment.
        let mut schedule = ScheduleLog::new(workers as u32 + 1);
        {
            let mut cum = 0u64;
            let mut w = 0usize;
            for (pos, &id) in order.iter().enumerate() {
                while w + 1 < workers && cum * workers as u64 >= (w as u64 + 1) * total {
                    w += 1;
                }
                queues[w]
                    .deque
                    .lock()
                    .expect("deque poisoned")
                    .push_back(pos as u32);
                cum += bins[id as usize].threads();
            }
            for (w, queue) in queues.iter().enumerate() {
                let depth = queue.deque.lock().expect("deque poisoned").len();
                if depth > 0 {
                    schedule.push(SchedEvent::Handoff {
                        from: 0,
                        to: w as u32 + 1,
                    });
                }
                if probe::enabled() {
                    obs.deque_depth.record(depth as u64);
                }
            }
        }

        let outcomes: Vec<(WorkerStats, Vec<SchedEvent>, ParObs)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let queues = &queues;
                    let order = &order;
                    let keys = &keys;
                    scope.spawn(move || worker_loop(me, queues, order, keys, bins, policy, ctx))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let per_worker: Vec<WorkerStats> = outcomes.iter().map(|(w, _, _)| *w).collect();
        // Per-worker event streams concatenated in worker order; each
        // stream is internally ordered, cross-worker order is modeled
        // by the final barrier (the scope join).
        for (_, events, worker_obs) in outcomes {
            schedule.events.extend(events);
            obs.merge_from(&worker_obs);
        }
        schedule.push(SchedEvent::Barrier);

        let threads_run: u64 = per_worker.iter().map(|w| w.threads_executed).sum();
        let bins_visited: usize = per_worker.iter().map(|w| w.bins_executed).sum::<u64>() as usize;
        self.engine.clear();
        stats.set_workers(per_worker);
        let mut profile = probe::RunProfile::new();
        profile.push(obs.section());
        ParRunReport {
            policy,
            workers,
            run: RunStats {
                threads_run,
                bins_visited,
            },
            stats,
            profile,
            schedule,
        }
    }
}

/// One worker: drain the own deque front-to-back; once empty, steal
/// per `policy` or exit. Returns the worker's counters, its observed
/// schedule events (drain-unit begin/end per tour position executed,
/// steal provenance per successful transfer) and its probe
/// observations.
fn worker_loop<C: Sync>(
    me: usize,
    queues: &[WorkerQueue],
    order: &[BinId],
    keys: &[[u64; MAX_DIMS]],
    bins: &[Bin<ParSpec<C>>],
    policy: StealPolicy,
    ctx: &C,
) -> (WorkerStats, Vec<SchedEvent>, ParObs) {
    let mut stats = WorkerStats::default();
    let mut events: Vec<SchedEvent> = Vec::new();
    let obs = ParObs::default();
    let actor = me as u32 + 1;
    let mut rng = XorShift64::for_worker(me);
    loop {
        let next = queues[me].deque.lock().expect("deque poisoned").pop_front();
        if let Some(pos) = next {
            queues[me].current.store(pos as usize, Ordering::Relaxed);
            events.push(SchedEvent::DrainBegin { actor, unit: pos });
            let bin = &bins[order[pos as usize] as usize];
            let busy = Instant::now();
            for spec in bin.items() {
                (spec.func)(ctx, spec.arg1, spec.arg2);
            }
            let busy_ns = busy.elapsed().as_nanos() as u64;
            // Reuses the busy measurement rather than opening a probe
            // span, so no second clock read lands on the hot path.
            obs.bin_run_ns.record(busy_ns);
            stats.busy_ns += busy_ns;
            stats.bins_executed += 1;
            stats.threads_executed += bin.threads();
            events.push(SchedEvent::DrainEnd { actor, unit: pos });
            continue;
        }
        if policy == StealPolicy::None {
            return (stats, events, obs);
        }
        let parked = Instant::now();
        let got = match policy {
            StealPolicy::None => unreachable!("handled above"),
            StealPolicy::Random => steal_random(me, queues, &mut rng, &mut stats, &obs),
            StealPolicy::LocalityAware => steal_locality(me, queues, keys, &mut stats, &obs),
        };
        stats.parked_ns += parked.elapsed().as_nanos() as u64;
        match got {
            Some((victim, units)) => events.push(SchedEvent::Steal {
                thief: actor,
                victim: victim as u32 + 1,
                units: u32::try_from(units).expect("steal size fits u32"),
            }),
            None => {
                // No victim has stealable work; the only remaining bins
                // are in flight on other workers and cannot move. Done.
                return (stats, events, obs);
            }
        }
    }
}

/// Moves up to half of `victim`'s deque (back half, at least one
/// entry) onto the back of `me`'s deque. Returns the number of tour
/// positions moved (0 if the victim's deque was empty) and records the
/// transfer in the thief's `obs`. Never holds two deque locks at once,
/// so steals cannot deadlock.
fn steal_half(queues: &[WorkerQueue], victim: usize, me: usize, obs: &ParObs) -> u64 {
    let (stolen, remainder) = {
        let mut dq = queues[victim].deque.lock().expect("deque poisoned");
        let len = dq.len();
        if len == 0 {
            return 0;
        }
        let take = (len / 2).max(1);
        (dq.split_off(len - take), dq.len())
    };
    let count = stolen.len() as u64;
    let depth = {
        let mut dq = queues[me].deque.lock().expect("deque poisoned");
        dq.extend(stolen);
        dq.len()
    };
    obs.half_steals.incr();
    obs.steal_size.record(count);
    obs.deque_depth.record(depth as u64);
    obs.deque_depth.record(remainder as u64);
    count
}

/// Random policy: visit every other worker once, starting from a
/// random rotation, and steal from the first with a non-empty deque.
/// Returns the victim and the number of tour positions moved.
fn steal_random(
    me: usize,
    queues: &[WorkerQueue],
    rng: &mut XorShift64,
    stats: &mut WorkerStats,
    obs: &ParObs,
) -> Option<(usize, u64)> {
    let n = queues.len();
    if n <= 1 {
        return None;
    }
    let start = (rng.next() as usize) % (n - 1);
    for i in 0..n - 1 {
        let victim = (me + 1 + (start + i) % (n - 1)) % n;
        stats.steals_attempted += 1;
        let moved = steal_half(queues, victim, me, obs);
        if moved > 0 {
            stats.steals_succeeded += 1;
            return Some((victim, moved));
        }
    }
    None
}

/// Locality-aware policy: score every victim by the Manhattan distance
/// (over block coordinates) between its cold-end bin and the bin it is
/// currently executing, and steal half of the farthest — the victim
/// that loses the least locality by giving up its back half. Ties go
/// toward the larger backlog, then the lower worker index. If the
/// chosen victim drained in the meantime, rescan (total work shrinks
/// monotonically, so this ends). Returns the victim and the number of
/// tour positions moved.
fn steal_locality(
    me: usize,
    queues: &[WorkerQueue],
    keys: &[[u64; MAX_DIMS]],
    stats: &mut WorkerStats,
    obs: &ParObs,
) -> Option<(usize, u64)> {
    loop {
        let mut best: Option<(u64, usize, usize)> = None; // (score, backlog, victim)
        for (victim, queue) in queues.iter().enumerate() {
            if victim == me {
                continue;
            }
            let (back, front, backlog) = {
                let dq = queue.deque.lock().expect("deque poisoned");
                (dq.back().copied(), dq.front().copied(), dq.len())
            };
            let (Some(back), Some(front)) = (back, front) else {
                continue;
            };
            let current = queue.current.load(Ordering::Relaxed);
            // A victim that has not started yet anchors at its front.
            let anchor = if current == NO_BIN {
                front as usize
            } else {
                current
            };
            let score = manhattan(keys[back as usize], keys[anchor]);
            if best.is_none_or(|(s, b, _)| (score, backlog) > (s, b)) {
                best = Some((score, backlog, victim));
            }
        }
        let (_, _, victim) = best?;
        stats.steals_attempted += 1;
        let moved = steal_half(queues, victim, me, obs);
        if moved > 0 {
            stats.steals_succeeded += 1;
            return Some((victim, moved));
        }
    }
}

/// Manhattan distance between two block-coordinate keys.
#[inline]
fn manhattan(a: [u64; MAX_DIMS], b: [u64; MAX_DIMS]) -> u64 {
    let mut sum = 0u64;
    for dim in 0..MAX_DIMS {
        sum = sum.saturating_add(a[dim].abs_diff(b[dim]));
    }
    sum
}

/// Deterministic per-worker PRNG (xorshift64*) for random victim
/// rotation; seeded from the worker index so runs are reproducible
/// modulo OS scheduling.
struct XorShift64(u64);

impl XorShift64 {
    fn for_worker(me: usize) -> Self {
        XorShift64((me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Addr;
    use std::sync::atomic::AtomicU64;

    struct Counters {
        slots: Vec<AtomicU64>,
    }

    fn bump(ctx: &Counters, slot: usize, value: usize) {
        ctx.slots[slot].fetch_add(value as u64, Ordering::Relaxed);
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig::builder().block_size(4096).build().unwrap()
    }

    fn config_with(policy: StealPolicy) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(4096)
            .steal_policy(policy)
            .build()
            .unwrap()
    }

    fn counters(n: usize) -> Counters {
        Counters {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    const ALL_POLICIES: [StealPolicy; 3] = [
        StealPolicy::None,
        StealPolicy::Random,
        StealPolicy::LocalityAware,
    ];

    #[test]
    #[cfg_attr(
        miri,
        ignore = "12 scheduler runs x 1000 forks is too slow under the interpreter"
    )]
    fn every_thread_runs_exactly_once_in_parallel() {
        for policy in ALL_POLICIES {
            for workers in [1, 2, 4, 8] {
                let mut sched: ParScheduler<Counters> = ParScheduler::new(config_with(policy));
                for i in 0..1000usize {
                    sched.fork(
                        bump,
                        i % 10,
                        1,
                        Hints::one(Addr::new((i as u64 % 64) * 100_000)),
                    );
                }
                assert_eq!(sched.pending(), 1000);
                let ctx = counters(10);
                let stats = sched.run(&ctx, workers);
                assert_eq!(stats.threads_run, 1000, "workers = {workers} {policy}");
                let total: u64 = ctx.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
                assert_eq!(total, 1000);
                assert_eq!(sched.pending(), 0);
            }
        }
    }

    #[test]
    fn single_worker_matches_sequential_semantics() {
        // With one worker, bins run in tour order just like the
        // sequential scheduler — under every steal policy, because a
        // lone worker has no victims.
        struct OrderLog {
            order: std::sync::Mutex<Vec<usize>>,
        }
        fn log_it(ctx: &OrderLog, i: usize, _j: usize) {
            ctx.order.lock().unwrap().push(i);
        }
        for policy in ALL_POLICIES {
            let mut sched: ParScheduler<OrderLog> = ParScheduler::new(config_with(policy));
            for i in 0..6usize {
                let addr = if i % 2 == 0 { 0u64 } else { 1 << 30 };
                sched.fork(log_it, i, 0, Hints::one(Addr::new(addr)));
            }
            let ctx = OrderLog {
                order: std::sync::Mutex::new(Vec::new()),
            };
            sched.run(&ctx, 1);
            assert_eq!(
                *ctx.order.lock().unwrap(),
                vec![0, 2, 4, 1, 3, 5],
                "{policy}"
            );
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "2400 cross-thread executions are too slow under the interpreter"
    )]
    fn bins_never_split_across_workers() {
        // Tag each thread with its bin; assert all threads of a bin saw
        // the same worker (thread id). Bins are the unit of transfer,
        // so this must hold even while stealing.
        struct BinWorkers {
            seen: Vec<std::sync::Mutex<Option<std::thread::ThreadId>>>,
            violations: AtomicU64,
        }
        fn check(ctx: &BinWorkers, bin: usize, _j: usize) {
            let me = std::thread::current().id();
            let mut slot = ctx.seen[bin].lock().unwrap();
            match *slot {
                None => *slot = Some(me),
                Some(owner) => {
                    if owner != me {
                        ctx.violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        for policy in ALL_POLICIES {
            let bins = 16usize;
            let mut sched: ParScheduler<BinWorkers> = ParScheduler::new(config_with(policy));
            for i in 0..800usize {
                let bin = i % bins;
                sched.fork(check, bin, 0, Hints::one(Addr::new(bin as u64 * 1_000_000)));
            }
            let ctx = BinWorkers {
                seen: (0..bins).map(|_| std::sync::Mutex::new(None)).collect(),
                violations: AtomicU64::new(0),
            };
            sched.run(&ctx, 4);
            assert_eq!(ctx.violations.load(Ordering::Relaxed), 0, "{policy}");
        }
    }

    #[test]
    fn more_workers_than_bins_is_fine() {
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
        sched.fork(bump, 0, 5, Hints::none());
        let ctx = counters(1);
        let stats = sched.run(&ctx, 16);
        assert_eq!(stats.threads_run, 1);
        assert_eq!(ctx.slots[0].load(Ordering::Relaxed), 5);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
        let ctx = counters(1);
        let _ = sched.run(&ctx, 0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "12 scheduler runs x 500 forks is too slow under the interpreter"
    )]
    fn report_counters_are_consistent() {
        for policy in ALL_POLICIES {
            for workers in [1, 2, 4, 8] {
                let mut sched: ParScheduler<Counters> = ParScheduler::new(config_with(policy));
                for i in 0..500usize {
                    sched.fork(
                        bump,
                        0,
                        1,
                        Hints::one(Addr::new((i as u64 % 32) * 1_000_000)),
                    );
                }
                let ctx = counters(1);
                let report = sched.run_report(&ctx, workers);
                assert_eq!(report.policy, policy);
                assert_eq!(report.workers, workers);
                assert_eq!(report.stats.workers().len(), workers);
                assert_eq!(report.run.threads_run, 500);
                let by_worker: u64 = report
                    .stats
                    .workers()
                    .iter()
                    .map(|w| w.threads_executed)
                    .sum();
                assert_eq!(by_worker, report.run.threads_run);
                let bins_by_worker: u64 =
                    report.stats.workers().iter().map(|w| w.bins_executed).sum();
                assert_eq!(bins_by_worker as usize, report.run.bins_visited);
                for w in report.stats.workers() {
                    assert!(
                        w.steals_succeeded <= w.steals_attempted,
                        "{policy} workers={workers}: {w}"
                    );
                }
                if probe::enabled() {
                    // Every worker's observations reached the merged
                    // section: one drain time per bin, one steal-size
                    // sample per successful steal.
                    let label = format!("{policy} workers={workers}");
                    let bin_run = par_histogram(&report, "bin_run_ns");
                    assert_eq!(bin_run.count as usize, report.run.bins_visited, "{label}");
                    let half_steals = par_counter(&report, "half_steals");
                    assert_eq!(half_steals, report.stats.steals_succeeded(), "{label}");
                    let steal_size = par_histogram(&report, "steal_size");
                    assert_eq!(steal_size.count, half_steals, "{label}");
                    let units: u64 = report
                        .schedule
                        .events
                        .iter()
                        .map(|event| match event {
                            SchedEvent::Steal { units, .. } => u64::from(*units),
                            _ => 0,
                        })
                        .sum();
                    assert_eq!(steal_size.sum, units, "{label}");
                }
            }
        }
    }

    /// The `"par"` section's metric `name`, if the run recorded one.
    fn par_metric<'a>(report: &'a ParRunReport, name: &str) -> Option<&'a probe::Metric> {
        let section = report
            .profile
            .sections()
            .iter()
            .find(|s| s.name() == "par")?;
        section
            .metrics()
            .iter()
            .find_map(|(n, metric)| (n == name).then_some(metric))
    }

    /// A `"par"` histogram; empty histograms are left out of sections.
    fn par_histogram(report: &ParRunReport, name: &str) -> probe::HistogramSnapshot {
        match par_metric(report, name) {
            Some(probe::Metric::Histogram(snapshot)) => snapshot.clone(),
            None => probe::HistogramSnapshot::default(),
            Some(other) => panic!("{name} is not a histogram: {other:?}"),
        }
    }

    fn par_counter(report: &ParRunReport, name: &str) -> u64 {
        match par_metric(report, name) {
            Some(probe::Metric::Counter(value)) => *value,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    #[test]
    fn no_steals_under_none_policy() {
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config_with(StealPolicy::None));
        for i in 0..400usize {
            sched.fork(
                bump,
                0,
                1,
                Hints::one(Addr::new((i as u64 % 16) * 1_000_000)),
            );
        }
        let ctx = counters(1);
        let report = sched.run_report(&ctx, 4);
        assert_eq!(report.stats.steals_attempted(), 0);
        assert_eq!(report.stats.steals_succeeded(), 0);
        assert_eq!(
            report
                .stats
                .workers()
                .iter()
                .map(|w| w.parked_ns)
                .sum::<u64>(),
            0,
            "None-policy workers never park to search for victims"
        );
    }

    #[test]
    fn idle_workers_attempt_steals_under_random_policy() {
        // One bin, four workers: three start empty and must each log
        // at least one steal attempt before exiting.
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config_with(StealPolicy::Random));
        for _ in 0..50 {
            sched.fork(bump, 0, 1, Hints::none());
        }
        let ctx = counters(1);
        let report = sched.run_report(&ctx, 4);
        assert_eq!(report.run.threads_run, 50);
        assert!(report.stats.steals_attempted() >= 1, "{}", report.to_json());
    }

    #[test]
    fn report_json_shape() {
        let mut sched: ParScheduler<Counters> =
            ParScheduler::new(config_with(StealPolicy::LocalityAware));
        for i in 0..100usize {
            sched.fork(
                bump,
                0,
                1,
                Hints::one(Addr::new((i as u64 % 8) * 1_000_000)),
            );
        }
        let ctx = counters(1);
        let report = sched.run_report(&ctx, 2);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"policy\":\"locality-aware\""), "{json}");
        assert!(json.contains("\"workers\":2"), "{json}");
        assert!(json.contains("\"threads_run\":100"), "{json}");
        assert!(json.contains("\"per_worker\":[{\"worker\":0,"), "{json}");
        assert!(json.contains("\"worker\":1,"), "{json}");
        assert!(json.contains("\"makespan_ns\":"), "{json}");
        assert!(json.contains("\"busy_ns\":"), "{json}");
        assert!(json.contains("\"parked_ns\":"), "{json}");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "12 scheduler runs x 400 forks are too slow under the interpreter"
    )]
    fn observed_schedule_log_is_well_formed() {
        // Every drain unit (tour position) appears as exactly one
        // DrainBegin/DrainEnd pair, on whichever worker won it; steal
        // events match the success counters; the log ends in a barrier.
        use std::collections::BTreeMap;
        for policy in ALL_POLICIES {
            for workers in [1, 2, 4, 8] {
                let mut sched: ParScheduler<Counters> = ParScheduler::new(config_with(policy));
                for i in 0..400usize {
                    sched.fork(
                        bump,
                        0,
                        1,
                        Hints::one(Addr::new((i as u64 % 16) * 1_000_000)),
                    );
                }
                let ctx = counters(1);
                let report = sched.run_report(&ctx, workers);
                let log = &report.schedule;
                assert_eq!(log.actors, workers as u32 + 1, "{policy}/{workers}");
                assert_eq!(log.events.last(), Some(&SchedEvent::Barrier));
                let mut begun: BTreeMap<u32, u64> = BTreeMap::new();
                let mut ended: BTreeMap<u32, u64> = BTreeMap::new();
                let mut steals = 0u64;
                for &event in &log.events {
                    match event {
                        SchedEvent::DrainBegin { actor, unit } => {
                            assert!(actor >= 1 && actor <= workers as u32);
                            *begun.entry(unit).or_default() += 1;
                        }
                        SchedEvent::DrainEnd { unit, .. } => {
                            *ended.entry(unit).or_default() += 1;
                        }
                        SchedEvent::Steal {
                            thief,
                            victim,
                            units,
                        } => {
                            assert_ne!(thief, victim);
                            assert!(units > 0);
                            steals += 1;
                        }
                        SchedEvent::Handoff { from, to } => {
                            assert_eq!(from, 0);
                            assert!(to >= 1 && to <= workers as u32);
                        }
                        _ => {}
                    }
                }
                assert_eq!(begun.len(), 16, "{policy}/{workers}: all 16 bins drained");
                assert!(begun.values().all(|&n| n == 1), "{policy}/{workers}");
                assert_eq!(begun, ended, "{policy}/{workers}");
                assert_eq!(
                    steals,
                    report.stats.steals_succeeded(),
                    "{policy}/{workers}"
                );
            }
        }
    }

    #[test]
    fn contiguous_partition_balances_by_thread_count() {
        // 4 equal bins over 2 workers with stealing off: each worker
        // executes exactly 2 bins / half the threads.
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config_with(StealPolicy::None));
        for bin in 0..4u64 {
            for _ in 0..25 {
                sched.fork(bump, 0, 1, Hints::one(Addr::new(bin * 1_000_000)));
            }
        }
        let ctx = counters(1);
        let report = sched.run_report(&ctx, 2);
        for w in report.stats.workers() {
            assert_eq!(w.bins_executed, 2, "{}", report.to_json());
            assert_eq!(w.threads_executed, 50, "{}", report.to_json());
        }
    }
}
