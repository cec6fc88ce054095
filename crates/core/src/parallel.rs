//! Symmetric-multiprocessor extension — the paper's SMP future work
//! (§7).
//!
//! "It appears that the idea proposed in this paper can be extended in
//! a straightforward manner to improve performance on symmetric
//! multiprocessors, but this remains to be demonstrated."
//!
//! [`ParScheduler`] is that demonstration: hints bin threads exactly
//! as in the sequential [`Scheduler`](crate::Scheduler), and whole
//! *bins* are handed out to workers. A bin is the unit of work
//! distribution because it is the unit of locality: every thread of a
//! bin runs on the same core, so the bin's cache-sized working set is
//! loaded once into that core's cache — per-core locality scheduling
//! plus cache-affinity placement in one mechanism (compare Squillante &
//! Lazowska's affinity scheduling, reference [38] of the paper).
//!
//! # One steal step, two executors
//!
//! The bin tour is the engine's ready list flattened into its bins, the
//! order a sequential run drains them in. It is split into one
//! *contiguous* segment per worker, balanced by thread count, and each
//! segment becomes a worker's deque of tour positions. A worker pops
//! its own front (the hot end); once its deque drains it takes one
//! steal step: [`choose_victim`] picks a victim from a snapshot of the
//! backlogs per the [`StealPolicy`], and the thief moves the back half
//! of the victim's deque (the cold end, the work the victim would reach
//! last) onto its own. Both parties stay contiguous: the victim keeps
//! the half adjacent to what it is executing, and the thief receives an
//! unbroken run of tour positions.
//!
//! [`run`](ParScheduler::run) takes that step on OS threads, executing
//! the bodies; [`replay`](ParScheduler::replay) takes it in virtual
//! time, charging each bin a caller-given cost, so which worker ran
//! which bin — and hence the makespan and the steal counts — is exact
//! and reproducible.
//!
//! # Concurrency contract
//!
//! Because threads run concurrently under `run`, bodies take the
//! context by *shared* reference (`fn(&C, usize, usize)`) and the
//! context must be [`Sync`]; writes go through interior mutability
//! (atomics, or disjoint-index cells the caller vouches for). Threads
//! remain independent and run-to-completion; there is no
//! synchronization between them beyond deque transfers and the final
//! join. Work only ever moves *between deques* (under their mutexes),
//! so every forked thread is executed exactly once by exactly one
//! worker regardless of how steals interleave.

use crate::engine::{Bin, BinEngine};
use crate::hint::MAX_DIMS;
use crate::policy::{BinPolicy, TopologyPolicy};
use crate::stats::{RunStats, SchedulerStats, WorkerStats};
use crate::table::BinId;
use crate::{Hints, SchedulerConfig};
use memtrace::{SchedEvent, ScheduleLog};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// How an idle worker acquires more bins once its own deque drains.
///
/// The initial schedule partitions the bin tour contiguously across
/// workers. Stealing trades that contiguity for load balance; the
/// policy controls *how much* locality each steal gives up. Every
/// stealing policy takes half the victim's deque from the back (cold
/// end), preserving tour order within each fragment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StealPolicy {
    /// Never steal: workers stop when their own deque drains, so load
    /// imbalance turns directly into idle cores, but every bin runs on
    /// the worker whose tour segment it was assigned to.
    None,
    /// Try the other workers in a rotated order from a random start
    /// (seeded per worker) and steal from the first with a backlog —
    /// the classic Cilk/ABP discipline, oblivious to scheduling-space
    /// distance.
    Random,
    /// Steal from the victim whose cold end is farthest (Manhattan
    /// distance over block coordinates) from the bin it is executing:
    /// the bins least likely to share a cache-sized working set with
    /// its near-term work, so the steal costs it the least locality.
    #[default]
    LocalityAware,
}

impl StealPolicy {
    /// Every policy, in ablation order.
    pub const ALL: [StealPolicy; 3] = [
        StealPolicy::None,
        StealPolicy::Random,
        StealPolicy::LocalityAware,
    ];
}

impl fmt::Display for StealPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StealPolicy::None => "none",
            StealPolicy::Random => "random",
            StealPolicy::LocalityAware => "locality-aware",
        })
    }
}

/// A thread body for parallel execution: shared context plus the two
/// word-sized arguments.
pub type ParThreadFn<C> = fn(&C, usize, usize);

#[derive(Clone, Copy, Debug)]
pub(crate) struct ParSpec<C> {
    func: ParThreadFn<C>,
    arg1: usize,
    arg2: usize,
}

/// What a thief sees of one worker with a backlog: the ends and length
/// of its deque of tour positions, and the position it is executing
/// (or last executed; `None` before its first).
#[derive(Clone, Copy, Debug)]
struct Backlog {
    front: u32,
    back: u32,
    len: usize,
    current: Option<u32>,
}

impl Backlog {
    /// The backlog of a worker with deque `deque`, or `None` if it has
    /// nothing to steal.
    fn of(deque: &VecDeque<u32>, current: Option<u32>) -> Option<Backlog> {
        Some(Backlog {
            front: *deque.front()?,
            back: *deque.back()?,
            len: deque.len(),
            current,
        })
    }
}

/// The steal step's victim choice, shared by both executors: a pure
/// function of the backlogs as the thief sees them (`None` for a
/// worker with nothing to steal), the thief, the policy, the tour's
/// block keys and the thief's RNG. Returns the victim, if any, and the
/// number of victims the thief tried (a steal *attempt* each).
///
/// `Random` tries the others in a rotated order from a random start
/// until one has a backlog. `LocalityAware` tries only the one whose
/// cold end is farthest from its anchor (the bin it is executing, or
/// its front before it starts), ties going to the larger backlog and
/// then the lower id.
fn choose_victim(
    backlogs: &[Option<Backlog>],
    thief: usize,
    policy: StealPolicy,
    keys: &[[u64; MAX_DIMS]],
    rng: &mut XorShift64,
) -> (Option<usize>, u64) {
    let n = backlogs.len();
    match policy {
        StealPolicy::None => (None, 0),
        StealPolicy::Random if n <= 1 => (None, 0),
        StealPolicy::Random => {
            let start = (rng.next() as usize) % (n - 1);
            for i in 0..n - 1 {
                let victim = (thief + 1 + (start + i) % (n - 1)) % n;
                if backlogs[victim].is_some() {
                    return (Some(victim), i as u64 + 1);
                }
            }
            (None, n as u64 - 1)
        }
        StealPolicy::LocalityAware => {
            let mut best: Option<(u64, usize, usize)> = None; // (score, backlog, victim)
            for (victim, backlog) in backlogs.iter().enumerate() {
                let Some(b) = backlog.filter(|_| victim != thief) else {
                    continue;
                };
                let anchor = b.current.unwrap_or(b.front);
                let score = manhattan(keys[b.back as usize], keys[anchor as usize]);
                if best.is_none_or(|(s, l, _)| (score, b.len) > (s, l)) {
                    best = Some((score, b.len, victim));
                }
            }
            let victim = best.map(|(_, _, victim)| victim);
            (victim, u64::from(victim.is_some()))
        }
    }
}

/// The steal step's transfer: the back `(len / 2).max(1)` tour
/// positions of a non-empty victim deque, in tour order.
fn steal_half(victim: &mut VecDeque<u32>) -> VecDeque<u32> {
    let len = victim.len();
    victim.split_off(len - (len / 2).max(1))
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
/// rotation, seeded from the worker index.
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

/// The schedule both executors consume: the ready list flattened into
/// tour positions, each position's block key at the coarsest (steal)
/// granularity — working-set distance is a last-level notion — and the
/// workers' initial deques.
struct Tour {
    order: Vec<BinId>,
    keys: Vec<[u64; MAX_DIMS]>,
    deques: Vec<VecDeque<u32>>,
}

/// Everything one [`replay`](ParScheduler::replay) did, in virtual
/// time: the aggregate [`RunStats`], one [`WorkerStats`] per worker,
/// the makespan, and the schedule-event stream. Deterministic: the same
/// schedule, worker count, policy and costs give an equal report.
/// Serializable with [`to_json`](ParRunReport::to_json).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParRunReport {
    /// Steal policy the replay used.
    pub policy: StealPolicy,
    /// Number of workers replayed.
    pub workers: usize,
    /// Aggregate outcome, what [`ParScheduler::run`] returns for the
    /// same schedule.
    pub run: RunStats,
    /// One entry per worker.
    pub per_worker: Vec<WorkerStats>,
    /// The virtual time at which the last worker finished: the largest
    /// per-worker [`units`](WorkerStats::units).
    pub makespan_units: u64,
    /// The replay's schedule-event stream, in the order it took its
    /// steps: actor 0 is the partitioning coordinator (one
    /// [`Handoff`](SchedEvent::Handoff) per worker given a non-empty
    /// segment), actors 1..=workers the workers. Each tour position
    /// appears as one [`DrainBegin`](SchedEvent::DrainBegin) /
    /// [`DrainEnd`](SchedEvent::DrainEnd) pair on the worker that ran
    /// it, each successful steal as one [`Steal`](SchedEvent::Steal),
    /// and a [`Barrier`](SchedEvent::Barrier) closes the run.
    pub schedule: ScheduleLog,
}

impl ParRunReport {
    /// Every worker's counters summed.
    pub fn total(&self) -> WorkerStats {
        self.per_worker.iter().copied().sum()
    }

    /// Serializes the report as a single-line JSON object with
    /// aggregate fields and a `per_worker` array.
    pub fn to_json(&self) -> String {
        probe::json::write(|w| {
            w.object(|w| self.write_fields(w));
        })
    }

    /// Writes the report's members into the object `w` has open.
    pub fn write_fields(&self, w: &mut probe::json::Writer) {
        let total = self.total();
        w.key("policy").string(&self.policy.to_string());
        w.key("workers").uint(self.workers as u64);
        w.key("threads_run").uint(self.run.threads_run);
        w.key("bins_visited").uint(self.run.bins_visited as u64);
        w.key("steals_attempted").uint(total.steals_attempted);
        w.key("steals_succeeded").uint(total.steals_succeeded);
        w.key("makespan_units").uint(self.makespan_units);
        w.key("per_worker").array(|w| {
            for (i, worker) in self.per_worker.iter().enumerate() {
                w.object(|w| {
                    w.key("worker").uint(i as u64);
                    w.key("bins_executed").uint(worker.bins_executed);
                    w.key("threads_executed").uint(worker.threads_executed);
                    w.key("units").uint(worker.units);
                    w.key("steals_attempted").uint(worker.steals_attempted);
                    w.key("steals_succeeded").uint(worker.steals_succeeded);
                });
            }
        });
    }
}

/// A locality scheduler whose bins run on multiple workers.
///
/// # Examples
///
/// ```
/// use locality_sched::{Hints, ParScheduler, SchedulerConfig, StealPolicy};
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
/// let stats = sched.run(&ctx, 4, StealPolicy::LocalityAware);
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
    /// `policy`; `config` still supplies the hash-table size. Bins are
    /// partitioned in ready-list order.
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

    /// Splits the tour into `workers` contiguous deques balanced by
    /// thread count: worker w's segment ends once the cumulative thread
    /// count reaches w+1 fair shares.
    fn tour(&self, workers: usize) -> Tour {
        assert!(workers > 0, "need at least one worker");
        let order = self.engine.ready_bins();
        let keys = order.iter().map(|&id| self.engine.steal_key(id)).collect();
        let bins = self.engine.bins_slice();
        let total = self.engine.pending();
        let mut deques = vec![VecDeque::new(); workers];
        let (mut cum, mut w) = (0u64, 0usize);
        for (pos, &id) in order.iter().enumerate() {
            while w + 1 < workers && cum * workers as u64 >= (w as u64 + 1) * total {
                w += 1;
            }
            deques[w].push_back(pos as u32);
            cum += bins[id as usize].threads();
        }
        Tour {
            order,
            keys,
            deques,
        }
    }

    /// Runs and consumes every scheduled thread on `workers` OS
    /// threads, idle workers stealing per `policy`. Each bin is
    /// executed to completion by exactly one worker.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or propagates a panic from a thread
    /// body.
    pub fn run(&mut self, ctx: &C, workers: usize, policy: StealPolicy) -> RunStats {
        let Tour {
            order,
            keys,
            deques,
        } = self.tour(workers);
        let queues: Vec<WorkerQueue> = deques.into_iter().map(WorkerQueue::new).collect();
        let bins = self.engine.bins_slice();
        let run = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let (queues, order, keys) = (&queues, &order, &keys);
                    scope.spawn(move || worker_loop(me, queues, order, keys, bins, policy, ctx))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .fold(RunStats::default(), |sum, one| RunStats {
                    threads_run: sum.threads_run + one.threads_run,
                    bins_visited: sum.bins_visited + one.bins_visited,
                })
        });
        self.engine.clear();
        run
    }

    /// Consumes every scheduled thread like [`run`](ParScheduler::run),
    /// but in virtual time and without executing a body: a bin costs
    /// the sum of `cost(arg1, arg2)` over its threads. The idle worker
    /// with the lowest clock (ties to the lower id) pops its own front,
    /// or takes a steal step against the backlogs as they stand at that
    /// instant; a steal costs no time. A worker stops once its deque is
    /// empty and no victim has a backlog.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn replay(
        &mut self,
        workers: usize,
        policy: StealPolicy,
        cost: impl Fn(usize, usize) -> u64,
    ) -> ParRunReport {
        let Tour {
            order,
            keys,
            mut deques,
        } = self.tour(workers);
        let bins = self.engine.bins_slice();
        let unit_cost: Vec<u64> = order
            .iter()
            .map(|&id| {
                let items = bins[id as usize].items();
                items.iter().map(|spec| cost(spec.arg1, spec.arg2)).sum()
            })
            .collect();
        let mut schedule = ScheduleLog::new(workers as u32 + 1);
        for (w, deque) in deques.iter().enumerate() {
            if !deque.is_empty() {
                schedule.push(SchedEvent::Handoff {
                    from: 0,
                    to: w as u32 + 1,
                });
            }
        }
        // A worker's clock is its `units`: a steal costs no time.
        let mut per_worker = vec![WorkerStats::default(); workers];
        let mut current: Vec<Option<u32>> = vec![None; workers];
        let mut running = vec![false; workers];
        let mut active = vec![true; workers];
        let mut rngs: Vec<XorShift64> = (0..workers).map(XorShift64::for_worker).collect();
        while let Some(me) = (0..workers)
            .filter(|&w| active[w])
            .min_by_key(|&w| (per_worker[w].units, w))
        {
            let actor = me as u32 + 1;
            let stats = &mut per_worker[me];
            if std::mem::take(&mut running[me]) {
                let unit = current[me].expect("a running worker has a current unit");
                schedule.push(SchedEvent::DrainEnd { actor, unit });
            }
            if let Some(pos) = deques[me].pop_front() {
                schedule.push(SchedEvent::DrainBegin { actor, unit: pos });
                current[me] = Some(pos);
                running[me] = true;
                stats.units += unit_cost[pos as usize];
                stats.bins_executed += 1;
                stats.threads_executed += bins[order[pos as usize] as usize].threads();
                continue;
            }
            let backlogs: Vec<Option<Backlog>> = deques
                .iter()
                .zip(&current)
                .map(|(deque, &cur)| Backlog::of(deque, cur))
                .collect();
            let (victim, tried) = choose_victim(&backlogs, me, policy, &keys, &mut rngs[me]);
            stats.steals_attempted += tried;
            let Some(victim) = victim else {
                active[me] = false;
                continue;
            };
            let stolen = steal_half(&mut deques[victim]);
            stats.steals_succeeded += 1;
            schedule.push(SchedEvent::Steal {
                thief: actor,
                victim: victim as u32 + 1,
                units: u32::try_from(stolen.len()).expect("steal size fits u32"),
            });
            deques[me].extend(stolen);
        }
        schedule.push(SchedEvent::Barrier);
        self.engine.clear();
        let total: WorkerStats = per_worker.iter().copied().sum();
        ParRunReport {
            policy,
            workers,
            run: RunStats {
                threads_run: total.threads_executed,
                bins_visited: total.bins_executed as usize,
            },
            makespan_units: per_worker.iter().map(|w| w.units).max().unwrap_or(0),
            per_worker,
            schedule,
        }
    }
}

/// Sentinel for "this worker has not started a bin".
const NO_BIN: u32 = u32::MAX;

/// One OS worker's share of the tour: its deque of tour positions
/// (owner pops front, thieves split the back), plus the position it is
/// executing, published so locality-aware thieves can score it as a
/// victim. `current` may lag by one bin while the owner is between
/// pops; victim scoring tolerates that staleness.
struct WorkerQueue {
    deque: Mutex<VecDeque<u32>>,
    current: AtomicU32,
}

impl WorkerQueue {
    fn new(deque: VecDeque<u32>) -> Self {
        WorkerQueue {
            deque: Mutex::new(deque),
            current: AtomicU32::new(NO_BIN),
        }
    }

    fn backlog(&self) -> Option<Backlog> {
        let current = self.current.load(Ordering::Relaxed);
        let deque = self.deque.lock().expect("deque poisoned");
        Backlog::of(&deque, (current != NO_BIN).then_some(current))
    }
}

/// One OS worker: drain the own deque front-to-back; once empty, take
/// a steal step, or stop when no victim has a backlog (what is left is
/// in flight on other workers and cannot move). Returns what the worker
/// executed.
fn worker_loop<C: Sync>(
    me: usize,
    queues: &[WorkerQueue],
    order: &[BinId],
    keys: &[[u64; MAX_DIMS]],
    bins: &[Bin<ParSpec<C>>],
    policy: StealPolicy,
    ctx: &C,
) -> RunStats {
    let mut done = RunStats::default();
    let mut rng = XorShift64::for_worker(me);
    loop {
        let next = queues[me].deque.lock().expect("deque poisoned").pop_front();
        if let Some(pos) = next {
            queues[me].current.store(pos, Ordering::Relaxed);
            let bin = &bins[order[pos as usize] as usize];
            for spec in bin.items() {
                (spec.func)(ctx, spec.arg1, spec.arg2);
            }
            done.threads_run += bin.threads();
            done.bins_visited += 1;
            continue;
        }
        let backlogs: Vec<Option<Backlog>> = queues.iter().map(WorkerQueue::backlog).collect();
        let (Some(victim), _) = choose_victim(&backlogs, me, policy, keys, &mut rng) else {
            return done;
        };
        // The victim may have drained since the snapshot; then the next
        // step rescans (total work only shrinks, so this ends).
        let stolen = {
            let mut deque = queues[victim].deque.lock().expect("deque poisoned");
            if deque.is_empty() {
                continue;
            }
            steal_half(&mut deque)
        };
        queues[me]
            .deque
            .lock()
            .expect("deque poisoned")
            .extend(stolen);
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

    fn counters(n: usize) -> Counters {
        Counters {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// `threads` threads striped round-robin over `bins` bins.
    fn striped(threads: usize, bins: u64) -> ParScheduler<Counters> {
        let mut sched = ParScheduler::new(config());
        for i in 0..threads {
            let block = i as u64 % bins;
            sched.fork(bump, 0, 1, Hints::one(Addr::new(block * 1_000_000)));
        }
        sched
    }

    /// A replay charging every thread one unit.
    fn replay(
        sched: &mut ParScheduler<Counters>,
        workers: usize,
        policy: StealPolicy,
    ) -> ParRunReport {
        sched.replay(workers, policy, |_, _| 1)
    }

    #[test]
    fn steal_policy_displays_its_name() {
        assert_eq!(StealPolicy::default(), StealPolicy::LocalityAware);
        assert_eq!(StealPolicy::None.to_string(), "none");
        assert_eq!(StealPolicy::Random.to_string(), "random");
        assert_eq!(StealPolicy::LocalityAware.to_string(), "locality-aware");
    }

    #[test]
    fn locality_aware_steals_the_farthest_cold_end() {
        let keys: Vec<[u64; MAX_DIMS]> = (0..12).map(|pos| [pos, 0, 0, 0]).collect();
        let backlog = |front, back, current| {
            Some(Backlog {
                front,
                back,
                len: (back - front + 1) as usize,
                current,
            })
        };
        // Workers 1 and 3 both score 3 with 4 queued: the lower id wins.
        // Worker 2 has not started, so it anchors at its front (score 1).
        let mut backlogs = vec![
            None,
            backlog(1, 4, Some(1)),
            backlog(5, 6, None),
            backlog(8, 11, Some(8)),
        ];
        let mut rng = XorShift64::for_worker(0);
        let choose = |backlogs: &[Option<Backlog>], rng: &mut XorShift64| {
            choose_victim(backlogs, 0, StealPolicy::LocalityAware, &keys, rng)
        };
        assert_eq!(choose(&backlogs, &mut rng), (Some(1), 1));
        // The same score with a larger backlog wins the tie.
        backlogs[3] = backlog(7, 11, Some(8));
        assert_eq!(choose(&backlogs, &mut rng), (Some(3), 1));
        // Random finds the one backlog left, trying at most every other
        // worker; nobody to steal from is a failed scan of all three.
        backlogs = vec![None, None, backlog(5, 6, None), None];
        let (victim, tried) = choose_victim(&backlogs, 0, StealPolicy::Random, &keys, &mut rng);
        assert_eq!(victim, Some(2));
        assert!((1..=3).contains(&tried), "{tried}");
        backlogs[2] = None;
        let none = choose_victim(&backlogs, 0, StealPolicy::Random, &keys, &mut rng);
        assert_eq!(none, (None, 3));
        assert_eq!(choose(&backlogs, &mut rng), (None, 0));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "12 scheduler runs x 1000 forks is too slow under the interpreter"
    )]
    fn every_thread_runs_exactly_once_in_parallel() {
        for policy in StealPolicy::ALL {
            for workers in [1, 2, 4, 8] {
                let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
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
                let stats = sched.run(&ctx, workers, policy);
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
        for policy in StealPolicy::ALL {
            let mut sched: ParScheduler<OrderLog> = ParScheduler::new(config());
            for i in 0..6usize {
                let addr = if i % 2 == 0 { 0u64 } else { 1 << 30 };
                sched.fork(log_it, i, 0, Hints::one(Addr::new(addr)));
            }
            let ctx = OrderLog {
                order: std::sync::Mutex::new(Vec::new()),
            };
            sched.run(&ctx, 1, policy);
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
        for policy in StealPolicy::ALL {
            let bins = 16usize;
            let mut sched: ParScheduler<BinWorkers> = ParScheduler::new(config());
            for i in 0..800usize {
                let bin = i % bins;
                sched.fork(check, bin, 0, Hints::one(Addr::new(bin as u64 * 1_000_000)));
            }
            let ctx = BinWorkers {
                seen: (0..bins).map(|_| std::sync::Mutex::new(None)).collect(),
                violations: AtomicU64::new(0),
            };
            sched.run(&ctx, 4, policy);
            assert_eq!(ctx.violations.load(Ordering::Relaxed), 0, "{policy}");
        }
    }

    #[test]
    fn more_workers_than_bins_is_fine() {
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
        sched.fork(bump, 0, 5, Hints::none());
        let ctx = counters(1);
        let stats = sched.run(&ctx, 16, StealPolicy::default());
        assert_eq!(stats.threads_run, 1);
        assert_eq!(ctx.slots[0].load(Ordering::Relaxed), 5);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
        let ctx = counters(1);
        let _ = sched.run(&ctx, 0, StealPolicy::default());
    }

    #[test]
    fn report_counters_are_consistent() {
        for policy in StealPolicy::ALL {
            for workers in [1, 2, 4, 8] {
                let label = format!("{policy} workers={workers}");
                let report = replay(&mut striped(500, 32), workers, policy);
                assert_eq!(report.policy, policy);
                assert_eq!(report.workers, workers);
                assert_eq!(report.per_worker.len(), workers);
                assert_eq!(report.run.threads_run, 500);
                let total = report.total();
                assert_eq!(total.threads_executed, report.run.threads_run, "{label}");
                assert_eq!(total.bins_executed as usize, report.run.bins_visited);
                assert_eq!(total.units, 500, "one unit per thread: {label}");
                let busiest = report.per_worker.iter().map(|w| w.units).max();
                assert_eq!(busiest, Some(report.makespan_units), "{label}");
                for w in &report.per_worker {
                    assert!(w.steals_succeeded <= w.steals_attempted, "{label}: {w}");
                }
            }
        }
    }

    #[test]
    fn no_steals_under_none_policy() {
        let report = replay(&mut striped(400, 16), 4, StealPolicy::None);
        assert_eq!(report.total().steals_attempted, 0);
        assert_eq!(report.total().steals_succeeded, 0);
        // 16 equal bins over 4 workers: four each, 100 units apiece.
        assert_eq!(report.makespan_units, 100);
    }

    #[test]
    fn idle_workers_attempt_steals_under_random_policy() {
        // One bin, four workers: worker 0 runs it, and every worker
        // (worker 0 once the bin is done) tries all three victims once
        // before stopping.
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
        for _ in 0..50 {
            sched.fork(bump, 0, 1, Hints::none());
        }
        let report = replay(&mut sched, 4, StealPolicy::Random);
        assert_eq!(report.run.threads_run, 50);
        let attempts: Vec<u64> = report
            .per_worker
            .iter()
            .map(|w| w.steals_attempted)
            .collect();
        assert_eq!(attempts, [3, 3, 3, 3], "{}", report.to_json());
        assert_eq!(report.total().steals_succeeded, 0);
        assert_eq!(report.makespan_units, 50);
    }

    #[test]
    fn report_json_shape() {
        let report = replay(&mut striped(100, 8), 2, StealPolicy::LocalityAware);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"policy\":\"locality-aware\""), "{json}");
        assert!(json.contains("\"workers\":2"), "{json}");
        assert!(json.contains("\"threads_run\":100"), "{json}");
        assert!(json.contains("\"makespan_units\":"), "{json}");
        assert!(json.contains("\"per_worker\":[{\"worker\":0,"), "{json}");
        assert!(json.contains("\"worker\":1,"), "{json}");
        assert!(json.contains("\"units\":"), "{json}");
    }

    #[test]
    fn observed_schedule_log_is_well_formed() {
        // Every drain unit (tour position) appears as exactly one
        // DrainBegin/DrainEnd pair, ended before its worker's next step;
        // steal events match the success counters; the log ends in a
        // barrier; and a second replay gives the same bytes.
        use std::collections::BTreeMap;
        for policy in StealPolicy::ALL {
            for workers in [1, 2, 4, 8] {
                let label = format!("{policy}/{workers}");
                let report = replay(&mut striped(400, 16), workers, policy);
                let again = replay(&mut striped(400, 16), workers, policy);
                assert_eq!(report.schedule, again.schedule, "{label}");
                assert_eq!(report.schedule.digest(), again.schedule.digest());
                let log = &report.schedule;
                assert_eq!(log.actors, workers as u32 + 1, "{label}");
                assert_eq!(log.events.last(), Some(&SchedEvent::Barrier));
                let mut begun: BTreeMap<u32, u64> = BTreeMap::new();
                let mut open: BTreeMap<u32, u32> = BTreeMap::new();
                let mut steals = 0u64;
                for &event in &log.events {
                    match event {
                        SchedEvent::DrainBegin { actor, unit } => {
                            assert!(actor >= 1 && actor <= workers as u32);
                            assert_eq!(open.insert(actor, unit), None, "{label}");
                            *begun.entry(unit).or_default() += 1;
                        }
                        SchedEvent::DrainEnd { actor, unit } => {
                            assert_eq!(open.remove(&actor), Some(unit), "{label}");
                        }
                        SchedEvent::Steal {
                            thief,
                            victim,
                            units,
                        } => {
                            assert_ne!(thief, victim);
                            assert!(!open.contains_key(&thief), "{label}");
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
                assert!(open.is_empty(), "{label}: every unit ended");
                assert_eq!(begun.len(), 16, "{label}: all 16 bins drained");
                assert!(begun.values().all(|&n| n == 1), "{label}");
                assert_eq!(steals, report.total().steals_succeeded, "{label}");
            }
        }
    }

    #[test]
    fn contiguous_partition_balances_by_thread_count() {
        // 4 equal bins over 2 workers with stealing off: each worker
        // executes exactly 2 bins / half the threads.
        let mut sched: ParScheduler<Counters> = ParScheduler::new(config());
        for bin in 0..4u64 {
            for _ in 0..25 {
                sched.fork(bump, 0, 1, Hints::one(Addr::new(bin * 1_000_000)));
            }
        }
        let report = replay(&mut sched, 2, StealPolicy::None);
        for w in &report.per_worker {
            assert_eq!(w.bins_executed, 2, "{}", report.to_json());
            assert_eq!(w.threads_executed, 50, "{}", report.to_json());
        }
    }
}
