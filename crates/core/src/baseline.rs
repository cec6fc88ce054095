//! Baseline schedulers for comparison experiments.
//!
//! Both baselines are the locality [`Scheduler`] under a degenerate
//! policy — type aliases with their own constructors, not wrappers:
//!
//! * [`FifoScheduler`] = [`SingleBin`] policy (every thread in one
//!   bin) → fork order.
//! * [`RandomScheduler`] = [`UniqueBin`] policy (every thread in its
//!   own bin) + a shuffled batch bin order → a seeded per-thread
//!   shuffle, bit-identical to the pre-refactor implementation (both
//!   shuffle `0..n` with `SmallRng::seed_from_u64(seed)`).

use crate::policy::{SingleBin, UniqueBin};
use crate::{Scheduler, SchedulerConfig};

/// The baselines' configuration: neither ever looks a key up (one bin,
/// or append-only unique bins), so the traced package's table is a
/// single bucket.
fn baseline_config() -> SchedulerConfig {
    SchedulerConfig::builder()
        .hash_size(1)
        .build()
        .expect("hash size 1 is valid")
}

/// A scheduler that ignores hints and runs threads in fork (FIFO)
/// order.
///
/// Running a threaded program under `FifoScheduler` reproduces the
/// memory-reference order of the original loop nest (plus thread
/// overhead); it is the "what does binning buy over doing nothing"
/// baseline of the comparison experiments.
///
/// # Examples
///
/// ```
/// use locality_sched::{FifoScheduler, Hints, RunMode, ThreadScheduler};
///
/// fn body(out: &mut Vec<usize>, i: usize, _j: usize) { out.push(i); }
///
/// let mut sched = FifoScheduler::new();
/// for i in 0..3 {
///     sched.fork(body, i, 0, Hints::none());
/// }
/// let mut out = Vec::new();
/// sched.run(&mut out, RunMode::Consume);
/// assert_eq!(out, vec![0, 1, 2]);
/// ```
pub type FifoScheduler<C> = Scheduler<C, SingleBin>;

impl<C> FifoScheduler<C> {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        Scheduler::with_policy(baseline_config(), SingleBin)
    }
}

impl<C> Default for FifoScheduler<C> {
    fn default() -> Self {
        FifoScheduler::new()
    }
}

/// A scheduler that ignores hints and runs threads in seeded random
/// order — the adversarial locality baseline (any reference locality in
/// fork order is destroyed).
///
/// The seed shuffles a copy of the ready list for each batch
/// [`run`](Scheduler::run), and nothing else. Every thread is its own
/// drain unit on that list, so
/// [`drain_next`](Scheduler::drain_next) hands them out in fork order.
pub type RandomScheduler<C> = Scheduler<C, UniqueBin>;

impl<C> RandomScheduler<C> {
    /// Creates an empty random scheduler with the given shuffle seed.
    pub fn new(seed: u64) -> Self {
        Scheduler::shuffled(baseline_config(), UniqueBin::default(), Some(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hints, RunMode};
    use memtrace::Addr;

    type Log = Vec<usize>;

    fn body(log: &mut Log, i: usize, _j: usize) {
        log.push(i);
    }

    #[test]
    fn fifo_preserves_fork_order() {
        let mut sched: FifoScheduler<Log> = FifoScheduler::new();
        for i in 0..20 {
            sched.fork(body, i, 0, Hints::one(Addr::new(i as u64 * 1_000_000)));
        }
        assert_eq!(sched.pending(), 20);
        let mut log = Log::new();
        let stats = sched.run(&mut log, RunMode::Consume);
        assert_eq!(stats.threads_run, 20);
        assert_eq!(log, (0..20).collect::<Vec<_>>());
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn fifo_retain_re_runs() {
        let mut sched: FifoScheduler<Log> = FifoScheduler::new();
        sched.fork(body, 1, 0, Hints::none());
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Retain);
        sched.run(&mut log, RunMode::Consume);
        assert_eq!(log, vec![1, 1]);
    }

    #[test]
    fn random_runs_all_threads_permuted() {
        let mut sched: RandomScheduler<Log> = RandomScheduler::new(99);
        for i in 0..100 {
            sched.fork(body, i, 0, Hints::none());
        }
        let mut log = Log::new();
        let stats = sched.run(&mut log, RunMode::Consume);
        assert_eq!(stats.threads_run, 100);
        let mut sorted = log.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(log, sorted, "a 100-element shuffle is ordered w.p. 1/100!");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a_log = Log::new();
        let mut b_log = Log::new();
        for log in [&mut a_log, &mut b_log] {
            let mut sched: RandomScheduler<Log> = RandomScheduler::new(7);
            for i in 0..50 {
                sched.fork(body, i, 0, Hints::none());
            }
            sched.run(log, RunMode::Consume);
        }
        assert_eq!(a_log, b_log);
    }

    /// Execution orders captured from the pre-refactor
    /// `RandomScheduler` (which shuffled thread indices directly):
    /// the engine-based scheduler must reproduce them bit-identically.
    #[test]
    fn random_order_matches_pre_refactor_golden() {
        #[rustfmt::skip]
        let goldens: [(u64, usize, &[usize]); 6] = [
            (7, 16, &[15, 12, 14, 6, 9, 3, 1, 5, 0, 8, 7, 10, 2, 4, 11, 13]),
            (42, 16, &[3, 1, 10, 0, 9, 2, 13, 7, 6, 14, 5, 11, 4, 12, 8, 15]),
            (99, 16, &[1, 7, 5, 0, 11, 10, 9, 12, 13, 6, 3, 14, 8, 2, 15, 4]),
            (7, 33, &[8, 13, 16, 28, 23, 30, 7, 11, 25, 2, 9, 12, 4, 22, 18, 14, 10, 1, 29, 19, 5, 31, 0, 27, 15, 24, 3, 21, 32, 6, 17, 20, 26]),
            (42, 33, &[5, 7, 19, 8, 10, 15, 6, 23, 3, 2, 24, 11, 30, 27, 31, 14, 13, 25, 0, 9, 12, 1, 22, 29, 20, 16, 28, 21, 26, 32, 18, 17, 4]),
            (99, 33, &[31, 7, 20, 0, 28, 24, 13, 15, 32, 19, 16, 2, 17, 12, 11, 18, 23, 27, 9, 25, 4, 5, 8, 29, 26, 22, 14, 10, 30, 1, 3, 6, 21]),
        ];
        for (seed, n, golden) in goldens {
            let mut sched: RandomScheduler<Log> = RandomScheduler::new(seed);
            for i in 0..n {
                sched.fork(body, i, 0, Hints::none());
            }
            let mut log = Log::new();
            sched.run(&mut log, RunMode::Consume);
            assert_eq!(log, golden, "seed={seed} n={n}");
        }
    }

    /// The seed shuffles the batch run only: online, the ready list
    /// hands threads out in fork order.
    #[test]
    fn random_online_drains_in_fork_order() {
        let mut sched: RandomScheduler<Log> = RandomScheduler::new(7);
        for i in 0..16 {
            sched.fork(body, i, 0, Hints::none());
        }
        let mut log = Log::new();
        while let Some(stats) = sched.drain_next(&mut log) {
            assert_eq!(stats.threads_run, 1);
        }
        assert_eq!(log, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_baselines_are_noops() {
        let mut log = Log::new();
        let mut fifo: FifoScheduler<Log> = FifoScheduler::default();
        assert_eq!(fifo.run(&mut log, RunMode::Consume).bins_visited, 0);
        let mut random: RandomScheduler<Log> = RandomScheduler::new(0);
        assert_eq!(random.run(&mut log, RunMode::Consume).threads_run, 0);
    }
}
