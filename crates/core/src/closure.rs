//! An ergonomic closure-based front end to the locality scheduler: the
//! shared [`BinEngine`] over take-once cells of boxed bodies.

use crate::engine::BinEngine;
use crate::policy::PaperBlockHash;
use crate::stats::{RunStats, SchedulerStats};
use crate::{Hints, RunMode, SchedulerConfig};
use std::cell::Cell;

/// A boxed `FnOnce` body. The engine drains its records by reference,
/// so running one takes it out of its cell.
type Body<'scope> = Cell<Option<Box<dyn FnOnce() + 'scope>>>;

/// A locality scheduler whose threads are boxed closures.
///
/// The function-pointer [`Scheduler`](crate::Scheduler) mirrors the
/// paper's three-word thread records and is what the benchmarks use;
/// `ClosureScheduler` trades one heap allocation per thread for the
/// convenience of captures, which suits coarse-grained uses where
/// thread bodies are not a single hot loop.
///
/// Because closures are `FnOnce`, the paper's `th_run(keep)`
/// re-execution mode is not available: [`run`](ClosureScheduler::run)
/// always consumes the schedule.
///
/// # Examples
///
/// ```
/// use locality_sched::{Addr, ClosureScheduler, Hints, SchedulerConfig};
/// use std::cell::RefCell;
///
/// let results = RefCell::new(Vec::new());
/// let mut sched = ClosureScheduler::new(SchedulerConfig::default());
/// for i in 0..3usize {
///     let results = &results;
///     sched.fork(Hints::one(Addr::new(i as u64 * 4096)), move || {
///         results.borrow_mut().push(i);
///     });
/// }
/// let stats = sched.run();
/// assert_eq!(stats.threads_run, 3);
/// drop(sched); // release the closures' borrow
/// assert_eq!(results.into_inner().len(), 3);
/// ```
pub struct ClosureScheduler<'scope> {
    config: SchedulerConfig,
    engine: BinEngine<Body<'scope>, PaperBlockHash>,
}

impl<'scope> ClosureScheduler<'scope> {
    /// Creates an empty closure scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        ClosureScheduler {
            engine: BinEngine::new(
                config.hash_size(),
                config.tour(),
                PaperBlockHash::from_config(&config),
            ),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Creates and schedules a thread running `body`, binned by
    /// `hints`.
    pub fn fork(&mut self, hints: Hints, body: impl FnOnce() + 'scope) {
        let body: Body<'scope> = Cell::new(Some(Box::new(body)));
        self.engine
            .insert_traced(body, hints, &mut memtrace::NullSink);
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

    /// Runs and consumes every scheduled thread in tour order.
    pub fn run(&mut self) -> RunStats {
        self.engine.run_with(
            &mut (),
            RunMode::Consume,
            |_, _, _| {},
            |_, _| {},
            |_, body| {
                if let Some(body) = body.take() {
                    body();
                }
            },
        )
    }
}

impl std::fmt::Debug for ClosureScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureScheduler")
            .field("config", &self.config)
            .field("threads", &self.engine.pending())
            .field("bins", &self.engine.bins())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheduler, Tour};
    use memtrace::Addr;
    use std::cell::RefCell;

    fn config(block: u64) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(block)
            .build()
            .unwrap()
    }

    #[test]
    fn closures_run_once_each() {
        let log = RefCell::new(Vec::new());
        let mut sched = ClosureScheduler::new(config(1024));
        for i in 0..25usize {
            let log = &log;
            sched.fork(Hints::one(Addr::new(i as u64 * 500)), move || {
                log.borrow_mut().push(i);
            });
        }
        assert_eq!(sched.pending(), 25);
        let stats = sched.run();
        assert_eq!(stats.threads_run, 25);
        assert_eq!(sched.pending(), 0);
        drop(sched); // release the closures' borrow of `log`
        let mut seen = log.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn binning_matches_fn_pointer_scheduler() {
        let mut sched = ClosureScheduler::new(config(1024));
        // Two hints in the same 1024-byte block, one in another.
        sched.fork(Hints::one(Addr::new(0)), || {});
        sched.fork(Hints::one(Addr::new(1000)), || {});
        sched.fork(Hints::one(Addr::new(5000)), || {});
        assert_eq!(sched.bins(), 2);
        let stats = sched.stats();
        assert_eq!(stats.max_threads_per_bin(), 2);

        // Same engine, same tour: the run order is the function-pointer
        // scheduler's.
        fn record(log: &mut Vec<usize>, i: usize, _: usize) {
            log.push(i);
        }
        for tour in [Tour::SortedKey, Tour::Hilbert] {
            let cfg = SchedulerConfig::builder()
                .block_size(1024)
                .tour(tour)
                .build()
                .unwrap();
            let log = RefCell::new(Vec::new());
            let mut closures = ClosureScheduler::new(cfg);
            let mut pointers = Scheduler::<Vec<usize>>::new(cfg);
            for i in 0..200usize {
                let a = Addr::new((i as u64 * 7919) % (1 << 16));
                let b = Addr::new((i as u64 * 104_729) % (1 << 16));
                let log = &log;
                closures.fork(Hints::two(a, b), move || log.borrow_mut().push(i));
                pointers.fork(record, i, 0, Hints::two(a, b));
            }
            let mut expect = Vec::new();
            assert_eq!(
                closures.run(),
                pointers.run(&mut expect, RunMode::Consume),
                "{tour:?}"
            );
            drop(closures); // release the closures' borrow of `log`
            assert_eq!(log.into_inner(), expect, "{tour:?}");
        }
    }

    #[test]
    fn same_bin_runs_adjacent() {
        let log = RefCell::new(Vec::new());
        let mut sched = ClosureScheduler::new(config(1024));
        for i in 0..6usize {
            let log = &log;
            // Even i -> block 0, odd i -> far block.
            let addr = if i % 2 == 0 { 0 } else { 1 << 24 };
            sched.fork(Hints::one(Addr::new(addr)), move || {
                log.borrow_mut().push(i);
            });
        }
        sched.run();
        drop(sched); // release the closures' borrow of `log`
        let order = log.into_inner();
        assert_eq!(order, vec![0, 2, 4, 1, 3, 5]);
    }

    #[test]
    fn empty_run_is_noop() {
        let mut sched = ClosureScheduler::new(SchedulerConfig::default());
        let stats = sched.run();
        assert_eq!(stats.threads_run, 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let sched = ClosureScheduler::new(SchedulerConfig::default());
        assert!(format!("{sched:?}").contains("ClosureScheduler"));
    }
}
