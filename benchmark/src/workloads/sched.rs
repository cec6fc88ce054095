//! `sched_null`: fork and run counter-incrementing threads — Table 1's
//! null-thread cost. Core does all the work and no other layer runs, so
//! a simulator change must not move it.

use super::XorShift;
use crate::harness::{Checks, Metrics, Workload, TRACE_REPS};
use crate::span::Tracer;
use locality_sched::{
    Addr, BinPolicy, FifoScheduler, Hierarchical, Hints, RunMode, Scheduler, SchedulerConfig,
    ThreadScheduler, TopologyPolicy,
};

pub struct Null;

/// Forks follow a matmul-shaped loop nest, `th_fork(f, i, j, &A[0,i],
/// &B[0,j])` for `i, j < SIDE`: 262,144 threads per round, four times
/// the default-scale matmul's. (Two million per round, Table 1's scale,
/// stream 80 MB through the host's shared cache, and co-tenants of the
/// reference host then move the run by up to 16%.)
const SIDE: usize = 512;
const THREADS_PER_ROUND: usize = SIDE * SIDE;
const ROUNDS: usize = 32;
/// Hint blocks per dimension: 64 × 64 = 4096 bins under the flat policy.
const BLOCKS_PER_DIM: u64 = 64;
/// The nested policies split every block into 4 × 4 sub-bins.
const SUB_BLOCKS_PER_DIM: u64 = 4;

pub struct NullInput {
    config: SchedulerConfig,
    /// Two hint addresses per thread, spread over the bin grid.
    hints: Vec<(u64, u64)>,
}

/// The scheduling context: the counter every thread increments.
type Counter = u64;

fn bump(counter: &mut Counter, _arg1: usize, _arg2: usize) {
    *counter += 1;
}

#[derive(Debug, PartialEq)]
pub struct NullOut {
    counter: u64,
    threads_run: u64,
    pending: u64,
}

fn fork_all<S: ThreadScheduler<Counter>>(sched: &mut S, hints: &[(u64, u64)]) {
    for (i, &(a, b)) in hints.iter().enumerate() {
        sched.fork(bump, i, 0, Hints::two(Addr::new(a), Addr::new(b)));
    }
}

/// Fork + run of one round through `sched`, `TRACE_REPS` times inside
/// `name` spans; returns the fastest, in nanoseconds per thread.
fn ns_per_thread(
    name: &'static str,
    hints: &[(u64, u64)],
    tracer: &mut Tracer,
    checks: &mut Checks,
    mut fork_and_run: impl FnMut(&[(u64, u64)]) -> u64,
) -> f64 {
    for rep in 0..TRACE_REPS {
        tracer.set_rep(rep);
        let (ran, _) = tracer.time(name, || fork_and_run(hints));
        checks.check(ran == hints.len() as u64, || {
            format!("{name}: {ran} of {} threads ran", hints.len())
        });
    }
    1e9 * tracer.summary_s(name).map_or(0.0, |s| s.min) / hints.len() as f64
}

fn batch_round<S: ThreadScheduler<Counter>>(mut sched: S, hints: &[(u64, u64)]) -> u64 {
    let mut counter = 0;
    fork_all(&mut sched, hints);
    sched.run(&mut counter, RunMode::Consume);
    counter
}

fn nested_round<P: BinPolicy>(config: SchedulerConfig, policy: P, hints: &[(u64, u64)]) -> u64 {
    batch_round(Scheduler::<Counter, P>::with_policy(config, policy), hints)
}

impl Workload for Null {
    type Input = NullInput;
    type Output = NullOut;

    fn setup(seed: u64) -> NullInput {
        let config = SchedulerConfig::default();
        // Two "matrices" of SIDE columns, each spanning BLOCKS_PER_DIM
        // blocks; the seed places them and sets the column pitch, so
        // which columns share a bin differs from seed to seed.
        let extent = BLOCKS_PER_DIM * config.block_size(0);
        let mut rng = XorShift::new(seed);
        let mut matrix = || {
            let base = extent * (1 + rng.next() % 8);
            let pitch = extent / SIDE as u64 - rng.next() % 64;
            move |col: usize| base + col as u64 * pitch
        };
        let (a, b) = (matrix(), matrix());
        let hints = (0..SIDE).flat_map(|i| (0..SIDE).map(move |j| (i, j)));
        NullInput {
            config,
            hints: hints.map(|(i, j)| (a(i), b(j))).collect(),
        }
    }

    fn rep(input: &mut NullInput, tracer: &mut Tracer) -> NullOut {
        let mut sched = Scheduler::<Counter>::new(input.config);
        let mut counter = 0;
        let mut threads_run = 0;
        for _ in 0..ROUNDS {
            tracer.time("rep.fork", || fork_all(&mut sched, &input.hints));
            let (stats, _) = tracer.time("rep.run", || sched.run(&mut counter, RunMode::Consume));
            threads_run += stats.threads_run;
        }
        NullOut {
            counter,
            threads_run,
            pending: sched.pending(),
        }
    }

    fn ops(output: &NullOut) -> u64 {
        output.threads_run
    }

    fn simulated(_output: &NullOut, _metrics: &mut Metrics) {}

    fn check(_input: &mut NullInput, output: &NullOut, checks: &mut Checks) {
        let forked = (ROUNDS * THREADS_PER_ROUND) as u64;
        checks.check(output.counter == forked, || {
            format!(
                "counter is {}, {forked} threads were forked",
                output.counter
            )
        });
        checks.check(output.threads_run == forked, || {
            format!("{} threads ran, {forked} were forked", output.threads_run)
        });
        checks.check(output.pending == 0, || {
            format!(
                "{} threads still pending after the last run",
                output.pending
            )
        });
    }

    fn layers(
        input: &mut NullInput,
        _output: &NullOut,
        _rep_s: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) {
        let hints = input.hints.as_slice();
        let per_thread = |secs: f64| 1e9 * secs / hints.len() as f64;
        let fork_s = tracer.summary_s("rep.fork");
        let run_s = tracer.summary_s("rep.run");
        metrics.set_fastest("core.fork_s", fork_s);
        metrics.set_fastest("core.run_s", run_s);
        metrics.set(
            "core.fork_ns_per_thread",
            per_thread(fork_s.map_or(0.0, |s| s.min)),
        );
        metrics.set(
            "core.run_ns_per_thread",
            per_thread(run_s.map_or(0.0, |s| s.min)),
        );

        let mut sched = Scheduler::<Counter>::new(input.config);
        fork_all(&mut sched, hints);
        let stats = sched.stats();
        metrics.set("core.threads", stats.threads() as f64);
        metrics.set("core.bins", stats.bins() as f64);
        metrics.set("core.threads_per_bin_mean", stats.avg_threads_per_bin());
        metrics.set("core.bin_size_cv", stats.bin_size_cv());
        drop(sched);

        // The same forks through the other front ends of the bin engine;
        // each differs from fork + run above by one mechanism.
        let config = input.config;
        let fifo = ns_per_thread("core.fifo", hints, tracer, checks, |hints| {
            batch_round(FifoScheduler::new(), hints)
        });
        metrics.set("core.fifo_ns_per_thread", fifo);
        let online = ns_per_thread("core.online", hints, tracer, checks, |hints| {
            let mut sched = Scheduler::<Counter>::new(config);
            sched.enable_online();
            fork_all(&mut sched, hints);
            let mut counter = 0;
            while sched.drain_next(&mut counter).is_some() {}
            counter
        });
        metrics.set("core.online_ns_per_thread", online);
        let block = config.block_size(0);
        let sub_block = block / SUB_BLOCKS_PER_DIM;
        let hierarchical = Hierarchical::uniform(sub_block, block, false)
            .expect("power-of-two blocks, finer first");
        let hier = ns_per_thread("core.hier", hints, tracer, checks, |hints| {
            nested_round(config, hierarchical, hints)
        });
        metrics.set("core.hier_ns_per_thread", hier);
        let topology = TopologyPolicy::uniform(&[sub_block, block], false)
            .expect("power-of-two blocks, finer first");
        let topo = ns_per_thread("core.topology", hints, tracer, checks, |hints| {
            nested_round(config, topology, hints)
        });
        metrics.set("core.topology_ns_per_thread", topo);
    }
}
