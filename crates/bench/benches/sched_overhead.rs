//! Wall-clock thread-package overhead on the host — the Criterion
//! counterpart of Table 1's micro-benchmark.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use locality_sched::{FifoScheduler, Hints, RunMode, Scheduler, SchedulerConfig, ThreadScheduler};

fn null_thread(_ctx: &mut (), _a: usize, _b: usize) {}

const THREADS: u64 = 65_536;

fn uniform_hints(i: u64) -> Hints {
    let block = 1u64 << 20;
    Hints::two(((i % 16) * block).into(), (((i / 16) % 16) * block).into())
}

fn bench_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork");
    group.throughput(Throughput::Elements(THREADS));
    group.sample_size(10);

    group.bench_function("locality", |b| {
        let config = SchedulerConfig::default();
        b.iter_batched(
            || Scheduler::<()>::new(config),
            |mut sched| {
                for i in 0..THREADS {
                    sched.fork(null_thread, i as usize, 0, uniform_hints(i));
                }
                sched
            },
            BatchSize::LargeInput,
        );
    });

    group.bench_function("fifo-baseline", |b| {
        b.iter_batched(
            FifoScheduler::<()>::new,
            |mut sched| {
                for i in 0..THREADS {
                    ThreadScheduler::fork(&mut sched, null_thread, i as usize, 0, uniform_hints(i));
                }
                sched
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_fork_and_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork+run");
    group.throughput(Throughput::Elements(THREADS));
    group.sample_size(10);

    group.bench_function("fork+run", |b| {
        let config = SchedulerConfig::default();
        b.iter(|| {
            let mut sched = Scheduler::<()>::new(config);
            for i in 0..THREADS {
                sched.fork(null_thread, i as usize, 0, uniform_hints(i));
            }
            sched.run(&mut (), RunMode::Consume)
        });
    });

    group.bench_function("run-only-retained", |b| {
        let config = SchedulerConfig::default();
        let mut sched = Scheduler::<()>::new(config);
        for i in 0..THREADS {
            sched.fork(null_thread, i as usize, 0, uniform_hints(i));
        }
        b.iter(|| sched.run(&mut (), RunMode::Retain));
    });
    group.finish();
}

criterion_group!(benches, bench_fork, bench_fork_and_run);
criterion_main!(benches);
