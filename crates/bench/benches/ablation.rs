//! Ablations of the scheduler's design choices (DESIGN.md §4): bin
//! tour and symmetric-hint folding — measured as host wall-clock of
//! fork+run over a realistic hint distribution. (`hash_size` is the
//! traced table's geometry and has no host effect to sweep.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use locality_sched::{Hints, RunMode, Scheduler, SchedulerConfig, Tour};

fn null_thread(_ctx: &mut (), _a: usize, _b: usize) {}

const THREADS: u64 = 65_536;

/// Matmul-shaped hints: a 256x256 grid of column-address pairs.
fn grid_hints(i: u64) -> Hints {
    let col = 8u64 << 10;
    let a = 0x1000_0000 + (i % 256) * col;
    let b = 0x2000_0000 + ((i / 256) % 256) * col;
    Hints::two(a.into(), b.into())
}

fn fork_run(config: SchedulerConfig) -> u64 {
    let mut sched = Scheduler::<()>::new(config);
    for i in 0..THREADS {
        sched.fork(null_thread, i as usize, 0, grid_hints(i));
    }
    sched.run(&mut (), RunMode::Consume).threads_run
}

fn bench_tours(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-tour");
    group.throughput(Throughput::Elements(THREADS));
    group.sample_size(10);
    for (name, tour) in [
        ("allocation-order", Tour::AllocationOrder),
        ("sorted-key", Tour::SortedKey),
        ("hilbert", Tour::Hilbert),
        ("morton", Tour::Morton),
        ("random", Tour::Random(7)),
    ] {
        group.bench_function(name, |b| {
            let config = SchedulerConfig::builder()
                .block_size(1 << 20)
                .tour(tour)
                .build()
                .expect("valid config");
            b.iter(|| fork_run(config));
        });
    }
    group.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-symmetric");
    group.throughput(Throughput::Elements(THREADS));
    group.sample_size(10);
    for (name, symmetric) in [("off", false), ("on", true)] {
        group.bench_function(name, |b| {
            let config = SchedulerConfig::builder()
                .block_size(1 << 20)
                .symmetric(symmetric)
                .build()
                .expect("valid config");
            b.iter(|| fork_run(config));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tours, bench_symmetric);
criterion_main!(benches);
