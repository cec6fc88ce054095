//! Wall-clock work-stealing throughput: every `StealPolicy` at several
//! worker counts, on the same windowed-sum workload as the steal
//! ablation (`repro steal`) — triangular per-thread
//! cost, so the static thread-count-balanced partition misjudges work
//! and stealing has a tail to absorb.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use locality_sched::{Hints, ParScheduler, SchedulerConfig, StealPolicy};
use std::sync::atomic::{AtomicU64, Ordering};

const BINS: usize = 48;
const THREADS_PER_BIN: usize = 8;
const WINDOW: usize = 512;
const PASSES_SCALE: usize = 2;
const BLOCK: u64 = 4096;

struct Ctx {
    data: Vec<f64>,
    passes: Vec<usize>,
    out: Vec<AtomicU64>,
}

fn windowed_sum(ctx: &Ctx, thread: usize, bin: usize) {
    let window = &ctx.data[bin * WINDOW..(bin + 1) * WINDOW];
    let mut acc = 0.0f64;
    for _ in 0..ctx.passes[bin] {
        for &x in window {
            acc += x;
        }
    }
    ctx.out[thread].store(acc.to_bits(), Ordering::Relaxed);
}

fn build_ctx() -> Ctx {
    Ctx {
        data: (0..BINS * WINDOW).map(|i| (i % 97) as f64 * 0.5).collect(),
        passes: (0..BINS).map(|b| (b + 1) * PASSES_SCALE).collect(),
        out: (0..BINS * THREADS_PER_BIN)
            .map(|_| AtomicU64::new(0))
            .collect(),
    }
}

fn forked(policy: StealPolicy) -> ParScheduler<Ctx> {
    let config = SchedulerConfig::builder()
        .block_size(BLOCK)
        .steal_policy(policy)
        .build()
        .expect("power-of-two block");
    let mut sched = ParScheduler::new(config);
    let mut thread = 0usize;
    for bin in 0..BINS {
        for _ in 0..THREADS_PER_BIN {
            sched.fork(
                windowed_sum,
                thread,
                bin,
                Hints::one((bin as u64 * BLOCK).into()),
            );
            thread += 1;
        }
    }
    sched
}

fn bench_steal(c: &mut Criterion) {
    let ctx = build_ctx();
    let threads = (BINS * THREADS_PER_BIN) as u64;
    let mut group = c.benchmark_group("sched_steal");
    group.throughput(Throughput::Elements(threads));
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        for (name, policy) in [
            ("none", StealPolicy::None),
            ("random", StealPolicy::Random),
            ("locality", StealPolicy::LocalityAware),
        ] {
            group.bench_function(format!("{name}/w{workers}"), |b| {
                b.iter_batched(
                    || forked(policy),
                    |mut sched| {
                        let stats = sched.run(&ctx, workers);
                        assert_eq!(stats.threads_run, threads);
                        stats
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_steal);
criterion_main!(benches);
