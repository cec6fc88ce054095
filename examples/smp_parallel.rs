//! The paper's SMP future work, demonstrated: locality bins double as
//! cache-affinity work units for multiple cores. Each worker claims
//! whole bins, so a bin's cache-sized working set is loaded into one
//! core's cache exactly once, and an idle worker steals the cold half
//! of the backlog farthest from its owner's current bin.
//!
//! Run with: `cargo run --release --example smp_parallel`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use thread_locality::sched::{Hints, ParScheduler, SchedulerConfig, StealPolicy};
use thread_locality::trace::{AddressSpace, MatrixLayout, TracedMatrix};

/// Shared context: read-only operand matrices plus an atomic output
/// (f64 bit-patterns), so dot-product threads write disjoint cells
/// without locks.
struct MatMulCtx {
    at: TracedMatrix,
    b: TracedMatrix,
    c: Vec<AtomicU64>,
    n: usize,
}

fn dot_product(ctx: &MatMulCtx, i: usize, j: usize) {
    let mut acc = 0.0f64;
    for k in 0..ctx.n {
        acc += ctx.at.at(k, i) * ctx.b.at(k, j);
    }
    ctx.c[j * ctx.n + i].store(acc.to_bits(), Ordering::Relaxed);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 640;
    let mut space = AddressSpace::new();
    let at = TracedMatrix::from_fn(&mut space, n, n, MatrixLayout::ColMajor, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 97.0
    });
    let b = TracedMatrix::from_fn(&mut space, n, n, MatrixLayout::ColMajor, |i, j| {
        ((i * 13 + j * 41) % 89) as f64 / 89.0
    });
    let ctx = MatMulCtx {
        at,
        b,
        c: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        n,
    };

    // Block = half of a typical 2 MB L2, 2-D hints on the columns.
    let config = SchedulerConfig::for_cache(2 << 20, 2)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "parallel threaded matmul, n = {n}, {} threads ({} core(s) available —\nspeedup is bounded by that)\n",
        n * n,
        cores
    );
    println!("{:>8}  {:>10}  {:>8}", "workers", "wall time", "speedup");

    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let mut sched: ParScheduler<MatMulCtx> = ParScheduler::new(config);
        for i in 0..n {
            for j in 0..n {
                sched.fork(
                    dot_product,
                    i,
                    j,
                    Hints::two(ctx.at.col_addr(i), ctx.b.col_addr(j)),
                );
            }
        }
        let start = Instant::now();
        let stats = sched.run(&ctx, workers, StealPolicy::LocalityAware);
        let elapsed = start.elapsed();
        assert_eq!(stats.threads_run, (n * n) as u64);
        let base = *baseline.get_or_insert(elapsed.as_secs_f64());
        println!(
            "{workers:>8}  {:>9.3}s  {:>7.2}x",
            elapsed.as_secs_f64(),
            base / elapsed.as_secs_f64()
        );
    }

    // Verify one output cell against a direct dot product.
    let check = f64::from_bits(ctx.c[5 * n + 3].load(Ordering::Relaxed));
    let mut expect = 0.0;
    for k in 0..n {
        expect += ctx.at.at(k, 3) * ctx.b.at(k, 5);
    }
    assert_eq!(check, expect);
    println!("\nresult verified; bins served as per-core affinity units.");
    Ok(())
}
