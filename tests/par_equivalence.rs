//! Differential testing: for order-independent workloads, a parallel
//! schedule must compute *bit-identical* results to the sequential
//! locality schedule, for every worker count and steal policy.
//!
//! The three kernels here (blocked matmul, Jacobi SOR, direct N-body)
//! are deliberately self-contained rather than reusing `apps::*`: the
//! library's SOR is Gauss–Seidel (order-dependent by design), while
//! these kernels give every thread a read-only input and a disjoint
//! output cell, so *any* execution order — sequential tour order, or
//! workers racing and stealing bins from each other — must produce the
//! same IEEE-754 bits. Each thread's internal summation order is fixed
//! by its own loop, so there is no floating-point reassociation to
//! forgive: the comparison is `f64::to_bits` equality, not epsilon.

use std::cell::UnsafeCell;
use thread_locality::sched::{
    FifoScheduler, Hints, ParScheduler, RandomScheduler, RunMode, Scheduler, SchedulerConfig,
    StealPolicy, ThreadScheduler,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [StealPolicy; 3] = [
    StealPolicy::None,
    StealPolicy::Random,
    StealPolicy::LocalityAware,
];

/// One output cell that parallel workers may write without holding a
/// lock.
///
/// SAFETY contract: every cell is written by at most one thread per
/// run (each scheduled thread owns a distinct index — the property the
/// suite's `threads_run` assertions and `properties.rs` pin down), and
/// no cell is read until `ParScheduler::run` has joined all workers.
#[repr(transparent)]
struct SyncCell(UnsafeCell<f64>);

unsafe impl Sync for SyncCell {}

impl SyncCell {
    fn set(&self, v: f64) {
        // SAFETY: per the type contract, no other thread accesses this
        // cell concurrently.
        unsafe { *self.0.get() = v }
    }

    fn get(&self) -> f64 {
        // SAFETY: only called after the run joined every worker.
        unsafe { *self.0.get() }
    }
}

fn cells(n: usize) -> Vec<SyncCell> {
    (0..n).map(|_| SyncCell(UnsafeCell::new(0.0))).collect()
}

fn config(policy: StealPolicy) -> SchedulerConfig {
    SchedulerConfig::builder()
        .block_size(4096)
        .steal_policy(policy)
        .build()
        .expect("power-of-two block")
}

fn assert_bits_eq(kernel: &str, seq: &[f64], par: &[f64], policy: StealPolicy, workers: usize) {
    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(par).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{kernel}[{i}]: sequential {s} != parallel {p} ({policy}, {workers} workers)"
        );
    }
}

/// Deterministic pseudo-random doubles in (-1, 1), so inputs are not
/// degenerate but runs are reproducible without a RNG dependency.
fn noise(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

// ---------------------------------------------------------------------
// Matrix multiply: one thread per dot product, disjoint C cells.
// ---------------------------------------------------------------------

const MM_N: usize = 20;

fn mm_dot(a: &[f64], b: &[f64], i: usize, j: usize) -> f64 {
    let mut acc = 0.0;
    for k in 0..MM_N {
        acc += a[i * MM_N + k] * b[k * MM_N + j];
    }
    acc
}

fn mm_hints(i: usize, j: usize) -> Hints {
    // Two hints per thread, as in the paper's matmul: the row of A and
    // the column of B the dot product reads.
    Hints::two(
        ((0x1000_0000 + i * 2048) as u64).into(),
        ((0x2000_0000 + j * 2048) as u64).into(),
    )
}

struct SeqMat {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

fn mm_seq_body(ctx: &mut SeqMat, i: usize, j: usize) {
    ctx.c[i * MM_N + j] = mm_dot(&ctx.a, &ctx.b, i, j);
}

struct ParMat {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<SyncCell>,
}

fn mm_par_body(ctx: &ParMat, i: usize, j: usize) {
    ctx.c[i * MM_N + j].set(mm_dot(&ctx.a, &ctx.b, i, j));
}

fn mm_sequential() -> (Vec<f64>, u64) {
    let mut sched = Scheduler::<SeqMat>::new(config(StealPolicy::default()));
    for i in 0..MM_N {
        for j in 0..MM_N {
            sched.fork(mm_seq_body, i, j, mm_hints(i, j));
        }
    }
    let mut ctx = SeqMat {
        a: noise(1, MM_N * MM_N),
        b: noise(2, MM_N * MM_N),
        c: vec![0.0; MM_N * MM_N],
    };
    let stats = sched.run(&mut ctx, RunMode::Consume);
    (ctx.c, stats.threads_run)
}

fn mm_parallel(policy: StealPolicy, workers: usize) -> (Vec<f64>, u64) {
    let mut sched: ParScheduler<ParMat> = ParScheduler::new(config(policy));
    for i in 0..MM_N {
        for j in 0..MM_N {
            sched.fork(mm_par_body, i, j, mm_hints(i, j));
        }
    }
    let ctx = ParMat {
        a: noise(1, MM_N * MM_N),
        b: noise(2, MM_N * MM_N),
        c: cells(MM_N * MM_N),
    };
    let stats = sched.run(&ctx, workers);
    (ctx.c.iter().map(SyncCell::get).collect(), stats.threads_run)
}

#[test]
fn matmul_parallel_matches_sequential_bitwise() {
    let (seq, seq_threads) = mm_sequential();
    assert_eq!(seq_threads, (MM_N * MM_N) as u64);
    for policy in POLICIES {
        for workers in WORKER_COUNTS {
            let (par, par_threads) = mm_parallel(policy, workers);
            assert_eq!(par_threads, seq_threads, "{policy}, {workers} workers");
            assert_bits_eq("matmul", &seq, &par, policy, workers);
        }
    }
}

// ---------------------------------------------------------------------
// Jacobi SOR: double-buffered 5-point stencil, one thread per interior
// row per sweep. (Jacobi, not Gauss–Seidel: each sweep reads only the
// previous sweep's buffer, so row updates commute.)
// ---------------------------------------------------------------------

const SOR_N: usize = 32;
const SOR_SWEEPS: usize = 4;
const SOR_OMEGA: f64 = 0.9;

fn sor_row(src: &[f64], dst: &[SyncCell], row: usize) {
    for col in 1..SOR_N - 1 {
        let idx = row * SOR_N + col;
        let neighbours = src[idx - SOR_N] + src[idx + SOR_N] + src[idx - 1] + src[idx + 1];
        dst[idx].set(src[idx] + SOR_OMEGA * (neighbours / 4.0 - src[idx]));
    }
}

fn sor_hints(row: usize) -> Hints {
    Hints::one(((0x3000_0000 + row * SOR_N * 8) as u64).into())
}

struct SeqSor {
    src: Vec<f64>,
    dst: Vec<f64>,
}

fn sor_seq_body(ctx: &mut SeqSor, row: usize, _unused: usize) {
    for col in 1..SOR_N - 1 {
        let idx = row * SOR_N + col;
        let neighbours =
            ctx.src[idx - SOR_N] + ctx.src[idx + SOR_N] + ctx.src[idx - 1] + ctx.src[idx + 1];
        ctx.dst[idx] = ctx.src[idx] + SOR_OMEGA * (neighbours / 4.0 - ctx.src[idx]);
    }
}

struct ParSor {
    src: Vec<f64>,
    dst: Vec<SyncCell>,
}

fn sor_par_body(ctx: &ParSor, row: usize, _unused: usize) {
    sor_row(&ctx.src, &ctx.dst, row);
}

fn sor_sequential() -> (Vec<f64>, u64) {
    let mut grid = noise(3, SOR_N * SOR_N);
    let mut threads = 0;
    for _ in 0..SOR_SWEEPS {
        let mut sched = Scheduler::<SeqSor>::new(config(StealPolicy::default()));
        for row in 1..SOR_N - 1 {
            sched.fork(sor_seq_body, row, 0, sor_hints(row));
        }
        let mut ctx = SeqSor {
            dst: grid.clone(), // boundary rows/columns carry over
            src: grid,
        };
        threads += sched.run(&mut ctx, RunMode::Consume).threads_run;
        grid = ctx.dst;
    }
    (grid, threads)
}

fn sor_parallel(policy: StealPolicy, workers: usize) -> (Vec<f64>, u64) {
    let mut grid = noise(3, SOR_N * SOR_N);
    let mut threads = 0;
    for _ in 0..SOR_SWEEPS {
        let mut sched: ParScheduler<ParSor> = ParScheduler::new(config(policy));
        for row in 1..SOR_N - 1 {
            sched.fork(sor_par_body, row, 0, sor_hints(row));
        }
        let dst = cells(SOR_N * SOR_N);
        for (cell, &v) in dst.iter().zip(&grid) {
            cell.set(v); // boundary rows/columns carry over
        }
        let ctx = ParSor { src: grid, dst };
        threads += sched.run(&ctx, workers).threads_run;
        grid = ctx.dst.iter().map(SyncCell::get).collect();
    }
    (grid, threads)
}

#[test]
fn jacobi_sor_parallel_matches_sequential_bitwise() {
    let (seq, seq_threads) = sor_sequential();
    assert_eq!(seq_threads, ((SOR_N - 2) * SOR_SWEEPS) as u64);
    for policy in POLICIES {
        for workers in WORKER_COUNTS {
            let (par, par_threads) = sor_parallel(policy, workers);
            assert_eq!(par_threads, seq_threads, "{policy}, {workers} workers");
            assert_bits_eq("sor", &seq, &par, policy, workers);
        }
    }
}

// ---------------------------------------------------------------------
// Direct N-body accelerations: one thread per body, disjoint acc[i].
// ---------------------------------------------------------------------

const NB_N: usize = 48;

struct Bodies {
    pos: Vec<f64>,  // x,y,z triples
    mass: Vec<f64>, // positive masses
}

fn bodies() -> Bodies {
    Bodies {
        pos: noise(4, NB_N * 3),
        mass: noise(5, NB_N).into_iter().map(|m| m.abs() + 0.5).collect(),
    }
}

/// Acceleration on body `i` from every other body, in a fixed j-order
/// so the summation is bit-reproducible.
fn nb_accel(bodies: &Bodies, i: usize) -> [f64; 3] {
    let (xi, yi, zi) = (
        bodies.pos[i * 3],
        bodies.pos[i * 3 + 1],
        bodies.pos[i * 3 + 2],
    );
    let mut acc = [0.0f64; 3];
    for j in 0..NB_N {
        if j == i {
            continue;
        }
        let dx = bodies.pos[j * 3] - xi;
        let dy = bodies.pos[j * 3 + 1] - yi;
        let dz = bodies.pos[j * 3 + 2] - zi;
        let r2 = dx * dx + dy * dy + dz * dz + 1e-6;
        let inv_r3 = 1.0 / (r2 * r2.sqrt());
        acc[0] += bodies.mass[j] * dx * inv_r3;
        acc[1] += bodies.mass[j] * dy * inv_r3;
        acc[2] += bodies.mass[j] * dz * inv_r3;
    }
    acc
}

fn nb_hints(i: usize) -> Hints {
    Hints::one(((0x4000_0000 + i * 1024) as u64).into())
}

struct SeqNb {
    bodies: Bodies,
    acc: Vec<f64>,
}

fn nb_seq_body(ctx: &mut SeqNb, i: usize, _unused: usize) {
    let a = nb_accel(&ctx.bodies, i);
    ctx.acc[i * 3..i * 3 + 3].copy_from_slice(&a);
}

struct ParNb {
    bodies: Bodies,
    acc: Vec<SyncCell>,
}

fn nb_par_body(ctx: &ParNb, i: usize, _unused: usize) {
    let a = nb_accel(&ctx.bodies, i);
    for (d, &v) in a.iter().enumerate() {
        ctx.acc[i * 3 + d].set(v);
    }
}

fn nb_sequential() -> (Vec<f64>, u64) {
    let mut sched = Scheduler::<SeqNb>::new(config(StealPolicy::default()));
    for i in 0..NB_N {
        sched.fork(nb_seq_body, i, 0, nb_hints(i));
    }
    let mut ctx = SeqNb {
        bodies: bodies(),
        acc: vec![0.0; NB_N * 3],
    };
    let stats = sched.run(&mut ctx, RunMode::Consume);
    (ctx.acc, stats.threads_run)
}

fn nb_parallel(policy: StealPolicy, workers: usize) -> (Vec<f64>, u64) {
    let mut sched: ParScheduler<ParNb> = ParScheduler::new(config(policy));
    for i in 0..NB_N {
        sched.fork(nb_par_body, i, 0, nb_hints(i));
    }
    let ctx = ParNb {
        bodies: bodies(),
        acc: cells(NB_N * 3),
    };
    let stats = sched.run(&ctx, workers);
    (
        ctx.acc.iter().map(SyncCell::get).collect(),
        stats.threads_run,
    )
}

#[test]
fn nbody_parallel_matches_sequential_bitwise() {
    let (seq, seq_threads) = nb_sequential();
    assert_eq!(seq_threads, NB_N as u64);
    for policy in POLICIES {
        for workers in WORKER_COUNTS {
            let (par, par_threads) = nb_parallel(policy, workers);
            assert_eq!(par_threads, seq_threads, "{policy}, {workers} workers");
            assert_bits_eq("nbody", &seq, &par, policy, workers);
        }
    }
}

// ---------------------------------------------------------------------
// Baseline schedulers: FIFO and seeded-random are engine configurations
// too (SingleBin + allocation order; UniqueBin + a seeded shuffle), so on
// these order-independent kernels their results must be bit-identical
// to the locality schedule — any drain order computes the same bits.
// ---------------------------------------------------------------------

/// Seeds for the random baseline; the exact per-seed orders are pinned
/// against the pre-refactor implementation in the core crate's
/// `random_order_matches_pre_refactor_golden`.
const RANDOM_SEEDS: [u64; 3] = [7, 42, 99];

fn mm_baseline<S: ThreadScheduler<SeqMat>>(sched: &mut S) -> (Vec<f64>, u64) {
    for i in 0..MM_N {
        for j in 0..MM_N {
            sched.fork(mm_seq_body, i, j, mm_hints(i, j));
        }
    }
    let mut ctx = SeqMat {
        a: noise(1, MM_N * MM_N),
        b: noise(2, MM_N * MM_N),
        c: vec![0.0; MM_N * MM_N],
    };
    let stats = sched.run(&mut ctx, RunMode::Consume);
    (ctx.c, stats.threads_run)
}

fn sor_baseline<S: ThreadScheduler<SeqSor>>(mut make: impl FnMut() -> S) -> (Vec<f64>, u64) {
    let mut grid = noise(3, SOR_N * SOR_N);
    let mut threads = 0;
    for _ in 0..SOR_SWEEPS {
        let mut sched = make();
        for row in 1..SOR_N - 1 {
            sched.fork(sor_seq_body, row, 0, sor_hints(row));
        }
        let mut ctx = SeqSor {
            dst: grid.clone(),
            src: grid,
        };
        threads += sched.run(&mut ctx, RunMode::Consume).threads_run;
        grid = ctx.dst;
    }
    (grid, threads)
}

fn nb_baseline<S: ThreadScheduler<SeqNb>>(sched: &mut S) -> (Vec<f64>, u64) {
    for i in 0..NB_N {
        sched.fork(nb_seq_body, i, 0, nb_hints(i));
    }
    let mut ctx = SeqNb {
        bodies: bodies(),
        acc: vec![0.0; NB_N * 3],
    };
    let stats = sched.run(&mut ctx, RunMode::Consume);
    (ctx.acc, stats.threads_run)
}

#[test]
fn fifo_scheduler_matches_sequential_bitwise() {
    let fifo_policy = StealPolicy::None; // label only; baselines don't steal
    let (seq, seq_threads) = mm_sequential();
    let (fifo, fifo_threads) = mm_baseline(&mut FifoScheduler::new());
    assert_eq!(fifo_threads, seq_threads);
    assert_bits_eq("matmul/fifo", &seq, &fifo, fifo_policy, 1);

    let (seq, seq_threads) = sor_sequential();
    let (fifo, fifo_threads) = sor_baseline(FifoScheduler::new);
    assert_eq!(fifo_threads, seq_threads);
    assert_bits_eq("sor/fifo", &seq, &fifo, fifo_policy, 1);

    let (seq, seq_threads) = nb_sequential();
    let (fifo, fifo_threads) = nb_baseline(&mut FifoScheduler::new());
    assert_eq!(fifo_threads, seq_threads);
    assert_bits_eq("nbody/fifo", &seq, &fifo, fifo_policy, 1);
}

#[test]
fn random_scheduler_matches_sequential_bitwise() {
    let label = StealPolicy::None;
    let (mm_seq, mm_threads) = mm_sequential();
    let (sor_seq, sor_threads) = sor_sequential();
    let (nb_seq, nb_threads) = nb_sequential();
    for seed in RANDOM_SEEDS {
        let (random, threads) = mm_baseline(&mut RandomScheduler::new(seed));
        assert_eq!(threads, mm_threads, "seed {seed}");
        assert_bits_eq("matmul/random", &mm_seq, &random, label, 1);

        let (random, threads) = sor_baseline(|| RandomScheduler::new(seed));
        assert_eq!(threads, sor_threads, "seed {seed}");
        assert_bits_eq("sor/random", &sor_seq, &random, label, 1);

        let (random, threads) = nb_baseline(&mut RandomScheduler::new(seed));
        assert_eq!(threads, nb_threads, "seed {seed}");
        assert_bits_eq("nbody/random", &nb_seq, &random, label, 1);
    }
}
