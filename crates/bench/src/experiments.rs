//! The computations behind every experiment in the registry, returning
//! structured results (`registry` runs them, `print` renders them).

use crate::ExpScale;
use cachesim::{MachineModel, SimReport, SimSink, TimeBreakdown};
use locality_sched::{
    prev_power_of_two, Hints, ParRunReport, ParScheduler, RunMode, Scheduler, SchedulerConfig,
    StealPolicy, TopologyPolicy,
};
use memtrace::AddressSpace;
use probe::json;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::{matmul, nbody, pde, sor, BinGeometry, Kernel};

// ---------------------------------------------------------------------
// Parallel experiment driver: every (workload version × machine)
// combination of the paper tables is an independent simulation, so the
// suites build self-contained cells that a scoped-thread driver can fan
// out — with a join-in-spawn-order reduce that keeps the output
// identical to the sequential driver's.
// ---------------------------------------------------------------------

/// One independent simulation cell: a (workload version × machine)
/// combination owning all of its state, returning its table entry.
pub type Cell = Box<dyn FnOnce() -> (String, SimReport) + Send>;

/// How a batch of independent [`Cell`]s executes. The registry runs
/// everything under the default; `Sequential` is the reference the
/// tests compare it against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Driver {
    /// One after another on the calling thread (the reference order).
    Sequential,
    /// One OS thread per cell via [`std::thread::scope`], results
    /// collected by joining handles in spawn order.
    #[default]
    Parallel,
}

/// Runs `cells` under `driver`, returning results in cell order.
///
/// Determinism: each cell owns its address space, workload data and
/// [`SimSink`], shares nothing mutable with its siblings, and the
/// reduce joins handles in spawn order — so the result vector is
/// *identical* to the sequential driver's regardless of how the OS
/// interleaves cell completion (see DESIGN.md).
pub fn run_cells(cells: Vec<Cell>, driver: Driver) -> Vec<(String, SimReport)> {
    match driver {
        Driver::Sequential => cells.into_iter().map(|cell| cell()).collect(),
        Driver::Parallel => std::thread::scope(|scope| {
            let handles: Vec<_> = cells.into_iter().map(|cell| scope.spawn(cell)).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("simulation cell panicked"))
                .collect()
        }),
    }
}

/// Simulates one workload run on `hierarchy`: a fresh address space and
/// sink for `run`, its threads accounted, the report collected.
pub fn simulate(
    hierarchy: cachesim::Hierarchy,
    run: impl FnOnce(&mut AddressSpace, &mut SimSink) -> workloads::WorkloadReport,
) -> (workloads::WorkloadReport, SimReport) {
    let mut space = AddressSpace::new();
    let mut sim = SimSink::new(hierarchy);
    let report = run(&mut space, &mut sim);
    sim.add_threads(report.threads);
    (report, sim.finish())
}

/// Wraps one workload run as a [`Cell`] over a clone of `machine`.
fn cell<F>(machine: &MachineModel, run: F) -> Cell
where
    F: FnOnce(&mut AddressSpace, &mut SimSink) -> workloads::WorkloadReport + Send + 'static,
{
    let machine = machine.clone();
    Box::new(move || {
        let (report, sim) = simulate(machine.hierarchy(), run);
        (report.name, sim)
    })
}

// ---------------------------------------------------------------------
// Workload suites: one cell per version of one workload on one machine.
// The threaded versions bin with the paper's flat per-kernel block
// (`BinGeometry::flat_config`).
// ---------------------------------------------------------------------

/// The five matmul versions of Table 2 on `machine`, as cells.
pub fn matmul_cells(scale: &ExpScale, machine: &MachineModel) -> Vec<Cell> {
    let n = scale.matmul_n;
    let tiles =
        matmul::TileConfig::for_caches(machine.l1_config().size(), machine.l2_config().size());
    let sched = BinGeometry::for_machine(machine).flat_config(Kernel::MatMul);
    let data = move |space: &mut AddressSpace| matmul::MatMulData::new(space, n, 42);
    vec![
        cell(machine, move |sp, s| matmul::interchanged(&mut data(sp), s)),
        cell(machine, move |sp, s| matmul::transposed(&mut data(sp), s)),
        cell(machine, move |sp, s| {
            matmul::tiled_interchanged(&mut data(sp), tiles, sp, s)
        }),
        cell(machine, move |sp, s| {
            matmul::tiled_transposed(&mut data(sp), tiles, sp, s)
        }),
        cell(machine, move |sp, s| {
            matmul::threaded(&mut data(sp), sched, s)
        }),
    ]
}

/// The three PDE versions of Table 4 on `machine`, as cells.
pub fn pde_cells(scale: &ExpScale, machine: &MachineModel) -> Vec<Cell> {
    let n = scale.pde_n;
    let iters = scale.pde_iters;
    let sched = BinGeometry::for_machine(machine).flat_config(Kernel::Pde);
    let data = move |space: &mut AddressSpace| pde::PdeData::new(space, n, 7);
    vec![
        cell(machine, move |sp, s| pde::regular(&mut data(sp), iters, s)),
        cell(machine, move |sp, s| {
            pde::cache_conscious(&mut data(sp), iters, s)
        }),
        cell(machine, move |sp, s| {
            pde::threaded(&mut data(sp), iters, sched, s)
        }),
    ]
}

/// The three SOR versions of Table 6 on `machine`, as cells.
pub fn sor_cells(scale: &ExpScale, machine: &MachineModel) -> Vec<Cell> {
    let n = scale.sor_n;
    let t = scale.sor_t;
    let tile = scale.sor_tile;
    let sched = BinGeometry::for_machine(machine).flat_config(Kernel::Sor);
    let data = move |space: &mut AddressSpace| sor::SorData::new(space, n, 99);
    vec![
        cell(machine, move |sp, s| sor::untiled(&mut data(sp), t, s)),
        cell(machine, move |sp, s| {
            sor::hand_tiled(&mut data(sp), t, tile, s)
        }),
        cell(machine, move |sp, s| {
            sor::threaded(&mut data(sp), t, sched, s)
        }),
    ]
}

/// The two N-body versions of Table 8 on `machine`, as cells.
pub fn nbody_cells(scale: &ExpScale, machine: &MachineModel, iterations: usize) -> Vec<Cell> {
    let n = scale.nbody_n;
    let params = nbody::NBodyParams::for_l2(machine.l2_capacity());
    let sched = BinGeometry::for_machine(machine).flat_config(Kernel::NBody);
    let data = move |space: &mut AddressSpace| nbody::NBodyData::new(space, n, 2024);
    vec![
        cell(machine, move |sp, s| {
            nbody::unthreaded(&mut data(sp), iterations, params, s)
        }),
        cell(machine, move |sp, s| {
            nbody::threaded(&mut data(sp), iterations, params, sched, s)
        }),
    ]
}

/// Every version of `kernel`'s paper table on `machine`, in the
/// paper's row order (`nbody_iterations` only matters to the N-body).
pub fn kernel_cells(
    kernel: Kernel,
    scale: &ExpScale,
    machine: &MachineModel,
    nbody_iterations: usize,
) -> Vec<Cell> {
    match kernel {
        Kernel::MatMul => matmul_cells(scale, machine),
        Kernel::Pde => pde_cells(scale, machine),
        Kernel::Sor => sor_cells(scale, machine),
        Kernel::NBody => nbody_cells(scale, machine, nbody_iterations),
    }
}

/// The simulation cell for `kernel`'s threaded version binned by the
/// block ladder `policy` (one rung = the paper's flat policy), with the
/// same problem sizes, seeds and hints as its paper table (one N-body
/// iteration, as in Table 9).
fn threaded_cell(
    scale: &ExpScale,
    kernel: Kernel,
    machine: &MachineModel,
    config: SchedulerConfig,
    policy: TopologyPolicy,
) -> Cell {
    let scale = *scale;
    match kernel {
        Kernel::MatMul => {
            let n = scale.matmul_n;
            cell(machine, move |sp, s| {
                matmul::threaded_with(&mut matmul::MatMulData::new(sp, n, 42), config, policy, s)
            })
        }
        Kernel::Pde => {
            let (n, iters) = (scale.pde_n, scale.pde_iters);
            cell(machine, move |sp, s| {
                pde::threaded_with(&mut pde::PdeData::new(sp, n, 7), iters, config, policy, s)
            })
        }
        Kernel::Sor => {
            let (n, t) = (scale.sor_n, scale.sor_t);
            cell(machine, move |sp, s| {
                sor::threaded_with(&mut sor::SorData::new(sp, n, 99), t, config, policy, s)
            })
        }
        Kernel::NBody => {
            let n = scale.nbody_n;
            let params = nbody::NBodyParams::for_l2(machine.l2_capacity());
            cell(machine, move |sp, s| {
                nbody::threaded_with(
                    &mut nbody::NBodyData::new(sp, n, 2024),
                    1,
                    params,
                    config,
                    policy,
                    s,
                )
            })
        }
    }
}

// ---------------------------------------------------------------------
// Table results
// ---------------------------------------------------------------------

/// Host-measured thread-package overhead (Table 1's methodology: fork
/// and run ~1M null threads evenly distributed across the scheduling
/// plane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table1Result {
    /// Threads forked and run.
    pub threads: u64,
    /// Nanoseconds per fork.
    pub fork_ns: f64,
    /// Nanoseconds per run dispatch.
    pub run_ns: f64,
}

impl Table1Result {
    /// Total per-thread overhead in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.fork_ns + self.run_ns
    }
}

fn null_thread(_ctx: &mut (), _a: usize, _b: usize) {}

/// Table 1: measures this implementation's fork/run overhead on the
/// host, with the paper's micro-benchmark shape (uniformly distributed
/// 2-D hints).
pub fn table1(threads: u64) -> Table1Result {
    let config = SchedulerConfig::builder()
        .block_size(1 << 20)
        .build()
        .expect("static config");
    let block = 1u64 << 20;
    let mut best_fork = f64::INFINITY;
    let mut best_run = f64::INFINITY;
    for _rep in 0..3 {
        let mut sched = Scheduler::<()>::new(config);
        let start = Instant::now();
        for i in 0..threads {
            let h1 = (i % 16) * block;
            let h2 = ((i / 16) % 16) * block;
            sched.fork(null_thread, i as usize, 0, Hints::two(h1.into(), h2.into()));
        }
        let fork_ns = start.elapsed().as_nanos() as f64 / threads as f64;
        let start = Instant::now();
        let stats = sched.run(&mut (), RunMode::Consume);
        let run_ns = start.elapsed().as_nanos() as f64 / threads as f64;
        assert_eq!(stats.threads_run, threads);
        best_fork = best_fork.min(fork_ns);
        best_run = best_run.min(run_ns);
    }
    Table1Result {
        threads,
        fork_ns: best_fork,
        run_ns: best_run,
    }
}

/// One row of a timing table: modeled seconds per machine.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeRow {
    /// Version name.
    pub version: String,
    /// Modeled time on the (scaled) R8000.
    pub r8000: TimeBreakdown,
    /// Modeled time on the (scaled) R10000.
    pub r10000: TimeBreakdown,
}

/// One row of a cache-miss table.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRow {
    /// Version name.
    pub version: String,
    /// Simulation report on the (scaled) R8000.
    pub report: SimReport,
}

/// `machine` at a workload's scale factor: the L2 (and every coarser
/// level) scales by `factor` — whole-array working sets shrink with the
/// problem *area*, so this preserves the paper's data : L2 ratios —
/// while the L1 keeps its full size, because L1-level working sets (a
/// few matrix columns, a register tile) shrink only with the problem
/// *side* and already sit at the same order as the real L1. Shrinking
/// the L1 too would fabricate conflict thrashing the paper's machines
/// never saw.
pub fn scaled(machine: MachineModel, factor: f64) -> MachineModel {
    machine
        .scaled_split(1.0, factor)
        .expect("valid scaled machine")
}

/// The paper's two machine models at a workload's scale factor (see
/// [`scaled`]).
pub fn machines(factor: f64) -> (MachineModel, MachineModel) {
    (
        scaled(MachineModel::r8000(), factor),
        scaled(MachineModel::r10000(), factor),
    )
}

/// A timing table (Tables 2/4/6/8): every version of `kernel` on both
/// scaled machines, modeled seconds.
pub fn time_rows(kernel: Kernel, scale: &ExpScale, driver: Driver) -> Vec<TimeRow> {
    let (r8000, r10000) = machines(scale.factor(kernel));
    // Both machines' cells go into one batch, so a parallel driver
    // overlaps all (version × machine) combinations at once.
    let mut cells = kernel_cells(kernel, scale, &r8000, scale.nbody_iters);
    let split = cells.len();
    cells.extend(kernel_cells(kernel, scale, &r10000, scale.nbody_iters));
    let mut on_r8000 = run_cells(cells, driver);
    let on_r10000 = on_r8000.split_off(split);
    on_r8000
        .into_iter()
        .zip(on_r10000)
        .map(|((name, rep8), (name10, rep10))| {
            debug_assert_eq!(name, name10);
            TimeRow {
                version: name,
                r8000: rep8.time_on(&r8000),
                r10000: rep10.time_on(&r10000),
            }
        })
        .collect()
}

/// A reference/miss table (Tables 3/5/7/9): the named `versions` of
/// `kernel` (every version when empty) simulated on the scaled R8000 —
/// the N-body for one iteration, as in the paper.
pub fn miss_rows(
    kernel: Kernel,
    scale: &ExpScale,
    versions: &[&str],
    driver: Driver,
) -> Vec<MissRow> {
    let (r8000, _) = machines(scale.factor(kernel));
    run_cells(kernel_cells(kernel, scale, &r8000, 1), driver)
        .into_iter()
        .filter(|(version, _)| versions.is_empty() || versions.contains(&version.as_str()))
        .map(|(version, report)| MissRow { version, report })
        .collect()
}

// ---------------------------------------------------------------------
// Steal-policy ablation (host wall-clock)
// ---------------------------------------------------------------------

/// Scheduling-space block size used by the steal ablation's hints: one
/// bin per 4 KB block.
const STEAL_BLOCK: u64 = 4096;

/// Doubles per bin window (4 KB — cache-resident, so the workload is
/// compute-bound and worker *balance*, not memory bandwidth, decides
/// the critical path).
const STEAL_WINDOW: usize = 512;

/// Context for the steal ablation's workload: every thread of bin b
/// makes `passes[b]` summing passes over the bin's window of `data`
/// (the bin's working set); results land in per-thread `out` cells,
/// and each bin records which OS thread executed it in `owner` so the
/// run's critical path can be recomputed from known per-bin costs.
pub struct StealCtx {
    data: Vec<f64>,
    passes: Vec<usize>,
    out: Vec<AtomicU64>,
    owner: Vec<AtomicU64>,
}

fn windowed_sum(ctx: &StealCtx, thread: usize, bin: usize) {
    let window = &ctx.data[bin * STEAL_WINDOW..(bin + 1) * STEAL_WINDOW];
    let mut acc = 0.0f64;
    for _ in 0..ctx.passes[bin] {
        for &x in window {
            acc += x;
        }
    }
    ctx.out[thread].store(acc.to_bits(), Ordering::Relaxed);
    // A bin never splits across workers, so one store per thread of the
    // bin is enough — they all write the same worker's id.
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    ctx.owner[bin].store(h.finish() | 1, Ordering::Relaxed);
}

fn steal_ctx(bins: usize, threads_per_bin: usize, passes_scale: usize) -> StealCtx {
    StealCtx {
        data: (0..bins * STEAL_WINDOW)
            .map(|i| (i % 97) as f64 * 0.5)
            .collect(),
        // Triangular cost profile: every thread of bin b costs
        // (b + 1) × a thread of bin 0. A partition balanced by
        // *thread count* — the ParScheduler's static handout —
        // therefore misjudges *work* by up to 2×, which is exactly
        // the imbalance stealing exists to absorb.
        passes: (0..bins).map(|b| (b + 1) * passes_scale).collect(),
        out: (0..bins * threads_per_bin)
            .map(|_| AtomicU64::new(0))
            .collect(),
        owner: (0..bins).map(|_| AtomicU64::new(0)).collect(),
    }
}

/// Critical path of the run just recorded in `ctx.owner`, in *work
/// units* (window-passes): groups bins by the OS thread that executed
/// them and returns (max per-thread unit sum, total units). Work units
/// are exact — each thread of bin b costs `passes[b]` passes by
/// construction — so unlike wall-clock busy time the result is
/// unaffected by how the host time-slices workers onto cores.
fn critical_path_units(ctx: &StealCtx, threads_per_bin: usize) -> (u64, u64) {
    let mut per_owner: Vec<(u64, u64)> = Vec::new();
    let mut total = 0u64;
    for (bin, owner) in ctx.owner.iter().enumerate() {
        let owner = owner.load(Ordering::Relaxed);
        assert_ne!(owner, 0, "bin {bin} never executed");
        let units = (ctx.passes[bin] * threads_per_bin) as u64;
        total += units;
        match per_owner.iter_mut().find(|(id, _)| *id == owner) {
            Some((_, sum)) => *sum += units,
            None => per_owner.push((owner, units)),
        }
    }
    let max = per_owner.iter().map(|&(_, sum)| sum).max().unwrap_or(0);
    (max, total)
}

fn fork_windowed(sched: &mut ParScheduler<StealCtx>, bins: usize, threads_per_bin: usize) {
    let mut thread = 0usize;
    for bin in 0..bins {
        for _ in 0..threads_per_bin {
            sched.fork(
                windowed_sum,
                thread,
                bin,
                Hints::one((bin as u64 * STEAL_BLOCK).into()),
            );
            thread += 1;
        }
    }
}

/// One measured cell of the steal ablation: one (policy, workers)
/// combination, best of three runs.
///
/// The headline metric is the *makespan* in deterministic work units —
/// the maximum per-worker sum of known per-bin costs, i.e. the run's
/// critical path under ideal parallel execution. Wall-clock (and the
/// `Instant`-based per-worker busy times inside `report`) conflate
/// scheduling quality with how many physical cores the host happens to
/// have: on a 1-core host every multi-worker wall-clock is just the
/// serialized total, and a worker's busy window absorbs time-slice
/// preemption from its peers. Work units do not.
#[derive(Clone, Debug)]
pub struct StealRow {
    /// Steal policy under test.
    pub policy: StealPolicy,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock nanoseconds of the best repetition.
    pub wall_ns: u64,
    /// Critical path of the best repetition, in work units
    /// (window-passes): max per-worker sum of executed bins' costs.
    pub makespan_units: u64,
    /// Critical path converted to nanoseconds via the single-worker
    /// calibration rate (units per ns with no scheduling overlap).
    pub modeled_ns: u64,
    /// Threads per second along the modeled critical path.
    pub threads_per_sec: f64,
    /// Full per-worker report of the best repetition.
    pub report: ParRunReport,
}

/// The steal-policy ablation: every [`StealPolicy`] at each worker
/// count, on a workload whose per-thread cost the static partition
/// cannot predict.
#[derive(Clone, Debug)]
pub struct StealAblationResult {
    /// Bins in the schedule.
    pub bins: usize,
    /// Threads per run.
    pub threads: u64,
    /// Worker counts measured.
    pub worker_counts: Vec<usize>,
    /// One row per (workers, policy), grouped by worker count.
    pub rows: Vec<StealRow>,
}

impl StealAblationResult {
    /// The measured cell for one (policy, workers) combination.
    pub fn row(&self, policy: StealPolicy, workers: usize) -> Option<&StealRow> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.workers == workers)
    }

    /// Critical-path speedup of `policy` over [`StealPolicy::None`] at
    /// `workers` (1.0 when either cell is missing).
    pub fn speedup_vs_none(&self, policy: StealPolicy, workers: usize) -> f64 {
        match (
            self.row(StealPolicy::None, workers),
            self.row(policy, workers),
        ) {
            (Some(none), Some(row)) if row.makespan_units > 0 => {
                none.makespan_units as f64 / row.makespan_units as f64
            }
            _ => 1.0,
        }
    }

    /// Serializes the ablation — including each cell's full
    /// [`ParRunReport`] with per-worker steal counters — as one JSON
    /// object (the `BENCH_steal.json` payload).
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.object(|w| {
                w.key("experiment").string("steal_ablation");
                w.key("workload").string("windowed-sum");
                w.key("bins").uint(self.bins as u64);
                w.key("threads").uint(self.threads);
                w.key("rows").array(|w| {
                    for row in &self.rows {
                        w.object(|w| {
                            w.key("policy").string(&row.policy.to_string());
                            w.key("workers").uint(row.workers as u64);
                            w.key("wall_ns").uint(row.wall_ns);
                            w.key("makespan_units").uint(row.makespan_units);
                            w.key("modeled_ns").uint(row.modeled_ns);
                            w.key("threads_per_sec").float(row.threads_per_sec, 1);
                            w.key("speedup_vs_none")
                                .float(self.speedup_vs_none(row.policy, row.workers), 3);
                            row.report.write_json(w.key("report"));
                        });
                    }
                });
            });
        })
    }
}

/// Measures every steal policy at each worker count on the windowed-sum
/// workload (`bins` bins × `threads_per_bin` threads, triangular pass
/// counts scaled by `passes_scale`), best of three repetitions per
/// cell (best by critical-path work units).
///
/// A dedicated single-worker calibration run (best-of-three wall-clock)
/// establishes the units→nanoseconds rate used for `modeled_ns`: with
/// one worker there is no overlap to mismeasure, so `wall / total
/// units` is the true per-unit cost on this host.
pub fn steal_ablation(
    bins: usize,
    threads_per_bin: usize,
    passes_scale: usize,
    worker_counts: &[usize],
) -> StealAblationResult {
    let ctx = steal_ctx(bins, threads_per_bin, passes_scale);
    let threads = (bins * threads_per_bin) as u64;
    let calib_config = SchedulerConfig::builder()
        .block_size(STEAL_BLOCK)
        .steal_policy(StealPolicy::None)
        .build()
        .expect("power-of-two block");
    let mut calib_wall_ns = u64::MAX;
    let mut total_units = 0u64;
    for _rep in 0..3 {
        let mut sched: ParScheduler<StealCtx> = ParScheduler::new(calib_config);
        fork_windowed(&mut sched, bins, threads_per_bin);
        let start = Instant::now();
        let report = sched.run_report(&ctx, 1);
        calib_wall_ns = calib_wall_ns.min((start.elapsed().as_nanos() as u64).max(1));
        assert_eq!(report.run.threads_run, threads);
        total_units = critical_path_units(&ctx, threads_per_bin).1;
    }
    let ns_per_unit = calib_wall_ns as f64 / total_units as f64;
    let mut rows = Vec::new();
    for &workers in worker_counts {
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            let config = SchedulerConfig::builder()
                .block_size(STEAL_BLOCK)
                .steal_policy(policy)
                .build()
                .expect("power-of-two block");
            let mut best: Option<StealRow> = None;
            for _rep in 0..3 {
                let mut sched: ParScheduler<StealCtx> = ParScheduler::new(config);
                fork_windowed(&mut sched, bins, threads_per_bin);
                let start = Instant::now();
                let report = sched.run_report(&ctx, workers);
                let wall_ns = (start.elapsed().as_nanos() as u64).max(1);
                assert_eq!(report.run.threads_run, threads);
                let (makespan_units, total) = critical_path_units(&ctx, threads_per_bin);
                assert_eq!(total, total_units);
                if best
                    .as_ref()
                    .is_none_or(|b| makespan_units < b.makespan_units)
                {
                    let modeled_ns = ((makespan_units as f64 * ns_per_unit) as u64).max(1);
                    best = Some(StealRow {
                        policy,
                        workers,
                        wall_ns,
                        makespan_units,
                        modeled_ns,
                        threads_per_sec: threads as f64 / (modeled_ns as f64 / 1e9),
                        report,
                    });
                }
            }
            rows.push(best.expect("three repetitions measured"));
        }
    }
    StealAblationResult {
        bins,
        threads,
        worker_counts: worker_counts.to_vec(),
        rows,
    }
}

/// The steal ablation at a table scale: the pass scale tracks
/// `matmul_n` so `--smoke`/`--full` shrink/grow the work as for the
/// tables. Each run must span many OS timeslices (tens of milliseconds
/// and up): the kernel's fair scheduler then advances oversubscribed
/// workers at near-equal rates, which is what makes the recorded
/// bin-to-worker assignment representative of truly parallel execution
/// even on hosts with fewer cores than workers.
pub fn steal(scale: &ExpScale) -> StealAblationResult {
    steal_ablation(48, 8, (scale.matmul_n / 4).max(2), &[1, 2, 4, 8])
}

// ---------------------------------------------------------------------
// Bin-policy ablations: the threaded kernels under flat (paper §3.2),
// two-level (L1-in-L2) and full machine-tree binning
// ---------------------------------------------------------------------

/// A hints→bin policy family the ablations compare, each derived from
/// the machine's [`BinGeometry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binning {
    /// The paper's flat policy: uniform L2-sized blocks.
    Flat,
    /// L1-sized sub-bins nested in L2-sized bins.
    Hierarchical,
    /// One nesting level per locality level of the machine.
    Topology,
}

impl Binning {
    /// The policy's name in row labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            Binning::Flat => "flat",
            Binning::Hierarchical => "hierarchical",
            Binning::Topology => "topology",
        }
    }
}

/// A machine an ablation runs on: its row label and unscaled model.
pub type AblationMachine = (&'static str, fn() -> MachineModel);

/// One policy ablation as data: which machines, which policies (flat
/// first — every other policy is compared against it), and the prose
/// its printed table carries.
#[derive(Debug)]
pub struct PolicyAblation {
    /// The report's `experiment` tag.
    pub experiment: &'static str,
    /// The machines; each is scaled by the kernel's table factor.
    pub machines: &'static [AblationMachine],
    /// Policies measured per (kernel, machine), [`Binning::Flat`] first.
    pub policies: &'static [Binning],
    /// Paragraph printed above the table.
    pub intro: &'static str,
    /// Paragraph printed below the delta table.
    pub footnote: &'static str,
}

/// `binpolicy`: flat vs hierarchical binning on both paper machines.
pub static BINPOLICY: PolicyAblation = PolicyAblation {
    experiment: "binpolicy",
    machines: &[
        ("r8000", MachineModel::r8000),
        ("r10000", MachineModel::r10000),
    ],
    policies: &[Binning::Flat, Binning::Hierarchical],
    intro: "Bin-policy ablation: flat (paper §3.2, L2-sized bins) vs hierarchical\n(L1-sized sub-bins nested in L2-sized bins), threaded versions, simulated\n",
    footnote: "\nΔ = hierarchical vs flat (negative = hierarchical better). Sub-bins\nkeep each L1-sized working set resident while the parent bin still\nbounds the L2 working set; the L2 columns should be ~unchanged while\nL1 misses move.",
};

/// `topology`: flat vs two-level vs full-tree binning on a two-level
/// paper machine (where the tree policy must collapse to hierarchical)
/// and the four-level NUMA bench machine (where the extra rungs group
/// bins under L3 and socket subtrees).
pub static TOPOLOGY: PolicyAblation = PolicyAblation {
    experiment: "topology",
    machines: &[
        ("r8000", MachineModel::r8000),
        ("numa2", MachineModel::numa2),
    ],
    policies: &[Binning::Flat, Binning::Hierarchical, Binning::Topology],
    intro: "Topology ablation: flat (paper §3.2) vs two-level (L1-in-L2) vs full\nmachine-tree binning, threaded versions, simulated on a two-level paper\nmachine and a four-level NUMA machine\n",
    footnote: "\nΔ = policy vs flat (negative = deeper binning better). On the two-level\nmachine the topology policy must match hierarchical exactly; on the NUMA\nmachine its extra rungs keep sibling bins under the same L3/socket\nsubtree adjacent in the tour.",
};

/// One measured cell of a policy ablation: one threaded workload under
/// one binning policy on one machine, fully simulated.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Unique row label `"<kernel>.<machine>.<policy>"` — the benchdiff
    /// row key, so baselines match rows by identity, not position.
    pub workload: String,
    /// Kernel name (`"matmul"`, `"pde"`, `"sor"`, `"nbody"`).
    pub kernel: &'static str,
    /// Machine label from the ablation's machine list.
    pub machine: &'static str,
    /// Policy under test.
    pub policy: Binning,
    /// Block-size ladder the policy bins with, finest first: one entry
    /// for flat, two for hierarchical, one per machine-tree level for
    /// the full topology policy.
    pub blocks: Vec<u64>,
    /// Threads forked and run.
    pub threads: u64,
    /// Simulated data references (deterministic).
    pub accesses: u64,
    /// Full simulation report for this cell.
    pub report: SimReport,
    /// Modeled nanoseconds on this row's machine.
    pub modeled_ns: u64,
}

/// A policy ablation's measurements: one row per (kernel × machine ×
/// policy), in that nesting order.
#[derive(Clone, Debug)]
pub struct PolicyAblationResult {
    /// The ablation that was run.
    pub spec: &'static PolicyAblation,
    /// The measured cells.
    pub rows: Vec<PolicyRow>,
}

/// Relative change of `other` against `flat`, in percent.
fn delta_pct(flat: u64, other: u64) -> f64 {
    if flat == 0 {
        0.0
    } else {
        100.0 * (other as f64 - flat as f64) / flat as f64
    }
}

impl PolicyAblationResult {
    /// The measured cell for one (kernel, machine, policy).
    pub fn row(&self, kernel: &str, machine: &str, policy: Binning) -> Option<&PolicyRow> {
        self.rows
            .iter()
            .find(|r| r.kernel == kernel && r.machine == machine && r.policy == policy)
    }

    /// Every non-flat row with its `[L1 miss, L2 miss, modeled time]`
    /// deltas against the flat row of the same (kernel, machine), in
    /// percent (negative = the deeper policy is better), in row order.
    pub fn deltas(&self) -> Vec<(&PolicyRow, [f64; 3])> {
        self.rows
            .iter()
            .filter(|row| row.policy != Binning::Flat)
            .filter_map(|row| {
                let flat = self.row(row.kernel, row.machine, Binning::Flat)?;
                let deltas = [
                    delta_pct(flat.report.l1.misses(), row.report.l1.misses()),
                    delta_pct(flat.report.l2.misses(), row.report.l2.misses()),
                    delta_pct(flat.modeled_ns, row.modeled_ns),
                ];
                Some((row, deltas))
            })
            .collect()
    }

    /// Serializes the ablation as its `BENCH_<experiment>.json`
    /// payload: per-cell deterministic miss counts/rates (gated by
    /// benchdiff) plus each deeper policy's deltas against flat.
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.object(|w| {
                w.key("experiment").string(self.spec.experiment);
                w.key("rows").array(|w| {
                    for row in &self.rows {
                        w.object(|w| {
                            w.key("workload").string(&row.workload);
                            w.key("kernel").string(row.kernel);
                            w.key("machine").string(row.machine);
                            w.key("policy").string(row.policy.name());
                            w.key("depth").uint(row.blocks.len() as u64);
                            w.key("blocks").array(|w| {
                                for &block in &row.blocks {
                                    w.uint(block);
                                }
                            });
                            w.key("threads").uint(row.threads);
                            w.key("accesses").uint(row.accesses);
                            w.key("l1_misses").uint(row.report.l1.misses());
                            w.key("l2_misses").uint(row.report.l2.misses());
                            w.key("l1_miss_rate_pct")
                                .float(row.report.l1_miss_rate_percent(), 4);
                            w.key("l2_miss_rate_pct")
                                .float(row.report.l2_miss_rate_percent(), 4);
                            w.key("modeled_ns").uint(row.modeled_ns);
                        });
                    }
                });
                w.key("deltas").array(|w| {
                    for (row, [l1, l2, modeled]) in self.deltas() {
                        w.object(|w| {
                            w.key("workload").string(&row.workload);
                            w.key("l1_miss_delta_pct").float(l1, 4);
                            w.key("l2_miss_delta_pct").float(l2, 4);
                            w.key("modeled_delta_pct").float(modeled, 4);
                        });
                    }
                });
            });
        })
    }
}

/// Runs `spec` at `scale`: every threaded kernel under each of the
/// ablation's policies on each of its machines, scaled by the kernel's
/// table factor.
pub fn policy_ablation(
    spec: &'static PolicyAblation,
    scale: &ExpScale,
    driver: Driver,
) -> PolicyAblationResult {
    let mut cells: Vec<Cell> = Vec::new();
    let mut meta = Vec::new();
    for kernel in Kernel::ALL {
        for &(machine_name, model) in spec.machines {
            let machine = scaled(model(), scale.factor(kernel));
            let geo = BinGeometry::for_machine(&machine);
            let config = geo.flat_config(kernel);
            for &policy in spec.policies {
                let blocks = match policy {
                    Binning::Flat => vec![geo.l2_block(kernel)],
                    Binning::Hierarchical => vec![geo.l1_block(kernel), geo.l2_block(kernel)],
                    Binning::Topology => geo.level_blocks(kernel),
                };
                let ladder = TopologyPolicy::uniform(&blocks, false)
                    .expect("machine-derived ladder is valid");
                let cell = threaded_cell(scale, kernel, &machine, config, ladder);
                cells.push(cell);
                meta.push((kernel.name(), machine_name, policy, blocks, machine.clone()));
            }
        }
    }
    let rows = meta
        .into_iter()
        .zip(run_cells(cells, driver))
        .map(
            |((kernel, machine_name, policy, blocks, machine), (_name, report))| PolicyRow {
                workload: format!("{kernel}.{machine_name}.{}", policy.name()),
                kernel,
                machine: machine_name,
                policy,
                blocks,
                threads: report.threads,
                accesses: report.data_references(),
                modeled_ns: (report.time_on(&machine).total() * 1e9).round() as u64,
                report,
            },
        )
        .collect();
    PolicyAblationResult { spec, rows }
}

/// Figure 4 data: modeled execution time on the scaled R8000 as a
/// function of the block dimension size, for the threaded version of
/// all four applications.
#[derive(Clone, Debug)]
pub struct Figure4Result {
    /// Block sizes in *full-machine-equivalent* bytes (the paper's
    /// x-axis, 64 KB … 8 MB).
    pub block_sizes: Vec<u64>,
    /// Per-application series of modeled seconds, matching
    /// `block_sizes`.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Figure 4: block-size sensitivity sweep.
pub fn figure4(scale: &ExpScale, driver: Driver) -> Figure4Result {
    let block_sizes: Vec<u64> = crate::paper::figure4::BLOCK_SIZES.to_vec();
    let series = Kernel::ALL
        .into_iter()
        .map(|kernel| {
            let factor = scale.factor(kernel);
            let machine = scaled(MachineModel::r8000(), factor);
            let cells = block_sizes
                .iter()
                .map(|&full_block| {
                    let block = prev_power_of_two(((full_block as f64 * factor) as u64).max(64));
                    let config = SchedulerConfig::builder()
                        .block_size(block)
                        .build()
                        .expect("power-of-two block");
                    let ladder =
                        TopologyPolicy::uniform(&[block], false).expect("power-of-two block");
                    threaded_cell(scale, kernel, &machine, config, ladder)
                })
                .collect();
            let times = run_cells(cells, driver)
                .into_iter()
                .map(|(_name, report)| report.time_on(&machine).total())
                .collect();
            (kernel.name().to_owned(), times)
        })
        .collect();
    Figure4Result {
        block_sizes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_configs_follow_paper_rules() {
        let geo = BinGeometry::for_machine(&MachineModel::r8000());
        assert_eq!(geo.flat_config(Kernel::MatMul).block_size(0), 1 << 20);
        assert_eq!(geo.flat_config(Kernel::Sor).block_size(0), 512 << 10);
        assert_eq!(geo.flat_config(Kernel::NBody).block_size(0), 512 << 10);
    }

    #[test]
    fn parallel_driver_matches_sequential_rows() {
        let scale = ExpScale::smoke();
        assert_eq!(
            time_rows(Kernel::Pde, &scale, Driver::Sequential),
            time_rows(Kernel::Pde, &scale, Driver::Parallel),
        );
    }

    #[test]
    fn run_cells_preserves_cell_order() {
        let cells: Vec<Cell> = (0..8)
            .map(|i| {
                let machine = MachineModel::r8000();
                Box::new(move || {
                    // Unequal work so completion order scrambles.
                    let mut sim = SimSink::new(machine.hierarchy());
                    for off in 0..(8 - i) * 500u64 {
                        use memtrace::TraceSink;
                        sim.read((off * 64).into(), 8);
                    }
                    (format!("cell{i}"), sim.finish())
                }) as Cell
            })
            .collect();
        let names: Vec<String> = run_cells(cells, Driver::Parallel)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let expect: Vec<String> = (0..8).map(|i| format!("cell{i}")).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn table1_measures_positive_overhead() {
        let result = table1(10_000);
        assert!(result.fork_ns > 0.0);
        assert!(result.run_ns > 0.0);
        assert!(result.total_ns() < 100_000.0, "null threads cost < 100 µs");
    }

    /// A sub-smoke scale so the ablations' simulated cells stay
    /// unit-test cheap.
    fn tiny_scale() -> ExpScale {
        ExpScale {
            matmul_n: 24,
            matmul_factor: 1.0 / 512.0,
            pde_n: 65,
            pde_iters: 2,
            pde_factor: 1.0 / 256.0,
            sor_n: 65,
            sor_t: 2,
            sor_tile: 8,
            sor_factor: 1.0 / 256.0,
            nbody_n: 128,
            nbody_iters: 1,
            nbody_factor: 1.0 / 256.0,
            serve_requests: 2_000,
        }
    }

    #[test]
    fn binpolicy_reports_all_cells() {
        let result = policy_ablation(&BINPOLICY, &tiny_scale(), Driver::default());
        assert_eq!(result.rows.len(), 16, "4 kernels × 2 machines × 2 policies");
        for kernel in Kernel::ALL.map(Kernel::name) {
            for machine in ["r8000", "r10000"] {
                let flat = result
                    .row(kernel, machine, Binning::Flat)
                    .expect("flat cell");
                let hier = result
                    .row(kernel, machine, Binning::Hierarchical)
                    .expect("hierarchical cell");
                // Same program, same hints: the policy reorders
                // execution but never changes what the application
                // executes. The access totals include traced package
                // memory, and the two-level policy allocates more bin
                // and group records than flat, so hierarchical may add
                // (but never remove) references.
                assert_eq!(flat.threads, hier.threads, "{kernel}.{machine}");
                assert!(hier.accesses >= flat.accesses, "{kernel}.{machine}");
                assert!(flat.threads > 0, "{kernel}.{machine}");
                assert!(flat.report.l1.misses() > 0, "{kernel}.{machine}");
                assert!(hier.blocks[0] < hier.blocks[1], "{kernel}.{machine}");
                assert_eq!(flat.blocks.len(), 1, "flat has one level");
            }
        }
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"binpolicy\""), "{json}");
        assert!(
            json.contains("\"workload\":\"matmul.r8000.flat\""),
            "{json}"
        );
        assert!(json.contains("\"l2_miss_delta_pct\":"), "{json}");
        // The hierarchical policy must actually schedule differently
        // from flat somewhere (it was a silent no-op when both levels
        // floored to the same block size).
        assert!(
            result.deltas().iter().any(|(row, _)| {
                let flat = result
                    .row(row.kernel, row.machine, Binning::Flat)
                    .expect("flat cell");
                flat.report.l1.misses() != row.report.l1.misses()
                    || flat.report.l2.misses() != row.report.l2.misses()
            }),
            "hierarchical is a no-op on every cell"
        );
    }

    /// Regression for the hierarchical-binning no-op: every kernel ×
    /// machine cell `BENCH_binpolicy.json` measures — at every shipped
    /// scale preset — must give the hierarchical policy a sub-bin block
    /// strictly finer than its parent block. (Scaled bench machines
    /// shrink only the L2, which used to floor both blocks to the same
    /// value and made `Hierarchical` byte-identical to flat.)
    #[test]
    fn binpolicy_cells_keep_hierarchical_levels_apart() {
        for (preset, scale) in [
            ("smoke", ExpScale::smoke()),
            ("default", ExpScale::default_scaled()),
            ("full", ExpScale::full()),
        ] {
            for kernel in Kernel::ALL {
                let (r8000, r10000) = machines(scale.factor(kernel));
                for machine in [&r8000, &r10000] {
                    let geo = BinGeometry::for_machine(machine);
                    assert!(
                        geo.l1_block(kernel) < geo.l2_block(kernel),
                        "{preset}: {kernel:?} on {}: l1_block {} !< l2_block {}",
                        machine.name(),
                        geo.l1_block(kernel),
                        geo.l2_block(kernel)
                    );
                    geo.hierarchical(kernel).expect("two-level geometry");
                }
            }
        }
    }

    #[test]
    fn topology_reports_all_cells() {
        let result = policy_ablation(&TOPOLOGY, &tiny_scale(), Driver::default());
        assert_eq!(result.rows.len(), 24, "4 kernels × 2 machines × 3 policies");
        for kernel in Kernel::ALL.map(Kernel::name) {
            for machine in ["r8000", "numa2"] {
                let flat = result
                    .row(kernel, machine, Binning::Flat)
                    .expect("flat cell");
                let hier = result
                    .row(kernel, machine, Binning::Hierarchical)
                    .expect("hierarchical cell");
                let tree = result
                    .row(kernel, machine, Binning::Topology)
                    .expect("topology cell");
                assert_eq!(flat.blocks.len(), 1, "{kernel}.{machine}");
                assert_eq!(hier.blocks.len(), 2, "{kernel}.{machine}");
                assert_eq!(flat.threads, hier.threads, "{kernel}.{machine}");
                assert_eq!(flat.threads, tree.threads, "{kernel}.{machine}");
                assert!(flat.report.l1.misses() > 0, "{kernel}.{machine}");
            }
            // On a two-level machine the full-tree policy must be
            // bit-identical to the two-level hierarchical policy — the
            // generalization adds depth, never changes the depth-2 case.
            let hier = result.row(kernel, "r8000", Binning::Hierarchical).unwrap();
            let tree = result.row(kernel, "r8000", Binning::Topology).unwrap();
            assert_eq!(tree.blocks.len(), 2, "{kernel}: r8000 tree depth");
            assert_eq!(tree.blocks, hier.blocks, "{kernel}");
            assert_eq!(tree.report, hier.report, "{kernel}: depth-2 equivalence");
            // On the NUMA machine the tree has four rungs.
            let deep = result.row(kernel, "numa2", Binning::Topology).unwrap();
            assert_eq!(deep.blocks.len(), 4, "{kernel}: numa2 tree depth");
        }
        // The extra rungs must actually change scheduling somewhere:
        // on the four-level machine, flat vs full-tree binning has to
        // move misses or modeled time on at least two kernels.
        let moved = result
            .deltas()
            .iter()
            .filter(|(row, deltas)| {
                row.machine == "numa2"
                    && row.policy == Binning::Topology
                    && deltas.iter().any(|&d| d != 0.0)
            })
            .count();
        assert!(
            moved >= 2,
            "full-depth binning is a no-op on {} of 4 kernels",
            4 - moved
        );
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"topology\""), "{json}");
        assert!(
            json.contains("\"workload\":\"matmul.numa2.topology\""),
            "{json}"
        );
        assert!(json.contains("\"depth\":4"), "{json}");
        assert!(
            json.contains("\"workload\":\"nbody.numa2.topology\",\"l1_miss_delta_pct\":"),
            "{json}"
        );
    }

    #[test]
    fn policy_ablations_match_under_the_sequential_driver() {
        let scale = tiny_scale();
        for spec in [&BINPOLICY, &TOPOLOGY] {
            let seq = policy_ablation(spec, &scale, Driver::Sequential);
            let par = policy_ablation(spec, &scale, Driver::Parallel);
            assert_eq!(seq.to_json(), par.to_json(), "{}", spec.experiment);
        }
    }

    /// Machine labels reach the report as data: one holding a quote, a
    /// backslash and a newline must still yield a document the parser
    /// reads back, label intact.
    #[test]
    fn hostile_machine_names_survive_the_report() {
        static HOSTILE: PolicyAblation = PolicyAblation {
            experiment: "hostile",
            machines: &[("r\"80\\00\n", MachineModel::r8000)],
            policies: &[Binning::Flat, Binning::Hierarchical],
            intro: "",
            footnote: "",
        };
        let result = policy_ablation(&HOSTILE, &tiny_scale(), Driver::default());
        let doc = json::Json::parse(&result.to_json()).expect("valid JSON");
        let json::Json::Arr(rows) = doc.get("rows").expect("rows") else {
            panic!("rows is not an array");
        };
        assert_eq!(
            rows[0].get("machine"),
            Some(&json::Json::Str("r\"80\\00\n".to_owned()))
        );
        assert_eq!(
            rows[0].get("workload"),
            Some(&json::Json::Str("matmul.r\"80\\00\n.flat".to_owned()))
        );
    }

    #[test]
    fn steal_ablation_reports_all_cells() {
        let result = steal_ablation(8, 4, 16, &[1, 2]);
        assert_eq!(result.threads, 32);
        assert_eq!(result.rows.len(), 6, "3 policies × 2 worker counts");
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            for workers in [1usize, 2] {
                let row = result.row(policy, workers).expect("cell measured");
                assert_eq!(row.report.run.threads_run, 32);
                assert_eq!(row.report.stats.workers().len(), workers);
                assert!(row.makespan_units > 0);
                assert!(row.modeled_ns > 0);
                assert!(row.threads_per_sec > 0.0);
            }
        }
        // Single-worker runs execute everything on one thread, so the
        // critical path is the whole workload regardless of policy.
        let total: u64 = (1..=8u64).map(|b| b * 16 * 4).sum();
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            assert_eq!(result.row(policy, 1).unwrap().makespan_units, total);
        }
        // With 2 workers and no stealing the assignment is the static
        // thread-count split, whose critical path is exactly the heavy
        // half of the triangular profile: bins 4..8 at 16 passes × 4
        // threads each. (Stealing policies' unit counts depend on OS
        // interleaving at this tiny scale, so only None is exact.)
        let none = result.row(StealPolicy::None, 2).unwrap();
        assert_eq!(none.report.stats.steals_attempted(), 0);
        assert_eq!(none.makespan_units, (5 + 6 + 7 + 8) * 16 * 4);
        for policy in [StealPolicy::Random, StealPolicy::LocalityAware] {
            let row = result.row(policy, 2).unwrap();
            assert!(row.makespan_units <= total, "critical path within total");
            assert!(row.makespan_units >= total / 2, "max is at least the mean");
        }
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"steal_ablation\""), "{json}");
        assert!(json.contains("\"per_worker\":["), "{json}");
        assert!(json.contains("\"makespan_units\":"), "{json}");
        assert!(json.contains("\"speedup_vs_none\":"), "{json}");
    }
}
