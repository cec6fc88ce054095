//! The computations behind every experiment in the registry, returning
//! structured results (`registry` runs them, `print` renders them).
//!
//! Every simulated number of the paper's Tables 2–9 and Figure 4, and
//! every row of the `binpolicy` and `topology` ablations, is the record
//! of one [`CellKey`], which [`simulate`] alone turns into a workload
//! run. One [`Runner`] per `repro` invocation keeps the records by key,
//! so an experiment reads the cells another already simulated (Tables
//! 3/5/7 are the R8000 cells of Tables 2/4/6) and simulates the rest.

use crate::ExpScale;
use cachesim::{MachineModel, SimReport, SimSink, TimeBreakdown};
use locality_sched::{
    prev_power_of_two, Hints, ParRunReport, ParScheduler, RunMode, Scheduler, SchedulerConfig,
    StealPolicy, TopologyPolicy,
};
use memtrace::AddressSpace;
use probe::json;
use std::time::Instant;
use workloads::{matmul, nbody, pde, sor, BinGeometry, Kernel};

// ---------------------------------------------------------------------
// Keyed simulation cells
// ---------------------------------------------------------------------

/// A machine a cell simulates on, before scaling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// The paper's SGI R8000.
    R8000,
    /// The paper's SGI R10000.
    R10000,
    /// The four-level NUMA bench machine.
    Numa2,
}

impl Machine {
    /// The machine at a workload's scale factor (see [`scaled`]).
    pub fn scaled(self, factor: f64) -> MachineModel {
        let model = match self {
            Machine::R8000 => MachineModel::r8000(),
            Machine::R10000 => MachineModel::r10000(),
            Machine::Numa2 => MachineModel::numa2(),
        };
        scaled(model, factor)
    }
}

/// `kernel`'s versions in its paper table's row order, by the names the
/// rows print. The threaded version is last.
pub fn versions(kernel: Kernel) -> &'static [&'static str] {
    match kernel {
        Kernel::MatMul => &[
            "matmul/interchanged",
            "matmul/transposed",
            "matmul/tiled-interchanged",
            "matmul/tiled-transposed",
            "matmul/threaded",
        ],
        Kernel::Pde => &["pde/regular", "pde/cache-conscious", "pde/threaded"],
        Kernel::Sor => &["sor/untiled", "sor/hand-tiled", "sor/threaded"],
        Kernel::NBody => &["nbody/unthreaded", "nbody/threaded"],
    }
}

/// One simulation: a kernel version on a scaled machine at a problem
/// size. Only [`CellKey::new`] and [`CellKey::threaded`] build one, so
/// `binning` is set exactly on the threaded version. The record, a
/// [`SimReport`], is a pure function of the key: the workloads seed
/// their data and neither they nor the simulator read the clock or host
/// addresses, so equal keys simulate to equal records wherever and in
/// whatever order they run.
#[derive(Clone, Debug, PartialEq)]
pub struct CellKey {
    /// The kernel.
    kernel: Kernel,
    /// The version, one of [`versions`]`(kernel)`.
    version: &'static str,
    /// The machine, scaled by `factor`.
    machine: Machine,
    /// The machine's L2 scale factor (see [`scaled`]).
    factor: f64,
    /// Problem dimension: matrix side, grid side or body count.
    n: usize,
    /// PDE relaxations, SOR sweeps or N-body timesteps (1 for matmul).
    iters: usize,
    /// SOR's hand-tile size (0 for the other kernels).
    tile: usize,
    /// The threaded version's scheduler config and block ladder, finest
    /// level first; `None` for every other version.
    binning: Option<(SchedulerConfig, Vec<u64>)>,
}

impl CellKey {
    /// `version` of `kernel` at `scale`'s problem size, on `machine`
    /// scaled by the kernel's factor, the N-body for `nbody_iters`
    /// timesteps. The threaded version bins by the paper's flat policy,
    /// one L2-sized block (`BinGeometry::flat_config`).
    pub fn new(
        kernel: Kernel,
        version: &'static str,
        machine: Machine,
        scale: &ExpScale,
        nbody_iters: usize,
    ) -> Self {
        let factor = scale.factor(kernel);
        let (n, iters, tile) = match kernel {
            Kernel::MatMul => (scale.matmul_n, 1, 0),
            Kernel::Pde => (scale.pde_n, scale.pde_iters, 0),
            Kernel::Sor => (scale.sor_n, scale.sor_t, scale.sor_tile),
            Kernel::NBody => (scale.nbody_n, nbody_iters, 0),
        };
        let binning = (versions(kernel).last() == Some(&version)).then(|| {
            let geo = BinGeometry::for_machine(&machine.scaled(factor));
            (geo.flat_config(kernel), vec![geo.l2_block(kernel)])
        });
        CellKey {
            kernel,
            version,
            machine,
            factor,
            n,
            iters,
            tile,
            binning,
        }
    }

    /// `kernel`'s threaded version at `scale` on `machine`, binned by
    /// `config` and the block `ladder` (finest first); the N-body runs
    /// one timestep, as in Table 9.
    pub fn threaded(
        kernel: Kernel,
        machine: Machine,
        scale: &ExpScale,
        config: SchedulerConfig,
        ladder: Vec<u64>,
    ) -> Self {
        let threaded = *versions(kernel).last().expect("a threaded version");
        CellKey {
            binning: Some((config, ladder)),
            ..CellKey::new(kernel, threaded, machine, scale, 1)
        }
    }
}

/// Simulates `key`: the only place a cell's workload data, seed and
/// version are built. Panics on a key no version matches (a `binning`
/// on any but the threaded version, or none there) or a bad ladder.
pub fn simulate(key: &CellKey) -> SimReport {
    let machine = key.machine.scaled(key.factor);
    let (n, iters) = (key.n, key.iters);
    let tiles =
        matmul::TileConfig::for_caches(machine.l1_config().size(), machine.l2_config().size());
    let params = nbody::NBodyParams::for_l2(machine.l2_capacity());
    let binned = key.binning.as_ref().map(|(config, ladder)| {
        let policy = TopologyPolicy::uniform(ladder, false).expect("a valid block ladder");
        (*config, policy)
    });
    let matrices = |space: &mut AddressSpace| matmul::MatMulData::new(space, n, 42);
    let grid = |space: &mut AddressSpace| pde::PdeData::new(space, n, 7);
    let array = |space: &mut AddressSpace| sor::SorData::new(space, n, 99);
    let bodies = |space: &mut AddressSpace| nbody::NBodyData::new(space, n, 2024);
    let (report, sim) = run_on(machine.hierarchy(), |sp, s| match (key.version, binned) {
        ("matmul/interchanged", None) => matmul::interchanged(&mut matrices(sp), s),
        ("matmul/transposed", None) => matmul::transposed(&mut matrices(sp), s),
        ("matmul/tiled-interchanged", None) => {
            matmul::tiled_interchanged(&mut matrices(sp), tiles, sp, s)
        }
        ("matmul/tiled-transposed", None) => {
            matmul::tiled_transposed(&mut matrices(sp), tiles, sp, s)
        }
        ("matmul/threaded", Some((config, policy))) => {
            matmul::threaded_with(&mut matrices(sp), config, policy, s)
        }
        ("pde/regular", None) => pde::regular(&mut grid(sp), iters, s),
        ("pde/cache-conscious", None) => pde::cache_conscious(&mut grid(sp), iters, s),
        ("pde/threaded", Some((config, policy))) => {
            pde::threaded_with(&mut grid(sp), iters, config, policy, s)
        }
        ("sor/untiled", None) => sor::untiled(&mut array(sp), iters, s),
        ("sor/hand-tiled", None) => sor::hand_tiled(&mut array(sp), iters, key.tile, s),
        ("sor/threaded", Some((config, policy))) => {
            sor::threaded_with(&mut array(sp), iters, config, policy, s)
        }
        ("nbody/unthreaded", None) => nbody::unthreaded(&mut bodies(sp), iters, params, s),
        ("nbody/threaded", Some((config, policy))) => {
            nbody::threaded_with(&mut bodies(sp), iters, params, config, policy, s)
        }
        _ => panic!("no such cell: {key:?}"),
    });
    assert_eq!(report.name, key.version, "{key:?}");
    sim
}

/// Runs one workload on `hierarchy`: a fresh address space and sink
/// for `run`, its threads accounted, the report collected.
pub(crate) fn run_on(
    hierarchy: cachesim::Hierarchy,
    run: impl FnOnce(&mut AddressSpace, &mut SimSink) -> workloads::WorkloadReport,
) -> (workloads::WorkloadReport, SimReport) {
    let mut space = AddressSpace::new();
    let mut sim = SimSink::new(hierarchy);
    let report = run(&mut space, &mut sim);
    sim.add_threads(report.threads);
    (report, sim.finish())
}

/// The records of one `repro` invocation, by key. Every experiment asks
/// [`run`](Runner::run) for the keys it projects; only the keys no
/// earlier request recorded are simulated.
#[derive(Debug, Default)]
pub struct Runner {
    records: Vec<(CellKey, SimReport)>,
}

impl Runner {
    /// The records of `keys`, in order. The keys not yet recorded are
    /// simulated once each, as one batch, each on its own scoped thread.
    pub fn run(&mut self, keys: &[CellKey]) -> Vec<SimReport> {
        let mut missing: Vec<&CellKey> = Vec::new();
        for key in keys {
            if self.record(key).is_none() && !missing.contains(&key) {
                missing.push(key);
            }
        }
        let simulated: Vec<SimReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = missing
                .iter()
                .map(|&key| scope.spawn(move || simulate(key)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("simulation cell panicked"))
                .collect()
        });
        self.records
            .extend(missing.into_iter().cloned().zip(simulated));
        keys.iter()
            .map(|key| self.record(key).expect("every key is recorded"))
            .collect()
    }

    /// How many distinct keys this runner has simulated.
    pub fn simulated(&self) -> usize {
        self.records.len()
    }

    fn record(&self, key: &CellKey) -> Option<SimReport> {
        self.records
            .iter()
            .find(|(recorded, _)| recorded == key)
            .map(|&(_, report)| report)
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
    pub version: &'static str,
    /// Modeled time on the (scaled) R8000.
    pub r8000: TimeBreakdown,
    /// Modeled time on the (scaled) R10000.
    pub r10000: TimeBreakdown,
}

/// One row of a cache-miss table.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRow {
    /// Version name.
    pub version: &'static str,
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

/// A timing table (Tables 2/4/6/8): every version of `kernel` on both
/// scaled machines, modeled seconds.
pub fn time_rows(kernel: Kernel, scale: &ExpScale, runner: &mut Runner) -> Vec<TimeRow> {
    let mut keys = Vec::new();
    for machine in [Machine::R8000, Machine::R10000] {
        for &version in versions(kernel) {
            let key = CellKey::new(kernel, version, machine, scale, scale.nbody_iters);
            keys.push(key);
        }
    }
    let reports = runner.run(&keys);
    let time = |i: usize| reports[i].time_on(&keys[i].machine.scaled(keys[i].factor));
    let half = keys.len() / 2;
    (0..half)
        .map(|i| TimeRow {
            version: keys[i].version,
            r8000: time(i),
            r10000: time(half + i),
        })
        .collect()
}

/// A reference/miss table (Tables 3/5/7/9): the `wanted` versions of
/// `kernel` (every version when empty) simulated on the scaled R8000 —
/// the N-body for one iteration, as in the paper.
pub fn miss_rows(
    kernel: Kernel,
    scale: &ExpScale,
    wanted: &[&str],
    runner: &mut Runner,
) -> Vec<MissRow> {
    let keys: Vec<CellKey> = versions(kernel)
        .iter()
        .filter(|version| wanted.is_empty() || wanted.contains(version))
        .map(|&version| CellKey::new(kernel, version, Machine::R8000, scale, 1))
        .collect();
    keys.iter()
        .zip(runner.run(&keys))
        .map(|(key, report)| MissRow {
            version: key.version,
            report,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Steal-policy ablation (virtual time)
// ---------------------------------------------------------------------

/// Scheduling-space block size used by the steal ablation's hints: one
/// bin per 4 KB block.
const STEAL_BLOCK: u64 = 4096;

/// The steal-policy ablation: every [`StealPolicy`] at each worker
/// count, on a workload whose per-thread cost the static partition
/// cannot predict. Each row is the exact [`ParRunReport`] of one
/// (policy, workers) replay; its headline is the makespan in work
/// units (window passes).
#[derive(Clone, Debug)]
pub struct StealAblationResult {
    /// Bins in the schedule.
    pub bins: usize,
    /// Threads per run.
    pub threads: u64,
    /// Worker counts replayed.
    pub worker_counts: Vec<usize>,
    /// One replay per (workers, policy), grouped by worker count.
    pub rows: Vec<ParRunReport>,
}

impl StealAblationResult {
    /// The replay of one (policy, workers) combination.
    pub fn row(&self, policy: StealPolicy, workers: usize) -> Option<&ParRunReport> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.workers == workers)
    }

    /// Makespan speedup of `policy` over [`StealPolicy::None`] at
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

    /// Serializes the ablation — each row a full [`ParRunReport`] with
    /// per-worker counters, plus its speedup over `none` — as one JSON
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
                            row.write_fields(w);
                            w.key("speedup_vs_none")
                                .float(self.speedup_vs_none(row.policy, row.workers), 3);
                        });
                    }
                });
            });
        })
    }
}

/// Replays every steal policy at each worker count on the windowed-sum
/// schedule: `bins` bins of `threads_per_bin` threads, where every
/// thread of bin b makes `(b + 1) × passes_scale` passes over its
/// bin's window. A partition balanced by *thread count* — the static
/// handout — therefore misjudges *work* by up to 2×, which is exactly
/// the imbalance stealing exists to absorb. The replay charges each
/// thread its pass count, so no body runs and every row is exact.
pub fn steal_ablation(
    bins: usize,
    threads_per_bin: usize,
    passes_scale: usize,
    worker_counts: &[usize],
) -> StealAblationResult {
    let config = SchedulerConfig::builder()
        .block_size(STEAL_BLOCK)
        .build()
        .expect("power-of-two block");
    let mut rows = Vec::new();
    for &workers in worker_counts {
        for policy in StealPolicy::ALL {
            let mut sched: ParScheduler<()> = ParScheduler::new(config);
            for bin in 0..bins {
                let hints = Hints::one((bin as u64 * STEAL_BLOCK).into());
                for thread in 0..threads_per_bin {
                    sched.fork(|_, _, _| {}, thread, bin, hints);
                }
            }
            rows.push(sched.replay(workers, policy, |_, bin| ((bin + 1) * passes_scale) as u64));
        }
    }
    StealAblationResult {
        bins,
        threads: (bins * threads_per_bin) as u64,
        worker_counts: worker_counts.to_vec(),
        rows,
    }
}

/// The steal ablation at a table scale: the pass scale tracks
/// `matmul_n`, so `--smoke`/`--full` shrink/grow the work as for the
/// tables.
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

/// One policy ablation as data: which machines, which policies (flat
/// first — every other policy is compared against it), and the prose
/// its printed table carries.
#[derive(Debug)]
pub struct PolicyAblation {
    /// The report's `experiment` tag.
    pub experiment: &'static str,
    /// The machines by row label; each is scaled by the kernel's table
    /// factor.
    pub machines: &'static [(&'static str, Machine)],
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
        ("r8000", Machine::R8000),
        ("r10000", Machine::R10000),
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
        ("r8000", Machine::R8000),
        ("numa2", Machine::Numa2),
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
    /// Full simulation report for this cell: its threads, data
    /// references and misses.
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
                            w.key("threads").uint(row.report.threads);
                            w.key("accesses").uint(row.report.data_references());
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
    runner: &mut Runner,
) -> PolicyAblationResult {
    let mut keys = Vec::new();
    let mut labels = Vec::new();
    for kernel in Kernel::ALL {
        for &(label, machine) in spec.machines {
            let geo = BinGeometry::for_machine(&machine.scaled(scale.factor(kernel)));
            for &policy in spec.policies {
                let ladder = match policy {
                    Binning::Flat => vec![geo.l2_block(kernel)],
                    Binning::Hierarchical => vec![geo.l1_block(kernel), geo.l2_block(kernel)],
                    Binning::Topology => geo.level_blocks(kernel),
                };
                labels.push((label, policy, ladder.clone()));
                let config = geo.flat_config(kernel);
                keys.push(CellKey::threaded(kernel, machine, scale, config, ladder));
            }
        }
    }
    let rows = keys
        .iter()
        .zip(labels)
        .zip(runner.run(&keys))
        .map(|((key, (label, policy, blocks)), report)| {
            let kernel = key.kernel.name();
            let modeled_s = report.time_on(&key.machine.scaled(key.factor)).total();
            PolicyRow {
                workload: format!("{kernel}.{label}.{}", policy.name()),
                kernel,
                machine: label,
                policy,
                blocks,
                modeled_ns: (modeled_s * 1e9).round() as u64,
                report,
            }
        })
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

/// Figure 4: block-size sensitivity sweep, one batch per application.
pub fn figure4(scale: &ExpScale, runner: &mut Runner) -> Figure4Result {
    let block_sizes: Vec<u64> = crate::paper::figure4::BLOCK_SIZES.to_vec();
    let series = Kernel::ALL
        .into_iter()
        .map(|kernel| {
            let factor = scale.factor(kernel);
            let keys: Vec<CellKey> = block_sizes
                .iter()
                .map(|&full_block| {
                    let block = prev_power_of_two(((full_block as f64 * factor) as u64).max(64));
                    let config = SchedulerConfig::builder()
                        .block_size(block)
                        .build()
                        .expect("power-of-two block");
                    CellKey::threaded(kernel, Machine::R8000, scale, config, vec![block])
                })
                .collect();
            let machine = Machine::R8000.scaled(factor);
            let times = runner
                .run(&keys)
                .iter()
                .map(|report| report.time_on(&machine).total())
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
        let result = policy_ablation(&BINPOLICY, &tiny_scale(), &mut Runner::default());
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
                let (flat_refs, hier_refs) =
                    (flat.report.data_references(), hier.report.data_references());
                assert_eq!(
                    flat.report.threads, hier.report.threads,
                    "{kernel}.{machine}"
                );
                assert!(hier_refs >= flat_refs, "{kernel}.{machine}");
                assert!(flat.report.threads > 0, "{kernel}.{machine}");
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
                for machine in [Machine::R8000, Machine::R10000] {
                    let machine = machine.scaled(scale.factor(kernel));
                    let geo = BinGeometry::for_machine(&machine);
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
        let result = policy_ablation(&TOPOLOGY, &tiny_scale(), &mut Runner::default());
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
                assert_eq!(
                    flat.report.threads, hier.report.threads,
                    "{kernel}.{machine}"
                );
                assert_eq!(
                    flat.report.threads, tree.report.threads,
                    "{kernel}.{machine}"
                );
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

    /// Every table version of every kernel on both paper machines, in
    /// table order.
    fn table_keys(scale: &ExpScale) -> Vec<CellKey> {
        let mut keys = Vec::new();
        for kernel in Kernel::ALL {
            for machine in [Machine::R8000, Machine::R10000] {
                for &version in versions(kernel) {
                    keys.push(CellKey::new(
                        kernel,
                        version,
                        machine,
                        scale,
                        scale.nbody_iters,
                    ));
                }
            }
        }
        keys
    }

    /// A table simulated as one parallel batch reads the same as one
    /// whose keys were simulated one request, and so one thread, at a
    /// time.
    #[test]
    fn parallel_driver_matches_sequential_rows() {
        let scale = ExpScale::smoke();
        let mut sequential = Runner::default();
        for machine in [Machine::R8000, Machine::R10000] {
            for &version in versions(Kernel::Pde) {
                let key = CellKey::new(Kernel::Pde, version, machine, &scale, scale.nbody_iters);
                sequential.run(&[key]);
            }
        }
        assert_eq!(sequential.simulated(), 6);
        assert_eq!(
            time_rows(Kernel::Pde, &scale, &mut Runner::default()),
            time_rows(Kernel::Pde, &scale, &mut sequential),
        );
        assert_eq!(sequential.simulated(), 6);
    }

    /// The runner's records come back in key order, whatever order the
    /// batch's threads finish in, and are exactly what each key
    /// simulates to on its own; a later request in another order, naming
    /// some keys twice, is answered from the records in its own order.
    #[test]
    fn run_cells_preserves_cell_order() {
        let scale = tiny_scale();
        let keys = table_keys(&scale);
        let direct: Vec<SimReport> = keys.iter().map(simulate).collect();
        let mut runner = Runner::default();
        assert_eq!(runner.run(&keys), direct);
        let order: Vec<usize> = (0..keys.len()).rev().chain([0, 3, 0]).collect();
        let reordered: Vec<CellKey> = order.iter().map(|&i| keys[i].clone()).collect();
        let expect: Vec<SimReport> = order.iter().map(|&i| direct[i]).collect();
        assert_eq!(runner.run(&reordered), expect);
        assert_eq!(runner.simulated(), keys.len());
    }

    /// Both policy ablations read the same on a fresh runner as on one
    /// already holding the tables' cells (their flat rows repeat the
    /// tables' threaded cells, and `topology`'s R8000 rows repeat
    /// `binpolicy`'s), and every record the shared runner holds is what
    /// its key simulates to on its own.
    #[test]
    fn policy_ablations_match_under_the_sequential_driver() {
        let scale = tiny_scale();
        let mut shared = Runner::default();
        shared.run(&table_keys(&scale));
        for spec in [&BINPOLICY, &TOPOLOGY] {
            let alone = policy_ablation(spec, &scale, &mut Runner::default());
            let after = policy_ablation(spec, &scale, &mut shared);
            assert_eq!(alone.to_json(), after.to_json(), "{}", spec.experiment);
        }
        for (key, record) in &shared.records {
            assert_eq!(*record, simulate(key), "{key:?}");
        }
    }

    /// Machine labels reach the report as data: one holding a quote, a
    /// backslash and a newline must still yield a document the parser
    /// reads back, label intact.
    #[test]
    fn hostile_machine_names_survive_the_report() {
        static HOSTILE: PolicyAblation = PolicyAblation {
            experiment: "hostile",
            machines: &[("r\"80\\00\n", Machine::R8000)],
            policies: &[Binning::Flat, Binning::Hierarchical],
            intro: "",
            footnote: "",
        };
        let result = policy_ablation(&HOSTILE, &tiny_scale(), &mut Runner::default());
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
        for policy in StealPolicy::ALL {
            for workers in [1usize, 2] {
                let row = result.row(policy, workers).expect("cell replayed");
                assert_eq!(row.run.threads_run, 32);
                assert_eq!(row.per_worker.len(), workers);
            }
        }
        // Bin b costs 64 (b + 1) units: 16 passes × 4 threads each.
        // A single worker runs the whole workload under every policy.
        let total: u64 = (1..=8u64).map(|b| b * 16 * 4).sum();
        for policy in StealPolicy::ALL {
            assert_eq!(result.row(policy, 1).unwrap().makespan_units, total);
        }
        // With 2 workers and no stealing the assignment is the static
        // thread-count split, whose makespan is the heavy half of the
        // triangular profile: bins 4..8.
        let none = result.row(StealPolicy::None, 2).unwrap();
        assert_eq!(none.total().steals_attempted, 0);
        assert_eq!(none.makespan_units, (5 + 6 + 7 + 8) * 16 * 4);
        // Stealing, worker 0 finishes bins 0..4 at t = 640 while worker
        // 1 runs bin 5, and takes the back half of its backlog (bin 7);
        // both then finish at t = 1152, half the total. Each policy
        // takes the same step: worker 1 is the only victim.
        for policy in [StealPolicy::Random, StealPolicy::LocalityAware] {
            let row = result.row(policy, 2).unwrap();
            let units: Vec<u64> = row.per_worker.iter().map(|w| w.units).collect();
            assert_eq!(units, [total / 2, total / 2], "{policy}");
            assert_eq!(row.makespan_units, total / 2, "{policy}");
            assert_eq!(row.per_worker[0].steals_succeeded, 1, "{policy}");
            assert_eq!(row.per_worker[1].steals_succeeded, 0, "{policy}");
        }
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"steal_ablation\""), "{json}");
        assert!(json.contains("\"per_worker\":["), "{json}");
        assert!(json.contains("\"makespan_units\":"), "{json}");
        assert!(json.contains("\"speedup_vs_none\":"), "{json}");
    }

    #[test]
    fn stealing_beats_the_static_partition_at_smoke_scale() {
        let result = steal(&ExpScale::smoke());
        // The static partition's makespans, which never depended on
        // how steals race.
        for (workers, makespan) in [(1, 225_792), (2, 168_192), (4, 97_920), (8, 52_416)] {
            let none = result.row(StealPolicy::None, workers).unwrap();
            assert_eq!(none.makespan_units, makespan, "workers = {workers}");
        }
        for workers in [2, 4, 8] {
            let none = result.row(StealPolicy::None, workers).unwrap();
            for policy in [StealPolicy::Random, StealPolicy::LocalityAware] {
                let row = result.row(policy, workers).unwrap();
                assert!(
                    row.makespan_units < none.makespan_units,
                    "{policy} at {workers} workers: {} vs none {}",
                    row.makespan_units,
                    none.makespan_units
                );
            }
        }
    }
}
