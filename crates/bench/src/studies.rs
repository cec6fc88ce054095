//! Studies beyond the paper's tables, each one registry name:
//!
//! * `ablation` — the scheduler's design choices measured in simulated
//!   cache misses: symmetric-hint folding (§2.3's 50% bin saving) and
//!   N-body hint dimensionality (§6: "limited to 3 address hints"). The SMP
//!   steal policy (§7's future work) is the `steal` experiment.
//! * `modern` — does 1996's locality scheduling still matter on a
//!   modern memory hierarchy? The paper closes predicting "latency
//!   tolerance techniques such as thread scheduling will become more
//!   important as the performance gap between memory and CPU
//!   increases"; this re-runs the headline workloads on a three-level
//!   2020s machine model (32 KB L1 / 512 KB L2 / 32 MB L3, 80 ns DRAM)
//!   scaled against the same data : LLC ratios.

use crate::experiments::{run_on, scaled};
use crate::fmt::TextTable;
use crate::ExpScale;
use cachesim::{MachineModel, SimReport, SimSink};
use locality_sched::{Hints, RunMode, Scheduler, SchedulerConfig};
use memtrace::{AddressSpace, MatrixLayout, TraceSink, TracedMatrix};
use workloads::{matmul, nbody, sor};

/// The `ablation` study (sections 1–2).
pub fn ablation(scale: &ExpScale) {
    symmetric_ablation();
    hint_dims_ablation(scale);
}

fn block_config(block: u64) -> SchedulerConfig {
    SchedulerConfig::builder()
        .block_size(block)
        .build()
        .expect("valid config")
}

/// What the pairwise kernel's threads share: the matrix they read and
/// the simulator their references go to.
struct PairCtx {
    m: TracedMatrix,
    sim: SimSink,
}

/// Thread (i, j) of the pairwise kernel: the dot product of columns i
/// and j.
fn pair_dot(ctx: &mut PairCtx, i: usize, j: usize) {
    let mut acc = 0.0;
    for k in 0..ctx.m.rows() {
        acc += ctx.m.get(k, i, &mut ctx.sim) * ctx.m.get(k, j, &mut ctx.sim);
    }
    ctx.sim.instructions(4 * ctx.m.rows() as u64);
    std::hint::black_box(acc);
}

/// A pairwise-interaction kernel where both hint orders occur: task
/// (i, j) reads columns i and j of the same matrix, forked for all
/// ordered pairs — the situation §2.3's symmetric folding targets.
fn symmetric_ablation() {
    println!("Ablation 1: symmetric-hint folding (pairwise column kernel)\n");
    let machine = scaled(MachineModel::r8000(), 1.0 / 32.0);
    let n = 96usize;
    let mut table = TextTable::new(vec!["folding", "bins", "L2 misses", "modeled s"]);
    for (name, symmetric) in [("off", false), ("on (paper's 50% saving)", true)] {
        let mut space = AddressSpace::new();
        let m = TracedMatrix::from_fn(&mut space, n, n, MatrixLayout::ColMajor, |i, j| {
            (i + j) as f64
        });
        let config = SchedulerConfig::builder()
            .block_size(machine.l2_config().size() / 2)
            .symmetric(symmetric)
            .build()
            .expect("valid config");
        let mut sched = Scheduler::<PairCtx>::new(config);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    sched.fork(pair_dot, i, j, Hints::two(m.col_addr(i), m.col_addr(j)));
                }
            }
        }
        let bins = sched.bins();
        let mut ctx = PairCtx {
            m,
            sim: SimSink::new(machine.hierarchy()),
        };
        let stats = sched.run(&mut ctx, RunMode::Consume);
        ctx.sim.add_threads(stats.threads_run);
        let r = ctx.sim.finish();
        table.row(vec![
            name.into(),
            bins.to_string(),
            r.l2.misses().to_string(),
            format!("{:.3}", r.time_on(&machine).total()),
        ]);
    }
    print!("{}", table.render());
    println!("\nFolding halves the bin count (same data both orders) and keeps\nthe per-bin working set identical, so misses stay flat or improve.\n");
}

fn hint_dims_ablation(scale: &ExpScale) {
    println!("Ablation 2: N-body hint dimensionality (one timestep, scaled R8000)\n");
    let machine = scaled(MachineModel::r8000(), scale.nbody_factor);
    let mut table = TextTable::new(vec!["hints", "bins", "L2 misses", "L2 capacity"]);
    for dims in [1usize, 2, 3] {
        let params = nbody::NBodyParams {
            hint_dims: dims,
            ..nbody::NBodyParams::for_l2(machine.l2_capacity())
        };
        let config = block_config(machine.l2_config().size() / 4);
        let (report, r) = run_on(machine.hierarchy(), |space, sim| {
            let mut data = nbody::NBodyData::new(space, scale.nbody_n, 2024);
            data.shuffle_storage_order(1);
            nbody::threaded(&mut data, 1, params, config, sim)
        });
        table.row(vec![
            format!("{dims}-D"),
            report.sched.map_or(0, |s| s.bins()).to_string(),
            r.l2.misses().to_string(),
            r.classes.capacity.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nOne coordinate clusters bodies into slabs; three cluster them into\ncubes — the tighter the spatial cell, the smaller each bin's tree\nworking set.");
}

/// Capacity of `machine`'s last-level cache.
fn llc(machine: &MachineModel) -> u64 {
    machine
        .hierarchy_config()
        .l3
        .map_or_else(|| machine.l2_config().size(), |c| c.size())
}

/// Untiled (interchanged) or threaded matmul on `machine`, the threaded
/// version binned by the package default for the last-level cache.
fn run_matmul(machine: &MachineModel, n: usize, threaded: bool) -> SimReport {
    run_on(machine.hierarchy(), |space, sim| {
        let mut data = matmul::MatMulData::new(space, n, 42);
        if threaded {
            let config = SchedulerConfig::for_cache(llc(machine), 2).expect("valid config");
            matmul::threaded(&mut data, config, sim)
        } else {
            matmul::interchanged(&mut data, sim)
        }
    })
    .1
}

fn run_sor(machine: &MachineModel, scale: &ExpScale, threaded: bool) -> SimReport {
    run_on(machine.hierarchy(), |space, sim| {
        let mut data = sor::SorData::new(space, scale.sor_n, 99);
        if threaded {
            let config = block_config((llc(machine) / 4).next_power_of_two());
            sor::threaded(&mut data, scale.sor_t, config, sim)
        } else {
            sor::untiled(&mut data, scale.sor_t, sim)
        }
    })
    .1
}

/// `"N.Nx"`: how many times fewer misses `threaded` takes than
/// `untiled`.
fn reduction(untiled: u64, threaded: u64) -> String {
    format!("{:.1}x", untiled as f64 / threaded.max(1) as f64)
}

/// Prints one untiled-vs-threaded table of last-level misses over
/// `machines`, with an LLC geometry column when `show_llc`.
fn llc_table(
    machines: [&MachineModel; 2],
    show_llc: bool,
    run: impl Fn(&MachineModel, bool) -> SimReport,
) {
    let mut header = vec!["machine"];
    if show_llc {
        header.push("LLC");
    }
    header.extend([
        "untiled LLC misses",
        "threaded LLC misses",
        "miss reduction",
        "modeled speedup",
    ]);
    let mut t = TextTable::new(header);
    for machine in machines {
        let untiled = run(machine, false);
        let threaded = run(machine, true);
        let mut cells = vec![machine.name().to_owned()];
        if show_llc {
            let config = machine.hierarchy_config();
            cells.push(config.l3.unwrap_or(config.l2).to_string());
        }
        cells.extend([
            untiled.llc_misses().to_string(),
            threaded.llc_misses().to_string(),
            reduction(untiled.llc_misses(), threaded.llc_misses()),
            format!(
                "{:.2}x",
                untiled.time_on(machine).total() / threaded.time_on(machine).total()
            ),
        ]);
        t.row(cells);
    }
    print!("{}", t.render());
}

/// The `modern` study.
pub fn modern(scale: &ExpScale) {
    // Scale the modern machine so the LLC sees the same pressure the
    // paper's 2 MB L2 saw (ratio preserved via the matmul factor).
    let full_llc_ratio = (3 * 1024 * 1024 * 8) as f64 / (2u64 << 20) as f64; // paper: 12
    let data = (3 * scale.matmul_n * scale.matmul_n * 8) as u64;
    let target_llc = (data as f64 / full_llc_ratio) as u64;
    let modern_full = MachineModel::modern();
    let modern = scaled(
        modern_full.clone(),
        target_llc as f64 / llc(&modern_full) as f64,
    );
    let r8000 = scaled(MachineModel::r8000(), scale.matmul_factor);

    println!(
        "Locality scheduling, 1996 vs a modern hierarchy (matmul n = {})\n",
        scale.matmul_n
    );
    llc_table([&r8000, &modern], true, |machine, threaded| {
        run_matmul(machine, scale.matmul_n, threaded)
    });

    println!("\nSOR (n = {}, t = {}):\n", scale.sor_n, scale.sor_t);
    let modern_sor = scaled(
        modern_full.clone(),
        (scale.sor_n * scale.sor_n * 8) as f64 / 16.0 / llc(&modern_full) as f64,
    );
    let r8000_sor = scaled(MachineModel::r8000(), scale.sor_factor);
    llc_table([&r8000_sor, &modern_sor], false, |machine, threaded| {
        run_sor(machine, scale, threaded)
    });

    println!("\nThe miss structure carries over to three levels, and the modeled");
    println!("gain GROWS: a DRAM miss now forfeits ~1300 instruction slots");
    println!("(80 ns x 4 GHz x 4-wide) versus ~80 on the 1996 R8000, so saved");
    println!("misses buy more than they ever did — the paper's closing");
    println!("prediction (\"latency tolerance techniques ... will become more");
    println!("important as the performance gap increases\"), quantified.");
}
