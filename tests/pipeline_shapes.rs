//! End-to-end shape tests: the paper's qualitative claims must hold
//! when each workload is traced through the simulated hierarchy.
//!
//! These run at a small scale (seconds, not minutes); the full-ratio
//! reproduction lives in the `repro` harness.

use thread_locality::apps::{matmul, nbody, pde, sor};
use thread_locality::sched::SchedulerConfig;
use thread_locality::sim::{MachineModel, SimReport, SimSink};
use thread_locality::trace::AddressSpace;

/// A small machine keeping the paper's "data is several times the L2"
/// regime at test-friendly sizes: full L1, L2 scaled to 32 KiB.
fn test_machine() -> MachineModel {
    MachineModel::r8000()
        .scaled_split(1.0, 1.0 / 64.0)
        .expect("valid scaled machine")
}

fn sim_matmul(
    machine: &MachineModel,
    n: usize,
    f: impl FnOnce(
        &mut matmul::MatMulData,
        &mut AddressSpace,
        &mut SimSink,
    ) -> thread_locality::apps::WorkloadReport,
) -> SimReport {
    let mut space = AddressSpace::new();
    let mut data = matmul::MatMulData::new(&mut space, n, 5);
    let mut sim = SimSink::new(machine.hierarchy());
    let report = f(&mut data, &mut space, &mut sim);
    sim.add_threads(report.threads);
    sim.finish()
}

#[test]
fn matmul_threaded_beats_untiled_and_tiled_beats_threaded() {
    let machine = test_machine();
    let n = 96; // 3 x 72 KiB matrices vs 32 KiB L2
    let untiled = sim_matmul(&machine, n, |d, _s, sink| matmul::interchanged(d, sink));
    let threaded = sim_matmul(&machine, n, |d, _s, sink| {
        let config = SchedulerConfig::for_cache(machine.l2_config().size(), 2).unwrap();
        matmul::threaded(d, config, sink)
    });
    let tiles =
        matmul::TileConfig::for_caches(machine.l1_config().size(), machine.l2_config().size());
    let tiled = sim_matmul(&machine, n, |d, s, sink| {
        matmul::tiled_interchanged(d, tiles, s, sink)
    });

    // Paper Table 3's ordering: untiled >> threaded > tiled on L2
    // misses, with capacity misses dominating the untiled version.
    assert!(
        untiled.l2.misses() > 3 * threaded.l2.misses(),
        "threaded must cut L2 misses by a large factor: {} vs {}",
        untiled.l2.misses(),
        threaded.l2.misses()
    );
    assert!(
        threaded.l2.misses() >= tiled.l2.misses(),
        "tiled is at least as good as threaded: {} vs {}",
        tiled.l2.misses(),
        threaded.l2.misses()
    );
    assert!(
        untiled.classes.capacity > untiled.classes.conflict,
        "untiled misses are capacity-dominated"
    );
    // Tiling also cuts instructions and references (Table 3).
    assert!(tiled.instructions < untiled.instructions);
    assert!(tiled.data_references() < untiled.data_references());
    // Modeled time ordering follows (Table 2).
    let t_untiled = untiled.time_on(&machine).total();
    let t_threaded = threaded.time_on(&machine).total();
    let t_tiled = tiled.time_on(&machine).total();
    assert!(t_tiled < t_threaded && t_threaded < t_untiled);
}

#[test]
fn pde_fused_versions_halve_capacity_misses() {
    let machine = test_machine();
    let n = 257;
    let iters = 5;
    let run = |which: &str| -> SimReport {
        let mut space = AddressSpace::new();
        let mut data = pde::PdeData::new(&mut space, n, 3);
        let mut sim = SimSink::new(machine.hierarchy());
        let report = match which {
            "regular" => pde::regular(&mut data, iters, &mut sim),
            "cc" => pde::cache_conscious(&mut data, iters, &mut sim),
            _ => {
                let config = SchedulerConfig::for_cache(machine.l2_config().size(), 1).unwrap();
                let r = pde::threaded(&mut data, iters, config, &mut sim);
                sim.add_threads(r.threads);
                r
            }
        };
        let _ = report;
        sim.finish()
    };
    let regular = run("regular");
    let cc = run("cc");
    let threaded = run("threaded");
    // Paper Table 5: the fused versions avoid ~half the capacity misses.
    assert!(
        regular.classes.capacity as f64 > 1.7 * cc.classes.capacity as f64,
        "{} vs {}",
        regular.classes.capacity,
        cc.classes.capacity
    );
    assert!(
        regular.classes.capacity as f64 > 1.7 * threaded.classes.capacity as f64,
        "{} vs {}",
        regular.classes.capacity,
        threaded.classes.capacity
    );
    // Identical reference streams aside from ordering.
    assert_eq!(regular.data_references(), cc.data_references());
}

#[test]
fn sor_threaded_and_tiled_eliminate_capacity_misses() {
    // A gentler L2 scale: the tiled version's band working set is
    // O(n·s) and must still fit the cache, as it does in the paper's
    // configuration.
    let machine = MachineModel::r8000()
        .scaled_split(1.0, 1.0 / 16.0)
        .expect("valid scaled machine");
    let n = 251;
    let t = 10;
    let mut space = AddressSpace::new();

    let mut data = sor::SorData::new(&mut space, n, 3);
    let mut sim = SimSink::new(machine.hierarchy());
    sor::untiled(&mut data, t, &mut sim);
    let untiled = sim.finish();

    let mut data = sor::SorData::new(&mut space, n, 3);
    let mut sim = SimSink::new(machine.hierarchy());
    sor::hand_tiled(&mut data, t, 18, &mut sim);
    let tiled = sim.finish();

    let mut data = sor::SorData::new(&mut space, n, 3);
    let mut sim = SimSink::new(machine.hierarchy());
    let config = SchedulerConfig::builder()
        .block_size(machine.l2_config().size() / 4)
        .build()
        .unwrap();
    let report = sor::threaded(&mut data, t, config, &mut sim);
    sim.add_threads(report.threads);
    let threaded = sim.finish();

    // Paper Table 7: untiled is dominated by capacity misses; both
    // transformed versions remove nearly all of them.
    assert!(untiled.classes.capacity > 10 * tiled.classes.capacity.max(1));
    assert!(untiled.classes.capacity > 10 * threaded.classes.capacity.max(1));
    // Hand-tiling slashes L1 misses; threading does not (Table 7's
    // signature contrast).
    assert!(tiled.l1.misses() * 5 < untiled.l1.misses());
    assert!(threaded.l1.misses() * 2 > untiled.l1.misses());
}

#[test]
fn nbody_threading_cuts_l2_misses() {
    // Keep the paper's bodies-to-L2 pressure: enough bodies that the
    // tree dwarfs the cache, but a cache big enough that a scheduling
    // cell's subtree fits.
    let machine = MachineModel::r8000()
        .scaled_split(1.0, 1.0 / 16.0)
        .expect("valid scaled machine");
    let bodies = 6000;
    let params = nbody::NBodyParams::for_l2(machine.l2_capacity());

    let mut space = AddressSpace::new();
    let mut data = nbody::NBodyData::new(&mut space, bodies, 17);
    data.shuffle_storage_order(1);
    let snapshot = data.snapshot();
    let mut sim = SimSink::new(machine.hierarchy());
    nbody::unthreaded(&mut data, 1, params, &mut sim);
    let unthreaded = sim.finish();

    let mut data2 = nbody::NBodyData::new(&mut space, bodies, 17);
    data2.restore(&snapshot);
    let mut sim = SimSink::new(machine.hierarchy());
    let config = SchedulerConfig::for_cache(machine.l2_config().size(), 3).unwrap();
    let report = nbody::threaded(&mut data2, 1, params, config, &mut sim);
    sim.add_threads(report.threads);
    let threaded = sim.finish();

    assert!(
        unthreaded.l2.misses() as f64 > 1.5 * threaded.l2.misses() as f64,
        "{} vs {}",
        unthreaded.l2.misses(),
        threaded.l2.misses()
    );
    assert_eq!(data.snapshot().len(), data2.snapshot().len());
}

#[test]
fn block_size_beyond_cache_degrades_matmul() {
    // Figure 4's knee: blocks whose dimensions sum beyond the L2 size
    // stop protecting the bin working set.
    let machine = test_machine();
    let l2 = machine.l2_config().size();
    let n = 96;
    let run = |block: u64| -> u64 {
        sim_matmul(&machine, n, |d, _s, sink| {
            let config = SchedulerConfig::builder()
                .block_size(block)
                .build()
                .unwrap();
            matmul::threaded(d, config, sink)
        })
        .l2
        .misses()
    };
    let good = run(l2 / 2);
    let oversized = run(l2 * 8);
    assert!(
        oversized as f64 > 1.5 * good as f64,
        "block {} misses {good}, block {} misses {oversized}",
        l2 / 2,
        l2 * 8
    );
}

#[test]
fn classes_partition_misses_in_every_workload() {
    let machine = test_machine();
    let reports = [
        sim_matmul(&machine, 48, |d, _s, sink| matmul::interchanged(d, sink)),
        {
            let mut space = AddressSpace::new();
            let mut data = pde::PdeData::new(&mut space, 65, 3);
            let mut sim = SimSink::new(machine.hierarchy());
            pde::regular(&mut data, 2, &mut sim);
            sim.finish()
        },
        {
            let mut space = AddressSpace::new();
            let mut data = nbody::NBodyData::new(&mut space, 500, 3);
            let mut sim = SimSink::new(machine.hierarchy());
            nbody::unthreaded(&mut data, 1, nbody::NBodyParams::default(), &mut sim);
            sim.finish()
        },
    ];
    for report in reports {
        assert_eq!(report.classes.total(), report.l2.misses());
        assert!(report.l1.misses() <= report.l1.references());
    }
}

#[test]
fn three_level_modern_hierarchy_preserves_the_benefit() {
    // The paper's closing prediction: the technique should carry over
    // (and matter more) as the memory gap widens. Shape-check it on a
    // scaled three-level modern machine.
    let n = 96;
    let data_bytes = (3 * n * n * 8) as f64;
    let modern = MachineModel::modern();
    let llc = modern
        .hierarchy_config()
        .l3
        .expect("modern machine has an L3")
        .size() as f64;
    let machine = modern
        .scaled_split(1.0, data_bytes / 12.0 / llc)
        .expect("valid scaled machine");
    let untiled = sim_matmul(&machine, n, |d, _s, sink| matmul::interchanged(d, sink));
    let threaded = sim_matmul(&machine, n, |d, _s, sink| {
        let llc = machine.hierarchy_config().l3.expect("L3").size();
        let config = SchedulerConfig::for_cache(llc, 2).unwrap();
        matmul::threaded(d, config, sink)
    });
    assert!(
        untiled.l3.is_some() && threaded.l3.is_some(),
        "L3 simulated"
    );
    assert!(
        untiled.llc_misses() > 2 * threaded.llc_misses(),
        "three-level LLC misses: {} vs {}",
        untiled.llc_misses(),
        threaded.llc_misses()
    );
    assert_eq!(untiled.classes.total(), untiled.llc_misses());
    let speedup = untiled.time_on(&machine).total() / threaded.time_on(&machine).total();
    assert!(speedup > 1.5, "modern modeled speedup {speedup}");
}
