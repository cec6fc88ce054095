//! Reproducibility: identical seeds and configurations must produce
//! identical traces, simulations, and schedules across runs — the
//! property that makes the harness's tables stable.

use thread_locality::apps::{matmul, sor};
use thread_locality::sched::{Hints, RandomScheduler, RunMode, SchedulerConfig};
use thread_locality::sim::{MachineModel, SimReport, SimSink};
use thread_locality::trace::AddressSpace;

fn run_once() -> SimReport {
    let machine = MachineModel::r10000()
        .scaled_split(1.0, 1.0 / 32.0)
        .expect("valid scaled machine");
    let mut space = AddressSpace::new();
    let mut data = matmul::MatMulData::new(&mut space, 64, 99);
    let mut sim = SimSink::new(machine.hierarchy());
    let config = SchedulerConfig::for_cache(machine.l2_config().size(), 2).unwrap();
    let report = matmul::threaded(&mut data, config, &mut sim);
    sim.add_threads(report.threads);
    sim.finish()
}

#[test]
fn simulation_is_deterministic() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
}

#[test]
fn sor_threaded_result_is_deterministic() {
    let checksum = |seed: u64| {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, 65, seed);
        let config = SchedulerConfig::builder().block_size(4096).build().unwrap();
        let report = sor::threaded(&mut data, 5, config, &mut memtrace_null());
        report.checksum
    };
    assert_eq!(checksum(7).to_bits(), checksum(7).to_bits());
    assert_ne!(checksum(7).to_bits(), checksum(8).to_bits());
}

fn memtrace_null() -> thread_locality::trace::NullSink {
    thread_locality::trace::NullSink
}

#[test]
fn random_scheduler_is_seeded() {
    type Log = Vec<usize>;
    fn body(log: &mut Log, i: usize, _j: usize) {
        log.push(i);
    }
    let order_for = |seed: u64| {
        let mut sched = RandomScheduler::<Log>::new(seed);
        for i in 0..64 {
            sched.fork(body, i, 0, Hints::one((i as u64 * 100_000).into()));
        }
        let mut log = Log::new();
        sched.run(&mut log, RunMode::Consume);
        log
    };
    assert_eq!(order_for(3), order_for(3));
    assert_ne!(order_for(3), order_for(4));
}

#[test]
fn address_space_layout_is_stable() {
    let layout = || {
        let mut space = AddressSpace::new();
        let data = matmul::MatMulData::new(&mut space, 8, 1);
        (data.a.base(), data.b.base(), data.c.base())
    };
    assert_eq!(layout(), layout());
}
