//! The paper's irregular case (§4.4): Barnes–Hut N-body, where no
//! compile-time information exists and only runtime hints can recover
//! locality — threads are hinted by the 3-D position of their body.
//!
//! Run with: `cargo run --release --example nbody_sim`

use thread_locality::apps::nbody;
use thread_locality::sched::SchedulerConfig;
use thread_locality::sim::{MachineModel, SimSink};
use thread_locality::trace::AddressSpace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bodies = 8_000;
    let machine = MachineModel::r8000()
        .scaled_split(1.0, 1.0 / 8.0)
        .expect("valid scaled machine");
    println!("machine: {machine}");
    println!("problem: {bodies} bodies (Plummer cluster), 2 timesteps\n");

    let params = nbody::NBodyParams::for_l2(machine.l2_capacity());

    // Unthreaded: bodies processed in (shuffled) storage order.
    let mut space = AddressSpace::new();
    let mut data = nbody::NBodyData::new(&mut space, bodies, 11);
    data.shuffle_storage_order(5);
    let snapshot = data.snapshot();
    let mut sim = SimSink::new(machine.hierarchy());
    nbody::unthreaded(&mut data, 2, params, &mut sim);
    let unthreaded = sim.finish();
    let reference = data.snapshot();

    // Threaded: one force thread per body, 3-D position hints.
    let mut data2 = nbody::NBodyData::new(&mut space, bodies, 11);
    data2.restore(&snapshot);
    let mut sim = SimSink::new(machine.hierarchy());
    let config = SchedulerConfig::for_cache(machine.l2_config().size(), 3)?;
    let report = nbody::threaded(&mut data2, 2, params, config, &mut sim);
    sim.add_threads(report.threads);
    let threaded = sim.finish();

    // Same trajectories, different memory behaviour.
    assert_eq!(
        data2.snapshot(),
        reference,
        "trajectories must agree bitwise"
    );

    let sched = report.sched.as_ref().expect("threaded report");
    println!("threaded scheduling: {sched}");
    println!("  (the paper: 64,000 threads in 46 bins, \"much less uniform\" than matmul)\n");
    println!(
        "L2 misses   unthreaded {:>9}   threaded {:>9}   ({:.2}x fewer)",
        unthreaded.l2.misses(),
        threaded.l2.misses(),
        unthreaded.l2.misses() as f64 / threaded.l2.misses() as f64
    );
    println!(
        "L2 capacity unthreaded {:>9}   threaded {:>9}   (paper: 2.3x fewer)",
        unthreaded.classes.capacity, threaded.classes.capacity
    );
    println!(
        "modeled     unthreaded {:>8.3}s   threaded {:>8.3}s",
        unthreaded.time_on(&machine).total(),
        threaded.time_on(&machine).total()
    );
    Ok(())
}
