//! Quickstart: fork fine-grained threads with address hints and watch
//! the scheduler group them by locality.
//!
//! Run with: `cargo run --example quickstart`

use thread_locality::sched::{Hints, RunMode, Scheduler, SchedulerConfig};

/// The per-thread work record: which (i, j) ran, in order.
type Log = Vec<(usize, usize)>;

fn work(log: &mut Log, i: usize, j: usize) {
    log.push((i, j));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A machine with a 64 KiB last-level cache and 2-D hints: the paper's
    // default rule sizes each block dimension at half the cache.
    let config = SchedulerConfig::for_cache(64 << 10, 2)?;
    let mut sched = Scheduler::<Log>::new(config);

    // Pretend we have two arrays of 8 columns x 8 KiB, and a unit of
    // work per column pair — e.g. a dot product. Fork order is row
    // major (i outer), the natural program order.
    let a_base = 0x1000_0000u64;
    let b_base = 0x2000_0000u64;
    let col = 8 << 10;
    for i in 0..8usize {
        for j in 0..8usize {
            sched.fork(
                work,
                i,
                j,
                Hints::two(
                    (a_base + i as u64 * col).into(),
                    (b_base + j as u64 * col).into(),
                ),
            );
        }
    }

    println!("scheduled: {}", sched.stats());
    let mut log = Log::new();
    let stats = sched.run(&mut log, RunMode::Consume);
    println!("ran: {stats}\n");

    // Threads sharing a (block_i, block_j) cell ran back to back, so
    // each cache-sized chunk of the two arrays was reused before being
    // evicted:
    println!("execution order (i, j), grouped as the scheduler emitted it:");
    for chunk in log.chunks(16) {
        let cells: Vec<String> = chunk.iter().map(|(i, j)| format!("{i}{j}")).collect();
        println!("  {}", cells.join(" "));
    }
    println!("\nNote how all pairs from the same 4x4 block run adjacently —");
    println!("the paper's Figure 2, reproduced.");
    Ok(())
}
