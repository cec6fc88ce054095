//! The five workloads. Each stresses different layers, so a gain in
//! one layer has a workload that exercises it and one that bypasses it.

pub mod pipeline;
pub mod replay;
pub mod sched;
pub mod serve_loop;
mod simulate;

use crate::harness::{run_end_to_end, run_traced, RunResult};
use crate::span::Tracer;

/// Workload names, in report order (`BENCHMARK.json` lists the same).
pub const NAMES: [&str; 5] = [
    "pipeline_matmul",
    "pipeline_pde_sharded",
    "replay_thrash",
    "sched_null",
    "serve_zipf",
];

/// Runs `workload` end to end (untraced); `None` for an unknown name.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Option<RunResult> {
    Some(match workload {
        "pipeline_matmul" => run_end_to_end::<pipeline::Matmul>(workload, seed, seconds),
        "pipeline_pde_sharded" => run_end_to_end::<pipeline::PdeSharded>(workload, seed, seconds),
        "replay_thrash" => run_end_to_end::<replay::Thrash>(workload, seed, seconds),
        "sched_null" => run_end_to_end::<sched::Null>(workload, seed, seconds),
        "serve_zipf" => run_end_to_end::<serve_loop::Zipf>(workload, seed, seconds),
        _ => return None,
    })
}

/// Runs `workload` traced; `None` for an unknown name.
pub fn traced(workload: &str, seed: u64) -> Option<(RunResult, Tracer)> {
    Some(match workload {
        "pipeline_matmul" => run_traced::<pipeline::Matmul>(workload, seed),
        "pipeline_pde_sharded" => run_traced::<pipeline::PdeSharded>(workload, seed),
        "replay_thrash" => run_traced::<replay::Thrash>(workload, seed),
        "sched_null" => run_traced::<sched::Null>(workload, seed),
        "serve_zipf" => run_traced::<serve_loop::Zipf>(workload, seed),
        _ => return None,
    })
}

/// xorshift64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone and not on any crate under test.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // Any seed but the all-zero state, which xorshift never leaves.
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = XorShift::new(seed);
            [rng.next(), rng.next(), rng.next()]
        };
        assert_eq!(draw(1996), draw(1996));
        assert_ne!(draw(1996), draw(7));
        assert_ne!(draw(0)[0], 0, "seed 0 must not stick at zero");
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(end_to_end("nope", 1, 0.0).is_none());
        assert!(traced("nope", 1).is_none());
    }
}
