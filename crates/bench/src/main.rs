//! `repro` — runs any or all of the registry's experiments: the paper's
//! tables and figure, the benchmark suites behind the `BENCH_*.json`
//! artifacts, and the studies beyond the paper.
//!
//! ```text
//! repro [all|<name>]... [--full|--smoke]
//! ```
//!
//! Run with an unknown name for the list of names. The `analyze` name
//! runs the `schedlint` four-kernel schedule-safety self-check and
//! writes `ANALYZE_smoke.json`.

fn main() -> std::process::ExitCode {
    repro::cli::main(std::env::args().skip(1))
}
