//! `dinero` — replay a binary trace file (see
//! [`memtrace::TraceFileWriter`]) through a configurable two-level
//! copy-back, write-allocate, virtually indexed hierarchy and print the
//! paper-style report. The standalone-tool equivalent of the modified
//! DineroIII the paper used.
//!
//! ```text
//! dinero [--l1 SIZE:LINE:ASSOC] [--l2 SIZE:LINE:ASSOC]
//!        [--machine r8000|r10000] TRACE_FILE
//! ```
//!
//! Sizes accept `K`/`M` suffixes, e.g. `--l2 2M:128:4`.

use cachesim::{CacheConfig, Hierarchy, HierarchyConfig, MachineModel, SimSink};
use memtrace::TraceFileReader;
use std::fs::File;
use std::process::ExitCode;

fn parse_size(text: &str) -> Result<u64, String> {
    let (digits, multiplier) = match text.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&text[..text.len() - 1], 1024),
        Some(b'M') | Some(b'm') => (&text[..text.len() - 1], 1 << 20),
        _ => (text, 1),
    };
    digits
        .parse::<u64>()
        .map_err(|e| format!("bad size {text:?}: {e}"))?
        .checked_mul(multiplier)
        .ok_or_else(|| format!("bad size {text:?}: does not fit in 64 bits"))
}

fn parse_cache(spec: &str) -> Result<CacheConfig, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("cache spec {spec:?} is not SIZE:LINE:ASSOC"));
    }
    let size = parse_size(parts[0])?;
    let line = parse_size(parts[1])?;
    let assoc: u32 = parts[2]
        .parse()
        .map_err(|e| format!("bad associativity {:?}: {e}", parts[2]))?;
    CacheConfig::new(size, line, assoc).map_err(|e| e.to_string())
}

struct Options {
    l1: CacheConfig,
    l2: CacheConfig,
    trace: String,
    machine: MachineModel,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let machine = MachineModel::r8000();
    let mut options = Options {
        l1: machine.l1_config(),
        l2: machine.l2_config(),
        trace: String::new(),
        machine,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--l1" => {
                options.l1 = parse_cache(it.next().ok_or("--l1 needs a value")?)?;
            }
            "--l2" => {
                options.l2 = parse_cache(it.next().ok_or("--l2 needs a value")?)?;
            }
            "--machine" => {
                options.machine = match it.next().ok_or("--machine needs a value")?.as_str() {
                    "r8000" => MachineModel::r8000(),
                    "r10000" => MachineModel::r10000(),
                    other => return Err(format!("unknown machine {other:?}")),
                };
                options.l1 = options.machine.l1_config();
                options.l2 = options.machine.l2_config();
            }
            other if !other.starts_with("--") => options.trace = other.to_owned(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if options.trace.is_empty() {
        return Err("no trace file given".to_owned());
    }
    Ok(options)
}

/// Reports a command line that cannot be run: why, the usage line,
/// exit status 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("dinero: {message}");
    eprintln!("usage: dinero [--l1 S:L:A] [--l2 S:L:A] [--machine r8000|r10000] TRACE");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => return usage_error(&message),
    };
    let config = match HierarchyConfig::try_new(options.l1, options.l2) {
        Ok(config) => config,
        Err(e) => return usage_error(&e.to_string()),
    };

    let file = match File::open(&options.trace) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dinero: cannot open {}: {e}", options.trace);
            return ExitCode::FAILURE;
        }
    };
    let mut sim = SimSink::new(Hierarchy::new(config));
    match TraceFileReader::new(file).replay(&mut sim) {
        Ok(events) => {
            let report = sim.finish();
            println!("# {} events from {}", events, options.trace);
            println!("# L1 {} | L2 {}", options.l1, options.l2);
            println!("{report}");
            println!(
                "modeled on {}: {}",
                options.machine.name(),
                report.time_on(&options.machine)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dinero: trace replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}
