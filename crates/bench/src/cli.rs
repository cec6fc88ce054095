//! The `repro` command line: argument parsing, the usage text, and the
//! loop that runs registry entries and writes their artifacts.

use crate::experiments::Runner;
use crate::registry::{self, Experiment, Run, REGISTRY};
use crate::ExpScale;
use std::process::ExitCode;

/// The usage line, generated from the registry.
pub fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|experiment| experiment.name).collect();
    format!("usage: repro [all|{}]... [--full|--smoke]", names.join("|"))
}

/// Parses `repro`'s arguments into the problem scale and the
/// experiments to run, in the order named (`all`, or no name, selects
/// the registry's `in_all` entries). Flags are processed in order, so
/// `--smoke --full` ends at full scale.
///
/// # Errors
///
/// An unknown experiment name or an unknown flag.
pub fn parse<I>(args: I) -> Result<(ExpScale, Vec<&'static Experiment>), String>
where
    I: IntoIterator<Item = String>,
{
    let mut scale = ExpScale::default_scaled();
    let mut wanted: Vec<&'static Experiment> = Vec::new();
    let mut all = false;
    for arg in args {
        match arg.as_str() {
            "--full" => scale = ExpScale::full(),
            "--smoke" => scale = ExpScale::smoke(),
            "all" => all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            name => {
                wanted.push(registry::find(name).ok_or(format!("unknown experiment: {name}"))?);
            }
        }
    }
    if all || wanted.is_empty() {
        wanted = REGISTRY.iter().filter(|e| e.in_all).collect();
    }
    Ok((scale, wanted))
}

/// Runs `repro` with the given arguments: the scale header, then each
/// experiment followed by a blank line. Exit codes: 0 = every
/// experiment ran and every artifact was written, 1 = an experiment
/// failed or an artifact could not be written, 2 = usage error.
pub fn main<I>(args: I) -> ExitCode
where
    I: IntoIterator<Item = String>,
{
    let (scale, wanted) = match parse(args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("repro: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "thread-locality reproduction harness (scale: matmul n={}, pde n={}, sor n={}, nbody n={})\n",
        scale.matmul_n, scale.pde_n, scale.sor_n, scale.nbody_n
    );
    let mut runner = Runner::default();
    for experiment in wanted {
        let ran = match experiment.run {
            Run::Print(run) => run(&scale, &mut runner),
            Run::Artifact(path, run) => run(&scale, &mut runner).and_then(|json| {
                std::fs::write(path, json)
                    .map_err(|err| format!("could not write {path}: {err}"))?;
                println!("\nwrote {path}");
                Ok(())
            }),
        };
        if let Err(err) = ran {
            eprintln!("repro {}: {err}", experiment.name);
            return ExitCode::from(1);
        }
        println!();
    }
    ExitCode::SUCCESS
}
