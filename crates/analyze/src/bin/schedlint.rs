//! `schedlint` — schedule-safety, hint-accuracy, bin-overflow, and
//! false-sharing analysis over captured thread footprints.
//!
//! ```text
//! schedlint [--kernel matmul|pde|sor|nbody|all] [--fixture NAME]
//!           [--hint-threshold PCT] [--json PATH] [--hb-json PATH]
//!           [--gate] [--gate-warnings] [--quiet]
//! ```
//!
//! `--hb-json` writes the happens-before steal-safety certificate
//! report (`ANALYZE_hb.json`) over the analyzed kernels: one row per
//! kernel × policy with its order obligations, fork-order violations
//! and cross-bin (unordered) conflicting pairs. The output is
//! byte-reproducible run-to-run.
//!
//! Exit codes follow the `benchdiff` convention: 0 = clean, 1 = gate
//! failure (`--gate`: any error finding; `--gate-warnings` additionally
//! promotes warnings), 2 = usage or I/O error.

use analyze::{
    analyze, capture_kernel, default_machine, hb_report, AnalyzeOptions, AnalyzeReport,
    AnalyzeScale, Fixture,
};
use workloads::Kernel;

struct Args {
    kernels: Vec<Kernel>,
    fixtures: Vec<Fixture>,
    hint_threshold_pct: f64,
    json: Option<String>,
    hb_json: Option<String>,
    gate: bool,
    gate_warnings: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: schedlint [--kernel matmul|pde|sor|nbody|all]\n\
         \x20                [--fixture wrong-hint|false-sharing|cross-node|unordered-race]\n\
         \x20                [--hint-threshold PCT] [--json PATH] [--hb-json PATH]\n\
         \x20                [--gate] [--gate-warnings] [--quiet]\n\
         \n\
         Analyzes captured thread footprints for schedule-safety violations,\n\
         happens-before races, inaccurate hints, overflowing bins, and\n\
         cross-bin false sharing. With no --kernel/--fixture, analyzes all\n\
         four paper kernels. --hb-json writes the happens-before steal-safety\n\
         certificates for the analyzed kernels.\n\
         Exit codes: 0 clean, 1 gate failure, 2 usage/IO error."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        kernels: Vec::new(),
        fixtures: Vec::new(),
        hint_threshold_pct: AnalyzeOptions::default().hint_threshold_pct,
        json: None,
        hb_json: None,
        gate: false,
        gate_warnings: false,
        quiet: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--kernel" => {
                let name = argv.next().unwrap_or_else(|| usage());
                if name == "all" {
                    args.kernels = Kernel::ALL.to_vec();
                } else {
                    match Kernel::ALL.into_iter().find(|k| k.name() == name) {
                        Some(k) => args.kernels.push(k),
                        None => {
                            eprintln!("schedlint: unknown kernel '{name}'");
                            usage();
                        }
                    }
                }
            }
            "--fixture" => {
                let name = argv.next().unwrap_or_else(|| usage());
                match Fixture::from_name(&name) {
                    Some(f) => args.fixtures.push(f),
                    None => {
                        eprintln!("schedlint: unknown fixture '{name}'");
                        usage();
                    }
                }
            }
            "--hint-threshold" => {
                let pct = argv.next().unwrap_or_else(|| usage());
                match pct.parse::<f64>() {
                    Ok(v) if (0.0..=100.0).contains(&v) => args.hint_threshold_pct = v,
                    _ => {
                        eprintln!("schedlint: bad threshold '{pct}' (want 0..=100)");
                        usage();
                    }
                }
            }
            "--json" => args.json = Some(argv.next().unwrap_or_else(|| usage())),
            "--hb-json" => args.hb_json = Some(argv.next().unwrap_or_else(|| usage())),
            "--gate" => args.gate = true,
            "--gate-warnings" => {
                args.gate = true;
                args.gate_warnings = true;
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("schedlint: unknown argument '{other}'");
                usage();
            }
        }
    }
    if args.kernels.is_empty() && args.fixtures.is_empty() {
        args.kernels = Kernel::ALL.to_vec();
    }
    args
}

fn main() {
    let args = parse_args();
    let machine = default_machine();
    let scale = AnalyzeScale::default();
    let opts = AnalyzeOptions {
        hint_threshold_pct: args.hint_threshold_pct,
    };
    let mut report = AnalyzeReport::new(machine.name(), opts.hint_threshold_pct);
    let mut captures = Vec::new();
    for &kernel in &args.kernels {
        let capture = capture_kernel(kernel, &machine, &scale);
        report.kernels.push(analyze(&capture, &opts));
        captures.push(capture);
    }
    for &fixture in &args.fixtures {
        let capture = fixture.capture();
        report.kernels.push(analyze(&capture, &opts));
    }
    if !args.quiet {
        print!("{}", report.to_text());
    }
    if let Some(path) = &args.json {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("schedlint: cannot write {path}: {err}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.hb_json {
        let hb = hb_report(machine.name(), &captures);
        if let Err(err) = std::fs::write(path, hb.to_json()) {
            eprintln!("schedlint: cannot write {path}: {err}");
            std::process::exit(2);
        }
    }
    if args.gate && report.gate_failed(args.gate_warnings) {
        eprintln!(
            "schedlint: gate FAILED ({} error(s), {} warning(s))",
            report.errors(),
            report.warnings()
        );
        std::process::exit(1);
    }
}
