//! CI regression gate: compares two benchmark JSON reports and exits
//! nonzero when a gated metric regressed.
//!
//! ```text
//! benchdiff <baseline.json> <current.json> [--threshold 0.15]
//! ```
//!
//! Gates the deterministic counts and speedup ratios of a `BENCH_*.json`
//! or `ANALYZE_*.json` artifact against its committed baseline; wall
//! times, throughputs and probe counters are shown, never gated (see
//! `repro::benchdiff`).
//!
//! Prints a markdown delta table to stdout (pipe into
//! `$GITHUB_STEP_SUMMARY` in CI). Exit codes: 0 = pass, 1 = at least
//! one regression, 2 = usage or parse error.

use repro::benchdiff::diff;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: benchdiff <baseline.json> <current.json> [--threshold <rel>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut threshold = 0.15f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(value) = iter.next() else {
                    return usage();
                };
                match value.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => threshold = t,
                    _ => {
                        eprintln!("benchdiff: bad threshold '{value}'");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => return usage(),
            other if other.starts_with('-') => {
                eprintln!("benchdiff: unknown flag '{other}'");
                return usage();
            }
            path => files.push(path.to_owned()),
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        return usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
    };
    let result = read(baseline_path)
        .and_then(|base| read(current_path).map(|cur| (base, cur)))
        .and_then(|(base, cur)| diff(&base, &cur, threshold));
    match result {
        Ok(report) => {
            println!("### benchdiff: `{baseline_path}` → `{current_path}`\n");
            println!("{}", report.to_markdown());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("benchdiff: {err}");
            ExitCode::from(2)
        }
    }
}
