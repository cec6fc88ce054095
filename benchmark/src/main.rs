//! The repo benchmark's launcher and child.
//!
//! `run.sh` builds this package and starts it. The launcher runs every
//! selected workload in a child process of its own (this same binary
//! with `--child`), pinned to one CPU with `taskset -c`, reads the
//! child's result line, prints every metric by name and unit, and
//! writes `out/results.json`. Given exactly one `--workload`, its last
//! line of standard output is the one JSON object the driver reads.

mod affinity;
mod catalog;
mod harness;
mod json;
mod span;
mod stats;
mod workloads;

use affinity::Pin;
use catalog::Class;
use harness::RunResult;
use json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1996;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--selfcheck` repeats its comparison under this seed.
const SECOND_SEED: u64 = 7;
/// `probe.overhead_pct` alternates this many pairs of runs (probes
/// compiled out, probes compiled in), each measuring this many seconds.
const PROBE_RUN_PAIRS: usize = 2;
const PROBE_RUN_SECONDS: f64 = 4.0;

/// glibc settings every child starts with: freed heap is never given
/// back to the kernel, and only blocks of 32 MiB (the most glibc takes)
/// or more are mapped one by one. By default glibc trims the heap above
/// 128 KiB; `sched_null`, whose every `run(Consume)` frees all its bin
/// storage, then takes 94,000 page faults a repetition and spends 31% of
/// it in the kernel — the one cost that moved by 30-60% for minutes at
/// a time on the shared reference host. With these, a workload runs on
/// memory it already has once the warm-up repetition is over.
/// `peak_rss_mib` is a high-water mark and reads the same either way.
const KEEP_HEAP: [(&str, u64); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", 1 << 40),
    ("MALLOC_MMAP_THRESHOLD_", 32 << 20),
];

#[derive(Clone, Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
    /// Where results and traces are written (`run.sh` passes its `out/`).
    out: Option<PathBuf>,
    /// The `--no-default-features` build, for `probe.overhead_pct`.
    noprobe_bin: Option<PathBuf>,
    /// Child mode: run one workload in this process.
    child: bool,
    /// Child mode: measure only `cachesim.shard_unpinned_replay_s`.
    unpinned_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                let seed = value(&mut i)?;
                args.seed = Some(
                    seed.parse()
                        .map_err(|_| format!("--seed {seed}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let seconds = value(&mut i)?;
                let parsed: f64 = seconds
                    .parse()
                    .map_err(|_| format!("--seconds {seconds}: not a number"))?;
                if !(parsed.is_finite() && parsed >= 0.0) {
                    return Err(format!(
                        "--seconds {seconds}: must be finite and not negative"
                    ));
                }
                args.seconds = Some(parsed);
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut i)?)),
            "--noprobe-bin" => args.noprobe_bin = Some(PathBuf::from(value(&mut i)?)),
            "--child" => args.child = true,
            "--unpinned-probe" => args.unpinned_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(workload) = &args.workload {
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            eprintln!("usage: run.sh [--seed N] [--workload NAME] [--seconds S] [--trace [0|1]] [--selfcheck]");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        child(&args)
    } else if args.selfcheck {
        selfcheck(&args)
    } else {
        launch(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// --------------------------------------------------------------------------- child

/// Runs one workload in this process and prints its result as the last
/// line of standard output.
fn child(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().ok_or("--child needs --workload")?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let result = if args.unpinned_probe {
        RunResult {
            workload: workload.to_owned(),
            seed,
            traced: true,
            checks: harness::Checks::default(),
            metrics: workloads::pipeline::shard_unpinned_replay_s(seed),
        }
    } else if args.trace {
        let (result, tracer) = workloads::traced(workload, seed).ok_or("unknown workload")?;
        if let Some(out) = &args.out {
            let path = out.join(format!("trace_{workload}.json"));
            write_file(&path, &tracer.to_value(workload).to_json())?;
        }
        result
    } else {
        let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
        workloads::end_to_end(workload, seed, seconds).ok_or("unknown workload")?
    };
    println!("{}", result.to_value().to_json());
    Ok(true)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

// --------------------------------------------------------------------------- launcher

/// Starts `binary --child` (pinned when `pin` is given), waits for it,
/// and parses the last line it printed.
fn run_child(
    binary: &std::path::Path,
    pin: Option<&Pin>,
    child_args: &[String],
) -> Result<RunResult, String> {
    let mut command = match pin {
        Some(pin) => {
            let mut command = Command::new(&pin.taskset);
            command.arg("-c").arg(pin.cpu.to_string()).arg(binary);
            command
        }
        None => Command::new(binary),
    };
    command.arg("--child").args(child_args);
    for (name, bytes) in KEEP_HEAP {
        command.env(name, bytes.to_string());
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!("child {child_args:?} ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(RunResult::from_value)
        .ok_or_else(|| format!("child printed no result: {line}"))
}

struct Launcher {
    binary: PathBuf,
    pin: Option<Pin>,
    seconds: f64,
    out: Option<PathBuf>,
    noprobe_bin: Option<PathBuf>,
}

impl Launcher {
    fn new(args: &Args) -> Result<Launcher, String> {
        let pin = Pin::detect();
        if pin.is_none() {
            eprintln!("benchmark: taskset or the CPU list is missing; running unpinned");
        }
        Ok(Launcher {
            binary: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            pin,
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
            out: args.out.clone(),
            noprobe_bin: args.noprobe_bin.clone(),
        })
    }

    fn child_args(&self, workload: &str, seed: u64, seconds: f64, traced: bool) -> Vec<String> {
        let mut args = vec![
            "--workload".to_owned(),
            workload.to_owned(),
            "--seed".to_owned(),
            seed.to_string(),
            "--seconds".to_owned(),
            seconds.to_string(),
        ];
        if traced {
            args.push("--trace".to_owned());
        }
        if let Some(out) = &self.out {
            args.extend(["--out".to_owned(), out.display().to_string()]);
        }
        args
    }

    /// One workload, one pinned process; a traced run adds the two
    /// measurements that need further processes.
    fn run(&self, workload: &str, seed: u64, traced: bool) -> Result<RunResult, String> {
        let args = self.child_args(workload, seed, self.seconds, traced);
        let mut result = run_child(&self.binary, self.pin.as_ref(), &args)?;
        if traced && workload == "pipeline_pde_sharded" {
            let mut args = args.clone();
            args.push("--unpinned-probe".to_owned());
            result
                .metrics
                .0
                .extend(run_child(&self.binary, None, &args)?.metrics.0);
        }
        if traced && workload == "pipeline_matmul" {
            if let Some(noprobe) = &self.noprobe_bin {
                let overhead = self.probe_overhead_pct(noprobe, workload, seed)?;
                result.metrics.set("probe.overhead_pct", overhead);
            }
        }
        Ok(result)
    }

    /// `ops_per_s` of the default build against the build with every
    /// probe compiled out: DESIGN §8's budget as a measurement. The two
    /// builds alternate, and each side keeps its fastest run, so a slow
    /// stretch of the host falls on both.
    fn probe_overhead_pct(
        &self,
        noprobe: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> Result<f64, String> {
        let args = self.child_args(workload, seed, PROBE_RUN_SECONDS, false);
        let ops = |binary: &std::path::Path| -> Result<f64, String> {
            run_child(binary, self.pin.as_ref(), &args)?
                .metrics
                .get("ops_per_s")
                .ok_or_else(|| "no ops_per_s in the probe-overhead run".to_owned())
        };
        let (mut without, mut with) = (0.0_f64, 0.0_f64);
        for _ in 0..PROBE_RUN_PAIRS {
            without = without.max(ops(noprobe)?);
            with = with.max(ops(&self.binary)?);
        }
        Ok(100.0 * (without / with - 1.0))
    }

    fn run_set(&self, names: &[&str], seed: u64, traced: bool) -> Result<Vec<RunResult>, String> {
        names
            .iter()
            .map(|name| {
                let result = self.run(name, seed, traced)?;
                print_result(&result, self.pin.as_ref());
                Ok(result)
            })
            .collect()
    }
}

fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    }
}

fn launch(args: &Args) -> Result<bool, String> {
    let launcher = Launcher::new(args)?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let results = launcher.run_set(&selected(args), seed, args.trace)?;
    if let Some(out) = &args.out {
        let name = if args.trace {
            "results_trace.json"
        } else {
            "results.json"
        };
        let file = Value::obj([
            ("seed", Value::Num(seed as f64)),
            ("traced", Value::Bool(args.trace)),
            (
                "pinned_cpu",
                launcher
                    .pin
                    .as_ref()
                    .map_or(Value::Null, |pin| Value::Num(f64::from(pin.cpu))),
            ),
            (
                "results",
                Value::Arr(results.iter().map(RunResult::to_value).collect()),
            ),
        ]);
        write_file(&out.join(name), &file.to_json())?;
    }
    if let [result] = results.as_slice() {
        println!("{}", driver_line(result).to_json());
    }
    Ok(results.iter().all(|r| r.checks.failures.is_empty()))
}

/// The object the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every host end-to-end
/// metric of an untraced run or every other metric of a traced one.
/// A metric the workload does not define (a layer it never enters)
/// reads 0.
fn driver_line(result: &RunResult) -> Value {
    let metrics = catalog::reported(result.traced).map(|def| {
        let value = result.metrics.get(def.name).unwrap_or(0.0);
        let fields = [
            ("value", Value::Num(value)),
            ("unit", Value::from(def.unit)),
        ];
        (def.name, Value::obj(fields))
    });
    let failed = result.checks.failures.len();
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        (
            "attempted",
            Value::Num(result.checks.attempted.max(1) as f64),
        ),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

/// Six significant digits, whole numbers in full.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let magnitude = v.abs().log10().floor() as i32;
        let decimals = (5 - magnitude).clamp(0, 12) as usize;
        format!("{v:.decimals$}")
    }
}

fn print_result(result: &RunResult, pin: Option<&Pin>) {
    let pinned = pin.map_or("unpinned".to_owned(), |pin| {
        format!("pinned to cpu {}", pin.cpu)
    });
    let kind = if result.traced {
        "traced"
    } else {
        "end to end"
    };
    println!(
        "== {} ({kind}, seed {}, {pinned})",
        result.workload, result.seed
    );
    for metric in &result.metrics.0 {
        let unit = catalog::find(&metric.name).map_or("?", |def| def.unit);
        let spread = metric.spread.map_or(String::new(), |s| {
            format!(
                "  [median {} min {} max {} N={}]",
                fmt_num(s.median),
                fmt_num(s.min),
                fmt_num(s.max),
                s.n
            )
        });
        let note = match metric.name.as_str() {
            // Printed, not hidden: the stages should add up to the repetition.
            "trace.reconcile_pct" if (metric.value - 100.0).abs() > RECONCILE_TOLERANCE_PCT => {
                "  MISS: outside the 15% tolerance"
            }
            _ => "",
        };
        println!(
            "  {:<36} {:>16} {unit}{spread}{note}",
            metric.name,
            fmt_num(metric.value)
        );
    }
    let (failed, attempted) = (result.checks.failures.len(), result.checks.attempted);
    let share = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    println!(
        "  {:<36} {:>16} ratio  [{failed} of {attempted} checks]",
        "failed_share",
        fmt_num(share)
    );
    for failure in &result.checks.failures {
        println!("  FAILED: {failure}");
    }
}

const RECONCILE_TOLERANCE_PCT: f64 = 15.0;

// --------------------------------------------------------------------------- selfcheck

/// One row of the `--selfcheck` table.
struct Comparison {
    workload: String,
    metric: &'static str,
    first: f64,
    second: f64,
    /// Relative difference of the two sets, as a share of the first.
    difference: f64,
    /// What the difference may be: a host bound, or 0 for simulated.
    allowed: f64,
}

impl Comparison {
    fn breached(&self) -> bool {
        self.difference > self.allowed
    }
}

/// Compares two sets of the same build. Host metrics must agree within
/// their bound; simulated metrics must be bit-equal.
fn compare(first: &[RunResult], second: &[RunResult]) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in catalog::CATALOG {
            let (Some(x), Some(y)) = (a.metrics.get(def.name), b.metrics.get(def.name)) else {
                continue;
            };
            let (difference, allowed) = match def.class {
                Class::Host { bound } => ((y - x).abs() / x.abs(), bound),
                Class::Simulated => (
                    if x.to_bits() == y.to_bits() {
                        0.0
                    } else {
                        f64::INFINITY
                    },
                    0.0,
                ),
                Class::Layer => continue,
            };
            rows.push(Comparison {
                workload: a.workload.clone(),
                metric: def.name,
                first: x,
                second: y,
                difference,
                allowed,
            });
        }
    }
    rows
}

/// Two back-to-back sets under the given seed and two more under a
/// second seed; fails if any pair of sets disagrees by more than a
/// bound or any check fails.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let launcher = Launcher::new(args)?;
    let names = selected(args);
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let other = if seed == SECOND_SEED {
        DEFAULT_SEED
    } else {
        SECOND_SEED
    };
    let mut ok = true;
    for seed in [seed, other] {
        let first = launcher.run_set(&names, seed, false)?;
        let second = launcher.run_set(&names, seed, false)?;
        ok &= first
            .iter()
            .chain(&second)
            .all(|r| r.checks.failures.is_empty());
        println!("== selfcheck, seed {seed}: second set against first");
        println!(
            "  {:<22} {:<24} {:>16} {:>16} {:>9} {:>8}",
            "workload", "metric", "first", "second", "differ", "allowed"
        );
        for row in compare(&first, &second) {
            let verdict = if row.breached() { "  BREACH" } else { "" };
            ok &= !row.breached();
            println!(
                "  {:<22} {:<24} {:>16} {:>16} {:>8.2}% {:>7.0}%{verdict}",
                row.workload,
                row.metric,
                fmt_num(row.first),
                fmt_num(row.second),
                100.0 * row.difference,
                100.0 * row.allowed,
            );
        }
    }
    println!(
        "selfcheck: {}",
        if ok {
            "every pair of sets agrees"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{Checks, Measured, Metrics};

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn parses_the_driver_and_the_human_spellings() {
        let driver = parse_args(&argv(&[
            "--workload",
            "sched_null",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(driver.workload.as_deref(), Some("sched_null"));
        assert_eq!(
            (driver.seed, driver.seconds, driver.trace),
            (Some(3), Some(10.0), false)
        );
        assert!(parse_args(&argv(&["--trace", "1"])).unwrap().trace);
        assert!(parse_args(&argv(&["--trace"])).unwrap().trace);
        let mixed = parse_args(&argv(&["--trace", "--seed", "7"])).unwrap();
        assert_eq!((mixed.trace, mixed.seed), (true, Some(7)));
        assert!(parse_args(&argv(&["--selfcheck"])).unwrap().selfcheck);
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    fn result(traced: bool, metrics: &[(&str, f64)], failures: &[&str]) -> RunResult {
        RunResult {
            workload: "sched_null".to_owned(),
            seed: 1,
            traced,
            checks: Checks {
                attempted: 4,
                failures: failures.iter().map(|f| (*f).to_owned()).collect(),
            },
            metrics: Metrics(
                metrics
                    .iter()
                    .map(|&(name, value)| Measured {
                        name: name.to_owned(),
                        value,
                        spread: None,
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let host = [
            ("setup_s", 0.03),
            ("ops_per_s", 1.1e7),
            ("peak_rss_mib", 80.5),
            ("modeled_s", 2.0),
        ];
        let line = driver_line(&result(false, &host, &[]));
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "ops_per_s", "peak_rss_mib"],
            "host metrics only"
        );
        assert_eq!(metrics[1].1.get("value"), Some(&Value::Num(1.1e7)));
        assert_eq!(metrics[1].1.get("unit"), Some(&Value::from("1/s")));

        let traced = driver_line(&result(true, &[("core.threads", 2e6)], &["broken"]));
        assert_eq!(traced.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(traced.get("failed"), Some(&Value::Num(1.0)));
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(
            metrics.as_obj().unwrap().len(),
            catalog::reported(true).count()
        );
        assert_eq!(
            metrics.get("core.threads").unwrap().get("value"),
            Some(&Value::Num(2e6))
        );
        // A layer the workload never enters reads 0.
        assert_eq!(
            metrics.get("serve.drains").unwrap().get("value"),
            Some(&Value::Num(0.0))
        );
        assert!(metrics.get("ops_per_s").is_none());
    }

    #[test]
    fn selfcheck_bounds_host_metrics_and_pins_simulated_ones() {
        let first = [result(
            false,
            &[("ops_per_s", 100.0), ("l2_misses", 176_719.0)],
            &[],
        )];
        let near = [result(
            false,
            &[("ops_per_s", 93.0), ("l2_misses", 176_719.0)],
            &[],
        )];
        assert!(compare(&first, &near).iter().all(|row| !row.breached()));
        let slow = [result(
            false,
            &[("ops_per_s", 70.0), ("l2_misses", 176_719.0)],
            &[],
        )];
        let rows = compare(&first, &slow);
        assert!(rows[0].breached() && !rows[1].breached());
        let drifted = [result(
            false,
            &[("ops_per_s", 100.0), ("l2_misses", 176_720.0)],
            &[],
        )];
        let rows = compare(&first, &drifted);
        assert!(
            !rows[0].breached() && rows[1].breached(),
            "simulated metrics are exact"
        );
    }

    #[test]
    fn numbers_print_with_six_significant_digits() {
        assert_eq!(fmt_num(176_719.0), "176719");
        assert_eq!(fmt_num(0.001_234_567), "0.00123457");
        assert_eq!(fmt_num(52_345_678.9), "52345679");
        assert_eq!(fmt_num(97.123_456), "97.1235");
        assert_eq!(fmt_num(0.0), "0");
    }
}
