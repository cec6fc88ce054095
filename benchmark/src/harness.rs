//! What every workload shares: the set-up / warm-up / timed-repetition
//! loop, the checks ledger, and the result a child process hands back.

use crate::json::Value;
use crate::span::Tracer;
use crate::stats::Summary;
use std::time::{Duration, Instant};

/// Timed repetitions per end-to-end run: at least this many, however
/// short `--seconds` is.
pub const MIN_REPS: usize = 5;
/// Repetitions of each step of a traced run.
pub const TRACE_REPS: u32 = 3;
/// Set-up is repeated (the median is `setup_s`) at least `MIN_SETUPS`
/// times and until `SETUP_BUDGET` is spent, at most `MAX_SETUPS` times:
/// most set-ups take milliseconds and need the samples.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// One measured value; `spread` when it summarizes repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub spread: Option<Summary>,
}

/// The metrics of one run, in report order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Measured>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push(Measured {
            name: name.to_owned(),
            value,
            spread: None,
        });
    }

    /// Records `pick` of `summary` with the summary beside it; a missing
    /// summary (no span of that name) records nothing.
    fn set_from(&mut self, name: &str, summary: Option<Summary>, pick: impl Fn(&Summary) -> f64) {
        if let Some(summary) = summary {
            self.0.push(Measured {
                name: name.to_owned(),
                value: pick(&summary),
                spread: Some(summary),
            });
        }
    }

    /// Records the fastest of the repetitions `seconds` summarizes.
    ///
    /// The reference host is a shared two-core VM on which stretches of
    /// 15-20 s run up to 1.5x slow. Interference only ever adds time, so
    /// the fastest repetition is the closest view of the code's own
    /// cost. Across ten-run sets taken hours apart no order statistic
    /// was steadier: its widest spread was 12%, the median's 21%
    /// (README, "Steadiness").
    pub fn set_fastest(&mut self, name: &str, seconds: Option<Summary>) {
        self.set_from(name, seconds, |s| s.min);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Correctness checks: how many were attempted and which failed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one child process reports, as one JSON line on stdout.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub checks: Checks,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn to_value(&self) -> Value {
        let metrics = self.metrics.0.iter().map(|m| {
            let mut fields = vec![("value".to_owned(), Value::Num(m.value))];
            if let Some(Value::Obj(spread)) = m.spread.map(Summary::to_value) {
                fields.extend(spread);
            }
            (m.name.clone(), Value::Obj(fields))
        });
        Value::obj([
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::Num(self.seed as f64)),
            ("traced", Value::Bool(self.traced)),
            ("attempted", Value::Num(self.checks.attempted as f64)),
            (
                "failures",
                Value::Arr(
                    self.checks
                        .failures
                        .iter()
                        .map(|f| Value::from(f.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", Value::Obj(metrics.collect())),
        ])
    }

    pub fn from_value(value: &Value) -> Option<RunResult> {
        let metrics = value
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| {
                let field = |f: &str| m.get(f).and_then(Value::as_f64);
                let value = field("value")?;
                let spread = match (field("median"), field("min"), field("max"), field("n")) {
                    (Some(median), Some(min), Some(max), Some(n)) => Some(Summary {
                        median,
                        min,
                        max,
                        n: n as usize,
                    }),
                    _ => None,
                };
                Some(Measured {
                    name: name.clone(),
                    value,
                    spread,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            workload: value.get("workload")?.as_str()?.to_owned(),
            seed: value.get("seed")?.as_f64()? as u64,
            traced: matches!(value.get("traced")?, Value::Bool(true)),
            checks: Checks {
                attempted: value.get("attempted")?.as_f64()? as u64,
                failures: value
                    .get("failures")?
                    .as_arr()?
                    .iter()
                    .map(|f| f.as_str().map(str::to_owned))
                    .collect::<Option<_>>()?,
            },
            metrics: Metrics(metrics),
        })
    }
}

/// One benchmark workload. Everything a crate receives is built in
/// [`setup`](Workload::setup) from the seed; a repetition then calls
/// only the crates' public functions.
pub trait Workload {
    /// What set-up builds: the modeled machine, the data, the inputs.
    type Input;
    /// What a repetition returns. Every repetition must return an equal
    /// value: the simulator and the scheduler are deterministic.
    type Output: PartialEq;

    fn setup(seed: u64) -> Self::Input;

    /// Restores `input` between repetitions; untimed.
    fn reset(_input: &mut Self::Input) {}

    /// One repetition — the timed region. Calls into a crate are wrapped
    /// in spans, which cost two clock reads when tracing is off.
    fn rep(input: &mut Self::Input, tracer: &mut Tracer) -> Self::Output;

    /// Operations in one repetition (data references, threads or
    /// requests — fixed per workload).
    fn ops(output: &Self::Output) -> u64;

    /// The simulated end-to-end metrics of `output`.
    fn simulated(output: &Self::Output, metrics: &mut Metrics);

    /// The workload's correctness checks; untimed, after the repetitions.
    fn check(input: &mut Self::Input, output: &Self::Output, checks: &mut Checks);

    /// The per-layer measurements of a traced run, with the checks that
    /// each isolated stage reproduces `output`. `rep_s` is the fastest
    /// traced repetition, for the reconciliation row.
    fn layers(
        input: &mut Self::Input,
        output: &Self::Output,
        rep_s: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    );
}

fn timed_rep<W: Workload>(input: &mut W::Input, tracer: &mut Tracer) -> (W::Output, f64) {
    W::reset(input);
    let rep = tracer.begin("rep");
    let output = W::rep(input, tracer);
    let secs = tracer.end(rep);
    (output, secs)
}

/// The untraced end-to-end run: host metrics and simulated metrics.
pub fn run_end_to_end<W: Workload>(name: &str, seed: u64, seconds: f64) -> RunResult {
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();

    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let mut input = loop {
        let start = Instant::now();
        let input = W::setup(seed);
        setups.push(start.elapsed().as_secs_f64());
        let enough = setups.len() >= MIN_SETUPS && setup_start.elapsed() >= SETUP_BUDGET;
        if enough || setups.len() >= MAX_SETUPS {
            break input;
        }
        // Dropped before the next one is built: peak RSS is one input's.
        drop(input);
    };

    // One untimed repetition fills the host's caches and the allocator.
    let (first, _) = timed_rep::<W>(&mut input, &mut tracer);
    let mut reps = Vec::new();
    let window = Instant::now();
    loop {
        let (output, secs) = timed_rep::<W>(&mut input, &mut tracer);
        reps.push(secs);
        checks.check(output == first, || {
            format!(
                "repetition {} differs from the warm-up's output",
                reps.len()
            )
        });
        // Stop before a repetition that would overrun the window.
        if reps.len() >= MIN_REPS && window.elapsed().as_secs_f64() + secs > seconds {
            break;
        }
    }
    // Read before the checks run: their reference runs are not the
    // workload's memory.
    let peak_rss_mib = peak_rss_mib();
    W::check(&mut input, &first, &mut checks);

    let ops = W::ops(&first) as f64;
    let mut metrics = Metrics::default();
    // The driver's contract asks for the median set-up.
    metrics.set_from("setup_s", Summary::of(&setups), |s| s.median);
    let rate = Summary::of(&reps).map(|s| s.map(|secs| ops / secs));
    metrics.set_from("ops_per_s", rate, |s| s.max);
    metrics.set("peak_rss_mib", peak_rss_mib);
    W::simulated(&first, &mut metrics);
    RunResult {
        workload: name.to_owned(),
        seed,
        traced: false,
        checks,
        metrics,
    }
}

/// The traced run: a few repetitions with spans on and off (their
/// difference is the tracing overhead), then the workload's per-layer
/// measurements. Returns the result and the tracer, whose spans the
/// caller writes out.
pub fn run_traced<W: Workload>(name: &str, seed: u64) -> (RunResult, Tracer) {
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();

    let (mut input, _) = tracer.time("setup", || W::setup(seed));
    let (first, _) = timed_rep::<W>(&mut input, &mut untraced);
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    for rep in 0..TRACE_REPS {
        let (output, secs) = timed_rep::<W>(&mut input, &mut untraced);
        plain.push(secs);
        checks.check(output == first, || {
            format!("untraced repetition {rep} differs")
        });
        tracer.set_rep(rep);
        let (output, secs) = timed_rep::<W>(&mut input, &mut tracer);
        spanned.push(secs);
        checks.check(output == first, || {
            format!("traced repetition {rep} differs")
        });
    }
    let plain = Summary::of(&plain).expect("TRACE_REPS > 0");
    let spanned = Summary::of(&spanned).expect("TRACE_REPS > 0");

    W::simulated(&first, &mut metrics);
    W::layers(
        &mut input,
        &first,
        spanned.min,
        &mut tracer,
        &mut metrics,
        &mut checks,
    );
    metrics.set(
        "trace.overhead_pct",
        100.0 * (spanned.min / plain.min - 1.0),
    );
    let result = RunResult {
        workload: name.to_owned(),
        seed,
        traced: true,
        checks,
        metrics,
    };
    (result, tracer)
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is missing.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn run_result_round_trips_through_json() {
        let result = RunResult {
            workload: "replay_thrash".to_owned(),
            seed: 1996,
            traced: false,
            checks: Checks {
                attempted: 9,
                failures: vec!["a \"quoted\" failure".to_owned()],
            },
            metrics: Metrics(vec![
                Measured {
                    name: "ops_per_s".to_owned(),
                    value: 4.2e6,
                    spread: Some(Summary {
                        median: 4_123_456.789_012_3,
                        min: 4.0e6,
                        max: 4.2e6,
                        n: 7,
                    }),
                },
                Measured {
                    name: "l2_misses".to_owned(),
                    value: 7_781_245.0,
                    spread: None,
                },
            ]),
        };
        let text = result.to_value().to_json();
        assert_eq!(
            RunResult::from_value(&json::parse(&text).unwrap()),
            Some(result)
        );
        assert_eq!(RunResult::from_value(&json::parse("{}").unwrap()), None);
    }

    #[test]
    fn checks_count_attempts_and_keep_failures() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!("passing checks build no message"));
        checks.check(false, || "broken".to_owned());
        assert_eq!((checks.attempted, checks.failures.len()), (2, 1));
    }

    #[test]
    fn this_process_has_a_peak_rss_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
