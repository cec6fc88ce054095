//! What the three simulating workloads share: a captured trace, its
//! replay through `SimSink`, and the cachesim layer metrics.

use crate::harness::{Checks, Metrics, TRACE_REPS};
use crate::span::Tracer;
use cachesim::{MachineModel, SimReport, SimSink};
use memtrace::{Access, TraceSink};

/// Records per `access_batch` call when a stored trace is replayed
/// (the chunk `simbench` uses).
const CHUNK: usize = 8192;

/// A reference stream held in memory, with the counts that travel
/// beside it.
pub struct Trace {
    pub accesses: Vec<Access>,
    pub instructions: u64,
    pub threads: u64,
}

impl Trace {
    pub fn feed<S: TraceSink>(&self, sink: &mut S) {
        for chunk in self.accesses.chunks(CHUNK) {
            sink.access_batch(chunk);
        }
        sink.instructions(self.instructions);
    }
}

/// A finished simulation: the report and the seconds the modeled
/// machine would take.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOut {
    pub report: SimReport,
    pub modeled_s: f64,
}

impl SimOut {
    pub fn new(report: SimReport, machine: &MachineModel) -> Self {
        SimOut {
            report,
            modeled_s: report.time_on(machine).total(),
        }
    }

    pub fn simulated(&self, metrics: &mut Metrics) {
        metrics.set("modeled_s", self.modeled_s);
        metrics.set("l2_misses", self.report.l2.misses() as f64);
        metrics.set("l2_capacity_misses", self.report.classes.capacity as f64);
    }
}

/// Replays `trace` through a fresh `SimSink` inside a `name` span and
/// returns the sink, unfinished, so the caller can read its profile.
fn replay(
    trace: &Trace,
    machine: &MachineModel,
    fast: bool,
    name: &'static str,
    tracer: &mut Tracer,
) -> SimSink {
    let mut sim = SimSink::new(machine.hierarchy());
    sim.set_fast_path(fast);
    tracer.time(name, || trace.feed(&mut sim));
    sim.add_threads(trace.threads);
    sim
}

/// The slow-path reference report of `trace` (untimed, for checks).
pub fn slow_report(trace: &Trace, machine: &MachineModel) -> SimReport {
    replay(
        trace,
        machine,
        false,
        "check.slow_replay",
        &mut Tracer::new(false),
    )
    .finish()
}

/// Reads a counter of a probe section; 0 when the probe layer is
/// compiled out or the section is absent.
pub fn counter(profile: &probe::RunProfile, section: &str, name: &str) -> f64 {
    profile
        .sections()
        .iter()
        .filter(|s| s.name() == section)
        .flat_map(|s| s.metrics())
        .find_map(|(n, metric)| match metric {
            probe::Metric::Counter(v) if n == name => Some(*v as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The cachesim layer: `trace` through `SimSink::access_batch` on the
/// fast and the slow path, `finish` + `time_on`, and the exact counts
/// that say which of the simulator's paths the trace exercises. Checks
/// that both paths reproduce `expected`. Returns the fastest seconds of
/// replay plus finish, for the reconciliation row.
pub fn cachesim_layers(
    trace: &Trace,
    machine: &MachineModel,
    expected: &SimReport,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> f64 {
    let mut profile = probe::RunProfile::new();
    for rep in 0..TRACE_REPS {
        tracer.set_rep(rep);
        let sim = replay(trace, machine, true, "cachesim.replay", tracer);
        profile = sim.run_profile();
        let (out, _) = tracer.time("cachesim.finish", || SimOut::new(sim.finish(), machine));
        checks.check(out.report == *expected, || {
            format!("replay {rep} of the captured trace differs from the end-to-end report")
        });
        let slow = replay(trace, machine, false, "cachesim.slow_replay", tracer);
        checks.check(slow.finish() == *expected, || {
            format!("slow-path replay {rep} differs from the end-to-end report")
        });
    }
    let replay_s = tracer.summary_s("cachesim.replay");
    let finish_s = tracer.summary_s("cachesim.finish");
    let slow_s = tracer.summary_s("cachesim.slow_replay");
    metrics.set_fastest("cachesim.replay_s", replay_s);
    metrics.set_fastest("cachesim.finish_s", finish_s);
    metrics.set_fastest("cachesim.slow_replay_s", slow_s);
    let (replay_s, finish_s, slow_s) = (
        replay_s.map_or(0.0, |s| s.min),
        finish_s.map_or(0.0, |s| s.min),
        slow_s.map_or(0.0, |s| s.min),
    );
    let accesses = trace.accesses.len() as f64;
    metrics.set("cachesim.replay_ns_per_access", 1e9 * replay_s / accesses);
    metrics.set("cachesim.fast_over_slow", share(slow_s, replay_s));

    metrics.set("cachesim.l1_hits", expected.l1.hits() as f64);
    metrics.set("cachesim.l1_misses", expected.l1.misses() as f64);
    metrics.set("cachesim.l2_hits", expected.l2.hits() as f64);
    metrics.set("cachesim.l2_misses", expected.l2.misses() as f64);
    metrics.set("cachesim.compulsory", expected.classes.compulsory as f64);
    metrics.set("cachesim.capacity", expected.classes.capacity as f64);
    metrics.set("cachesim.conflict", expected.classes.conflict as f64);
    metrics.set(
        "cachesim.memory_writebacks",
        expected.memory_writebacks as f64,
    );
    // Which hits took the shortcuts; read from the probe layer, so all
    // three read 0 in a `--no-default-features` build.
    let l1_hits = counter(&profile, "l1", "hits");
    metrics.set(
        "cachesim.l1_rehit_share",
        share(counter(&profile, "l1", "rehits"), l1_hits),
    );
    metrics.set(
        "cachesim.l1_mru_hit_share",
        share(counter(&profile, "l1", "mru_hits"), l1_hits),
    );
    metrics.set(
        "cachesim.l2_rehit_share",
        share(
            counter(&profile, "l2", "rehits"),
            counter(&profile, "l2", "hits"),
        ),
    );
    replay_s + finish_s
}
