//! `replay_thrash`: a stored random trace through `SimSink` on a
//! scaled R8000. Nearly every access misses L2, so LRU eviction,
//! write-back and the 3C classifier do the work and workloads, memtrace
//! and core do none — the workload where hit-path tuning must show no
//! change.

use super::simulate::{cachesim_layers, slow_report, SimOut, Trace};
use super::XorShift;
use crate::harness::{Checks, Metrics, Workload, TRACE_REPS};
use crate::span::Tracer;
use cachesim::{MachineModel, MissClassifier, SimSink};
use memtrace::{Access, Addr};
use std::hint::black_box;

pub struct Thrash;

const ACCESSES: usize = 2 << 20;
/// The R8000 at a sixteenth (256 KiB L2) under a region sixteen times
/// its L2. The unscaled machine under 64 MiB misses exactly as often,
/// but its classifier and LRU tables outgrow the host's private cache,
/// and co-tenants of the reference host then move the run twice as much.
const MACHINE_FACTOR: f64 = 1.0 / 16.0;
const REGION_BYTES: u64 = 4 << 20;
const REGION_BASE: u64 = 0x1000_0000;
const ACCESS_BYTES: u32 = 8;

pub struct ThrashInput {
    machine: MachineModel,
    trace: Trace,
}

impl Workload for Thrash {
    type Input = ThrashInput;
    type Output = SimOut;

    fn setup(seed: u64) -> ThrashInput {
        let mut rng = XorShift::new(seed);
        let slots = REGION_BYTES / u64::from(ACCESS_BYTES);
        let accesses = (0..ACCESSES)
            .map(|i| {
                let addr = Addr::new(REGION_BASE + (rng.next() % slots) * u64::from(ACCESS_BYTES));
                if i % 4 == 3 {
                    Access::write(addr, ACCESS_BYTES)
                } else {
                    Access::read(addr, ACCESS_BYTES)
                }
            })
            .collect();
        ThrashInput {
            machine: MachineModel::r8000()
                .scaled(MACHINE_FACTOR)
                .expect("the R8000 scales to a sixteenth"),
            trace: Trace {
                accesses,
                instructions: 0,
                threads: 0,
            },
        }
    }

    fn rep(input: &mut ThrashInput, tracer: &mut Tracer) -> SimOut {
        let mut sim = SimSink::new(input.machine.hierarchy());
        tracer.time("rep.replay", || input.trace.feed(&mut sim));
        tracer
            .time("rep.finish", || SimOut::new(sim.finish(), &input.machine))
            .0
    }

    fn ops(output: &SimOut) -> u64 {
        output.report.data_references()
    }

    fn simulated(output: &SimOut, metrics: &mut Metrics) {
        output.simulated(metrics);
    }

    fn check(input: &mut ThrashInput, output: &SimOut, checks: &mut Checks) {
        let report = &output.report;
        checks.check(slow_report(&input.trace, &input.machine) == *report, || {
            "the fast path's report differs from the slow path's".to_owned()
        });
        checks.check(report.classes.total() == report.l2.misses(), || {
            format!(
                "compulsory + capacity + conflict = {}, but {} L2 misses",
                report.classes.total(),
                report.l2.misses()
            )
        });
        checks.check(report.data_references() == ACCESSES as u64, || {
            format!(
                "{} data references, not {ACCESSES}",
                report.data_references()
            )
        });
    }

    fn layers(
        input: &mut ThrashInput,
        output: &SimOut,
        _rep_s: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) {
        cachesim_layers(
            &input.trace,
            &input.machine,
            &output.report,
            tracer,
            metrics,
            checks,
        );

        // The classifier alone, fed the trace's L2 line stream with
        // every reference a miss (97% are).
        let l2 = input.machine.l2_config();
        let shift = l2.line().trailing_zeros();
        let lines: Vec<u64> = input
            .trace
            .accesses
            .iter()
            .map(|a| a.addr.raw() >> shift)
            .collect();
        for rep in 0..TRACE_REPS {
            tracer.set_rep(rep);
            let mut classifier = MissClassifier::new(&l2);
            tracer.time("cachesim.classify", || {
                for &line in &lines {
                    black_box(classifier.classify_miss(line));
                }
            });
        }
        let classify_s = tracer.summary_s("cachesim.classify").map_or(0.0, |s| s.min);
        metrics.set(
            "cachesim.classify_ns_per_miss",
            1e9 * classify_s / lines.len() as f64,
        );
    }
}
