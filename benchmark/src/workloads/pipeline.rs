//! `pipeline_matmul` and `pipeline_pde_sharded`: traced kernel →
//! scheduler → cache simulator → report, the path of someone
//! reproducing a paper table.

use super::simulate::{cachesim_layers, counter, share, SimOut, Trace};
use crate::harness::{Checks, Metrics, Workload, TRACE_REPS};
use crate::span::Tracer;
use crate::stats::Summary;
use cachesim::{MachineModel, ShardedSimSink, SimSink};
use locality_sched::SchedulerConfig;
use memtrace::{Access, AddressSpace, CompactBuf, CountingSink, NullSink, TraceSink, VecSink};
use std::hint::black_box;
use workloads::{matmul, pde, BinGeometry, Kernel, WorkloadReport};

/// A traced kernel with its data: the threaded version the paper
/// measures, and the plain version it is compared against.
pub trait TracedKernel {
    fn threaded<S: TraceSink>(&mut self, sink: &mut S) -> WorkloadReport;
    fn unthreaded<S: TraceSink>(&mut self, sink: &mut S) -> WorkloadReport;
    /// Restores the data so the next run starts from the same values.
    fn reset(&mut self);
}

/// Counts what a kernel hands its sink: references, and the calls that
/// delivered them — how well the traced containers batch.
#[derive(Default)]
struct BatchCounter {
    accesses: u64,
    calls: u64,
}

impl TraceSink for BatchCounter {
    fn access(&mut self, _access: Access) {
        self.accesses += 1;
        self.calls += 1;
    }

    fn access_batch(&mut self, accesses: &[Access]) {
        self.accesses += accesses.len() as u64;
        self.calls += 1;
    }

    fn instructions(&mut self, _count: u64) {}
}

/// The workloads and memtrace layers of a pipeline workload, then the
/// cachesim layer over the captured trace. Returns the trace and the
/// fastest seconds of kernel-with-emission and of replay-plus-finish.
fn pipeline_layers<K: TracedKernel>(
    kernel: &mut K,
    machine: &MachineModel,
    expected: &SimOut,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> (Trace, f64, f64) {
    let mut captured = VecSink::new();
    let mut threads = 0;
    for rep in 0..TRACE_REPS {
        tracer.set_rep(rep);
        kernel.reset();
        tracer.time("workloads.kernel_null", || kernel.threaded(&mut NullSink));
        kernel.reset();
        tracer.time("workloads.unthreaded_null", || {
            kernel.unthreaded(&mut NullSink)
        });
        kernel.reset();
        let mut counting = CountingSink::new();
        tracer.time("memtrace.count", || kernel.threaded(&mut counting));
        black_box(counting);
        kernel.reset();
        // Dropped before the next capture: one trace in memory at a time.
        captured = VecSink::new();
        let (report, _) = tracer.time("memtrace.capture", || kernel.threaded(&mut captured));
        threads = report.threads;
    }
    kernel.reset();
    let mut batches = BatchCounter::default();
    kernel.threaded(&mut batches);

    let null_s = tracer.summary_s("workloads.kernel_null");
    let count_s = tracer.summary_s("memtrace.count");
    metrics.set_fastest("workloads.kernel_null_s", null_s);
    metrics.set_fastest(
        "workloads.unthreaded_null_s",
        tracer.summary_s("workloads.unthreaded_null"),
    );
    metrics.set("memtrace.accesses", batches.accesses as f64);
    metrics.set("memtrace.batch_calls", batches.calls as f64);
    metrics.set(
        "memtrace.accesses_per_batch",
        share(batches.accesses as f64, batches.calls as f64),
    );
    let (null_s, count_s) = (
        null_s.map_or(0.0, |s| s.min),
        count_s.map_or(0.0, |s| s.min),
    );
    metrics.set("memtrace.emit_s", count_s - null_s);
    metrics.set_fastest("memtrace.capture_s", tracer.summary_s("memtrace.capture"));

    let trace = Trace {
        instructions: captured.instructions_executed(),
        accesses: captured.into_accesses(),
        threads,
    };
    checks.check(trace.accesses.len() as u64 == batches.accesses, || {
        "the captured trace and the counted trace differ in length".to_owned()
    });
    let simulate_s = cachesim_layers(&trace, machine, &expected.report, tracer, metrics, checks);
    (trace, count_s, simulate_s)
}

fn reconcile(stages_s: f64, rep_s: f64, metrics: &mut Metrics) {
    metrics.set("trace.reconcile_pct", 100.0 * stages_s / rep_s);
}

// ---------------------------------------------------------------------------

/// `pipeline_matmul`: the `ExpScale::default_scaled` cell of Tables 2–3.
pub struct Matmul;

const MATMUL_N: usize = 256;

pub struct MatmulInput {
    machine: MachineModel,
    config: SchedulerConfig,
    data: matmul::MatMulData,
}

impl TracedKernel for MatmulInput {
    fn threaded<S: TraceSink>(&mut self, sink: &mut S) -> WorkloadReport {
        matmul::threaded(&mut self.data, self.config, sink)
    }

    fn unthreaded<S: TraceSink>(&mut self, sink: &mut S) -> WorkloadReport {
        matmul::transposed(&mut self.data, sink)
    }

    fn reset(&mut self) {
        self.data.reset();
    }
}

#[derive(PartialEq)]
pub struct PipelineOut {
    sim: SimOut,
    threads: u64,
}

impl Workload for Matmul {
    type Input = MatmulInput;
    type Output = PipelineOut;

    fn setup(seed: u64) -> MatmulInput {
        let machine = MachineModel::r8000()
            .scaled_split(1.0, 1.0 / 16.0)
            .expect("the default_scaled matmul machine is valid");
        let config = BinGeometry::for_machine(&machine).flat_config(Kernel::MatMul);
        let data = matmul::MatMulData::new(&mut AddressSpace::new(), MATMUL_N, seed);
        MatmulInput {
            machine,
            config,
            data,
        }
    }

    fn rep(input: &mut MatmulInput, tracer: &mut Tracer) -> PipelineOut {
        let mut sim = SimSink::new(input.machine.hierarchy());
        let (report, _) = tracer.time("rep.kernel_into_sim", || input.threaded(&mut sim));
        let (sim, _) = tracer.time("rep.finish", || {
            sim.add_threads(report.threads);
            SimOut::new(sim.finish(), &input.machine)
        });
        PipelineOut {
            sim,
            threads: report.threads,
        }
    }

    fn ops(output: &PipelineOut) -> u64 {
        output.sim.report.data_references()
    }

    fn simulated(output: &PipelineOut, metrics: &mut Metrics) {
        output.sim.simulated(metrics);
    }

    fn check(input: &mut MatmulInput, output: &PipelineOut, checks: &mut Checks) {
        let error = input.data.max_error_vs_naive();
        checks.check(error < 1e-9, || {
            format!("product differs from the naive one by {error}")
        });
        checks.check(output.threads == (MATMUL_N * MATMUL_N) as u64, || {
            format!("{} threads forked, not n^2", output.threads)
        });
    }

    fn layers(
        input: &mut MatmulInput,
        output: &PipelineOut,
        rep_s: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) {
        data_init_layer(tracer, metrics, || {
            matmul::MatMulData::new(&mut AddressSpace::new(), MATMUL_N, 1)
        });
        let machine = input.machine.clone();
        let (_, kernel_s, simulate_s) =
            pipeline_layers(input, &machine, &output.sim, tracer, metrics, checks);
        reconcile(kernel_s + simulate_s, rep_s, metrics);
    }
}

fn data_init_layer<D>(tracer: &mut Tracer, metrics: &mut Metrics, init: impl Fn() -> D) {
    for rep in 0..TRACE_REPS {
        tracer.set_rep(rep);
        black_box(tracer.time("workloads.data_init", &init));
    }
    metrics.set_fastest(
        "workloads.data_init_s",
        tracer.summary_s("workloads.data_init"),
    );
}

// ---------------------------------------------------------------------------

/// `pipeline_pde_sharded`: the threaded PDE sweep into the sharded
/// simulator — `CompactBuf` encode, per-shard queues, program-order
/// merge — on a stream that misses L1 far more often than matmul's.
pub struct PdeSharded;

/// A quarter of `ExpScale::default_scaled`'s grid (n = 1025) on a
/// quarter of its L2, so the data : cache ratio — and with it the share
/// of accesses that miss — is the default scale's, in a quarter of the
/// host time per repetition.
const PDE_N: usize = 513;
const PDE_L2_FACTOR: f64 = 1.0 / 16.0;
const PDE_ITERS: usize = 5;
const SHARDS: u32 = 4;

pub struct PdeInput {
    machine: MachineModel,
    config: SchedulerConfig,
    data: pde::PdeData,
}

impl PdeInput {
    fn new(seed: u64) -> Self {
        let machine = MachineModel::r8000()
            .scaled_split(1.0, PDE_L2_FACTOR)
            .expect("the scaled PDE machine is valid");
        let config = BinGeometry::for_machine(&machine).flat_config(Kernel::Pde);
        let data = pde::PdeData::new(&mut AddressSpace::new(), PDE_N, seed);
        PdeInput {
            machine,
            config,
            data,
        }
    }
}

impl TracedKernel for PdeInput {
    fn threaded<S: TraceSink>(&mut self, sink: &mut S) -> WorkloadReport {
        pde::threaded(&mut self.data, PDE_ITERS, self.config, sink)
    }

    fn unthreaded<S: TraceSink>(&mut self, sink: &mut S) -> WorkloadReport {
        pde::regular(&mut self.data, PDE_ITERS, sink)
    }

    fn reset(&mut self) {
        self.data.reset();
    }
}

/// One sharded replay of `trace`: the routing and encoding of
/// `access_batch` (which drains whenever the queues fill), then
/// `report`'s last drain and merge. Returns the seconds of both.
fn shard_replay(
    trace: &Trace,
    machine: &MachineModel,
    shards: u32,
    tracer: &mut Tracer,
) -> (ShardedSimSink, SimOut, f64) {
    let mut sim = ShardedSimSink::new(machine.hierarchy(), shards);
    let ((), replay_s) = tracer.time("cachesim.shard_replay", || trace.feed(&mut sim));
    sim.add_threads(trace.threads);
    let (report, report_s) = tracer.time("cachesim.shard_report", || sim.report());
    (sim, SimOut::new(report, machine), replay_s + report_s)
}

impl Workload for PdeSharded {
    type Input = PdeInput;
    type Output = PipelineOut;

    fn setup(seed: u64) -> PdeInput {
        PdeInput::new(seed)
    }

    fn reset(input: &mut PdeInput) {
        TracedKernel::reset(input);
    }

    fn rep(input: &mut PdeInput, tracer: &mut Tracer) -> PipelineOut {
        let mut sim = ShardedSimSink::new(input.machine.hierarchy(), SHARDS);
        let (report, _) = tracer.time("rep.kernel_into_sim", || input.threaded(&mut sim));
        let (sim, _) = tracer.time("rep.finish", || {
            sim.add_threads(report.threads);
            SimOut::new(sim.finish(), &input.machine)
        });
        PipelineOut {
            sim,
            threads: report.threads,
        }
    }

    fn ops(output: &PipelineOut) -> u64 {
        output.sim.report.data_references()
    }

    fn simulated(output: &PipelineOut, metrics: &mut Metrics) {
        output.sim.simulated(metrics);
    }

    fn check(input: &mut PdeInput, output: &PipelineOut, checks: &mut Checks) {
        TracedKernel::reset(input);
        let mut sim = SimSink::new(input.machine.hierarchy());
        let report = input.threaded(&mut sim);
        sim.add_threads(report.threads);
        checks.check(sim.finish() == output.sim.report, || {
            "the sharded report differs from an unsharded SimSink run".to_owned()
        });
        checks.check(output.threads == (PDE_ITERS * PDE_N) as u64, || {
            format!("{} threads forked, not iterations x n", output.threads)
        });
    }

    fn layers(
        input: &mut PdeInput,
        output: &PipelineOut,
        rep_s: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) {
        data_init_layer(tracer, metrics, || {
            pde::PdeData::new(&mut AddressSpace::new(), PDE_N, 1)
        });
        let machine = input.machine.clone();
        let (trace, kernel_s, simulate_s) =
            pipeline_layers(input, &machine, &output.sim, tracer, metrics, checks);

        let mut encoded = CompactBuf::new();
        for rep in 0..TRACE_REPS {
            tracer.set_rep(rep);
            encoded = CompactBuf::new();
            tracer.time("memtrace.compact_encode", || {
                encoded.extend(trace.accesses.iter().copied())
            });
            let (decoded, _) = tracer.time("memtrace.compact_decode", || encoded.iter().count());
            checks.check(decoded == trace.accesses.len(), || {
                format!(
                    "CompactBuf decoded {decoded} of {} records",
                    trace.accesses.len()
                )
            });
        }
        metrics.set_fastest(
            "memtrace.compact_encode_s",
            tracer.summary_s("memtrace.compact_encode"),
        );
        metrics.set_fastest(
            "memtrace.compact_decode_s",
            tracer.summary_s("memtrace.compact_decode"),
        );
        metrics.set(
            "memtrace.compact_bytes_per_access",
            share(encoded.byte_len() as f64, encoded.len() as f64),
        );
        drop(encoded);

        let mut profile = probe::RunProfile::new();
        let mut shards = 0;
        for rep in 0..TRACE_REPS {
            tracer.set_rep(rep);
            let (sim, out, _) = shard_replay(&trace, &machine, SHARDS, tracer);
            checks.check(out == output.sim, || {
                format!("sharded replay {rep} differs")
            });
            shards = sim.plan().shards();
            profile = sim.run_profile();
        }
        metrics.set("cachesim.shards_effective", f64::from(shards));
        let replay_s = tracer.summary_s("cachesim.shard_replay");
        let report_s = tracer.summary_s("cachesim.shard_report");
        metrics.set_fastest("cachesim.shard_replay_s", replay_s);
        metrics.set_fastest("cachesim.shard_report_s", report_s);
        let sharded_s = replay_s.map_or(0.0, |s| s.min) + report_s.map_or(0.0, |s| s.min);
        metrics.set("cachesim.shard_over_fast", share(simulate_s, sharded_s));
        // From the probe layer: 0 in a `--no-default-features` build.
        metrics.set(
            "cachesim.shard_run_collapsed_share",
            share(
                counter(&profile, "sharding", "run_collapsed"),
                counter(&profile, "sharding", "records"),
            ),
        );
        metrics.set(
            "cachesim.shard_queue_bytes",
            counter(&profile, "sharding", "queue_bytes"),
        );
        // The sharded simulator is what this workload's repetitions run.
        reconcile(kernel_s + sharded_s, rep_s, metrics);
    }
}

/// `cachesim.shard_unpinned_replay_s`: the sharded replay and report
/// (compare `shard_replay_s + shard_report_s`) in a process the
/// launcher did *not* pin, so `ShardedSimSink` may drain on worker
/// threads — one a shard, so no more shards than the host has cores.
/// Informational and noisy: the workers share those cores with
/// everything else.
pub fn shard_unpinned_replay_s(seed: u64) -> Metrics {
    let mut input = PdeInput::new(seed);
    let mut captured = VecSink::new();
    let report = input.threaded(&mut captured);
    let trace = Trace {
        instructions: captured.instructions_executed(),
        accesses: captured.into_accesses(),
        threads: report.threads,
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let shards = SHARDS.min(u32::try_from(cores).unwrap_or(SHARDS));
    let mut tracer = Tracer::new(false);
    let secs: Vec<f64> = (0..TRACE_REPS)
        .map(|_| shard_replay(&trace, &input.machine, shards, &mut tracer).2)
        .collect();
    let mut metrics = Metrics::default();
    metrics.set_fastest("cachesim.shard_unpinned_replay_s", Summary::of(&secs));
    metrics
}
