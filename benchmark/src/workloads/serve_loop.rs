//! `serve_zipf`: the serving loop under `servebench`'s trace shape —
//! the only wall-clock view of `run_serve`, and a different use of core
//! (online `drain_next`, eviction, tombstones) and of cachesim
//! (hundreds of line-granular accesses per request, cold and warm
//! objects alternating).

use super::simulate::share;
use crate::harness::{Checks, Metrics, Workload, TRACE_REPS};
use crate::span::Tracer;
use cachesim::{MachineModel, SimReport};
use serve::{
    run_offline, run_serve, Event, EventHeap, Request, ServeConfig, ServePolicy, ServeReport,
    TraceConfig, TraceGen,
};
use std::hint::black_box;

pub struct Zipf;

/// Six of the trace's burst + calm cycles.
const REQUESTS: u64 = 6 * (512 + 1536);

/// `servebench` draws from 16 Ki objects; 1 Ki of them is still eight
/// times the 4 MiB L2, and keeps the classifier's table of lines seen —
/// the simulator's largest structure — near the host's private cache,
/// where co-tenants of the reference host disturb it half as much.
const OBJECTS: u64 = 1 << 10;

/// `servebench`'s `serve_trace` shape: Zipf-hot 32 KiB objects, a
/// working set far larger than the L2 with a hot set that fits, under
/// 8× bursts.
fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        seed,
        requests: REQUESTS,
        objects: OBJECTS,
        zipf_s: 0.9,
        object_bytes: 32 << 10,
        mean_interarrival_ns: 50_000,
        burst_factor: 8,
        burst_len: 512,
        calm_len: 1536,
    }
}

pub struct ZipfInput {
    trace: TraceConfig,
    machine: MachineModel,
    config: ServeConfig,
    /// The generated trace, so a repetition times the serving loop and
    /// not the generator (`serve.tracegen_ns_per_req` times that).
    requests: Vec<Request>,
}

#[derive(PartialEq)]
pub struct ZipfOut {
    report: ServeReport,
    sim: SimReport,
}

fn serve(input: &ZipfInput, policy: ServePolicy) -> ZipfOut {
    let outcome = run_serve(
        input.requests.iter().copied(),
        &input.machine,
        &input.config,
        policy,
    )
    .expect("the R8000's caches carve separated serving bins");
    ZipfOut {
        report: outcome.report,
        sim: outcome.sim,
    }
}

impl Workload for Zipf {
    type Input = ZipfInput;
    type Output = ZipfOut;

    fn setup(seed: u64) -> ZipfInput {
        let trace = trace_config(seed);
        ZipfInput {
            trace,
            machine: MachineModel::r8000(),
            config: ServeConfig::default_bench(),
            requests: TraceGen::new(trace).collect(),
        }
    }

    fn rep(input: &mut ZipfInput, tracer: &mut Tracer) -> ZipfOut {
        tracer
            .time("rep.serve", || serve(input, ServePolicy::Flat))
            .0
    }

    fn ops(output: &ZipfOut) -> u64 {
        output.report.offered
    }

    fn simulated(output: &ZipfOut, metrics: &mut Metrics) {
        metrics.set("modeled_s", output.report.makespan_ns as f64 / 1e9);
        metrics.set("l2_misses", output.sim.l2.misses() as f64);
        metrics.set("l2_capacity_misses", output.sim.classes.capacity as f64);
        metrics.set(
            "modeled_p99_latency_ns",
            output.report.p99_latency_ns as f64,
        );
        metrics.set("warm_hit_pct", output.report.warm_hit_rate_pct());
    }

    fn check(_input: &mut ZipfInput, output: &ZipfOut, checks: &mut Checks) {
        let r = &output.report;
        checks.check(r.offered == REQUESTS, || {
            format!("{} requests offered, not {REQUESTS}", r.offered)
        });
        checks.check(r.admitted + r.rejected == r.offered, || {
            format!(
                "admitted {} + rejected {} != offered {}",
                r.admitted, r.rejected, r.offered
            )
        });
        checks.check(r.completed + r.shed == r.admitted, || {
            format!(
                "completed {} + shed {} != admitted {}",
                r.completed, r.shed, r.admitted
            )
        });
    }

    fn layers(
        input: &mut ZipfInput,
        output: &ZipfOut,
        _rep_s: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) {
        let per_request = |secs: Option<crate::stats::Summary>| {
            1e9 * secs.map_or(0.0, |s| s.min) / REQUESTS as f64
        };
        for rep in 0..TRACE_REPS {
            tracer.set_rep(rep);
            let (generated, _) =
                tracer.time("serve.tracegen", || TraceGen::new(input.trace).count());
            checks.check(generated as u64 == REQUESTS, || {
                format!("{generated} requests generated")
            });
            // One bin: what the serving loop costs without binning.
            black_box(tracer.time("serve.fifo_run", || serve(input, ServePolicy::SingleBin)));
            // Forked up front and drained in one batch: no event heap,
            // no admission.
            let (log, _) = tracer.time("serve.offline_run", || {
                run_offline(
                    input.requests.iter().copied(),
                    &input.machine,
                    ServePolicy::Flat,
                )
            });
            checks.check(log.is_ok_and(|log| log.len() as u64 == REQUESTS), || {
                "the offline run did not execute every request".to_owned()
            });
        }
        metrics.set(
            "serve.tracegen_ns_per_req",
            per_request(tracer.summary_s("serve.tracegen")),
        );
        metrics.set(
            "serve.run_ns_per_req",
            per_request(tracer.summary_s("rep.serve")),
        );
        metrics.set(
            "serve.fifo_run_ns_per_req",
            per_request(tracer.summary_s("serve.fifo_run")),
        );
        metrics.set(
            "serve.offline_run_ns_per_req",
            per_request(tracer.summary_s("serve.offline_run")),
        );
        metrics.set(
            "serve.eventheap_ns_per_op",
            eventheap_ns_per_op(input, tracer),
        );

        let r = &output.report;
        let ratio = |a: u64, b: u64| share(a as f64, b as f64);
        metrics.set(
            "serve.accesses_per_req",
            ratio(output.sim.data_references(), r.completed),
        );
        metrics.set("serve.requests_per_drain", ratio(r.completed, r.drains));
        for (name, count) in [
            ("serve.offered", r.offered),
            ("serve.admitted", r.admitted),
            ("serve.rejected", r.rejected),
            ("serve.shed", r.shed),
            ("serve.completed", r.completed),
            ("serve.drains", r.drains),
            ("serve.evictions", r.evictions),
            ("serve.peak_live_bin_records", r.peak_live_bin_records),
            ("serve.max_queue_depth", r.max_queue_depth),
        ] {
            metrics.set(name, count as f64);
        }
    }
}

/// The event heap alone: the trace's arrivals pushed and popped with
/// the heap held at the admission bound's depth.
fn eventheap_ns_per_op(input: &ZipfInput, tracer: &mut Tracer) -> f64 {
    let depth = input.config.queue_bound as usize;
    for rep in 0..TRACE_REPS {
        tracer.set_rep(rep);
        tracer.time("serve.eventheap", || {
            let mut heap = EventHeap::new();
            for (slot, request) in input.requests.iter().enumerate() {
                heap.push(request.arrival_ns, Event::Arrival(slot));
                if heap.len() > depth {
                    black_box(heap.pop());
                }
            }
            while let Some(event) = heap.pop() {
                black_box(event);
            }
        });
    }
    let secs = tracer.summary_s("serve.eventheap").map_or(0.0, |s| s.min);
    1e9 * secs / (2 * input.requests.len()) as f64
}
