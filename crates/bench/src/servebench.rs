//! The online serving experiment: stream an Azure-style synthetic
//! trace through the continuously-draining engine under each bin
//! policy and score the serving-side metrics the batch tables cannot
//! see — cold/warm hit rate, modeled latency percentiles, queue depth,
//! and mean slowdown.
//!
//! Every number in the emitted `BENCH_serve.json` derives from the
//! virtual clock and the deterministic cache simulation, so the file
//! is byte-reproducible across runs and hosts; CI runs the experiment
//! twice and diffs the bytes.

use crate::scale::ExpScale;
use cachesim::MachineModel;
use locality_sched::EvictionPolicy;
use serve::{run_serve, ServeConfig, ServeOutcome, ServePolicy, TraceConfig, TraceGen};

/// Trace seed committed alongside the baselines.
const TRACE_SEED: u64 = 1996;

/// One policy's serving scoreboard.
#[derive(Clone, Debug)]
pub struct ServeBenchRow {
    /// Policy identifier (`flat`, `hierarchical`, `topology`,
    /// `single_bin`, `unique_bin`).
    pub policy: &'static str,
    /// The run's full outcome (report + final cache stats).
    pub outcome: ServeOutcome,
}

/// The whole experiment: one row per policy over one shared trace.
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    /// Machine the service was modeled on.
    pub machine: String,
    /// Trace the policies shared.
    pub trace: TraceConfig,
    /// Serving knobs the policies shared.
    pub lanes: u64,
    /// Admission bound.
    pub queue_bound: u64,
    /// Eviction policy (display form, e.g. `lru-cap(8192)`).
    pub eviction: String,
    /// Per-policy rows, in [`ServePolicy::all`] order.
    pub rows: Vec<ServeBenchRow>,
}

/// The trace `servebench` streams: Zipf-hot objects a few KiB each —
/// a working set far larger than the L2, with a hot set that fits —
/// under 8× bursts. `requests` comes from the scale preset.
pub fn serve_trace(requests: u64) -> TraceConfig {
    TraceConfig {
        seed: TRACE_SEED,
        requests,
        objects: 1 << 14,
        zipf_s: 0.9,
        object_bytes: 32 << 10,
        mean_interarrival_ns: 50_000,
        burst_factor: 8,
        burst_len: 512,
        calm_len: 1536,
    }
}

/// Runs the serving experiment at `scale` on the unscaled R8000 with
/// the default serving knobs (shed-oldest admission, LRU-capped bin
/// table).
pub fn servebench(scale: &ExpScale) -> ServeBenchResult {
    servebench_with(scale, &ServeConfig::default_bench())
}

/// [`servebench`] under explicit serving knobs.
pub fn servebench_with(scale: &ExpScale, config: &ServeConfig) -> ServeBenchResult {
    let machine = MachineModel::r8000();
    let trace = serve_trace(scale.serve_requests);
    let rows = ServePolicy::all()
        .into_iter()
        .map(|policy| ServeBenchRow {
            policy: policy.name(),
            outcome: run_serve(TraceGen::new(trace), &machine, config, policy)
                .expect("bench machines have separable caches"),
        })
        .collect();
    ServeBenchResult {
        machine: machine.name().to_owned(),
        trace,
        lanes: config.lanes as u64,
        queue_bound: config.queue_bound,
        eviction: config.eviction.to_string(),
        rows,
    }
}

/// The long-run memory-bound gate (`servelong`): stream the full
/// request volume under a deliberately small LRU cap and fail loudly
/// if the live bin table ever exceeded it or the request accounting
/// does not balance. This is what makes "bounded memory" a CI
/// invariant instead of a code comment.
///
/// The cap must clear the run's peak *backlog* (bins holding undrained
/// threads are pinned; only drained-and-empty records can be evicted),
/// so it is set just above the admission bound plus drain-unit slack —
/// far below the 16k-object key universe the table would otherwise
/// track.
pub const SERVELONG_CAP: u64 = 6_000;

/// Runs the gate and returns the violations (empty = pass).
pub fn servelong(scale: &ExpScale) -> (ServeBenchResult, Vec<String>) {
    let config = ServeConfig {
        eviction: EvictionPolicy::LruCap {
            max_records: SERVELONG_CAP,
        },
        ..ServeConfig::default_bench()
    };
    let result = servebench_with(scale, &config);
    let mut violations = Vec::new();
    for row in &result.rows {
        let report = &row.outcome.report;
        if report.peak_live_bin_records > SERVELONG_CAP {
            violations.push(format!(
                "{}: peak_live_bin_records {} exceeds cap {SERVELONG_CAP}",
                row.policy, report.peak_live_bin_records
            ));
        }
        if report.completed + report.shed != report.admitted {
            violations.push(format!(
                "{}: completed {} + shed {} != admitted {}",
                row.policy, report.completed, report.shed, report.admitted
            ));
        }
        if report.admitted + report.rejected != report.offered {
            violations.push(format!(
                "{}: admitted {} + rejected {} != offered {}",
                row.policy, report.admitted, report.rejected, report.offered
            ));
        }
    }
    (result, violations)
}

impl ServeBenchResult {
    /// The row for `policy`, if measured.
    pub fn row(&self, policy: &str) -> Option<&ServeBenchRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// Benchdiff-compatible JSON. Deliberately omits anything
    /// wall-clock (probe spans, run profiles): the committed baseline
    /// and the CI byte-reproducibility check require every field to be
    /// a pure function of (trace, machine, policy).
    pub fn to_json(&self) -> String {
        probe::json::write(|w| {
            w.object(|w| {
                w.key("experiment").string("serve");
                w.key("machine").string(&self.machine);
                w.key("seed").uint(self.trace.seed);
                w.key("requests").uint(self.trace.requests);
                w.key("objects").uint(self.trace.objects);
                w.key("zipf_s").float(self.trace.zipf_s, 4);
                w.key("object_bytes").uint(self.trace.object_bytes);
                w.key("burst_factor").uint(self.trace.burst_factor);
                w.key("lanes").uint(self.lanes);
                w.key("queue_bound").uint(self.queue_bound);
                w.key("admission").string("shed-oldest");
                w.key("eviction").string(&self.eviction);
                w.key("rows").array(|w| {
                    for row in &self.rows {
                        let report = &row.outcome.report;
                        let sim = &row.outcome.sim;
                        w.object(|w| {
                            w.key("workload").string(row.policy);
                            w.key("offered").uint(report.offered);
                            w.key("admitted").uint(report.admitted);
                            w.key("rejected").uint(report.rejected);
                            w.key("shed").uint(report.shed);
                            w.key("completed").uint(report.completed);
                            w.key("warm_hits").uint(report.warm_hits);
                            w.key("cold_misses").uint(report.cold_misses);
                            w.key("warm_hit_rate_pct")
                                .float(report.warm_hit_rate_pct(), 4);
                            w.key("drains").uint(report.drains);
                            w.key("max_queue_depth").uint(report.max_queue_depth);
                            w.key("mean_queue_depth_x1000")
                                .uint(report.mean_queue_depth_x1000);
                            w.key("p50_latency_ns").uint(report.p50_latency_ns);
                            w.key("p99_latency_ns").uint(report.p99_latency_ns);
                            w.key("mean_latency_ns").uint(report.mean_latency_ns);
                            w.key("mean_slowdown_x1000")
                                .uint(report.mean_slowdown_x1000);
                            w.key("makespan_ns").uint(report.makespan_ns);
                            w.key("evictions").uint(report.evictions);
                            w.key("peak_live_bin_records")
                                .uint(report.peak_live_bin_records);
                            w.key("wasted_memory_time").uint(report.wasted_memory_time);
                            w.key("accesses").uint(sim.data_references());
                            w.key("l1_misses").uint(sim.l1.misses());
                            w.key("l2_misses").uint(sim.l2.misses());
                        });
                    }
                });
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpScale {
        ExpScale {
            serve_requests: 3_000,
            ..ExpScale::smoke()
        }
    }

    #[test]
    fn reports_all_policies_and_is_deterministic() {
        let a = servebench(&tiny());
        assert_eq!(a.rows.len(), 5);
        for policy in [
            "flat",
            "hierarchical",
            "topology",
            "single_bin",
            "unique_bin",
        ] {
            let row = a.row(policy).expect("policy measured");
            let report = &row.outcome.report;
            assert_eq!(report.offered, 3_000, "{policy}");
            assert_eq!(
                report.admitted + report.rejected,
                report.offered,
                "{policy}"
            );
            assert_eq!(report.completed + report.shed, report.admitted, "{policy}");
            assert!(report.p99_latency_ns >= report.p50_latency_ns, "{policy}");
            assert!(report.makespan_ns > 0, "{policy}");
        }
        let b = servebench(&tiny());
        assert_eq!(a.to_json(), b.to_json(), "servebench must be byte-stable");
    }

    #[test]
    fn json_has_benchdiff_shape_and_no_wall_clock() {
        let json = servebench(&tiny()).to_json();
        assert!(json.contains("\"experiment\":\"serve\""), "{json}");
        assert!(json.contains("\"workload\":\"flat\""), "{json}");
        assert!(json.contains("\"warm_hit_rate_pct\":"), "{json}");
        assert!(json.contains("\"p99_latency_ns\":"), "{json}");
        assert!(json.contains("\"mean_slowdown_x1000\":"), "{json}");
        assert!(json.contains("\"shed\":"), "{json}");
        assert!(json.contains("\"evictions\":"), "{json}");
        assert!(json.contains("\"peak_live_bin_records\":"), "{json}");
        assert!(json.contains("\"wasted_memory_time\":"), "{json}");
        assert!(json.contains("\"admission\":\"shed-oldest\""), "{json}");
        assert!(json.contains("\"eviction\":\"lru-cap(8192)\""), "{json}");
        assert!(!json.contains("run_profile"), "wall-clock leaked: {json}");
    }

    #[test]
    fn servelong_gate_passes_at_smoke_scale() {
        let (result, violations) = servelong(&tiny());
        assert!(violations.is_empty(), "{violations:?}");
        for row in &result.rows {
            assert!(
                row.outcome.report.peak_live_bin_records <= SERVELONG_CAP,
                "{}: {}",
                row.policy,
                row.outcome.report.peak_live_bin_records
            );
        }
    }

    #[test]
    fn locality_policies_beat_fifo_on_warm_hits() {
        let result = servebench(&tiny());
        let fifo = result.row("single_bin").unwrap().outcome.report.warm_hits;
        let flat = result.row("flat").unwrap().outcome.report.warm_hits;
        assert!(
            flat >= fifo,
            "locality binning should not lose warm hits: flat {flat} vs fifo {fifo}"
        );
    }
}
