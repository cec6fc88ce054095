//! Every metric the benchmark reports: name, unit, direction, and —
//! for host end-to-end metrics — the share by which it may worsen.
//!
//! `BENCHMARK.json` lists the same names (a test compares the two).
//! Host time and simulated time are separate classes everywhere: a
//! change meant only to speed up the host side must leave every
//! [`Class::Simulated`] number bit-identical.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    /// Measured on the host by the untraced run; noisy; may worsen by
    /// `bound` (a share of the reference) before it counts as a
    /// regression. These are `BENCHMARK.json`'s `end_to_end`.
    Host { bound: f64 },
    /// Computed by the simulator from the untraced run's output; repeats
    /// exactly, so any difference between two sets of one build is a
    /// failure. End-to-end for the user, but defined only where a
    /// workload simulates something, so `BENCHMARK.json` (whose
    /// end-to-end metrics every workload must report, never as 0)
    /// carries them under `per_layer`.
    Simulated,
    /// Measured by the traced run around one layer's calls.
    Layer,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Host { bound },
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Simulated,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer,
    }
}

use Better::{Higher, Lower};

pub const CATALOG: &[MetricDef] = &[
    // Host end-to-end. The issue asked for an `ops_per_s` bound of twice
    // the spread between two sets and at most 10%. On the shared
    // reference host the quartiles of ten runs have been up to 14%
    // apart (README, "Steadiness"), so `ops_per_s` takes the widest
    // bound the driver's contract allows; so does `setup_s`, which is
    // milliseconds of page faults on most workloads. `peak_rss_mib`
    // spreads under 2%, and 10% is the issue's "5% or 2 MiB" at the
    // smaller workloads' 7-30 MiB.
    host("setup_s", "s", Lower, 0.25),
    host("ops_per_s", "1/s", Higher, 0.25),
    host("peak_rss_mib", "MiB", Lower, 0.10),
    // Simulated end-to-end.
    simulated("modeled_s", "s", Lower),
    simulated("l2_misses", "count", Lower),
    simulated("l2_capacity_misses", "count", Lower),
    simulated("modeled_p99_latency_ns", "ns", Lower),
    simulated("warm_hit_pct", "%", Higher),
    // workloads
    layer("workloads.data_init_s", "s", Lower),
    layer("workloads.kernel_null_s", "s", Lower),
    layer("workloads.unthreaded_null_s", "s", Lower),
    // memtrace
    layer("memtrace.accesses", "count", Lower),
    layer("memtrace.batch_calls", "count", Lower),
    layer("memtrace.accesses_per_batch", "ratio", Higher),
    layer("memtrace.emit_s", "s", Lower),
    layer("memtrace.capture_s", "s", Lower),
    layer("memtrace.compact_encode_s", "s", Lower),
    layer("memtrace.compact_decode_s", "s", Lower),
    layer("memtrace.compact_bytes_per_access", "B", Lower),
    // cachesim: host time
    layer("cachesim.replay_s", "s", Lower),
    layer("cachesim.replay_ns_per_access", "ns", Lower),
    layer("cachesim.finish_s", "s", Lower),
    layer("cachesim.slow_replay_s", "s", Lower),
    layer("cachesim.fast_over_slow", "ratio", Higher),
    layer("cachesim.shard_replay_s", "s", Lower),
    layer("cachesim.shard_report_s", "s", Lower),
    layer("cachesim.shard_over_fast", "ratio", Higher),
    layer("cachesim.shards_effective", "count", Higher),
    layer("cachesim.shard_run_collapsed_share", "ratio", Higher),
    layer("cachesim.shard_queue_bytes", "B", Lower),
    layer("cachesim.shard_unpinned_replay_s", "s", Lower),
    layer("cachesim.classify_ns_per_miss", "ns", Lower),
    // cachesim: exact counts that say why host time moves on one
    // workload and not on another
    layer("cachesim.l1_hits", "count", Higher),
    layer("cachesim.l1_misses", "count", Lower),
    layer("cachesim.l2_hits", "count", Higher),
    layer("cachesim.l2_misses", "count", Lower),
    layer("cachesim.compulsory", "count", Lower),
    layer("cachesim.capacity", "count", Lower),
    layer("cachesim.conflict", "count", Lower),
    layer("cachesim.memory_writebacks", "count", Lower),
    layer("cachesim.l1_rehit_share", "ratio", Higher),
    layer("cachesim.l1_mru_hit_share", "ratio", Higher),
    layer("cachesim.l2_rehit_share", "ratio", Higher),
    // core
    layer("core.fork_s", "s", Lower),
    layer("core.run_s", "s", Lower),
    layer("core.fork_ns_per_thread", "ns", Lower),
    layer("core.run_ns_per_thread", "ns", Lower),
    layer("core.threads", "count", Higher),
    layer("core.bins", "count", Lower),
    layer("core.threads_per_bin_mean", "ratio", Higher),
    layer("core.bin_size_cv", "ratio", Lower),
    layer("core.fifo_ns_per_thread", "ns", Lower),
    layer("core.online_ns_per_thread", "ns", Lower),
    layer("core.hier_ns_per_thread", "ns", Lower),
    layer("core.topology_ns_per_thread", "ns", Lower),
    // serve
    layer("serve.tracegen_ns_per_req", "ns", Lower),
    layer("serve.run_ns_per_req", "ns", Lower),
    layer("serve.fifo_run_ns_per_req", "ns", Lower),
    layer("serve.offline_run_ns_per_req", "ns", Lower),
    layer("serve.eventheap_ns_per_op", "ns", Lower),
    layer("serve.accesses_per_req", "ratio", Lower),
    layer("serve.requests_per_drain", "ratio", Higher),
    layer("serve.offered", "count", Higher),
    layer("serve.admitted", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.completed", "count", Higher),
    layer("serve.drains", "count", Lower),
    layer("serve.evictions", "count", Lower),
    layer("serve.peak_live_bin_records", "count", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    // the instrumentation's own cost
    layer("probe.overhead_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.reconcile_pct", "%", Higher),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|def| def.name == name)
}

/// The metrics a driver run reports: the host end-to-end metrics
/// untraced, everything else traced.
pub fn reported(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    CATALOG
        .iter()
        .filter(move |def| matches!(def.class, Class::Host { .. }) != traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        for (i, def) in CATALOG.iter().enumerate() {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                def.name,
                def.unit
            );
            assert!(
                CATALOG[..i].iter().all(|other| other.name != def.name),
                "{} listed twice",
                def.name
            );
            if let Class::Host { bound } = def.class {
                assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
            }
        }
        assert!(reported(false).count() <= 16 && reported(true).count() <= 128);
    }

    /// `BENCHMARK.json` sits one directory up, at the repository root.
    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            file.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let expected = |traced: bool| -> Vec<(String, String, String, Option<f64>)> {
            reported(traced)
                .map(|def| {
                    let bound = match def.class {
                        Class::Host { bound } => Some(bound),
                        _ => None,
                    };
                    (
                        def.name.to_owned(),
                        def.unit.to_owned(),
                        def.better.as_str().to_owned(),
                        bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expected(false));
        assert_eq!(listed("per_layer"), expected(true));
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
