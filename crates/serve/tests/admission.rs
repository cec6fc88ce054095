//! Admission-control edges: bounded queues under bursts, zero-length
//! requests, arrival-timestamp ties, and shed-oldest admission. The
//! serving loop must never panic, never lose a request
//! (`admitted + rejected == offered` and `completed + shed ==
//! admitted`), and never exceed its queue bound.

use cachesim::MachineModel;
use locality_sched::EvictionPolicy;
use proptest::prelude::*;
use serve::{run_serve, Request, ServeConfig, ServePolicy, TraceConfig, TraceGen};

fn bursty(seed: u64, requests: u64) -> TraceConfig {
    TraceConfig {
        seed,
        requests,
        objects: 512,
        zipf_s: 0.99,
        object_bytes: 8192,
        mean_interarrival_ns: 1_000,
        burst_factor: 64,
        burst_len: 256,
        calm_len: 256,
    }
}

fn bounded(lanes: usize, queue_bound: u64) -> ServeConfig {
    ServeConfig {
        lanes,
        queue_bound,
        eviction: EvictionPolicy::Off,
        log_execution: false,
    }
}

/// A full queue sheds its oldest waiting request for each arrival:
/// nothing is rejected, and every admitted request is either served or
/// shed.
#[test]
fn queue_full_rejections_are_accounted_exactly() {
    let machine = MachineModel::r8000();
    let out = run_serve(
        TraceGen::new(bursty(5, 5_000)),
        &machine,
        &bounded(1, 16),
        ServePolicy::Flat,
    )
    .unwrap();
    assert_eq!(out.report.offered, 5_000);
    assert_eq!(
        out.report.admitted + out.report.rejected,
        out.report.offered
    );
    assert_eq!(
        out.report.completed + out.report.shed,
        out.report.admitted,
        "admitted work lost"
    );
    assert_eq!(out.report.rejected, 0, "a full queue sheds, never rejects");
    assert!(
        out.report.shed > 0,
        "a 16-deep queue must spill under 64× bursts"
    );
    assert!(out.report.max_queue_depth <= 16);
}

/// A burst longer than the queue bound: the queue saturates and the
/// overflow sheds older work, but every admitted request is accounted
/// for.
#[test]
fn burst_longer_than_queue_bound_spills_not_crashes() {
    let machine = MachineModel::r10000();
    // burst_len 256 ≫ bound 8, arrivals 64× faster than service can
    // drain on one lane.
    let out = run_serve(
        TraceGen::new(bursty(9, 2_048)),
        &machine,
        &bounded(1, 8),
        ServePolicy::Hierarchical,
    )
    .unwrap();
    assert_eq!(out.report.admitted, 2_048);
    assert_eq!(out.report.rejected, 0);
    assert_eq!(out.report.completed + out.report.shed, out.report.admitted);
    assert!(
        out.report.shed >= 2_048 / 4,
        "most of each burst must spill"
    );
    assert!(out.report.max_queue_depth <= 8);
}

/// Zero-length requests (metadata probes) flow through every stage:
/// admitted, scheduled, completed — as warm hits, touching no lines.
#[test]
fn zero_length_requests_complete_as_warm_hits() {
    let machine = MachineModel::r8000();
    let probes = (0..100u64).map(|id| Request {
        id,
        arrival_ns: id * 10,
        object: id,
        addr: 0x1_0000 + id * 4096,
        bytes: 0,
    });
    let out = run_serve(
        probes,
        &machine,
        &ServeConfig {
            log_execution: true,
            ..bounded(2, u64::MAX)
        },
        ServePolicy::Flat,
    )
    .unwrap();
    assert_eq!(out.report.completed, 100);
    assert_eq!(out.report.warm_hits, 100, "zero lines touched ⇒ warm");
    assert_eq!(out.report.cold_misses, 0);
    assert!(out.log.iter().all(|r| r.lines == 0 && r.l1_misses == 0));
}

/// Simultaneous arrivals (timestamp ties) are admitted in trace order;
/// under the FIFO policy on one lane they also execute in that order.
#[test]
fn arrival_timestamp_ties_keep_trace_order() {
    let machine = MachineModel::r8000();
    let tied = (0..64u64).map(|id| Request {
        id,
        arrival_ns: 1_000,
        object: id,
        addr: 0x2_0000 + (id % 7) * 65_536,
        bytes: 256,
    });
    let out = run_serve(
        tied,
        &machine,
        &ServeConfig {
            log_execution: true,
            ..bounded(1, u64::MAX)
        },
        ServePolicy::SingleBin,
    )
    .unwrap();
    assert_eq!(out.report.completed, 64);
    let order: Vec<u64> = out.log.iter().map(|r| r.id).collect();
    assert_eq!(order, (0..64).collect::<Vec<u64>>());
}

/// Ties at the bound: with queue_bound = k, a simultaneous batch never
/// holds more than k waiting requests (no over-admission on ties);
/// every arrival past the k-th sheds one.
#[test]
fn ties_at_the_bound_admit_exactly_the_bound() {
    let machine = MachineModel::r8000();
    let tied = (0..32u64).map(|id| Request {
        id,
        arrival_ns: 0,
        object: id,
        addr: 0x3_0000 + id * 65_536,
        bytes: 128,
    });
    let out = run_serve(tied, &machine, &bounded(4, 10), ServePolicy::UniqueBin).unwrap();
    assert_eq!(out.report.max_queue_depth, 10);
    assert_eq!(out.report.rejected, 0);
    assert_eq!(out.report.shed, 22);
    assert_eq!(out.report.completed, 10);
}

/// With simultaneous arrivals, the bound still holds
/// and each arrival past the bound cancels the then-oldest waiting
/// request: the survivors are the *last* k of the batch.
#[test]
fn shed_oldest_on_ties_keeps_the_newest() {
    let machine = MachineModel::r8000();
    let tied = (0..32u64).map(|id| Request {
        id,
        arrival_ns: 0,
        object: id,
        addr: 0x3_0000 + id * 65_536,
        bytes: 128,
    });
    let config = ServeConfig {
        log_execution: true,
        ..bounded(1, 10)
    };
    let out = run_serve(tied, &machine, &config, ServePolicy::SingleBin).unwrap();
    assert_eq!(
        out.report.admitted, 32,
        "every arrival displaced an older one"
    );
    assert_eq!(out.report.rejected, 0);
    assert_eq!(out.report.shed, 22);
    assert_eq!(out.report.completed, 10);
    let order: Vec<u64> = out.log.iter().map(|r| r.id).collect();
    assert_eq!(order, (22..32).collect::<Vec<u64>>());
}

proptest! {
    /// Fuzz the whole admission surface: random traces, bounds (0
    /// included, the only bound that rejects), lane counts, bin
    /// policies, eviction. Invariants: accounting balances
    /// (`admitted + rejected == offered`, `completed + shed ==
    /// admitted`), the bound holds, only an empty queue rejects, and
    /// nothing panics.
    #[test]
    fn admission_invariants_hold_under_fuzz(
        seed in any::<u64>(),
        requests in 1u64..600,
        queue_bound in prop_oneof![Just(0u64), Just(1), Just(4), Just(64), Just(u64::MAX)],
        lanes in 1usize..5,
        policy_index in 0usize..4,
        eviction in prop_oneof![
            Just(EvictionPolicy::Off),
            Just(EvictionPolicy::LruCap { max_records: 8 }),
        ],
        object_bytes in prop_oneof![Just(0u64), Just(64), Just(4096), Just(1 << 16)],
        mean_interarrival_ns in prop_oneof![Just(0u64), Just(100), Just(10_000)],
    ) {
        let config = TraceConfig {
            seed,
            requests,
            objects: 128,
            zipf_s: 0.9,
            object_bytes,
            mean_interarrival_ns,
            burst_factor: 16,
            burst_len: 32,
            calm_len: 32,
        };
        let machine = MachineModel::r8000();
        let policy = ServePolicy::all()[policy_index];
        let serve_config = ServeConfig {
            eviction,
            ..bounded(lanes, queue_bound)
        };
        let out = run_serve(TraceGen::new(config), &machine, &serve_config, policy).unwrap();
        prop_assert_eq!(out.report.offered, requests);
        prop_assert_eq!(out.report.admitted + out.report.rejected, requests);
        prop_assert_eq!(out.report.completed + out.report.shed, out.report.admitted);
        prop_assert_eq!(
            out.report.warm_hits + out.report.cold_misses,
            out.report.completed
        );
        prop_assert!(out.report.max_queue_depth <= queue_bound);
        prop_assert!(out.report.p50_latency_ns <= out.report.p99_latency_ns);
        if eviction == EvictionPolicy::Off {
            prop_assert_eq!(out.report.evictions, 0);
        }
        if queue_bound == 0 {
            prop_assert_eq!(out.report.rejected, requests);
        } else {
            prop_assert_eq!(out.report.rejected, 0);
        }
    }
}
