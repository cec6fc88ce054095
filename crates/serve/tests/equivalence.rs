//! Online-vs-offline equivalence: with every request arriving at t=0
//! and an unbounded admission queue, the continuously-draining online
//! engine must execute requests in **exactly** the offline batch
//! scheduler's order, with identical per-request miss deltas — for
//! every bin policy and any lane count.
//!
//! This is the contract that makes the online mode trustworthy: lanes
//! model time overlap only, never reorder execution, and the online
//! ready-queue reproduces the batch tour.

use cachesim::MachineModel;
use locality_sched::EvictionPolicy;
use proptest::prelude::*;
use serve::{
    run_offline, run_serve, ExecRecord, Request, ServeConfig, ServePolicy, TraceConfig, TraceGen,
};

/// The t=0 variant of a trace: same requests, all arriving at the
/// epoch.
fn at_epoch(config: TraceConfig) -> impl Iterator<Item = Request> {
    TraceGen::new(config).map(|r| Request { arrival_ns: 0, ..r })
}

fn machine(index: usize) -> MachineModel {
    match index {
        0 => MachineModel::r8000(),
        1 => MachineModel::r10000(),
        2 => MachineModel::modern(),
        3 => MachineModel::r8000()
            .scaled(0.25)
            .expect("valid scaled machine"),
        4 => MachineModel::r10000()
            .scaled_split(0.5, 0.125)
            .expect("valid scaled machine"),
        _ => MachineModel::numa2(),
    }
}

fn policy(index: usize) -> ServePolicy {
    ServePolicy::all()[index % ServePolicy::all().len()]
}

fn online_log(
    config: TraceConfig,
    machine: &MachineModel,
    lanes: usize,
    policy: ServePolicy,
) -> Vec<ExecRecord> {
    // Eviction and shedding at their bench defaults: the equivalence
    // contract requires that a t=0 run NEVER evicts (only insert-time
    // reaping, and every insert precedes the first drain) and an
    // unbounded queue never sheds — so the log must still match batch.
    let serve_config = ServeConfig {
        lanes,
        queue_bound: u64::MAX,
        eviction: EvictionPolicy::LruCap { max_records: 8192 },
        log_execution: true,
    };
    let out = run_serve(at_epoch(config), machine, &serve_config, policy).unwrap();
    assert_eq!(out.report.rejected, 0, "unbounded queue rejected");
    assert_eq!(out.report.shed, 0, "unbounded queue shed");
    assert_eq!(out.report.evictions, 0, "a t=0 run must never evict");
    assert_eq!(out.report.completed, config.requests, "requests dropped");
    out.log
}

fn trace_config(seed: u64, requests: u64, objects: u64, zipf_s: f64) -> TraceConfig {
    TraceConfig {
        seed,
        requests,
        objects,
        zipf_s,
        object_bytes: 4096,
        mean_interarrival_ns: 200,
        burst_factor: 4,
        burst_len: 32,
        calm_len: 96,
    }
}

proptest! {
    /// The headline property: online(t=0, unbounded, any lane count)
    /// ≡ offline batch, per policy, over random seeds and geometries.
    #[test]
    fn online_t0_matches_offline_batch(
        seed in any::<u64>(),
        machine_index in 0usize..6,
        policy_index in 0usize..5,
        requests in 100u64..400,
        objects in prop_oneof![Just(64u64), Just(256), Just(1024)],
        zipf_s in prop_oneof![Just(0.0), Just(0.8), Just(1.1)],
    ) {
        let config = trace_config(seed, requests, objects, zipf_s);
        let machine = machine(machine_index);
        let policy = policy(policy_index);
        let offline = run_offline(at_epoch(config), &machine, policy).unwrap();
        prop_assert_eq!(offline.len() as u64, requests);
        for lanes in [1usize, 2, 4] {
            let online = online_log(config, &machine, lanes, policy);
            prop_assert_eq!(
                &online,
                &offline,
                "policy {} lanes {} diverged",
                policy.name(),
                lanes
            );
        }
    }
}

/// A deterministic spot-check of the same property over every policy ×
/// lane cell, so a regression fails a plain `cargo test` run even if
/// proptest's seed happens to dodge it.
#[test]
fn all_policy_lane_cells_agree_on_fixed_trace() {
    let config = trace_config(0xA5A5, 600, 256, 0.99);
    // numa2 exercises the topology policy at depth 4: the t=0 contract
    // must hold on deep trees, not just the two-level machines.
    for machine in [
        MachineModel::r8000(),
        MachineModel::r10000(),
        MachineModel::numa2(),
    ] {
        for policy in ServePolicy::all() {
            let offline = run_offline(at_epoch(config), &machine, policy).unwrap();
            for lanes in [1usize, 2, 4] {
                let online = online_log(config, &machine, lanes, policy);
                assert_eq!(
                    online,
                    offline,
                    "{} × {} lanes on {}",
                    policy.name(),
                    lanes,
                    machine.name()
                );
            }
        }
    }
}

/// Lane count must not even change the aggregate report apart from the
/// lane field and latency/makespan (which overlap in time): served,
/// warm-hit, and drain counts are order-derived and the order is fixed.
#[test]
fn lane_count_preserves_order_derived_metrics() {
    let config = trace_config(77, 800, 512, 0.9);
    let machine = MachineModel::r8000();
    let unbounded = |lanes: usize| ServeConfig {
        lanes,
        queue_bound: u64::MAX,
        eviction: EvictionPolicy::Off,
        log_execution: false,
    };
    let base = run_serve(
        at_epoch(config),
        &machine,
        &unbounded(1),
        ServePolicy::Hierarchical,
    )
    .unwrap();
    for lanes in [2usize, 4] {
        let other = run_serve(
            at_epoch(config),
            &machine,
            &unbounded(lanes),
            ServePolicy::Hierarchical,
        )
        .unwrap();
        assert_eq!(other.report.completed, base.report.completed);
        assert_eq!(other.report.warm_hits, base.report.warm_hits);
        assert_eq!(other.report.drains, base.report.drains);
        assert_eq!(
            other.sim, base.sim,
            "cache behaviour must not depend on lanes"
        );
    }
}
