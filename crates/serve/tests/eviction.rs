//! Bounded-memory serving: the eviction policy must actually bound the
//! live bin table on long streamed runs, and must never change *what*
//! gets executed — only which retired records are still resident.
//!
//! The contract under test (see DESIGN.md §10.4):
//!
//! * A t=0 batch-shaped run never evicts (reaping happens only at
//!   insert time, and every insert precedes the first drain), so the
//!   equivalence suite's guarantees survive eviction at defaults.
//! * An evicted key that re-arrives behaves exactly like a key never
//!   seen before: fresh bin record, inserted at the back of the tour.
//! * Under `LruCap`, `peak_live_bin_records ≤ cap` whenever the cap is
//!   at least the number of bins that can hold undrained threads.

use cachesim::MachineModel;
use locality_sched::EvictionPolicy;
use proptest::prelude::*;
use serve::{run_offline, run_serve, Request, ServeConfig, ServePolicy, TraceConfig, TraceGen};

fn streaming_config(seed: u64, requests: u64) -> TraceConfig {
    TraceConfig {
        seed,
        requests,
        objects: 1 << 14,
        zipf_s: 0.9,
        object_bytes: 1 << 15,
        mean_interarrival_ns: 1_000,
        burst_factor: 8,
        burst_len: 256,
        calm_len: 768,
    }
}

/// The headline long-run bound: stream 100k requests through a
/// bursty trace under an aggressive LRU cap and check the table never
/// exceeded it, while the request accounting still balances.
///
/// The cap must sit above the run's peak *backlog* bins (~3.5k here):
/// bins holding undrained work — including shed tombstones awaiting
/// their free drain — cannot be reclaimed, only drained-and-empty
/// records can. 4096 is still 4× below the 16k-object key universe
/// the no-eviction control tracks.
#[test]
fn aggressive_lru_cap_bounds_the_table_over_100k_requests() {
    let machine = MachineModel::r8000();
    let cap = 4_096u64;
    let config = ServeConfig {
        lanes: 4,
        queue_bound: 256,
        eviction: EvictionPolicy::LruCap { max_records: cap },
        log_execution: false,
    };
    for policy in [ServePolicy::Flat, ServePolicy::Hierarchical] {
        let out = run_serve(
            TraceGen::new(streaming_config(1996, 100_000)),
            &machine,
            &config,
            policy,
        )
        .unwrap();
        assert_eq!(out.report.offered, 100_000, "{}", policy.name());
        assert_eq!(
            out.report.admitted + out.report.rejected,
            out.report.offered,
            "{}",
            policy.name()
        );
        assert_eq!(
            out.report.completed + out.report.shed,
            out.report.admitted,
            "{}",
            policy.name()
        );
        assert!(
            out.report.peak_live_bin_records <= cap,
            "{}: peak {} > cap {cap}",
            policy.name(),
            out.report.peak_live_bin_records
        );
        assert!(
            out.report.evictions > 0,
            "{}: a 16k-object trace under a {cap}-record cap must evict",
            policy.name()
        );
    }
}

/// Without eviction the same run's table grows with the key universe —
/// the leak this PR bounds. This is the negative control proving the
/// 100k-run assertion above is non-vacuous.
#[test]
fn eviction_off_lets_the_table_track_the_key_universe() {
    let machine = MachineModel::r8000();
    let config = ServeConfig {
        lanes: 4,
        queue_bound: 256,
        eviction: EvictionPolicy::Off,
        log_execution: false,
    };
    let out = run_serve(
        TraceGen::new(streaming_config(1996, 100_000)),
        &machine,
        &config,
        ServePolicy::Flat,
    )
    .unwrap();
    assert_eq!(out.report.evictions, 0);
    assert!(
        out.report.peak_live_bin_records > 4_096,
        "peak {} never crossed the aggressive cap — the control is vacuous",
        out.report.peak_live_bin_records
    );
}

/// Re-arrival after eviction ≡ first arrival: serve a key, let the cap
/// evict its record, send it again — the second pass must produce the
/// same execution log as a fresh trace would (fresh fork, back of the
/// tour), not resurrect stale tour state.
#[test]
fn evicted_key_rearrival_is_indistinguishable_from_fresh() {
    let machine = MachineModel::r8000();
    let one_round = |ids: std::ops::Range<u64>, start: u64| {
        ids.clone().enumerate().map(move |(i, id)| Request {
            id: start + i as u64,
            arrival_ns: (start + i as u64) * 50_000,
            object: id,
            addr: 0x10_0000 + id * (1 << 20),
            bytes: 4_096,
        })
    };
    // Round 1 serves keys 0..8 under a cap of 2, evicting most of
    // them; round 2 re-serves the same keys.
    let trace = one_round(0..8, 0).chain(one_round(0..8, 8));
    let config = ServeConfig {
        lanes: 1,
        queue_bound: u64::MAX,
        eviction: EvictionPolicy::LruCap { max_records: 2 },
        log_execution: true,
    };
    let out = run_serve(trace, &machine, &config, ServePolicy::Flat).unwrap();
    assert_eq!(out.report.completed, 16);
    assert!(out.report.evictions > 0, "cap 2 over 8 keys must evict");
    // Arrivals are spaced far enough apart that each request drains
    // before the next arrives: execution order is arrival order both
    // rounds, which is exactly the fresh-fork behaviour.
    let order: Vec<u64> = out.log.iter().map(|r| r.id).collect();
    assert_eq!(order, (0..16).collect::<Vec<u64>>());
}

proptest! {
    /// t=0 equivalence survives eviction at the bench defaults: the
    /// online log with `LruCap` (and shedding armed but idle) is the
    /// batch log, and the run reports zero evictions.
    #[test]
    fn t0_equivalence_with_default_eviction(
        seed in any::<u64>(),
        policy_index in 0usize..4,
        requests in 100u64..300,
    ) {
        let config = TraceConfig {
            seed,
            requests,
            objects: 512,
            zipf_s: 0.9,
            object_bytes: 4_096,
            mean_interarrival_ns: 0,
            burst_factor: 4,
            burst_len: 32,
            calm_len: 96,
        };
        let machine = MachineModel::r10000();
        let policy = ServePolicy::all()[policy_index];
        let at_epoch = || TraceGen::new(config).map(|r| Request { arrival_ns: 0, ..r });
        let offline = run_offline(at_epoch(), &machine, policy).unwrap();
        let serve_config = ServeConfig {
            log_execution: true,
            queue_bound: u64::MAX,
            ..ServeConfig::default_bench()
        };
        let out = run_serve(at_epoch(), &machine, &serve_config, policy).unwrap();
        prop_assert_eq!(out.report.evictions, 0, "t=0 run evicted");
        prop_assert_eq!(out.report.shed, 0);
        prop_assert_eq!(&out.log, &offline, "{} diverged under default eviction", policy.name());
    }
}
