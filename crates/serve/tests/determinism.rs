//! Determinism goldens: the synthetic trace generator must produce a
//! bit-identical stream for a given config, on every platform, forever.
//!
//! Each golden is the FNV-1a digest of the first 10 000 requests (all
//! five fields, little-endian) of an Azure-style config. If one of
//! these fails, the generator's output changed — which silently
//! invalidates every committed `BENCH_serve` baseline and the CI
//! byte-reproducibility gate. Do not update a digest without
//! regenerating `baselines/BENCH_serve_smoke.json` in the same change.

use serve::{cdf_digest, trace_digest, ServeConfig, ServePolicy, TraceConfig, TraceGen};

const GOLDEN_PREFIX: u64 = 10_000;

/// The tuple the goldens vary: (seed, zipf_s, burst_factor, requests).
fn azure_config(seed: u64, zipf_s: f64, burst_factor: u64, requests: u64) -> TraceConfig {
    TraceConfig {
        seed,
        requests,
        objects: 1 << 16,
        zipf_s,
        object_bytes: 1 << 16,
        mean_interarrival_ns: 2_000,
        burst_factor,
        burst_len: 512,
        calm_len: 1536,
    }
}

#[test]
fn trace_digests_match_committed_goldens() {
    let goldens: [(u64, f64, u64, u64, u64); 4] = [
        (0x1, 0.99, 8, 1_000_000, 0xab42_7edb_2b64_2ac2),
        (0x2a, 0.8, 4, 500_000, 0x29ed_a00f_23cd_1278),
        (0xDEAD_BEEF, 1.1, 16, 250_000, 0xde98_cdf0_ede3_a043),
        (0x7, 0.0, 1, 100_000, 0x09b1_5ba4_2954_7832),
    ];
    for (seed, zipf_s, burst_factor, requests, expected) in goldens {
        let digest = trace_digest(
            azure_config(seed, zipf_s, burst_factor, requests),
            GOLDEN_PREFIX,
        );
        assert_eq!(
            digest, expected,
            "trace golden diverged for seed {seed:#x} s={zipf_s} burst={burst_factor} n={requests}: \
             got {digest:#018x} — the generator changed; see module docs before updating"
        );
    }
}

/// The digest must cover the whole prefix: truncating or extending the
/// stream changes it (guards against an iterator that stops early).
#[test]
fn golden_prefix_is_sensitive_to_length() {
    let config = azure_config(0x1, 0.99, 8, 1_000_000);
    assert_ne!(
        trace_digest(config, GOLDEN_PREFIX),
        trace_digest(config, GOLDEN_PREFIX - 1)
    );
}

/// End-to-end determinism: two full serving runs over the same config
/// agree on every aggregate, including modeled latency percentiles.
/// (The bench-level byte-reproducibility check in CI is the JSON twin
/// of this test.)
#[test]
fn serving_run_is_deterministic_end_to_end() {
    let config = azure_config(3, 0.99, 8, 20_000);
    let machine = cachesim::MachineModel::r8000();
    let serve_config = ServeConfig::default_bench();
    for policy in [ServePolicy::Flat, ServePolicy::Hierarchical] {
        let a = serve::run_serve(TraceGen::new(config), &machine, &serve_config, policy).unwrap();
        let b = serve::run_serve(TraceGen::new(config), &machine, &serve_config, policy).unwrap();
        assert_eq!(a.report, b.report, "{} report drifted", policy.name());
        assert_eq!(a.sim, b.sim, "{} cache stats drifted", policy.name());
    }
}

/// The popularity CDF itself is pinned, not just the sampled stream:
/// the CDF is where `powf`/`ln` platform drift would first appear, and
/// a stream digest over 10k requests could miss a one-ulp wiggle deep
/// in the tail. Bit-exact CDF ⇒ bit-exact sampling forever.
#[test]
fn zipf_cdf_table_matches_committed_goldens() {
    let goldens: [(u64, f64, u64); 3] = [
        (1 << 16, 0.99, 0x6276_840e_8422_d5fa),
        (1 << 16, 0.0, 0xee15_ac01_0fa6_b4fa),
        (4_096, 1.1, 0x5ee1_1519_51d5_e917),
    ];
    for (objects, zipf_s, expected) in goldens {
        let digest = cdf_digest(objects, zipf_s);
        assert_eq!(
            digest, expected,
            "Zipf CDF diverged for {objects} objects, s={zipf_s}: got {digest:#018x} — \
             deterministic math changed; regenerate trace goldens and serve baselines together"
        );
    }
}

/// FNV-1a over a sequence of words, little-endian.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn fold_stats(&mut self, stats: &cachesim::CacheStats) {
        for value in [
            stats.reads,
            stats.writes,
            stats.read_misses,
            stats.write_misses,
            stats.writebacks,
        ] {
            self.fold(value);
        }
    }

    fn fold_log(&mut self, log: &[serve::ExecRecord]) {
        self.fold(log.len() as u64);
        for record in log {
            for value in [
                record.id,
                record.l1_misses,
                record.l2_misses,
                record.lines,
                record.l2_lines,
            ] {
                self.fold(value);
            }
        }
    }

    fn fold_report(&mut self, report: &serve::ServeReport) {
        for byte in report.policy.bytes() {
            self.fold(u64::from(byte));
        }
        for value in [
            report.lanes,
            report.offered,
            report.admitted,
            report.rejected,
            report.shed,
            report.completed,
            report.warm_hits,
            report.cold_misses,
            report.drains,
            report.max_queue_depth,
            report.mean_queue_depth_x1000,
            report.p50_latency_ns,
            report.p99_latency_ns,
            report.mean_latency_ns,
            report.mean_slowdown_x1000,
            report.makespan_ns,
            report.evictions,
            report.peak_live_bin_records,
            report.wasted_memory_time,
        ] {
            self.fold(value);
        }
    }

    fn fold_sim(&mut self, sim: &cachesim::SimReport) {
        for value in [sim.instructions, sim.reads, sim.writes, sim.threads] {
            self.fold(value);
        }
        self.fold_stats(&sim.l1);
        self.fold_stats(&sim.l2);
        match &sim.l3 {
            Some(l3) => self.fold_stats(l3),
            None => self.fold(u64::MAX),
        }
        for value in [
            sim.classes.compulsory,
            sim.classes.capacity,
            sim.classes.conflict,
            sim.memory_reads,
            sim.memory_writebacks,
        ] {
            self.fold(value);
        }
    }
}

/// A small bursty trace: 256 objects of up to 4 KiB, so payloads start
/// mid-line and hot objects are re-served warm.
fn tiny_config(requests: u64) -> TraceConfig {
    TraceConfig {
        seed: 11,
        requests,
        objects: 256,
        zipf_s: 0.99,
        object_bytes: 4096,
        mean_interarrival_ns: 500,
        burst_factor: 4,
        burst_len: 32,
        calm_len: 96,
    }
}

/// The digest of everything a serving run under `policy` on `machine`
/// produces: the execution log, the `ServeReport` and the `SimReport`
/// of the bench configuration and of a tight queue that sheds and
/// evicts, then the offline oracle's log.
fn serve_digest(machine: &cachesim::MachineModel, policy: ServePolicy) -> u64 {
    let bench = ServeConfig {
        log_execution: true,
        ..ServeConfig::default_bench()
    };
    let tight = ServeConfig {
        lanes: 2,
        queue_bound: 48,
        eviction: locality_sched::EvictionPolicy::LruCap { max_records: 64 },
        log_execution: true,
    };
    let mut hash = Fnv::new();
    for config in [bench, tight] {
        let out = serve::run_serve(TraceGen::new(tiny_config(2_000)), machine, &config, policy)
            .expect("the machine carves serving bins");
        hash.fold_log(&out.log);
        hash.fold_report(&out.report);
        hash.fold_sim(&out.sim);
    }
    let offline = serve::run_offline(TraceGen::new(tiny_config(2_000)), machine, policy)
        .expect("the machine carves serving bins");
    hash.fold_log(&offline);
    hash.0
}

/// What the serving loop simulates is pinned, not only that it is
/// repeatable: a change to how a request's payload reaches the cache
/// simulator must leave every executed record, report field and cache
/// counter as it was.
#[test]
fn serving_runs_match_committed_goldens() {
    let goldens: [(&str, [u64; 5]); 2] = [
        (
            "r8000",
            [
                0xbb89_2bf2_95f5_c7d0,
                0x4afe_4c03_05d5_d274,
                0x79c9_4c7c_e85a_32f4,
                0x7359_c19e_7d86_56c0,
                0x17b5_4c92_6598_5cfe,
            ],
        ),
        (
            "numa2",
            [
                0xd73a_03c0_b216_703d,
                0x90f3_3e77_810f_1cb5,
                0xa0ed_db7c_4f2a_0f56,
                0xb9c8_b437_529c_1a45,
                0x45f0_5272_a489_f0db,
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (name, expected) in goldens {
        let machine = match name {
            "r8000" => cachesim::MachineModel::r8000(),
            _ => cachesim::MachineModel::numa2(),
        };
        for (policy, expected) in ServePolicy::all().into_iter().zip(expected) {
            let digest = serve_digest(&machine, policy);
            if digest != expected {
                failures.push(format!("{name}/{}: {digest:#018x}", policy.name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "serving goldens diverged: {failures:?}"
    );
}
