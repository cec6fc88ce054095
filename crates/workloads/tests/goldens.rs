//! Committed digests of what the workloads simulate.
//!
//! A change to how a kernel's references reach the cache simulator —
//! per element, batched, or said once as a run record — must leave the
//! reference stream, the instruction total, the numerical result and
//! every cache counter as they were. These goldens pin all four.

use cachesim::{MachineModel, SimReport, SimSink};
use memtrace::{AccessKind, AddressSpace, TeeSink, VecSink};
use workloads::{pde, BinGeometry, Kernel, WorkloadReport};

/// FNV-1a over a sequence of words, little-endian.
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

    fn fold_sim(&mut self, sim: &SimReport) {
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

/// The digest of one PDE version at `n` on `machine`, three
/// iterations: every reference a `VecSink` records (kind, address,
/// size), its instruction total, the result checksum, the thread count,
/// and the `SimReport` of a `SimSink` fed the same calls.
fn pde_digest(hash: &mut Fnv, machine: &MachineModel, version: usize, n: usize) {
    let mut data = pde::PdeData::new(&mut AddressSpace::new(), n, 5);
    let mut sink = TeeSink::new(VecSink::new(), SimSink::new(machine.hierarchy()));
    let report: WorkloadReport = match version {
        0 => pde::regular(&mut data, 3, &mut sink),
        1 => pde::cache_conscious(&mut data, 3, &mut sink),
        _ => {
            let config = BinGeometry::for_machine(machine).flat_config(Kernel::Pde);
            pde::threaded(&mut data, 3, config, &mut sink)
        }
    };
    let (trace, sim) = sink.into_inner();
    hash.fold(trace.accesses().len() as u64);
    for access in trace.accesses() {
        hash.fold(u64::from(access.kind == AccessKind::Write));
        hash.fold(access.addr.raw());
        hash.fold(u64::from(access.size));
    }
    hash.fold(trace.instructions_executed());
    hash.fold(report.checksum.to_bits());
    hash.fold(report.threads);
    hash.fold_sim(&sim.finish());
}

/// The PDE kernel's simulation is pinned, not only self-consistent:
/// `regular`, `cache_conscious` and `threaded` at n = 33 and 65 on the
/// R8000 (direct-mapped L1), the R10000 (2-way) and the three-level
/// NUMA machine.
#[test]
fn pde_runs_match_committed_goldens() {
    let goldens: [(&str, [u64; 3]); 3] = [
        (
            "r8000",
            [
                0x3e56_b154_686e_c37c,
                0x6346_cde8_b020_ef1c,
                0x20a5_f7ec_9c70_ac22,
            ],
        ),
        (
            "r10000",
            [
                0x28dd_10b5_5b86_714c,
                0xc5e5_b3fd_3e14_cf9c,
                0xaa27_474b_1770_7f71,
            ],
        ),
        (
            "numa2",
            [
                0x38ab_cfa1_877e_bf1c,
                0x89a8_6c11_83d9_f108,
                0xc5cd_00c5_f175_8e15,
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (name, expected) in goldens {
        let machine = match name {
            "r8000" => MachineModel::r8000(),
            "r10000" => MachineModel::r10000(),
            _ => MachineModel::numa2(),
        };
        for (version, expected) in expected.into_iter().enumerate() {
            let mut hash = Fnv::new();
            for n in [33, 65] {
                pde_digest(&mut hash, &machine, version, n);
            }
            if hash.0 != expected {
                failures.push(format!("{name}/version {version}: {:#018x}", hash.0));
            }
        }
    }
    assert!(failures.is_empty(), "PDE goldens diverged: {failures:?}");
}
