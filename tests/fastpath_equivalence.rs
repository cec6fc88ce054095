//! Differential testing of the fast simulation paths: with the fast
//! lookups enabled (same-line rehits, run records' L1-line epochs, the
//! chunked recency table under the classifier) every [`SimReport`] field
//! must be *bit-identical* to the exhaustive reference path, on every
//! workload, and regardless of how accesses are batched on their way
//! into the sink. The reports are a pure function of the reference
//! stream; the fast paths may only change how quickly they are
//! computed.
//!
//! And to *run records*: `SimSink::run` replays a record per L1-line
//! epoch, and must leave the report its element-by-element expansion
//! leaves on the matmul kernels that emit them. Generated records are
//! checked against the cache oracle (`crates/cachesim/tests/hierarchy_oracle.rs`).

use thread_locality::apps::{matmul, nbody, pde, sor};
use thread_locality::sched::SchedulerConfig;
use thread_locality::sim::{
    CacheConfig, Hierarchy, HierarchyConfig, MachineModel, ShardedSimSink, SimReport, SimSink,
};
use thread_locality::trace::{Access, AccessKind, AddressSpace, SchedMark, TraceSink, VecSink};

/// A machine small enough that the toy working sets below still
/// overflow the caches (otherwise the fast paths would never face an
/// eviction).
fn machine() -> MachineModel {
    MachineModel::r8000()
        .scaled_split(1.0 / 16.0, 1.0 / 64.0)
        .expect("valid scaled machine")
}

/// Runs `workload` twice — fast paths on and off — and returns both
/// reports.
fn both_ways(
    machine: &MachineModel,
    mut workload: impl FnMut(&mut SimSink),
) -> (SimReport, SimReport) {
    let run = |fast: bool, workload: &mut dyn FnMut(&mut SimSink)| {
        let mut sim = SimSink::new(machine.hierarchy());
        sim.set_fast_path(fast);
        workload(&mut sim);
        sim.finish()
    };
    (run(true, &mut workload), run(false, &mut workload))
}

#[test]
fn matmul_fast_equals_slow() {
    let machine = machine();
    for variant in [matmul::interchanged, matmul::transposed] {
        let (fast, slow) = both_ways(&machine, |sim| {
            let mut space = AddressSpace::new();
            let mut data = matmul::MatMulData::new(&mut space, 40, 7);
            variant(&mut data, sim);
        });
        assert_eq!(fast, slow);
        assert!(fast.l1.misses() > 0, "working set must overflow the L1");
    }
}

#[test]
fn pde_fast_equals_slow() {
    let (fast, slow) = both_ways(&machine(), |sim| {
        let mut space = AddressSpace::new();
        let mut data = pde::PdeData::new(&mut space, 48, 3);
        pde::regular(&mut data, 2, sim);
    });
    assert_eq!(fast, slow);
}

#[test]
fn sor_fast_equals_slow() {
    let (fast, slow) = both_ways(&machine(), |sim| {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, 64, 11);
        sor::untiled(&mut data, 2, sim);
    });
    assert_eq!(fast, slow);
}

#[test]
fn nbody_fast_equals_slow() {
    let (fast, slow) = both_ways(&machine(), |sim| {
        let mut space = AddressSpace::new();
        let mut data = nbody::NBodyData::new(&mut space, 96, 2024);
        nbody::unthreaded(&mut data, 1, nbody::NBodyParams::default(), sim);
    });
    assert_eq!(fast, slow);
    assert!(fast.classes.total() > 0, "classifier must have been hit");
}

/// `ShardedSimSink` is a `SimSink` under a one-shard plan: on two
/// kernels that emit run records and schedule marks (threaded matmul's
/// dot products, threaded PDE's stencil lines) between the package
/// references the scheduler emits one by one, its report and its probe
/// profile are `SimSink`'s. A shell that left `run` to the trait's
/// default expansion would differ, with probes on, in the L1's `rehits`.
#[test]
fn the_sharded_shell_is_a_simsink() {
    fn kernels<S: TraceSink>(sink: &mut S) -> u64 {
        let config = SchedulerConfig::builder()
            .block_size(1 << 11)
            .build()
            .unwrap();
        let mut space = AddressSpace::new();
        let mut product = matmul::MatMulData::new(&mut space, 40, 7);
        let mut grid = pde::PdeData::new(&mut space, 48, 3);
        matmul::threaded(&mut product, config, sink).threads
            + pde::threaded(&mut grid, 2, config, sink).threads
    }
    let machine = machine();
    let mut plain = SimSink::new(machine.hierarchy());
    let mut sharded = ShardedSimSink::new(machine.hierarchy(), 4);
    let threads = kernels(&mut plain);
    plain.add_threads(threads);
    let threads = kernels(&mut sharded);
    sharded.add_threads(threads);
    assert_eq!(sharded.plan().shards(), 1);
    assert_eq!(sharded.report(), plain.report());
    assert_eq!(sharded.run_profile(), plain.run_profile());
    assert!(plain.report().threads > 0 && plain.report().l1.misses() > 0);
}

#[test]
fn batched_delivery_equals_element_wise_on_a_real_trace() {
    // Capture a real workload trace, then replay it into the simulator
    // one access at a time and in batches of every small size: the
    // batched sink entry point must be an exact refactoring.
    let machine = machine();
    let mut recorded = VecSink::new();
    {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, 48, 23);
        sor::untiled(&mut data, 2, &mut recorded);
    }
    let accesses = recorded.accesses();
    assert!(accesses.len() > 5_000, "trace too small to be interesting");
    let element_wise = {
        let mut sim = SimSink::new(machine.hierarchy());
        for &access in accesses {
            sim.access(access);
        }
        sim.finish()
    };
    for chunk_size in [1usize, 2, 3, 7, 16, 64, 1024] {
        let mut sim = SimSink::new(machine.hierarchy());
        for chunk in accesses.chunks(chunk_size) {
            sim.access_batch(chunk);
        }
        assert_eq!(sim.finish(), element_wise, "chunk size {chunk_size}");
    }
}

// ---------------------------------------------------------------------
// Run records ≡ their expansion.
// ---------------------------------------------------------------------

/// A sink that forwards everything but `run`, which it leaves to the
/// trait's default: the inner sink sees a kernel's records expanded.
struct Expanded<S>(S);

impl<S: TraceSink> TraceSink for Expanded<S> {
    fn access(&mut self, access: Access) {
        self.0.access(access);
    }

    fn access_batch(&mut self, accesses: &[Access]) {
        self.0.access_batch(accesses);
    }

    fn instructions(&mut self, count: u64) {
        self.0.instructions(count);
    }

    fn mark(&mut self, mark: SchedMark<'_>) {
        self.0.mark(mark);
    }
}

/// The three kernels whose inner loops are run records: 0 interchanged,
/// 1 transposed, 2 threaded.
fn run_kernels<S: TraceSink>(n: usize, kernel: usize, sink: &mut S) {
    let mut data = matmul::MatMulData::new(&mut AddressSpace::new(), n, 7);
    match kernel {
        0 => matmul::interchanged(&mut data, sink),
        1 => matmul::transposed(&mut data, sink),
        _ => {
            let config = SchedulerConfig::builder()
                .block_size(1 << 11)
                .build()
                .unwrap();
            matmul::threaded(&mut data, config, sink)
        }
    };
    assert!(data.max_error_vs_naive() < 1e-9, "kernel {kernel}, n = {n}");
}

/// `kernel` at size `n` into `SimSink::run` and into the expansion;
/// asserts the reports equal and returns them.
fn run_equals_expansion(hierarchy: &dyn Fn() -> Hierarchy, n: usize, kernel: usize) -> SimReport {
    let mut whole = SimSink::new(hierarchy());
    run_kernels(n, kernel, &mut whole);
    let mut expanded = Expanded(SimSink::new(hierarchy()));
    run_kernels(n, kernel, &mut expanded);
    let (whole, expanded) = (whole.finish(), expanded.0.finish());
    assert_eq!(whole, expanded, "kernel {kernel}, n = {n}");
    whole
}

#[test]
fn matmul_run_records_equal_their_expansion_on_every_kind_of_machine() {
    let r10000 = MachineModel::r10000()
        .scaled_split(1.0 / 16.0, 1.0 / 64.0)
        .expect("valid scaled machine");
    let machines: [(&str, &dyn Fn() -> Hierarchy); 2] = [
        ("scaled r8000", &|| machine().hierarchy()),
        ("scaled r10000, 2-way L1", &|| r10000.hierarchy()),
    ];
    for (name, hierarchy) in machines {
        // 33 is odd: the dot product's tail iteration runs.
        for n in [40, 33] {
            for kernel in 0..3 {
                let report = run_equals_expansion(hierarchy, n, kernel);
                assert!(report.l1.misses() > 0, "{name}: the L1 must overflow");
            }
        }
    }
}

#[test]
fn matmul_columns_that_alias_in_the_l1_take_the_eviction_fallback() {
    // A 256-byte direct-mapped L1 and 32 x 32 matrices: every column is
    // 256 bytes, so any two of them meet in every set and the streams
    // of a record evict each other round after round. A counted hit
    // cannot miss, and an epoch — four elements a stream in a 32-byte
    // line — references only its first elements for real; the misses
    // below are more than that leaves room for, so the rounds after an
    // epoch's first were expanded.
    let n = 32;
    let hierarchy = || {
        Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1 << 13, 128, 2).unwrap(),
        ))
    };
    let cube = (n * n * n) as u64;
    // Per multiply-add, `interchanged` misses on A and on the load of C
    // (the store rehits); a dot product shares each miss between the
    // two multiply-adds of a round.
    for (kernel, streams, misses_per_madd) in [(0, 3, 2), (1, 2, 1), (2, 2, 1)] {
        let report = run_equals_expansion(&hierarchy, n, kernel);
        let in_records = streams * cube;
        let elsewhere = report.data_references() - in_records;
        let first_elements = in_records / 4;
        assert!(
            report.l1.misses() >= misses_per_madd * cube,
            "kernel {kernel}"
        );
        assert!(
            report.l1.misses() > first_elements + elsewhere,
            "kernel {kernel}: {} misses",
            report.l1.misses()
        );
    }
}

/// Every call a sink receives — which hook, with what — folded into one
/// FNV-1a digest: two emitters agree on it only if they make the same
/// calls in the same order, batch boundaries included.
struct CallDigest(u64);

impl CallDigest {
    fn eat(&mut self, words: &[u64]) {
        for &word in words {
            self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_access(&mut self, access: Access) {
        let kind = u64::from(access.kind == AccessKind::Write);
        self.eat(&[kind, access.addr.raw(), u64::from(access.size)]);
    }
}

impl TraceSink for CallDigest {
    fn access(&mut self, access: Access) {
        self.eat(&[1]);
        self.eat_access(access);
    }

    fn access_batch(&mut self, accesses: &[Access]) {
        self.eat(&[2, accesses.len() as u64]);
        for &access in accesses {
            self.eat_access(access);
        }
    }

    fn instructions(&mut self, count: u64) {
        self.eat(&[3, count]);
    }

    fn mark(&mut self, mark: SchedMark<'_>) {
        match mark {
            SchedMark::Fork(hints) => self.eat(&[4, hints.len() as u64]),
            SchedMark::DrainBegin(unit) => self.eat(&[5, unit]),
            SchedMark::Dispatch(seq) => self.eat(&[6, seq]),
            SchedMark::DrainEnd(unit) => self.eat(&[7, unit]),
            SchedMark::RunEnd => self.eat(&[8]),
        }
    }
}

/// The default expansion of a run record is the old stream, call for
/// call: these digests were captured from the kernels while their inner
/// loops still called `get`, `set` and `get_batch` per element. `n` is
/// odd, so the dot product's tail iteration is in them.
#[test]
fn run_records_expand_to_the_calls_the_kernels_used_to_make() {
    for (kernel, golden) in [(0, 0x5f54_2375_a07d_3f6a), (2, 0x9eba_a331_172e_b706u64)] {
        let mut sink = CallDigest(0xcbf2_9ce4_8422_2325);
        run_kernels(33, kernel, &mut sink);
        assert_eq!(sink.0, golden, "kernel {kernel}: {:#018x}", sink.0);
    }
}
