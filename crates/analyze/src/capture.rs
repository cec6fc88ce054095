//! Footprint capture: run a kernel once under the paper's flat policy
//! with a [`FootprintSink`] attached, and normalize the result into
//! fork-indexed per-thread footprints.
//!
//! The sink records footprints in *dispatch* order (it only sees
//! `SchedMark::Dispatch` marks as the drain proceeds), while hints arrive in
//! *fork* order. The two are related by the capture policy's dispatch
//! permutation, which [`PhaseModel::from_trace`] recovers by mirror
//! replay ([`dispatch_trace`]) and inverts — after that, footprint `i`
//! belongs to the `i`-th forked thread, and any *other* policy's
//! permutation can be checked against the same data.

use crate::policies::dispatch_trace;
use cachesim::MachineModel;
use locality_sched::{Hints, SchedulerConfig, TopologyPolicy, MAX_DIMS, PACKAGE_TRACE_BASE};
use memtrace::{Addr, AddressSpace, FootprintSink, PhaseTrace, ThreadFootprint};
use workloads::{matmul, nbody, pde, sor, BinGeometry, HintKind, Kernel, OrderSemantics};

/// Fixed data seed: capture must be reproducible run-to-run so the
/// committed `ANALYZE_smoke.json` counts stay byte-stable.
const CAPTURE_SEED: u64 = 1996;

/// Problem sizes for analysis captures. Small enough that the four
/// kernels analyze in well under a second, large enough that every
/// kernel spreads over multiple bins on the [`default_machine`].
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeScale {
    /// Matrix side for matmul (n² dot-product threads).
    pub matmul_n: usize,
    /// Grid side for the PDE.
    pub pde_n: usize,
    /// Red-black iterations (= phases) for the PDE.
    pub pde_iters: usize,
    /// Grid side for SOR.
    pub sor_n: usize,
    /// SOR sweeps (all forked into one phase).
    pub sor_t: usize,
    /// Bodies for the N-body.
    pub nbody_n: usize,
    /// N-body timesteps (= phases).
    pub nbody_iters: usize,
}

impl Default for AnalyzeScale {
    fn default() -> Self {
        AnalyzeScale {
            matmul_n: 32,
            pde_n: 48,
            pde_iters: 2,
            sor_n: 32,
            sor_t: 3,
            nbody_n: 64,
            nbody_iters: 2,
        }
    }
}

/// The machine `schedlint` analyzes against by default: the paper's
/// R8000 scaled so the [`AnalyzeScale`] working sets span several
/// bins (L1 16 KB → 1 KB, L2 2 MB → 8 KB), the same shrink-the-cache
/// trick the bench suite's smoke tier uses.
pub fn default_machine() -> MachineModel {
    MachineModel::r8000()
        .scaled_split(1.0 / 16.0, 1.0 / 256.0)
        .expect("valid scaled machine")
}

/// One phase, fork-indexed: `hints[i]` and `footprints[i]` both refer
/// to the `i`-th forked thread.
#[derive(Clone, Debug)]
pub struct PhaseModel {
    /// Fork-order hints, rebuilt as [`Hints`].
    pub hints: Vec<Hints>,
    /// Fork-indexed footprints.
    pub footprints: Vec<ThreadFootprint>,
}

impl PhaseModel {
    /// Normalizes a raw [`PhaseTrace`] using the capture policy
    /// implied by `config` (the flat paper policy the kernel ran
    /// under).
    ///
    /// # Panics
    ///
    /// Panics if the trace is inconsistent (forks ≠ dispatches), which
    /// would mean the capture run was not a traced scheduler run.
    pub fn from_trace(trace: PhaseTrace, config: &SchedulerConfig) -> Self {
        assert_eq!(
            trace.hints.len(),
            trace.dispatches.len(),
            "phase forked {} threads but dispatched {}",
            trace.hints.len(),
            trace.dispatches.len(),
        );
        let hints: Vec<Hints> = trace.hints.iter().map(|h| rebuild_hints(h)).collect();
        let order = dispatch_trace(*config, TopologyPolicy::from_config(config), &hints).order;
        let mut footprints = vec![ThreadFootprint::new(); hints.len()];
        for (k, fp) in trace.dispatches.into_iter().enumerate() {
            footprints[order[k]] = fp;
        }
        PhaseModel { hints, footprints }
    }

    /// Threads in the phase.
    pub fn threads(&self) -> usize {
        self.hints.len()
    }
}

/// Rebuilds a [`Hints`] value from the recorded address list (the
/// scheduler emits `as_array()[..dims()]`, so packing the slice back
/// into the fixed array is lossless).
pub fn rebuild_hints(addrs: &[Addr]) -> Hints {
    assert!(addrs.len() <= MAX_DIMS, "more hints than MAX_DIMS");
    let mut a = [Addr::NULL; MAX_DIMS];
    a[..addrs.len()].copy_from_slice(addrs);
    Hints::four(a[0], a[1], a[2], a[3])
}

/// How the workload declares its threads may be drained — the
/// execution model the happens-before race lint judges conflicts
/// against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainConcurrency {
    /// The workload runs under the serial allocation-order drain (the
    /// paper's scheduler): the total dispatch order orders every
    /// conflicting pair, and cross-bin conflicts are at most
    /// steal-safety *warnings*.
    Serial,
    /// The workload declares it may be drained by stealing workers:
    /// only same-bin order and fork → dispatch publication are
    /// guaranteed, so a conflicting pair unordered by happens-before
    /// is a data race — an **error**.
    Stealing,
}

/// A captured workload: everything the analyses need.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Report label (kernel name or fixture name).
    pub workload: String,
    /// Ordering contract of the workload.
    pub semantics: OrderSemantics,
    /// What the hints denote (hint-accuracy only applies to
    /// [`HintKind::Address`]).
    pub hint_kind: HintKind,
    /// The scheduler config the capture ran under (block sizes define
    /// the hint regions; also the mirror-replay config).
    pub config: SchedulerConfig,
    /// Depth-2 (L1-in-L2) policy to check, when the geometry supports
    /// one.
    pub hierarchical: Option<TopologyPolicy>,
    /// Full-depth topology policy, when the geometry supports one.
    /// Drives the cross-node sharing lint (which only engages at
    /// depth ≥ 3, where the coarsest level is a node, not a cache).
    pub topology: Option<TopologyPolicy>,
    /// The machine whose caches define line sizes and capacities.
    pub machine: MachineModel,
    /// Declared drain concurrency (kernels are [`Serial`]; fixtures
    /// may declare [`Stealing`] to engage the race lint).
    ///
    /// [`Serial`]: DrainConcurrency::Serial
    /// [`Stealing`]: DrainConcurrency::Stealing
    pub concurrency: DrainConcurrency,
    /// Fork-indexed phases.
    pub phases: Vec<PhaseModel>,
}

/// Runs `kernel` at `scale` on `machine` with a footprint sink
/// attached and returns the normalized capture. Package-trace traffic
/// (the scheduler's own synthetic references above
/// [`PACKAGE_TRACE_BASE`]) is filtered out: the analyses concern
/// application data.
pub fn capture_kernel(kernel: Kernel, machine: &MachineModel, scale: &AnalyzeScale) -> Capture {
    let geometry = BinGeometry::for_machine(machine);
    let config = geometry.flat_config(kernel);
    let policy = TopologyPolicy::from_config(&config);
    let mut sink = FootprintSink::ignoring_at_or_above(Addr::new(PACKAGE_TRACE_BASE));
    let mut space = AddressSpace::new();
    match kernel {
        Kernel::MatMul => {
            let mut data = matmul::MatMulData::new(&mut space, scale.matmul_n, CAPTURE_SEED);
            matmul::threaded_with(&mut data, config, policy, &mut sink);
        }
        Kernel::Pde => {
            let mut data = pde::PdeData::new(&mut space, scale.pde_n, CAPTURE_SEED);
            pde::threaded_with(&mut data, scale.pde_iters, config, policy, &mut sink);
        }
        Kernel::Sor => {
            let mut data = sor::SorData::new(&mut space, scale.sor_n, CAPTURE_SEED);
            sor::threaded_with(&mut data, scale.sor_t, config, policy, &mut sink);
        }
        Kernel::NBody => {
            let mut data = nbody::NBodyData::new(&mut space, scale.nbody_n, CAPTURE_SEED);
            let params = nbody::NBodyParams::for_l2(machine.l2_capacity());
            nbody::threaded_with(
                &mut data,
                scale.nbody_iters,
                params,
                config,
                policy,
                &mut sink,
            );
        }
    }
    let phases = sink
        .into_phases()
        .into_iter()
        .map(|trace| PhaseModel::from_trace(trace, &config))
        .collect();
    Capture {
        workload: kernel.name().to_string(),
        semantics: kernel.order_semantics(),
        hint_kind: kernel.hint_kind(),
        config,
        hierarchical: geometry.hierarchical(kernel).ok(),
        topology: geometry.topology_policy(kernel).ok(),
        machine: machine.clone(),
        concurrency: DrainConcurrency::Serial,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_hints_round_trips_every_arity() {
        let cases = [
            Hints::none(),
            Hints::one(Addr::new(0x10)),
            Hints::two(Addr::new(0x10), Addr::new(0x20)),
            Hints::three(Addr::new(0x10), Addr::new(0x20), Addr::new(0x30)),
        ];
        for h in cases {
            let recorded = &h.as_array()[..h.dims()];
            assert_eq!(rebuild_hints(recorded), h);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // kernel capture / simulator replay: too slow under miri
    fn pde_capture_has_one_phase_per_iteration() {
        let machine = default_machine();
        let scale = AnalyzeScale {
            pde_n: 24,
            pde_iters: 3,
            ..AnalyzeScale::default()
        };
        let capture = capture_kernel(Kernel::Pde, &machine, &scale);
        assert_eq!(capture.phases.len(), 3);
        for phase in &capture.phases {
            assert_eq!(phase.threads(), 24); // one fork per line, i3 in 1..=n
                                             // Nearly all threads touch the grid (the last line's thread
                                             // only works on residual iterations, so it may be empty).
            let non_empty = phase.footprints.iter().filter(|fp| !fp.is_empty()).count();
            assert!(non_empty >= 22, "only {non_empty} threads left footprints");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // kernel capture / simulator replay: too slow under miri
    fn matmul_capture_spreads_over_multiple_bins() {
        let machine = default_machine();
        let capture = capture_kernel(Kernel::MatMul, &machine, &AnalyzeScale::default());
        assert_eq!(capture.phases.len(), 1);
        let phase = &capture.phases[0];
        assert_eq!(phase.threads(), 32 * 32);
        let bins = crate::policies::assign_bins(
            TopologyPolicy::from_config(&capture.config),
            &phase.hints,
        );
        assert!(bins.fine_bins > 1, "expected multiple bins");
    }
}
