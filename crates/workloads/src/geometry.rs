//! Machine-derived bin geometry: the single place that turns a
//! [`MachineModel`]'s cache sizes into scheduler block sizes.
//!
//! The paper sizes bins so a bin's working set fits the second-level
//! cache (§3.2): with k hint dimensions, the block dimensions sum to
//! (at most) the cache size. Each kernel divides the L2 budget by its
//! hint arity — matmul and the PDE read two structures per thread but
//! hint one or two addresses, SOR reads four lines per thread, the
//! N-body reads a 3-D neighbourhood — so the per-dimension block is the
//! largest power of two not exceeding the kernel's share:
//!
//! | Kernel | L2 block | Rationale (paper §4) |
//! |---|---|---|
//! | [`MatMul`](Kernel::MatMul) | L2 / 2 | two column working sets per bin (§4.2) |
//! | [`Pde`](Kernel::Pde) | L2 / 2 | red/black line pair per thread |
//! | [`Sor`](Kernel::Sor) | L2 / 4 | 63 bins over a 32 MB array ≈ L2/4 blocks |
//! | [`NBody`](Kernel::NBody) | L2 / 3 | three hint dimensions summing to L2 (§3.2) |
//!
//! The same rules applied to every other locality level of the machine
//! ([`MachineModel::capacities`]) give the block sizes for hierarchical
//! binning at arbitrary depth: level-0 sub-bins whose working sets fit
//! the first-level cache, nested in L2-sized bins, nested in L3- or
//! NUMA-node-sized groups, drained back-to-back inside their parents at
//! every depth.

use cachesim::MachineModel;
use locality_sched::{prev_power_of_two, ConfigError, SchedulerConfig, TopologyPolicy, MAX_LEVELS};

/// The four threaded kernels whose bin sizes derive from the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Blocked matrix multiply (§4.2): 2-D column-address hints.
    MatMul,
    /// Red-black Gauss–Seidel relaxation (§4.3): 1-D line hints.
    Pde,
    /// Successive over-relaxation (§4.3): 1-D column hints.
    Sor,
    /// Barnes–Hut N-body (§4.4): 3-D position hints.
    NBody,
}

/// How strictly a threaded kernel's result depends on intra-phase
/// execution order — the ground truth schedule analyzers check
/// policies against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderSemantics {
    /// Conflicting threads within a phase must execute in fork order
    /// for the result to be bitwise-identical to the sequential
    /// version (threaded PDE relies on its monotone hints for this).
    Exact,
    /// Reordering conflicting threads changes intermediate values but
    /// not the fixed point the kernel iterates towards — the paper's
    /// threaded SOR, which is convergence-equivalent, not bitwise
    /// equal.
    Convergent,
}

/// What a kernel's hint addresses denote, which decides whether
/// comparing them against the thread's footprint is meaningful.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HintKind {
    /// Hints are data addresses the thread reads (matmul columns, PDE
    /// and SOR grid lines): hint-accuracy checks apply.
    Address,
    /// Hints are synthetic coordinates in a scaled plane (the N-body's
    /// 3-D position hints, §4.4): spatially meaningful to the binning
    /// policy, but not addresses the thread touches.
    Spatial,
}

impl Kernel {
    /// Every paper kernel, in the order the bench tables report them.
    pub const ALL: [Kernel; 4] = [Kernel::MatMul, Kernel::Pde, Kernel::Sor, Kernel::NBody];

    /// The workload name the bench tables use.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::MatMul => "matmul",
            Kernel::Pde => "pde",
            Kernel::Sor => "sor",
            Kernel::NBody => "nbody",
        }
    }

    /// The kernel's intra-phase ordering contract.
    pub fn order_semantics(self) -> OrderSemantics {
        match self {
            // Matmul and N-body threads are conflict-free; the PDE's
            // conflicting neighbours are kept in fork order by every
            // shipped policy (monotone hints ⇒ allocation-order tour
            // = fork order). All three reproduce bitwise.
            Kernel::MatMul | Kernel::Pde | Kernel::NBody => OrderSemantics::Exact,
            Kernel::Sor => OrderSemantics::Convergent,
        }
    }

    /// What the kernel's hints denote.
    pub fn hint_kind(self) -> HintKind {
        match self {
            Kernel::MatMul | Kernel::Pde | Kernel::Sor => HintKind::Address,
            Kernel::NBody => HintKind::Spatial,
        }
    }

    /// Parses the workload names the bench tables use.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "matmul" => Some(Kernel::MatMul),
            "pde" => Some(Kernel::Pde),
            "sor" => Some(Kernel::Sor),
            "nbody" => Some(Kernel::NBody),
            _ => None,
        }
    }

    /// The kernel's share of a cache capacity: the divisor applied to
    /// the cache size before rounding down to a power of two.
    fn capacity_share(self, capacity: u64) -> u64 {
        match self {
            Kernel::MatMul | Kernel::Pde => capacity / 2,
            Kernel::Sor => capacity / 4,
            Kernel::NBody => capacity / 3,
        }
        .max(1)
    }
}

/// The per-level cache capacities a machine offers each bin level,
/// extracted once from a [`MachineModel`]'s capacity ladder so every
/// workload and bench derives its block sizes from the same ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinGeometry {
    /// Per-level capacities in bytes, finest first; entries past
    /// `depth` are unused.
    capacities: [u64; MAX_LEVELS],
    depth: usize,
}

impl BinGeometry {
    /// Reads the bin-level budgets off a machine model's capacities.
    pub fn for_machine(machine: &MachineModel) -> Self {
        let caps = machine.capacities();
        let mut capacities = [0u64; MAX_LEVELS];
        capacities[..caps.len()].copy_from_slice(&caps);
        BinGeometry {
            capacities,
            depth: caps.len(),
        }
    }

    /// A two-level (L1-in-L2) geometry from explicit capacities, for
    /// tests and callers that do not have a machine model at hand.
    pub fn two_level(l1_capacity: u64, l2_capacity: u64) -> Self {
        let mut capacities = [0u64; MAX_LEVELS];
        capacities[0] = l1_capacity;
        capacities[1] = l2_capacity;
        BinGeometry {
            capacities,
            depth: 2,
        }
    }

    /// Number of hierarchy levels the geometry carries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Per-level block budgets: each level gets its own capacity,
    /// capped at 1/8 of the next-coarser level's *budget* so every
    /// level stays strictly finer than its parent. Real machines keep
    /// adjacent levels ≫ 8× apart (R8000 L1:L2 is 1:256 — the cap
    /// never binds), but the ratio-preserving bench machines scale
    /// coarse levels down while leaving L1 untouched, which used to
    /// collapse the sub-bin block onto the parent block and made
    /// [`hierarchical`](Self::hierarchical) byte-identical to
    /// [`flat_config`](Self::flat_config) at bench scale.
    fn budgets(&self) -> [u64; MAX_LEVELS] {
        let mut budgets = [0u64; MAX_LEVELS];
        budgets[self.depth - 1] = self.capacities[self.depth - 1];
        for level in (0..self.depth - 1).rev() {
            budgets[level] = self.capacities[level].min((budgets[level + 1] / 8).max(1));
        }
        budgets
    }

    /// The block sizes for `kernel` at every level, finest first: the
    /// kernel's capacity share of each level's budget, rounded down to
    /// a power of two and clamped monotone non-decreasing up the
    /// ladder (so the resulting [`TopologyPolicy`] always validates,
    /// even on degenerate test hierarchies).
    pub fn level_blocks(&self, kernel: Kernel) -> Vec<u64> {
        let budgets = self.budgets();
        let mut blocks = vec![0u64; self.depth];
        for level in (0..self.depth).rev() {
            let block = prev_power_of_two(kernel.capacity_share(budgets[level]));
            blocks[level] = if level + 1 < self.depth {
                block.min(blocks[level + 1])
            } else {
                block
            };
        }
        blocks
    }

    /// The L2-sized (flat / paper) block for `kernel` — the block at
    /// ladder level 1, the second-level cache the paper sizes bins to.
    pub fn l2_block(&self, kernel: Kernel) -> u64 {
        self.level_blocks(kernel)[1.min(self.depth - 1)]
    }

    /// The L1-sized (finest sub-bin) block for `kernel`.
    pub fn l1_block(&self, kernel: Kernel) -> u64 {
        self.level_blocks(kernel)[0]
    }

    /// The flat (paper §3.2) scheduler configuration for `kernel`:
    /// uniform L2-sized blocks, package defaults otherwise.
    pub fn flat_config(&self, kernel: Kernel) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(self.l2_block(kernel))
            .build()
            .expect("power-of-two block")
    }

    /// The hierarchical (L1-in-L2) policy for `kernel`: L1-sized
    /// sub-bins nested in L2-sized bins — the first two rungs of the
    /// ladder, whatever the machine's full depth.
    pub fn hierarchical(&self, kernel: Kernel) -> Result<TopologyPolicy, ConfigError> {
        TopologyPolicy::uniform(&[self.l1_block(kernel), self.l2_block(kernel)], false)
    }

    /// The full-depth topology policy for `kernel`: one nesting level
    /// per machine-hierarchy level. At depth 2 this is bit-identical
    /// to [`hierarchical`](Self::hierarchical).
    pub fn topology_policy(&self, kernel: Kernel) -> Result<TopologyPolicy, ConfigError> {
        TopologyPolicy::uniform(&self.level_blocks(kernel), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r8000_like() -> BinGeometry {
        // The paper's R8000 model: 16 KB L1d, 4 MB unified L2.
        BinGeometry::two_level(16 << 10, 4 << 20)
    }

    #[test]
    fn l2_blocks_match_the_paper_rules() {
        let g = r8000_like();
        assert_eq!(g.l2_block(Kernel::MatMul), 1 << 21); // 4M/2
        assert_eq!(g.l2_block(Kernel::Pde), 1 << 21);
        assert_eq!(g.l2_block(Kernel::Sor), 1 << 20); // 4M/4
        assert_eq!(g.l2_block(Kernel::NBody), 1 << 20); // ⌊4M/3⌋ → 1M
    }

    #[test]
    fn l1_blocks_apply_the_same_shares_to_l1() {
        let g = r8000_like();
        assert_eq!(g.l1_block(Kernel::MatMul), 1 << 13); // 16K/2
        assert_eq!(g.l1_block(Kernel::Sor), 1 << 12); // 16K/4
        assert_eq!(g.l1_block(Kernel::NBody), 1 << 12); // ⌊16K/3⌋ → 4K
    }

    #[test]
    fn l1_block_never_exceeds_l2_block() {
        // Degenerate machine: L1 as large as L2.
        let g = BinGeometry::two_level(1 << 20, 1 << 20);
        for k in [Kernel::MatMul, Kernel::Pde, Kernel::Sor, Kernel::NBody] {
            assert!(g.l1_block(k) <= g.l2_block(k), "{k:?}");
        }
    }

    #[test]
    fn tiny_levels_still_yield_valid_blocks() {
        // A 1–3 byte level's 1/2–1/4 share is zero; the share clamps
        // to one byte instead of asking for a power of two below zero.
        for capacity in 1..=3 {
            let g = BinGeometry::two_level(capacity, capacity);
            for k in Kernel::ALL {
                assert_eq!(g.level_blocks(k), vec![1, 1], "{k:?} at {capacity} B");
            }
        }
    }

    #[test]
    fn scaled_machines_keep_the_levels_apart() {
        // The bench's ratio-preserving scaling shrinks L2 only; at
        // smoke scale (matmul factor 1/128) a scaled R8000 has a 16 KB
        // L2 under its full-size 16 KB L1. The 1/8 budget cap must keep
        // sub-bins strictly finer than parents on every such geometry.
        for l2_capacity in [16u64 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20] {
            for l1_capacity in [16u64 << 10, 32 << 10] {
                let g = BinGeometry::two_level(l1_capacity, l2_capacity);
                for k in Kernel::ALL {
                    assert!(
                        g.l1_block(k) < g.l2_block(k),
                        "{k:?} on l1={l1_capacity} l2={l2_capacity}: \
                         {} !< {}",
                        g.l1_block(k),
                        g.l2_block(k)
                    );
                }
            }
        }
    }

    #[test]
    fn budget_cap_never_binds_on_real_machines() {
        // R8000 (16 KB : 4 MB) and R10000-like (32 KB : 1 MB) ratios
        // are far beyond 1:8 — the cap must leave their blocks exactly
        // where the paper's shares put them.
        let g = r8000_like();
        assert_eq!(g.l1_block(Kernel::MatMul), 1 << 13); // 16K/2
        let r10000 = BinGeometry::two_level(32 << 10, 1 << 20);
        assert_eq!(r10000.l1_block(Kernel::MatMul), 1 << 14); // 32K/2
    }

    #[test]
    fn flat_config_uses_the_l2_block() {
        let g = r8000_like();
        let config = g.flat_config(Kernel::Sor);
        assert_eq!(config.block_size(0), 1 << 20);
    }

    #[test]
    fn hierarchical_builds_for_every_kernel() {
        let g = r8000_like();
        for k in [Kernel::MatMul, Kernel::Pde, Kernel::Sor, Kernel::NBody] {
            let policy = g.hierarchical(k).expect("valid geometry");
            assert_eq!(locality_sched::BinPolicy::depth(&policy), 2);
        }
    }

    #[test]
    fn level_blocks_follow_the_machine_topology() {
        // numa2: 32K L1, 256K L2, 8M L3, 64M node — four ladder rungs.
        let g = BinGeometry::for_machine(&cachesim::MachineModel::numa2());
        assert_eq!(g.depth(), 4);
        let blocks = g.level_blocks(Kernel::MatMul);
        // Budgets chain coarse → fine: 64M, 8M, min(256K, 1M) = 256K,
        // min(32K, 32K) = 32K; each block is budget/2 rounded down.
        assert_eq!(blocks, vec![16 << 10, 128 << 10, 4 << 20, 32 << 20]);
        assert_eq!(g.l1_block(Kernel::MatMul), 16 << 10);
        assert_eq!(g.l2_block(Kernel::MatMul), 128 << 10);
        for k in Kernel::ALL {
            let blocks = g.level_blocks(k);
            assert!(
                blocks.windows(2).all(|w| w[0] <= w[1]),
                "{k:?}: {blocks:?} not monotone"
            );
            let policy = g.topology_policy(k).expect("valid ladder");
            assert_eq!(locality_sched::BinPolicy::depth(&policy), 4);
        }
    }

    #[test]
    fn topology_policy_at_depth_2_matches_hierarchical_blocks() {
        let g = r8000_like();
        for k in Kernel::ALL {
            assert_eq!(
                g.level_blocks(k),
                vec![g.l1_block(k), g.l2_block(k)],
                "{k:?}"
            );
            assert_eq!(g.topology_policy(k), g.hierarchical(k), "{k:?}");
        }
    }

    #[test]
    fn ground_truth_marks_sor_convergent_and_nbody_spatial() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
            assert_eq!(
                k.order_semantics() == OrderSemantics::Convergent,
                k == Kernel::Sor
            );
            assert_eq!(k.hint_kind() == HintKind::Spatial, k == Kernel::NBody);
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for (name, kernel) in [
            ("matmul", Kernel::MatMul),
            ("pde", Kernel::Pde),
            ("sor", Kernel::Sor),
            ("nbody", Kernel::NBody),
        ] {
            assert_eq!(Kernel::from_name(name), Some(kernel));
        }
        assert_eq!(Kernel::from_name("spmv"), None);
    }
}
