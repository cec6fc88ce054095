//! Models of the paper's two evaluation machines.

use crate::config::round_to_power_of_two;
use crate::{CacheConfig, CacheConfigError, Hierarchy, HierarchyConfig, TimingModel};
use std::fmt;

/// A machine model: cache geometry plus the paper's crude timing
/// parameters.
///
/// The paper evaluates on an SGI Power Indigo2 (MIPS R8000) and an SGI
/// Indigo2 IMPACT (MIPS R10000) and analyses its results with a crude
/// model — one instruction per cycle, a 7-cycle L1-miss penalty, and a
/// measured L2-miss penalty (Table 1: 1.06 µs on the R8000, 0.85 µs on
/// the R10000). This type packages the same parameters.
///
/// # Examples
///
/// ```
/// use cachesim::MachineModel;
///
/// let m = MachineModel::r8000();
/// assert_eq!(m.l2_config().size(), 2 << 20);
/// // Scale the caches down 16x for a scaled-problem experiment:
/// let small = m.scaled(1.0 / 16.0)?;
/// assert_eq!(small.l2_config().size(), 128 << 10);
/// # Ok::<(), cachesim::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MachineModel {
    name: String,
    clock_hz: f64,
    instructions_per_cycle: f64,
    l1_miss_penalty_cycles: f64,
    l2_miss_penalty_ns: f64,
    hierarchy: HierarchyConfig,
    /// Socket-local memory, a locality level above the simulated
    /// caches; only [`numa2`](Self::numa2) has one.
    domain_bytes: Option<u64>,
    /// Per-thread fork+run overhead (paper Table 1), in nanoseconds.
    thread_overhead_ns: f64,
}

impl MachineModel {
    /// SGI Power Indigo2: 75 MHz MIPS R8000.
    ///
    /// 16 KB direct-mapped L1 data cache with 32-byte lines; unified
    /// 2 MB 4-way L2 with 128-byte lines; L1-miss penalty 7 cycles
    /// (paper §4.2, citing the R8000 design paper); L2-miss penalty
    /// 1.06 µs (Table 1). Thread overhead 1.60 µs (Table 1).
    pub fn r8000() -> Self {
        MachineModel {
            name: "R8000".to_owned(),
            clock_hz: 75e6,
            instructions_per_cycle: 1.0,
            l1_miss_penalty_cycles: 7.0,
            l2_miss_penalty_ns: 1060.0,
            hierarchy: HierarchyConfig::new(
                CacheConfig::new(16 << 10, 32, 1).expect("static config"),
                CacheConfig::new(2 << 20, 128, 4).expect("static config"),
            ),
            domain_bytes: None,
            thread_overhead_ns: 1600.0,
        }
    }

    /// SGI Indigo2 IMPACT: 195 MHz MIPS R10000.
    ///
    /// 32 KB 2-way L1 data cache with 32-byte lines; unified 1 MB 2-way
    /// L2 with 128-byte lines; L2-miss penalty 0.85 µs (Table 1).
    /// The paper does not state an R10000 L1-miss penalty; we use 8
    /// cycles (the R10000 user's-manual L2 load-to-use latency), which
    /// only affects the crude timing model, not any cache statistic.
    /// Thread overhead 1.09 µs (Table 1).
    pub fn r10000() -> Self {
        MachineModel {
            name: "R10000".to_owned(),
            clock_hz: 195e6,
            instructions_per_cycle: 1.0,
            l1_miss_penalty_cycles: 8.0,
            l2_miss_penalty_ns: 850.0,
            hierarchy: HierarchyConfig::new(
                CacheConfig::new(32 << 10, 32, 2).expect("static config"),
                CacheConfig::new(1 << 20, 128, 2).expect("static config"),
            ),
            domain_bytes: None,
            thread_overhead_ns: 1090.0,
        }
    }

    /// A plausible 2020s desktop core, for "does the technique still
    /// matter" studies: 4 GHz, 4-wide, 32 KB/8-way L1D, 512 KB/8-way
    /// private L2, 32 MB/16-way shared L3 (64-byte lines throughout),
    /// ~12-cycle L1-miss penalty and ~80 ns DRAM penalty. Thread
    /// overhead uses this crate's measured Rust fork+run cost (~30 ns,
    /// Table 1 on a modern host).
    pub fn modern() -> Self {
        MachineModel {
            name: "Modern".to_owned(),
            clock_hz: 4e9,
            instructions_per_cycle: 4.0,
            l1_miss_penalty_cycles: 12.0,
            l2_miss_penalty_ns: 80.0,
            hierarchy: HierarchyConfig::new3(
                CacheConfig::new(32 << 10, 64, 8).expect("static config"),
                CacheConfig::new(512 << 10, 64, 8).expect("static config"),
                CacheConfig::new(32 << 20, 64, 16).expect("static config"),
            ),
            domain_bytes: None,
            thread_overhead_ns: 30.0,
        }
    }

    /// A custom machine model.
    pub fn custom(
        name: impl Into<String>,
        clock_hz: f64,
        instructions_per_cycle: f64,
        l1_miss_penalty_cycles: f64,
        l2_miss_penalty_ns: f64,
        hierarchy: HierarchyConfig,
        thread_overhead_ns: f64,
    ) -> Self {
        MachineModel {
            name: name.into(),
            clock_hz,
            instructions_per_cycle,
            l1_miss_penalty_cycles,
            l2_miss_penalty_ns,
            hierarchy,
            domain_bytes: None,
            thread_overhead_ns,
        }
    }

    /// A synthetic 2-socket NUMA machine for locality-depth studies:
    /// per-core 32 KB L1D and 256 KB L2, an 8 MB L3 shared by four
    /// cores, and a 64 MB socket-local memory domain — four locality
    /// levels (L1 ⊂ L2 ⊂ L3 ⊂ socket). The simulated cache hierarchy
    /// models the three cache levels; the socket level exists only in
    /// [`capacities`](Self::capacities), where schedulers see it.
    pub fn numa2() -> Self {
        MachineModel {
            name: "NUMA2".to_owned(),
            clock_hz: 2.5e9,
            instructions_per_cycle: 3.0,
            l1_miss_penalty_cycles: 12.0,
            l2_miss_penalty_ns: 90.0,
            hierarchy: HierarchyConfig::new3(
                CacheConfig::new(32 << 10, 64, 8).expect("static config"),
                CacheConfig::new(256 << 10, 64, 8).expect("static config"),
                CacheConfig::new(8 << 20, 64, 16).expect("static config"),
            ),
            domain_bytes: Some(64 << 20),
            thread_overhead_ns: 30.0,
        }
    }

    /// The machine's locality levels as byte capacities, finest first:
    /// the L1, L2 and any L3 cache sizes, then the socket-local memory
    /// domain if the machine has one. Bin geometry and the serving
    /// ladder size one block per level from these.
    ///
    /// Capacities are clamped coarsest → finest to at most half the
    /// next level, so they come out strictly increasing even on scaled
    /// models whose L2 shrinks under the L1. A ladder that clamping
    /// degenerates (a level below its line size) collapses to its
    /// coarsest level.
    pub fn capacities(&self) -> Vec<u64> {
        self.ladder()
            .unwrap_or_else(|_| vec![self.levels().last().expect("an L1 and an L2").0])
    }

    /// Each locality level's unclamped `(capacity, line)`, finest
    /// first. A level's line is the widest of any level at or below it;
    /// the memory domain takes the coarsest cache's.
    fn levels(&self) -> Vec<(u64, u64)> {
        let h = &self.hierarchy;
        let caches = [Some(h.l1d), Some(h.l2), h.l3];
        let mut levels = Vec::with_capacity(4);
        let mut widest = 0;
        for cache in caches.into_iter().flatten() {
            widest = widest.max(cache.line());
            levels.push((cache.size(), widest));
        }
        if let Some(domain) = self.domain_bytes {
            levels.push((domain, widest));
        }
        levels
    }

    /// The clamped capacities, or why clamping degenerates them.
    fn ladder(&self) -> Result<Vec<u64>, String> {
        let mut levels = self.levels();
        for i in (0..levels.len()).rev() {
            if let Some(&(next, _)) = levels.get(i + 1) {
                levels[i].0 = levels[i].0.min(next / 2);
            }
            let (capacity, line) = levels[i];
            if capacity < line {
                return Err(format!(
                    "locality level {i} degenerates: capacity {capacity} below its {line}-byte line"
                ));
            }
        }
        Ok(levels.into_iter().map(|(capacity, _)| capacity).collect())
    }

    /// Returns this machine with both cache capacities multiplied by
    /// `factor` (timing parameters unchanged).
    ///
    /// Scaled machines pair with scaled problem sizes to preserve the
    /// paper's data-set : cache ratios while keeping trace-driven
    /// simulation affordable; see EXPERIMENTS.md.
    ///
    /// # Errors
    ///
    /// Returns an error if scaling leaves fewer locality levels in
    /// [`capacities`](Self::capacities) than the unscaled machine has —
    /// a level's capacity would fall below its line size even after
    /// clamping — rather than silently flattening the ladder.
    pub fn scaled(&self, factor: f64) -> Result<MachineModel, CacheConfigError> {
        self.scaled_split(factor, factor)
    }

    /// Returns this machine with the L1 capacity scaled by `l1_factor`
    /// and the L2 capacity by `l2_factor`.
    ///
    /// Scaled-problem experiments shrink a 2-D problem's *side* by
    /// √factor while its *area* shrinks by factor; working sets that
    /// live in the L1 (a few matrix columns) scale with the side, while
    /// the L2-level working set (whole arrays) scales with the area. So
    /// the ratio-preserving choice is `l1_factor = √l2_factor`; see
    /// EXPERIMENTS.md.
    ///
    /// Every level above the L1 — the L3 and the memory domain
    /// included — scales by `l2_factor`.
    ///
    /// # Errors
    ///
    /// Returns an error if the scaled locality ladder is shallower than
    /// the unscaled one (a level's capacity falls below its line size
    /// after clamping).
    pub fn scaled_split(
        &self,
        l1_factor: f64,
        l2_factor: f64,
    ) -> Result<MachineModel, CacheConfigError> {
        let mut scaled = self.clone();
        scaled.name = format!("{}/{:.3}x", self.name, l2_factor);
        scaled.hierarchy = HierarchyConfig::new(
            self.hierarchy.l1d.scaled(l1_factor),
            self.hierarchy.l2.scaled(l2_factor),
        );
        scaled.hierarchy.l3 = self.hierarchy.l3.map(|l3| l3.scaled(l2_factor));
        scaled.domain_bytes = self
            .domain_bytes
            .map(|bytes| round_to_power_of_two(bytes as f64 * l2_factor));
        match scaled.ladder() {
            Err(why) if self.capacities().len() > 1 => Err(CacheConfigError::new(format!(
                "scaling {} by ({l1_factor}, {l2_factor}): {why}",
                self.name
            ))),
            _ => Ok(scaled),
        }
    }

    /// Machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cache hierarchy geometry.
    pub fn hierarchy_config(&self) -> HierarchyConfig {
        self.hierarchy
    }

    /// L1 data-cache geometry.
    pub fn l1_config(&self) -> CacheConfig {
        self.hierarchy.l1d
    }

    /// L2 geometry.
    pub fn l2_config(&self) -> CacheConfig {
        self.hierarchy.l2
    }

    /// L1 data-cache capacity in bytes — the working-set budget a
    /// scheduler's finest bin level should target on this machine.
    pub fn l1_capacity(&self) -> u64 {
        self.hierarchy.l1d.size()
    }

    /// L2 capacity in bytes — the paper's bin-sizing budget ("the
    /// default dimension sizes of the block are set such that their
    /// sum are the same as the second-level cache size", §3.2).
    pub fn l2_capacity(&self) -> u64 {
        self.hierarchy.l2.size()
    }

    /// L1 data-cache line size in bytes.
    pub fn l1_line(&self) -> u64 {
        self.hierarchy.l1d.line()
    }

    /// L2 line size in bytes.
    pub fn l2_line(&self) -> u64 {
        self.hierarchy.l2.line()
    }

    /// Creates a fresh, empty simulated hierarchy for this machine,
    /// with virtual indexing throughout (the paper's own methodology).
    /// Its probe miss-latency histogram is armed with this machine's
    /// Table 1 penalties (L1-miss cycles at this clock, plus the
    /// L2-miss nanoseconds on a DRAM-reaching miss).
    pub fn hierarchy(&self) -> Hierarchy {
        let mut h = Hierarchy::new(self.hierarchy);
        let l1_ns = (self.l1_miss_penalty_cycles / self.clock_hz * 1e9).round() as u64;
        h.set_probe_penalties(l1_ns, self.l2_miss_penalty_ns.round() as u64);
        h
    }

    /// The crude timing model for this machine.
    pub fn timing(&self) -> TimingModel {
        TimingModel::new(
            self.clock_hz,
            self.instructions_per_cycle,
            self.l1_miss_penalty_cycles,
            self.l2_miss_penalty_ns,
        )
    }

    /// Clock rate in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// L2-miss penalty in nanoseconds (paper Table 1's "L2 Miss" row).
    pub fn l2_miss_penalty_ns(&self) -> f64 {
        self.l2_miss_penalty_ns
    }

    /// Per-thread fork+run overhead in nanoseconds (paper Table 1).
    pub fn thread_overhead_ns(&self) -> f64 {
        self.thread_overhead_ns
    }

    /// Replaces the modeled thread overhead (e.g. with a value measured
    /// for this Rust implementation on the host).
    pub fn with_thread_overhead_ns(mut self, ns: f64) -> Self {
        self.thread_overhead_ns = ns;
        self
    }
}

impl fmt::Display for MachineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.0} MHz, L1D {}, L2 {})",
            self.name,
            self.clock_hz / 1e6,
            self.hierarchy.l1d,
            self.hierarchy.l2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r8000_matches_paper_geometry() {
        let m = MachineModel::r8000();
        assert_eq!(m.l1_config().size(), 16 << 10);
        assert_eq!(m.l1_config().line(), 32);
        assert_eq!(m.l1_config().assoc(), 1);
        assert_eq!(m.l2_config().size(), 2 << 20);
        assert_eq!(m.l2_config().line(), 128);
        assert_eq!(m.l2_config().assoc(), 4);
        assert_eq!(m.l2_miss_penalty_ns(), 1060.0);
    }

    #[test]
    fn r10000_matches_paper_geometry() {
        let m = MachineModel::r10000();
        assert_eq!(m.l1_config().size(), 32 << 10);
        assert_eq!(m.l1_config().assoc(), 2);
        assert_eq!(m.l2_config().size(), 1 << 20);
        assert_eq!(m.l2_config().assoc(), 2);
        assert_eq!(m.l2_miss_penalty_ns(), 850.0);
    }

    #[test]
    fn scaling_scales_both_levels() {
        let m = MachineModel::r8000().scaled(0.25).unwrap();
        assert_eq!(m.l2_config().size(), 512 << 10);
        assert_eq!(m.l1_config().size(), 4 << 10);
        assert_eq!(m.l2_config().line(), 128, "line size preserved");
        assert!(m.name().contains("R8000"));
    }

    #[test]
    fn derived_topology_matches_hierarchy() {
        assert_eq!(MachineModel::r8000().capacities(), vec![16 << 10, 2 << 20]);
        // L1, L2 and L3.
        let modern = MachineModel::modern().capacities();
        assert_eq!(modern, vec![32 << 10, 512 << 10, 32 << 20]);
    }

    #[test]
    fn derived_topology_clamps_crossed_scaled_levels() {
        // Bench machines scale L2 only; at 1/256 the L2 (8 KB) drops
        // under the full-size L1 (16 KB). The ladder must clamp the L1
        // level back under the L2, not flatten or invert.
        let m = MachineModel::r8000()
            .scaled_split(1.0, 1.0 / 256.0)
            .unwrap();
        assert_eq!(m.capacities(), vec![4 << 10, 8 << 10]);
    }

    #[test]
    fn numa2_has_a_four_level_tree() {
        let m = MachineModel::numa2();
        // L1, L2, L3 and the socket-local memory.
        assert_eq!(m.capacities(), vec![32 << 10, 256 << 10, 8 << 20, 64 << 20]);
        // The simulated hierarchy covers the three cache levels.
        assert_eq!(m.hierarchy_config().l3.unwrap().size(), 8 << 20);
    }

    #[test]
    fn scaling_scales_the_whole_topology_coherently() {
        let m = MachineModel::numa2().scaled_split(1.0, 1.0 / 8.0).unwrap();
        let caps = m.capacities();
        assert_eq!(caps.len(), 4, "no level silently dropped");
        // Coarse levels shrink 8x; the unscaled L1 clamps under the L2.
        assert_eq!(caps, vec![16 << 10, 32 << 10, 1 << 20, 8 << 20]);
        assert!(caps.windows(2).all(|w| w[0] < w[1]), "strictly ordered");
    }

    #[test]
    fn degenerate_scaling_is_an_error() {
        // Scaling numa2 below its line sizes must be rejected, not
        // silently flattened (mirrors the serve crate's degenerate-L2
        // config error).
        let err = MachineModel::numa2().scaled(1e-6).unwrap_err();
        assert!(err.to_string().contains("line"), "{err}");
        // The paper machines keep both levels down to one set each.
        let tiny = MachineModel::r8000().scaled(1e-6).unwrap();
        assert_eq!(tiny.capacities(), vec![32, 512]);
    }

    #[test]
    fn a_degenerate_ladder_collapses_to_its_coarsest_level() {
        // A 64 B L2 leaves a 32 B rung for the L1's 64 B lines.
        let m = MachineModel::custom(
            "tiny",
            1e9,
            1.0,
            1.0,
            1.0,
            HierarchyConfig::new(
                CacheConfig::new(1 << 10, 64, 1).unwrap(),
                CacheConfig::new(64, 64, 1).unwrap(),
            ),
            1.0,
        );
        assert_eq!(m.capacities(), vec![64]);
        // Already one level deep, it scales without losing any.
        assert!(m.scaled(0.5).is_ok());
    }

    #[test]
    fn the_ladder_never_claims_less_than_its_cache() {
        // One set is the smallest a scaled cache gets: 512 B for
        // numa2's 8-way, 64 B-line L1, not the 256 B a scaled
        // capacity would round to.
        let m = MachineModel::numa2()
            .scaled_split(1.0 / 128.0, 1.0)
            .unwrap();
        assert_eq!(m.capacities()[0], m.l1_config().size());
        assert_eq!(m.capacities(), vec![512, 256 << 10, 8 << 20, 64 << 20]);
    }

    /// `capacities()` at every `(l1, l2)` split the repository scales
    /// a machine by — the call sites, and `ExpScale`'s per-kernel
    /// factors at its smoke, default and full presets — pinned to the
    /// values the locality ladder has always had.
    #[test]
    fn the_ladder_table_is_pinned() {
        const K: u64 = 1 << 10;
        const M: u64 = 1 << 20;
        // The modern study's LLC-ratio factors (matmul n = 96, and SOR
        // n = 251, 1001, 2005; matmul n = 256 and 1024 give 1/256 and
        // 1/16).
        const LLC: f64 = (32u64 << 20) as f64;
        let mm96 = 18_432.0 / LLC;
        let sor251 = 31_500.5 / LLC;
        let sor1001 = 501_000.5 / LLC;
        let sor2005 = 2_010_012.5 / LLC;
        type Case = (fn() -> MachineModel, f64, f64, Vec<u64>);
        let r8000: fn() -> MachineModel = MachineModel::r8000;
        let r10000: fn() -> MachineModel = MachineModel::r10000;
        let modern: fn() -> MachineModel = MachineModel::modern;
        let numa2: fn() -> MachineModel = MachineModel::numa2;
        let cases: Vec<Case> = vec![
            (r8000, 1.0, 1.0, vec![16 * K, 2 * M]),
            (r8000, 1.0, 1.0 / 4.0, vec![16 * K, 512 * K]),
            (r8000, 1.0, 1.0 / 8.0, vec![16 * K, 256 * K]),
            (r8000, 1.0, 1.0 / 16.0, vec![16 * K, 128 * K]),
            (r8000, 1.0, 1.0 / 32.0, vec![16 * K, 64 * K]),
            (r8000, 1.0, 1.0 / 64.0, vec![16 * K, 32 * K]),
            (r8000, 1.0, 1.0 / 128.0, vec![8 * K, 16 * K]),
            (r8000, 1.0, 1.0 / 256.0, vec![4 * K, 8 * K]),
            (r8000, 1.0 / 4.0, 1.0 / 4.0, vec![4 * K, 512 * K]),
            (r8000, 1.0 / 16.0, 1.0 / 16.0, vec![K, 128 * K]),
            (r8000, 1.0 / 16.0, 1.0 / 64.0, vec![K, 32 * K]),
            (r8000, 1.0 / 16.0, 1.0 / 256.0, vec![K, 8 * K]),
            (r8000, 1.0 / 16.0, 1.0 / 1024.0, vec![K, 2 * K]),
            (r8000, 1.0 / 64.0, 1.0 / 64.0, vec![256, 32 * K]),
            (r8000, 1.0 / 256.0, 1.0 / 1024.0, vec![64, 2 * K]),
            (r10000, 1.0, 1.0, vec![32 * K, M]),
            (r10000, 1.0, 1.0 / 4.0, vec![32 * K, 256 * K]),
            (r10000, 1.0, 1.0 / 16.0, vec![32 * K, 64 * K]),
            (r10000, 1.0, 1.0 / 32.0, vec![16 * K, 32 * K]),
            (r10000, 1.0, 1.0 / 64.0, vec![8 * K, 16 * K]),
            (r10000, 1.0, 1.0 / 128.0, vec![4 * K, 8 * K]),
            (r10000, 0.5, 1.0 / 8.0, vec![16 * K, 128 * K]),
            (modern, 1.0, 1.0, vec![32 * K, 512 * K, 32 * M]),
            (modern, 1.0, 1.0 / 16.0, vec![16 * K, 32 * K, 2 * M]),
            (modern, 1.0, 1.0 / 256.0, vec![K, 2 * K, 128 * K]),
            (modern, 1.0, mm96, vec![256, 512, 16 * K]),
            (modern, 1.0, sor251, vec![256, 512, 32 * K]),
            (modern, 1.0, sor1001, vec![4 * K, 8 * K, 512 * K]),
            (modern, 1.0, sor2005, vec![16 * K, 32 * K, 2 * M]),
            (numa2, 1.0, 1.0, vec![32 * K, 256 * K, 8 * M, 64 * M]),
            (numa2, 1.0, 1.0 / 4.0, vec![32 * K, 64 * K, 2 * M, 16 * M]),
            (numa2, 1.0, 1.0 / 8.0, vec![16 * K, 32 * K, M, 8 * M]),
            (numa2, 1.0, 1.0 / 16.0, vec![8 * K, 16 * K, 512 * K, 4 * M]),
            (numa2, 1.0, 1.0 / 32.0, vec![4 * K, 8 * K, 256 * K, 2 * M]),
            (numa2, 1.0, 1.0 / 64.0, vec![2 * K, 4 * K, 128 * K, M]),
            (numa2, 1.0, 1.0 / 128.0, vec![K, 2 * K, 64 * K, 512 * K]),
            (numa2, 1.0 / 64.0, 1.0 / 64.0, vec![512, 4 * K, 128 * K, M]),
            (
                numa2,
                1.0 / 64.0,
                1.0 / 512.0,
                vec![256, 512, 16 * K, 128 * K],
            ),
        ];
        for (machine, l1, l2, want) in cases {
            let m = machine().scaled_split(l1, l2).unwrap();
            assert_eq!(m.capacities(), want, "{} at ({l1}, {l2})", m.name());
        }
    }

    #[test]
    fn display_mentions_geometry() {
        let s = MachineModel::r8000().to_string();
        assert!(s.contains("R8000"), "{s}");
        assert!(s.contains("2MB"), "{s}");
    }

    #[test]
    fn thread_overhead_override() {
        let m = MachineModel::r8000().with_thread_overhead_ns(500.0);
        assert_eq!(m.thread_overhead_ns(), 500.0);
    }
}
