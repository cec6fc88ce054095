//! Machine locality topology: the hierarchy tree scheduling policies
//! bin against.
//!
//! A [`MachineTopology`] lists the locality *levels* of a machine from
//! finest to coarsest — L1 ⊂ L2 (⊂ L3 ⊂ NUMA node ⊂ package) — each
//! with a working-set capacity, a transfer-line granularity, and a
//! fanout (sibling count under the next-coarser level). It is the
//! single source of hierarchy truth: schedulers derive per-level bin
//! block sizes from the capacities, and the schedule linter warns when
//! conflicting threads land under different top-level subtrees.
//!
//! Every [`MachineModel`](crate::MachineModel) has a topology: the two
//! paper machines derive a two-level tree from their cache hierarchy,
//! `modern()` a three-level one, and synthetic NUMA machines attach an
//! explicit deeper tree via
//! [`with_topology`](crate::MachineModel::with_topology).

use crate::config::{round_to_power_of_two, CacheConfigError};
use std::fmt;

/// Maximum number of levels a [`MachineTopology`] may hold, matching
/// the scheduler's ancestor-ladder capacity.
pub const MAX_TOPOLOGY_LEVELS: usize = 8;

/// One level of a machine's locality hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TopologyLevel {
    capacity: u64,
    line: u64,
    fanout: u32,
}

impl TopologyLevel {
    /// A level holding `capacity` bytes, transferring `line`-byte
    /// lines, with `fanout` sibling instances under one instance of the
    /// next-coarser level (the coarsest level's fanout counts instances
    /// in the whole machine, e.g. sockets).
    pub fn new(capacity: u64, line: u64, fanout: u32) -> Self {
        TopologyLevel {
            capacity,
            line,
            fanout,
        }
    }

    /// Working-set capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Transfer-line granularity in bytes.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Sibling instances of this level under the next-coarser level.
    pub fn fanout(&self) -> u32 {
        self.fanout
    }
}

impl fmt::Display for TopologyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (size, unit) = if self.capacity >= 1 << 20 {
            (self.capacity >> 20, "MB")
        } else {
            (self.capacity >> 10, "KB")
        };
        write!(f, "{size}{unit}/{}B-line x{}", self.line, self.fanout)
    }
}

/// A machine's locality hierarchy, finest level first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineTopology {
    levels: Vec<TopologyLevel>,
}

impl MachineTopology {
    /// Builds a topology from levels listed finest → coarsest.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no levels or more than
    /// [`MAX_TOPOLOGY_LEVELS`], if any capacity or line is zero or not
    /// a power of two, if a capacity is smaller than its line, if any
    /// fanout is zero, if capacities are not strictly increasing
    /// finest → coarsest, or if line sizes decrease up the tree.
    pub fn new(levels: Vec<TopologyLevel>) -> Result<Self, CacheConfigError> {
        if levels.is_empty() {
            return Err(CacheConfigError::new("topology needs at least one level"));
        }
        if levels.len() > MAX_TOPOLOGY_LEVELS {
            return Err(CacheConfigError::new(format!(
                "topology has {} levels, more than the supported {MAX_TOPOLOGY_LEVELS}",
                levels.len()
            )));
        }
        for (i, level) in levels.iter().enumerate() {
            if level.capacity == 0 || !level.capacity.is_power_of_two() {
                return Err(CacheConfigError::new(format!(
                    "topology level {i} capacity {} is not a nonzero power of two",
                    level.capacity
                )));
            }
            if level.line == 0 || !level.line.is_power_of_two() {
                return Err(CacheConfigError::new(format!(
                    "topology level {i} line {} is not a nonzero power of two",
                    level.line
                )));
            }
            if level.capacity < level.line {
                return Err(CacheConfigError::new(format!(
                    "topology level {i} capacity {} is smaller than its line {}",
                    level.capacity, level.line
                )));
            }
            if level.fanout == 0 {
                return Err(CacheConfigError::new(format!(
                    "topology level {i} fanout must be at least 1"
                )));
            }
        }
        for (i, pair) in levels.windows(2).enumerate() {
            if pair[0].capacity >= pair[1].capacity {
                return Err(CacheConfigError::new(format!(
                    "topology capacities must strictly increase: level {i} holds {}, level {} \
                     holds {}",
                    pair[0].capacity,
                    i + 1,
                    pair[1].capacity
                )));
            }
            if pair[0].line > pair[1].line {
                return Err(CacheConfigError::new(format!(
                    "topology lines must not shrink up the tree: level {i} uses {}, level {} \
                     uses {}",
                    pair[0].line,
                    i + 1,
                    pair[1].line
                )));
            }
        }
        Ok(MachineTopology { levels })
    }

    /// Builds a topology from possibly-overlapping levels by clamping:
    /// walking coarsest → finest, each capacity is capped at half the
    /// next-coarser level's, so the capacities come out strictly
    /// ordered.
    ///
    /// # Errors
    ///
    /// Returns an error if clamping pushes a level's capacity below its
    /// line size — the tree has degenerated and should be rejected, not
    /// silently flattened — or if the levels fail the
    /// [`new`](Self::new) validation for another reason.
    pub fn clamped(mut levels: Vec<TopologyLevel>) -> Result<Self, CacheConfigError> {
        for i in (0..levels.len().saturating_sub(1)).rev() {
            let cap = levels[i].capacity.min(levels[i + 1].capacity / 2);
            if cap < levels[i].line {
                return Err(CacheConfigError::new(format!(
                    "topology level {i} degenerates under clamping: capacity {} below line {}",
                    cap, levels[i].line
                )));
            }
            levels[i].capacity = cap;
        }
        MachineTopology::new(levels)
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest first.
    pub fn levels(&self) -> &[TopologyLevel] {
        &self.levels
    }

    /// The level at `index` (0 = finest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= depth()`.
    pub fn level(&self, index: usize) -> TopologyLevel {
        self.levels[index]
    }

    /// Per-level capacities, finest first.
    pub fn capacities(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.capacity).collect()
    }

    /// Returns this topology with the finest level's capacity scaled by
    /// `l1_factor` and every other level's by `l2_factor` (each rounded
    /// to the nearest power of two), then clamped so capacities stay
    /// strictly ordered.
    ///
    /// # Errors
    ///
    /// Returns an error if scaling or clamping degenerates a level
    /// below its line size.
    ///
    /// # Panics
    ///
    /// Panics if a factor is not finite and positive.
    pub fn scaled_split(
        &self,
        l1_factor: f64,
        l2_factor: f64,
    ) -> Result<MachineTopology, CacheConfigError> {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, level)| {
                let factor = if i == 0 { l1_factor } else { l2_factor };
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "scale factor must be positive"
                );
                TopologyLevel {
                    capacity: round_to_power_of_two(level.capacity as f64 * factor),
                    ..*level
                }
            })
            .collect();
        MachineTopology::clamped(levels)
    }
}

impl fmt::Display for MachineTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, level) in self.levels.iter().enumerate() {
            if i > 0 {
                f.write_str(" < ")?;
            }
            write!(f, "{level}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_level() -> Vec<TopologyLevel> {
        vec![
            TopologyLevel::new(32 << 10, 64, 1),
            TopologyLevel::new(256 << 10, 64, 1),
            TopologyLevel::new(8 << 20, 64, 4),
            TopologyLevel::new(64 << 20, 64, 2),
        ]
    }

    #[test]
    fn valid_tree_round_trips() {
        let t = MachineTopology::new(four_level()).unwrap();
        assert_eq!(t.depth(), 4);
        assert_eq!(t.capacities(), vec![32 << 10, 256 << 10, 8 << 20, 64 << 20]);
        assert_eq!(t.level(2).fanout(), 4);
        assert_eq!(t.level(0).line(), 64);
    }

    #[test]
    fn rejects_bad_trees() {
        assert!(MachineTopology::new(vec![]).is_err(), "empty");
        let mut shrinking = four_level();
        shrinking[3].capacity = 1 << 20;
        assert!(
            MachineTopology::new(shrinking).is_err(),
            "non-increasing capacities"
        );
        let mut bad_line = four_level();
        bad_line[1].line = 48;
        assert!(MachineTopology::new(bad_line).is_err(), "non-pow2 line");
        let mut zero_fanout = four_level();
        zero_fanout[0].fanout = 0;
        assert!(MachineTopology::new(zero_fanout).is_err(), "zero fanout");
        let mut line_shrinks = four_level();
        line_shrinks[0].line = 128;
        assert!(
            MachineTopology::new(line_shrinks).is_err(),
            "line shrinks up the tree"
        );
        let too_deep = (0..9)
            .map(|i| TopologyLevel::new(1 << (10 + i), 64, 1))
            .collect();
        assert!(MachineTopology::new(too_deep).is_err(), "too deep");
    }

    #[test]
    fn clamping_restores_strict_order() {
        // L1 as large as L2: the clamp halves it under L2.
        let t = MachineTopology::clamped(vec![
            TopologyLevel::new(1 << 20, 64, 1),
            TopologyLevel::new(1 << 20, 64, 1),
        ])
        .unwrap();
        assert_eq!(t.capacities(), vec![1 << 19, 1 << 20]);
    }

    #[test]
    fn clamping_rejects_degenerate_trees() {
        // Clamping would push the fine level below its line size.
        let err = MachineTopology::clamped(vec![
            TopologyLevel::new(64, 64, 1),
            TopologyLevel::new(64, 64, 1),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("degenerates"), "{err}");
    }

    #[test]
    fn scaling_scales_and_clamps() {
        let t = MachineTopology::new(four_level()).unwrap();
        let s = t.scaled_split(1.0, 1.0 / 8.0).unwrap();
        // Coarser levels shrink 8x; the unscaled L1 is clamped under
        // the shrunken L2.
        assert_eq!(s.capacities(), vec![16 << 10, 32 << 10, 1 << 20, 8 << 20]);
        assert!(t.scaled_split(1e-6, 1e-6).is_err(), "degenerate scale");
    }

    #[test]
    fn display_lists_levels() {
        let t = MachineTopology::new(four_level()).unwrap();
        let s = t.to_string();
        assert!(s.contains("32KB/64B-line x1"), "{s}");
        assert!(s.contains("64MB/64B-line x2"), "{s}");
    }
}
