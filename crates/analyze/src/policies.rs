//! The shipped [`BinPolicy`] permutations, replayed over recorded
//! hints.
//!
//! The analyzer never reaches into scheduler internals: bin membership
//! and dispatch order are recomputed from the public policy API by
//! *mirror replay* — fork one marker thread per recorded hint list into
//! a fresh [`Scheduler`] under the policy being checked, run it, and
//! log the fork indices in execution order. The engine is deterministic
//! given (config, policy, fork-ordered hints), so the marker
//! permutation is exactly the permutation the real run used.

use crate::capture::Capture;
use locality_sched::{
    AnyPolicy, BinPolicy, Hints, PaperBlockHash, RunMode, Scheduler, SchedulerConfig, SingleBin,
    UniqueBin, MAX_DIMS,
};
use memtrace::{Access, SchedMark, TraceSink};
use std::collections::HashMap;

/// The shipped bin-policy families `schedlint` proves safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`PaperBlockHash`] derived from the capture's config (the
    /// paper's flat L2 policy, the default everywhere).
    Paper,
    /// [`Hierarchical`](locality_sched::Hierarchical) L1-in-L2 nesting
    /// (skipped when the capture provides no hierarchical geometry).
    Hierarchical,
    /// [`SingleBin`] — FIFO order, the paper's "touch" baseline.
    Single,
    /// [`UniqueBin`] — one bin per thread (the random-shuffle
    /// baseline's binning; under the allocation-order tour it
    /// preserves fork order).
    Unique,
}

impl PolicyKind {
    /// Every shipped policy family.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Paper,
        PolicyKind::Hierarchical,
        PolicyKind::Single,
        PolicyKind::Unique,
    ];

    /// Short report label.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Paper => "paper",
            PolicyKind::Hierarchical => "hierarchical",
            PolicyKind::Single => "single",
            PolicyKind::Unique => "unique",
        }
    }

    /// The policy this family denotes for `capture` (the flat paper
    /// policy as the depth-1 ladder), or `None` when the capture
    /// carries no geometry for it.
    pub fn policy(self, capture: &Capture) -> Option<AnyPolicy> {
        Some(match self {
            PolicyKind::Paper => {
                AnyPolicy::Ladder(PaperBlockHash::from_config(&capture.config).into())
            }
            PolicyKind::Hierarchical => AnyPolicy::Ladder(capture.hierarchical?.into()),
            PolicyKind::Single => AnyPolicy::Single(SingleBin),
            PolicyKind::Unique => AnyPolicy::Unique(UniqueBin::default()),
        })
    }
}

/// A mirror replay: the dispatch permutation and the number of drain
/// units the serial drain opened.
#[derive(Clone, Debug)]
pub struct DispatchTrace {
    /// Dispatch permutation: element `k` is the fork index of the
    /// `k`-th thread to execute.
    pub order: Vec<usize>,
    /// Drain units of the serial drain (one bin for flat policies, one
    /// parent group's sub-bins for nested ones).
    pub units: u64,
}

/// The marker run's context and trace sink at once: markers record
/// their fork index, and the sink counts the drain units the engine
/// opens.
struct Markers {
    order: Vec<usize>,
    units: u64,
}

fn mark_dispatch(markers: &mut Markers, index: usize, _unused: usize) {
    markers.order.push(index);
}

impl TraceSink for Markers {
    fn access(&mut self, _access: Access) {}

    fn instructions(&mut self, _count: u64) {}

    fn mark(&mut self, mark: SchedMark<'_>) {
        if let SchedMark::DrainBegin(_) = mark {
            self.units += 1;
        }
    }
}

/// Replays `hints` (fork order) through a fresh scheduler under
/// `policy`, recording the dispatch permutation and counting the
/// drain's units. The engine is deterministic given (config, policy,
/// fork-ordered hints), so the returned trace is too.
///
/// # Panics
///
/// Panics if the scheduler does not run exactly one marker per fork —
/// impossible for the shipped engine, and worth a loud failure if a
/// future engine breaks it.
pub fn dispatch_trace<P: BinPolicy>(
    config: SchedulerConfig,
    policy: P,
    hints: &[Hints],
) -> DispatchTrace {
    let mut sched: Scheduler<Markers, P> = Scheduler::with_policy(config, policy);
    for (index, &h) in hints.iter().enumerate() {
        sched.fork(mark_dispatch, index, 0, h);
    }
    let mut markers = Markers {
        order: Vec::with_capacity(hints.len()),
        units: 0,
    };
    sched.run_traced(&mut markers, RunMode::Consume, |m| m);
    assert_eq!(
        markers.order.len(),
        hints.len(),
        "marker replay lost threads"
    );
    DispatchTrace {
        order: markers.order,
        units: markers.units,
    }
}

/// Bin membership of every forked thread under one policy, at both
/// nesting levels (identical for flat policies). Ids are dense, in
/// first-appearance (allocation) order — the ready-list order.
#[derive(Clone, Debug)]
pub struct BinAssignment {
    /// Finest-level bin id per fork index.
    pub fine: Vec<usize>,
    /// Number of distinct fine bins.
    pub fine_bins: usize,
    /// Parent bin id per fork index (== fine for flat policies).
    pub parent: Vec<usize>,
    /// Number of distinct parent bins.
    pub parent_bins: usize,
    /// Nesting levels of the policy (1 = flat).
    pub levels: u32,
}

/// Computes bin membership by replaying the public policy mapping over
/// `hints` in fork order (a fresh policy instance, so stateful
/// policies like [`UniqueBin`] start from their fork-counter origin).
pub fn assign_bins<P: BinPolicy>(mut policy: P, hints: &[Hints]) -> BinAssignment {
    let levels = policy.depth();
    let unique = policy.always_unique();
    let mut fine_ix: HashMap<[u64; MAX_DIMS], usize> = HashMap::new();
    let mut parent_ix: HashMap<[u64; MAX_DIMS], usize> = HashMap::new();
    let mut fine = Vec::with_capacity(hints.len());
    let mut parent = Vec::with_capacity(hints.len());
    for &h in hints {
        let key = policy.bin_key(h);
        let fid = if unique {
            fine.len()
        } else {
            let next = fine_ix.len();
            *fine_ix.entry(key).or_insert(next)
        };
        let pid = if unique {
            fid
        } else {
            let next = parent_ix.len();
            *parent_ix
                .entry(policy.ancestor_key(key, levels - 1))
                .or_insert(next)
        };
        fine.push(fid);
        parent.push(pid);
    }
    let fine_bins = if unique { fine.len() } else { fine_ix.len() };
    let parent_bins = if unique {
        parent.len()
    } else {
        parent_ix.len()
    };
    BinAssignment {
        fine,
        fine_bins,
        parent,
        parent_bins,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Addr;

    fn config(block: u64) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(block)
            .build()
            .unwrap()
    }

    #[test]
    fn single_bin_preserves_fork_order() {
        let hints: Vec<Hints> = (0..8)
            .map(|i| Hints::one(Addr::new(0x1000 * (8 - i))))
            .collect();
        let order = dispatch_trace(config(1024), SingleBin, &hints).order;
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn unique_bin_under_allocation_tour_preserves_fork_order() {
        let hints: Vec<Hints> = (0..8)
            .map(|i| Hints::one(Addr::new(0x1000 * (8 - i))))
            .collect();
        let order = dispatch_trace(config(1024), UniqueBin::default(), &hints).order;
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn paper_policy_groups_by_block() {
        // Forks 0 and 2 share a block; dispatch drains their bin first.
        let hints = vec![
            Hints::one(Addr::new(0x10)),
            Hints::one(Addr::new(0x100_000)),
            Hints::one(Addr::new(0x20)),
        ];
        let cfg = config(1024);
        let order = dispatch_trace(cfg, PaperBlockHash::from_config(&cfg), &hints).order;
        assert_eq!(order, vec![0, 2, 1]);
        let bins = assign_bins(PaperBlockHash::from_config(&cfg), &hints);
        assert_eq!(bins.fine, vec![0, 1, 0]);
        assert_eq!(bins.fine_bins, 2);
        assert_eq!(bins.parent, bins.fine);
    }

    #[test]
    fn dispatch_trace_returns_the_order_and_the_drain_units() {
        let hints = vec![
            Hints::one(Addr::new(0x10)),
            Hints::one(Addr::new(0x100_000)),
            Hints::one(Addr::new(0x20)),
        ];
        let cfg = config(1024);
        let trace = dispatch_trace(cfg, PaperBlockHash::from_config(&cfg), &hints);
        assert_eq!(trace.order, vec![0, 2, 1]);
        assert_eq!(trace.units, 2, "two bins, two drain units");
        let nested = locality_sched::Hierarchical::uniform(1024, 4096, false).unwrap();
        let sub_bins = [0x0, 0x400, 0x1000].map(|a| Hints::one(Addr::new(a)));
        let trace = dispatch_trace(cfg, nested, &sub_bins);
        assert_eq!(trace.order, vec![0, 1, 2]);
        assert_eq!(trace.units, 2, "one unit per parent group, not per sub-bin");
    }

    #[test]
    fn hierarchical_assignment_has_two_levels() {
        use locality_sched::Hierarchical;
        let policy = Hierarchical::uniform(1024, 4096, false).unwrap();
        let hints = vec![
            Hints::one(Addr::new(0x0)),
            Hints::one(Addr::new(0x400)), // same parent, different sub-bin
            Hints::one(Addr::new(0x1000)), // different parent
        ];
        let bins = assign_bins(policy, &hints);
        assert_eq!(bins.levels, 2);
        assert_eq!(bins.fine, vec![0, 1, 2]);
        assert_eq!(bins.parent, vec![0, 0, 1]);
    }
}
