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
use memtrace::{SchedLogSink, ScheduleLog};
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

/// A mirror replay with its schedule-event stream: the dispatch
/// permutation plus the [`ScheduleLog`] of the serial drain (forks,
/// drain-unit begin/end, dispatches — resolved to fork indices — and
/// the final barrier), ready for happens-before indexing.
#[derive(Clone, Debug)]
pub struct DispatchTrace {
    /// Dispatch permutation: element `k` is the fork index of the
    /// `k`-th thread to execute.
    pub order: Vec<usize>,
    /// The serial drain's schedule-event stream, fork-labeled.
    pub log: ScheduleLog,
}

struct MarkCtx<'a> {
    order: Vec<usize>,
    sink: &'a mut SchedLogSink,
}

fn mark_traced(ctx: &mut MarkCtx<'_>, index: usize, _unused: usize) {
    ctx.order.push(index);
}

/// Replays `hints` (fork order) through a fresh scheduler under
/// `policy`, recording the dispatch permutation and the drain's
/// schedule events. The engine is deterministic given (config, policy,
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
    let mut sink = SchedLogSink::new();
    let mut sched: Scheduler<MarkCtx<'_>, P> = Scheduler::with_policy(config, policy);
    for (index, &h) in hints.iter().enumerate() {
        sched.fork_traced(mark_traced, index, 0, h, &mut sink);
    }
    let mut ctx = MarkCtx {
        order: Vec::with_capacity(hints.len()),
        sink: &mut sink,
    };
    sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
    let order = ctx.order;
    assert_eq!(order.len(), hints.len(), "marker replay lost threads");
    let mut log = sink.into_log();
    log.relabel_dispatch_forks(&order);
    DispatchTrace { order, log }
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
    fn dispatch_trace_logs_forks_units_and_fork_labeled_dispatches() {
        use memtrace::SchedEvent;
        let hints = vec![
            Hints::one(Addr::new(0x10)),
            Hints::one(Addr::new(0x100_000)),
            Hints::one(Addr::new(0x20)),
        ];
        let cfg = config(1024);
        let trace = dispatch_trace(cfg, PaperBlockHash::from_config(&cfg), &hints);
        assert_eq!(trace.order, vec![0, 2, 1]);
        let forks: Vec<u32> = trace
            .log
            .events
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Dispatch { fork, .. } => Some(*fork),
                _ => None,
            })
            .collect();
        assert_eq!(forks, vec![0, 2, 1], "dispatches carry fork indices");
        let begins = trace
            .log
            .events
            .iter()
            .filter(|e| matches!(e, SchedEvent::DrainBegin { .. }))
            .count();
        assert_eq!(begins, 2, "two bins, two drain units");
        assert_eq!(trace.log.events.last(), Some(&SchedEvent::Barrier));
        assert_eq!(
            trace.log.events[..3],
            [
                SchedEvent::Fork { actor: 0, fork: 0 },
                SchedEvent::Fork { actor: 0, fork: 1 },
                SchedEvent::Fork { actor: 0, fork: 2 },
            ]
        );
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
