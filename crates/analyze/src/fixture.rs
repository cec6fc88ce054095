//! Seeded regression fixtures with deliberately injected bugs.
//!
//! Each fixture runs real threads through a real [`Scheduler`] with a
//! [`FootprintSink`] attached — the same capture path the kernels use —
//! but the thread bodies are synthetic, so exactly one defect is
//! present by construction. CI runs `schedlint --fixture <name> --gate`
//! and asserts the gate *fails* with exactly the injected finding: the
//! analyzer must neither miss the bug nor over-report.

use crate::capture::{Capture, DrainConcurrency, PhaseModel};
use cachesim::MachineModel;
use locality_sched::{Hints, RunMode, Scheduler, SchedulerConfig, TopologyPolicy};
use memtrace::{Addr, FootprintSink, TraceSink};
use workloads::{HintKind, OrderSemantics};

/// Fixture block size: one 4 KB block per hint region.
const BLOCK: u64 = 4096;
/// L1 sub-block for the fixtures' hierarchical geometry.
const SUB_BLOCK: u64 = 1024;
/// Base address of the fixtures' data regions.
const BASE: u64 = 0x10_000;
/// Coarsest ("node") rung of the cross-node fixture's depth-3 ladder.
const NODE_BLOCK: u64 = 64 * 1024;

/// The injected-bug fixtures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fixture {
    /// Eight threads with private 4 KB regions, each hinting its own
    /// region base — except thread 3, whose hint points at an unrelated
    /// address far away. Expected findings: exactly one hint-accuracy
    /// **error** (thread 3 at 0% coverage) and nothing else.
    WrongHint,
    /// Two threads in different bins, each working inside its own
    /// hinted block — plus one shared cache line where thread 0 writes
    /// word 0 and thread 1 reads word 1. Distinct words, same line,
    /// different bins: exactly one false-sharing **warning** and
    /// nothing else.
    FalseSharing,
    /// Two threads under *convergent* semantics, each working in its
    /// own hinted region, that both write one contended word — and the
    /// two regions sit under different node subtrees of a depth-3
    /// topology on the NUMA machine. The word ping-pongs across the
    /// coarsest level no matter how bins are drained: exactly one
    /// cross-node-sharing **warning** and nothing else.
    CrossNode,
    /// Two threads in different flat bins, under *convergent* semantics
    /// and a declared [`Stealing`](DrainConcurrency::Stealing) drain,
    /// that both write one contended word outside both hinted blocks.
    /// The serial tour orders them, but bin containment does not — a
    /// stealing drain can run them concurrently, so the pair is a data
    /// race: exactly one happens-before **error** and nothing else.
    UnorderedRace,
}

impl Fixture {
    /// Every fixture.
    pub const ALL: [Fixture; 4] = [
        Fixture::WrongHint,
        Fixture::FalseSharing,
        Fixture::CrossNode,
        Fixture::UnorderedRace,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Fixture::WrongHint => "wrong-hint",
            Fixture::FalseSharing => "false-sharing",
            Fixture::CrossNode => "cross-node",
            Fixture::UnorderedRace => "unordered-race",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Fixture> {
        Fixture::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Runs the fixture through a real scheduler and captures it.
    pub fn capture(self) -> Capture {
        let (plan, hints) = match self {
            Fixture::WrongHint => wrong_hint_plan(),
            Fixture::FalseSharing => false_sharing_plan(),
            Fixture::CrossNode => cross_node_plan(),
            Fixture::UnorderedRace => unordered_race_plan(),
        };
        let mut capture = capture_plan(self.name(), plan, hints);
        match self {
            Fixture::CrossNode => {
                // Convergent semantics: the same-word conflict is
                // allowed, so the only finding left is the cross-node
                // warning.
                capture.semantics = OrderSemantics::Convergent;
                capture.machine = MachineModel::numa2();
                capture.topology =
                    TopologyPolicy::uniform(&[SUB_BLOCK, BLOCK, NODE_BLOCK], false).ok();
            }
            Fixture::UnorderedRace => {
                // Convergent semantics (any serial order converges) but
                // a *stealing* drain declaration: the cross-bin
                // conflict is unordered by happens-before, which is
                // the injected race.
                capture.semantics = OrderSemantics::Convergent;
                capture.concurrency = DrainConcurrency::Stealing;
            }
            _ => {}
        }
        capture
    }
}

/// One synthetic reference: `(is_write, address)`; always 8 bytes.
type Op = (bool, u64);

/// Thread 3's bogus hint target: far outside every data region.
const WRONG_HINT_ADDR: u64 = 0x4000_0000;

fn wrong_hint_plan() -> (Vec<Vec<Op>>, Vec<Hints>) {
    let mut plan = Vec::new();
    let mut hints = Vec::new();
    for t in 0..8u64 {
        let region = BASE + t * BLOCK;
        let mut ops = Vec::new();
        for w in 0..8 {
            ops.push((false, region + w * 8));
            ops.push((true, region + 128 + w * 8));
        }
        plan.push(ops);
        let hint = if t == 3 { WRONG_HINT_ADDR } else { region };
        hints.push(Hints::one(Addr::new(hint)));
    }
    (plan, hints)
}

/// The falsely shared line, outside both hinted blocks.
const SHARED_LINE: u64 = BASE + 8 * BLOCK;

fn false_sharing_plan() -> (Vec<Vec<Op>>, Vec<Hints>) {
    let region_a = BASE;
    let region_b = BASE + BLOCK;
    let mut ops_a: Vec<Op> = (0..10).map(|k| (true, region_a + k * 0x100)).collect();
    let mut ops_b: Vec<Op> = (0..10).map(|k| (true, region_b + k * 0x100)).collect();
    // Same 128-byte line, distinct words: false sharing, not a conflict.
    ops_a.push((true, SHARED_LINE));
    ops_b.push((false, SHARED_LINE + 8));
    (
        vec![ops_a, ops_b],
        vec![
            Hints::one(Addr::new(region_a)),
            Hints::one(Addr::new(region_b)),
        ],
    )
}

/// The contended word both cross-node threads write: inside thread 0's
/// node subtree but outside both hinted blocks.
const CONTENDED: u64 = BASE + 2 * BLOCK;

fn cross_node_plan() -> (Vec<Vec<Op>>, Vec<Hints>) {
    let region_a = BASE;
    let region_b = BASE + NODE_BLOCK;
    let mut ops_a: Vec<Op> = (0..10).map(|k| (true, region_a + k * 0x100)).collect();
    let mut ops_b: Vec<Op> = (0..10).map(|k| (true, region_b + k * 0x100)).collect();
    // Same word, both writing: a true conflict (fine under convergent
    // semantics) between threads binned under different node subtrees.
    ops_a.push((true, CONTENDED));
    ops_b.push((true, CONTENDED));
    (
        vec![ops_a, ops_b],
        vec![
            Hints::one(Addr::new(region_a)),
            Hints::one(Addr::new(region_b)),
        ],
    )
}

/// The raced word both unordered-race threads write: outside both
/// hinted blocks, in neither thread's bin.
const RACED: u64 = BASE + 9 * BLOCK;

fn unordered_race_plan() -> (Vec<Vec<Op>>, Vec<Hints>) {
    let region_a = BASE;
    let region_b = BASE + BLOCK;
    let mut ops_a: Vec<Op> = (0..10).map(|k| (true, region_a + k * 0x100)).collect();
    let mut ops_b: Vec<Op> = (0..10).map(|k| (true, region_b + k * 0x100)).collect();
    // Same word, both writing: a true conflict between threads the
    // paper policy puts in different bins. Under a stealing drain the
    // pair is reachable concurrently — a data race.
    ops_a.push((true, RACED));
    ops_b.push((true, RACED));
    (
        vec![ops_a, ops_b],
        vec![
            Hints::one(Addr::new(region_a)),
            Hints::one(Addr::new(region_b)),
        ],
    )
}

struct FixtureCtx<'a> {
    plan: &'a [Vec<Op>],
    sink: &'a mut FootprintSink,
}

fn fixture_thread(ctx: &mut FixtureCtx<'_>, index: usize, _unused: usize) {
    for &(is_write, addr) in &ctx.plan[index] {
        if is_write {
            ctx.sink.write(Addr::new(addr), 8);
        } else {
            ctx.sink.read(Addr::new(addr), 8);
        }
    }
}

fn capture_plan(name: &str, plan: Vec<Vec<Op>>, hints: Vec<Hints>) -> Capture {
    let config = SchedulerConfig::builder()
        .block_size(BLOCK)
        .build()
        .expect("power-of-two block");
    let mut sink = FootprintSink::new();
    {
        let mut sched = Scheduler::<FixtureCtx<'_>>::new(config);
        for (index, &h) in hints.iter().enumerate() {
            sched.fork_traced(fixture_thread, index, 0, h, &mut sink);
        }
        let mut ctx = FixtureCtx {
            plan: &plan,
            sink: &mut sink,
        };
        sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
    }
    let phases = sink
        .into_phases()
        .into_iter()
        .map(|trace| PhaseModel::from_trace(trace, &config))
        .collect();
    Capture {
        workload: format!("fixture/{name}"),
        semantics: OrderSemantics::Exact,
        hint_kind: HintKind::Address,
        config,
        hierarchical: TopologyPolicy::uniform(&[SUB_BLOCK, BLOCK], false).ok(),
        topology: None,
        machine: MachineModel::r8000(),
        concurrency: DrainConcurrency::Serial,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_names_round_trip() {
        for f in Fixture::ALL {
            assert_eq!(Fixture::from_name(f.name()), Some(f));
        }
        assert_eq!(Fixture::from_name("nope"), None);
    }

    #[test]
    fn wrong_hint_capture_is_one_phase_of_eight() {
        let capture = Fixture::WrongHint.capture();
        assert_eq!(capture.phases.len(), 1);
        let phase = &capture.phases[0];
        assert_eq!(phase.threads(), 8);
        assert!(phase.footprints.iter().all(|fp| !fp.is_empty()));
    }

    #[test]
    fn false_sharing_capture_splits_the_two_threads_into_two_bins() {
        let capture = Fixture::FalseSharing.capture();
        let phase = &capture.phases[0];
        let bins = crate::policies::assign_bins(
            TopologyPolicy::from_config(&capture.config),
            &phase.hints,
        );
        assert_eq!(bins.fine_bins, 2);
    }
}
