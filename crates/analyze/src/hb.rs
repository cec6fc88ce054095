//! Vector-clock happens-before engine over schedule-event streams.
//!
//! The mirror-replay proof (PR 5) shows a policy's *serial* drain
//! preserves conflicting-pair order; it says nothing about what happens
//! when drain units migrate between actors — `ParScheduler` stealing,
//! shard hand-offs, serving-lane grants. This module
//! generalizes the proof: replay a [`ScheduleLog`] into per-actor
//! vector clocks at **drain-unit granularity** and decide, for any two
//! thread bodies, whether the log orders them.
//!
//! Drain-unit granularity is sound because a drain unit executes
//! serially on exactly one actor, so intra-unit bodies inherit the
//! actor's program order and inter-unit order reduces to the clock
//! algebra below. What a unit *is* depends on who migrates work: shard
//! hand-offs and lane grants move the serial drain's units whole, but
//! `ParScheduler`'s deques hold tour positions (bins), so under a
//! nested policy a steal can split a parent group's sub-bins between
//! workers — which is why [`stealing_log`] models one actor per *fine*
//! bin, not per parent group.
//!
//! Clock rules (each event ticks the acting actor so snapshots are
//! strictly increasing per actor):
//!
//! * [`Fork`](SchedEvent::Fork) stores the forking actor's clock as the
//!   thread's *birth clock*.
//! * [`Dispatch`](SchedEvent::Dispatch) joins the thread's birth clock
//!   (publication edge: the body sees everything its forker saw) and
//!   snapshots the actor's clock as the *body clock*.
//! * [`Steal`](SchedEvent::Steal) ticks the thief only — **no join**.
//!   A steal moves unexecuted work, not history; the publication edge
//!   is already the fork → dispatch join. Joining here would invent
//!   ordering that no synchronization enforces and hide real races.
//! * [`Handoff`](SchedEvent::Handoff) is a synchronizing edge: the
//!   receiver joins the sender's clock (a shard round's flush and
//!   merge, a lane grant).
//! * [`Barrier`](SchedEvent::Barrier) joins every actor with every
//!   other (the final join of a run).
//!
//! Two bodies `a`, `b` satisfy `a ⇒ b` iff `b`'s body clock has seen
//! `a`'s actor tick at `a`'s dispatch: `Va[A_a] ≤ Vb[A_a]`.

use crate::analysis::{check_policy, phase_conflicts, PolicyCheck};
use crate::capture::{Capture, PhaseModel};
use crate::conflict::ConflictPair;
use crate::policies::{assign_bins, dispatch_trace, PolicyKind};
use locality_sched::{AnyPolicy, SchedulerConfig};
use memtrace::{SchedEvent, ScheduleLog, ThreadFootprint, WORD_BYTES};
use std::collections::BTreeSet;

/// A per-actor vector clock: `t[a]` counts actor `a`'s events observed
/// so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock {
    t: Vec<u64>,
}

impl VectorClock {
    /// The zero clock over `actors` actors.
    pub fn new(actors: u32) -> Self {
        VectorClock {
            t: vec![0; actors as usize],
        }
    }

    /// Advances `actor`'s component.
    #[inline]
    pub fn tick(&mut self, actor: u32) {
        self.t[actor as usize] += 1;
    }

    /// Pointwise maximum with `other` (the join of two histories).
    pub fn join(&mut self, other: &VectorClock) {
        for (mine, theirs) in self.t.iter_mut().zip(&other.t) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// `actor`'s component.
    #[inline]
    pub fn get(&self, actor: u32) -> u64 {
        self.t[actor as usize]
    }
}

/// The happens-before relation of one [`ScheduleLog`], queryable per
/// dispatched thread body.
#[derive(Clone, Debug)]
pub struct HbIndex {
    /// Per dispatched fork: (executing actor, body clock snapshot).
    bodies: Vec<Option<(u32, VectorClock)>>,
    /// Per dispatched fork: the (actor, drain unit) it executed inside,
    /// when the log wrapped the dispatch in begin/end events.
    unit_of: Vec<Option<(u32, u32)>>,
    /// Events processed.
    pub events: u64,
    /// Drain units opened ([`DrainBegin`](SchedEvent::DrainBegin)s).
    pub units: u64,
}

impl HbIndex {
    /// Replays `log` into per-actor clocks and snapshots every
    /// dispatched body.
    ///
    /// # Panics
    ///
    /// Panics if an event names an actor `>= log.actors`, or a
    /// [`Dispatch`](SchedEvent::Dispatch) a fork that was never forked
    /// in a log that contains [`Fork`](SchedEvent::Fork) events.
    pub fn from_log(log: &ScheduleLog) -> HbIndex {
        let actors = log.actors;
        let mut clocks: Vec<VectorClock> = (0..actors).map(|_| VectorClock::new(actors)).collect();
        let mut births: Vec<Option<VectorClock>> = Vec::new();
        let mut open: Vec<Option<u32>> = vec![None; actors as usize];
        let mut index = HbIndex {
            bodies: Vec::new(),
            unit_of: Vec::new(),
            events: log.events.len() as u64,
            units: 0,
        };
        let ensure = |v: &mut Vec<Option<VectorClock>>, fork: u32| {
            if v.len() <= fork as usize {
                v.resize(fork as usize + 1, None);
            }
        };
        for &event in &log.events {
            match event {
                SchedEvent::Fork { actor, fork } => {
                    clocks[actor as usize].tick(actor);
                    ensure(&mut births, fork);
                    births[fork as usize] = Some(clocks[actor as usize].clone());
                }
                SchedEvent::DrainBegin { actor, unit } => {
                    clocks[actor as usize].tick(actor);
                    open[actor as usize] = Some(unit);
                    index.units += 1;
                }
                SchedEvent::Dispatch { actor, fork } => {
                    clocks[actor as usize].tick(actor);
                    if let Some(Some(birth)) = births.get(fork as usize) {
                        clocks[actor as usize].join(birth);
                    } else {
                        assert!(
                            births.is_empty(),
                            "dispatch of fork {fork} without a Fork event"
                        );
                    }
                    if index.bodies.len() <= fork as usize {
                        index.bodies.resize(fork as usize + 1, None);
                        index.unit_of.resize(fork as usize + 1, None);
                    }
                    index.bodies[fork as usize] = Some((actor, clocks[actor as usize].clone()));
                    index.unit_of[fork as usize] = open[actor as usize].map(|unit| (actor, unit));
                }
                SchedEvent::DrainEnd { actor, .. } => {
                    clocks[actor as usize].tick(actor);
                    open[actor as usize] = None;
                }
                SchedEvent::Steal { thief, .. } => {
                    // Provenance only — see the module docs on why a
                    // steal must not join.
                    clocks[thief as usize].tick(thief);
                }
                SchedEvent::Handoff { from, to } => {
                    clocks[from as usize].tick(from);
                    let snapshot = clocks[from as usize].clone();
                    clocks[to as usize].tick(to);
                    clocks[to as usize].join(&snapshot);
                }
                SchedEvent::Barrier => {
                    let mut all = VectorClock::new(actors);
                    for clock in &clocks {
                        all.join(clock);
                    }
                    for (a, clock) in clocks.iter_mut().enumerate() {
                        *clock = all.clone();
                        clock.tick(a as u32);
                    }
                }
            }
        }
        index
    }

    /// `true` when fork `fork` has a recorded body.
    pub fn dispatched(&self, fork: usize) -> bool {
        self.bodies.get(fork).is_some_and(Option::is_some)
    }

    /// The (actor, drain unit) fork `fork` executed inside, if known.
    pub fn unit_of(&self, fork: usize) -> Option<(u32, u32)> {
        self.unit_of.get(fork).copied().flatten()
    }

    /// `true` when body `a` happens before body `b` in every execution
    /// consistent with the log. `false` for unknown forks or `a == b`.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (Some(Some((actor_a, clock_a))), Some(Some((_, clock_b)))) =
            (self.bodies.get(a), self.bodies.get(b))
        else {
            return false;
        };
        clock_b.get(*actor_a) >= clock_a.get(*actor_a)
    }

    /// `true` when the log orders `a` and `b` either way.
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        self.happens_before(a, b) || self.happens_before(b, a)
    }
}

/// What an [`OrderObligation`] demands of the happens-before relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObligationKind {
    /// Fork order must be preserved: `a ⇒ b` (order-exact workloads,
    /// `a` forked before `b`).
    ForkOrder,
    /// The pair must be ordered *some* way (`a ⇒ b` or `b ⇒ a`): the
    /// data-race lint for conflicting pairs.
    ConflictOrder,
}

/// One ordering demand between two thread bodies, checkable against
/// any [`HbIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderObligation {
    /// What must hold.
    pub kind: ObligationKind,
    /// First fork index (the earlier/source side for directed kinds).
    pub a: usize,
    /// Second fork index.
    pub b: usize,
}

impl OrderObligation {
    /// Checks the obligation against `index`.
    pub fn satisfied(&self, index: &HbIndex) -> bool {
        match self.kind {
            ObligationKind::ForkOrder => index.happens_before(self.a, self.b),
            ObligationKind::ConflictOrder => index.ordered(self.a, self.b),
        }
    }
}

/// Models a *stealing* drain of one phase as a [`ScheduleLog`]: every
/// fine bin is its own actor (actor `bin + 1`; stealing migrates whole
/// bins, so a bin is the unit that can land on any worker), forks all
/// happen on actor 0, and bin actors never synchronize with each other.
/// Within a bin, bodies keep their serial dispatch order (`order`, the
/// mirror-replay permutation); across bins, only the fork → dispatch
/// publication edges order anything — which is exactly the guarantee a
/// work-stealing drain (including `TopologyAware`, which merely *biases*
/// victim choice) actually provides.
pub fn stealing_log(forks: usize, fine: &[usize], order: &[usize]) -> ScheduleLog {
    assert_eq!(fine.len(), forks);
    assert_eq!(order.len(), forks);
    let fine_bins = fine.iter().copied().max().map_or(0, |m| m + 1);
    let mut log = ScheduleLog::new(u32::try_from(fine_bins + 1).expect("bins fit u32"));
    for f in 0..forks {
        log.push(SchedEvent::Fork {
            actor: 0,
            fork: u32::try_from(f).expect("fork fits u32"),
        });
    }
    let mut by_bin: Vec<Vec<u32>> = vec![Vec::new(); fine_bins];
    for &f in order {
        by_bin[fine[f]].push(u32::try_from(f).expect("fork fits u32"));
    }
    for (bin, members) in by_bin.iter().enumerate() {
        let actor = u32::try_from(bin + 1).expect("actor fits u32");
        let unit = u32::try_from(bin).expect("unit fits u32");
        log.push(SchedEvent::DrainBegin { actor, unit });
        for &fork in members {
            log.push(SchedEvent::Dispatch { actor, fork });
        }
        log.push(SchedEvent::DrainEnd { actor, unit });
    }
    log.push(SchedEvent::Barrier);
    log
}

/// schedlint's verdict on one policy over one phase — what both the
/// lint summary and the `ANALYZE_hb.json` certificates sum from.
#[derive(Clone, Debug)]
pub(crate) struct PhaseVerdict {
    /// Fine bin of every fork under the policy.
    pub fine: Vec<usize>,
    /// Drain units of the serial trace.
    pub units: u64,
    /// Schedule events replayed (serial + stealing model).
    pub events: u64,
    /// Conflicting pairs the serial drain runs out of fork order: a
    /// violation where fork order is the workload's contract.
    pub out_of_order: Vec<ConflictPair>,
    /// Conflicting pairs the stealing model leaves unordered — the
    /// pairs a migrating drain may execute in either order, i.e. data
    /// races under that execution model.
    pub unordered: Vec<ConflictPair>,
}

/// Mirror-replays `policy` over `phase` and judges `conflicts` (the
/// phase's conflicting pairs) against two happens-before indices: the
/// serial drain's real event stream (totally ordered — decides the
/// [`ForkOrder`](ObligationKind::ForkOrder) obligations) and the
/// modeled stealing drain (only same-bin order survives — decides the
/// [`ConflictOrder`](ObligationKind::ConflictOrder) ones).
pub(crate) fn phase_verdict(
    config: SchedulerConfig,
    policy: AnyPolicy,
    phase: &PhaseModel,
    conflicts: &[ConflictPair],
) -> PhaseVerdict {
    let trace = dispatch_trace(config, policy, &phase.hints);
    let fine = assign_bins(policy, &phase.hints).fine;
    let serial = HbIndex::from_log(&trace.log);
    let stealing = HbIndex::from_log(&stealing_log(phase.threads(), &fine, &trace.order));
    let failing = |kind: ObligationKind, index: &HbIndex| -> Vec<ConflictPair> {
        let unmet = |pair: &&ConflictPair| {
            let (a, b) = (pair.a, pair.b);
            !OrderObligation { kind, a, b }.satisfied(index)
        };
        conflicts.iter().filter(unmet).copied().collect()
    };
    let out_of_order = failing(ObligationKind::ForkOrder, &serial);
    let unordered = failing(ObligationKind::ConflictOrder, &stealing);
    if cfg!(debug_assertions) {
        let mut position = vec![0usize; trace.order.len()];
        for (pos, &fork) in trace.order.iter().enumerate() {
            position[fork] = pos;
        }
        let flipped = conflicts.iter().filter(|p| position[p.a] > position[p.b]);
        assert!(
            out_of_order.iter().eq(flipped),
            "serial happens-before must agree with the dispatch permutation"
        );
        let cross_bin = conflicts.iter().filter(|p| fine[p.a] != fine[p.b]);
        assert!(
            unordered.iter().eq(cross_bin),
            "stealing-model races must be exactly the cross-bin pairs"
        );
    }
    PhaseVerdict {
        units: serial.units,
        events: serial.events + stealing.events,
        fine,
        out_of_order,
        unordered,
    }
}

/// One steal-safety certificate row of `ANALYZE_hb.json`: a kernel ×
/// policy pair with its obligation counts under both execution models.
/// The check is the one [`analyze`](crate::analyze) sums for the same
/// pair: its `violations` are the serial model's broken
/// [`ForkOrder`](ObligationKind::ForkOrder) obligations (must be 0 —
/// the mirror-replay theorem), its `steal_unsafe` the conflicting
/// pairs the stealing model leaves unordered, and the row certifies
/// the policy safe to drain with stealing workers when those are 0.
#[derive(Clone, Debug)]
pub struct HbRow {
    /// Row label: `<workload>/<policy>`.
    pub workload: String,
    /// Phases analyzed.
    pub phases: u64,
    /// Conflicting pairs found.
    pub conflict_pairs: u64,
    /// The policy's verdicts, summed over phases.
    pub check: PolicyCheck,
}

/// One partition certificate row: a [`cachesim::ShardPlan`] checked
/// against a kernel's real footprints.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Row label: `<workload>/shards<requested>`.
    pub workload: String,
    /// Shards the plan actually produced.
    pub shards: u32,
    /// Events in one round of the modeled hand-off log
    /// ([`ScheduleLog::shard_rounds`]).
    pub hb_events: u64,
    /// Footprint words whose cache line straddles a shard boundary
    /// (must be 0: shards that synchronize only through a coordinator
    /// must never split one line's LRU state between them).
    pub hb_cross_shard_words: u64,
    /// 1 when `hb_cross_shard_words == 0`.
    pub hb_steal_safe: u64,
}

/// The machine-checkable certificate report emitted as
/// `ANALYZE_hb.json`. Every input is deterministic (seeded captures,
/// serial mirror replay, modeled stealing/shard logs), so two runs
/// produce byte-identical JSON.
#[derive(Clone, Debug)]
pub struct HbReport {
    /// Machine label the captures ran against.
    pub machine: String,
    /// Kernel × policy certificate rows.
    pub rows: Vec<HbRow>,
    /// Kernel × shard-count certificate rows.
    pub shard_rows: Vec<ShardRow>,
}

/// Certifies the plan `ShardPlan::for_hierarchy` makes for `requested`
/// shards against `capture`'s real footprints: every footprint word's
/// cache line must map entirely to one shard, i.e. the plan's regions
/// are conflict-free for this kernel.
pub fn shard_certificate(capture: &Capture, requested: u32) -> ShardRow {
    let plan = cachesim::ShardPlan::for_hierarchy(&capture.machine.hierarchy(), requested);
    let line = capture.machine.l2_line();
    let mut cross = 0u64;
    for phase in &capture.phases {
        for fp in &phase.footprints {
            cross += cross_shard_words(fp, &plan, line);
        }
    }
    ShardRow {
        workload: format!("{}/shards{requested}", capture.workload),
        shards: plan.shards(),
        hb_events: ScheduleLog::shard_rounds(plan.shards(), 1).len() as u64,
        hb_cross_shard_words: cross,
        hb_steal_safe: u64::from(cross == 0),
    }
}

/// Counts words of one footprint whose `line`-byte cache line straddles
/// a shard boundary of `plan`.
fn cross_shard_words(fp: &ThreadFootprint, plan: &cachesim::ShardPlan, line: u64) -> u64 {
    let words: BTreeSet<u64> = fp
        .read_words()
        .iter()
        .chain(fp.write_words())
        .copied()
        .collect();
    words
        .into_iter()
        .filter(|&w| {
            let addr = w * WORD_BYTES;
            plan.shard_of(addr) != plan.shard_of(addr & !(line - 1))
        })
        .count() as u64
}

/// Builds the full certificate report over `captures` (typically the
/// four paper kernels): one row per capture × policy (paper,
/// hierarchical and topology when the geometry supports them, single,
/// unique), then one shard row per capture × {2, 4} shards.
pub fn hb_report(machine: &str, captures: &[Capture]) -> HbReport {
    let mut report = HbReport {
        machine: machine.to_string(),
        rows: Vec::new(),
        shard_rows: Vec::new(),
    };
    for capture in captures {
        let conflicts = phase_conflicts(capture);
        let conflict_pairs = conflicts.iter().map(|c| c.len() as u64).sum();
        let policies = [
            ("paper", PolicyKind::Paper.policy(capture)),
            ("hierarchical", PolicyKind::Hierarchical.policy(capture)),
            ("topology", capture.topology.map(AnyPolicy::Ladder)),
            ("single", PolicyKind::Single.policy(capture)),
            ("unique", PolicyKind::Unique.policy(capture)),
        ];
        for (name, policy) in policies {
            let check = check_policy(capture, &conflicts, name, policy);
            if check.checked {
                report.rows.push(HbRow {
                    workload: format!("{}/{name}", capture.workload),
                    phases: capture.phases.len() as u64,
                    conflict_pairs,
                    check,
                });
            }
        }
        for shards in [2, 4] {
            report.shard_rows.push(shard_certificate(capture, shards));
        }
    }
    report
}

impl HbReport {
    /// Serializes the report in the bench JSON idiom (an `experiment`
    /// tag, flat numeric rows keyed by `workload`, an empty `findings`
    /// array). Field order is fixed, every number is an integer, and
    /// the row order is the deterministic build order: the output is
    /// byte-reproducible run-to-run.
    pub fn to_json(&self) -> String {
        probe::json::write(|w| {
            w.object(|w| {
                w.key("experiment").string("schedlint-hb");
                w.key("machine").string(&self.machine);
                w.key("rows").array(|w| {
                    for r in &self.rows {
                        let check = &r.check;
                        w.object(|w| {
                            w.key("workload").string(&r.workload);
                            w.key("policy").string(check.policy);
                            w.key("phases").uint(r.phases);
                            w.key("hb_units").uint(check.hb_units);
                            w.key("hb_events").uint(check.hb_events);
                            w.key("hb_obligations").uint(check.hb_obligations);
                            w.key("hb_conflict_pairs").uint(r.conflict_pairs);
                            w.key("hb_violations").uint(check.violations);
                            w.key("hb_unordered").uint(check.steal_unsafe);
                            w.key("hb_steal_safe")
                                .uint(u64::from(check.steal_unsafe == 0));
                        });
                    }
                    for r in &self.shard_rows {
                        w.object(|w| {
                            w.key("workload").string(&r.workload);
                            w.key("shards").uint(u64::from(r.shards));
                            w.key("hb_events").uint(r.hb_events);
                            w.key("hb_cross_shard_words").uint(r.hb_cross_shard_words);
                            w.key("hb_steal_safe").uint(r.hb_steal_safe);
                        });
                    }
                });
                w.key("findings").array(|_| {});
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_log(forks: usize, order: &[usize]) -> ScheduleLog {
        let mut log = ScheduleLog::new(1);
        for f in 0..forks {
            log.push(SchedEvent::Fork {
                actor: 0,
                fork: f as u32,
            });
        }
        log.push(SchedEvent::DrainBegin { actor: 0, unit: 0 });
        for &f in order {
            log.push(SchedEvent::Dispatch {
                actor: 0,
                fork: f as u32,
            });
        }
        log.push(SchedEvent::DrainEnd { actor: 0, unit: 0 });
        log.push(SchedEvent::Barrier);
        log
    }

    #[test]
    fn serial_log_totally_orders_bodies_by_dispatch_position() {
        let index = HbIndex::from_log(&serial_log(3, &[2, 0, 1]));
        assert!(index.happens_before(2, 0));
        assert!(index.happens_before(0, 1));
        assert!(index.happens_before(2, 1));
        assert!(!index.happens_before(1, 2));
        assert!(index.ordered(0, 2));
        assert_eq!(index.units, 1);
        assert_eq!(index.unit_of(0), Some((0, 0)));
    }

    #[test]
    fn stealing_model_orders_within_bins_only() {
        // Forks 0,2 in bin 0; forks 1,3 in bin 1; serial order 0,2,1,3.
        let log = stealing_log(4, &[0, 1, 0, 1], &[0, 2, 1, 3]);
        let index = HbIndex::from_log(&log);
        assert!(index.happens_before(0, 2), "same bin keeps serial order");
        assert!(index.happens_before(1, 3));
        assert!(!index.ordered(0, 1), "cross-bin bodies race");
        assert!(!index.ordered(2, 3));
        assert_eq!(index.units, 2);
    }

    #[test]
    fn steal_events_add_no_ordering() {
        // Two actors each dispatch one fork; a steal between them must
        // not make the bodies ordered.
        let mut log = ScheduleLog::new(3);
        log.push(SchedEvent::Fork { actor: 0, fork: 0 });
        log.push(SchedEvent::Fork { actor: 0, fork: 1 });
        log.push(SchedEvent::Dispatch { actor: 1, fork: 0 });
        log.push(SchedEvent::Steal {
            thief: 2,
            victim: 1,
            units: 1,
        });
        log.push(SchedEvent::Dispatch { actor: 2, fork: 1 });
        let index = HbIndex::from_log(&log);
        assert!(!index.ordered(0, 1));
    }

    #[test]
    fn handoff_and_barrier_are_synchronizing_edges() {
        let mut log = ScheduleLog::new(2);
        log.push(SchedEvent::Fork { actor: 0, fork: 0 });
        log.push(SchedEvent::Fork { actor: 0, fork: 1 });
        log.push(SchedEvent::Dispatch { actor: 0, fork: 0 });
        log.push(SchedEvent::Handoff { from: 0, to: 1 });
        log.push(SchedEvent::Dispatch { actor: 1, fork: 1 });
        let index = HbIndex::from_log(&log);
        assert!(index.happens_before(0, 1), "handoff carries history");
        assert!(!index.happens_before(1, 0));

        let mut log = ScheduleLog::new(2);
        log.push(SchedEvent::Fork { actor: 0, fork: 0 });
        log.push(SchedEvent::Fork { actor: 0, fork: 1 });
        log.push(SchedEvent::Dispatch { actor: 1, fork: 0 });
        log.push(SchedEvent::Barrier);
        log.push(SchedEvent::Dispatch { actor: 0, fork: 1 });
        let index = HbIndex::from_log(&log);
        assert!(index.happens_before(0, 1), "barrier joins all actors");
    }

    #[test]
    fn obligation_kinds_check_the_right_directions() {
        let index = HbIndex::from_log(&serial_log(2, &[1, 0]));
        let fork_order = OrderObligation {
            kind: ObligationKind::ForkOrder,
            a: 0,
            b: 1,
        };
        assert!(!fork_order.satisfied(&index), "fork order was flipped");
        let conflict = OrderObligation {
            kind: ObligationKind::ConflictOrder,
            a: 0,
            b: 1,
        };
        assert!(conflict.satisfied(&index), "still ordered, just reversed");
    }
}
