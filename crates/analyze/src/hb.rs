//! Happens-before verdicts of a policy's schedule, and the
//! `ANALYZE_hb.json` certificates built from them.
//!
//! The paper lets the scheduler reorder a phase's threads freely, and
//! within a bin the order "can be arbitrary" (§2.3). Two execution
//! models decide which conflicting pairs that freedom can hurt, and in
//! each the happens-before relation is a plain function of the mirror
//! replay:
//!
//! * The *serial* drain runs every body on one actor in dispatch order,
//!   so `a ⇒ b` iff `a` is dispatched before `b`. A conflicting pair
//!   whose later fork is dispatched first breaks fork order.
//! * A *stealing* drain (`ParScheduler` under any steal rule, which
//!   only biases victim choice) moves tour positions, i.e. fine bins,
//!   between workers. Bodies of one bin still run in dispatch order on
//!   one worker; bodies of two bins are ordered by nothing but their
//!   fork → dispatch publication edges, which order no body against
//!   another. So a conflicting pair is unordered iff its threads sit in
//!   different fine bins.

use crate::analysis::{check_policy, phase_conflicts, PolicyCheck};
use crate::capture::Capture;
use crate::conflict::ConflictPair;
use crate::policies::{assign_bins, dispatch_trace, PolicyKind};
use locality_sched::{AnyPolicy, Hints, SchedulerConfig};

/// schedlint's verdict on one policy over one phase — what both the
/// lint summary and the `ANALYZE_hb.json` certificates sum from.
#[derive(Clone, Debug)]
pub(crate) struct PhaseVerdict {
    /// Fine bin of every fork under the policy.
    pub fine: Vec<usize>,
    /// Drain units of the serial trace.
    pub units: u64,
    /// Conflicting pairs the serial drain runs out of fork order: a
    /// violation where fork order is the workload's contract.
    pub out_of_order: Vec<ConflictPair>,
    /// Conflicting pairs in different fine bins — the pairs a stealing
    /// drain may execute in either order, i.e. data races under that
    /// execution model.
    pub unordered: Vec<ConflictPair>,
}

/// Mirror-replays `policy` over one phase's fork-ordered `hints` and
/// judges `conflicts` (the phase's conflicting pairs) under the serial
/// and the stealing model (see the module docs).
pub(crate) fn phase_verdict(
    config: SchedulerConfig,
    policy: AnyPolicy,
    hints: &[Hints],
    conflicts: &[ConflictPair],
) -> PhaseVerdict {
    let trace = dispatch_trace(config, policy, hints);
    let fine = assign_bins(policy, hints).fine;
    let mut position = vec![0usize; trace.order.len()];
    for (pos, &fork) in trace.order.iter().enumerate() {
        position[fork] = pos;
    }
    let out_of_order = conflicts
        .iter()
        .filter(|p| position[p.a] > position[p.b])
        .copied()
        .collect();
    let unordered = conflicts
        .iter()
        .filter(|p| fine[p.a] != fine[p.b])
        .copied()
        .collect();
    PhaseVerdict {
        units: trace.units,
        fine,
        out_of_order,
        unordered,
    }
}

/// One steal-safety certificate row of `ANALYZE_hb.json`: a kernel ×
/// policy pair with its verdict counts under both execution models.
/// The check is the one [`analyze`](crate::analyze) sums for the same
/// pair: its `violations` are the conflicting pairs the serial drain
/// runs out of fork order (must be 0 — the mirror-replay theorem), its
/// `steal_unsafe` the cross-bin conflicting pairs, and the row
/// certifies the policy safe to drain with stealing workers when those
/// are 0.
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

/// The machine-checkable certificate report emitted as
/// `ANALYZE_hb.json`. Every input is deterministic (seeded captures,
/// serial mirror replay), so two runs produce byte-identical JSON.
#[derive(Clone, Debug)]
pub struct HbReport {
    /// Machine label the captures ran against.
    pub machine: String,
    /// Kernel × policy certificate rows.
    pub rows: Vec<HbRow>,
}

/// Builds the full certificate report over `captures` (typically the
/// four paper kernels): one row per capture × policy (paper,
/// hierarchical and topology when the geometry supports them, single,
/// unique).
pub fn hb_report(machine: &str, captures: &[Capture]) -> HbReport {
    let mut report = HbReport {
        machine: machine.to_string(),
        rows: Vec::new(),
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
                            w.key("hb_obligations").uint(check.hb_obligations);
                            w.key("hb_conflict_pairs").uint(r.conflict_pairs);
                            w.key("hb_violations").uint(check.violations);
                            w.key("hb_unordered").uint(check.steal_unsafe);
                            w.key("hb_steal_safe")
                                .uint(u64::from(check.steal_unsafe == 0));
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
    use locality_sched::PaperBlockHash;
    use memtrace::Addr;

    fn pair(a: usize, b: usize) -> ConflictPair {
        ConflictPair {
            a,
            b,
            words: 1,
            lines: 1,
            example_word: 0,
        }
    }

    /// The paper policy at 1 KiB blocks over `addrs`, one hint a fork,
    /// judged against `conflicts`.
    fn paper_verdict(addrs: &[u64], conflicts: &[ConflictPair]) -> PhaseVerdict {
        let config = SchedulerConfig::builder().block_size(1024).build().unwrap();
        let policy = AnyPolicy::Ladder(PaperBlockHash::from_config(&config).into());
        let hints: Vec<Hints> = addrs.iter().map(|&a| Hints::one(Addr::new(a))).collect();
        phase_verdict(config, policy, &hints, conflicts)
    }

    #[test]
    fn serial_log_totally_orders_bodies_by_dispatch_position() {
        // Forks 0 and 2 share a 1 KiB block, fork 1 sits alone: the
        // serial drain dispatches 0, 2, then 1. Every pair conflicts;
        // only (1, 2) runs with its later fork dispatched first.
        let verdict = paper_verdict(
            &[0x10, 0x100_000, 0x20],
            &[pair(0, 1), pair(0, 2), pair(1, 2)],
        );
        assert_eq!(verdict.fine, vec![0, 1, 0]);
        assert_eq!(verdict.units, 2, "two bins, two drain units");
        assert_eq!(verdict.out_of_order, vec![pair(1, 2)]);
    }

    #[test]
    fn stealing_model_orders_within_bins_only() {
        // Forks 0,2 in bin 0; forks 1,3 in bin 1; serial order 0,2,1,3.
        let all: Vec<ConflictPair> = (0..4)
            .flat_map(|a| (a + 1..4).map(move |b| pair(a, b)))
            .collect();
        let verdict = paper_verdict(&[0x10, 0x100_000, 0x20, 0x100_010], &all);
        assert_eq!(verdict.fine, vec![0, 1, 0, 1]);
        assert_eq!(verdict.units, 2);
        assert_eq!(
            verdict.unordered,
            vec![pair(0, 1), pair(0, 3), pair(1, 2), pair(2, 3)],
            "cross-bin bodies race; same-bin pairs keep serial order"
        );
        assert_eq!(verdict.out_of_order, vec![pair(1, 2)]);
    }

    #[test]
    fn obligation_kinds_check_the_right_directions() {
        // Serial order 0, 2, 1. The fork-order verdict is directed: it
        // flags (1, 2), whose later fork ran first, and not the same
        // pair named as (2, 1). The stealing verdict is symmetric: a
        // cross-bin pair races whichever way it is named, and (0, 1)
        // races although it runs in fork order.
        let verdict = paper_verdict(
            &[0x10, 0x100_000, 0x20],
            &[pair(0, 1), pair(1, 2), pair(2, 1)],
        );
        assert_eq!(
            verdict.out_of_order,
            vec![pair(1, 2)],
            "fork order was flipped"
        );
        assert_eq!(verdict.unordered, vec![pair(0, 1), pair(1, 2), pair(2, 1)]);
    }
}
