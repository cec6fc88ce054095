//! The four analyses, run over one [`Capture`].

use crate::capture::{Capture, DrainConcurrency, PhaseModel};
use crate::conflict::{conflict_pairs, ConflictPair};
use crate::hb::phase_verdict;
use crate::policies::{assign_bins, BinAssignment, PolicyKind};
use crate::{Finding, Severity};
use locality_sched::{AnyPolicy, BinPolicy, PaperBlockHash};
use memtrace::{ThreadFootprint, WORD_BYTES};
use std::collections::{BTreeMap, BTreeSet};
use workloads::{HintKind, OrderSemantics};

/// Tunable thresholds.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOptions {
    /// Minimum acceptable hint coverage, percent of footprint lines
    /// inside the hinted blocks. Threads below it are errors. The
    /// default sits under the worst legitimate kernel value (a PDE
    /// thread whose stencil straddles a block boundary covers ~22%)
    /// and far above a genuinely wrong hint (0%).
    pub hint_threshold_pct: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            hint_threshold_pct: 20.0,
        }
    }
}

/// Order-safety result for one policy family, summed over a capture's
/// phases — a row of the lint summary and of the `ANALYZE_hb.json`
/// certificates alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyCheck {
    /// Policy label.
    pub policy: &'static str,
    /// `false` when the policy could not be built for this capture
    /// (e.g. degenerate hierarchical geometry) and was skipped.
    pub checked: bool,
    /// Conflicting pairs the policy's serial drain reorders in an
    /// order-exact workload (must be 0 for every shipped policy).
    pub violations: u64,
    /// Conflicting pairs reordered in a convergence-equivalent
    /// workload (allowed; informational).
    pub reordered: u64,
    /// Conflicting pairs split across bins — unordered by
    /// happens-before in the stealing execution model: their order is
    /// guaranteed only by the serial tour, not by bin containment, so
    /// a multi-worker or stealing drain may flip them.
    pub steal_unsafe: u64,
    /// Order obligations checked: one per conflicting pair in the
    /// stealing model (must be ordered some way), plus one per
    /// conflicting pair of an order-exact workload in the serial model
    /// (must keep fork order).
    pub hb_obligations: u64,
    /// Drain units of the policy's serial traces.
    pub hb_units: u64,
    /// The first reordered conflicting pair of an order-exact
    /// workload, described.
    pub(crate) order_example: Option<String>,
    /// The first conflicting pair the stealing model leaves unordered,
    /// described.
    pub(crate) race_example: Option<String>,
}

/// The conflicting pairs of each of `capture`'s phases.
pub(crate) fn phase_conflicts(capture: &Capture) -> Vec<Vec<ConflictPair>> {
    capture
        .phases
        .iter()
        .map(|phase| conflict_pairs(&phase.footprints))
        .collect()
}

/// Sums `policy`'s [`phase_verdict`]s over `capture`; `conflicts[i]`
/// holds the conflicting pairs of phase `i`. A `None` policy (no
/// geometry for the family) yields an unchecked, all-zero check.
pub(crate) fn check_policy(
    capture: &Capture,
    conflicts: &[Vec<ConflictPair>],
    name: &'static str,
    policy: Option<AnyPolicy>,
) -> PolicyCheck {
    let mut check = PolicyCheck {
        policy: name,
        checked: policy.is_some(),
        ..PolicyCheck::default()
    };
    let Some(policy) = policy else {
        return check;
    };
    let exact = capture.semantics == OrderSemantics::Exact;
    for (phase_ix, (phase, conflicts)) in capture.phases.iter().zip(conflicts).enumerate() {
        let verdict = phase_verdict(capture.config, policy, &phase.hints, conflicts);
        check.hb_units += verdict.units;
        // One conflict-order obligation a pair, and a fork-order one
        // where fork order is the contract.
        check.hb_obligations += conflicts.len() as u64 * (1 + u64::from(exact));
        if exact {
            check.violations += verdict.out_of_order.len() as u64;
            if let Some(pair) = verdict.out_of_order.first() {
                check.order_example.get_or_insert_with(|| {
                    format!(
                        "phase {phase_ix}: thread {} runs before conflicting \
                         earlier thread {} (word {:#x})",
                        pair.b,
                        pair.a,
                        pair.example_word * WORD_BYTES
                    )
                });
            }
        } else {
            check.reordered += verdict.out_of_order.len() as u64;
        }
        check.steal_unsafe += verdict.unordered.len() as u64;
        if let Some(pair) = verdict.unordered.first() {
            check.race_example.get_or_insert_with(|| {
                format!(
                    "phase {phase_ix}: threads {} and {} (bins {} and {}) \
                     share word {:#x} with no happens-before edge",
                    pair.a,
                    pair.b,
                    verdict.fine[pair.a],
                    verdict.fine[pair.b],
                    pair.example_word * WORD_BYTES
                )
            });
        }
    }
    check
}

/// Everything `schedlint` reports for one workload.
#[derive(Clone, Debug)]
pub struct KernelSummary {
    /// Workload label.
    pub workload: String,
    /// Threads analyzed (all phases).
    pub threads: u64,
    /// Phases (scheduler runs) analyzed.
    pub phases: u64,
    /// Bins under the capture's flat paper policy, summed over phases.
    pub bins: u64,
    /// Conflicting thread pairs across all phases.
    pub conflict_pairs: u64,
    /// Worst per-policy violation count (0 = every policy safe).
    pub violations: u64,
    /// Worst per-policy reorder count in convergent workloads.
    pub reordered_convergent: u64,
    /// Cross-bin conflicting pairs under the paper policy.
    pub steal_unsafe_pairs: u64,
    /// Minimum per-thread hint coverage, percent (`None` for spatial
    /// hints or when no thread had both hints and a footprint).
    pub hint_coverage_min_pct: Option<f64>,
    /// Mean per-thread hint coverage, percent.
    pub hint_coverage_mean_pct: Option<f64>,
    /// Flat bins whose aggregate footprint exceeds the L2 capacity.
    pub overflow_bins: u64,
    /// Hierarchical sub-bins whose footprint exceeds the L1 capacity.
    pub overflow_subbins: u64,
    /// Cache lines falsely shared across bins (distinct words, same
    /// line, ≥ 1 writer, different bins).
    pub false_sharing_lines: u64,
    /// Conflicting pairs whose bins live under different subtrees of
    /// the coarsest topology level (0 unless the capture carries a
    /// depth-≥ 3 topology).
    pub cross_node_pairs: u64,
    /// Drain units of the capture policy's serial trace.
    pub hb_units: u64,
    /// Order obligations checked across all policies.
    pub hb_obligations: u64,
    /// Data races: conflicting pairs unordered by happens-before under
    /// the capture's *declared* drain concurrency (always 0 for
    /// [`Serial`](DrainConcurrency::Serial) captures — the total
    /// dispatch order covers every pair).
    pub hb_races: u64,
    /// Per-policy order-safety results.
    pub checks: Vec<PolicyCheck>,
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
}

impl KernelSummary {
    /// Error-severity findings.
    pub fn errors(&self) -> u64 {
        self.count(Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> u64 {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> u64 {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count() as u64
    }
}

/// Runs all four analyses over a capture.
pub fn analyze(capture: &Capture, opts: &AnalyzeOptions) -> KernelSummary {
    let exact = capture.semantics == OrderSemantics::Exact;
    let conflicts = phase_conflicts(capture);
    let checks: Vec<PolicyCheck> = PolicyKind::ALL
        .iter()
        .map(|kind| check_policy(capture, &conflicts, kind.name(), kind.policy(capture)))
        .collect();
    // `PolicyKind::ALL` leads with the paper policy.
    let paper = &checks[0];
    let mut findings = Vec::new();
    let mut threads = 0u64;
    let mut bins = 0u64;
    let mut coverage = CoverageStats::default();
    let mut overflow = OverflowStats::default();
    let mut false_sharing = FalseSharingStats::default();
    let mut cross_node = CrossNodeStats::default();

    for (phase_ix, (phase, conflicts)) in capture.phases.iter().zip(&conflicts).enumerate() {
        threads += phase.threads() as u64;
        let paper_bins = assign_bins(PaperBlockHash::from_config(&capture.config), &phase.hints);
        bins += paper_bins.fine_bins as u64;
        if capture.hint_kind == HintKind::Address {
            coverage.accumulate(capture, phase_ix, phase, opts);
        }
        overflow.accumulate(capture, phase_ix, phase, &paper_bins);
        false_sharing.accumulate(capture, phase_ix, phase, &paper_bins);
        cross_node.accumulate(capture, phase_ix, phase, conflicts);
    }

    // Findings: conflict-order errors per policy, then the rest.
    for check in &checks {
        if let Some(example) = &check.order_example {
            findings.push(Finding {
                severity: Severity::Error,
                analysis: "conflict-order",
                workload: capture.workload.clone(),
                detail: format!(
                    "policy `{}` reorders {} conflicting pair(s) in an order-exact \
                     workload; e.g. {example}",
                    check.policy, check.violations
                ),
            });
        }
    }
    let reordered_max = checks.iter().map(|c| c.reordered).max().unwrap_or(0);
    if reordered_max > 0 {
        findings.push(Finding {
            severity: Severity::Info,
            analysis: "conflict-order",
            workload: capture.workload.clone(),
            detail: format!(
                "convergence-equivalent workload: policies reorder up to {reordered_max} \
                 conflicting pair(s) per schedule (allowed; the paper's own observation \
                 about threaded SOR)"
            ),
        });
    }
    let paper_steal = paper.steal_unsafe;
    let breakdown = || -> String {
        let parts: Vec<String> = checks
            .iter()
            .filter(|c| c.checked && c.steal_unsafe > 0)
            .map(|c| format!("{}: {}", c.policy, c.steal_unsafe))
            .collect();
        parts.join(", ")
    };
    // The happens-before race lint: under a declared stealing drain,
    // an unordered conflicting pair is not a "may flip" warning but a
    // W/W or R/W data race — an error, regardless of order semantics.
    let hb_races = match capture.concurrency {
        DrainConcurrency::Serial => 0,
        DrainConcurrency::Stealing => paper_steal,
    };
    if hb_races > 0 {
        findings.push(Finding {
            severity: Severity::Error,
            analysis: "hb-race",
            workload: capture.workload.clone(),
            detail: format!(
                "{} conflicting pair(s) unordered by happens-before under the declared \
                 stealing drain ({}); e.g. {}",
                hb_races,
                breakdown(),
                paper.race_example.as_deref().unwrap_or("(no example)")
            ),
        });
    }
    if exact && paper_steal > 0 && capture.concurrency == DrainConcurrency::Serial {
        findings.push(Finding {
            severity: Severity::Warning,
            analysis: "steal-safety",
            workload: capture.workload.clone(),
            detail: format!(
                "conflicting pairs cross bin boundaries ({}); their order is preserved \
                 by the serial allocation-order tour but not by bin containment, so a \
                 multi-worker or stealing drain may flip them",
                breakdown()
            ),
        });
    }
    coverage.report(capture, opts, &mut findings);
    overflow.report(capture, &mut findings);
    false_sharing.report(capture, &mut findings);
    cross_node.report(capture, &mut findings);
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));

    KernelSummary {
        workload: capture.workload.clone(),
        threads,
        phases: capture.phases.len() as u64,
        bins,
        conflict_pairs: conflicts.iter().map(|c| c.len() as u64).sum(),
        violations: checks.iter().map(|c| c.violations).max().unwrap_or(0),
        reordered_convergent: reordered_max,
        steal_unsafe_pairs: paper_steal,
        hint_coverage_min_pct: coverage.min_pct(),
        hint_coverage_mean_pct: coverage.mean_pct(),
        overflow_bins: overflow.flat,
        overflow_subbins: overflow.sub,
        false_sharing_lines: false_sharing.lines,
        cross_node_pairs: cross_node.pairs,
        hb_units: paper.hb_units,
        hb_obligations: checks.iter().map(|c| c.hb_obligations).sum(),
        hb_races,
        checks,
        findings,
    }
}

/// Hint-accuracy accumulator (address-hint workloads only).
#[derive(Default)]
struct CoverageStats {
    sum_pct: f64,
    measured: u64,
    min_pct: Option<f64>,
    /// (phase, fork index, pct) of sub-threshold threads.
    offenders: Vec<(usize, usize, f64)>,
}

impl CoverageStats {
    fn accumulate(
        &mut self,
        capture: &Capture,
        phase_ix: usize,
        phase: &PhaseModel,
        opts: &AnalyzeOptions,
    ) {
        let line = capture.machine.l2_line();
        for (fork, (hints, fp)) in phase.hints.iter().zip(&phase.footprints).enumerate() {
            if fp.is_empty() || hints.dims() == 0 {
                continue;
            }
            let mut region_lines: BTreeSet<u64> = BTreeSet::new();
            for dim in 0..hints.dims() {
                let hint = hints.get(dim);
                if hint.is_null() {
                    continue;
                }
                let block = capture.config.block_size(dim);
                let start = hint.raw() & !(block - 1);
                region_lines.extend(start / line..(start + block) / line);
            }
            let footprint_lines = fp.lines(line);
            let covered = footprint_lines
                .iter()
                .filter(|l| region_lines.contains(l))
                .count();
            let pct = 100.0 * covered as f64 / footprint_lines.len() as f64;
            self.sum_pct += pct;
            self.measured += 1;
            self.min_pct = Some(self.min_pct.map_or(pct, |m: f64| m.min(pct)));
            if pct < opts.hint_threshold_pct {
                self.offenders.push((phase_ix, fork, pct));
            }
        }
    }

    fn min_pct(&self) -> Option<f64> {
        self.min_pct
    }

    fn mean_pct(&self) -> Option<f64> {
        (self.measured > 0).then(|| self.sum_pct / self.measured as f64)
    }

    fn report(&self, capture: &Capture, opts: &AnalyzeOptions, findings: &mut Vec<Finding>) {
        if capture.hint_kind == HintKind::Spatial {
            findings.push(Finding {
                severity: Severity::Info,
                analysis: "hint-accuracy",
                workload: capture.workload.clone(),
                detail: "hints are spatial coordinates, not data addresses; coverage \
                         lint skipped (paper §4.4)"
                    .to_string(),
            });
            return;
        }
        if self.offenders.is_empty() {
            return;
        }
        let examples: Vec<String> = self
            .offenders
            .iter()
            .take(5)
            .map(|(p, t, pct)| format!("phase {p} thread {t}: {pct:.1}%"))
            .collect();
        findings.push(Finding {
            severity: Severity::Error,
            analysis: "hint-accuracy",
            workload: capture.workload.clone(),
            detail: format!(
                "{} thread(s) whose hint blocks cover < {:.0}% of their footprint \
                 ({}): hints are stale or wrong",
                self.offenders.len(),
                opts.hint_threshold_pct,
                examples.join(", ")
            ),
        });
    }
}

/// Bin-overflow accumulator.
#[derive(Default)]
struct OverflowStats {
    flat: u64,
    sub: u64,
    worst_flat: Option<(usize, usize, u64)>,
    worst_sub: Option<(usize, usize, u64)>,
}

impl OverflowStats {
    fn accumulate(
        &mut self,
        capture: &Capture,
        phase_ix: usize,
        phase: &PhaseModel,
        paper_bins: &BinAssignment,
    ) {
        let machine = &capture.machine;
        // Flat bins against the L2 budget.
        for (bin, bytes) in
            bin_footprint_bytes(&phase.footprints, &paper_bins.fine, machine.l2_line())
        {
            if bytes > machine.l2_capacity() {
                self.flat += 1;
                if self.worst_flat.is_none_or(|(_, _, b)| bytes > b) {
                    self.worst_flat = Some((phase_ix, bin, bytes));
                }
            }
        }
        // Hierarchical sub-bins against the L1 budget.
        if let Some(policy) = capture.hierarchical {
            let assignment = assign_bins(policy, &phase.hints);
            for (bin, bytes) in
                bin_footprint_bytes(&phase.footprints, &assignment.fine, machine.l1_line())
            {
                if bytes > machine.l1_capacity() {
                    self.sub += 1;
                    if self.worst_sub.is_none_or(|(_, _, b)| bytes > b) {
                        self.worst_sub = Some((phase_ix, bin, bytes));
                    }
                }
            }
        }
    }

    fn report(&self, capture: &Capture, findings: &mut Vec<Finding>) {
        let machine = &capture.machine;
        if let Some((phase, bin, bytes)) = self.worst_flat {
            findings.push(Finding {
                severity: Severity::Warning,
                analysis: "bin-overflow",
                workload: capture.workload.clone(),
                detail: format!(
                    "{} bin(s) exceed the {} B L2 budget (worst: phase {phase} bin \
                     {bin} holds {bytes} B): these bins cannot deliver the reuse the \
                     policy promises",
                    self.flat,
                    machine.l2_capacity()
                ),
            });
        }
        if let Some((phase, bin, bytes)) = self.worst_sub {
            findings.push(Finding {
                severity: Severity::Warning,
                analysis: "bin-overflow",
                workload: capture.workload.clone(),
                detail: format!(
                    "{} hierarchical sub-bin(s) exceed the {} B L1 budget (worst: \
                     phase {phase} sub-bin {bin} holds {bytes} B)",
                    self.sub,
                    machine.l1_capacity()
                ),
            });
        }
    }
}

/// Aggregate footprint of every bin, in bytes of distinct
/// `line_size`-byte lines. Returns `(bin id, bytes)` in bin order.
fn bin_footprint_bytes(
    footprints: &[ThreadFootprint],
    bin_of: &[usize],
    line_size: u64,
) -> Vec<(usize, u64)> {
    let mut lines: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    for (fp, &bin) in footprints.iter().zip(bin_of) {
        lines.entry(bin).or_default().extend(fp.lines(line_size));
    }
    lines
        .into_iter()
        .map(|(bin, set)| (bin, set.len() as u64 * line_size))
        .collect()
}

/// False-sharing accumulator.
#[derive(Default)]
struct FalseSharingStats {
    lines: u64,
    examples: Vec<String>,
}

impl FalseSharingStats {
    fn accumulate(
        &mut self,
        capture: &Capture,
        phase_ix: usize,
        phase: &PhaseModel,
        paper_bins: &BinAssignment,
    ) {
        let line_size = capture.machine.l2_line();
        // line → per-thread (words on the line, wrote the line?).
        #[allow(clippy::type_complexity)]
        let mut members: BTreeMap<u64, Vec<(usize, BTreeSet<u64>, bool)>> = BTreeMap::new();
        for (thread, fp) in phase.footprints.iter().enumerate() {
            let mut on_line: BTreeMap<u64, (BTreeSet<u64>, bool)> = BTreeMap::new();
            for &w in fp.read_words() {
                on_line
                    .entry(w * WORD_BYTES / line_size)
                    .or_default()
                    .0
                    .insert(w);
            }
            for &w in fp.write_words() {
                let entry = on_line.entry(w * WORD_BYTES / line_size).or_default();
                entry.0.insert(w);
                entry.1 = true;
            }
            for (line, (words, wrote)) in on_line {
                members
                    .entry(line)
                    .or_default()
                    .push((thread, words, wrote));
            }
        }
        for (line, threads) in members {
            if threads.len() < 2 || !threads.iter().any(|(_, _, wrote)| *wrote) {
                continue;
            }
            let mut shared = false;
            'pairs: for (i, (ta, wa, wrote_a)) in threads.iter().enumerate() {
                for (tb, wb, wrote_b) in &threads[i + 1..] {
                    if paper_bins.fine[*ta] == paper_bins.fine[*tb] {
                        continue;
                    }
                    if !(*wrote_a || *wrote_b) {
                        continue;
                    }
                    if wa.is_disjoint(wb) {
                        shared = true;
                        if self.examples.len() < 3 {
                            self.examples.push(format!(
                                "phase {phase_ix} line {:#x}: threads {ta} and {tb} \
                                 (bins {} and {}) touch distinct words",
                                line * line_size,
                                paper_bins.fine[*ta],
                                paper_bins.fine[*tb]
                            ));
                        }
                        break 'pairs;
                    }
                }
            }
            if shared {
                self.lines += 1;
            }
        }
    }

    fn report(&self, capture: &Capture, findings: &mut Vec<Finding>) {
        if self.lines == 0 {
            return;
        }
        findings.push(Finding {
            severity: Severity::Warning,
            analysis: "false-sharing",
            workload: capture.workload.clone(),
            detail: format!(
                "{} cache line(s) falsely shared across bins ({}); threads in \
                 different bins write/read distinct words of the same line",
                self.lines,
                self.examples.join("; ")
            ),
        });
    }
}

/// Cross-node sharing accumulator: conflicting pairs whose hint bins
/// sit under different subtrees of the coarsest topology level. Only
/// engages at depth ≥ 3 — with two levels the coarsest rung is the L2
/// itself, and bin containment (steal-safety) already covers that.
#[derive(Default)]
struct CrossNodeStats {
    pairs: u64,
    examples: Vec<String>,
}

impl CrossNodeStats {
    fn accumulate(
        &mut self,
        capture: &Capture,
        phase_ix: usize,
        phase: &PhaseModel,
        conflicts: &[ConflictPair],
    ) {
        let Some(mut policy) = capture.topology else {
            return;
        };
        let depth = policy.depth();
        if depth < 3 {
            return;
        }
        for pair in conflicts {
            let key_a = policy.bin_key(phase.hints[pair.a]);
            let key_b = policy.bin_key(phase.hints[pair.b]);
            if policy.ancestor_key(key_a, depth - 1) != policy.ancestor_key(key_b, depth - 1) {
                self.pairs += 1;
                if self.examples.len() < 3 {
                    self.examples.push(format!(
                        "phase {phase_ix}: threads {} and {} share word {:#x} across \
                         node subtrees",
                        pair.a,
                        pair.b,
                        pair.example_word * WORD_BYTES
                    ));
                }
            }
        }
    }

    fn report(&self, capture: &Capture, findings: &mut Vec<Finding>) {
        if self.pairs == 0 {
            return;
        }
        findings.push(Finding {
            severity: Severity::Warning,
            analysis: "cross-node-sharing",
            workload: capture.workload.clone(),
            detail: format!(
                "{} conflicting pair(s) span different node subtrees ({}); the shared \
                 words ping-pong across the machine's coarsest level no matter how \
                 bins are drained",
                self.pairs,
                self.examples.join("; ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_kernel, default_machine, AnalyzeScale};
    use workloads::Kernel;

    #[test]
    #[cfg_attr(miri, ignore)] // kernel capture / simulator replay: too slow under miri
    fn every_policy_is_order_safe_on_the_pde() {
        let capture = capture_kernel(Kernel::Pde, &default_machine(), &AnalyzeScale::default());
        let summary = analyze(&capture, &AnalyzeOptions::default());
        assert!(summary.conflict_pairs > 0, "PDE neighbours must conflict");
        assert_eq!(summary.violations, 0);
        for check in &summary.checks {
            assert!(check.checked, "{} skipped", check.policy);
            assert_eq!(check.violations, 0, "{} reorders the PDE", check.policy);
        }
    }

    #[test]
    fn a_reordered_conflict_of_an_order_exact_workload_is_an_error() {
        // The unordered-race fixture's two threads write one word from
        // two bins. A third fork back in the first bin, with the second
        // thread's footprint, conflicts with that earlier thread but
        // drains before it under both block policies.
        let mut capture = crate::Fixture::UnorderedRace.capture();
        capture.semantics = OrderSemantics::Exact;
        capture.concurrency = DrainConcurrency::Serial;
        let phase = &mut capture.phases[0];
        phase.hints.push(phase.hints[0]);
        phase.footprints.push(phase.footprints[1].clone());
        let summary = analyze(&capture, &AnalyzeOptions::default());
        let flagged: Vec<(&str, u64)> = summary
            .checks
            .iter()
            .map(|c| (c.policy, c.violations))
            .collect();
        let expected = [
            ("paper", 1),
            ("hierarchical", 1),
            ("single", 0),
            ("unique", 0),
        ];
        assert_eq!(flagged, expected);
        let errors: Vec<&str> = summary
            .findings
            .iter()
            .filter(|f| f.analysis == "conflict-order")
            .map(|f| f.detail.as_str())
            .collect();
        assert_eq!(errors.len(), 2, "{errors:?}");
        for (detail, policy) in errors.iter().zip(["paper", "hierarchical"]) {
            let example = "phase 0: thread 2 runs before conflicting earlier thread 1";
            assert!(detail.starts_with(&format!("policy `{policy}` reorders 1 ")));
            assert!(detail.contains(example), "{detail}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // kernel capture / simulator replay: too slow under miri
    fn matmul_threads_are_conflict_free() {
        let capture = capture_kernel(Kernel::MatMul, &default_machine(), &AnalyzeScale::default());
        let summary = analyze(&capture, &AnalyzeOptions::default());
        assert_eq!(summary.conflict_pairs, 0);
        assert_eq!(summary.violations, 0);
        assert_eq!(summary.errors(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // kernel capture / simulator replay: too slow under miri
    fn sor_reorders_are_informational_not_errors() {
        let capture = capture_kernel(Kernel::Sor, &default_machine(), &AnalyzeScale::default());
        let summary = analyze(&capture, &AnalyzeOptions::default());
        assert!(summary.conflict_pairs > 0, "sweeps must conflict");
        assert_eq!(
            summary.violations, 0,
            "convergent reorders are not violations"
        );
        assert_eq!(summary.errors(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // kernel capture / simulator replay: too slow under miri
    fn nbody_skips_hint_accuracy_and_is_conflict_free() {
        let capture = capture_kernel(Kernel::NBody, &default_machine(), &AnalyzeScale::default());
        let summary = analyze(&capture, &AnalyzeOptions::default());
        assert_eq!(summary.conflict_pairs, 0);
        assert_eq!(summary.hint_coverage_min_pct, None);
        assert_eq!(summary.errors(), 0);
    }
}
