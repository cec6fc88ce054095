//! Report assembly: JSON (benchdiff-consumable) and terminal text.

use crate::analysis::KernelSummary;
use probe::json;
use std::fmt::Write as _;

/// The full `schedlint` report: one [`KernelSummary`] per analyzed
/// workload plus the knobs the run used.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// Machine label the analyses ran against.
    pub machine: String,
    /// Hint-coverage threshold in effect.
    pub hint_threshold_pct: f64,
    /// Analyzed workloads, in run order.
    pub kernels: Vec<KernelSummary>,
}

impl AnalyzeReport {
    /// Creates an empty report.
    pub fn new(machine: &str, hint_threshold_pct: f64) -> Self {
        AnalyzeReport {
            machine: machine.to_string(),
            hint_threshold_pct,
            kernels: Vec::new(),
        }
    }

    /// Total error findings.
    pub fn errors(&self) -> u64 {
        self.kernels.iter().map(KernelSummary::errors).sum()
    }

    /// Total warning findings.
    pub fn warnings(&self) -> u64 {
        self.kernels.iter().map(KernelSummary::warnings).sum()
    }

    /// Gate verdict: errors always fail; warnings fail only when
    /// promoted by `--gate-warnings`.
    pub fn gate_failed(&self, gate_warnings: bool) -> bool {
        self.errors() > 0 || (gate_warnings && self.warnings() > 0)
    }

    /// Serializes the report in the bench JSON idiom: an `experiment`
    /// tag, one flat numeric row per workload (labeled by `workload`,
    /// so `benchdiff` diffs it as `rows[matmul].conflict_pairs`), and a
    /// string-only `findings` array `benchdiff` skips.
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.object(|w| {
                w.key("experiment").string("schedlint");
                w.key("machine").string(&self.machine);
                w.key("hint_threshold_pct")
                    .float(self.hint_threshold_pct, 1);
                w.key("rows").array(|w| {
                    for k in &self.kernels {
                        w.object(|w| kernel_row(k, w));
                    }
                });
                w.key("findings").array(|w| {
                    for f in self.kernels.iter().flat_map(|k| &k.findings) {
                        w.object(|w| {
                            w.key("severity").string(f.severity.label());
                            w.key("analysis").string(f.analysis);
                            w.key("workload").string(&f.workload);
                            w.key("detail").string(&f.detail);
                        });
                    }
                });
            });
        })
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "schedlint: {} (hint threshold {:.0}%)\n",
            self.machine, self.hint_threshold_pct
        );
        for k in &self.kernels {
            let coverage = match (k.hint_coverage_min_pct, k.hint_coverage_mean_pct) {
                (Some(min), Some(mean)) => {
                    format!(", hint coverage min {min:.1}% mean {mean:.1}%")
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  {}: {} thread(s) / {} phase(s) / {} bin(s), {} conflict pair(s), \
                 {} violation(s), {} hb obligation(s) / {} race(s){coverage}",
                k.workload,
                k.threads,
                k.phases,
                k.bins,
                k.conflict_pairs,
                k.violations,
                k.hb_obligations,
                k.hb_races
            );
            for check in &k.checks {
                let verdict = if !check.checked {
                    "skipped (no geometry)".to_string()
                } else if check.violations > 0 {
                    format!("{} VIOLATION(S)", check.violations)
                } else if check.reordered > 0 {
                    format!("order-safe ({} convergent reorder(s))", check.reordered)
                } else {
                    "order-safe".to_string()
                };
                let _ = writeln!(
                    out,
                    "    policy {:<12} {verdict}, {} steal-unsafe pair(s)",
                    check.policy, check.steal_unsafe
                );
            }
            for f in &k.findings {
                let _ = writeln!(
                    out,
                    "    [{}] {}: {}",
                    f.severity.label(),
                    f.analysis,
                    f.detail
                );
            }
        }
        let _ = writeln!(
            out,
            "schedlint: {} error(s), {} warning(s)",
            self.errors(),
            self.warnings()
        );
        out
    }
}

/// One workload's flat numeric row of the JSON report.
fn kernel_row(k: &KernelSummary, w: &mut json::Writer) {
    w.key("workload").string(&k.workload);
    for (key, value) in [
        ("threads", k.threads),
        ("phases", k.phases),
        ("bins", k.bins),
        ("conflict_pairs", k.conflict_pairs),
        ("violations", k.violations),
        ("reordered_convergent", k.reordered_convergent),
        ("steal_unsafe_pairs", k.steal_unsafe_pairs),
        ("overflow_bins", k.overflow_bins),
        ("overflow_subbins", k.overflow_subbins),
        ("false_sharing_lines", k.false_sharing_lines),
        ("cross_node_pairs", k.cross_node_pairs),
        ("hb_units", k.hb_units),
        ("hb_obligations", k.hb_obligations),
        ("hb_races", k.hb_races),
        ("errors", k.errors()),
        ("warnings", k.warnings()),
    ] {
        w.key(key).uint(value);
    }
    if let (Some(min), Some(mean)) = (k.hint_coverage_min_pct, k.hint_coverage_mean_pct) {
        w.key("hint_coverage_min_pct").float(min, 1);
        w.key("hint_coverage_mean_pct").float(mean, 1);
    }
    for check in k.checks.iter().filter(|c| c.checked) {
        w.key(&format!("violations_{}", check.policy))
            .uint(check.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::PolicyCheck;
    use crate::{Finding, Severity};

    fn summary() -> KernelSummary {
        KernelSummary {
            workload: "matmul".to_string(),
            threads: 4,
            phases: 1,
            bins: 2,
            conflict_pairs: 0,
            violations: 0,
            reordered_convergent: 0,
            steal_unsafe_pairs: 0,
            hint_coverage_min_pct: Some(80.0),
            hint_coverage_mean_pct: Some(92.5),
            overflow_bins: 0,
            overflow_subbins: 0,
            false_sharing_lines: 1,
            cross_node_pairs: 0,
            hb_units: 2,
            hb_obligations: 0,
            hb_races: 0,
            checks: vec![PolicyCheck {
                policy: "paper",
                checked: true,
                ..PolicyCheck::default()
            }],
            findings: vec![Finding {
                severity: Severity::Warning,
                analysis: "false-sharing",
                workload: "matmul".to_string(),
                detail: "1 cache line \"falsely\" shared".to_string(),
            }],
        }
    }

    #[test]
    fn json_has_the_bench_report_shape() {
        let mut report = AnalyzeReport::new("r8000/16", 25.0);
        report.kernels.push(summary());
        let json = report.to_json();
        assert!(json.starts_with("{\"experiment\":\"schedlint\""), "{json}");
        assert!(json.contains("\"workload\":\"matmul\""), "{json}");
        assert!(json.contains("\"violations_paper\":0"), "{json}");
        assert!(json.contains("\\\"falsely\\\""), "{json}");
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 1);
        assert!(!report.gate_failed(false));
        assert!(report.gate_failed(true));
    }

    #[test]
    fn text_report_mentions_every_section() {
        let mut report = AnalyzeReport::new("r8000/16", 25.0);
        report.kernels.push(summary());
        let text = report.to_text();
        assert!(text.contains("matmul"), "{text}");
        assert!(text.contains("policy paper"), "{text}");
        assert!(text.contains("[warning] false-sharing"), "{text}");
        assert!(text.contains("0 error(s), 1 warning(s)"), "{text}");
    }
}
