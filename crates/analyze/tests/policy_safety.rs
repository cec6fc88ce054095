//! Schedule-safety properties: no shipped bin policy may reorder
//! conflicting threads of an order-exact workload.
//!
//! The red-black PDE is the adversarial case — every interior line
//! conflicts with its neighbours through the shared `u` columns, and
//! the per-line hints march monotonically through memory, so a policy
//! that binned or toured carelessly would interleave conflicting lines
//! out of fork order. The property sweeps grid sizes, iteration counts,
//! and machine geometries; the four-kernel check pins the shipped
//! configuration.

use analyze::{
    analyze, capture_kernel, default_machine, hb_report, AnalyzeOptions, AnalyzeScale, Capture,
    HbReport, KernelSummary,
};
use cachesim::MachineModel;
use proptest::prelude::*;
use workloads::Kernel;

/// Asserts every policy `summary` checked has a happens-before
/// certificate row for `capture` carrying the very same verdicts. Both
/// sides come from `check_policy` summing one set of phase verdicts, so
/// this pins that the lint summary and `ANALYZE_hb.json` never drift
/// apart: same rows, same counts, same conflict totals.
fn assert_hb_matches_mirror_replay(report: &HbReport, capture: &Capture, summary: &KernelSummary) {
    for check in summary.checks.iter().filter(|c| c.checked) {
        let label = format!("{}/{}", capture.workload, check.policy);
        let row = report
            .rows
            .iter()
            .find(|r| r.workload == label)
            .unwrap_or_else(|| panic!("no certificate row for {label}"));
        assert_eq!(&row.check, check, "{label}");
        assert_eq!(row.conflict_pairs, summary.conflict_pairs, "{label}");
    }
}

#[test]
fn all_four_kernels_have_zero_violations_under_every_shipped_policy() {
    let machine = default_machine();
    let scale = AnalyzeScale::default();
    for kernel in Kernel::ALL {
        let summary = analyze(
            &capture_kernel(kernel, &machine, &scale),
            &AnalyzeOptions::default(),
        );
        assert_eq!(
            summary.violations,
            0,
            "{}: summary violations",
            kernel.name()
        );
        for check in &summary.checks {
            assert!(
                check.checked,
                "{}: policy {} unexpectedly skipped",
                kernel.name(),
                check.policy
            );
            assert_eq!(
                check.violations,
                0,
                "{}: policy {} reorders conflicting threads",
                kernel.name(),
                check.policy
            );
        }
    }
}

#[test]
fn hb_certificates_agree_with_mirror_replay_on_every_kernel() {
    let machine = default_machine();
    let scale = AnalyzeScale::default();
    let captures: Vec<Capture> = Kernel::ALL
        .iter()
        .map(|&k| capture_kernel(k, &machine, &scale))
        .collect();
    let report = hb_report(machine.name(), &captures);
    for capture in &captures {
        let summary = analyze(capture, &AnalyzeOptions::default());
        assert_hb_matches_mirror_replay(&report, capture, &summary);
        assert_eq!(
            summary.hb_races, 0,
            "{}: serial kernels never race",
            capture.workload
        );
    }
    // The lint passes clean on every shipped policy × kernel — the
    // topology-ladder rows included.
    for row in &report.rows {
        assert_eq!(row.check.violations, 0, "{}", row.workload);
        assert!(
            row.check.hb_obligations > 0 || row.conflict_pairs == 0,
            "{}",
            row.workload
        );
    }
    assert!(
        report.rows.iter().any(|r| r.check.policy == "topology"),
        "kernels must carry a topology certificate row"
    );
}

#[test]
fn hb_report_json_is_byte_identical_across_two_full_regenerations() {
    let machine = default_machine();
    let scale = AnalyzeScale::default();
    let build = || {
        let captures: Vec<Capture> = Kernel::ALL
            .iter()
            .map(|&k| capture_kernel(k, &machine, &scale))
            .collect();
        hb_report(machine.name(), &captures).to_json()
    };
    let first = build();
    let second = build();
    assert_eq!(first, second, "ANALYZE_hb.json must be byte-reproducible");
    assert!(first.starts_with("{\"experiment\":\"schedlint-hb\""));
}

#[test]
fn the_pde_conflict_graph_is_nonempty() {
    // Guards the property below against vacuity: if the capture pipeline
    // ever stopped seeing the red-black neighbour dependencies, zero
    // violations would be meaningless.
    let summary = analyze(
        &capture_kernel(Kernel::Pde, &default_machine(), &AnalyzeScale::default()),
        &AnalyzeOptions::default(),
    );
    assert!(summary.conflict_pairs > 0);
    assert!(summary.threads > 0);
}

proptest! {
    /// No shipped policy reorders conflicting red-black PDE threads,
    /// across grid sizes, iteration counts, and cache geometries.
    #[test]
    fn no_shipped_policy_reorders_conflicting_pde_threads(
        n in 8usize..40,
        iters in 1usize..4,
        l2_shrink in prop_oneof![Just(64.0), Just(256.0), Just(1024.0)],
    ) {
        let machine = MachineModel::r8000().scaled_split(1.0 / 16.0, 1.0 / l2_shrink).expect("valid scaled machine");
        let scale = AnalyzeScale {
            pde_n: n,
            pde_iters: iters,
            ..AnalyzeScale::default()
        };
        let capture = capture_kernel(Kernel::Pde, &machine, &scale);
        let summary = analyze(&capture, &AnalyzeOptions::default());
        prop_assert_eq!(summary.phases, iters as u64);
        for check in &summary.checks {
            prop_assert_eq!(
                check.violations,
                0,
                "policy {} reorders conflicting threads at n={} iters={} shrink={}",
                check.policy,
                n,
                iters,
                l2_shrink
            );
        }
        // The certificates must carry the lint's verdicts at every
        // sampled scale and geometry.
        let report = hb_report(machine.name(), std::slice::from_ref(&capture));
        assert_hb_matches_mirror_replay(&report, &capture, &summary);
    }
}
