//! `schedlint` — static schedule analysis over thread footprints.
//!
//! The paper's entire speedup rests on an unchecked assumption: threads
//! created within a phase are mutually independent, so the bin
//! scheduler may reorder them freely, and the fork-time address *hints*
//! actually describe what each thread touches. This crate turns that
//! assumption into a checked invariant. It captures per-thread memory
//! footprints (via [`memtrace::FootprintSink`] listening to the
//! scheduler's schedule events, or a `tracefile` replay of the same)
//! plus the thread/hint graph, and runs four analyses:
//!
//! 1. **Conflict analysis** ([`conflict`]) — the inter-thread conflict
//!    graph (W/W and R/W overlap at word granularity) within each
//!    phase, checked against the dispatch permutation of every shipped
//!    [`BinPolicy`](locality_sched::BinPolicy): a conflicting pair a
//!    policy reorders in an order-exact kernel is an **error**.
//! 2. **Hint-accuracy lint** — threads whose hint blocks cover less
//!    than a threshold fraction of their footprint (stale or wrong
//!    hints silently erode locality).
//! 3. **Bin-overflow lint** — bins whose aggregate footprint exceeds
//!    the [`MachineModel`](cachesim::MachineModel) L2 capacity (or L1,
//!    for hierarchical sub-bins): bins that cannot deliver the reuse
//!    the policy promises.
//! 4. **False-sharing detector** — distinct-word, same-line accesses
//!    from threads in different bins.
//! 5. **Cross-node sharing lint** — conflicting pairs whose bins sit
//!    under different subtrees of the coarsest level of a depth-≥ 3
//!    [`TopologyPolicy`](locality_sched::TopologyPolicy): words that
//!    ping-pong across the machine no matter how bins are drained.
//!
//! Findings serialize to JSON in the bench report idiom
//! (`{"experiment": ..., "rows": [...]}`, consumable by `benchdiff`)
//! and gate CI through `benchdiff`-style exit codes: 0 clean, 1 gate
//! failure, 2 usage error.

pub mod analysis;
pub mod capture;
pub mod conflict;
pub mod fixture;
pub mod hb;
pub mod policies;
pub mod report;

pub use analysis::{analyze, AnalyzeOptions, KernelSummary, PolicyCheck};
pub use capture::{
    capture_kernel, default_machine, AnalyzeScale, Capture, DrainConcurrency, PhaseModel,
};
pub use conflict::{conflict_pairs, ConflictPair};
pub use fixture::Fixture;
pub use hb::{hb_report, HbReport};
pub use policies::{assign_bins, dispatch_trace, BinAssignment, DispatchTrace, PolicyKind};
pub use report::AnalyzeReport;

/// How serious a finding is — decides the gate outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: expected behaviour worth surfacing (e.g. the
    /// convergent SOR reorders, spatial N-body hints).
    Info,
    /// Suspicious but not semantics-breaking on the shipped serial
    /// path (overflowing bins, false sharing, steal-unsafe pairs).
    Warning,
    /// A schedule-safety or hint bug: a policy reorders conflicting
    /// threads of an order-exact kernel, or a hint misses its thread's
    /// footprint.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analysis finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Severity of the finding.
    pub severity: Severity,
    /// Which analysis produced it: `"conflict-order"`, `"hb-race"`,
    /// `"steal-safety"`, `"hint-accuracy"`, `"bin-overflow"`,
    /// `"false-sharing"`, or `"cross-node-sharing"`.
    pub analysis: &'static str,
    /// The workload (kernel or fixture) the finding belongs to.
    pub workload: String,
    /// Human-readable description.
    pub detail: String,
}
