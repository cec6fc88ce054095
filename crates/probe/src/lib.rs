//! Lightweight observability primitives for the thread-locality
//! workspace.
//!
//! Every hot layer of the system — the sequential and parallel
//! schedulers, the cache simulator, the experiment driver — is
//! instrumented with the primitives in this crate:
//!
//! * [`LocalCounter`] — a monotonic counter in a plain `Cell`.
//! * [`LocalHistogram`] — a log₂-bucketed value distribution with
//!   count / sum / min / max and approximate percentiles, in plain
//!   `Cell`s.
//! * [`LocalHistogram::span`] — a scoped timer guard that records
//!   elapsed nanoseconds into a histogram on drop.
//! * [`LocalLap`] — a running instant for back-to-back intervals: one
//!   clock read per interval instead of a span's two.
//!
//! There is one kind, and it is `!Sync`: every observation is owned by
//! one thread. A layer that runs on several threads gives each its own
//! counters and histograms and merges them at the join
//! ([`merge_from`](HistogramOf::merge_from)). An observation whose value
//! is a constant of the run is counted and folded in at flush time with
//! `record_n`, not recorded per event (see DESIGN.md §8).
//!
//! All of the above are **compile-time gated** by the `enabled` cargo
//! feature (on by default). With the feature off every primitive is a
//! zero-sized type whose methods are empty `#[inline]` bodies, so the
//! instrumented code compiles to exactly the uninstrumented machine
//! code — the overhead budget of a disabled probe is *zero*, which is
//! why the gate is a feature and not a runtime flag (see DESIGN.md §8).
//!
//! Collected metrics flush into a [`RunProfile`] — an ordered list of
//! named [`Section`]s, serialized as one JSON object — which the
//! workspace's report types embed under a `"run_profile"` key when
//! [`enabled()`] is true. Every report in the workspace serializes
//! through the one writer in [`json`], which also holds the parser
//! `benchdiff` reads reports back with. `RunProfile` and `Section` are *not* feature
//! gated: they are cold-path containers, and keeping them functional in
//! both modes lets report code build profiles unconditionally and gate
//! only the embedding.
//!
//! # Examples
//!
//! ```
//! let forks = probe::LocalCounter::new();
//! let latency = probe::LocalHistogram::new();
//! forks.add(3);
//! {
//!     let _span = latency.span(); // records elapsed ns on drop
//! }
//! latency.record(1500);
//!
//! let mut section = probe::Section::new("sched");
//! section.counter("forks", forks.get());
//! section.histogram("latency_ns", &latency);
//! let mut profile = probe::RunProfile::new();
//! profile.push(section);
//! if probe::enabled() {
//!     assert!(profile.to_json().contains("\"forks\":3"));
//! }
//! ```

pub mod json;
mod metrics;
mod profile;

pub use metrics::{
    CounterOf, HistogramOf, HistogramSnapshot, LapOf, LocalCounter, LocalHistogram, LocalLap,
    LocalSpan, SpanOf,
};
pub use profile::{Metric, RunProfile, Section};

/// Whether the probe layer is compiled in.
///
/// Report types consult this to decide whether to embed a
/// `"run_profile"` section; instrumented hot paths branch on it so the
/// disabled branch folds away at compile time.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_matches_feature() {
        assert_eq!(super::enabled(), cfg!(feature = "enabled"));
    }
}
