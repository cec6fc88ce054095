//! Per-thread footprint accumulation for schedule analysis.
//!
//! [`FootprintSink`] consumes the [`SchedMark`]s a tracing scheduler
//! emits ([`Fork`](SchedMark::Fork) at fork,
//! [`Dispatch`](SchedMark::Dispatch) at dispatch,
//! [`RunEnd`](SchedMark::RunEnd) when a run drains) and attributes
//! every memory reference in between to the thread that made it. The
//! result is one [`PhaseTrace`] per scheduler run: the fork-ordered hint
//! lists plus the dispatch-ordered read/write footprints, the raw
//! material for conflict, hint-accuracy, bin-overflow, and false-sharing
//! analysis (the `analyze` crate's `schedlint`).
//!
//! Footprints are sets of *word granules* — 8-byte-aligned units, the
//! element size of every traced structure in this reproduction — so
//! overlap at word granularity means a true data dependency, while
//! distinct words on one cache line mean false sharing. Cache-line sets
//! at any line size derive from the word sets via
//! [`ThreadFootprint::lines`].

use std::collections::BTreeSet;
use std::mem;

use crate::{Access, AccessKind, Addr, SchedMark, TraceSink};

/// The footprint granule: 8-byte words, the traced element size.
pub const WORD_BYTES: u64 = 8;

/// The read and write word-sets of one thread (or of ambient code).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadFootprint {
    reads: BTreeSet<u64>,
    writes: BTreeSet<u64>,
}

impl ThreadFootprint {
    /// Creates an empty footprint.
    pub fn new() -> Self {
        ThreadFootprint::default()
    }

    /// Adds one reference, splitting it into word granules.
    pub fn record(&mut self, access: Access) {
        if access.size == 0 {
            return;
        }
        let first = access.addr.raw() / WORD_BYTES;
        // Saturating: a trace file can carry a reference that ends past
        // the top of the address space.
        let last = access.addr.raw().saturating_add(u64::from(access.size) - 1) / WORD_BYTES;
        let set = match access.kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
        };
        for word in first..=last {
            set.insert(word);
        }
    }

    /// Word granules read (indices of 8-byte units, i.e. `addr / 8`).
    pub fn read_words(&self) -> &BTreeSet<u64> {
        &self.reads
    }

    /// Word granules written.
    pub fn write_words(&self) -> &BTreeSet<u64> {
        &self.writes
    }

    /// All word granules touched (reads ∪ writes).
    pub fn words(&self) -> BTreeSet<u64> {
        self.reads.union(&self.writes).copied().collect()
    }

    /// Cache-line indices touched, for `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn lines(&self, line_size: u64) -> BTreeSet<u64> {
        assert!(line_size.is_power_of_two());
        self.reads
            .iter()
            .chain(self.writes.iter())
            .map(|&w| w * WORD_BYTES / line_size)
            .collect()
    }

    /// `true` if no reference has been recorded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// One scheduler run's worth of schedule data: hints in *fork* order,
/// footprints in *dispatch* order. The two indexings generally differ —
/// relating them requires replaying the scheduling policy over the
/// hints, which is exactly what the analyzer does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Hint addresses per forked thread, in fork order (possibly empty
    /// per thread for unhinted forks).
    pub hints: Vec<Vec<Addr>>,
    /// Per-thread footprints, in dispatch (execution) order.
    pub dispatches: Vec<ThreadFootprint>,
}

/// A [`TraceSink`] that builds per-phase, per-thread footprints from a
/// traced scheduler run.
///
/// References arriving between [`Dispatch`](SchedMark::Dispatch)
/// marks belong to the thread that began; references outside any run
/// accumulate in a single *ambient* footprint. Addresses at or above an
/// optional threshold are dropped — schedulers synthesize their own
/// bookkeeping traffic at a reserved high base (the package trace), and
/// analysis usually wants application data only.
///
/// # Examples
///
/// ```
/// use memtrace::{Addr, FootprintSink, SchedMark, TraceSink};
///
/// let mut sink = FootprintSink::new();
/// sink.mark(SchedMark::Fork(&[Addr::new(0x100)])); // fork 0
/// sink.mark(SchedMark::Fork(&[Addr::new(0x200)])); // fork 1
/// sink.mark(SchedMark::Dispatch(0));
/// sink.write(Addr::new(0x208), 8); // belongs to the first dispatch
/// sink.mark(SchedMark::Dispatch(1));
/// sink.read(Addr::new(0x100), 8);
/// sink.mark(SchedMark::RunEnd);
/// let phases = sink.into_phases();
/// assert_eq!(phases.len(), 1);
/// assert_eq!(phases[0].hints.len(), 2);
/// assert_eq!(phases[0].dispatches.len(), 2);
/// assert!(phases[0].dispatches[0].write_words().contains(&(0x208 / 8)));
/// ```
#[derive(Debug, Default)]
pub struct FootprintSink {
    ignore_at_or_above: Option<u64>,
    pending_hints: Vec<Vec<Addr>>,
    dispatches: Vec<ThreadFootprint>,
    in_run: bool,
    ambient: ThreadFootprint,
    phases: Vec<PhaseTrace>,
}

impl FootprintSink {
    /// Creates a sink recording every address.
    pub fn new() -> Self {
        FootprintSink::default()
    }

    /// Creates a sink that drops references at or above `limit` —
    /// typically the scheduler's package-trace base, so synthetic
    /// bookkeeping traffic stays out of the application footprints.
    pub fn ignoring_at_or_above(limit: Addr) -> Self {
        FootprintSink {
            ignore_at_or_above: Some(limit.raw()),
            ..FootprintSink::default()
        }
    }

    /// The completed phases so far.
    pub fn phases(&self) -> &[PhaseTrace] {
        &self.phases
    }

    /// References made outside any scheduler run (setup, fork loops,
    /// post-run reductions).
    pub fn ambient(&self) -> &ThreadFootprint {
        &self.ambient
    }

    /// Consumes the sink, returning all phases; a run still open (or
    /// forks never run) is closed into a final phase.
    pub fn into_phases(mut self) -> Vec<PhaseTrace> {
        if self.in_run || !self.pending_hints.is_empty() || !self.dispatches.is_empty() {
            self.close_phase();
        }
        self.phases
    }

    fn close_phase(&mut self) {
        let hints = mem::take(&mut self.pending_hints);
        let dispatches = mem::take(&mut self.dispatches);
        self.in_run = false;
        if !hints.is_empty() || !dispatches.is_empty() {
            self.phases.push(PhaseTrace { hints, dispatches });
        }
    }
}

impl TraceSink for FootprintSink {
    fn access(&mut self, access: Access) {
        if let Some(limit) = self.ignore_at_or_above {
            if access.addr.raw() >= limit {
                return;
            }
        }
        if self.in_run {
            if let Some(current) = self.dispatches.last_mut() {
                current.record(access);
                return;
            }
        }
        self.ambient.record(access);
    }

    fn instructions(&mut self, _count: u64) {}

    /// Dispatches are taken in arrival order; the ordinal only tells a
    /// new run (it restarts at 0) from the next thread of this one.
    fn mark(&mut self, mark: SchedMark<'_>) {
        match mark {
            SchedMark::Fork(hints) => self.pending_hints.push(hints.to_vec()),
            SchedMark::Dispatch(seq) => {
                if seq == 0 && self.in_run {
                    // A new run started while the previous one never
                    // announced its end (e.g. an untraced drain): close
                    // it defensively.
                    self.close_phase();
                }
                self.in_run = true;
                self.dispatches.push(ThreadFootprint::new());
            }
            SchedMark::RunEnd => self.close_phase(),
            SchedMark::DrainBegin(_) | SchedMark::DrainEnd(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_split_into_word_granules() {
        let mut fp = ThreadFootprint::new();
        fp.record(Access::read(Addr::new(0x100), 8));
        fp.record(Access::read(Addr::new(0x104), 8)); // straddles two words
        fp.record(Access::write(Addr::new(0x200), 4));
        assert_eq!(
            fp.read_words().iter().copied().collect::<Vec<_>>(),
            vec![0x100 / 8, 0x108 / 8]
        );
        assert_eq!(
            fp.write_words().iter().copied().collect::<Vec<_>>(),
            vec![0x200 / 8]
        );
        assert_eq!(fp.words().len(), 3);
    }

    #[test]
    fn a_reference_at_the_top_of_the_address_space_keeps_its_last_word() {
        let mut fp = ThreadFootprint::new();
        fp.record(Access::read(Addr::new(u64::MAX - 3), 8));
        assert_eq!(
            fp.read_words().iter().copied().collect::<Vec<_>>(),
            vec![u64::MAX / WORD_BYTES]
        );
    }

    #[test]
    fn lines_derive_from_words() {
        let mut fp = ThreadFootprint::new();
        fp.record(Access::read(Addr::new(0), 8));
        fp.record(Access::read(Addr::new(120), 8));
        fp.record(Access::write(Addr::new(128), 8));
        let lines = fp.lines(128);
        assert_eq!(lines.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn phases_split_on_run_end() {
        let mut sink = FootprintSink::new();
        // Phase 1: two forks, dispatched in reverse order.
        sink.read(Addr::new(0x8000), 8); // ambient setup
        sink.mark(SchedMark::Fork(&[Addr::new(0x100)]));
        sink.mark(SchedMark::Fork(&[Addr::new(0x200), Addr::new(0x300)]));
        sink.mark(SchedMark::Dispatch(0));
        sink.write(Addr::new(0x200), 8);
        sink.mark(SchedMark::Dispatch(1));
        sink.write(Addr::new(0x100), 8);
        sink.mark(SchedMark::RunEnd);
        // Phase 2: one fork.
        sink.mark(SchedMark::Fork(&[]));
        sink.mark(SchedMark::Dispatch(0));
        sink.read(Addr::new(0x400), 8);
        sink.mark(SchedMark::RunEnd);
        sink.instructions(10); // ignored
        sink.write(Addr::new(0x8008), 8); // ambient again

        assert_eq!(sink.phases().len(), 2);
        assert!(sink.ambient().write_words().contains(&(0x8008 / 8)));
        let phases = sink.into_phases();
        assert_eq!(phases[0].hints.len(), 2);
        assert_eq!(phases[0].hints[1], vec![Addr::new(0x200), Addr::new(0x300)]);
        assert_eq!(phases[0].dispatches.len(), 2);
        assert!(phases[0].dispatches[0].write_words().contains(&(0x200 / 8)));
        assert!(phases[0].dispatches[1].write_words().contains(&(0x100 / 8)));
        assert_eq!(phases[1].hints, vec![Vec::<Addr>::new()]);
        assert_eq!(phases[1].dispatches.len(), 1);
    }

    #[test]
    fn high_addresses_are_ignored_when_requested() {
        let mut sink = FootprintSink::ignoring_at_or_above(Addr::new(0x1000));
        sink.mark(SchedMark::Fork(&[Addr::new(0x10)]));
        sink.mark(SchedMark::Dispatch(0));
        sink.read(Addr::new(0x10), 8);
        sink.read(Addr::new(0x1000), 8); // dropped
        sink.mark(SchedMark::RunEnd);
        let phases = sink.into_phases();
        assert_eq!(phases[0].dispatches[0].read_words().len(), 1);
    }

    #[test]
    fn dangling_run_is_closed_by_into_phases() {
        let mut sink = FootprintSink::new();
        sink.mark(SchedMark::Fork(&[Addr::new(0x10)]));
        sink.mark(SchedMark::Dispatch(0));
        sink.write(Addr::new(0x10), 8);
        let phases = sink.into_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].dispatches.len(), 1);
    }

    #[test]
    fn empty_sink_yields_no_phases() {
        assert!(FootprintSink::new().into_phases().is_empty());
    }
}
