//! Memory-reference tracing substrate (the reproduction's stand-in for
//! Pixie binary instrumentation).
//!
//! The ASPLOS'96 paper generated address traces of its benchmark binaries
//! with Pixie and fed them to a modified DineroIII simulator. This crate
//! provides the equivalent information source for pure-Rust workloads:
//!
//! * [`Addr`] / [`Access`] — a virtual address and one memory reference.
//! * [`AddressSpace`] — a bump allocator handing out non-overlapping
//!   virtual regions, so traced data structures live at realistic,
//!   stable addresses (matrix columns really are contiguous, distinct
//!   arrays really are disjoint).
//! * [`TraceSink`] — the consumer interface. A workload runs generically
//!   over `S: TraceSink`; instantiating it with [`NullSink`] gives native
//!   speed, with a cache simulator (see the `cachesim` crate) gives the
//!   paper's trace-driven simulation, with [`VecSink`] gives a recorded
//!   trace for tests.
//! * Traced containers ([`TracedMatrix`], [`TracedBuf`]) that emit one
//!   [`Access`] per element touch, plus analytic instruction accounting
//!   via [`TraceSink::instructions`].
//! * [`StreamRun`] — an inner loop's references said once (*k* strided
//!   [`Stream`]s advancing together), delivered through
//!   [`TraceSink::run`], whose default expands it to the element calls.
//!
//! # Examples
//!
//! ```
//! use memtrace::{AddressSpace, CountingSink, MatrixLayout, TracedMatrix};
//!
//! let mut space = AddressSpace::new();
//! let mut m = TracedMatrix::zeros(&mut space, 4, 4, MatrixLayout::ColMajor);
//! let mut sink = CountingSink::new();
//! m.set(0, 0, 1.0, &mut sink);
//! let v = m.get(0, 0, &mut sink);
//! assert_eq!(v, 1.0);
//! assert_eq!(sink.reads(), 1);
//! assert_eq!(sink.writes(), 1);
//! ```

mod access;
mod buf;
pub mod compact;
mod footprint;
mod matrix;
mod regions;
mod run;
mod schedule;
mod sink;
mod space;
mod tracefile;

pub use access::{Access, AccessKind, Addr};
pub use buf::TracedBuf;
pub use compact::{CompactBuf, CompactIter};
pub use footprint::{FootprintSink, PhaseTrace, ThreadFootprint, WORD_BYTES};
pub use matrix::{MatrixLayout, TracedMatrix};
pub use regions::{RegionSink, RegionTraffic};
pub use run::{Stream, StreamRun};
pub use schedule::{SchedEvent, SchedLogSink, SchedMark, ScheduleLog};
pub use sink::{CountingSink, NullSink, TeeSink, TraceSink, VecSink};
pub use space::AddressSpace;
pub use tracefile::{TraceFileReader, TraceFileWriter, MAX_TRACE_HINTS};
