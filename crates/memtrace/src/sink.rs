//! Trace consumers.

use crate::{Access, AccessKind, Addr, SchedMark, StreamRun};

/// A consumer of memory-reference traces.
///
/// Workloads are written once, generically over `S: TraceSink`, and the
/// sink decides what tracing costs:
///
/// * [`NullSink`] — everything inlines to nothing; the workload runs at
///   native speed (the benchmark's wall-clock baselines).
/// * `cachesim::SimSink` — feeds an online cache-hierarchy simulation
///   (the paper's Pixie → DineroIII pipeline, without the intermediate
///   trace file).
/// * [`VecSink`] — records the trace for inspection in tests.
/// * [`CountingSink`] — counts references only.
///
/// Implementations also receive *instruction counts* via
/// [`instructions`](TraceSink::instructions): workloads account the
/// instructions of each inner-loop iteration analytically (the paper
/// reports these counts per version in §4.2), which replaces Pixie's
/// I-fetch stream.
pub trait TraceSink {
    /// Consumes one memory reference.
    fn access(&mut self, access: Access);

    /// Consumes a run of memory references in program order.
    ///
    /// Semantically identical to calling [`access`](TraceSink::access)
    /// once per element — the default does exactly that — but sinks
    /// with per-call overhead (an online cache simulation, a trace-file
    /// writer) can override it to amortize dispatch across the batch.
    /// Stored traces are replayed in batches of thousands; the traced
    /// containers' own batches are short: a
    /// [`TracedBuf`](crate::TracedBuf) field's words, and a run
    /// record's group in the default expansion of
    /// [`run`](TraceSink::run) (the unrolled dot product's pair).
    ///
    /// Overrides must preserve exact equivalence: a batched delivery
    /// and an element-wise delivery of the same stream must leave the
    /// sink in the same state (see `tests/fastpath_equivalence.rs`).
    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        for &access in accesses {
            self.access(access);
        }
    }

    /// Accounts `count` executed instructions.
    fn instructions(&mut self, count: u64);

    /// Consumes the references of an inner loop, said once (see
    /// [`StreamRun`] for the order a record denotes).
    ///
    /// The default expands the record to exactly the calls an emitter
    /// without this hook makes — per round and stream, one
    /// [`access_batch`](TraceSink::access_batch) of the group (a plain
    /// [`access`](TraceSink::access) for a group of one), then the
    /// round's [`instructions`](TraceSink::instructions) — so a sink
    /// that does not override it cannot tell a run from the loop it
    /// stands for. An override must leave the sink in the state that
    /// expansion would (see `tests/fastpath_equivalence.rs`).
    #[inline]
    fn run(&mut self, run: &StreamRun<'_>) {
        let group = run.group() as usize;
        let mut batch = [Access::read(Addr::NULL, 0); StreamRun::MAX_GROUP as usize];
        for round in 0..run.rounds() {
            let first = round * u64::from(run.group());
            for stream in run.streams() {
                if group == 1 {
                    self.access(stream.element(first));
                    continue;
                }
                for (slot, index) in batch[..group].iter_mut().zip(first..) {
                    *slot = stream.element(index);
                }
                self.access_batch(&batch[..group]);
            }
            self.instructions(run.instructions());
        }
    }

    /// Observes one mark of the schedule half of the stream: a fork, a
    /// dispatch, a drain-unit boundary or the end of a run (see
    /// [`SchedMark`]). Ordinary sinks ignore marks — the default is a
    /// no-op — while schedule-analysis sinks use them to attribute the
    /// references in between to threads and to rebuild the drain-unit
    /// structure. Implementations `match` the mark exhaustively, so a
    /// mark added later fails to compile until each one handles it.
    #[inline]
    fn mark(&mut self, mark: SchedMark<'_>) {
        let _ = mark;
    }

    /// Convenience: consumes a read of `size` bytes at `addr`.
    #[inline]
    fn read(&mut self, addr: Addr, size: u32) {
        self.access(Access::read(addr, size));
    }

    /// Convenience: consumes a write of `size` bytes at `addr`.
    #[inline]
    fn write(&mut self, addr: Addr, size: u32) {
        self.access(Access::write(addr, size));
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn access(&mut self, access: Access) {
        (**self).access(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        (**self).access_batch(accesses);
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        (**self).instructions(count);
    }

    #[inline]
    fn run(&mut self, run: &StreamRun<'_>) {
        (**self).run(run);
    }

    #[inline]
    fn mark(&mut self, mark: SchedMark<'_>) {
        (**self).mark(mark);
    }
}

/// A sink that discards everything; traced code runs at native speed.
///
/// # Examples
///
/// ```
/// use memtrace::{Access, Addr, NullSink, TraceSink};
///
/// let mut sink = NullSink;
/// sink.access(Access::read(Addr::new(0x10), 8));
/// sink.instructions(100);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl NullSink {
    /// Creates a new null sink.
    pub fn new() -> Self {
        NullSink
    }
}

impl TraceSink for NullSink {
    #[inline]
    fn access(&mut self, _access: Access) {}

    #[inline]
    fn access_batch(&mut self, _accesses: &[Access]) {}

    #[inline]
    fn instructions(&mut self, _count: u64) {}

    #[inline]
    fn run(&mut self, _run: &StreamRun<'_>) {}
}

/// A sink that counts references and instructions without storing them.
///
/// # Examples
///
/// ```
/// use memtrace::{Access, Addr, CountingSink, TraceSink};
///
/// let mut sink = CountingSink::new();
/// sink.read(Addr::new(0), 8);
/// sink.write(Addr::new(8), 8);
/// sink.instructions(10);
/// assert_eq!(sink.reads(), 1);
/// assert_eq!(sink.writes(), 1);
/// assert_eq!(sink.data_references(), 2);
/// assert_eq!(sink.instructions_executed(), 10);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    reads: u64,
    writes: u64,
    bytes: u64,
    instructions: u64,
}

impl CountingSink {
    /// Creates a sink with all counters at zero.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Number of read references seen.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write references seen.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total references seen (reads + writes).
    pub fn data_references(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes touched.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total instructions accounted.
    pub fn instructions_executed(&self) -> u64 {
        self.instructions
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = CountingSink::default();
    }

    #[inline]
    fn count(&mut self, kind: AccessKind, size: u32, references: u64) {
        match kind {
            AccessKind::Read => self.reads += references,
            AccessKind::Write => self.writes += references,
        }
        self.bytes += references * u64::from(size);
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.count(access.kind, access.size, 1);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        for access in accesses {
            self.count(access.kind, access.size, 1);
        }
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }

    #[inline]
    fn run(&mut self, run: &StreamRun<'_>) {
        for stream in run.streams() {
            self.count(stream.kind, stream.size, run.elements_per_stream());
        }
        self.instructions += run.rounds() * run.instructions();
    }
}

/// A sink that records the full trace in memory.
///
/// Only suitable for small traces (tests, debugging); the paper-scale
/// experiments stream into the simulator instead.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    accesses: Vec<Access>,
    instructions: u64,
}

impl VecSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded references, in program order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Total instructions accounted.
    pub fn instructions_executed(&self) -> u64 {
        self.instructions
    }

    /// Consumes the sink, returning the recorded trace.
    pub fn into_accesses(self) -> Vec<Access> {
        self.accesses
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.accesses.push(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        self.accesses.extend_from_slice(accesses);
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }
}

/// A sink that forwards every event to two underlying sinks.
///
/// # Examples
///
/// ```
/// use memtrace::{Addr, CountingSink, TeeSink, TraceSink, VecSink};
///
/// let mut tee = TeeSink::new(CountingSink::new(), VecSink::new());
/// tee.read(Addr::new(0), 8);
/// assert_eq!(tee.first().reads(), 1);
/// assert_eq!(tee.second().accesses().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A, B> TeeSink<A, B> {
    /// Creates a tee over two sinks.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// The first underlying sink.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second underlying sink.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Consumes the tee, returning both sinks.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.first.access(access);
        self.second.access(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        self.first.access_batch(accesses);
        self.second.access_batch(accesses);
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.first.instructions(count);
        self.second.instructions(count);
    }

    #[inline]
    fn run(&mut self, run: &StreamRun<'_>) {
        self.first.run(run);
        self.second.run(run);
    }

    #[inline]
    fn mark(&mut self, mark: SchedMark<'_>) {
        self.first.mark(mark);
        self.second.mark(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::new();
        sink.read(Addr::new(0), 8);
        sink.read(Addr::new(8), 4);
        sink.write(Addr::new(16), 8);
        sink.instructions(3);
        sink.instructions(4);
        assert_eq!(sink.reads(), 2);
        assert_eq!(sink.writes(), 1);
        assert_eq!(sink.data_references(), 3);
        assert_eq!(sink.bytes(), 20);
        assert_eq!(sink.instructions_executed(), 7);
        sink.reset();
        assert_eq!(sink.data_references(), 0);
        assert_eq!(sink.instructions_executed(), 0);
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::new();
        sink.read(Addr::new(0), 8);
        sink.write(Addr::new(8), 8);
        let trace = sink.into_accesses();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].kind, AccessKind::Read);
        assert_eq!(trace[1].kind, AccessKind::Write);
        assert_eq!(trace[1].addr, Addr::new(8));
    }

    #[test]
    fn tee_sink_forwards_to_both() {
        let mut tee = TeeSink::new(CountingSink::new(), CountingSink::new());
        tee.read(Addr::new(0), 8);
        tee.instructions(5);
        let (a, b) = tee.into_inner();
        assert_eq!(a.reads(), 1);
        assert_eq!(b.reads(), 1);
        assert_eq!(a.instructions_executed(), 5);
        assert_eq!(b.instructions_executed(), 5);
    }

    #[test]
    fn batched_delivery_equals_element_wise() {
        let batch = [
            Access::read(Addr::new(0), 8),
            Access::write(Addr::new(8), 4),
            Access::read(Addr::new(64), 8),
        ];
        let mut one_by_one = CountingSink::new();
        for &a in &batch {
            one_by_one.access(a);
        }
        let mut batched = CountingSink::new();
        batched.access_batch(&batch);
        assert_eq!(batched, one_by_one);

        let mut vec_batched = VecSink::new();
        vec_batched.access_batch(&batch);
        assert_eq!(vec_batched.accesses(), &batch);

        let mut tee = TeeSink::new(CountingSink::new(), VecSink::new());
        tee.access_batch(&batch);
        assert_eq!(tee.first().data_references(), 3);
        assert_eq!(tee.second().accesses(), &batch);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn takes_sink<S: TraceSink>(mut s: S) {
            s.read(Addr::new(0), 8);
        }
        let mut counting = CountingSink::new();
        takes_sink(&mut counting);
        takes_sink(&mut counting);
        assert_eq!(counting.reads(), 2);
    }
}
