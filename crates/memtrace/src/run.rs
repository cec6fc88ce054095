//! Run records: the references of an inner loop, said once.

use crate::{Access, AccessKind, Addr};
use std::ops::Range;

/// One strided stream of a [`StreamRun`]: element `e` is a `kind`
/// reference to the `size` bytes at `base + e * stride`.
///
/// `stride` and `size` are independent: a stride of 0 re-references one
/// element, a stride larger than `size` skips bytes, a smaller one
/// overlaps them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stream {
    /// Address of element 0.
    pub base: Addr,
    /// Bytes from one element to the next.
    pub stride: u64,
    /// Bytes each element touches.
    pub size: u32,
    /// Whether the stream loads or stores.
    pub kind: AccessKind,
}

impl Stream {
    /// The reference element `index` makes.
    #[inline]
    pub fn element(&self, index: u64) -> Access {
        Access {
            addr: self.base + index * self.stride,
            size: self.size,
            kind: self.kind,
        }
    }
}

/// The references of an inner loop: `streams` advancing together for
/// `rounds` rounds, each stream emitting `group` consecutive elements a
/// round, with `instructions` accounted after each round.
///
/// The order a record denotes is round-major, stream by stream, a
/// stream's group elements consecutive — for two streams and a group
/// of two (the unrolled dot product): `a0 a1 b0 b1 · a2 a3 b2 b3 · …`.
/// [`TraceSink::run`](crate::TraceSink::run) delivers a record; its
/// default expands it to the per-element calls, so a sink that does not
/// override it sees the stream exactly as if the emitter had made them.
///
/// # Examples
///
/// ```
/// use memtrace::{AccessKind, Addr, Stream, StreamRun, TraceSink, VecSink};
///
/// let column = |base| Stream {
///     base: Addr::new(base),
///     stride: 8,
///     size: 8,
///     kind: AccessKind::Read,
/// };
/// let streams = [column(0x1000), column(0x2000)];
/// let run = StreamRun::new(&streams, 2, 2, 7);
/// let mut sink = VecSink::new();
/// sink.run(&run);
/// let addrs: Vec<u64> = sink.accesses().iter().map(|a| a.addr.raw()).collect();
/// assert_eq!(addrs, [0x1000, 0x1008, 0x2000, 0x2008, 0x1010, 0x1018, 0x2010, 0x2018]);
/// assert_eq!(sink.instructions_executed(), 14);
/// assert!(run.accesses(0..2).eq(sink.accesses().iter().copied()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StreamRun<'a> {
    streams: &'a [Stream],
    group: u32,
    rounds: u64,
    instructions: u64,
}

impl<'a> StreamRun<'a> {
    /// The largest `group`: what the default expansion buffers on the
    /// stack to hand a group to `access_batch` in one call.
    pub const MAX_GROUP: u32 = 8;

    /// A record of `rounds` rounds over `streams`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is 0 or more than [`MAX_GROUP`](Self::MAX_GROUP),
    /// or if some stream's last element lies past the top of the
    /// address space: its address would wrap. (An element whose bytes
    /// run past the top is an access like any other, which the
    /// simulator clamps.)
    #[inline]
    pub fn new(streams: &'a [Stream], group: u32, rounds: u64, instructions: u64) -> Self {
        assert!(
            (1..=Self::MAX_GROUP).contains(&group),
            "a stream emits 1 to {} elements a round, not {group}",
            Self::MAX_GROUP
        );
        let addressable = |stream: &Stream| match rounds.checked_mul(u64::from(group)) {
            Some(0) => true,
            Some(elements) => stream
                .stride
                .checked_mul(elements - 1)
                .and_then(|span| stream.base.raw().checked_add(span))
                .is_some(),
            None => false,
        };
        assert!(
            streams.iter().all(addressable),
            "a stream's last element lies past the top of the address space"
        );
        StreamRun {
            streams,
            group,
            rounds,
            instructions,
        }
    }

    /// The streams, in the order a round visits them.
    #[inline]
    pub fn streams(&self) -> &'a [Stream] {
        self.streams
    }

    /// Consecutive elements a stream emits per round.
    #[inline]
    pub fn group(&self) -> u32 {
        self.group
    }

    /// Number of rounds.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Instructions accounted after each round.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// References each stream makes over the whole run.
    #[inline]
    pub fn elements_per_stream(&self) -> u64 {
        self.rounds * u64::from(self.group)
    }

    /// The references of the given rounds, one by one in the order the
    /// record denotes.
    pub fn accesses(&self, rounds: Range<u64>) -> impl Iterator<Item = Access> + 'a {
        let (streams, group) = (self.streams, u64::from(self.group));
        rounds.flat_map(move |round| {
            streams.iter().flat_map(move |stream| {
                (round * group..(round + 1) * group).map(move |index| stream.element(index))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, NullSink, TeeSink, TraceSink, VecSink};

    /// Records every call a sink receives, not just the references.
    #[derive(Default)]
    struct CallLog(Vec<String>);

    impl TraceSink for CallLog {
        fn access(&mut self, access: Access) {
            self.0.push(format!("access {access}"));
        }

        fn access_batch(&mut self, accesses: &[Access]) {
            let list: Vec<String> = accesses.iter().map(ToString::to_string).collect();
            self.0.push(format!("batch {}", list.join(", ")));
        }

        fn instructions(&mut self, count: u64) {
            self.0.push(format!("instructions {count}"));
        }
    }

    fn stream(base: u64, stride: u64, size: u32, kind: AccessKind) -> Stream {
        Stream {
            base: Addr::new(base),
            stride,
            size,
            kind,
        }
    }

    #[test]
    fn default_expansion_makes_the_calls_the_emitters_made() {
        // The unrolled dot product: an `access_batch` pair per matrix, then
        // the round's instructions.
        let streams = [
            stream(0x100, 8, 8, AccessKind::Read),
            stream(0x900, 8, 8, AccessKind::Read),
        ];
        let mut log = CallLog::default();
        log.run(&StreamRun::new(&streams, 2, 2, 7));
        assert_eq!(
            log.0,
            [
                "batch read 0x100+8, read 0x108+8",
                "batch read 0x900+8, read 0x908+8",
                "instructions 7",
                "batch read 0x110+8, read 0x118+8",
                "batch read 0x910+8, read 0x918+8",
                "instructions 7",
            ]
        );
        // A group of one is a plain `access`, as `get` and `set` make.
        let streams = [
            stream(0x100, 8, 8, AccessKind::Read),
            stream(0x900, 24, 4, AccessKind::Write),
        ];
        let mut log = CallLog::default();
        log.run(&StreamRun::new(&streams, 1, 2, 5));
        assert_eq!(
            log.0,
            [
                "access read 0x100+8",
                "access write 0x900+4",
                "instructions 5",
                "access read 0x108+8",
                "access write 0x918+4",
                "instructions 5",
            ]
        );
    }

    #[test]
    fn accesses_lists_the_rounds_asked_for_in_the_denoted_order() {
        let streams = [
            stream(0, 0, 8, AccessKind::Read),
            stream(0x40, 16, 4, AccessKind::Write),
        ];
        let run = StreamRun::new(&streams, 3, 4, 1);
        let mut all = VecSink::new();
        all.run(&run);
        assert_eq!(all.accesses().len(), 24);
        assert!(run.accesses(0..4).eq(all.accesses().iter().copied()));
        assert!(run.accesses(1..3).eq(all.accesses()[6..18].iter().copied()));
        assert_eq!(run.accesses(2..2).count(), 0);
        assert_eq!(all.instructions_executed(), 4);
    }

    /// A sink that must be handed its records whole.
    #[derive(Default)]
    struct WholeRuns(u64);

    impl TraceSink for WholeRuns {
        fn access(&mut self, access: Access) {
            panic!("the record was expanded: {access}");
        }

        fn instructions(&mut self, count: u64) {
            panic!("the record was expanded: {count} instructions");
        }

        fn run(&mut self, _run: &StreamRun<'_>) {
            self.0 += 1;
        }
    }

    #[test]
    fn counting_sink_counts_a_record_and_forwarders_pass_it_on_whole() {
        let streams = [
            stream(0x100, 8, 8, AccessKind::Read),
            stream(0x200, 8, 8, AccessKind::Read),
            stream(0x200, 8, 2, AccessKind::Write),
        ];
        let run = StreamRun::new(&streams, 4, 1000, 5);
        let mut expanded = CountingSink::new();
        for access in run.accesses(0..run.rounds()) {
            expanded.access(access);
        }
        expanded.instructions(5000);
        let mut counted = CountingSink::new();
        counted.run(&run);
        assert_eq!(counted, expanded);
        assert_eq!(counted.bytes(), 4000 * (8 + 8 + 2));

        fn deliver<S: TraceSink>(mut sink: S, run: &StreamRun<'_>) {
            sink.run(run);
        }
        let mut tee = TeeSink::new(WholeRuns::default(), WholeRuns::default());
        deliver(&mut tee, &run);
        assert_eq!((tee.first().0, tee.second().0), (1, 1));
        deliver(NullSink, &run);
    }

    #[test]
    fn a_run_of_no_rounds_or_no_streams_is_empty() {
        let streams = [stream(0x100, 8, 8, AccessKind::Read)];
        let mut log = CallLog::default();
        log.run(&StreamRun::new(&streams, 2, 0, 7));
        assert!(log.0.is_empty());
        log.run(&StreamRun::new(&[], 1, 2, 7));
        assert_eq!(log.0, ["instructions 7", "instructions 7"]);
    }

    #[test]
    #[should_panic(expected = "elements a round")]
    fn a_group_of_zero_is_refused() {
        let _ = StreamRun::new(&[], 0, 1, 0);
    }

    /// Ten elements, the last ending at the top of the address space.
    fn to_the_top() -> [Stream; 1] {
        [stream(u64::MAX - 8 * 9 - 7, 8, 8, AccessKind::Read)]
    }

    #[test]
    fn a_record_ending_at_the_top_of_the_address_space_is_accepted() {
        let top = to_the_top();
        let last = StreamRun::new(&top, 2, 5, 0).accesses(0..5).last();
        assert_eq!(last.map(|access| access.addr.raw()), Some(u64::MAX - 7));
    }

    #[test]
    #[should_panic(expected = "past the top of the address space")]
    fn a_record_past_the_top_of_the_address_space_is_refused() {
        // One more round would put its last element's address past it.
        let _ = StreamRun::new(&to_the_top(), 2, 6, 0);
    }
}
