//! Trace-file round trip: recording a workload to a Pixie-style trace
//! file and replaying it through the simulator must match the online
//! simulation exactly — the decoupling the paper's original
//! Pixie → DineroIII pipeline relied on.

use proptest::prelude::*;
use thread_locality::apps::matmul;
use thread_locality::sched::{Hierarchical, Hints, RunMode, Scheduler, SchedulerConfig};
use thread_locality::sim::{MachineModel, SimSink};
use thread_locality::trace::{
    Access, AccessKind, Addr, AddressSpace, CompactBuf, CompactIter, FootprintSink, SchedEvent,
    SchedLogSink, SchedMark, TeeSink, TraceFileReader, TraceFileWriter, TraceSink,
};

#[test]
fn recorded_trace_replays_to_identical_simulation() {
    let machine = MachineModel::r10000()
        .scaled_split(1.0, 1.0 / 32.0)
        .expect("valid scaled machine");

    // Online simulation, while simultaneously recording the trace.
    let mut buffer: Vec<u8> = Vec::new();
    let online = {
        let mut space = AddressSpace::new();
        let mut data = matmul::MatMulData::new(&mut space, 48, 3);
        let mut tee = TeeSink::new(
            SimSink::new(machine.hierarchy()),
            TraceFileWriter::new(&mut buffer),
        );
        matmul::transposed(&mut data, &mut tee);
        let (sim, writer) = tee.into_inner();
        writer.finish().expect("flush trace");
        sim.finish()
    };

    // Offline replay of the recorded file into a fresh simulator.
    let mut replayed_sim = SimSink::new(machine.hierarchy());
    let events = TraceFileReader::new(buffer.as_slice())
        .replay(&mut replayed_sim)
        .expect("replay trace");
    let replayed = replayed_sim.finish();

    assert!(events > 0);
    assert_eq!(online, replayed, "online and replayed simulations diverge");
}

/// The schedule half of the stream survives the file too: a traced
/// scheduler run recorded to a trace file replays into schedule-aware
/// sinks exactly as it arrived live. Under a nested policy a drain unit
/// (a parent group) is not a bin, so the unit marks carry structure the
/// dispatch marks alone do not.
#[test]
fn recorded_schedule_replays_to_the_live_log_and_footprints() {
    type Live = TeeSink<SchedLogSink, FootprintSink>;
    struct Ctx<'a> {
        sink: TeeSink<Live, TraceFileWriter<&'a mut Vec<u8>>>,
    }
    fn touch(ctx: &mut Ctx<'_>, index: usize, _: usize) {
        ctx.sink.read(Addr::new(index as u64 * 256), 8);
        ctx.sink.write(Addr::new((1 << 20) + index as u64 * 8), 8);
    }

    let mut buffer: Vec<u8> = Vec::new();
    let (live_log, live_footprints) = {
        let mut ctx = Ctx {
            sink: TeeSink::new(
                TeeSink::new(SchedLogSink::new(), FootprintSink::new()),
                TraceFileWriter::new(&mut buffer),
            ),
        };
        // 1 KiB sub-bins in 4 KiB parents; hints stride 256 B over
        // 16 KiB, visited out of order: 4 drain units of 4 sub-bins of
        // 4 threads.
        let policy = Hierarchical::uniform(1 << 10, 1 << 12, false).expect("valid nesting");
        let mut sched: Scheduler<Ctx<'_>, Hierarchical> =
            Scheduler::with_policy(SchedulerConfig::default(), policy);
        for phase in 0..2 {
            for i in 0..64usize {
                let index = (i * 37 + phase) % 64;
                let hint = Hints::one(Addr::new(index as u64 * 256));
                sched.fork_traced(touch, index, 0, hint, &mut ctx.sink);
            }
            sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut c.sink);
        }
        let (live, writer) = ctx.sink.into_inner();
        writer.finish().expect("flush trace");
        live.into_inner()
    };

    let mut replayed: Live = TeeSink::new(SchedLogSink::new(), FootprintSink::new());
    TraceFileReader::new(buffer.as_slice())
        .replay(&mut replayed)
        .expect("replay trace");
    let (log, footprints) = replayed.into_inner();
    assert_eq!(log.log(), live_log.log());
    assert_eq!(footprints.into_phases(), live_footprints.into_phases());

    let count = |wanted: fn(&SchedEvent) -> bool| {
        live_log.log().events.iter().filter(|e| wanted(e)).count()
    };
    assert_eq!(count(|e| matches!(e, SchedEvent::DrainBegin { .. })), 2 * 4);
    assert_eq!(count(|e| matches!(e, SchedEvent::Dispatch { .. })), 2 * 64);
    assert_eq!(count(|e| matches!(e, SchedEvent::Barrier)), 2);
}

/// A deliberately tiny machine, so even short fuzz traces cause
/// evictions, write-backs and classifier traffic.
fn tiny_sim() -> SimSink {
    SimSink::new(
        MachineModel::r8000()
            .scaled_split(1.0 / 256.0, 1.0 / 1024.0)
            .expect("valid scaled machine")
            .hierarchy(),
    )
}

#[test]
fn records_at_the_top_of_the_address_space_replay_without_panicking() {
    // A trace is untrusted input: records whose (addr, size) span would
    // wrap past u64::MAX must clamp, not overflow, and the simulation
    // must complete. Valid-but-extreme records are an error-free case.
    let mut buffer: Vec<u8> = Vec::new();
    let mut writer = TraceFileWriter::new(&mut buffer);
    writer.access(Access::read(Addr::new(u64::MAX), 8));
    writer.access(Access::write(Addr::new(u64::MAX - 3), u32::MAX));
    writer.access(Access::read(Addr::new(u64::MAX - 4096), u32::MAX));
    writer.instructions(u64::MAX);
    writer.finish().expect("flush trace");

    let mut sinks = TeeSink::new(
        tiny_sim(),
        TeeSink::new(SchedLogSink::new(), FootprintSink::new()),
    );
    let events = TraceFileReader::new(buffer.as_slice())
        .replay(&mut sinks)
        .expect("extreme but well-formed records replay cleanly");
    assert_eq!(events, 4);
    let (sim, schedule) = sinks.into_inner();
    let report = sim.finish();
    assert_eq!(report.reads + report.writes, 3);
    assert_eq!(report.instructions, u64::MAX);
    // No run is open, so the references are ambient; each keeps the
    // words up to the top of the address space, none wraps to word 0.
    let ambient = schedule.second().ambient();
    assert!(ambient.write_words().contains(&(u64::MAX / 8)));
    assert_eq!(ambient.read_words().first(), Some(&((u64::MAX - 4096) / 8)));
}

proptest! {
    /// Replaying *arbitrary bytes* never panics: every outcome is
    /// either a clean end-of-trace or an `io::Error` (truncation,
    /// unknown tag). Whatever does decode is simulated, so any decoded
    /// address — including spans touching u64::MAX — must be handled by
    /// the hierarchy's saturating span arithmetic — and any decoded
    /// mark, with whatever ordinal, by the schedule-aware sinks teed
    /// beside it. (Sizes are clamped on the way in only to bound the
    /// *walk length* of this test: random bytes decode to
    /// multi-gigabyte spans every few records, and a footprint is by
    /// design linear in the bytes an access touches.)
    #[test]
    fn arbitrary_bytes_never_panic_the_replay_pipeline(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        struct ClampSink<S>(S);
        impl<S: TraceSink> TraceSink for ClampSink<S> {
            fn access(&mut self, access: Access) {
                self.0.access(Access {
                    size: access.size.min(4096),
                    ..access
                });
            }
            fn instructions(&mut self, count: u64) {
                self.0.instructions(count);
            }
            fn mark(&mut self, mark: SchedMark<'_>) {
                self.0.mark(mark);
            }
        }
        let mut sink = ClampSink(TeeSink::new(
            tiny_sim(),
            TeeSink::new(SchedLogSink::new(), FootprintSink::new()),
        ));
        let _ = TraceFileReader::new(bytes.as_slice()).replay(&mut sink);
        let (sim, schedule) = sink.0.into_inner();
        let report = sim.finish();
        // Every decoded access touches at least one L1 line.
        prop_assert!(report.l1.references() >= report.reads + report.writes);
        // Every dispatch the log kept opened a footprint.
        let (log, footprints) = schedule.into_inner();
        let dispatches = |e: &&SchedEvent| matches!(e, SchedEvent::Dispatch { .. });
        let footprints: usize = footprints.into_phases().iter().map(|p| p.dispatches.len()).sum();
        prop_assert!(log.log().events.iter().filter(dispatches).count() <= footprints);
    }

    /// A trace of arbitrary *well-formed* records round-trips: what the
    /// writer encodes, the reader replays verbatim, and the replayed
    /// simulation equals feeding the records to the simulator directly.
    #[test]
    fn arbitrary_records_round_trip_through_the_file_format(
        records in prop::collection::vec(
            (any::<u64>(), 1u32..=8192, any::<bool>()),
            0..512,
        ),
    ) {
        let accesses: Vec<Access> = records
            .iter()
            .map(|&(addr, size, is_write)| Access {
                addr: Addr::new(addr),
                size,
                kind: if is_write { AccessKind::Write } else { AccessKind::Read },
            })
            .collect();
        let mut buffer: Vec<u8> = Vec::new();
        let mut writer = TraceFileWriter::new(&mut buffer);
        for &access in &accesses {
            writer.access(access);
        }
        writer.finish().unwrap();

        let mut direct = tiny_sim();
        for &access in &accesses {
            direct.access(access);
        }
        let mut replayed = tiny_sim();
        let events = TraceFileReader::new(buffer.as_slice())
            .replay(&mut replayed)
            .expect("well-formed trace");
        prop_assert_eq!(events as usize, accesses.len());
        prop_assert_eq!(replayed.finish(), direct.finish());
    }
}

proptest! {
    /// The compact delta encoding is lossless over its full input
    /// domain: arbitrary well-formed records — including size 0,
    /// `u32::MAX` sizes, and address deltas that wrap through the top
    /// of the address space — decode back verbatim.
    #[test]
    fn arbitrary_records_round_trip_through_the_compact_codec(
        records in prop::collection::vec(
            (any::<u64>(), any::<u32>(), any::<bool>()),
            0..512,
        ),
    ) {
        let accesses: Vec<Access> = records
            .iter()
            .map(|&(addr, size, is_write)| Access {
                addr: Addr::new(addr),
                size,
                kind: if is_write { AccessKind::Write } else { AccessKind::Read },
            })
            .collect();
        let mut buf = CompactBuf::new();
        buf.extend(accesses.iter().copied());
        prop_assert_eq!(buf.len(), accesses.len());
        let decoded: Vec<Access> = buf.iter().collect();
        prop_assert_eq!(decoded, accesses);
    }

    /// Decoding *arbitrary bytes* as compact records never panics, and
    /// whatever does decode simulates cleanly.
    #[test]
    fn arbitrary_compact_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let machine = MachineModel::r8000().scaled_split(1.0 / 256.0, 1.0 / 1024.0).expect("valid scaled machine");
        let mut sim = SimSink::new(machine.hierarchy());
        for access in CompactIter::new(&bytes) {
            // Clamp only the walk length (random bytes decode to
            // multi-gigabyte spans every few records), exactly as the
            // trace-file fuzz above does.
            sim.access(Access { size: access.size.min(4096), ..access });
        }
        let report = sim.finish();
        prop_assert_eq!(report.classes.total(), report.l2.misses());
    }
}

#[test]
fn trace_bytes_are_deterministic() {
    let record = || {
        let mut buffer: Vec<u8> = Vec::new();
        let mut space = AddressSpace::new();
        let mut data = matmul::MatMulData::new(&mut space, 24, 9);
        let mut writer = TraceFileWriter::new(&mut buffer);
        matmul::interchanged(&mut data, &mut writer);
        writer.finish().unwrap();
        buffer
    };
    assert_eq!(record(), record());
}
