//! Binary trace files — the literal equivalent of the paper's Pixie
//! output ("by directly reading the binary Pixie trace output").
//!
//! The in-process [`SimSink`](crate::TraceSink) pipeline never needs a
//! trace file, but decoupled workflows do: record a workload once,
//! replay it through many cache configurations. The format is a flat
//! little-endian record stream:
//!
//! ```text
//! 0x01 addr:u64 size:u32          read
//! 0x02 addr:u64 size:u32          write
//! 0x03 count:u64                  instructions
//! 0x04 seq:u64                    thread dispatch (schedule mark)
//! 0x05 count:u8 addr:u64 × count  thread fork hints (schedule mark)
//! 0x06                            run end (schedule mark)
//! 0x07 unit:u64                   drain unit begin (schedule mark)
//! 0x08 unit:u64                   drain unit end (schedule mark)
//! ```
//!
//! The schedule-mark records (0x04–0x08) are the variants of
//! [`SchedMark`], one each, so a recorded trace of a *traced scheduler
//! run* replays losslessly into schedule-aware sinks such as
//! [`FootprintSink`](crate::FootprintSink) and
//! [`SchedLogSink`](crate::SchedLogSink). (Files written before the
//! drain-unit records existed hold no 0x07 / 0x08 and read unchanged.)
//! Hint records carry at most [`MAX_TRACE_HINTS`] addresses; longer
//! hint lists are truncated on write (no scheduler in this package
//! forks with more).
//!
//! # Word-alignment convention
//!
//! Traced containers split multi-word touches into machine-word
//! (8-byte) chunks whose boundaries fall on 8-byte boundaries of the
//! *address* (see [`TracedBuf`](crate::TracedBuf)): no access record
//! they produce straddles an 8-byte word, exactly as the instrumented
//! loads/stores of a real Pixie trace cannot. The format itself does
//! not enforce this — foreign or hand-written traces may carry
//! arbitrary `(addr, size)` pairs, including sizes that span many cache
//! lines and addresses near `u64::MAX`. Consumers must therefore treat
//! records as untrusted: the simulator clamps line spans instead of
//! trusting `addr + size` not to overflow, and
//! [`TraceFileReader::replay`] reports truncation or unknown tags as
//! errors, never panics. Mark ordinals are as untrusted as addresses: a
//! sink may ignore one it cannot use, but must not panic on it.

use crate::{Access, AccessKind, Addr, SchedMark, TraceSink};
use std::io::{self, BufReader, BufWriter, Read, Write};

const TAG_READ: u8 = 0x01;
const TAG_WRITE: u8 = 0x02;
const TAG_INSTR: u8 = 0x03;
const TAG_DISPATCH: u8 = 0x04;
const TAG_FORK: u8 = 0x05;
const TAG_RUN_END: u8 = 0x06;
const TAG_DRAIN_BEGIN: u8 = 0x07;
const TAG_DRAIN_END: u8 = 0x08;

/// Maximum hint addresses one 0x05 record can carry.
pub const MAX_TRACE_HINTS: usize = 8;

/// A [`TraceSink`] that serializes the trace to a writer.
///
/// # Examples
///
/// ```
/// use memtrace::{Addr, TraceFileReader, TraceFileWriter, TraceSink, VecSink};
///
/// let mut buffer = Vec::new();
/// {
///     let mut writer = TraceFileWriter::new(&mut buffer);
///     writer.read(Addr::new(0x100), 8);
///     writer.instructions(5);
///     writer.finish()?;
/// }
/// // Replay into any sink.
/// let mut sink = VecSink::new();
/// TraceFileReader::new(buffer.as_slice()).replay(&mut sink)?;
/// assert_eq!(sink.accesses().len(), 1);
/// assert_eq!(sink.instructions_executed(), 5);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TraceFileWriter<W: Write> {
    out: BufWriter<W>,
    /// First I/O error encountered (writing is infallible per event;
    /// check at `finish`).
    error: Option<io::Error>,
    events: u64,
}

impl<W: Write> TraceFileWriter<W> {
    /// Creates a writer over `out` (buffered internally; pass the raw
    /// writer).
    pub fn new(out: W) -> Self {
        TraceFileWriter {
            out: BufWriter::new(out),
            error: None,
            events: 0,
        }
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn emit(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.error = Some(e);
            } else {
                self.events += 1;
            }
        }
    }

    /// A tag followed by one little-endian `u64`: the layout of the
    /// instruction-count record and of every mark that is an ordinal.
    fn emit_u64(&mut self, tag: u8, value: u64) {
        let mut record = [0u8; 9];
        record[0] = tag;
        record[1..9].copy_from_slice(&value.to_le_bytes());
        self.emit(&record);
    }

    /// Flushes the stream and surfaces any deferred I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered while writing or flushing.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

fn encode_access(access: Access) -> [u8; 13] {
    let tag = match access.kind {
        AccessKind::Read => TAG_READ,
        AccessKind::Write => TAG_WRITE,
    };
    let mut record = [0u8; 13];
    record[0] = tag;
    record[1..9].copy_from_slice(&access.addr.raw().to_le_bytes());
    record[9..13].copy_from_slice(&access.size.to_le_bytes());
    record
}

impl<W: Write> TraceSink for TraceFileWriter<W> {
    fn access(&mut self, access: Access) {
        self.emit(&encode_access(access));
    }

    fn access_batch(&mut self, accesses: &[Access]) {
        // Encode the whole batch into one contiguous buffer: one
        // `write_all` on the buffered stream instead of one per record.
        let mut encoded = Vec::with_capacity(accesses.len() * 13);
        for &access in accesses {
            encoded.extend_from_slice(&encode_access(access));
        }
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(&encoded) {
                self.error = Some(e);
            } else {
                self.events += accesses.len() as u64;
            }
        }
    }

    fn instructions(&mut self, count: u64) {
        self.emit_u64(TAG_INSTR, count);
    }

    fn mark(&mut self, mark: SchedMark<'_>) {
        match mark {
            SchedMark::Fork(hints) => {
                let hints = &hints[..hints.len().min(MAX_TRACE_HINTS)];
                let mut record = Vec::with_capacity(2 + hints.len() * 8);
                record.push(TAG_FORK);
                record.push(hints.len() as u8);
                for addr in hints {
                    record.extend_from_slice(&addr.raw().to_le_bytes());
                }
                self.emit(&record);
            }
            SchedMark::DrainBegin(unit) => self.emit_u64(TAG_DRAIN_BEGIN, unit),
            SchedMark::Dispatch(seq) => self.emit_u64(TAG_DISPATCH, seq),
            SchedMark::DrainEnd(unit) => self.emit_u64(TAG_DRAIN_END, unit),
            SchedMark::RunEnd => self.emit(&[TAG_RUN_END]),
        }
    }
}

/// Reads a trace file back into a [`TraceSink`].
#[derive(Debug)]
pub struct TraceFileReader<R: Read> {
    input: BufReader<R>,
}

impl<R: Read> TraceFileReader<R> {
    /// Creates a reader over `input` (buffered internally).
    pub fn new(input: R) -> Self {
        TraceFileReader {
            input: BufReader::new(input),
        }
    }

    fn read_u64(&mut self) -> io::Result<u64> {
        let mut payload = [0u8; 8];
        self.input.read_exact(&mut payload)?;
        Ok(u64::from_le_bytes(payload))
    }

    /// Replays the whole trace into `sink`, returning the event count.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a truncated record, or an
    /// unknown tag; the records before it have been delivered.
    pub fn replay<S: TraceSink>(mut self, sink: &mut S) -> io::Result<u64> {
        let mut events = 0;
        loop {
            let mut tag = [0u8; 1];
            match self.input.read_exact(&mut tag) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(events),
                Err(e) => return Err(e),
            }
            match tag[0] {
                TAG_READ | TAG_WRITE => {
                    let mut payload = [0u8; 12];
                    self.input.read_exact(&mut payload)?;
                    let addr = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
                    let size = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
                    let addr = Addr::new(addr);
                    sink.access(if tag[0] == TAG_READ {
                        Access::read(addr, size)
                    } else {
                        Access::write(addr, size)
                    });
                }
                TAG_INSTR => sink.instructions(self.read_u64()?),
                TAG_DISPATCH => sink.mark(SchedMark::Dispatch(self.read_u64()?)),
                TAG_FORK => {
                    let mut count = [0u8; 1];
                    self.input.read_exact(&mut count)?;
                    let count = usize::from(count[0]);
                    if count > MAX_TRACE_HINTS {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "hint record carries {count} addresses (max {MAX_TRACE_HINTS})"
                            ),
                        ));
                    }
                    let mut hints = [Addr::NULL; MAX_TRACE_HINTS];
                    for slot in &mut hints[..count] {
                        *slot = Addr::new(self.read_u64()?);
                    }
                    sink.mark(SchedMark::Fork(&hints[..count]));
                }
                TAG_RUN_END => sink.mark(SchedMark::RunEnd),
                TAG_DRAIN_BEGIN => sink.mark(SchedMark::DrainBegin(self.read_u64()?)),
                TAG_DRAIN_END => sink.mark(SchedMark::DrainEnd(self.read_u64()?)),
                unknown => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown trace record tag {unknown:#04x}"),
                    ));
                }
            }
            events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, VecSink};

    #[test]
    fn roundtrip_preserves_everything() {
        let mut buffer = Vec::new();
        {
            let mut writer = TraceFileWriter::new(&mut buffer);
            writer.read(Addr::new(0x1000), 8);
            writer.write(Addr::new(0x2000), 4);
            writer.instructions(42);
            writer.read(Addr::new(u64::MAX - 7), 1);
            assert_eq!(writer.events(), 4);
            writer.finish().unwrap();
        }
        let mut sink = VecSink::new();
        let events = TraceFileReader::new(buffer.as_slice())
            .replay(&mut sink)
            .unwrap();
        assert_eq!(events, 4);
        assert_eq!(
            sink.accesses(),
            &[
                Access::read(Addr::new(0x1000), 8),
                Access::write(Addr::new(0x2000), 4),
                Access::read(Addr::new(u64::MAX - 7), 1),
            ]
        );
        assert_eq!(sink.instructions_executed(), 42);
    }

    #[test]
    fn empty_trace_replays_cleanly() {
        let buffer: Vec<u8> = Vec::new();
        let mut sink = CountingSink::new();
        let events = TraceFileReader::new(buffer.as_slice())
            .replay(&mut sink)
            .unwrap();
        assert_eq!(events, 0);
        assert_eq!(sink.data_references(), 0);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buffer = Vec::new();
        {
            let mut writer = TraceFileWriter::new(&mut buffer);
            writer.read(Addr::new(0x1000), 8);
            writer.finish().unwrap();
        }
        buffer.truncate(buffer.len() - 3);
        let err = TraceFileReader::new(buffer.as_slice())
            .replay(&mut CountingSink::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let buffer = vec![0xffu8, 0, 0];
        let err = TraceFileReader::new(buffer.as_slice())
            .replay(&mut CountingSink::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("0xff"));
    }

    #[test]
    fn schedule_events_roundtrip_into_footprints() {
        use crate::FootprintSink;

        let mut buffer = Vec::new();
        {
            let mut writer = TraceFileWriter::new(&mut buffer);
            writer.mark(SchedMark::Fork(&[Addr::new(0x100), Addr::new(0x200)]));
            writer.mark(SchedMark::Fork(&[]));
            writer.mark(SchedMark::Dispatch(0));
            writer.write(Addr::new(0x100), 8);
            writer.mark(SchedMark::Dispatch(1));
            writer.read(Addr::new(0x300), 8);
            writer.mark(SchedMark::RunEnd);
            assert_eq!(writer.events(), 7);
            writer.finish().unwrap();
        }
        let mut sink = FootprintSink::new();
        let events = TraceFileReader::new(buffer.as_slice())
            .replay(&mut sink)
            .unwrap();
        assert_eq!(events, 7);
        let phases = sink.into_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].hints[0], vec![Addr::new(0x100), Addr::new(0x200)]);
        assert_eq!(phases[0].hints[1], Vec::<Addr>::new());
        assert!(phases[0].dispatches[0].write_words().contains(&(0x100 / 8)));
        assert!(phases[0].dispatches[1].read_words().contains(&(0x300 / 8)));
    }

    #[test]
    fn oversized_hint_list_truncates_on_write() {
        let hints: Vec<Addr> = (0..12).map(|i| Addr::new(0x1000 + i * 8)).collect();
        let mut buffer = Vec::new();
        {
            let mut writer = TraceFileWriter::new(&mut buffer);
            writer.mark(SchedMark::Fork(&hints));
            writer.finish().unwrap();
        }
        let mut sink = crate::FootprintSink::new();
        TraceFileReader::new(buffer.as_slice())
            .replay(&mut sink)
            .unwrap();
        assert_eq!(sink.into_phases()[0].hints, [&hints[..MAX_TRACE_HINTS]]);
    }

    /// Marks are stored verbatim, drain units included: what a live
    /// schedule-aware sink saw is what a replay of the file delivers.
    #[test]
    fn every_mark_round_trips() {
        use crate::{SchedLogSink, TeeSink};
        let mut buffer = Vec::new();
        let mut tee = TeeSink::new(SchedLogSink::new(), TraceFileWriter::new(&mut buffer));
        tee.mark(SchedMark::Fork(&[Addr::new(0x100)]));
        tee.mark(SchedMark::Fork(&[]));
        for unit in 0..2 {
            tee.mark(SchedMark::DrainBegin(unit));
            tee.mark(SchedMark::Dispatch(unit));
            tee.mark(SchedMark::DrainEnd(unit));
        }
        tee.mark(SchedMark::RunEnd);
        let (live, writer) = tee.into_inner();
        writer.finish().unwrap();
        let mut replayed = SchedLogSink::new();
        let events = TraceFileReader::new(buffer.as_slice())
            .replay(&mut replayed)
            .unwrap();
        assert_eq!(events, 9);
        assert_eq!(replayed.log(), live.log());
        assert_eq!(live.log().len(), 9);
    }

    /// A mark's ordinal is input like any other field: the widest
    /// dispatch ordinal, a dispatch sequence that starts at 7, and a
    /// drain unit past `u32` all replay into the schedule-aware sinks.
    #[test]
    fn hostile_mark_ordinals_replay_without_panicking() {
        use crate::{FootprintSink, SchedEvent, SchedLogSink, TeeSink};
        let replay = |bytes: &[u8]| {
            let mut tee = TeeSink::new(SchedLogSink::new(), FootprintSink::new());
            TraceFileReader::new(bytes).replay(&mut tee).unwrap();
            let (log, footprints) = tee.into_inner();
            (log.into_log().events, footprints.into_phases())
        };
        let record = |tag: u8, ordinal: u64| {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&ordinal.to_le_bytes());
            bytes
        };

        let (events, phases) = replay(&record(TAG_DISPATCH, u64::MAX));
        assert_eq!(events, [], "no u32 names this dispatch");
        assert_eq!(phases[0].dispatches.len(), 1);

        let mut gap = record(TAG_DISPATCH, 7);
        gap.extend_from_slice(&encode_access(Access::write(Addr::new(0x40), 8)));
        let (events, phases) = replay(&gap);
        assert_eq!(events, [SchedEvent::Dispatch { actor: 0, fork: 7 }]);
        assert!(phases[0].dispatches[0].write_words().contains(&(0x40 / 8)));

        let (events, phases) = replay(&record(TAG_DRAIN_BEGIN, 1 << 32));
        assert_eq!(events, []);
        assert!(phases.is_empty());
    }

    #[test]
    fn corrupt_hint_count_is_an_error() {
        let buffer = vec![TAG_FORK, 200];
        let err = TraceFileReader::new(buffer.as_slice())
            .replay(&mut CountingSink::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k-event loop is too slow under the interpreter")]
    fn large_trace_roundtrips_by_count() {
        let mut buffer = Vec::new();
        {
            let mut writer = TraceFileWriter::new(&mut buffer);
            for i in 0..10_000u64 {
                writer.read(Addr::new(i * 8), 8);
                if i % 10 == 0 {
                    writer.instructions(3);
                }
            }
            writer.finish().unwrap();
        }
        let mut sink = CountingSink::new();
        TraceFileReader::new(buffer.as_slice())
            .replay(&mut sink)
            .unwrap();
        assert_eq!(sink.reads(), 10_000);
        assert_eq!(sink.instructions_executed(), 3_000);
    }
}
