//! Generated reference programs with run records spliced between
//! ordinary accesses, for `hierarchy_oracle.rs`.

use memtrace::{Access, AccessKind, Addr, Stream, StreamRun, TraceSink};
use proptest::prelude::*;

/// One step of a program.
#[derive(Clone, Debug)]
pub enum Step {
    /// An ordinary reference.
    Access(Access),
    /// A run record, owning what a [`StreamRun`] borrows.
    Run {
        streams: Vec<Stream>,
        group: u32,
        rounds: u64,
        instructions: u64,
    },
}

/// How a program's run records reach the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Through [`TraceSink::run`].
    Runs,
    /// Reference by reference through [`TraceSink::access`], the
    /// instructions in one call after them.
    Elements,
}

/// Feeds `program` to `sink`.
pub fn feed<S: TraceSink>(program: &[Step], delivery: Delivery, sink: &mut S) {
    for step in program {
        match step {
            Step::Access(access) => sink.access(*access),
            Step::Run {
                streams,
                group,
                rounds,
                instructions,
            } => {
                let run = StreamRun::new(streams, *group, *rounds, *instructions);
                if delivery == Delivery::Runs {
                    sink.run(&run);
                    continue;
                }
                for access in run.accesses(0..*rounds) {
                    sink.access(access);
                }
                sink.instructions(rounds * instructions);
            }
        }
    }
}

fn kind(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// One to four streams, 1–4 elements a round, up to 48 rounds. Strides
/// are 0, a word, three words, a 16- or 32-byte line and a page, sizes
/// 0 to 24 bytes whatever the stride; a stream starts anywhere in
/// 32 KiB (so mid-line, and runs cross lines and pages), in a hot 2 KiB
/// window, a few words from the stream before it (two streams on one
/// line), or a multiple of 1 KiB from it (the same set of every L1 the
/// machines here have, up to 4 KiB).
fn arb_run() -> impl Strategy<Value = Step> {
    const STRIDES: [u64; 6] = [0, 8, 24, 16, 32, 4096];
    const SIZES: [u32; 6] = [0, 1, 4, 8, 8, 24];
    let stream = (
        (0u32..4, 0u64..(32 << 10), 0u64..5),
        0usize..STRIDES.len(),
        0usize..SIZES.len(),
        0u32..3,
    );
    (
        prop::collection::vec(stream, 1..5),
        1u32..5,
        1u64..49,
        0u64..9,
    )
        .prop_map(|(shapes, group, rounds, instructions)| {
            let mut streams: Vec<Stream> = Vec::new();
            for ((place, anywhere, near), stride, size, write) in shapes {
                let previous = streams.last().map_or(anywhere, |s| s.base.raw());
                let base = match place {
                    0 => anywhere,
                    1 => anywhere % 2048,
                    2 => previous + 8 * near,
                    _ => previous + 1024 * (near + 1) + 8 * (anywhere % 3),
                };
                streams.push(Stream {
                    base: Addr::new(base),
                    stride: STRIDES[stride],
                    size: SIZES[size],
                    kind: kind(write == 0),
                });
            }
            Step::Run {
                streams,
                group,
                rounds,
                instructions,
            }
        })
}

/// One-stream records of one element a round, the shape a scan over
/// whole lines has: a stride of 1 to 4 lines of 16 or 32 bytes (a line
/// stride of every L1 here, or of those with 16-byte lines only), up to
/// 160 rounds, reads or writes, an element of 0 to 24 bytes at any
/// offset in the line (so some straddle it), starting anywhere in
/// 32 KiB, in a hot 2 KiB window, or so that the run ends in the last
/// 64 bytes of the address space (its last element's bytes running
/// past the top at times).
fn arb_scan() -> impl Strategy<Value = Step> {
    const SIZES: [u32; 6] = [0, 1, 8, 8, 16, 24];
    let shape = (1u64..5, 4u32..6, 0usize..SIZES.len(), 0u32..2);
    (shape, 0u64..(32 << 10), 0u32..4, 1u64..161, 0u64..9).prop_map(
        |((lines, line_bits, size, write), anywhere, place, rounds, instructions)| {
            let stride = lines << line_bits;
            let base = match place {
                0 => u64::MAX - (rounds - 1) * stride - 63 + anywhere % 64,
                1 => anywhere % 2048,
                _ => anywhere,
            };
            Step::Run {
                streams: vec![Stream {
                    base: Addr::new(base),
                    stride,
                    size: SIZES[size],
                    kind: kind(write == 0),
                }],
                group: 1,
                rounds,
                instructions,
            }
        },
    )
}

/// Runs with short word-by-word walks of ordinary accesses (a third of
/// them writes, some spanning lines) before each.
pub fn arb_program() -> impl Strategy<Value = Vec<Step>> {
    program_of(arb_run())
}

/// Programs of line-stride scans (see `arb_scan`) between walks. About
/// a third of the scans that follow an access are moved to start at its
/// address, so their first element is on the line the L1 touched last,
/// and about a third of the walks that follow a scan start at its first
/// element, whose line the scan may since have evicted. A walk moved
/// up to a scan at the top of the address space may run past it, which
/// the simulator and the oracle clamp; a scan is moved only where its
/// last element's address stays below the top.
pub fn arb_scan_program() -> impl Strategy<Value = Vec<Step>> {
    program_of(arb_scan()).prop_map(|mut program| {
        for at in 1..program.len() {
            let (before, after) = program.split_at_mut(at);
            match (&mut before[at - 1], &mut after[0]) {
                (
                    Step::Access(last),
                    Step::Run {
                        streams, rounds, ..
                    },
                ) if streams[0].base.raw() % 3 == 0 => {
                    let span = (*rounds - 1) * streams[0].stride;
                    if last.addr.raw().checked_add(span).is_some() {
                        streams[0].base = last.addr;
                    }
                }
                (Step::Run { streams, .. }, Step::Access(next)) if next.addr.raw() % 3 == 0 => {
                    next.addr = streams[0].base;
                }
                _ => {}
            }
        }
        program
    })
}

/// Records that tile the L1 line of the machines here whose lines are
/// 32 bytes, and of many with 16: one to eight streams of one stride
/// of 8, 16 or 32 bytes, a group that makes a round of at most 32
/// bytes, and elements of 0 to 8 bytes, each at an offset that keeps
/// its group inside the round's window. Stream 0's window is anywhere
/// in 32 KiB; each later stream's is anywhere, in a hot 2 KiB window,
/// 0 to 7 windows after the stream before it (on its line, or on the
/// next, at another phase), or 1 or 2 KiB from it give or take a line
/// or two: in the same set of every L1 here, or a neighbouring one,
/// where a record must fall back to the epochs. A third of the streams
/// write.
fn arb_tiling() -> impl Strategy<Value = Step> {
    const SHAPES: [(u64, u32); 6] = [(8, 1), (8, 2), (8, 4), (16, 1), (16, 2), (32, 1)];
    const SIZES: [u32; 4] = [0, 1, 4, 8];
    let stream = (
        (0u32..4, 0u64..(32 << 10), 0u64..8),
        (0usize..SIZES.len(), 0u64..8, 0u32..3),
    );
    (
        0usize..SHAPES.len(),
        prop::collection::vec(stream, 1..9),
        1u64..161,
        0u64..9,
    )
        .prop_map(|(shape, shapes, rounds, instructions)| {
            let (stride, group) = SHAPES[shape];
            let q = stride * u64::from(group);
            let mut streams: Vec<Stream> = Vec::new();
            for ((place, anywhere, near), (size, offset, write)) in shapes {
                let previous = streams.last().map_or(anywhere, |s| s.base.raw());
                let window = match place {
                    0 => anywhere,
                    1 => anywhere % 2048,
                    2 => previous + q * near,
                    _ => previous + 1024 * (near % 2 + 1) + 16 * (near / 2) - 32,
                } / q
                    * q;
                let size = SIZES[size];
                streams.push(Stream {
                    base: Addr::new(window + offset % (stride - u64::from(size.max(1)) + 1)),
                    stride,
                    size,
                    kind: kind(write == 0),
                });
            }
            Step::Run {
                streams,
                group,
                rounds,
                instructions,
            }
        })
}

/// Programs of line-tiling records (see `arb_tiling`) between walks.
pub fn arb_tiling_program() -> impl Strategy<Value = Vec<Step>> {
    program_of(arb_tiling())
}

/// Up to 59 segments: a walk of 0 to 3 ordinary accesses, then a run.
fn program_of<R: Strategy<Value = Step>>(run: R) -> impl Strategy<Value = Vec<Step>> {
    const SIZES: [u32; 5] = [0, 4, 8, 24, 100];
    let walk = (0u64..(32 << 10), 0usize..SIZES.len(), 0u32..3, 0u64..4);
    prop::collection::vec((walk, run), 1..60).prop_map(|segments| {
        let mut program = Vec::new();
        for ((start, size, write, steps), run) in segments {
            program.extend((0..steps).map(|step| {
                Step::Access(Access {
                    addr: Addr::new(start + 8 * step),
                    size: SIZES[size],
                    kind: kind(write == 0),
                })
            }));
            program.push(run);
        }
        program
    })
}
