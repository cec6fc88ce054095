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

/// Runs with short word-by-word walks of ordinary accesses (a third of
/// them writes, some spanning lines) before each.
pub fn arb_program() -> impl Strategy<Value = Vec<Step>> {
    const SIZES: [u32; 5] = [0, 4, 8, 24, 100];
    let walk = (0u64..(32 << 10), 0usize..SIZES.len(), 0u32..3, 0u64..4);
    prop::collection::vec((walk, arb_run()), 1..60).prop_map(|segments| {
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
