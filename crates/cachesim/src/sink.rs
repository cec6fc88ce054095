//! Online simulation as a trace sink.

use crate::{Hierarchy, SimReport};
use memtrace::{Access, AccessKind, StreamRun, TraceSink};

/// A [`TraceSink`] that drives a cache [`Hierarchy`] online.
///
/// This replaces the paper's Pixie-trace-file → DineroIII pipeline with
/// direct streaming: the workload's traced containers emit accesses
/// straight into the simulator, so paper-scale reference streams never
/// need to be materialized.
///
/// # Examples
///
/// ```
/// use cachesim::{MachineModel, SimSink};
/// use memtrace::{Addr, TraceSink};
///
/// let mut sim = SimSink::new(MachineModel::r10000().hierarchy());
/// sim.read(Addr::new(0x1000_0000), 8);
/// sim.instructions(4);
/// let report = sim.finish();
/// assert_eq!(report.reads, 1);
/// assert_eq!(report.instructions, 4);
/// ```
#[derive(Clone, Debug)]
pub struct SimSink {
    hierarchy: Hierarchy,
    instructions: u64,
    reads: u64,
    writes: u64,
    threads: u64,
}

impl SimSink {
    /// Creates a sink over an empty hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        SimSink {
            hierarchy,
            instructions: 0,
            reads: 0,
            writes: 0,
            threads: 0,
        }
    }

    /// Records that `count` threads were forked and run during the
    /// measured region (drives the timing model's overhead term).
    pub fn add_threads(&mut self, count: u64) {
        self.threads += count;
    }

    /// Enables or disables the hierarchy's fast lookup paths; reports
    /// are bit-identical either way (see [`Hierarchy::set_fast_path`]).
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.hierarchy.set_fast_path(enabled);
    }

    /// Whether the fast lookup paths are enabled.
    pub fn fast_path(&self) -> bool {
        self.hierarchy.fast_path()
    }

    /// The underlying hierarchy (e.g. for mid-run inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Zeroes all counters and cache statistics while keeping cache
    /// contents warm — call after initialization, before the measured
    /// region, to mirror the paper's "results exclude program
    /// initialization costs".
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.instructions = 0;
        self.reads = 0;
        self.writes = 0;
        self.threads = 0;
    }

    /// Snapshots the current statistics.
    pub fn report(&self) -> SimReport {
        let mut report = SimReport {
            instructions: self.instructions,
            reads: self.reads,
            writes: self.writes,
            threads: self.threads,
            ..SimReport::default()
        };
        self.hierarchy.add_to(&mut report);
        report
    }

    /// Consumes the sink and returns the final statistics.
    pub fn finish(self) -> SimReport {
        self.report()
    }

    /// Flushes the hierarchy's probe observations (per-level
    /// hit/rehit/miss counts, modelled miss-latency histogram,
    /// classifier verdicts) into a profile for report embedding. Kept
    /// separate from [`report`](Self::report) on purpose: `SimReport`
    /// is `PartialEq`-compared by the fast≡slow differential suite,
    /// and probe counts legitimately differ between those paths.
    pub fn run_profile(&self) -> probe::RunProfile {
        self.hierarchy.run_profile()
    }
}

impl TraceSink for SimSink {
    #[inline]
    fn access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.hierarchy.access(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        // Count reads/writes in one pass, then drive the hierarchy
        // without re-dispatching through the trait per element. Exactly
        // equivalent to element-wise delivery.
        let mut writes = 0u64;
        for access in accesses {
            writes += u64::from(access.kind == AccessKind::Write);
        }
        self.writes += writes;
        self.reads += accesses.len() as u64 - writes;
        for &access in accesses {
            self.hierarchy.access(access);
        }
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }

    /// Counts the record's references and instructions in O(streams)
    /// and hands it to the hierarchy, which replays a record whose
    /// streams tile the L1 line as a k-stream scan, one real L1
    /// reference a stream a line, and any other record per L1-line
    /// epoch (see DESIGN.md §3.3.1) — exactly equivalent to the default
    /// expansion.
    #[inline]
    fn run(&mut self, run: &StreamRun<'_>) {
        for stream in run.streams() {
            match stream.kind {
                AccessKind::Read => self.reads += run.elements_per_stream(),
                AccessKind::Write => self.writes += run.elements_per_stream(),
            }
        }
        self.instructions += run.rounds() * run.instructions();
        self.hierarchy.run(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, HierarchyConfig, MachineModel};
    use memtrace::{Addr, Stream};

    #[test]
    fn counts_match_hierarchy() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        for off in (0..4096).step_by(8) {
            sim.read(Addr::new(0x1000_0000 + off), 8);
        }
        sim.write(Addr::new(0x1000_0000), 8);
        sim.instructions(100);
        let r = sim.finish();
        assert_eq!(r.reads, 512);
        assert_eq!(r.writes, 1);
        assert_eq!(r.instructions, 100);
        assert_eq!(r.l1.references(), 513);
        assert_eq!(r.classes.total(), r.l2.misses());
    }

    #[test]
    fn reset_stats_starts_measured_region() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        // "Initialization": touch everything once (cold misses).
        for off in (0..4096).step_by(8) {
            sim.write(Addr::new(off), 8);
        }
        sim.reset_stats();
        // Measured region: everything is L2-warm.
        for off in (0..4096).step_by(8) {
            sim.read(Addr::new(off), 8);
        }
        let r = sim.finish();
        assert_eq!(r.l2.misses(), 0, "no compulsory misses in measured region");
        assert_eq!(r.classes.compulsory, 0);
        assert_eq!(r.writes, 0, "init writes excluded");
    }

    #[test]
    fn batch_delivery_equals_element_wise() {
        let mut one = SimSink::new(MachineModel::r8000().hierarchy());
        let mut many = SimSink::new(MachineModel::r8000().hierarchy());
        let accesses: Vec<Access> = (0..1000u64)
            .map(|i| {
                if i % 3 == 0 {
                    Access::write(Addr::new(i * 16), 8)
                } else {
                    Access::read(Addr::new((i * 56) % 4096), 8)
                }
            })
            .collect();
        for &access in &accesses {
            one.access(access);
        }
        // Ragged chunks so batch boundaries land everywhere.
        for chunk in accesses.chunks(13) {
            many.access_batch(chunk);
        }
        assert_eq!(one.finish(), many.finish());
    }

    /// `run` into a fresh sink, and the same references one by one into
    /// another, with the accesses `around` it fed to both before and
    /// after it (so a wrong last line or set order left by the record
    /// shows). A one-stream record with the fast paths on must also
    /// leave every level's probe section — which fast path served the
    /// hits — as its expansion does.
    fn run_and_expansion(
        config: HierarchyConfig,
        fast: bool,
        around: &[Access],
        run: &StreamRun<'_>,
    ) -> (SimReport, SimReport) {
        let mut whole = SimSink::new(Hierarchy::new(config));
        let mut expanded = SimSink::new(Hierarchy::new(config));
        for sink in [&mut whole, &mut expanded] {
            sink.set_fast_path(fast);
            sink.access_batch(around);
        }
        whole.run(run);
        for access in run.accesses(0..run.rounds()) {
            expanded.access(access);
        }
        expanded.instructions(run.rounds() * run.instructions());
        for sink in [&mut whole, &mut expanded] {
            sink.access_batch(around);
        }
        if fast && run.streams().len() == 1 {
            assert_eq!(whole.run_profile(), expanded.run_profile(), "{run:?}");
        }
        (whole.finish(), expanded.finish())
    }

    fn column(base: u64, kind: AccessKind) -> Stream {
        Stream {
            base: Addr::new(base),
            stride: 8,
            size: 8,
            kind,
        }
    }

    #[test]
    fn a_run_over_disjoint_lines_misses_once_a_line_and_counts_the_rest() {
        // 256 B direct-mapped L1, 32 B lines: the three columns start
        // mid-line in three different sets and never meet.
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let streams = [
            column(0x1008, AccessKind::Read),
            column(0x2050, AccessKind::Read),
            column(0x2050, AccessKind::Write),
        ];
        let run = StreamRun::new(&streams, 1, 9, 5);
        for fast in [true, false] {
            let (whole, expanded) = run_and_expansion(config, fast, &[], &run);
            assert_eq!(whole, expanded, "fast {fast}");
            assert_eq!((whole.reads, whole.writes, whole.instructions), (18, 9, 45));
            // 72 bytes from 0x1008 touch lines 0x1000..0x1040: three;
            // from 0x2050 lines 0x2040..0x2080: three, read then written.
            assert_eq!((whole.l1.read_misses, whole.l1.write_misses), (6, 0));
        }
    }

    #[test]
    fn streams_that_evict_each_other_are_expanded_and_miss_every_round() {
        // Two columns 256 B apart alias in every set of a 256 B
        // direct-mapped L1: each round's first elements evict each
        // other, which no counted hit could do — an epoch (two rounds
        // of two 8-byte elements in a 32 B line) has one first element
        // a stream.
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let streams = [
            column(0x1000, AccessKind::Write),
            column(0x1100, AccessKind::Read),
        ];
        let run = StreamRun::new(&streams, 2, 16, 7);
        let (whole, expanded) = run_and_expansion(config, true, &[], &run);
        assert_eq!(whole, expanded);
        assert_eq!(whole.l1.misses(), 2 * 16, "a miss a stream a round");
        assert_eq!(whole.l1.writebacks, 16, "the written line, every time");
        // In a 2-way L1 of the same size they live side by side.
        let two_way = HierarchyConfig::new(CacheConfig::new(256, 32, 2).unwrap(), config.l2);
        let (whole, expanded) = run_and_expansion(two_way, true, &[], &run);
        assert_eq!(whole, expanded);
        assert_eq!(whole.l1.misses(), 2 * 8, "a miss a stream an epoch");
    }

    /// One stream stepping whole L1 lines is replayed as a scan; every
    /// variant must equal its expansion, fast paths on and off, probe
    /// sections included: strides of 1 to 4 lines, elements that fit
    /// their line at any offset or straddle it (the epoch fallback),
    /// reads and writes after accesses that leave dirty lines to
    /// evict, a first element on the line the L1 touched last, runs
    /// that end at the top of the address space, and direct-mapped,
    /// 2-way and three-level machines.
    #[test]
    fn line_stride_runs_equal_their_expansion() {
        let l1 = |assoc| CacheConfig::new(256, 32, assoc).unwrap();
        let l2 = CacheConfig::new(1024, 64, 2).unwrap();
        let machines = [
            HierarchyConfig::new(l1(1), l2),
            HierarchyConfig::new(l1(2), l2),
            HierarchyConfig::new3(l1(1), l2, CacheConfig::new(4096, 128, 4).unwrap()),
        ];
        // Writes over 768 bytes, so the L1 is dirty, between two reads
        // of 0x1040's line, where some runs start: before a run it is
        // the L1's last line, and after it the first one referenced.
        let read = Access::read(Addr::new(0x1040), 8);
        let writes = (0..96).map(|i| Access::write(Addr::new(i * 8), 8));
        let around: Vec<Access> = [read].into_iter().chain(writes).chain([read]).collect();
        let (mut writebacks, mut l2_hits) = (0, 0);
        for config in machines {
            for lines in 1..=4u64 {
                let stride = 32 * lines;
                for (offset, size) in [(0, 8), (8, 8), (24, 8), (0, 32), (0, 0), (28, 8), (16, 24)]
                {
                    for kind in [AccessKind::Read, AccessKind::Write] {
                        for (base, rounds) in [
                            (0x1040, 1),
                            (0x1040, 48),
                            (0x1100, 100),
                            (u64::MAX - 47 * stride - 31, 48),
                        ] {
                            let streams = [Stream {
                                base: Addr::new((base & !31) + offset),
                                stride,
                                size,
                                kind,
                            }];
                            let run = StreamRun::new(&streams, 1, rounds, 3);
                            for fast in [true, false] {
                                let (whole, expanded) =
                                    run_and_expansion(config, fast, &around, &run);
                                assert_eq!(whole, expanded, "{run:?}, fast paths {fast}");
                                writebacks += whole.l1.writebacks;
                                l2_hits += whole.l2.hits();
                            }
                        }
                    }
                }
            }
        }
        assert!(writebacks > 0 && l2_hits > 0);
    }

    /// Records that tile the L1 line are scanned; every variant must
    /// equal its expansion, fast paths on and off, probe sections
    /// included for one stream: 1 to 8 streams of one stride of 8, 16
    /// or 32 bytes with a group whose round divides the 32-byte line,
    /// streams 0 to 40 bytes apart (on one line at different phases, on
    /// adjacent lines, reading and writing one element), write streams,
    /// records ending exactly at the top of the address space, and
    /// direct-mapped, 2-way and three-level machines. A pair of streams
    /// one set span apart, or a line either side of that, must fall
    /// back to the epochs.
    #[test]
    fn tiling_runs_equal_their_expansion() {
        let l1 = |assoc| CacheConfig::new(256, 32, assoc).unwrap();
        let l2 = CacheConfig::new(1024, 64, 2).unwrap();
        let machines = [
            HierarchyConfig::new(l1(1), l2),
            HierarchyConfig::new(l1(2), l2),
            HierarchyConfig::new3(l1(1), l2, CacheConfig::new(4096, 128, 4).unwrap()),
        ];
        // As in `line_stride_runs_equal_their_expansion`: a dirty L1,
        // its last line the one some records start on.
        let read = Access::read(Addr::new(0x1040), 8);
        let writes = (0..96).map(|i| Access::write(Addr::new(i * 8), 8));
        let around: Vec<Access> = [read].into_iter().chain(writes).chain([read]).collect();
        let (mut tiled, mut fell_back) = (0, 0);
        for config in machines {
            let tiles = |run: &StreamRun<'_>| Hierarchy::new(config).tiles_line(run).is_some();
            for (stride, group) in [(8, 1), (8, 2), (8, 4), (16, 1), (16, 2), (32, 1)] {
                let q = stride * u64::from(group);
                for count in 1..=8u64 {
                    for spacing in [0, 8, 16, 24, 32, 40] {
                        for rounds in [1, 7, 48] {
                            let top = 0u64.wrapping_sub(rounds * q + (count - 1) * spacing);
                            for anchor in [0x1040, 0x1ff8, top] {
                                let streams: Vec<Stream> = (0..count)
                                    .map(|i| Stream {
                                        base: Addr::new(anchor + i * spacing),
                                        stride,
                                        size: 8,
                                        kind: if (i + count) % 3 == 0 {
                                            AccessKind::Write
                                        } else {
                                            AccessKind::Read
                                        },
                                    })
                                    .collect();
                                let run = StreamRun::new(&streams, group, rounds, 2);
                                if tiles(&run) {
                                    tiled += 1;
                                } else {
                                    fell_back += 1;
                                }
                                for fast in [true, false] {
                                    let (whole, expanded) =
                                        run_and_expansion(config, fast, &around, &run);
                                    assert_eq!(whole, expanded, "{run:?}, fast paths {fast}");
                                }
                            }
                        }
                    }
                }
            }
            // Two streams one set span apart share every set; a line
            // either side, they do every other round.
            let span = config.l1d.size() / u64::from(config.l1d.assoc());
            for apart in [span - 32, span, span + 32, span + 64] {
                let streams = [
                    column(0x1000, AccessKind::Write),
                    column(0x1000 + apart, AccessKind::Read),
                ];
                let run = StreamRun::new(&streams, 1, 40, 1);
                assert_eq!(tiles(&run), apart == span + 64, "{apart} bytes apart");
                let (whole, expanded) = run_and_expansion(config, true, &around, &run);
                assert_eq!(whole, expanded, "{apart} bytes apart");
            }
        }
        // Most of them tile; the wider spreads of many streams do not.
        assert!(
            tiled > 1000 && fell_back > 100,
            "{tiled} tiled, {fell_back} not"
        );
    }

    #[test]
    fn fast_path_knob_reaches_the_hierarchy() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        assert!(sim.fast_path());
        sim.set_fast_path(false);
        assert!(!sim.fast_path());
        assert!(!sim.hierarchy().fast_path());
    }

    #[test]
    fn add_threads_accumulates() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        sim.add_threads(100);
        sim.add_threads(23);
        assert_eq!(sim.report().threads, 123);
    }
}
