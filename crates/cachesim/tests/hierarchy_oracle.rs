//! A whole-hierarchy oracle, independent of every engine path.
//!
//! `tests/fastpath_equivalence.rs` compares the fast and slow paths
//! with *each other*: a bug they share passes it. This file
//! states the simulator's semantics a second time, as dumbly as
//! possible — a `Vec`-LRU set-associative cache per level (write-back,
//! write-allocate), Hill & Smith's 3C classification over the last level's stream (a
//! set of lines ever seen for *compulsory*, a fully-associative LRU of
//! the same line count for *capacity*), memory reads and write-backs —
//! and requires `SimSink` fast and slow to equal it field for field,
//! on two- and three-level machines and on streams whose accesses span
//! lines and
//! that stop, somewhere, for a phase of nothing but last-level hits.
//!
//! Run records get the same treatment: programs of `StreamRun`s spliced
//! between ordinary accesses go through `SimSink::run` on both paths
//! and, expanded reference by reference, through `SimSink::access` and
//! the oracle, which knows nothing of runs, epochs or lines that stay
//! resident.

use cachesim::{
    CacheConfig, CacheStats, Hierarchy, HierarchyConfig, MissClassCounts, SimReport, SimSink,
};
use memtrace::{Access, AccessKind, Addr, TraceSink};
use proptest::prelude::*;
use std::collections::HashSet;

#[path = "common/run_programs.rs"]
mod run_programs;
use run_programs::{arb_program, arb_scan_program, arb_tiling_program, feed, Delivery, Step};

/// One set-associative level: each set is a list of `(line, dirty)` in
/// recency order, least recently used first.
struct OracleCache {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    line_bytes: u64,
    stats: CacheStats,
}

/// What one reference did: whether it hit, and the dirty line it
/// evicted, if any.
struct Outcome {
    hit: bool,
    writeback: Option<u64>,
}

impl OracleCache {
    fn new(config: CacheConfig) -> Self {
        OracleCache {
            sets: vec![Vec::new(); config.sets() as usize],
            assoc: config.assoc() as usize,
            line_bytes: config.line(),
            stats: CacheStats::default(),
        }
    }

    fn reference(&mut self, line: u64, is_write: bool) -> Outcome {
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let index = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[index];
        if let Some(pos) = set.iter().position(|&(resident, _)| resident == line) {
            let (_, dirty) = set.remove(pos);
            set.push((line, dirty || is_write));
            return Outcome {
                hit: true,
                writeback: None,
            };
        }
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let mut writeback = None;
        if set.len() == self.assoc {
            let (victim, dirty) = set.remove(0);
            if dirty {
                self.stats.writebacks += 1;
                writeback = Some(victim);
            }
        }
        set.push((line, is_write));
        Outcome {
            hit: false,
            writeback,
        }
    }
}

/// Hill & Smith's one-pass 3C classification of a level's stream.
struct OracleClassifier {
    seen: HashSet<u64>,
    /// Fully-associative LRU of the level's line count, least recently
    /// used first.
    fully_assoc: Vec<u64>,
    lines: usize,
    counts: MissClassCounts,
}

impl OracleClassifier {
    /// Every reference of the classified level passes through here;
    /// `hit` is what the real (set-associative) level did with it.
    fn reference(&mut self, line: u64, hit: bool) {
        let first_touch = self.seen.insert(line);
        let resident = self.fully_assoc.iter().position(|&l| l == line);
        if let Some(pos) = resident {
            self.fully_assoc.remove(pos);
        } else if self.fully_assoc.len() == self.lines {
            self.fully_assoc.remove(0);
        }
        self.fully_assoc.push(line);
        if hit {
            return;
        }
        if first_touch {
            self.counts.compulsory += 1;
        } else if resident.is_none() {
            self.counts.capacity += 1;
        } else {
            self.counts.conflict += 1;
        }
    }
}

/// The whole machine: the levels top-down, the classifier over the
/// last one, and the traffic that reaches memory.
struct OracleHierarchy {
    levels: Vec<OracleCache>,
    classifier: OracleClassifier,
    report: SimReport,
}

impl TraceSink for OracleHierarchy {
    fn access(&mut self, access: Access) {
        OracleHierarchy::access(self, access);
    }

    fn instructions(&mut self, count: u64) {
        self.report.instructions += count;
    }
}

impl OracleHierarchy {
    fn new(config: HierarchyConfig) -> Self {
        let configs: Vec<CacheConfig> = [Some(config.l1d), Some(config.l2), config.l3]
            .into_iter()
            .flatten()
            .collect();
        let last = configs[configs.len() - 1];
        OracleHierarchy {
            levels: configs.into_iter().map(OracleCache::new).collect(),
            classifier: OracleClassifier {
                seen: HashSet::new(),
                fully_assoc: Vec::new(),
                lines: last.lines() as usize,
                counts: MissClassCounts::default(),
            },
            report: SimReport::default(),
        }
    }

    /// One reference to `line` of level `depth`, and everything it
    /// causes below.
    fn reference(&mut self, depth: usize, line: u64, is_write: bool) {
        let level = &mut self.levels[depth];
        let line_bytes = level.line_bytes;
        let outcome = level.reference(line, is_write);
        if depth + 1 == self.levels.len() {
            self.classifier.reference(line, outcome.hit);
            if !outcome.hit {
                self.report.memory_reads += 1;
            }
            if outcome.writeback.is_some() {
                self.report.memory_writebacks += 1;
            }
            return;
        }
        // Lines only grow going down: this many of ours make one below.
        let per_line_below = self.levels[depth + 1].line_bytes / line_bytes;
        if !outcome.hit {
            // Demand fetch (a read below, even for a write miss).
            self.reference(depth + 1, line / per_line_below, false);
        }
        if let Some(victim) = outcome.writeback {
            self.reference(depth + 1, victim / per_line_below, true);
        }
    }

    fn access(&mut self, access: Access) {
        let is_write = access.kind == AccessKind::Write;
        if is_write {
            self.report.writes += 1;
        } else {
            self.report.reads += 1;
        }
        let line_bytes = self.levels[0].line_bytes;
        let first = access.addr.raw() / line_bytes;
        // An access running past the top of the address space ends
        // there, as the simulator clamps it.
        let end = access
            .addr
            .raw()
            .saturating_add(u64::from(access.size.max(1)) - 1);
        let last = end / line_bytes;
        for line in first..=last {
            self.reference(0, line, is_write);
        }
    }

    fn finish(mut self) -> SimReport {
        self.report.l1 = self.levels[0].stats;
        self.report.l2 = self.levels[1].stats;
        self.report.l3 = self.levels.get(2).map(|level| level.stats);
        self.report.classes = self.classifier.counts;
        self.report
    }
}

/// The per-level probe sections of `sim`'s profile: hits, misses, and
/// which fast path served the hits.
fn level_sections(sim: &SimSink) -> Vec<probe::Section> {
    let levels = ["l1", "l2", "l3"];
    let profile = sim.run_profile();
    let sections = profile.sections().iter();
    sections
        .filter(|section| levels.contains(&section.name()))
        .cloned()
        .collect()
}

/// Two- and three-level machines small enough that a few thousand
/// references evict at every level, with lines that grow (or stay)
/// going down.
fn arb_machine() -> impl Strategy<Value = HierarchyConfig> {
    (
        (8u32..11, 4u32..6, 0u32..3),
        (10u32..13, 0u32..2, 0u32..4),
        prop_oneof![Just(None), (12u32..14, 0u32..2, 0u32..4).prop_map(Some)],
    )
        .prop_map(|(l1, l2, l3)| {
            let (l1_size, l1_line, l1_assoc) = l1;
            let (l2_size, l2_line_up, l2_assoc) = l2;
            let level = |size: u32, line: u32, assoc: u32| {
                CacheConfig::new(1 << size, 1 << line, 1 << assoc)
            };
            let l1d = level(l1_size, l1_line, l1_assoc).expect("valid L1");
            let l2_line = l1_line + l2_line_up;
            let l2 = level(l2_size, l2_line, l2_assoc).expect("valid L2");
            match l3 {
                None => HierarchyConfig::new(l1d, l2),
                Some((size, line_up, assoc)) => HierarchyConfig::new3(
                    l1d,
                    l2,
                    level(size, l2_line + line_up, assoc).expect("valid L3"),
                ),
            }
        })
}

/// Reads and writes, a third of them writes, with sizes from zero
/// bytes to several L1 lines. Half start in a hot 2 KiB window and half
/// anywhere in 32 KiB (several times the largest last level above), and
/// each is the head of a short word-by-word walk, so the stream has the
/// same-line runs the rehit paths exist for as well as misses at every
/// level.
fn arb_stream() -> impl Strategy<Value = Vec<Access>> {
    const SIZES: [u32; 8] = [0, 1, 4, 8, 8, 24, 100, 300];
    let start = prop_oneof![0u64..2048, 0u64..(32 << 10)];
    prop::collection::vec((start, 0usize..SIZES.len(), 0u32..3, 1u64..5), 1..1200).prop_map(
        |walks| {
            walks
                .into_iter()
                .flat_map(|(start, size, kind, steps)| {
                    (0..steps).map(move |step| Access {
                        addr: Addr::new(start + 8 * step),
                        size: SIZES[size],
                        kind: if kind == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    })
                })
                .collect()
        },
    )
}

/// A phase that is all hits at the last level: in-order read sweeps,
/// one read per L1 line, over the first `quarters`/4 of a region the
/// size of the last level. Unless a level above is as large as the
/// region, every sweep misses above and re-references each last-level
/// line at a reuse distance of the region's line count — at least 8,
/// so never the line touched last, and within the fully-associative
/// model's capacity. The sweeps make more than four times the level's
/// line count of such references, so the classifier's recency ring
/// fills with dead records and compacts, and its table has doubled on
/// the way there, under the oracle's eyes.
fn hit_heavy_phase(config: &HierarchyConfig, quarters: u64) -> Vec<Access> {
    let last = config.l3.unwrap_or(config.l2);
    let region = last.size() * quarters / 4;
    let sweeps = 16 / quarters + 3;
    (0..sweeps)
        .flat_map(|_| (0..region).step_by(config.l1d.line() as usize))
        .map(|addr| Access::read(Addr::new(addr), 8))
        .collect()
}

proptest! {
    #[test]
    fn every_engine_path_equals_the_oracle(
        config in arb_machine(),
        stream in arb_stream(),
        phase_at in 0usize..4800,
        quarters in 2u64..5,
    ) {
        let mut stream = stream;
        let phase_at = phase_at % (stream.len() + 1);
        stream.splice(phase_at..phase_at, hit_heavy_phase(&config, quarters));
        let mut oracle = OracleHierarchy::new(config);
        for &access in &stream {
            oracle.access(access);
        }
        let expected = oracle.finish();
        prop_assert_eq!(expected.classes.total(), expected.llc_misses());

        for fast in [true, false] {
            let mut sim = SimSink::new(Hierarchy::new(config));
            sim.set_fast_path(fast);
            // Ragged batches, so batch boundaries land everywhere.
            for chunk in stream.chunks(37) {
                sim.access_batch(chunk);
            }
            prop_assert_eq!(sim.finish(), expected, "SimSink, fast paths {}", fast);
        }
    }

    /// A third of the programs are line-stride scans and a third
    /// records that tile the L1 line. When every record has one stream,
    /// the fast paths serve the same references whether the record is
    /// delivered whole or expanded, so each level's probe section
    /// (`rehits`, `mru_hits`) must agree as well.
    #[test]
    fn run_records_equal_their_expansion_and_the_oracle(
        config in arb_machine(),
        program in prop_oneof![arb_program(), arb_scan_program(), arb_tiling_program()],
    ) {
        let mut oracle = OracleHierarchy::new(config);
        feed(&program, Delivery::Elements, &mut oracle);
        let expected = oracle.finish();
        prop_assert_eq!(expected.classes.total(), expected.llc_misses());

        let mut profiles = Vec::new();
        for (delivery, fast) in [
            (Delivery::Runs, true),
            (Delivery::Runs, false),
            (Delivery::Elements, true),
        ] {
            let mut sim = SimSink::new(Hierarchy::new(config));
            sim.set_fast_path(fast);
            feed(&program, delivery, &mut sim);
            if fast {
                profiles.push(level_sections(&sim));
            }
            prop_assert_eq!(sim.finish(), expected, "{:?}, fast paths {}", delivery, fast);
        }
        let one_stream = |step: &Step| match step {
            Step::Run { streams, .. } => streams.len() == 1,
            Step::Access(_) => true,
        };
        if program.iter().all(one_stream) {
            prop_assert_eq!(&profiles[0], &profiles[1], "probe sections, runs vs. elements");
        }
    }
}
