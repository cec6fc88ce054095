//! The two-level cache hierarchy of the paper's machines.

use crate::cache::LineOutcome;
use crate::{
    Cache, CacheConfig, CacheConfigError, CacheStats, MissClassCounts, MissClassifier, SimReport,
};
use memtrace::{Access, AccessKind, Stream, StreamRun};
use std::ops::Range;

/// The most streams a record [scanned](Hierarchy::scan) may have: its
/// schedule is kept on the stack.
const MAX_SCAN_STREAMS: usize = 8;

/// References a scan places in the L1 before it sends their L2
/// references down.
const CHUNK: usize = 64;

/// [`Cache::place_list`] of `$references`, at most [`CHUNK`] of them, in
/// `$hierarchy`'s L1, with the L2 side of a
/// [scan](Hierarchy::scan), `$below` (a [`Below`]): the L2 references
/// the placement makes, each miss's fetch and then its dirty victim's
/// write-back, are queued and sent down after it, in order. The L1
/// reads nothing of the levels below, nor they of it, so the order in
/// which the two sides interleave changes nothing. A fetch of the line
/// of the L2 reference before it is an L2 rehit: all `try_rehit` would
/// do is count it, so it is counted, for the caller to credit. Every
/// other reference takes `reference_l2`, so the L2's sets, the L3 and
/// the classifier see the expansion's stream. A macro, so that the
/// queue's state stays in registers across the walk, as it did with
/// the code written in place.
macro_rules! place {
    ($hierarchy:ident, $below:ident, $references:expr) => {{
        let ratio = $hierarchy.l2_line_shift - $hierarchy.l1_shift;
        let (mut last, mut rehits) = ($below.last, $below.rehits);
        let (queue, mut len) = (&mut $below.queue, 0);
        $hierarchy
            .l1d
            .place_list($references, |line, outcome: LineOutcome| {
                if !outcome.hit {
                    let fetch = line >> ratio;
                    if fetch == last {
                        rehits += 1;
                    } else {
                        queue[len] = fetch << 1;
                        len += 1;
                        last = fetch;
                    }
                }
                if let Some(victim) = outcome.writeback {
                    last = victim >> ratio;
                    queue[len] = last << 1 | 1;
                    len += 1;
                }
            });
        ($below.last, $below.rehits) = (last, rehits);
        for &reference in &$below.queue[..len] {
            $hierarchy.reference_l2(reference >> 1, reference & 1 == 1);
        }
    }};
}

/// Geometry of a two-level hierarchy: a (split) L1 data cache backed by
/// a unified L2.
///
/// Both paper machines have split first-level caches and a unified
/// second-level cache. Only the *data* side of L1 is simulated; the
/// instruction stream is accounted analytically (see the `memtrace`
/// crate docs and DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Optional third-level cache (absent on the paper's machines;
    /// present on any modern part).
    pub l3: Option<CacheConfig>,
}

/// The one condition between adjacent levels: a level's line may not be
/// smaller than the line of the level above it (fills could not be
/// satisfied line-at-a-time).
fn check_line_order(
    (above, upper): (&str, CacheConfig),
    (below, lower): (&str, CacheConfig),
) -> Result<(), CacheConfigError> {
    if lower.line() < upper.line() {
        return Err(CacheConfigError::new(format!(
            "{below} line ({}) must be >= {above} line ({})",
            lower.line(),
            upper.line()
        )));
    }
    Ok(())
}

impl HierarchyConfig {
    /// Creates a two-level hierarchy config (the paper's machines)
    /// from geometry that arrives from outside the program.
    ///
    /// # Errors
    ///
    /// Returns an error if the L2 line size is smaller than the L1 line
    /// size.
    pub fn try_new(l1d: CacheConfig, l2: CacheConfig) -> Result<Self, CacheConfigError> {
        check_line_order(("L1", l1d), ("L2", l2))?;
        Ok(HierarchyConfig { l1d, l2, l3: None })
    }

    /// Creates a two-level hierarchy config (the paper's machines).
    ///
    /// # Panics
    ///
    /// Panics if the L2 line size is smaller than the L1 line size
    /// (fills could not be satisfied line-at-a-time).
    pub fn new(l1d: CacheConfig, l2: CacheConfig) -> Self {
        HierarchyConfig::try_new(l1d, l2).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a three-level hierarchy config (a modern machine).
    ///
    /// # Panics
    ///
    /// Panics if any level's line size is smaller than the level
    /// above it.
    pub fn new3(l1d: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        let mut config = HierarchyConfig::new(l1d, l2);
        check_line_order(("L2", l2), ("L3", l3)).unwrap_or_else(|e| panic!("{e}"));
        config.l3 = Some(l3);
        config
    }
}

/// A simulated L1-data + unified-L2 hierarchy with 3C classification of
/// the L2 reference stream.
///
/// Semantics (matching DineroIII's copy-back / write-allocate default,
/// which the paper used):
///
/// * every byte access is split into L1-line touches;
/// * an L1 miss sends a demand fetch to the L2;
/// * a dirty L1 victim sends a write-back to the L2;
/// * every L2 reference — fetch or write-back — updates the classifier,
///   so `classes().total() == l2_stats().misses()` always holds;
/// * dirty L2 victims count as memory write-backs.
///
/// # Examples
///
/// ```
/// use cachesim::{CacheConfig, Hierarchy, HierarchyConfig};
/// use memtrace::{Access, Addr};
///
/// let mut h = Hierarchy::new(HierarchyConfig::new(
///     CacheConfig::new(1 << 14, 32, 1)?,
///     CacheConfig::new(1 << 21, 128, 4)?,
/// ));
/// h.access(Access::read(Addr::new(0x1000_0000), 8));
/// assert_eq!(h.l1_stats().misses(), 1);
/// assert_eq!(h.l2_stats().misses(), 1);
/// assert_eq!(h.classes().compulsory, 1);
/// # Ok::<(), cachesim::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    /// 3C classifier over the DRAM-facing (last) level's stream.
    classifier: MissClassifier,
    l1_line: u64,
    l1_shift: u32,
    /// The L1's set count less one.
    l1_set_mask: u64,
    l2_line_shift: u32,
    l3_line_shift: u32,
    memory_reads: u64,
    memory_writebacks: u64,
    /// Modelled ns to service an L1 miss that hits below (0 = unset).
    probe_l1_miss_ns: u64,
    /// Additional modelled ns when the DRAM-facing level also misses.
    probe_llc_miss_ns: u64,
}

impl Hierarchy {
    /// Creates an empty hierarchy with virtual-address indexing at both
    /// levels (the paper's own simulation methodology).
    pub fn new(config: HierarchyConfig) -> Self {
        let last_level = config.l3.unwrap_or(config.l2);
        Hierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            classifier: MissClassifier::new(&last_level),
            l1_line: config.l1d.line(),
            l1_shift: config.l1d.line().trailing_zeros(),
            l1_set_mask: config.l1d.sets() - 1,
            l2_line_shift: config.l2.line().trailing_zeros(),
            l3_line_shift: last_level.line().trailing_zeros(),
            memory_reads: 0,
            memory_writebacks: 0,
            probe_l1_miss_ns: 0,
            probe_llc_miss_ns: 0,
        }
    }

    /// Sets the modelled per-reference penalties the probe layer uses
    /// to build its miss-latency histogram: `l1_miss_ns` for a
    /// reference serviced below the L1, plus `llc_miss_ns` more when
    /// the DRAM-facing level misses too. [`MachineModel::hierarchy`]
    /// (see `machine.rs`) derives both from the paper's Table 1
    /// penalties.
    ///
    /// The penalties are read when [`run_profile`](Self::run_profile)
    /// flushes, not per reference: the histogram covers every reference
    /// since construction (or the last [`reset_stats`](Self::reset_stats))
    /// at the penalties in force at the flush, whenever they were set.
    /// With both zero (the default) no histogram is emitted.
    ///
    /// [`MachineModel::hierarchy`]: crate::MachineModel::hierarchy
    pub fn set_probe_penalties(&mut self, l1_miss_ns: u64, llc_miss_ns: u64) {
        self.probe_l1_miss_ns = l1_miss_ns;
        self.probe_llc_miss_ns = llc_miss_ns;
    }

    /// Modelled service latency (ns) of each reference below the L1,
    /// as a histogram. A reference costs one of two values, both
    /// constants of the machine model — `l1_miss_ns` if some level
    /// below the L1 hit, `l1_miss_ns + llc_miss_ns` if the DRAM-facing
    /// level missed — and the always-on [`CacheStats`] already count
    /// how many took each, so nothing is recorded on the access path:
    /// the two counts are folded in here, at flush time.
    fn miss_latency_ns(&self) -> probe::LocalHistogram {
        let histogram = probe::LocalHistogram::new();
        if (self.probe_l1_miss_ns | self.probe_llc_miss_ns) != 0 {
            let hits_below_l1 =
                self.l2.stats().hits() + self.l3.as_ref().map_or(0, |l3| l3.stats().hits());
            histogram.record_n(self.probe_l1_miss_ns, hits_below_l1);
            histogram.record_n(
                self.probe_l1_miss_ns + self.probe_llc_miss_ns,
                self.llc_misses(),
            );
        }
        histogram
    }

    /// The levels present, top down. For the cold paths only: the
    /// access path names its levels.
    fn levels(&self) -> impl Iterator<Item = &Cache> {
        [Some(&self.l1d), Some(&self.l2), self.l3.as_ref()]
            .into_iter()
            .flatten()
    }

    fn levels_mut(&mut self) -> impl Iterator<Item = &mut Cache> {
        [Some(&mut self.l1d), Some(&mut self.l2), self.l3.as_mut()]
            .into_iter()
            .flatten()
    }

    /// The configured geometry.
    pub fn config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1d: *self.l1d.config(),
            l2: *self.l2.config(),
            l3: self.l3.as_ref().map(|c| *c.config()),
        }
    }

    /// Enables or disables the fast lookup paths: each level's
    /// same-line short-circuit, the run records' L1-line epochs and
    /// k-stream scans, and
    /// the chunked recency table under the classifier. Off, every
    /// reference is looked up in its set — the lookup itself is the
    /// same either way — and the classifier runs its hash-set-and-list
    /// reference model. The hierarchy owns the knob
    /// and tells its parts. Statistics are bit-identical either way and
    /// across a switch mid-stream; the slow path is kept as the
    /// exhaustive reference the differential suites and the repository
    /// benchmark's checks (`benchmark/`) compare the fast paths against.
    pub fn set_fast_path(&mut self, enabled: bool) {
        for level in self.levels_mut() {
            level.set_fast_path(enabled);
        }
        self.classifier.set_fast_path(enabled);
    }

    /// Whether the fast lookup paths are enabled.
    pub fn fast_path(&self) -> bool {
        self.l1d.fast_path()
    }

    /// Feeds one byte-granular access, splitting it across L1 lines.
    #[inline]
    pub fn access(&mut self, access: Access) {
        let is_write = access.kind == AccessKind::Write;
        let addr = access.addr.raw();
        // Trace-file replay feeds untrusted (addr, size) pairs: saturate
        // instead of wrapping so an access ending at the top of the
        // address space clamps its line span rather than spanning from
        // line 0.
        let last_byte = addr.saturating_add(u64::from(access.size.max(1)) - 1);
        let first_line = addr >> self.l1_shift;
        let last_line = last_byte >> self.l1_shift;
        // Same-line short-circuit: consecutive references to one L1
        // line (the overwhelmingly common case in loop traces) need no
        // set lookup, no L2 traffic and no write-back bookkeeping.
        if first_line == last_line && self.l1d.try_rehit(first_line, is_write) {
            return;
        }
        let mut line = first_line;
        loop {
            self.touch_l1_line(line, is_write);
            if line == last_line {
                break;
            }
            line += 1;
        }
    }

    /// Feeds a run record. A record that [tiles the L1
    /// line](Self::tiles_line) — its streams step through their lines
    /// together, never meeting in a set — is [scanned](Self::scan); any
    /// other, one L1-line epoch at a time: the maximal whole rounds
    /// during which every stream's elements stay inside the line of its
    /// first one. Each stream's first element of the epoch is
    /// referenced for real; if every stream's line is then resident in
    /// the L1, the epoch's other references are counted as L1 hits and
    /// nothing else moves.
    ///
    /// That is exact (DESIGN.md §3.3.1). The `k` first references are
    /// round one with the same-line rehits that follow each of them
    /// removed, and a rehit moves counters only; so after them the
    /// lines lead their sets in stream order, the last line is the last
    /// stream's, and a write stream's line is dirty. With all of them
    /// resident, every later reference of the epoch hits, evicts
    /// nothing and sends nothing down, and repeating the same `k` lines
    /// in the same order leaves every set's order as round one left
    /// it. If a line is *not* resident (the streams evict each other,
    /// as two columns that alias in a direct-mapped L1 do), only round
    /// one's rehits are counted and the epoch's other rounds are
    /// expanded.
    ///
    /// With the fast paths off the whole record is expanded, reference
    /// by reference: the slow path *is* the expansion. So is a round in
    /// which an element or a group straddles a line.
    pub(crate) fn run(&mut self, run: &StreamRun<'_>) {
        let streams = run.streams();
        if !self.fast_path() {
            return self.expand(run, 0..run.rounds());
        }
        if let Some(period) = self.tiles_line(run) {
            return self.scan(run, period);
        }
        let writes = |stream: &Stream| stream.kind == AccessKind::Write;
        let group = u64::from(run.group());
        // References per stream proved to be L1 hits: counters only,
        // so they are summed over the run and added once.
        let mut hits = 0;
        let mut round = 0;
        while round < run.rounds() {
            let first = round * group;
            let epoch = streams
                .iter()
                .map(|stream| self.rounds_in_line(stream, first, group))
                .fold(run.rounds() - round, u64::min);
            if epoch == 0 {
                self.expand(run, round..round + 1);
                round += 1;
                continue;
            }
            let shift = self.l1_shift;
            let line = |stream: &Stream| stream.element(first).addr.raw() >> shift;
            for stream in streams {
                self.access_l1_line(line(stream), writes(stream));
            }
            let l1d = &self.l1d;
            if epoch == 1 || streams.iter().all(|s| l1d.holds(line(s), writes(s))) {
                hits += epoch * group - 1;
            } else {
                hits += group - 1;
                self.expand(run, round + 1..round + epoch);
            }
            round += epoch;
        }
        let writers = streams.iter().filter(|stream| writes(stream)).count() as u64;
        let readers = streams.len() as u64 - writers;
        self.l1d.credit_hits(readers * hits, writers * hits);
    }

    /// The rounds from one line of a stream to its next, if `run`
    /// *tiles the L1 line*: the record [`scan`](Self::scan) replays.
    /// That takes at least one round and
    ///
    /// * (a) one nonzero stride `s` for every stream, whose round of
    ///   `q = s · group` bytes divides the L1 line or, one element a
    ///   round, is a whole number of lines;
    /// * (b) each group inside one window of `w = min(q, line)` bytes:
    ///   `base % w + (group − 1) · s + max(size, 1) ≤ w` for every
    ///   stream (they all keep their offset in it). So a stream changes
    ///   line only between rounds, every `max(1, line / q)` rounds.
    /// * (c) no two streams' distinct lines in one L1 set, ever. At any
    ///   round two streams' lines differ by `D − 1`, `D` or `D + 1`,
    ///   `D` the difference of their first lines, so none of those may
    ///   be a nonzero multiple of the set count.
    /// * (d) at most [`MAX_SCAN_STREAMS`] streams.
    pub(crate) fn tiles_line(&self, run: &StreamRun<'_>) -> Option<u64> {
        let streams = run.streams();
        let stride = streams.first()?.stride;
        let group = u64::from(run.group());
        if run.rounds() == 0 || streams.len() > MAX_SCAN_STREAMS || stride == 0 {
            return None;
        }
        let (line, q) = (self.l1_line, stride.checked_mul(group)?);
        let window = if q.is_power_of_two() && q <= line {
            q
        } else if group == 1 && q & (line - 1) == 0 {
            line
        } else {
            return None;
        };
        // `(group − 1) · s < q ≤ line` when `group > 1`: no overflow.
        let group_span = (group - 1) * stride;
        let fits = |stream: &Stream| {
            stream.stride == stride
                && (stream.base.raw() & (window - 1)) + group_span + u64::from(stream.size.max(1))
                    <= window
        };
        if !streams.iter().all(fits) {
            return None;
        }
        let first_line = |stream: &Stream| stream.base.raw() >> self.l1_shift;
        let same_set = |lines: u64| lines != 0 && lines & self.l1_set_mask == 0;
        for (at, earlier) in streams.iter().enumerate() {
            for later in &streams[at + 1..] {
                let d = first_line(later).wrapping_sub(first_line(earlier));
                if [d.wrapping_sub(1), d, d.wrapping_add(1)]
                    .into_iter()
                    .any(same_set)
                {
                    return None;
                }
            }
        }
        Some((line >> q.trailing_zeros()).max(1))
    }

    /// Replays a record that [tiles the L1 line](Self::tiles_line),
    /// stream `i` changing line every `period` rounds, with the
    /// statistics of its expansion: one real L1 reference a stream a
    /// line, and every other reference counted.
    ///
    /// Round 0 references every stream's first element for real, in
    /// stream order, the first through the ordinary path (it may rehit
    /// the L1's last line). After that a stream references for real
    /// only in the rounds its line changes — in round order, then
    /// stream order, merged from the streams' periodic schedules
    /// ([`Merge`]; one stream's are a line-stride walk) — and those
    /// references are placed a chunk at a time ([`Cache::place_list`]),
    /// with their L2 references sent down after each chunk, in order
    /// (see `place!`).
    ///
    /// Every other reference is to its stream's current line, and is a
    /// hit that moves counters only: since that stream's previous
    /// reference, the references in between went to the same line or to
    /// other sets (condition (c)), so the line is resident and leads its
    /// set, where a looked-up hit would leave it; a write stream's line
    /// is dirty from its own write; and a hit sends nothing down. Those
    /// references are credited by kind, and the L1's last line is set to
    /// the line of the record's last reference, so a later reference
    /// rehits where the expansion's does. With one stream the credited
    /// references are exactly the expansion's same-line rehits.
    ///
    /// Kept out of line: inlined into `run`, beside the epoch loop, it
    /// ran the serving loop's one-stream records measurably slower.
    #[inline(never)]
    fn scan(&mut self, run: &StreamRun<'_>, period: u64) {
        let streams = run.streams();
        let (group, rounds) = (u64::from(run.group()), run.rounds());
        let (shift, line) = (self.l1_shift, self.l1_line);
        let q = streams[0].stride * group;
        let first_reference =
            |stream: &Stream| (stream.base.raw() >> shift, stream.kind == AccessKind::Write);
        let step = (q >> shift).max(1);
        // A stream changes line in the rounds `first + m · period` (`m ≥
        // 0`), `first` in `1..=period`: `changes` of them before the
        // last, its real references after round 0; the others are
        // credited. `period` is a power of two, and so is `q` if it is
        // less than a line.
        let first_change =
            |stream: &Stream| period - ((stream.base.raw() & (line - 1)) >> q.trailing_zeros());
        let period_shift = period.trailing_zeros();
        let changes = |stream: &Stream| match rounds.checked_sub(first_change(stream)) {
            Some(after @ 1..) => ((after - 1) >> period_shift) + 1,
            _ => 0,
        };
        let mut left: u64 = streams.iter().map(changes).sum();

        let (first, is_write) = first_reference(&streams[0]);
        self.access_l1_line(first, is_write);
        let mut l2 = Below {
            last: self.l2.rehit_line().unwrap_or(u64::MAX),
            rehits: 0,
            queue: [0; 2 * CHUNK],
        };
        if let [_] = streams {
            // One stream's references walk its lines from the first, fed
            // as a range: through `Merge`, whose state is on the stack, a
            // serving request's placement ran 1.3× slower.
            let mut next = first + step;
            while left > 0 {
                let count = left.min(CHUNK as u64);
                place!(self, l2, (0..count).map(|i| (next + i * step, is_write)));
                (next, left) = (next + count * step, left - count);
            }
        } else {
            // Round 0 in stream order, then the schedules merged.
            let round_0 = streams[1..].iter().map(first_reference);
            place!(self, l2, round_0);
            let mut merge = Merge::new(streams, first_change, first_reference, step);
            while left > 0 {
                let count = left.min(CHUNK as u64);
                place!(self, l2, merge.by_ref().take(count as usize));
                left -= count;
            }
        }
        self.l2.credit_hits(l2.rehits, 0);
        let elements = run.elements_per_stream();
        let mut credited = [0; 2];
        for stream in streams {
            credited[usize::from(stream.kind == AccessKind::Write)] +=
                elements - 1 - changes(stream);
        }
        self.l1d.credit_hits(credited[0], credited[1]);
        let last = streams[streams.len() - 1].element(elements - 1);
        self.l1d.set_last_line(last.addr.raw() >> shift);
    }

    /// The whole rounds of `group` elements, from element `first` on,
    /// that `stream` spends inside the L1 line element `first` starts
    /// in: 0 if that element, or the group it opens, leaves the line.
    #[inline]
    fn rounds_in_line(&self, stream: &Stream, first: u64, group: u64) -> u64 {
        let start = stream.element(first).addr.raw();
        let room = self.l1_line - (start & (self.l1_line - 1));
        let size = u64::from(stream.size.max(1));
        let Some(slack) = room.checked_sub(size) else {
            return 0;
        };
        // A stride of 0 never leaves the line.
        slack
            .checked_div(stream.stride)
            .map_or(u64::MAX, |steps| (steps + 1) / group)
    }

    /// The given rounds of `run`, reference by reference.
    fn expand(&mut self, run: &StreamRun<'_>, rounds: Range<u64>) {
        for access in run.accesses(rounds) {
            self.access(access);
        }
    }

    /// Replays one reference contained in a single L1 line. Statistics
    /// are identical to [`access`](Self::access) with any access whose
    /// bytes all fall in `l1_line`, minus the address arithmetic the
    /// caller has already done to know the line.
    #[inline]
    fn access_l1_line(&mut self, l1_line: u64, is_write: bool) {
        if self.l1d.try_rehit(l1_line, is_write) {
            return;
        }
        self.touch_l1_line(l1_line, is_write);
    }

    /// The L2 line index that backs an L1 line index.
    #[inline]
    fn l2_line_of(&self, l1_line: u64) -> u64 {
        l1_line >> (self.l2_line_shift - self.l1_shift)
    }

    #[inline]
    fn touch_l1_line(&mut self, l1_line: u64, is_write: bool) {
        let outcome = self.l1d.access_line(l1_line, is_write);
        if !outcome.hit {
            // Demand fetch from L2 (write-allocate: fetch even on a
            // write miss; the L2 reference itself is a read).
            let l2_line = self.l2_line_of(l1_line);
            self.reference_l2(l2_line, false);
        }
        if let Some(victim) = outcome.writeback {
            // Dirty L1 victim written back to L2.
            let l2_line = self.l2_line_of(victim);
            self.reference_l2(l2_line, true);
        }
    }

    #[inline]
    fn reference_l2(&mut self, l2_line: u64, is_write: bool) {
        // Same-line short-circuit (fast path only): a rehit implies the
        // immediately-previous L2 reference was to this very line, so
        // the classifier already holds it at the MRU position of the
        // fully-associative model and in its seen-set — `note_hit`
        // would be a structural no-op. Nothing propagates downward on a
        // hit, so the short-circuit is complete.
        if self.l2.try_rehit(l2_line, is_write) {
            return;
        }
        let outcome = self.l2.access_line(l2_line, is_write);
        if self.l3.is_none() {
            return self.note_llc(l2_line, outcome);
        }
        let ratio = self.l3_line_shift - self.l2_line_shift;
        if !outcome.hit {
            self.reference_l3(l2_line >> ratio, false);
        }
        if let Some(victim) = outcome.writeback {
            self.reference_l3(victim >> ratio, true);
        }
    }

    #[inline]
    fn reference_l3(&mut self, l3_line: u64, is_write: bool) {
        let l3 = self.l3.as_mut().expect("only called with an L3");
        // Same-line short-circuit, with the same classifier argument as
        // in `reference_l2`: the previous L3 reference was this line.
        if l3.try_rehit(l3_line, is_write) {
            return;
        }
        let outcome = l3.access_line(l3_line, is_write);
        self.note_llc(l3_line, outcome);
    }

    /// What a reference that went through `access_line` at the
    /// DRAM-facing level leaves behind: its line classified and the
    /// memory traffic counted.
    #[inline]
    fn note_llc(&mut self, line: u64, outcome: LineOutcome) {
        if outcome.hit {
            self.classifier.note_hit(line);
        } else {
            self.classifier.classify_miss(line);
            self.memory_reads += 1;
        }
        if outcome.writeback.is_some() {
            self.memory_writebacks += 1;
        }
    }

    /// L1 data-cache statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics (reference stream = L1 misses + L1 write-backs).
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// L3 statistics, if a third level is configured.
    pub fn l3_stats(&self) -> Option<&CacheStats> {
        self.l3.as_ref().map(super::cache::Cache::stats)
    }

    /// 3C classification of the DRAM-facing (last) level's misses.
    pub fn classes(&self) -> MissClassCounts {
        self.classifier.counts()
    }

    /// Misses of the DRAM-facing level (L3 if present, else L2).
    pub fn llc_misses(&self) -> u64 {
        match &self.l3 {
            Some(l3) => l3.stats().misses(),
            None => self.l2.stats().misses(),
        }
    }

    /// Demand fetches that reached main memory.
    pub fn memory_reads(&self) -> u64 {
        self.memory_reads
    }

    /// Dirty L2 lines written back to main memory.
    pub fn memory_writebacks(&self) -> u64 {
        self.memory_writebacks
    }

    /// Flushes the hierarchy's probe observations into a profile:
    /// per-level hit/rehit/miss sections, the modelled miss-latency
    /// histogram, and the 3C classifier's verdict counts. Cumulative
    /// since construction or the last [`reset_stats`](Self::reset_stats),
    /// like the statistics they sit beside; empty-ish when probes are
    /// compiled out (callers gate embedding on [`probe::enabled`]).
    pub fn run_profile(&self) -> probe::RunProfile {
        let mut profile = probe::RunProfile::new();
        for (name, level) in ["l1", "l2", "l3"].into_iter().zip(self.levels()) {
            profile.push(level.probe_section(name));
        }
        let mut latency = probe::Section::new("latency");
        latency.histogram("miss_service_ns", &self.miss_latency_ns());
        profile.push(latency);
        profile.push(self.classifier.counts().probe_section());
        profile
    }

    /// Folds this hierarchy's statistics into `report`, level by level
    /// (a level `report` lacks so far is created).
    pub fn add_to(&self, report: &mut SimReport) {
        report.l1.merge(self.l1d.stats());
        report.l2.merge(self.l2.stats());
        if let Some(l3) = &self.l3 {
            report.l3.get_or_insert_default().merge(l3.stats());
        }
        let classes = self.classifier.counts();
        report.classes.compulsory += classes.compulsory;
        report.classes.capacity += classes.capacity;
        report.classes.conflict += classes.conflict;
        report.memory_reads += self.memory_reads;
        report.memory_writebacks += self.memory_writebacks;
    }

    /// Zeroes all statistics — and with them every probe observation
    /// [`run_profile`](Self::run_profile) reports — while keeping cache
    /// contents warm (excludes warm-up, as the paper's simulations
    /// exclude program initialization).
    pub fn reset_stats(&mut self) {
        for level in self.levels_mut() {
            level.reset_stats();
        }
        self.classifier.reset_counts();
        self.memory_reads = 0;
        self.memory_writebacks = 0;
    }
}

/// The L2 side of a [scan](Hierarchy::scan).
struct Below {
    /// The line of the last L2 reference, or `u64::MAX` (no line).
    last: u64,
    /// Fetches of `last`: L2 rehits, counted rather than sent.
    rehits: u64,
    /// A chunk's L2 references, `line << 1 | is_write`: at most a
    /// fetch and a write-back a placed reference.
    queue: [u64; 2 * CHUNK],
}

/// The real L1 references of a [scanned](Hierarchy::scan) record after
/// its round 0, in the record's order, without end: the streams'
/// schedules merged. Every stream changes line once a period, so a
/// period's references are the streams', each once, in the order of the
/// round they change in (then stream order), and each stream's next
/// reference is its last one `step` on.
struct Merge {
    /// Per stream, in that order, the reference of its next change: a
    /// line and whether it is written.
    next: [(u64, bool); MAX_SCAN_STREAMS],
    /// Streams.
    streams: usize,
    /// The stream whose change is next.
    at: usize,
    /// A change's lines.
    step: u64,
}

impl Merge {
    /// The merge of `streams`' schedules: each changes line first in
    /// round `first_change(stream)` — ties broken by stream order — to
    /// the line of its first reference, `first(stream)`, `step` on.
    fn new(
        streams: &[Stream],
        first_change: impl Fn(&Stream) -> u64,
        first: impl Fn(&Stream) -> (u64, bool),
        step: u64,
    ) -> Self {
        let mut order = [(0, 0); MAX_SCAN_STREAMS];
        for (slot, (i, stream)) in order.iter_mut().zip(streams.iter().enumerate()) {
            *slot = (first_change(stream), i);
        }
        let order = &mut order[..streams.len()];
        order.sort_unstable();
        let mut next = [(0, false); MAX_SCAN_STREAMS];
        for (next, &(_, i)) in next.iter_mut().zip(&*order) {
            let (line, is_write) = first(&streams[i]);
            *next = (line + step, is_write);
        }
        Merge {
            next,
            streams: streams.len(),
            at: 0,
            step,
        }
    }
}

impl Iterator for Merge {
    type Item = (u64, bool);

    #[inline]
    fn next(&mut self) -> Option<(u64, bool)> {
        if self.at == self.streams {
            self.at = 0;
        }
        let (line, is_write) = &mut self.next[self.at];
        let reference = (*line, *is_write);
        *line += self.step;
        self.at += 1;
        Some(reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Addr;
    use probe::{HistogramSnapshot, LocalHistogram, Metric};

    fn small_hierarchy() -> Hierarchy {
        // L1: 256 B direct-mapped, 32 B lines. L2: 2 KiB 2-way, 64 B lines.
        Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        ))
    }

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = small_hierarchy();
        // Two accesses to the same L1 line: one L1 miss, one hit.
        h.access(Access::read(Addr::new(0), 8));
        h.access(Access::read(Addr::new(8), 8));
        assert_eq!(h.l1_stats().references(), 2);
        assert_eq!(h.l1_stats().misses(), 1);
        assert_eq!(h.l2_stats().references(), 1);
    }

    #[test]
    fn classes_always_partition_l2_misses() {
        let mut h = small_hierarchy();
        let mut state = 99u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (state >> 30) % 16384;
            let write = state.is_multiple_of(3);
            let access = if write {
                Access::write(Addr::new(addr), 8)
            } else {
                Access::read(Addr::new(addr), 8)
            };
            h.access(access);
        }
        assert_eq!(h.classes().total(), h.l2_stats().misses());
    }

    #[test]
    fn access_spanning_l1_lines_touches_both() {
        let mut h = small_hierarchy();
        // 16 bytes starting 8 before a 32-byte boundary.
        h.access(Access::read(Addr::new(24), 16));
        assert_eq!(h.l1_stats().references(), 2);
    }

    #[test]
    fn zero_size_access_touches_one_line() {
        let mut h = small_hierarchy();
        h.access(Access::read(Addr::new(0), 0));
        assert_eq!(h.l1_stats().references(), 1);
    }

    #[test]
    fn dirty_l1_victim_writes_back_to_l2() {
        // L1 has 8 sets; addresses 0 and 256 collide in L1 set 0.
        let mut h = small_hierarchy();
        h.access(Access::write(Addr::new(0), 8)); // L1 miss, dirty
        h.access(Access::read(Addr::new(256), 8)); // evicts dirty line 0
                                                   // L2 references: fetch(0), fetch(256), writeback(0).
        assert_eq!(h.l2_stats().references(), 3);
        assert_eq!(h.l2_stats().writes, 1);
        // The write-back hits in L2 (line 0 still resident).
        assert_eq!(h.l2_stats().misses(), 2);
    }

    #[test]
    fn working_set_within_l2_stops_missing_after_warmup() {
        let mut h = small_hierarchy();
        // 1 KiB working set (fits 2 KiB L2, overflows 256 B L1).
        for _round in 0..4 {
            for off in (0..1024).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        // After the first pass, L2 never misses again.
        assert_eq!(h.l2_stats().misses(), 1024 / 64);
        assert_eq!(h.classes().compulsory, 1024 / 64);
        assert_eq!(h.classes().capacity, 0);
        // But the L1 keeps missing (working set 4x its size).
        assert!(h.l1_stats().misses() > 1024 / 32);
    }

    #[test]
    fn working_set_exceeding_l2_causes_capacity_misses() {
        let mut h = small_hierarchy();
        // 8 KiB working set cycled: 4x the 2 KiB L2.
        for _round in 0..3 {
            for off in (0..8192).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        let classes = h.classes();
        assert_eq!(classes.compulsory, 8192 / 64);
        assert_eq!(classes.capacity, 2 * 8192 / 64, "every revisit misses");
        assert_eq!(classes.conflict, 0);
    }

    #[test]
    fn reset_stats_keeps_contents_warm() {
        let mut h = small_hierarchy();
        for off in (0..1024).step_by(8) {
            h.access(Access::read(Addr::new(off), 8));
        }
        h.reset_stats();
        assert_eq!(h.l1_stats().references(), 0);
        assert_eq!(h.classes().total(), 0);
        // Second pass: L2-resident, so zero L2 misses — and crucially
        // not re-counted as compulsory.
        for off in (0..1024).step_by(8) {
            h.access(Access::read(Addr::new(off), 8));
        }
        assert_eq!(h.l2_stats().misses(), 0);
    }

    #[test]
    fn three_level_hierarchy_classifies_the_last_level() {
        let config = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(8192, 64, 4).unwrap(),
        );
        let mut h = Hierarchy::new(config);
        // 4 KiB working set: overflows L1 and L2, fits the 8 KiB L3.
        for _round in 0..4 {
            for off in (0..4096).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        let l3 = *h.l3_stats().expect("three levels");
        assert_eq!(l3.misses(), 4096 / 64, "L3 only cold-misses");
        assert_eq!(h.classes().compulsory, 4096 / 64);
        assert_eq!(h.classes().capacity, 0, "fits the L3");
        assert_eq!(h.llc_misses(), l3.misses());
        assert!(h.l2_stats().misses() > l3.misses(), "L2 keeps missing");
        assert_eq!(h.memory_reads(), l3.misses());
    }

    #[test]
    fn three_level_capacity_misses_when_l3_overflows() {
        let config = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(),
        );
        let mut h = Hierarchy::new(config);
        // 16 KiB cycled: 4x the L3.
        for _round in 0..3 {
            for off in (0..16384).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        assert_eq!(h.classes().compulsory, 16384 / 64);
        assert_eq!(h.classes().capacity, 2 * 16384 / 64);
        assert_eq!(h.classes().total(), h.llc_misses());
    }

    #[test]
    fn access_near_u64_max_does_not_overflow() {
        // A corrupt trace record can carry any (addr, size): the span
        // arithmetic must saturate, not wrap around to line 0.
        let mut h = small_hierarchy();
        h.access(Access::read(Addr::new(u64::MAX), 8));
        h.access(Access::write(Addr::new(u64::MAX - 3), 4096));
        h.access(Access::read(Addr::new(u64::MAX - 31), u32::MAX));
        // The clamped spans each touch exactly one L1 line (the last).
        assert_eq!(h.l1_stats().references(), 3);
        assert_eq!(h.l1_stats().misses(), 1, "all three hit the top line");
    }

    #[test]
    fn the_top_address_misses_on_its_first_reference() {
        // With one-byte lines the top address would be line `u64::MAX`,
        // the tag of an empty way, and its first reference an L1 hit
        // that never reaches the L2: no such geometry exists.
        assert!(CacheConfig::new(64, 1, 1).is_err());
        assert!(CacheConfig::new(1024, 1, 2).is_err());
        // With the shortest lines there are, on either path, it misses
        // once at both levels and then hits.
        for fast in [true, false] {
            let mut h = Hierarchy::new(HierarchyConfig::new(
                CacheConfig::new(64, 2, 1).unwrap(),
                CacheConfig::new(1024, 2, 2).unwrap(),
            ));
            h.set_fast_path(fast);
            h.access(Access::read(Addr::new(u64::MAX), 1));
            h.access(Access::read(Addr::new(u64::MAX - 1), 1));
            assert_eq!(h.l1_stats().references(), 2);
            assert_eq!(h.l1_stats().misses(), 1, "fast {fast}");
            assert_eq!(h.l2_stats().misses(), 1, "fast {fast}");
            assert_eq!(h.classes().compulsory, 1);
        }
    }

    #[test]
    fn fast_and_slow_hierarchies_agree_on_everything() {
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let mut fast = Hierarchy::new(config);
        let mut slow = Hierarchy::new(config);
        slow.set_fast_path(false);
        assert!(fast.fast_path());
        assert!(!slow.fast_path());
        let mut state = 42u64;
        for i in 0..30_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Mix strided sweeps (rehit-heavy) with random references.
            let addr = if i % 2 == 0 {
                (i * 4) % 16384
            } else {
                (state >> 30) % 16384
            };
            let access = if state.is_multiple_of(3) {
                Access::write(Addr::new(addr), 8)
            } else {
                Access::read(Addr::new(addr), 8)
            };
            fast.access(access);
            slow.access(access);
        }
        assert_eq!(fast.l1_stats(), slow.l1_stats());
        assert_eq!(fast.l2_stats(), slow.l2_stats());
        assert_eq!(fast.classes(), slow.classes());
        assert_eq!(fast.memory_reads(), slow.memory_reads());
        assert_eq!(fast.memory_writebacks(), slow.memory_writebacks());
    }

    fn two_level() -> HierarchyConfig {
        HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        )
    }

    fn three_level() -> HierarchyConfig {
        HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(),
        )
    }

    /// Strided sweeps (rehit-heavy) mixed with random references over
    /// 4x the largest cache above, a third of them writes.
    fn mixed_trace(n: u64, seed: u64) -> impl Iterator<Item = Access> {
        let mut state = seed;
        (0..n).map(move |i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = if i % 2 == 0 {
                (i * 4) % 16384
            } else {
                (state >> 30) % 16384
            };
            if state.is_multiple_of(3) {
                Access::write(Addr::new(addr), 8)
            } else {
                Access::read(Addr::new(addr), 8)
            }
        })
    }

    /// The `latency.miss_service_ns` histogram of `run_profile()`
    /// (the empty snapshot when the section is absent).
    fn miss_service_ns(h: &Hierarchy) -> HistogramSnapshot {
        h.run_profile()
            .sections()
            .iter()
            .filter(|section| section.name() == "latency")
            .flat_map(probe::Section::metrics)
            .find_map(|(name, metric)| match metric {
                Metric::Histogram(snapshot) if name == "miss_service_ns" => Some(snapshot.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Feeds `trace` one access at a time and records, into a shared
    /// atomic histogram, one value per reference the access sent below
    /// the L1: every L2 reference that hit, every reference that went
    /// on to the L3 (if any), `llc_ns` more for each that reached
    /// memory (counted by `memory_reads`, not by the cache statistics).
    fn replay_with_oracle(
        h: &mut Hierarchy,
        trace: impl Iterator<Item = Access>,
        (l1_ns, llc_ns): (u64, u64),
        oracle: &LocalHistogram,
    ) {
        let below = |h: &Hierarchy| match h.l3_stats() {
            Some(l3) => h.l2_stats().hits() + l3.references(),
            None => h.l2_stats().references(),
        };
        for access in trace {
            let (before, before_memory) = (below(h), h.memory_reads());
            h.access(access);
            let to_memory = h.memory_reads() - before_memory;
            for i in 0..below(h) - before {
                oracle.record(if i < to_memory { l1_ns + llc_ns } else { l1_ns });
            }
        }
    }

    #[test]
    fn latency_histogram_equals_one_record_per_reference_below_l1() {
        let penalties = (70, 1020);
        for config in [two_level(), three_level()] {
            let mut h = Hierarchy::new(config);
            h.set_probe_penalties(penalties.0, penalties.1);
            let oracle = LocalHistogram::new();
            replay_with_oracle(&mut h, mixed_trace(30_000, 42), penalties, &oracle);
            let folded = miss_service_ns(&h);
            assert_eq!(folded, oracle.snapshot(), "{config:?}");
            if probe::enabled() {
                assert!(folded.count > 10_000, "the trace leaves the L1");
                assert_eq!((folded.min, folded.max), (70, 1090));
                assert_eq!(folded.buckets.len(), 2);
            }
        }
    }

    #[test]
    fn latency_histogram_is_empty_while_penalties_are_unset() {
        for config in [two_level(), three_level()] {
            let mut h = Hierarchy::new(config);
            for access in mixed_trace(5_000, 7) {
                h.access(access);
            }
            assert!(h.l2_stats().references() > 0);
            assert_eq!(miss_service_ns(&h), HistogramSnapshot::default());
            // Penalties are read at flush: setting them late covers the
            // references already made, at the values now in force.
            h.set_probe_penalties(5, 50);
            let oracle = LocalHistogram::new();
            let mut replayed = Hierarchy::new(config);
            replay_with_oracle(&mut replayed, mixed_trace(5_000, 7), (5, 50), &oracle);
            assert_eq!(miss_service_ns(&h), oracle.snapshot());
        }
    }

    #[test]
    fn reset_stats_resets_the_probe_observations_with_the_statistics() {
        let penalties = (70, 1020);
        for config in [two_level(), three_level()] {
            let mut h = Hierarchy::new(config);
            h.set_probe_penalties(penalties.0, penalties.1);
            for access in mixed_trace(20_000, 3) {
                h.access(access);
            }
            h.reset_stats();
            assert_eq!(miss_service_ns(&h), HistogramSnapshot::default());
            // A short measured phase after a long warm-up: every number
            // in the profile describes the measured phase only.
            let oracle = LocalHistogram::new();
            replay_with_oracle(&mut h, mixed_trace(500, 11), penalties, &oracle);
            assert_eq!(miss_service_ns(&h), oracle.snapshot());
            for section in h.run_profile().sections() {
                let get = |name: &str| {
                    section.metrics().iter().find_map(|(n, m)| match m {
                        Metric::Counter(v) if n == name => Some(*v),
                        _ => None,
                    })
                };
                if let (Some(hits), Some(rehits), Some(mru_hits)) =
                    (get("hits"), get("rehits"), get("mru_hits"))
                {
                    assert!(rehits + mru_hits <= hits, "{}", section.name());
                }
            }
        }
    }

    #[test]
    fn a_record_tiles_the_line_only_where_the_scan_is_exact() {
        // 256 B direct-mapped, 32 B lines: 8 sets, a set span of 256 B.
        let h = small_hierarchy();
        let stream = |base: u64, stride: u64, size: u32| Stream {
            base: Addr::new(base),
            stride,
            size,
            kind: AccessKind::Read,
        };
        let tiles = |streams: &[Stream], group: u32, rounds: u64| {
            h.tiles_line(&StreamRun::new(streams, group, rounds, 1))
        };
        // The PDE relaxation's shape: six streams, a point every 16 B,
        // on four lines two apart.
        let relax: Vec<Stream> = [0x10d0, 0x1008, 0x1018, 0x1050, 0x1090, 0x1010]
            .map(|base| stream(base, 16, 8))
            .to_vec();
        assert_eq!(tiles(&relax, 1, 30), Some(2));
        assert_eq!(tiles(&relax, 1, 0), None, "no rounds");
        // (a) A round must divide the line or, a group of one, be lines.
        assert_eq!(tiles(&[stream(0x1000, 8, 8)], 4, 9), Some(1));
        assert_eq!(tiles(&[stream(0x1000, 64, 8)], 1, 9), Some(1));
        assert_eq!(tiles(&[stream(0x1000, 8, 8)], 3, 9), None);
        assert_eq!(tiles(&[stream(0x1000, 24, 8)], 1, 9), None);
        assert_eq!(tiles(&[stream(0x1000, 64, 8)], 2, 9), None);
        assert_eq!(tiles(&[stream(0x1000, 0, 8)], 1, 9), None);
        let mixed = [stream(0x1000, 8, 8), stream(0x1400, 16, 8)];
        assert_eq!(tiles(&mixed, 1, 9), None, "two strides");
        // (b) A group inside its window: offset + (group − 1) · stride +
        // size within the round's bytes (a line, for line strides).
        assert_eq!(tiles(&[stream(0x1008, 16, 8)], 1, 9), Some(2));
        assert_eq!(tiles(&[stream(0x100c, 16, 8)], 1, 9), None);
        assert_eq!(tiles(&[stream(0x1008, 8, 8)], 2, 9), None);
        assert_eq!(tiles(&[stream(0x1018, 64, 8)], 1, 9), Some(1));
        assert_eq!(tiles(&[stream(0x101c, 64, 8)], 1, 9), None);
        // (c) Distinct lines in one set: first lines a set span apart,
        // or a line either side of that.
        for (apart, tile) in [(224, false), (256, false), (288, false), (320, true)] {
            let pair = [stream(0x1000, 8, 8), stream(0x1000 + apart, 8, 8)];
            assert_eq!(tiles(&pair, 1, 9).is_some(), tile, "{apart} bytes apart");
        }
        // (d) At most eight streams.
        let many = [stream(0x1000, 8, 8); 9];
        assert_eq!(tiles(&many[..8], 1, 9), Some(4));
        assert_eq!(tiles(&many, 1, 9), None);
    }

    #[test]
    fn a_scan_leaves_the_line_its_expansion_touched_last() {
        // Two or three streams a word apart at different phases: the
        // last reference placed is often not the record's last one, a
        // credited reference of the last stream.
        let read = |base: u64| Stream {
            base: Addr::new(base),
            stride: 8,
            size: 8,
            kind: AccessKind::Read,
        };
        let write = |base: u64| Stream {
            kind: AccessKind::Write,
            ..read(base)
        };
        for rounds in 1..12 {
            for offset in (0..32).step_by(8) {
                let pairs = [
                    vec![read(0x1018), write(0x1040 + offset)],
                    vec![write(0x1008 + offset), read(0x1050)],
                    vec![read(0x1010), read(0x1048 + offset), write(0x1090)],
                ];
                for streams in &pairs {
                    let run = StreamRun::new(streams, 1, rounds, 1);
                    let mut scanned = small_hierarchy();
                    let mut expanded = small_hierarchy();
                    assert!(scanned.tiles_line(&run).is_some());
                    scanned.run(&run);
                    expanded.expand(&run, 0..rounds);
                    assert_eq!(scanned.l1d.rehit_line(), expanded.l1d.rehit_line());
                    assert_eq!(scanned.l1_stats(), expanded.l1_stats(), "{run:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "L3 line")]
    fn l3_line_smaller_than_l2_line_is_rejected() {
        let _ = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(4096, 32, 4).unwrap(),
        );
    }

    #[test]
    #[should_panic(expected = "must be >=")]
    fn l2_line_smaller_than_l1_line_is_rejected() {
        let _ = HierarchyConfig::new(
            CacheConfig::new(256, 64, 1).unwrap(),
            CacheConfig::new(2048, 32, 2).unwrap(),
        );
    }
}
