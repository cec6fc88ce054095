//! A single set-associative cache level.

use crate::CacheConfig;
use memtrace::Addr;

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read references.
    pub reads: u64,
    /// Write references.
    pub writes: u64,
    /// Read references that missed.
    pub read_misses: u64,
    /// Write references that missed.
    pub write_misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total references.
    pub fn references(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.references() - self.misses()
    }

    /// Accumulates another level's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.writebacks += other.writebacks;
    }

    /// Miss ratio in percent (0 if no references).
    pub fn miss_rate_percent(&self) -> f64 {
        if self.references() == 0 {
            0.0
        } else {
            100.0 * self.misses() as f64 / self.references() as f64
        }
    }
}

/// Tag of an empty way. Not a line index any address has:
/// [`CacheConfig`] refuses lines shorter than two bytes, so every line
/// index is at most `u64::MAX / 2`.
const INVALID: u64 = u64::MAX;

/// Probe observations for one cache level: which fast path served each
/// hit. Kept out of [`CacheStats`] because the differential suite
/// asserts fast-path and slow-path stats are bit-identical, and these
/// counters are *expected* to differ between the two modes (the slow
/// path never rehits by construction).
#[derive(Clone, Debug, Default)]
struct CacheObs {
    /// Hits served by the same-line short-circuit ([`Cache::try_rehit`]).
    rehits: probe::LocalCounter,
    /// Looked-up hits on the set's most recently used line (slot 0),
    /// counted while the fast paths are on.
    mru_hits: probe::LocalCounter,
}

/// Outcome of one cache reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LineOutcome {
    /// Whether the referenced line was resident.
    pub hit: bool,
    /// Line index of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// The LRU walk of one reference, written once for
/// [`Cache::access_line`] and [`Cache::place_list`]: the line in
/// `$carried` goes to the front of its set, `$tags` in recency order
/// with their `$dirty` flags. Evaluates to the slot it was found in, if
/// it was resident, and leaves in `$carried` / `$carried_dirty` (false
/// on entry) the tag and flag carried off the end: the line's own on a
/// hit, the victim on a miss. Setting the line's dirty flag and
/// counting are the caller's. A macro, so that `access_line` compiles
/// exactly as it did with the loop written in place; an inlined
/// function changed its branches.
macro_rules! walk {
    ($tags:expr, $dirty:expr, $carried:ident, $carried_dirty:ident) => {{
        // Put the line in at the front and carry each displaced line
        // one slot down, until the line itself comes out — a hit: the
        // slots before its old one have rotated and it is at the front
        // — or the carried line falls off the end: a miss, and that was
        // the LRU line, or an empty way while the set has one.
        let line = $carried;
        let mut found = None;
        for (slot, (tag, flag)) in $tags.iter_mut().zip($dirty.iter_mut()).enumerate() {
            std::mem::swap(tag, &mut $carried);
            std::mem::swap(flag, &mut $carried_dirty);
            if $carried == line {
                found = Some(slot);
                break;
            }
        }
        found
    }};
}

/// One set-associative, write-allocate, write-back cache level with true
/// LRU replacement — the configuration DineroIII's default ("copy-back,
/// write-allocate, LRU") used and the paper's machines implement.
///
/// The cache operates on *line indexes* (`address / line_size`); callers
/// split byte accesses into line touches (see
/// [`Hierarchy`](crate::Hierarchy)).
///
/// # Examples
///
/// ```
/// use cachesim::{Cache, CacheConfig};
/// use memtrace::Addr;
///
/// let mut cache = Cache::new(CacheConfig::new(1024, 32, 2)?);
/// cache.access_addr(Addr::new(0), false);
/// cache.access_addr(Addr::new(8), false);  // same 32-byte line: hit
/// assert_eq!(cache.stats().misses(), 1);
/// assert_eq!(cache.stats().hits(), 1);
/// # Ok::<(), cachesim::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Every set's tags in one flat allocation: set `s` is the slice
    /// `s * assoc..(s + 1) * assoc`, kept in recency order, most
    /// recently used line first. The set *is* its LRU stack, so the
    /// victim is its last slot and nothing records when a way was used.
    /// Empty ways are never moved to the front, so they stay at the
    /// tail and are filled before anything is evicted.
    lines: Vec<u64>,
    /// Dirty flag of the line in the same slot of `lines`; it moves
    /// with its tag. An empty way is never dirty.
    dirty: Vec<bool>,
    set_shift: u32,
    set_mask: u64,
    assoc: usize,
    stats: CacheStats,
    /// Line index touched by the previous access, if that access left
    /// it resident — in slot 0 of its set, where every access puts its
    /// line; `INVALID` otherwise. Enables the same-line short-circuit
    /// ([`try_rehit`](Cache::try_rehit)).
    last_line: u64,
    /// When false, [`try_rehit`](Cache::try_rehit) declines, so every
    /// reference takes [`access_line`](Cache::access_line); the differential
    /// suites and the repository benchmark's checks (`benchmark/`) use
    /// this as the bit-identical slow reference.
    fast_path: bool,
    obs: CacheObs,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets() as usize;
        let assoc = config.assoc() as usize;
        Cache {
            config,
            lines: vec![INVALID; sets * assoc],
            dirty: vec![false; sets * assoc],
            set_shift: config.line().trailing_zeros(),
            set_mask: config.sets() - 1,
            assoc,
            stats: CacheStats::default(),
            last_line: INVALID,
            fast_path: true,
            obs: CacheObs::default(),
        }
    }

    /// Enables or disables the same-line short-circuit. Statistics are
    /// bit-identical either way; disabling exists so tests and
    /// benchmarks can compare against a replay that looks every
    /// reference up.
    pub(crate) fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Whether the fast lookup paths are enabled.
    pub(crate) fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line index of `addr` under this cache's line size.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> u64 {
        addr.raw() >> self.set_shift
    }

    /// References the line containing `addr`; returns `true` on hit.
    ///
    /// Convenience wrapper over the line-granular access path for
    /// accesses known not to span lines.
    #[inline]
    pub fn access_addr(&mut self, addr: Addr, is_write: bool) -> bool {
        self.access_line(self.line_of(addr), is_write).hit
    }

    /// References line `line` (an address divided by the line size).
    ///
    /// Misses allocate the line (write-allocate); the evicted victim is
    /// the LRU way, and if it is dirty its line index is reported so the
    /// caller can propagate the write-back to the next level.
    ///
    /// [`place_list`](Self::place_list) makes the same walk for many
    /// lines and counts them once.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64, is_write: bool) -> LineOutcome {
        debug_assert_ne!(line, INVALID);
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let base = (line & self.set_mask) as usize * self.assoc;
        let tags = &mut self.lines[base..base + self.assoc];
        let dirty = &mut self.dirty[base..base + self.assoc];
        let (mut carried, mut carried_dirty) = (line, false);
        let found = walk!(tags, dirty, carried, carried_dirty);
        let hit = found.is_some();
        self.obs
            .mru_hits
            .add(u64::from(found == Some(0) && self.fast_path));
        if !hit {
            if is_write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
        }
        // On a hit the carried flag is the line's own.
        dirty[0] = (hit && carried_dirty) || is_write;
        self.last_line = line;
        let writeback = (!hit && carried_dirty).then_some(carried);
        self.stats.writebacks += u64::from(writeback.is_some());
        LineOutcome { hit, writeback }
    }

    /// References `references`' lines in turn, each with whether it is
    /// written (a run record's streams, merged): to the sets and the
    /// statistics, what as many calls of
    /// [`access_line`](Self::access_line) with the fast paths on do,
    /// its counters summed in locals and added once. It leaves no last
    /// line: the caller, which knows the last reference, sets it with
    /// [`set_last_line`](Self::set_last_line). `below` sees each
    /// reference's line and outcome, in order — a miss's fetch and a
    /// dirty victim to send to the next level. It cannot reach this
    /// cache, so the walk keeps the sets' slices and the geometry in
    /// registers.
    ///
    /// At most 2³² − 1 references of each kind a call: the counts of
    /// the two kinds share a register. A direct-mapped cache (the
    /// R8000's L1) takes a copy of the loop whose sets are known to be
    /// one slot long.
    #[inline]
    pub(crate) fn place_list(
        &mut self,
        references: impl Iterator<Item = (u64, bool)>,
        below: impl FnMut(u64, LineOutcome),
    ) {
        if self.assoc == 1 {
            self.place_list_in(1, references, below);
        } else {
            self.place_list_in(self.assoc, references, below);
        }
    }

    /// [`place_list`](Self::place_list) in a cache of `assoc` ways.
    #[inline(always)]
    fn place_list_in(
        &mut self,
        assoc: usize,
        references: impl Iterator<Item = (u64, bool)>,
        mut below: impl FnMut(u64, LineOutcome),
    ) {
        debug_assert!(self.fast_path && assoc == self.assoc);
        let set_mask = self.set_mask;
        let (lines, dirty) = (&mut self.lines[..], &mut self.dirty[..]);
        // Reads in the low half, writes in the high half: one add a
        // reference, whatever its kind.
        let (mut placed, mut missed, mut writebacks, mut mru_hits) = (0u64, 0u64, 0, 0);
        self.last_line = INVALID;
        for (line, is_write) in references {
            debug_assert_ne!(line, INVALID);
            let base = (line & set_mask) as usize * assoc;
            let set = base..base + assoc;
            let (tags, flags) = (&mut lines[set.clone()], &mut dirty[set]);
            let (mut carried, mut carried_dirty) = (line, false);
            let found = walk!(tags, flags, carried, carried_dirty);
            let hit = found.is_some();
            flags[0] = (hit && carried_dirty) || is_write;
            let writeback = (!hit && carried_dirty).then_some(carried);
            let one = 1 << (32 * u32::from(is_write));
            placed += one;
            missed += if hit { 0 } else { one };
            writebacks += u64::from(writeback.is_some());
            mru_hits += u64::from(found == Some(0));
            below(line, LineOutcome { hit, writeback });
        }
        let low = |counts: u64| counts & u64::from(u32::MAX);
        self.stats.reads += low(placed);
        self.stats.writes += placed >> 32;
        self.stats.read_misses += low(missed);
        self.stats.write_misses += missed >> 32;
        self.stats.writebacks += writebacks;
        self.obs.mru_hits.add(mru_hits);
    }

    /// Makes `line` the line [`try_rehit`](Self::try_rehit) may take,
    /// as a reference to it would: the caller's last reference,
    /// [credited](Self::credit_hits), was to `line`, which must
    /// therefore be resident and lead its set.
    #[inline]
    pub(crate) fn set_last_line(&mut self, line: u64) {
        let front = (line & self.set_mask) as usize * self.assoc;
        debug_assert_eq!(self.lines[front], line);
        self.last_line = line;
    }

    /// The line the previous access left resident (and at the front of
    /// its set), if [`try_rehit`](Self::try_rehit) may take it: `None`
    /// with the fast paths off.
    #[inline]
    pub(crate) fn rehit_line(&self) -> Option<u64> {
        (self.fast_path && self.last_line != INVALID).then_some(self.last_line)
    }

    /// Same-line short-circuit: if `line` is the line this cache touched
    /// on its immediately preceding access *and that access left it
    /// resident*, records the guaranteed hit (stats, dirty bit) without
    /// any set lookup and returns `true`. Returns `false` — having
    /// recorded nothing — when the caller must take [`access_line`].
    ///
    /// Correctness: between the access that set `last_line` and this
    /// call, no other reference entered this cache, so the line cannot
    /// have been evicted — and it is still in slot 0 of its set, where
    /// that access put it, so a looked-up hit would move nothing.
    #[inline]
    pub(crate) fn try_rehit(&mut self, line: u64, is_write: bool) -> bool {
        if line != self.last_line || !self.fast_path {
            return false;
        }
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        // `line` is `last_line`, so it leads its set.
        let front = (line & self.set_mask) as usize * self.assoc;
        debug_assert_eq!(self.lines[front], line);
        self.dirty[front] |= is_write;
        self.obs.rehits.incr();
        true
    }

    /// Counts `reads` + `writes` hits the caller has proved without a
    /// lookup — statistics and the probe's `rehits`, nothing else. What
    /// makes that all a hit would have changed is the caller's
    /// argument: the run record's epoch rule, the k-stream scan's
    /// references to a stream's current line, or its count of fetches
    /// of the [`rehit_line`](Self::rehit_line) (`Hierarchy::run`).
    #[inline]
    pub(crate) fn credit_hits(&mut self, reads: u64, writes: u64) {
        self.stats.reads += reads;
        self.stats.writes += writes;
        self.obs.rehits.add(reads + writes);
    }

    /// Whether `line` is resident: a read-only probe that moves no
    /// line within its set, no last line and no statistic. `written`
    /// says the caller's last reference to the line was a write, which
    /// must have left it dirty.
    #[inline]
    pub(crate) fn holds(&self, line: u64, written: bool) -> bool {
        let base = (line & self.set_mask) as usize * self.assoc;
        let slot = self.lines[base..base + self.assoc]
            .iter()
            .position(|&tag| tag == line);
        debug_assert!(slot.is_none_or(|slot| !written || self.dirty[base + slot]));
        slot.is_some()
    }

    /// Flushes this level's probe observations into a profile section:
    /// always-on hit/miss totals plus which fast path served the hits.
    /// Cumulative since construction or the last
    /// [`reset_stats`](Cache::reset_stats) / [`reset`](Cache::reset);
    /// the fast-path counts are zero when the probe layer is compiled
    /// out.
    pub fn probe_section(&self, name: &str) -> probe::Section {
        let mut section = probe::Section::new(name);
        section
            .counter("hits", self.stats.hits())
            .counter("misses", self.stats.misses())
            .counter("rehits", self.obs.rehits.get())
            .counter("mru_hits", self.obs.mru_hits.get());
        section
    }

    /// Zeroes the statistics — and the probe observations that count
    /// the same references, so `rehits + mru_hits <= hits` holds in
    /// every profile — while keeping cache contents warm.
    ///
    /// Use this to exclude warm-up phases (the paper's simulations
    /// exclude program initialization).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.obs = CacheObs::default();
    }

    /// Invalidates all lines and zeroes the statistics.
    pub fn reset(&mut self) {
        self.lines.fill(INVALID);
        self.dirty.fill(false);
        self.reset_stats();
        self.last_line = INVALID;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, line: u64, assoc: u32) -> Cache {
        Cache::new(CacheConfig::new(size, line, assoc).unwrap())
    }

    #[test]
    fn spatial_locality_within_a_line_hits() {
        let mut c = cache(1024, 32, 1);
        assert!(!c.access_addr(Addr::new(64), false));
        for off in 1..32 {
            assert!(c.access_addr(Addr::new(64 + off), false), "offset {off}");
        }
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().references(), 32);
    }

    #[test]
    fn direct_mapped_conflict() {
        // 1024 B direct-mapped, 32 B lines => 32 sets; addresses 0 and
        // 1024 map to the same set and alternate evictions.
        let mut c = cache(1024, 32, 1);
        for _ in 0..4 {
            assert!(!c.access_addr(Addr::new(0), false));
            assert!(!c.access_addr(Addr::new(1024), false));
        }
        assert_eq!(c.stats().misses(), 8);
    }

    #[test]
    fn two_way_absorbs_the_same_conflict() {
        let mut c = cache(1024, 32, 2);
        c.access_addr(Addr::new(0), false);
        c.access_addr(Addr::new(1024), false);
        for _ in 0..4 {
            assert!(c.access_addr(Addr::new(0), false));
            assert!(c.access_addr(Addr::new(1024), false));
        }
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn lru_replacement_order() {
        // One set (fully associative), 2 ways.
        let mut c = cache(64, 32, 2);
        c.access_addr(Addr::new(0), false); // line 0
        c.access_addr(Addr::new(32), false); // line 1
        c.access_addr(Addr::new(0), false); // line 0 now MRU
        c.access_addr(Addr::new(64), false); // evicts line 1 (LRU)
        assert!(c.access_addr(Addr::new(0), false), "line 0 should survive");
        assert!(!c.access_addr(Addr::new(32), false), "line 1 was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = cache(32, 32, 1); // one line total
        let first = c.access_line(0, true);
        assert_eq!(first.writeback, None);
        let second = c.access_line(1, false);
        assert_eq!(
            second.writeback,
            Some(0),
            "dirty line 0 must be written back"
        );
        let third = c.access_line(2, false);
        assert_eq!(third.writeback, None, "clean line 1 evicts silently");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = cache(32, 32, 1);
        c.access_line(0, false); // clean fill
        c.access_line(0, true); // dirty it on a hit
        let out = c.access_line(1, false);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn stats_separate_reads_and_writes() {
        let mut c = cache(1024, 32, 1);
        c.access_addr(Addr::new(0), false);
        c.access_addr(Addr::new(0), true);
        c.access_addr(Addr::new(4096), true);
        let s = c.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.hits(), 1);
        assert!((s.miss_rate_percent() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = cache(1024, 32, 2);
        c.access_addr(Addr::new(0), true);
        c.reset();
        assert_eq!(c.stats().references(), 0);
        assert!(!c.access_addr(Addr::new(0), false), "reset must invalidate");
    }

    #[test]
    fn empty_stats_miss_rate_is_zero() {
        assert_eq!(CacheStats::default().miss_rate_percent(), 0.0);
    }

    #[test]
    fn try_rehit_only_fires_on_resident_last_line() {
        let mut c = cache(1024, 32, 2);
        assert!(!c.try_rehit(0, false), "empty cache has no last line");
        c.access_line(0, false); // miss, allocates
        assert!(c.try_rehit(0, false), "line 0 just touched");
        assert!(c.try_rehit(0, true), "write rehit allowed (write-back)");
        assert!(!c.try_rehit(1, false), "different line");
        assert_eq!(c.stats().references(), 3);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn try_rehit_respects_fast_path_knob() {
        let mut c = cache(1024, 32, 2);
        c.access_line(0, false);
        c.set_fast_path(false);
        assert!(!c.try_rehit(0, false));
        c.set_fast_path(true);
        assert!(c.try_rehit(0, false));
    }

    #[test]
    fn long_rehit_runs_in_a_full_set_leave_the_lru_victim_unchanged() {
        // Rehits move nothing within the set. In a full 4-way set, run
        // long rehit bursts (single and bulk) against every line in turn
        // and interleave evictions: every line written is dirty, so each
        // eviction names its victim through the write-back, and the
        // slow path — which looks every reference up — must name the
        // same one every time.
        let config = CacheConfig::new(128, 32, 4).unwrap(); // one set
        let mut fast = Cache::new(config);
        let mut slow = Cache::new(config);
        slow.set_fast_path(false);
        let mut next_line = 4u64;
        let mut evictions = 0u64;
        let mut reference = |fast: &mut Cache, slow: &mut Cache, line: u64| {
            let f = fast.access_line(line, true);
            assert_eq!(f, slow.access_line(line, true), "line {line}");
            evictions += u64::from(f.writeback.is_some());
        };
        for line in 0..4 {
            reference(&mut fast, &mut slow, line);
        }
        for round in 0..64u64 {
            // Touch one of the last four lines brought in (usually still
            // resident), then rehit it for a run far longer than the set
            // is wide.
            let resident = next_line - 1 - (round % 4);
            reference(&mut fast, &mut slow, resident);
            let burst = 100 + 37 * round;
            if round % 2 == 0 {
                for _ in 0..burst {
                    assert!(fast.try_rehit(resident, round % 3 == 0));
                    assert!(slow.access_line(resident, round % 3 == 0).hit);
                }
            } else {
                // The same burst as one rehit and a bulk credit.
                assert!(fast.try_rehit(resident, true));
                fast.credit_hits(burst - 7, 6);
                for i in 0..burst {
                    assert!(slow.access_line(resident, i < 7).hit);
                }
            }
            // Two fresh lines: two evictions, LRU-first.
            for _ in 0..2 {
                reference(&mut fast, &mut slow, next_line);
                next_line += 1;
            }
        }
        assert!(evictions >= 128, "every fresh line evicted a dirty victim");
        assert_eq!(fast.stats(), slow.stats());
        // Same residents at the end, too.
        for line in 0..next_line {
            assert_eq!(
                fast.clone().access_line(line, false).hit,
                slow.clone().access_line(line, false).hit,
                "line {line}"
            );
        }
    }

    #[test]
    fn holds_probes_without_moving_anything_and_credit_moves_counters_only() {
        // One 2-way set: lines 0 (dirty) and 1, line 0 the LRU.
        let mut c = cache(64, 32, 2);
        c.access_line(0, true);
        c.access_line(1, false);
        let mut fresh = c.clone();
        assert!(c.holds(0, true) && c.holds(1, false));
        assert!(!c.holds(2, false), "never referenced");
        c.credit_hits(5, 3);
        assert_eq!((c.stats().reads, c.stats().writes), (6, 4));
        assert_eq!(c.stats().misses(), 2);
        assert_eq!(c.obs.rehits.get(), 8 * u64::from(probe::enabled()));
        // Neither changed what the next references do: line 1 still
        // rehits, line 0 is still the LRU victim and still dirty, and
        // from there on the cache answers as a clone taken before the
        // probes does.
        assert!(c.try_rehit(1, false));
        assert_eq!(c.access_line(2, false).writeback, Some(0));
        assert_eq!(fresh.access_line(2, false).writeback, Some(0));
        for (line, is_write) in [(2, true), (1, false), (0, false), (3, true), (2, false)] {
            assert_eq!(c.try_rehit(line, is_write), fresh.try_rehit(line, is_write));
            assert_eq!(
                c.access_line(line, is_write),
                fresh.access_line(line, is_write),
                "line {line}"
            );
        }
    }

    #[test]
    fn reset_stats_zeroes_the_fast_path_observations_too() {
        let mut c = cache(1024, 32, 2);
        c.access_line(0, false);
        for _ in 0..10 {
            assert!(c.try_rehit(0, false));
        }
        c.access_line(1, false); // another set: ends the rehit run
        c.access_line(0, false); // looked up, found in slot 0
        c.access_line(0, false);
        assert_eq!(c.obs.mru_hits.get(), 2 * u64::from(probe::enabled()));
        c.reset_stats();
        assert!(c.try_rehit(0, false), "contents and last line stay warm");
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.obs.rehits.get(), u64::from(probe::enabled()));
        assert_eq!(c.obs.mru_hits.get(), 0);
    }

    #[test]
    fn mru_hits_count_lookups_that_find_the_line_at_the_front() {
        for fast in [true, false] {
            let mut c = cache(64, 32, 2); // one 2-way set
            c.set_fast_path(fast);
            c.access_line(0, false);
            c.access_line(1, false);
            c.access_line(0, false); // from slot 1: not counted
            c.access_line(0, false); // at the front
            c.access_line(0, true); // and again
            assert_eq!(c.stats().hits(), 3);
            let counted = 2 * u64::from(fast && probe::enabled());
            assert_eq!(c.obs.mru_hits.get(), counted, "fast paths {fast}");
        }
    }

    #[test]
    fn fast_and_slow_paths_produce_identical_stats() {
        // Drive two identical caches with the same pseudo-random stream:
        // the fast one through the rehit-then-lookup path the hierarchy
        // uses, the slow one through the set lookup only. Every
        // counter must agree.
        let config = CacheConfig::new(1024, 32, 2).unwrap();
        let mut fast = Cache::new(config);
        let mut slow = Cache::new(config);
        slow.set_fast_path(false);
        let mut x = 0x2545f4914f6cdd1du64;
        let mut outcomes_checked = 0u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Bias toward reuse (and exact repeats) so hits at the
            // front of a set and same-line rehits actually occur.
            let line = match i % 4 {
                0 => (x % 8) * 4,
                1 => x % 4, // tiny range: frequent exact repeats
                _ => x % 256,
            };
            let is_write = x.is_multiple_of(5);
            if !fast.try_rehit(line, is_write) {
                let f = fast.access_line(line, is_write);
                let s = slow.access_line(line, is_write);
                assert_eq!(f, s, "outcome diverged at reference {i}");
                outcomes_checked += 1;
                continue;
            }
            let s = slow.access_line(line, is_write);
            assert!(s.hit, "rehit accepted a line the slow path missed");
        }
        assert_eq!(fast.stats(), slow.stats());
        assert!(outcomes_checked > 0);
    }

    /// The textbook set: `(line, dirty)` pairs, most recently used
    /// first, at most `assoc` of them.
    fn model_access(
        set: &mut Vec<(u64, bool)>,
        assoc: usize,
        line: u64,
        is_write: bool,
    ) -> LineOutcome {
        if let Some(at) = set.iter().position(|&(resident, _)| resident == line) {
            let (_, dirty) = set.remove(at);
            set.insert(0, (line, dirty || is_write));
            return LineOutcome {
                hit: true,
                writeback: None,
            };
        }
        let mut writeback = None;
        if set.len() == assoc {
            writeback = set
                .pop()
                .and_then(|(victim, dirty)| dirty.then_some(victim));
        }
        set.insert(0, (line, is_write));
        LineOutcome {
            hit: false,
            writeback,
        }
    }

    #[test]
    fn outcomes_match_a_list_per_set_model_at_every_associativity() {
        for (assoc, sets) in [(1, 16), (2, 8), (4, 4), (8, 2), (16, 2), (64, 1)] {
            let config = CacheConfig::new(32 * u64::from(assoc) * sets, 32, assoc).unwrap();
            let mut c = Cache::new(config);
            let mut model = vec![Vec::new(); sets as usize];
            let mut x = 0x9e3779b97f4a7c15u64 ^ u64::from(assoc);
            let (mut line, mut writebacks) = (0, 0);
            for i in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Three lines a way, so sets fill and evict; every
                // fifth reference repeats the one before it.
                if i % 5 != 4 {
                    line = (x >> 8) % (3 * u64::from(assoc) * sets);
                }
                let is_write = x.is_multiple_of(3);
                let expected = model_access(
                    &mut model[(line % sets) as usize],
                    assoc as usize,
                    line,
                    is_write,
                );
                assert_eq!(
                    c.access_line(line, is_write),
                    expected,
                    "{assoc}-way, reference {i}: line {line}"
                );
                writebacks += u64::from(expected.writeback.is_some());
            }
            assert_eq!(c.stats().writebacks, writebacks);
            assert!(writebacks > 1_000, "{assoc}-way");
        }
    }

    #[test]
    fn empty_ways_fill_before_anything_is_evicted() {
        // One 4-way set. Written lines are dirty, so an eviction would
        // show as a write-back; hits in between reorder the residents
        // but must never push an empty way to the front.
        let mut c = cache(128, 32, 4);
        for round in 0..2 {
            for line in 0..4 {
                assert_eq!(
                    c.access_line(line, true),
                    LineOutcome {
                        hit: false,
                        writeback: None
                    },
                    "round {round}, line {line}"
                );
                for resident in 0..=line {
                    assert!(c.access_line(resident, false).hit, "line {resident}");
                }
            }
            // Full now: the fifth line evicts the LRU, line 0.
            assert_eq!(c.access_line(4, false).writeback, Some(0));
            c.reset();
        }
    }

    #[test]
    fn placing_a_list_is_its_references_one_by_one() {
        for assoc in [1, 2, 4] {
            let mut placed = cache(256, 32, assoc);
            let mut looked_up = placed.clone();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let references: Vec<(u64, bool)> = (0..3_000)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 40, x.is_multiple_of(3))
                })
                .collect();
            let (mut from_list, mut one_by_one) = (Vec::new(), Vec::new());
            for chunk in references.chunks(64) {
                placed.place_list(chunk.iter().copied(), |line, outcome| {
                    from_list.push((line, outcome));
                });
                // The list leaves no last line; its caller sets it.
                assert_eq!(placed.rehit_line(), None);
                placed.set_last_line(chunk[chunk.len() - 1].0);
                for &(line, is_write) in chunk {
                    one_by_one.push((line, looked_up.access_line(line, is_write)));
                }
            }
            assert_eq!(from_list, one_by_one, "{assoc}-way");
            assert_eq!(placed.stats(), looked_up.stats(), "{assoc}-way");
            assert_eq!(placed.last_line, looked_up.last_line);
            assert_eq!(
                (placed.lines, placed.dirty),
                (looked_up.lines, looked_up.dirty)
            );
        }
    }

    #[test]
    fn rehits_dirty_the_line_a_later_eviction_writes_back() {
        for bulk in [false, true] {
            let mut c = cache(64, 32, 2); // one 2-way set
            c.access_line(0, false);
            c.access_line(1, false); // both clean
            assert!(c.try_rehit(1, true));
            if bulk {
                c.credit_hits(3, 0);
            }
            assert!(c.holds(1, true));
            assert_eq!(c.access_line(2, false).writeback, None, "line 0 was clean");
            assert_eq!(c.access_line(3, false).writeback, Some(1), "bulk: {bulk}");
            assert_eq!(c.stats().writebacks, 1);
        }
    }
}
