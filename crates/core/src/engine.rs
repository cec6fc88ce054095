//! The shared bin engine (paper §3.2), generic over the scheduled item
//! type and the [`BinPolicy`].
//!
//! [`Scheduler`](crate::Scheduler) and
//! [`ParScheduler`](crate::ParScheduler) are thin configurations of
//! this one engine — hash table + ready list, one record vector per
//! bin, optional package-memory tracing, one drain step, and the probe
//! observations.
//! [`FifoScheduler`](crate::FifoScheduler) and
//! [`RandomScheduler`](crate::RandomScheduler) are type aliases of
//! `Scheduler` under a degenerate policy, not configurations of their
//! own; the random baseline's seed shuffles the batch unit order and
//! nothing else. The policy owns *where* a thread goes (hints → bin
//! key, optional parent grouping); the engine owns everything else.
//!
//! The ready list holds *drain units*: coarsest-level groups of bins,
//! in the order they last became non-empty — at depth 1 each bin is
//! its own unit, so the list is the paper's list of bins. It is kept
//! from the first fork. A batch run walks it, an online drain pops its
//! front, and a parallel run partitions it flattened into bins, so the
//! three see one order.
//!
//! The paper's package chunks a bin's threads into 256-record *thread
//! groups*. Here that layout exists only where it is observable: in
//! the synthetic addresses of the package-memory trace. The heap holds
//! the records of a bin contiguously, in fork order.

use crate::config::EvictionPolicy;
use crate::hint::MAX_DIMS;
use crate::policy::BinPolicy;
use crate::stats::{RunStats, SchedulerStats};
use crate::table::{BinId, BinTable};
use crate::{Hints, RunMode, SchedulerConfig};
use memtrace::{Addr, SchedMark, TraceSink};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Fixed base of the package's synthetic memory: every reference the
/// scheduler emits on its own behalf (hash buckets, bin records, thread
/// groups) lives at or above this address, and no traced application
/// structure ever does. Trace consumers that want application traffic
/// only — e.g. `memtrace::FootprintSink` feeding the schedule analyzer
/// — can filter on it.
pub const PACKAGE_TRACE_BASE: u64 = 0x7f00_0000_0000;

/// Threads per thread-group chunk of the traced package. "The thread
/// group data structure represents a number of threads within a bin; by
/// grouping threads together in this way, amortization reduces the cost
/// of thread structure management" (§3.2).
pub(crate) const GROUP_CAPACITY: usize = 256;

/// Bytes of one thread record: function pointer + two word arguments
/// (the paper's three-word spec).
const SPEC_BYTES: u64 = 24;
/// Bytes of a bin record: "three link fields and a search key" (§3.2).
const BIN_HEADER_BYTES: u64 = 48;
/// Bytes of a thread-group header: count + next pointer.
const GROUP_HEADER_BYTES: u64 = 16;
/// Bytes of one hash bucket (a pointer).
const BUCKET_BYTES: u64 = 8;

/// Identifier of a drain unit: at depth 1 the id of its one bin, at
/// depth ≥ 2 an id of the engine's group table.
type UnitId = BinId;

/// A bin: the thread records of one block of the scheduling space, in
/// fork order.
#[derive(Clone, Debug)]
pub(crate) struct Bin<T> {
    items: Vec<T>,
    /// Synthetic address of the bin record (null when tracing is off).
    header: Addr,
    /// Synthetic base address of each thread group: record `index`
    /// lives in group `index / GROUP_CAPACITY` (empty when tracing is
    /// off).
    groups: Vec<Addr>,
    /// Drain epoch at which this bin was last drained empty — its
    /// ticket in the eviction idle queue. `0` means "not a candidate"
    /// (never drained, refilled since, or freshly (re)created); a
    /// queued `(stamp, id)` entry is valid iff `stamp == idle_stamp`.
    idle_stamp: u64,
    /// The drain unit the bin belongs to.
    unit: UnitId,
}

/// The emptied `items` and `groups` vectors of a cleared bin, kept for
/// the bin that takes its id in the next round.
type Storage<T> = (Vec<T>, Vec<Addr>);

impl<T> Bin<T> {
    fn new(header: Addr, unit: UnitId, (items, groups): Storage<T>) -> Self {
        debug_assert!(items.is_empty() && groups.is_empty());
        Bin {
            items,
            header,
            groups,
            idle_stamp: 0,
            unit,
        }
    }

    /// Number of threads in the bin.
    pub(crate) fn threads(&self) -> u64 {
        self.items.len() as u64
    }

    /// All thread records in fork order.
    pub(crate) fn items(&self) -> &[T] {
        &self.items
    }
}

/// A drain unit of a nested (depth ≥ 2) policy: one coarsest-level
/// group of bins, drained back-to-back. At depth 1 each bin is its own
/// unit and has no record: it is on the ready list iff it holds
/// threads.
#[derive(Clone, Debug, Default)]
struct Unit {
    /// Member bins in ladder ([`nested_cmp`](BinEngine::nested_cmp))
    /// order, each inserted at its place when created, so no drain
    /// sorts.
    members: Vec<BinId>,
    /// Whether the unit is on the ready list.
    queued: bool,
}

/// Synthetic addresses for the package's own data structures, so their
/// cache traffic shows up in traces (Pixie instrumented the thread
/// package along with the application — the visible difference between
/// the paper's threaded and cache-conscious PDE columns in Table 5).
#[derive(Clone, Debug)]
struct MetaTrace {
    /// The hash table's bucket array: the paper's `hash_size⁴` array of
    /// pointers, which exists only as these addresses.
    table_base: Addr,
    /// `log2(hash_size)`: index bits each coordinate contributes.
    dim_bits: u32,
    /// Bump pointer for bin records and thread groups, mimicking an
    /// arena allocator. The arena is the rest of the address space
    /// above the bucket array — synthetic addresses cost nothing to
    /// reserve — so at 24 real bytes a record no schedule that fits in
    /// memory can exhaust it.
    bump: Addr,
    arena_base: Addr,
}

impl MetaTrace {
    /// Address of the bucket the paper's table probes for `key`: "a
    /// shift and a mask operation on each hint" (the shift already
    /// happened when hints became block coordinates).
    #[inline]
    fn bucket_addr(&self, key: [u64; MAX_DIMS]) -> Addr {
        let mask = (1u64 << self.dim_bits) - 1;
        let mut bucket = 0u64;
        for coord in key {
            bucket = (bucket << self.dim_bits) | (coord & mask);
        }
        self.table_base + bucket * BUCKET_BYTES
    }

    fn alloc(&mut self, bytes: u64) -> Addr {
        let addr = self.bump;
        self.bump = addr + bytes;
        addr
    }
}

/// Probe observations for one engine instance, cumulative across runs.
/// Kept out of [`RunStats`]/[`SchedulerStats`] so the always-on
/// statistics stay byte-identical whether or not probes are compiled
/// in; flushed on demand by [`BinEngine::run_profile`].
#[derive(Clone, Debug, Default)]
struct SchedObs {
    /// Forks that allocated a new bin. The forks that found their bin
    /// — the hint-to-bin reuse the locality win depends on — are the
    /// rest of the forks, folded in at flush.
    bins_created: probe::LocalCounter,
    /// Threads drained by a consuming drain or dropped by a clear: with
    /// the pending ones, every thread forked, so a fork bumps no probe.
    retired: probe::LocalCounter,
    /// Thread count of each bin drained.
    bin_occupancy: probe::LocalHistogram,
    /// Wall time to drain one bin.
    bin_drain_ns: probe::LocalHistogram,
    /// Wall time of one whole `run_with` call (turnaround).
    run_ns: probe::LocalHistogram,
    /// Thread count of each *parent* group drained (hierarchical
    /// policies only; empty for flat policies).
    parent_occupancy: probe::LocalHistogram,
    /// Sub-bins drained under parent grouping (hierarchical policies
    /// only; zero for flat policies).
    subbins_run: probe::LocalCounter,
    /// Bin records freed by the eviction policy.
    evictions: probe::LocalCounter,
}

/// What one drain threads through its consecutive bins.
struct DrainCursor {
    /// Number of the next [`SchedMark::Dispatch`].
    dispatched: u64,
    /// When the previous bin ended (or the drain began): the drain-time
    /// probe laps it, so a bin costs one clock read, not a span's two.
    clock: probe::LocalLap,
}

impl DrainCursor {
    fn starting_at(dispatched: u64) -> Self {
        DrainCursor {
            dispatched,
            clock: probe::LocalLap::start(),
        }
    }
}

/// The bin engine: bin table, bin records, drain units and their ready
/// list, meta tracing, and the drain step, parameterized by the
/// scheduled item type `T` and the binning policy `P`.
///
/// Invariant: a unit is on `ready` (and, if nested, flagged `queued`)
/// iff at least one of its member bins holds threads. A fork links the
/// unit at the back on its bin's empty → non-empty transition; an
/// online drain pops the front and empties every member, so the list
/// never holds a stale entry.
#[derive(Clone, Debug)]
pub(crate) struct BinEngine<T, P> {
    policy: P,
    hash_size: usize,
    /// Seed that shuffles the batch unit order; set only by
    /// [`RandomScheduler`](crate::RandomScheduler). `None` walks the
    /// ready list as it stands.
    shuffle: Option<u64>,
    table: BinTable,
    bins: Vec<Bin<T>>,
    threads: u64,
    meta: Option<MetaTrace>,
    obs: SchedObs,
    /// Coarsest ancestor key → unit id, at depth ≥ 2 (empty at depth 1).
    groups: BinTable,
    /// The nested policies' drain units, indexed by unit id.
    units: Vec<Unit>,
    /// The paper's ready list (§3.2): units in the order they last
    /// became non-empty.
    ready: VecDeque<UnitId>,
    /// Bin-record retirement policy (see [`EvictionPolicy`]).
    eviction: EvictionPolicy,
    /// Online drains since the last clear: the epoch stamped onto bins
    /// as they drain empty, and one past the last drain's
    /// [`SchedMark::DrainBegin`] number. Valid stamps are therefore
    /// ≥ 1, and `idle_stamp == 0` is unambiguous.
    drain_epoch: u64,
    /// Number of the next online [`SchedMark::Dispatch`], counted
    /// across drains until the next clear.
    dispatched: u64,
    /// Eviction candidates in stamp (least-recently-drained) order.
    /// Entries are lazily invalidated — a refill zeroes the bin's
    /// `idle_stamp`, a re-drain restamps it — and the queue is
    /// compacted when stale entries pile up, so it stays O(live bins).
    idle: VecDeque<(u64, BinId)>,
    /// Bin records freed over the engine's life (the always-on twin of
    /// the probe counter).
    evictions: u64,
    /// High-water mark of live bin records, across the engine's life.
    peak_bins: usize,
    /// Storage of the bins the last [`clear`](Self::clear) emptied,
    /// last id first: the next round's bin `i` pops what this round's
    /// bin `i` grew, so a round shaped like the last allocates nothing.
    spare: Vec<Storage<T>>,
}

impl<T, P: BinPolicy> BinEngine<T, P> {
    /// Creates an empty engine with `config`'s hash size and eviction
    /// policy, whose batch order is shuffled by `shuffle`, if set.
    pub(crate) fn new(config: &SchedulerConfig, policy: P, shuffle: Option<u64>) -> Self {
        BinEngine {
            table: BinTable::new(),
            bins: Vec::new(),
            threads: 0,
            policy,
            hash_size: config.hash_size(),
            shuffle,
            meta: None,
            obs: SchedObs::default(),
            groups: BinTable::new(),
            units: Vec::new(),
            ready: VecDeque::new(),
            eviction: config.eviction(),
            drain_epoch: 0,
            dispatched: 0,
            idle: VecDeque::new(),
            evictions: 0,
            peak_bins: 0,
            spare: Vec::new(),
        }
    }

    /// The engine's policy.
    pub(crate) fn policy(&self) -> &P {
        &self.policy
    }

    /// The coarsest-level ancestor of a fine bin key — the drain-unit
    /// grouping key. Identity for flat policies.
    #[inline]
    fn group_key(&self, key: [u64; MAX_DIMS]) -> [u64; MAX_DIMS] {
        self.policy.ancestor_key(key, self.policy.depth() - 1)
    }

    /// Orders two fine keys within one coarsest-level group by their
    /// full ancestor ladder: compare intermediate ancestor keys coarse
    /// → fine, tie-breaking on the fine key itself. Shifting is not
    /// monotone under plain lexicographic key order (e.g. keys `(1, 9)`
    /// < `(2, 0)` but their `>> 2` ancestors `(0, 2)` > `(0, 0)`), so
    /// ordering by the ladder — not the fine key — is what keeps each
    /// intermediate level's bins contiguous. At depth 2 the ladder is
    /// just the fine key.
    #[inline]
    fn nested_cmp(&self, a: [u64; MAX_DIMS], b: [u64; MAX_DIMS]) -> Ordering {
        for level in (1..self.policy.depth().saturating_sub(1)).rev() {
            match self
                .policy
                .ancestor_key(a, level)
                .cmp(&self.policy.ancestor_key(b, level))
            {
                Ordering::Equal => {}
                other => return other,
            }
        }
        a.cmp(&b)
    }

    /// Enables tracing of the package's own memory traffic (see
    /// [`Scheduler::trace_package_memory`](crate::Scheduler::trace_package_memory)).
    pub(crate) fn trace_package_memory(&mut self) {
        let buckets = (self.hash_size as u64).pow(MAX_DIMS as u32) * BUCKET_BYTES;
        let table_base = Addr::new(PACKAGE_TRACE_BASE);
        let bump = (table_base + buckets).align_up(128);
        self.meta = Some(MetaTrace {
            table_base,
            dim_bits: self.hash_size.trailing_zeros(),
            bump,
            arena_base: bump,
        });
    }

    /// Places `item` into the bin chosen by the policy for `hints`,
    /// emitting the package's own memory references into `sink` if
    /// tracing is enabled: the hash-bucket probe, the thread-record
    /// store, and the bin-header update. Always announces the fork's
    /// hint addresses with a [`SchedMark::Fork`] (a no-op for ordinary
    /// sinks) so schedule-analysis sinks see the thread/hint graph in
    /// fork order.
    ///
    /// The common fork — tracing off, no eviction armed, a key whose
    /// bin exists and holds threads — is inline: one probe, one push,
    /// one count. Everything else takes `insert_slow`.
    #[inline]
    pub(crate) fn insert_traced<S: TraceSink>(&mut self, item: T, hints: Hints, sink: &mut S) {
        sink.mark(SchedMark::Fork(&hints.as_array()[..hints.dims()]));
        let key = self.policy.bin_key(hints);
        if self.meta.is_none()
            && matches!(self.eviction, EvictionPolicy::Off)
            && !self.policy.always_unique()
        {
            if let Some(id) = self.table.find(key) {
                // A bin holding threads has its unit on the ready list
                // and an `idle_stamp` of 0, and the live bin count did
                // not change: nothing else to update.
                let bin = &mut self.bins[id as usize];
                if !bin.items.is_empty() {
                    bin.items.push(item);
                    self.threads += 1;
                    return;
                }
            }
        }
        self.insert_slow(item, key, sink);
    }

    /// The rest of a fork: bin creation, package-memory tracing, the
    /// ready-list step and eviction. Cold, so that the inline fork
    /// falls through to its push.
    #[cold]
    #[inline(never)]
    fn insert_slow<S: TraceSink>(&mut self, item: T, key: [u64; MAX_DIMS], sink: &mut S) {
        let (id, created) = if self.policy.always_unique() {
            (self.table.append_unique(key), true)
        } else {
            self.table.lookup_or_insert(key)
        };
        if let Some(meta) = &self.meta {
            // Hash probe.
            sink.read(meta.bucket_addr(key), BUCKET_BYTES as u32);
        }
        if created {
            self.obs.bins_created.incr();
            let header = match &mut self.meta {
                Some(meta) => {
                    let header = meta.alloc(BIN_HEADER_BYTES);
                    // Initialize the bin record and link it into the
                    // bucket chain and the ready list.
                    sink.write(header, BIN_HEADER_BYTES as u32);
                    header
                }
                None => Addr::NULL,
            };
            let unit = self.join_unit(id, key);
            let bin = Bin::new(header, unit, self.spare.pop().unwrap_or_default());
            // The table recycles evicted slots, so the id may name an
            // existing (dead) slot rather than the end of the array.
            if (id as usize) < self.bins.len() {
                self.bins[id as usize] = bin;
            } else {
                self.bins.push(bin);
            }
        }
        let bin = &mut self.bins[id as usize];
        let (refilled, unit) = (bin.items.is_empty(), bin.unit);
        // A refill (or fresh creation) disqualifies any queued eviction
        // candidacy for this slot.
        bin.idle_stamp = 0;
        let index = bin.items.len();
        bin.items.push(item);
        // A bin allocated before tracing was switched on has no
        // synthetic record and stays silent.
        if let Some(meta) = self.meta.as_mut().filter(|_| !bin.header.is_null()) {
            let slot = (index % GROUP_CAPACITY) as u64;
            if slot == 0 {
                // The last group is full (or there is none): chain a
                // fresh one.
                let base = meta.alloc(GROUP_HEADER_BYTES + GROUP_CAPACITY as u64 * SPEC_BYTES);
                sink.write(base, GROUP_HEADER_BYTES as u32);
                bin.groups.push(base);
            }
            let base = *bin.groups.last().expect("every traced record has a group");
            // Store the three-word thread record and bump the group's
            // count field.
            sink.write(
                base + GROUP_HEADER_BYTES + slot * SPEC_BYTES,
                SPEC_BYTES as u32,
            );
            sink.write(base, 8);
        }
        self.threads += 1;
        if refilled {
            // Either another member keeps the unit ready (no-op) or
            // this fork made it non-empty: link it at the back of the
            // ready list, as the paper's package re-links a refilled
            // bin.
            self.link(unit);
        }
        // Reap retired records *after* the fork completes: only forks
        // trigger eviction, so a run whose arrivals all precede its
        // drains (the t=0 equivalence case) never evicts, and the bin
        // just forked into is non-empty and therefore never a victim.
        self.apply_eviction();
        self.peak_bins = self.peak_bins.max(self.table.len());
    }

    /// Enters bin `id`, just created for `key`, into its drain unit,
    /// creating the unit with the group's first bin, and returns the
    /// unit's id. At depth 1 the unit is the bin itself; deeper, the
    /// group table finds it by the coarsest ancestor key and the bin
    /// takes its place among the members in ladder order.
    fn join_unit(&mut self, id: BinId, key: [u64; MAX_DIMS]) -> UnitId {
        if self.policy.depth() <= 1 {
            return id;
        }
        let (unit, created) = self.groups.lookup_or_insert(self.group_key(key));
        if created {
            // Unit ids are dense (or recycled), like bin ids.
            match self.units.get_mut(unit as usize) {
                Some(slot) => *slot = Unit::default(),
                None => self.units.push(Unit::default()),
            }
        }
        let members = &self.units[unit as usize].members;
        let at = members.partition_point(|&m| self.nested_cmp(self.table.key(m), key).is_lt());
        self.units[unit as usize].members.insert(at, id);
        unit
    }

    /// Links `unit`, one of whose bins just went from empty to
    /// non-empty, at the back of the ready list unless it is on it (a
    /// depth-1 unit, that one bin, is not).
    fn link(&mut self, unit: UnitId) {
        if self.policy.depth() > 1 {
            let entry = &mut self.units[unit as usize];
            if entry.queued {
                return;
            }
            entry.queued = true;
        }
        self.ready.push_back(unit);
    }

    /// The member bins of `unit`, in ladder order: at depth 1, the
    /// unit's one bin.
    fn members<'a>(&'a self, unit: &'a UnitId) -> &'a [BinId] {
        if self.policy.depth() > 1 {
            &self.units[*unit as usize].members
        } else {
            std::slice::from_ref(unit)
        }
    }

    /// Whether `(stamp, id)` is still a valid eviction candidate: the
    /// slot is live, empty, and has not been refilled or re-drained
    /// since it was stamped.
    #[inline]
    fn is_evictable(&self, id: BinId, stamp: u64) -> bool {
        self.table.is_live(id)
            && self.bins[id as usize].items.is_empty()
            && self.bins[id as usize].idle_stamp == stamp
    }

    /// Frees one drained-and-empty bin record: unlinks it from the
    /// table (bucket chain + slot free list) and from its unit, freeing
    /// a unit left without members. The ready list is untouched — the
    /// record has no threads, so its unit is queued only if another
    /// member holds threads — and ids of other bins don't shift.
    fn evict(&mut self, id: BinId) {
        let bin = &mut self.bins[id as usize];
        debug_assert!(bin.items.is_empty());
        // Drop the record storage; the slot is reused by a later insert.
        bin.items = Vec::new();
        bin.groups = Vec::new();
        let unit = bin.unit;
        self.table.remove(id);
        if self.policy.depth() > 1 {
            let members = &mut self.units[unit as usize].members;
            members.retain(|&m| m != id);
            if members.is_empty() {
                self.groups.remove(unit);
            }
        }
        self.evictions += 1;
        self.obs.evictions.incr();
    }

    /// Applies the configured eviction policy, called once per slow
    /// fork (every fork while it is armed): while the table is over the
    /// cap, frees the least-recently-drained empty records.
    fn apply_eviction(&mut self) {
        let EvictionPolicy::LruCap { max_records } = self.eviction else {
            return;
        };
        while self.table.len() as u64 > max_records {
            let Some((stamp, id)) = self.idle.pop_front() else {
                // No empty candidate left; every live record holds
                // threads and must stay.
                break;
            };
            if self.is_evictable(id, stamp) {
                self.evict(id);
            }
        }
    }

    /// Drains the unit at the front of the ready list with the same
    /// callbacks as [`run_with`](Self::run_with), consuming its
    /// threads. The bin records (and their table keys) stay allocated
    /// so ids remain stable, and each keeps its record vector for the
    /// refill; a later fork into one re-links its unit at the back of
    /// the ready list — unless the eviction policy reaps the idle
    /// record first, in which case the key re-arrives as a fresh fork.
    /// Its marks are numbered across drains until the next clear.
    /// Returns `None` when nothing is ready.
    pub(crate) fn drain_next_with<X>(
        &mut self,
        ctx: &mut X,
        mut on_read: impl FnMut(&mut X, Addr, u32),
        mut on_mark: impl FnMut(&mut X, SchedMark<'_>),
        mut exec: impl FnMut(&mut X, &T),
    ) -> Option<RunStats> {
        let unit = self.ready.pop_front()?;
        if self.policy.depth() > 1 {
            self.units[unit as usize].queued = false;
        }
        self.drain_epoch += 1;
        let epoch = self.drain_epoch;
        let mut cursor = DrainCursor::starting_at(self.dispatched);
        let stats = self.drain_unit(
            unit,
            epoch - 1,
            ctx,
            &mut cursor,
            &mut on_read,
            &mut on_mark,
            &mut exec,
        );
        self.dispatched = cursor.dispatched;
        let reap = !matches!(self.eviction, EvictionPolicy::Off);
        for at in 0..self.members(&unit).len() {
            let id = self.members(&unit)[at];
            let bin = &mut self.bins[id as usize];
            let drained = bin.threads();
            if drained == 0 {
                // Empty before this drain: it keeps its older stamp.
                continue;
            }
            bin.items.clear();
            bin.groups.clear();
            self.threads -= drained;
            self.obs.retired.add(drained);
            if reap {
                bin.idle_stamp = epoch;
                self.idle.push_back((epoch, id));
            }
        }
        // Compact lazily-invalidated entries once they dominate; a bin
        // has at most one valid ticket (the one matching its stamp), so
        // the queue shrinks to ≤ live bins.
        if reap && self.idle.len() > 2 * self.bins.len() + 16 {
            let bins = &self.bins;
            self.idle
                .retain(|&(stamp, id)| bins[id as usize].idle_stamp == stamp);
        }
        Some(stats)
    }

    /// The bins of the ready list's units, flattened in drain order:
    /// what a parallel run partitions.
    pub(crate) fn ready_bins(&self) -> Vec<BinId> {
        let holds_threads = |&id: &BinId| !self.bins[id as usize].items.is_empty();
        let bins = self.ready.iter().flat_map(|unit| self.members(unit));
        bins.copied().filter(holds_threads).collect()
    }

    /// Block-coordinate key of one bin at the coarsest (group)
    /// granularity — the coordinates manhattan-distance stealing scores
    /// over. Identity for flat policies.
    #[inline]
    pub(crate) fn steal_key(&self, id: BinId) -> [u64; MAX_DIMS] {
        self.group_key(self.table.key(id))
    }

    /// The allocated bins, indexed by bin id.
    pub(crate) fn bins_slice(&self) -> &[Bin<T>] {
        &self.bins
    }

    /// The drain step both drains share: runs every non-empty member
    /// bin of `unit` in ladder order between a
    /// [`SchedMark::DrainBegin`] / [`SchedMark::DrainEnd`] pair
    /// numbered `ordinal`, and records the unit's occupancy for nested
    /// policies. The bins are left as they were.
    #[allow(clippy::too_many_arguments)]
    fn drain_unit<X>(
        &self,
        unit: UnitId,
        ordinal: u64,
        ctx: &mut X,
        cursor: &mut DrainCursor,
        on_read: &mut impl FnMut(&mut X, Addr, u32),
        on_mark: &mut impl FnMut(&mut X, SchedMark<'_>),
        exec: &mut impl FnMut(&mut X, &T),
    ) -> RunStats {
        on_mark(ctx, SchedMark::DrainBegin(ordinal));
        let mut stats = RunStats::default();
        for &id in self.members(&unit) {
            if !self.bins[id as usize].items.is_empty() {
                stats.threads_run += self.drain_bin(id, ctx, cursor, on_read, on_mark, exec);
                stats.bins_visited += 1;
            }
        }
        if self.policy.depth() > 1 {
            self.obs.parent_occupancy.record(stats.threads_run);
        }
        on_mark(ctx, SchedMark::DrainEnd(ordinal));
        stats
    }

    /// Runs every thread of bin `id` in fork order: the package's own
    /// reads (bin record, group headers, thread records; only for a
    /// traced bin), a [`SchedMark::Dispatch`] numbered from the cursor
    /// immediately before each `exec`, and the per-bin occupancy,
    /// sub-bin and drain-time probes (the time since the cursor's
    /// previous bin ended). Returns the bin's thread count; the bin
    /// itself is left as it was.
    #[inline]
    fn drain_bin<X>(
        &self,
        id: BinId,
        ctx: &mut X,
        cursor: &mut DrainCursor,
        on_read: &mut impl FnMut(&mut X, Addr, u32),
        on_mark: &mut impl FnMut(&mut X, SchedMark<'_>),
        exec: &mut impl FnMut(&mut X, &T),
    ) -> u64 {
        let bin = &self.bins[id as usize];
        let tracing = !bin.header.is_null();
        self.obs.bin_occupancy.record(bin.threads());
        if self.policy.depth() > 1 {
            self.obs.subbins_run.incr();
        }
        if tracing {
            // Ready-list step: load the bin record.
            on_read(ctx, bin.header, BIN_HEADER_BYTES as u32);
        }
        for (index, item) in bin.items.iter().enumerate() {
            if tracing {
                let base = bin.groups[index / GROUP_CAPACITY];
                let slot = (index % GROUP_CAPACITY) as u64;
                if slot == 0 {
                    // Group header: count + next pointer.
                    on_read(ctx, base, GROUP_HEADER_BYTES as u32);
                }
                on_read(
                    ctx,
                    base + GROUP_HEADER_BYTES + slot * SPEC_BYTES,
                    SPEC_BYTES as u32,
                );
            }
            on_mark(ctx, SchedMark::Dispatch(cursor.dispatched));
            cursor.dispatched += 1;
            exec(ctx, item);
        }
        cursor.clock.lap(&self.obs.bin_drain_ns);
        bin.threads()
    }

    /// Drains every unit on the ready list, in list order (or in the
    /// `shuffle` seed's permutation of it), with the drain step
    /// [`drain_next_with`](Self::drain_next_with) uses:
    /// `on_read(ctx, addr, size)` is called for each package memory
    /// reference (only when tracing is enabled), `on_mark(ctx, mark)`
    /// with a [`SchedMark::Dispatch`] immediately before each thread of
    /// this run executes and a [`SchedMark::DrainBegin`] /
    /// [`SchedMark::DrainEnd`] pair around each drain unit, both
    /// numbered from 0 on each run — unconditionally: callers wanting
    /// the schedule pass a forwarder, others a no-op — and
    /// `exec(ctx, item)` for each thread record. Splitting the sink
    /// access (`on_read`/`on_mark`) from thread execution (`exec`)
    /// lets one `&mut ctx` serve both without aliasing.
    ///
    /// [`RunMode::Retain`] leaves every bin and the ready list as they
    /// were; [`RunMode::Consume`] clears the engine.
    pub(crate) fn run_with<X>(
        &mut self,
        ctx: &mut X,
        mode: RunMode,
        mut on_read: impl FnMut(&mut X, Addr, u32),
        mut on_mark: impl FnMut(&mut X, SchedMark<'_>),
        mut exec: impl FnMut(&mut X, &T),
    ) -> RunStats {
        let shuffled: Vec<UnitId>;
        let order: &[UnitId] = match self.shuffle {
            Some(seed) => {
                let mut units: Vec<UnitId> = self.ready.iter().copied().collect();
                units.shuffle(&mut SmallRng::seed_from_u64(seed));
                shuffled = units;
                &shuffled
            }
            None => {
                self.ready.make_contiguous();
                self.ready.as_slices().0
            }
        };
        let mut stats = RunStats::default();
        {
            let _run_span = self.obs.run_ns.span();
            let mut cursor = DrainCursor::starting_at(0);
            for (ordinal, &unit) in order.iter().enumerate() {
                let ran = self.drain_unit(
                    unit,
                    ordinal as u64,
                    ctx,
                    &mut cursor,
                    &mut on_read,
                    &mut on_mark,
                    &mut exec,
                );
                stats.threads_run += ran.threads_run;
                stats.bins_visited += ran.bins_visited;
            }
        }
        if mode == RunMode::Consume {
            self.clear();
        }
        stats
    }

    /// Number of threads currently scheduled.
    pub(crate) fn pending(&self) -> u64 {
        self.threads
    }

    /// Number of bins currently allocated.
    pub(crate) fn bins(&self) -> usize {
        self.table.len()
    }

    /// High-water mark of live bin records over the engine's life —
    /// the number the eviction cap bounds.
    pub(crate) fn peak_bins(&self) -> usize {
        self.peak_bins
    }

    /// Bin records freed by the eviction policy over the engine's life.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distribution statistics over the current schedule (live bins
    /// only; slots freed by eviction don't count as empty bins).
    pub(crate) fn stats(&self) -> SchedulerStats {
        SchedulerStats::from_bin_counts(
            self.bins
                .iter()
                .enumerate()
                .filter(|&(id, _)| self.table.is_live(id as BinId))
                .map(|(_, b)| b.threads())
                .collect(),
        )
    }

    /// Flushes the probe observations accumulated so far into a
    /// `"sched"` profile section. Nested (depth > 1) policies additionally
    /// report per-parent occupancy and the sub-bin drain count.
    pub(crate) fn run_profile(&self) -> probe::Section {
        // Every thread forked is pending or retired. Folded into a
        // counter so that it reads 0 with the probes compiled out.
        let forks = probe::LocalCounter::new();
        forks.add(self.threads + self.obs.retired.get());
        let created = self.obs.bins_created.get();
        let mut section = probe::Section::new("sched");
        section
            .counter("forks", forks.get())
            .counter("bins_created", created)
            .counter("rebin_hits", forks.get() - created)
            .histogram("bin_occupancy", &self.obs.bin_occupancy)
            .histogram("bin_drain_ns", &self.obs.bin_drain_ns)
            .histogram("run_ns", &self.obs.run_ns);
        if self.policy.depth() > 1 {
            section
                .counter("subbins_run", self.obs.subbins_run.get())
                .histogram("parent_occupancy", &self.obs.parent_occupancy);
        }
        // Only an engine with eviction armed can evict; the key stays
        // out of every other profile.
        if !matches!(self.eviction, EvictionPolicy::Off) {
            section.counter("evictions", self.obs.evictions.get());
        }
        section
    }

    /// Removes all scheduled threads, bins and units (the arena of a
    /// traced package is recycled, as a real allocator would). The
    /// bins' emptied vectors *replace* the spare list, so the engine
    /// never holds more storage than the last round used. Online
    /// numbering restarts from zero; the eviction policy, the eviction
    /// count and the peak stay.
    pub(crate) fn clear(&mut self) {
        self.table.clear();
        self.groups.clear();
        self.units.clear();
        self.ready.clear();
        self.idle.clear();
        self.drain_epoch = 0;
        self.dispatched = 0;
        self.spare.clear();
        self.spare.extend(self.bins.drain(..).rev().map(|mut bin| {
            bin.items.clear();
            bin.groups.clear();
            (bin.items, bin.groups)
        }));
        self.obs.retired.add(self.threads);
        self.threads = 0;
        if let Some(meta) = &mut self.meta {
            meta.bump = meta.arena_base;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{TopologyPolicy, UniqueBin};
    use crate::SchedulerConfig;
    use memtrace::{AccessKind, NullSink, VecSink};

    const BLOCK: u64 = 1 << 10;

    fn config(hash_size: usize, eviction: EvictionPolicy) -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(BLOCK)
            .hash_size(hash_size)
            .eviction(eviction)
            .build()
            .unwrap()
    }

    fn evicting(max_records: u64) -> BinEngine<u32, TopologyPolicy> {
        let config = config(16, EvictionPolicy::LruCap { max_records });
        BinEngine::new(&config, TopologyPolicy::from_config(&config), None)
    }

    fn engine(hash_size: usize) -> BinEngine<u32, TopologyPolicy> {
        let config = config(hash_size, EvictionPolicy::Off);
        BinEngine::new(&config, TopologyPolicy::from_config(&config), None)
    }

    fn hints_of(coords: &[u64]) -> Hints {
        let at = |dim: usize| Addr::new(coords[dim] * BLOCK + 8);
        match coords.len() {
            1 => Hints::one(at(0)),
            2 => Hints::two(at(0), at(1)),
            _ => Hints::three(at(0), at(1), at(2)),
        }
    }

    fn consume(engine: &mut BinEngine<u32, TopologyPolicy>) -> u64 {
        let stats = engine.run_with(
            &mut (),
            RunMode::Consume,
            |(), _, _| {},
            |(), _| {},
            |(), _| {},
        );
        stats.threads_run
    }

    /// The traced package still probes the paper's table: bucket
    /// `Σ (coord_d mod hash_size) · hash_size^(3 − d)` of a
    /// `hash_size⁴` array of 8-byte pointers, whatever the host's table
    /// does with the key.
    #[test]
    fn traced_bucket_probe_is_the_papers_shift_and_mask() {
        for hash_size in [1u64, 4, 16] {
            let mut engine = engine(hash_size as usize);
            engine.trace_package_memory();
            for coords in [&[37u64][..], &[37, 1_061], &[37, 1_061, 5], &[16, 32, 48]] {
                let mut sink = VecSink::new();
                engine.insert_traced(0, hints_of(coords), &mut sink);
                let mut bucket = 0;
                for dim in 0..MAX_DIMS {
                    let coord = coords.get(dim).copied().unwrap_or(0);
                    bucket += (coord % hash_size) * hash_size.pow((MAX_DIMS - 1 - dim) as u32);
                }
                let probe = sink.accesses()[0];
                assert_eq!(probe.kind, AccessKind::Read);
                assert_eq!(
                    (probe.addr.raw(), probe.size),
                    (PACKAGE_TRACE_BASE + 8 * bucket, 8),
                    "hash_size {hash_size}, coords {coords:?}"
                );
            }
        }
    }

    /// Bin `i` of the round gets `1 + 37 i mod 300` threads, forked
    /// round-robin so the bins' vectors grow interleaved.
    fn fork_round(engine: &mut BinEngine<u32, TopologyPolicy>, bins: u64, sink: &mut VecSink) {
        for turn in 0..300 {
            for bin in (0..bins).filter(|bin| turn < 1 + 37 * bin % 300) {
                engine.insert_traced(turn as u32, hints_of(&[bin, 2 * bin]), sink);
                let forked = engine.bins[bin as usize].items.len();
                assert_eq!(forked as u64, turn + 1, "a recycled vector arrives empty");
            }
        }
    }

    #[test]
    fn a_second_round_of_the_same_forks_allocates_nothing() {
        for traced in [false, true] {
            let mut engine = engine(16);
            if traced {
                engine.trace_package_memory();
            }
            let mut sink = VecSink::new();
            fork_round(&mut engine, 40, &mut sink);
            let storage = |engine: &BinEngine<u32, TopologyPolicy>| -> Vec<_> {
                let of = |bin: &Bin<u32>| (bin.items.as_ptr(), bin.groups.as_ptr());
                engine.bins.iter().map(of).collect()
            };
            let lens: Vec<_> = engine.bins.iter().map(|bin| bin.items.len()).collect();
            let first_round = storage(&engine);
            let threads: u64 = lens.iter().map(|&len| len as u64).sum();
            assert_eq!(consume(&mut engine), threads);
            assert_eq!(engine.spare.len(), 40);

            // Bin i's first fork finds room for all of last round's
            // records, before anything is pushed after it.
            for (id, &len) in lens.iter().enumerate() {
                let block = id as u64;
                engine.insert_traced(0, hints_of(&[block, 2 * block]), &mut sink);
                let bin = &engine.bins[id];
                assert!(bin.items.capacity() >= len, "bin {id}");
                assert_eq!(
                    (bin.items.len(), bin.groups.len()),
                    (1, usize::from(traced))
                );
            }
            assert!(engine.spare.is_empty());
            engine.clear();

            // And the whole round lands in the very same allocations.
            fork_round(&mut engine, 40, &mut sink);
            assert_eq!(storage(&engine), first_round, "traced {traced}");
            assert_eq!(consume(&mut engine), threads);
        }
    }

    #[test]
    fn spare_storage_never_outlives_the_round_after_it() {
        let mut engine = engine(16);
        let mut sink = VecSink::new();
        fork_round(&mut engine, 100, &mut sink);
        consume(&mut engine);
        assert_eq!(engine.spare.len(), 100);
        fork_round(&mut engine, 10, &mut sink);
        assert_eq!(engine.spare.len(), 90, "ten taken, in id order");
        consume(&mut engine);
        assert_eq!(engine.spare.len(), 10, "replaced, not appended to");
        // A retained run hands nothing over.
        fork_round(&mut engine, 4, &mut sink);
        engine.run_with(
            &mut (),
            RunMode::Retain,
            |(), _, _| {},
            |(), _| {},
            |(), _| {},
        );
        assert_eq!((engine.spare.len(), engine.pending() > 0), (6, true));
    }

    #[test]
    fn eviction_drops_the_records_storage() {
        let mut engine = evicting(1);
        engine.insert_traced(0, hints_of(&[1]), &mut NullSink);
        let drained = engine.drain_next_with(&mut (), |(), _, _| {}, |(), _| {}, |(), _| {});
        assert_eq!(drained.map(|stats| stats.threads_run), Some(1));
        assert!(engine.bins[0].items.capacity() > 0, "a drain keeps it");
        engine.insert_traced(0, hints_of(&[2]), &mut NullSink);
        assert_eq!((engine.evictions(), engine.bins()), (1, 1));
        assert_eq!(engine.bins[0].items.capacity(), 0);
        assert!(engine.spare.is_empty());
    }

    /// An idle member of a unit keeps the stamp of the drain that
    /// emptied it when a later drain of its unit finds it empty, so it
    /// stays the least recently drained record.
    #[test]
    fn an_empty_member_keeps_its_drain_stamp() {
        let config = config(16, EvictionPolicy::LruCap { max_records: 3 });
        // 1 KiB bins in 4 KiB groups: blocks 0 and 1 share a unit.
        let policy = TopologyPolicy::uniform(&[BLOCK, 4 * BLOCK], false).unwrap();
        let mut engine = BinEngine::<u32, _>::new(&config, policy, None);
        let drain = |engine: &mut BinEngine<u32, TopologyPolicy>| {
            engine.drain_next_with(&mut (), |(), _, _| {}, |(), _| {}, |(), _| {})
        };
        fork_into(&mut engine, &[0, 8]);
        drain(&mut engine);
        drain(&mut engine);
        fork_into(&mut engine, &[1]);
        // Block 1 drains; block 0, emptied by the first drain, does not.
        assert_eq!(drain(&mut engine).map(|stats| stats.bins_visited), Some(1));
        fork_into(&mut engine, &[16]);
        assert_eq!(engine.evictions(), 1);
        let live = |block: u64| engine.table.find([block, 0, 0, 0]).is_some();
        assert_eq!([0, 1, 8, 16].map(live), [false, true, true, true]);
    }

    /// A batch run numbers its marks from 0; online drains number
    /// theirs across drains until a clear, whatever runs in between.
    #[test]
    fn online_drains_number_their_marks_until_a_clear() {
        fn marks(engine: &mut BinEngine<u32, TopologyPolicy>, online: bool) -> Vec<String> {
            let mut log = Vec::new();
            let record = |log: &mut Vec<String>, mark: SchedMark<'_>| log.push(format!("{mark:?}"));
            if online {
                engine.drain_next_with(&mut log, |_, _, _| {}, record, |_, _| {});
            } else {
                engine.run_with(&mut log, RunMode::Retain, |_, _, _| {}, record, |_, _| {});
            }
            log
        }
        let mut engine = engine(16);
        fork_into(&mut engine, &[1, 1, 2, 3]);
        let unit = |n: u64, threads: std::ops::Range<u64>| {
            let dispatches = threads.map(|t| format!("Dispatch({t})"));
            let begin = std::iter::once(format!("DrainBegin({n})"));
            begin
                .chain(dispatches)
                .chain([format!("DrainEnd({n})")])
                .collect::<Vec<_>>()
        };
        assert_eq!(marks(&mut engine, true), unit(0, 0..2));
        assert_eq!(
            marks(&mut engine, false),
            [unit(0, 0..1), unit(1, 1..2)].concat()
        );
        assert_eq!(marks(&mut engine, true), unit(1, 2..3));
        engine.clear();
        fork_into(&mut engine, &[4]);
        assert_eq!(marks(&mut engine, true), unit(0, 0..1));
    }

    /// The `sched` section's `[forks, bins_created, rebin_hits]`.
    fn fork_counters<P: BinPolicy>(engine: &BinEngine<u32, P>) -> [u64; 3] {
        let section = engine.run_profile();
        ["forks", "bins_created", "rebin_hits"].map(|name| {
            let counter = |(key, metric): &(String, probe::Metric)| match metric {
                probe::Metric::Counter(value) if key == name => Some(*value),
                _ => None,
            };
            section.metrics().iter().find_map(counter).expect(name)
        })
    }

    /// What `fork_counters` reads: the counts with the probes in, zeros
    /// with them compiled out.
    fn counted(counts: [u64; 3]) -> [u64; 3] {
        counts.map(|count| count * u64::from(probe::enabled()))
    }

    fn fork_into<P: BinPolicy>(engine: &mut BinEngine<u32, P>, blocks: &[u64]) {
        for &block in blocks {
            engine.insert_traced(0, hints_of(&[block]), &mut NullSink);
        }
    }

    #[test]
    fn the_sched_section_counts_forks_bins_created_and_rebin_hits() {
        // Two batch rounds. A retained run keeps its bins, so the forks
        // after it find two of them; a consuming run clears them, so
        // the next round creates its bins afresh.
        let mut batch = engine(16);
        fork_into(&mut batch, &[1, 2, 1, 3, 1]);
        assert_eq!(fork_counters(&batch), counted([5, 3, 2]));
        batch.run_with(
            &mut (),
            RunMode::Retain,
            |(), _, _| {},
            |(), _| {},
            |(), _| {},
        );
        fork_into(&mut batch, &[2, 4, 3]);
        assert_eq!(fork_counters(&batch), counted([8, 4, 4]));
        assert_eq!(consume(&mut batch), 8);
        fork_into(&mut batch, &[1, 1]);
        assert_eq!(fork_counters(&batch), counted([10, 5, 5]));
        assert_eq!(batch.pending(), 2);

        // Online, one record allowed: block 1 drains idle and is
        // evicted when block 2 is created, so its next fork creates it
        // again.
        let mut online = evicting(1);
        fork_into(&mut online, &[1]);
        online.drain_next_with(&mut (), |(), _, _| {}, |(), _| {}, |(), _| {});
        fork_into(&mut online, &[2, 2, 1]);
        assert_eq!(online.evictions(), 1);
        assert_eq!(fork_counters(&online), counted([4, 3, 1]));

        // Traced.
        let mut traced = engine(16);
        traced.trace_package_memory();
        for block in [1, 1, 2] {
            traced.insert_traced(0, hints_of(&[block]), &mut VecSink::new());
        }
        assert_eq!(fork_counters(&traced), counted([3, 2, 1]));

        // Every key fresh: every fork creates its bin.
        let mut unique =
            BinEngine::<u32, _>::new(&config(1, EvictionPolicy::Off), UniqueBin::default(), None);
        fork_into(&mut unique, &[1, 1, 1]);
        assert_eq!(fork_counters(&unique), counted([3, 3, 0]));
    }

    /// A bin created before `trace_package_memory` has no synthetic
    /// record: a traced fork into it is the bucket probe alone, while a
    /// bin created after it writes its record, its first group and the
    /// thread record.
    #[test]
    fn a_bin_created_before_tracing_is_probed_but_stays_silent() {
        let mut engine = engine(16);
        engine.insert_traced(0, hints_of(&[1]), &mut NullSink);
        engine.trace_package_memory();
        let events = |block: u64, engine: &mut BinEngine<u32, TopologyPolicy>| {
            let mut sink = VecSink::new();
            engine.insert_traced(0, hints_of(&[block]), &mut sink);
            let event = |access: &memtrace::Access| (access.kind, access.addr.raw(), access.size);
            sink.accesses().iter().map(event).collect::<Vec<_>>()
        };
        // Block b probes bucket `b · 16³` of the 16⁴-pointer table; the
        // arena starts right after it.
        let bucket = |block: u64| PACKAGE_TRACE_BASE + 8 * block * 16u64.pow(3);
        let arena = PACKAGE_TRACE_BASE + 8 * 16u64.pow(4);
        let group = arena + BIN_HEADER_BYTES;
        let (read, write) = (AccessKind::Read, AccessKind::Write);
        assert_eq!(events(1, &mut engine), [(read, bucket(1), 8)]);
        assert_eq!(
            events(2, &mut engine),
            [
                (read, bucket(2), 8),
                (write, arena, 48),
                (write, group, 16),
                (write, group + 16, 24),
                (write, group, 8),
            ]
        );
        assert_eq!(engine.pending(), 3);
    }
}
