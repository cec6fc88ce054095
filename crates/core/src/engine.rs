//! The shared bin engine (paper §3.2), generic over the scheduled item
//! type and the [`BinPolicy`].
//!
//! [`Scheduler`](crate::Scheduler) and
//! [`ParScheduler`](crate::ParScheduler) are thin configurations of
//! this one engine — hash table + ready list, thread groups, optional
//! package-memory tracing, the tour-ordered drain loop, and the probe
//! observations — and [`PhasedScheduler`](crate::PhasedScheduler) is
//! one `Scheduler` per phase. [`FifoScheduler`](crate::FifoScheduler)
//! and [`RandomScheduler`](crate::RandomScheduler) are type aliases of
//! `Scheduler` under a degenerate policy, not configurations of their
//! own. [`ClosureScheduler`](crate::ClosureScheduler) alone keeps its
//! own table-and-tour loop: its boxed `FnOnce` bodies are consumed by
//! the call, so they cannot be drained by reference as the engine
//! drains its records. The policy owns *where* a thread goes (hints →
//! bin key, optional parent grouping); the engine owns everything else.

use crate::config::EvictionPolicy;
use crate::hint::MAX_DIMS;
use crate::policy::BinPolicy;
use crate::stats::{RunStats, SchedulerStats};
use crate::table::{BinId, BinTable};
use crate::{Hints, RunMode, Tour};
use memtrace::{Addr, TraceSink};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Fixed base of the package's synthetic memory: every reference the
/// scheduler emits on its own behalf (hash buckets, bin records, thread
/// groups) lives at or above this address, and no traced application
/// structure ever does. Trace consumers that want application traffic
/// only — e.g. `memtrace::FootprintSink` feeding the schedule analyzer
/// — can filter on it.
pub const PACKAGE_TRACE_BASE: u64 = 0x7f00_0000_0000;

/// Threads per thread-group chunk. "The thread group data structure
/// represents a number of threads within a bin; by grouping threads
/// together in this way, amortization reduces the cost of thread
/// structure management" (§3.2).
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

/// One thread group: a chunk of thread records plus the synthetic
/// address of its storage (null when package-memory tracing is off).
#[derive(Clone, Debug)]
pub(crate) struct Group<T> {
    items: Vec<T>,
    base: Addr,
}

/// A bin: the chain of thread groups for one block of the scheduling
/// space.
#[derive(Clone, Debug)]
pub(crate) struct Bin<T> {
    groups: Vec<Group<T>>,
    threads: u64,
    /// Synthetic address of the bin record (null when tracing is off).
    header: Addr,
    /// Drain epoch at which this bin was last drained empty — its
    /// ticket in the eviction idle queue. `0` means "not a candidate"
    /// (never drained, refilled since, or freshly (re)created); a
    /// queued `(stamp, id)` entry is valid iff `stamp == idle_stamp`.
    idle_stamp: u64,
}

impl<T> Bin<T> {
    fn new(header: Addr) -> Self {
        Bin {
            groups: Vec::new(),
            threads: 0,
            header,
            idle_stamp: 0,
        }
    }

    /// Number of threads in the bin.
    pub(crate) fn threads(&self) -> u64 {
        self.threads
    }

    /// All thread records in fork order.
    pub(crate) fn items(&self) -> impl Iterator<Item = &T> {
        self.groups.iter().flat_map(|g| g.items.iter())
    }
}

/// Synthetic addresses for the package's own data structures, so their
/// cache traffic shows up in traces (Pixie instrumented the thread
/// package along with the application — the visible difference between
/// the paper's threaded and cache-conscious PDE columns in Table 5).
#[derive(Clone, Debug)]
struct MetaTrace {
    /// The hash table's bucket array.
    table_base: Addr,
    /// Bump pointer for bin records and thread groups, mimicking an
    /// arena allocator.
    bump: Addr,
    arena_base: Addr,
    end: Addr,
}

impl MetaTrace {
    fn alloc(&mut self, bytes: u64) -> Addr {
        let addr = self.bump;
        assert!(
            addr.raw() + bytes <= self.end.raw(),
            "scheduler meta-trace region exhausted"
        );
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
    /// Threads forked.
    forks: probe::LocalCounter,
    /// Forks that allocated a new bin.
    bins_created: probe::LocalCounter,
    /// Forks whose hint mapped to an already-existing bin — the
    /// hint-to-bin reuse the locality win depends on.
    rebin_hits: probe::LocalCounter,
    /// Thread count of each bin drained by `run_with`.
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
    /// Bin records freed by the online eviction policy.
    evictions: probe::LocalCounter,
}

/// A ready-heap entry: `(tour rank, ready sequence, parent key)`.
/// Ordered `Reverse` so the heap pops the minimal rank first; the
/// monotone ready sequence breaks rank ties, which under
/// [`Tour::AllocationOrder`] (rank constant) *is* the paper's ready
/// list — units drain in the order they first received work.
type ReadyEntry = Reverse<([u64; MAX_DIMS], u64, [u64; MAX_DIMS])>;

/// Incremental-drain bookkeeping, present only after
/// [`BinEngine::enable_online`]. The drain *unit* is a parent group:
/// for flat policies the parent key is the bin key itself (one bin per
/// unit); hierarchical policies drain all of a parent's ready sub-bins
/// back-to-back in sorted fine-key order, exactly as the batch tour
/// does.
///
/// Invariant: a parent key is queued in `heap` (and present in
/// `queued`) iff at least one of its member bins holds threads. Inserts
/// queue the parent on its empty → non-empty transition; a drain pops
/// it and empties every member bin, so there are never stale heap
/// entries.
#[derive(Clone, Debug, Default)]
struct OnlineState {
    heap: BinaryHeap<ReadyEntry>,
    /// Parent keys currently queued, with their ready sequence number.
    queued: HashMap<[u64; MAX_DIMS], u64>,
    /// Parent key → member bin ids, in bin-creation order.
    members: HashMap<[u64; MAX_DIMS], Vec<BinId>>,
    next_seq: u64,
    /// Dispatch counter across all incremental drains (feeds
    /// `on_dispatch` with globally increasing sequence numbers, so a
    /// full incremental drain numbers threads exactly as one batch run
    /// would).
    dispatched: u64,
    /// Bin-record retirement policy (see [`EvictionPolicy`]).
    eviction: EvictionPolicy,
    /// Count of drain grants so far; the epoch stamped onto bins as
    /// they drain empty. Starts at zero, so valid stamps are ≥ 1 and
    /// `idle_stamp == 0` is unambiguous.
    drain_epoch: u64,
    /// Eviction candidates in stamp (least-recently-drained) order.
    /// Entries are lazily invalidated — a refill zeroes the bin's
    /// `idle_stamp`, a re-drain restamps it — and the queue is
    /// compacted when stale entries pile up, so it stays O(live bins).
    idle: VecDeque<(u64, BinId)>,
    /// Bin records freed so far (always-on twin of the probe counter).
    evictions: u64,
}

impl OnlineState {
    fn with_eviction(eviction: EvictionPolicy) -> Self {
        OnlineState {
            eviction,
            ..OnlineState::default()
        }
    }

    /// Queues `parent` if it is not already ready.
    fn queue(&mut self, tour: &Tour, parent: [u64; MAX_DIMS]) {
        if self.queued.contains_key(&parent) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queued.insert(parent, seq);
        self.heap.push(Reverse((tour.rank(parent), seq, parent)));
    }
}

/// The bin engine: bin table, tour, thread groups, meta tracing, and
/// the drain loop, parameterized by the scheduled item type `T` and
/// the binning policy `P`.
#[derive(Clone, Debug)]
pub(crate) struct BinEngine<T, P> {
    policy: P,
    hash_size: usize,
    tour: Tour,
    table: BinTable,
    bins: Vec<Bin<T>>,
    threads: u64,
    meta: Option<MetaTrace>,
    obs: SchedObs,
    online: Option<OnlineState>,
    /// High-water mark of live bin records, across the engine's life.
    peak_bins: usize,
}

impl<T, P: BinPolicy> BinEngine<T, P> {
    /// Creates an empty engine.
    pub(crate) fn new(hash_size: usize, tour: Tour, policy: P) -> Self {
        BinEngine {
            table: BinTable::new(hash_size),
            bins: Vec::new(),
            threads: 0,
            policy,
            hash_size,
            tour,
            meta: None,
            obs: SchedObs::default(),
            online: None,
            peak_bins: 0,
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
    /// sorting by the ladder — not the fine key — is what keeps each
    /// intermediate level's bins contiguous. At depth 2 the ladder is
    /// just the fine key, bit-identical to the pre-topology sort.
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
        let buckets = (self.hash_size as u64).pow(4) * BUCKET_BYTES;
        let table_base = Addr::new(PACKAGE_TRACE_BASE);
        let bump = (table_base + buckets).align_up(128);
        // A generous arena for bin records and thread groups; synthetic
        // addresses cost nothing to reserve.
        let arena = 1u64 << 30;
        self.meta = Some(MetaTrace {
            table_base,
            bump,
            arena_base: bump,
            end: bump + arena,
        });
    }

    /// Replaces table geometry, tour, and policy; only legal while
    /// empty. Probe observations survive (they are cumulative per
    /// scheduler instance), the synthetic trace region does not.
    pub(crate) fn reconfigure(&mut self, hash_size: usize, tour: Tour, policy: P) {
        debug_assert_eq!(self.threads, 0);
        self.table = BinTable::new(hash_size);
        self.bins.clear();
        self.hash_size = hash_size;
        self.tour = tour;
        self.policy = policy;
        // The synthetic hash-table region was sized for the old
        // configuration; re-enable tracing afterwards if needed.
        self.meta = None;
        // Ready state referred to the old keys; incremental mode stays
        // on (keeping its eviction policy), starting from an empty
        // ready list (legal: the engine is empty here).
        if let Some(state) = &self.online {
            self.online = Some(OnlineState::with_eviction(state.eviction));
        }
    }

    /// Places `item` into the bin chosen by the policy for `hints`,
    /// emitting the package's own memory references into `sink` if
    /// tracing is enabled: the hash-bucket probe, the thread-record
    /// store, and the bin-header update. Always announces the fork's
    /// hint addresses via [`TraceSink::thread_hints`] (a no-op for
    /// ordinary sinks) so schedule-analysis sinks see the thread/hint
    /// graph in fork order.
    #[inline]
    pub(crate) fn insert_traced<S: TraceSink>(&mut self, item: T, hints: Hints, sink: &mut S) {
        sink.thread_hints(&hints.as_array()[..hints.dims()]);
        let key = self.policy.bin_key(hints);
        let (id, created) = if self.policy.always_unique() {
            (self.table.append_unique(key), true)
        } else {
            self.table.lookup_or_insert(key)
        };
        self.obs.forks.incr();
        if created {
            self.obs.bins_created.incr();
        } else {
            self.obs.rebin_hits.incr();
        }
        if let Some(meta) = &mut self.meta {
            // Hash probe.
            let bucket = self.table.bucket_index(key) as u64;
            sink.read(meta.table_base + bucket * BUCKET_BYTES, BUCKET_BYTES as u32);
        }
        if created {
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
            // The table recycles evicted slots, so the id may name an
            // existing (dead) slot rather than the end of the array.
            if (id as usize) < self.bins.len() {
                self.bins[id as usize] = Bin::new(header);
            } else {
                self.bins.push(Bin::new(header));
            }
        }
        let bin = &mut self.bins[id as usize];
        // A refill (or fresh creation) disqualifies any queued eviction
        // candidacy for this slot.
        bin.idle_stamp = 0;
        let needs_group = match bin.groups.last() {
            Some(group) => group.items.len() >= GROUP_CAPACITY,
            None => true,
        };
        if needs_group {
            let base = match &mut self.meta {
                Some(meta) => {
                    let base = meta.alloc(GROUP_HEADER_BYTES + GROUP_CAPACITY as u64 * SPEC_BYTES);
                    sink.write(base, GROUP_HEADER_BYTES as u32);
                    base
                }
                None => Addr::NULL,
            };
            bin.groups.push(Group {
                items: Vec::with_capacity(GROUP_CAPACITY),
                base,
            });
        }
        let group = bin.groups.last_mut().expect("group just ensured");
        let slot = group.items.len() as u64;
        group.items.push(item);
        if self.meta.is_some() {
            // Store the three-word thread record and bump the group's
            // count field.
            sink.write(
                group.base + GROUP_HEADER_BYTES + slot * SPEC_BYTES,
                SPEC_BYTES as u32,
            );
            sink.write(group.base, 8);
        }
        bin.threads += 1;
        self.threads += 1;
        if self.online.is_some() {
            let parent = self.group_key(key);
            let state = self.online.as_mut().expect("checked above");
            if created {
                state.members.entry(parent).or_default().push(id);
            }
            // Either the parent is already ready (no-op) or this insert
            // made it non-empty — re-link it at the back of the ready
            // order, as the paper's package re-links a refilled bin.
            state.queue(&self.tour, parent);
            // Reap retired records *after* the fork completes: only
            // inserts trigger eviction, so a run whose arrivals all
            // precede its drains (the t=0 equivalence case) never
            // evicts, and the bin just forked into is non-empty and
            // therefore never a victim.
            self.apply_eviction();
        }
        self.peak_bins = self.peak_bins.max(self.table.len());
    }

    /// Whether `(stamp, id)` is still a valid eviction candidate: the
    /// slot is live, empty, and has not been refilled or re-drained
    /// since it was stamped.
    #[inline]
    fn is_evictable(&self, id: BinId, stamp: u64) -> bool {
        self.table.is_live(id)
            && self.bins[id as usize].threads == 0
            && self.bins[id as usize].idle_stamp == stamp
    }

    /// Frees one drained-and-empty bin record: unlinks it from the
    /// table (bucket chain + slot free list) and from its parent's
    /// member list. Live-bin tour order is untouched — the record has
    /// no threads, is not queued, and ids of other bins don't shift.
    fn evict(&mut self, id: BinId) {
        debug_assert_eq!(self.bins[id as usize].threads, 0);
        let parent = self.group_key(self.table.key(id));
        self.table.remove(id);
        // Drop the group storage; the slot is reused by a later insert.
        self.bins[id as usize] = Bin::new(Addr::NULL);
        let state = self.online.as_mut().expect("eviction is online-only");
        if let Some(members) = state.members.get_mut(&parent) {
            members.retain(|&m| m != id);
            if members.is_empty() {
                state.members.remove(&parent);
            }
        }
        state.evictions += 1;
        self.obs.evictions.incr();
    }

    /// Applies the configured eviction policy, called once per insert.
    fn apply_eviction(&mut self) {
        let eviction = match &self.online {
            Some(state) => state.eviction,
            None => return,
        };
        match eviction {
            EvictionPolicy::Off => {}
            EvictionPolicy::IdleAge { max_idle_drains } => loop {
                let state = self.online.as_mut().expect("checked above");
                let Some(&(stamp, id)) = state.idle.front() else {
                    break;
                };
                if stamp.saturating_add(max_idle_drains) > state.drain_epoch {
                    break;
                }
                state.idle.pop_front();
                if self.is_evictable(id, stamp) {
                    self.evict(id);
                }
            },
            EvictionPolicy::LruCap { max_records } => {
                while self.table.len() as u64 > max_records {
                    let state = self.online.as_mut().expect("checked above");
                    let Some((stamp, id)) = state.idle.pop_front() else {
                        // No empty candidate left; every live record
                        // holds threads and must stay.
                        break;
                    };
                    if self.is_evictable(id, stamp) {
                        self.evict(id);
                    }
                }
            }
        }
    }

    /// Switches the engine into *incremental* (online) drain mode:
    /// after this, [`drain_next_with`](Self::drain_next_with) hands out
    /// one ready drain unit at a time while further inserts keep
    /// landing in their bins. Any threads already scheduled become
    /// ready in bin-creation order — so enabling after a batch of
    /// inserts, then draining to exhaustion, reproduces the batch
    /// [`run_with`](Self::run_with) order exactly (for every tour
    /// except [`Tour::Random`], whose batch shuffle has no incremental
    /// equivalent; see [`Tour::rank`]).
    ///
    /// Idempotent (a second call leaves the first call's eviction
    /// policy in force). The batch `run_with` path is unaffected by
    /// this flag (its golden drain order stays pinned); mixing batch
    /// [`RunMode::Retain`](crate::RunMode::Retain) runs with
    /// incremental drains is unsupported.
    pub(crate) fn enable_online(&mut self, eviction: EvictionPolicy) {
        if self.online.is_some() {
            return;
        }
        let mut state = OnlineState::with_eviction(eviction);
        for (id, bin) in self.bins.iter().enumerate() {
            let parent = self.group_key(self.table.key(id as BinId));
            state.members.entry(parent).or_default().push(id as BinId);
            if bin.threads > 0 {
                state.queue(&self.tour, parent);
            }
        }
        self.online = Some(state);
    }

    /// Whether incremental drain mode is enabled.
    pub(crate) fn online(&self) -> bool {
        self.online.is_some()
    }

    /// Drains the single next ready unit — the minimal
    /// `(tour rank, ready seq)` parent group — with the same callback
    /// shape as [`run_with`](Self::run_with), consuming the drained
    /// threads. Returns `None` when nothing is ready.
    ///
    /// # Panics
    ///
    /// Panics if [`enable_online`](Self::enable_online) was not called.
    pub(crate) fn drain_next_with<X>(
        &mut self,
        ctx: &mut X,
        mut on_read: impl FnMut(&mut X, Addr, u32),
        mut on_dispatch: impl FnMut(&mut X, u64),
        mut on_unit: impl FnMut(&mut X, u64, bool),
        mut exec: impl FnMut(&mut X, &T),
    ) -> Option<RunStats> {
        let (parent, epoch) = {
            let state = self
                .online
                .as_mut()
                .expect("drain_next_with requires enable_online");
            let Reverse((_rank, _seq, parent)) = state.heap.pop()?;
            state.queued.remove(&parent);
            state.drain_epoch += 1;
            (parent, state.drain_epoch)
        };
        // The whole incremental drain is one unit; its ordinal is the
        // 0-based drain epoch.
        on_unit(ctx, epoch - 1, true);
        let state = self.online.as_ref().expect("checked above");
        let reap = state.eviction != EvictionPolicy::Off;
        let mut subs: Vec<BinId> = state.members[&parent]
            .iter()
            .copied()
            .filter(|&id| self.bins[id as usize].threads > 0)
            .collect();
        subs.sort_unstable_by(|&a, &b| self.nested_cmp(self.table.key(a), self.table.key(b)));
        let mut dispatched = state.dispatched;
        let mut threads_run = 0u64;
        for &id in &subs {
            let drained = self.drain_bin(
                id,
                ctx,
                &mut dispatched,
                &mut on_read,
                &mut on_dispatch,
                &mut exec,
            );
            threads_run += drained;
            // Consume the unit. The bin record (and its table key) stay
            // allocated so ids remain stable; a later insert refills it
            // and re-queues its parent with a fresh ready sequence —
            // unless the eviction policy reaps the idle record first,
            // in which case the key re-arrives as a fresh fork.
            let bin = &mut self.bins[id as usize];
            bin.groups.clear();
            bin.threads = 0;
            if reap {
                bin.idle_stamp = epoch;
            }
            self.threads -= drained;
        }
        if self.policy.depth() > 1 {
            self.obs.parent_occupancy.record(threads_run);
        }
        on_unit(ctx, epoch - 1, false);
        let bins = &self.bins;
        let state = self.online.as_mut().expect("checked above");
        state.dispatched = dispatched;
        if reap {
            for &id in &subs {
                state.idle.push_back((epoch, id));
            }
            // Compact lazily-invalidated entries once they dominate; a
            // bin has at most one valid ticket (the one matching its
            // stamp), so the queue shrinks to ≤ live bins.
            if state.idle.len() > 2 * bins.len() + 16 {
                state
                    .idle
                    .retain(|&(stamp, id)| bins[id as usize].idle_stamp == stamp);
            }
        }
        Some(RunStats {
            threads_run,
            bins_visited: subs.len(),
        })
    }

    /// The order in which bins will be drained.
    ///
    /// Flat policies tour the bin keys directly (the paper's path,
    /// bit-identical to the pre-refactor schedulers). Multi-level
    /// policies tour the *coarsest-level* group keys — so inter-group
    /// order matches the flat policy at that granularity — and drain
    /// each group's bins sorted by their full ancestor ladder,
    /// back-to-back, so every intermediate level's bins also come out
    /// contiguous.
    pub(crate) fn tour_order(&self) -> Vec<BinId> {
        let keys = self.table.keys();
        if self.policy.depth() <= 1 {
            return self.tour.order(keys);
        }
        let mut parent_keys: Vec<[u64; MAX_DIMS]> = Vec::new();
        let mut parent_index: HashMap<[u64; MAX_DIMS], usize> = HashMap::new();
        let mut members: Vec<Vec<BinId>> = Vec::new();
        // Groups in first-appearance (allocation) order, matching the
        // ready-list semantics a flat coarsest-level policy would have.
        for (id, &key) in keys.iter().enumerate() {
            let idx = *parent_index.entry(self.group_key(key)).or_insert_with(|| {
                parent_keys.push(self.group_key(key));
                members.push(Vec::new());
                parent_keys.len() - 1
            });
            members[idx].push(id as BinId);
        }
        let mut order = Vec::with_capacity(keys.len());
        for parent in self.tour.order(&parent_keys) {
            let subs = &mut members[parent as usize];
            subs.sort_unstable_by(|&a, &b| self.nested_cmp(keys[a as usize], keys[b as usize]));
            order.append(subs);
        }
        order
    }

    /// Block-coordinate key of one bin at the coarsest (group)
    /// granularity — the coordinates manhattan-distance stealing scores
    /// over. Identity for flat policies.
    #[inline]
    pub(crate) fn steal_key(&self, id: BinId) -> [u64; MAX_DIMS] {
        self.group_key(self.table.key(id))
    }

    /// The full ancestor ladder of one bin, finest level first — the
    /// coordinates topology-aware stealing scores
    /// lowest-common-ancestor depth over. A single-entry ladder for
    /// flat policies.
    #[inline]
    pub(crate) fn steal_ladder(&self, id: BinId) -> Vec<[u64; MAX_DIMS]> {
        let key = self.table.key(id);
        (0..self.policy.depth())
            .map(|level| self.policy.ancestor_key(key, level))
            .collect()
    }

    /// The allocated bins, indexed by bin id.
    pub(crate) fn bins_slice(&self) -> &[Bin<T>] {
        &self.bins
    }

    /// Runs every thread of bin `id` in fork order — the walk both drain
    /// loops share: the package's own reads (bin record, group headers,
    /// thread records; only when tracing), `on_dispatch` with the next
    /// value of `dispatched` immediately before each `exec`, and the
    /// per-bin occupancy, sub-bin and drain-time probes. Returns the
    /// bin's thread count; the bin itself is left as it was.
    #[inline]
    fn drain_bin<X>(
        &self,
        id: BinId,
        ctx: &mut X,
        dispatched: &mut u64,
        on_read: &mut impl FnMut(&mut X, Addr, u32),
        on_dispatch: &mut impl FnMut(&mut X, u64),
        exec: &mut impl FnMut(&mut X, &T),
    ) -> u64 {
        let bin = &self.bins[id as usize];
        let tracing = self.meta.is_some();
        self.obs.bin_occupancy.record(bin.threads);
        if self.policy.depth() > 1 {
            self.obs.subbins_run.incr();
        }
        let _drain_span = self.obs.bin_drain_ns.span();
        if tracing {
            // Ready-list step: load the bin record.
            on_read(ctx, bin.header, BIN_HEADER_BYTES as u32);
        }
        for group in &bin.groups {
            if tracing {
                // Group header: count + next pointer.
                on_read(ctx, group.base, GROUP_HEADER_BYTES as u32);
            }
            for (slot, item) in group.items.iter().enumerate() {
                if tracing {
                    on_read(
                        ctx,
                        group.base + GROUP_HEADER_BYTES + slot as u64 * SPEC_BYTES,
                        SPEC_BYTES as u32,
                    );
                }
                on_dispatch(ctx, *dispatched);
                *dispatched += 1;
                exec(ctx, item);
            }
        }
        bin.threads
    }

    /// Drains every bin in tour order: `on_read(ctx, addr, size)` is
    /// called for each package memory reference (only when tracing is
    /// enabled), `on_dispatch(ctx, seq)` immediately before the
    /// `seq`-th thread of this run executes (unconditionally — callers
    /// wanting schedule events pass a forwarder, others a no-op),
    /// `on_unit(ctx, unit, begin)` at each drain-unit boundary (one bin
    /// for flat policies, one parent group's contiguous sub-bins for
    /// nested ones — the granularity work stealing moves whole), and
    /// `exec(ctx, item)` for each thread record. Splitting the sink
    /// access (`on_read`/`on_dispatch`) from thread execution (`exec`)
    /// lets one `&mut ctx` serve both without aliasing.
    pub(crate) fn run_with<X>(
        &mut self,
        ctx: &mut X,
        mode: RunMode,
        mut on_read: impl FnMut(&mut X, Addr, u32),
        mut on_dispatch: impl FnMut(&mut X, u64),
        mut on_unit: impl FnMut(&mut X, u64, bool),
        mut exec: impl FnMut(&mut X, &T),
    ) -> RunStats {
        let order = self.tour_order();
        let hierarchical = self.policy.depth() > 1;
        let mut threads_run = 0u64;
        let mut bins_visited = 0usize;
        let mut dispatched = 0u64;
        {
            let _run_span = self.obs.run_ns.span();
            // Running total for the current parent group (hierarchical
            // only); the tour keeps each parent's sub-bins contiguous,
            // so one linear pass suffices.
            let mut parent: Option<([u64; MAX_DIMS], u64)> = None;
            // Drain-unit boundary tracking: the unit key is the group
            // (coarsest-level) key, which for flat policies is the bin
            // key itself — each bin its own unit.
            let mut unit_seq = 0u64;
            let mut unit_key: Option<[u64; MAX_DIMS]> = None;
            for id in order {
                let bin = &self.bins[id as usize];
                if bin.threads == 0 {
                    continue;
                }
                bins_visited += 1;
                let pk = self.group_key(self.table.key(id));
                if unit_key != Some(pk) {
                    if unit_key.take().is_some() {
                        on_unit(ctx, unit_seq, false);
                        unit_seq += 1;
                    }
                    on_unit(ctx, unit_seq, true);
                    unit_key = Some(pk);
                }
                if hierarchical {
                    match &mut parent {
                        Some((key, threads)) if *key == pk => *threads += bin.threads,
                        _ => {
                            if let Some((_, threads)) = parent.take() {
                                self.obs.parent_occupancy.record(threads);
                            }
                            parent = Some((pk, bin.threads));
                        }
                    }
                }
                threads_run += self.drain_bin(
                    id,
                    ctx,
                    &mut dispatched,
                    &mut on_read,
                    &mut on_dispatch,
                    &mut exec,
                );
            }
            if let Some((_, threads)) = parent {
                self.obs.parent_occupancy.record(threads);
            }
            if unit_key.is_some() {
                on_unit(ctx, unit_seq, false);
            }
        }
        if mode == RunMode::Consume {
            self.clear();
        }
        RunStats {
            threads_run,
            bins_visited,
        }
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

    /// Bin records freed by the online eviction policy so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.online.as_ref().map_or(0, |state| state.evictions)
    }

    /// Distribution statistics over the current schedule (live bins
    /// only; slots freed by eviction don't count as empty bins).
    pub(crate) fn stats(&self) -> SchedulerStats {
        SchedulerStats::from_bin_counts(
            self.bins
                .iter()
                .enumerate()
                .filter(|&(id, _)| self.table.is_live(id as BinId))
                .map(|(_, b)| b.threads)
                .collect(),
        )
    }

    /// Flushes the probe observations accumulated so far into a
    /// `"sched"` profile section. Hierarchical policies additionally
    /// report per-parent occupancy and the sub-bin drain count.
    pub(crate) fn run_profile(&self) -> probe::Section {
        let mut section = probe::Section::new("sched");
        section
            .counter("forks", self.obs.forks.get())
            .counter("bins_created", self.obs.bins_created.get())
            .counter("rebin_hits", self.obs.rebin_hits.get())
            .histogram("bin_occupancy", &self.obs.bin_occupancy)
            .histogram("bin_drain_ns", &self.obs.bin_drain_ns)
            .histogram("run_ns", &self.obs.run_ns);
        if self.policy.depth() > 1 {
            section
                .counter("subbins_run", self.obs.subbins_run.get())
                .histogram("parent_occupancy", &self.obs.parent_occupancy);
        }
        // Only online engines can evict; keeping the key out of batch
        // profiles leaves the committed batch-bench baselines untouched.
        if self.online.is_some() {
            section.counter("evictions", self.obs.evictions.get());
        }
        section
    }

    /// Removes all scheduled threads and bins (the arena of a traced
    /// package is recycled, as a real allocator would).
    pub(crate) fn clear(&mut self) {
        self.table.clear();
        self.bins.clear();
        self.threads = 0;
        if let Some(meta) = &mut self.meta {
            meta.bump = meta.arena_base;
        }
        // Incremental mode survives a clear (keeping its eviction
        // policy), restarting from an empty ready list (and dispatch
        // numbering from zero).
        if let Some(state) = &self.online {
            self.online = Some(OnlineState::with_eviction(state.eviction));
        }
    }
}
