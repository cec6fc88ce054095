//! Sharded trace-driven simulation over independent address regions.
//!
//! The hierarchy's set-index bit fields make sharding exact rather than
//! approximate: pick `k` *selector bits* that lie inside the set-index
//! field of **every** level, and two addresses with different selector
//! values can never meet in a set at any level — they are, in BUNDLEP's
//! terms, conflict-free regions. Each of the `2^k` shards therefore
//! runs the ordinary fast path over a private [`Hierarchy`] clone, and
//! the per-shard [`CacheStats`] sum to the unsharded totals *exactly* —
//! a set's recency order is moved only by references to that set, and
//! a set belongs to exactly one shard.
//!
//! Two things do not decompose by address and are handled specially:
//!
//! * **3C classification** models one global fully-associative cache,
//!   so shard workers log their DRAM-facing-level references instead of
//!   classifying ([`Hierarchy::set_deferred_classification`]), and a
//!   deterministic spawn-order merge replays the logs into one shared
//!   [`MissClassifier`] in exact program order after every drain.
//! * **The MMU** (fully-associative TLB, physically-indexed L2) breaks
//!   the selector-bit invariant, so a hierarchy with an MMU degrades to
//!   a single inline shard — still bit-identical, just not partitioned.
//!
//! Trace records wait in per-shard *compact queues* — the delta
//! encoding of [`memtrace::compact`] extended with run-length collapsed
//! same-line records and sub-span markers — so a drain's working set
//! stays cache-resident. Workers drain under `std::thread::scope` with
//! spawn-order joins (the `run_cells` reduce pattern), or inline when
//! the host has a single core; results are identical either way.

use crate::hierarchy::LlcEvent;
use crate::{Hierarchy, MissClassifier, SimReport, WritePolicy};
use memtrace::compact::{push_varint, take_varint, DeltaCodec};
use memtrace::{Access, AccessKind, Addr, TraceSink};

/// Flag bit 2 (the first one [`DeltaCodec`] leaves to embedders):
/// escape — the record is not an access. Bit 3 then picks the type:
/// clear = run-length record, set = sub-span marker.
const FLAG_ESCAPE: u8 = 1 << 2;
const FLAG_MARK: u8 = 1 << 3;

/// Sentinel "no line" value for run tracking.
const NO_LINE: u64 = u64::MAX;

/// Most shards a plan may have: sub-span owners are logged one byte
/// each (the merge schedule grows by one entry per shard switch).
const MAX_SHARDS: u32 = 1 << u8::BITS;

/// Drain the shard queues once this many records are pending. Sized so
/// the encoded queues (2–4 bytes/record) plus the decode working set
/// stay within a few hundred KiB — resident in any L2 worth simulating.
const FLUSH_RECORDS: usize = 1 << 18;

/// The address-region partition for a hierarchy: which selector bits
/// split the trace across shards.
///
/// Validity: the selector bits `[shift, shift + log2(shards))` must lie
/// inside every level's set-index field, i.e. at or above every line
/// offset (`shift >= log2(line)`) and strictly below every level's way
/// size (`shift + k <= log2(line * sets)`). [`ShardPlan::for_hierarchy`]
/// picks the highest valid shift that still yields the requested shard
/// count and clamps that count to what the geometry supports;
/// [`ShardPlan::with_shift`] lets tests explore the whole valid space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shift: u32,
    mask: u64,
    shards: u32,
}

impl ShardPlan {
    /// The lowest valid selector shift for `hierarchy`: every level's
    /// line offset is below it.
    fn min_shift(hierarchy: &Hierarchy) -> u32 {
        let line_bits = |c: crate::CacheConfig| c.line().trailing_zeros();
        let levels = hierarchy.config().levels();
        levels.map(line_bits).max().expect("at least two levels")
    }

    /// One past the highest valid selector bit: the log2 of the
    /// smallest way size (line × sets) over all levels.
    fn max_shift(hierarchy: &Hierarchy) -> u32 {
        let way_bits = |c: crate::CacheConfig| (c.line() * c.sets()).trailing_zeros();
        let levels = hierarchy.config().levels();
        levels.map(way_bits).min().expect("at least two levels")
    }

    /// Plans a partition of `hierarchy` into at most `requested` shards.
    /// The effective shard count is the largest power of two ≤
    /// `requested` (and ≤ 256) that the geometry (and the absence of an
    /// MMU) supports; it can be 1.
    ///
    /// Among the valid selector shifts the planner takes the *highest*
    /// one that still yields that shard count — the coarsest granules.
    /// Interleaved streams (multiple arrays walked in lockstep) then
    /// switch shards once per granule instead of once per line, which
    /// both shrinks the sub-span merge schedule and keeps each stream
    /// inside one queue long enough for run-length collapsing to bite.
    #[must_use]
    pub fn for_hierarchy(hierarchy: &Hierarchy, requested: u32) -> ShardPlan {
        let lo = Self::min_shift(hierarchy);
        let hi = Self::max_shift(hierarchy);
        let fallback = ShardPlan {
            shift: lo,
            mask: 0,
            shards: 1,
        };
        if lo >= hi {
            return fallback;
        }
        // Bits needed for the requested count, clamped to the field.
        let k = 32 - requested.clamp(1, MAX_SHARDS).leading_zeros() - 1;
        let shift = hi - k.clamp(1, hi - lo);
        Self::with_shift(hierarchy, requested, shift).unwrap_or(fallback)
    }

    /// Plans a partition with an explicit selector shift, or `None` if
    /// `shift` is outside the valid selector field. The shard count is
    /// still clamped to the bits available above `shift`, and to 256.
    #[must_use]
    pub fn with_shift(hierarchy: &Hierarchy, requested: u32, shift: u32) -> Option<ShardPlan> {
        let lo = Self::min_shift(hierarchy);
        let hi = Self::max_shift(hierarchy);
        if shift < lo || shift >= hi {
            return None;
        }
        let mut k = hi - shift;
        if hierarchy.has_mmu() {
            // Physically-indexed levels and the fully-associative TLB
            // do not partition by virtual address.
            k = 0;
        }
        let requested = requested.clamp(1, MAX_SHARDS);
        let mut shards = 1u32 << k.min(31);
        while shards > requested {
            shards >>= 1;
        }
        Some(ShardPlan {
            shift,
            mask: u64::from(shards) - 1,
            shards,
        })
    }

    /// Effective number of shards (a power of two, ≥ 1).
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The selector shift: shard identity is `(addr >> shift) % shards`.
    #[must_use]
    pub fn selector_shift(&self) -> u32 {
        self.shift
    }

    /// Which shard owns `addr`.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, addr: u64) -> u32 {
        ((addr >> self.shift) & self.mask) as u32
    }
}

/// Per-shard compact record queue: [`memtrace::compact`] access records
/// (encoded and decoded by its [`DeltaCodec`]) with this module's own
/// run-length records and sub-span markers between them.
#[derive(Clone, Debug)]
struct ShardQueue {
    bytes: Vec<u8>,
    codec: DeltaCodec,
    /// L1 line of the last encoded access when it was single-line (run
    /// head candidate); [`NO_LINE`] otherwise.
    run_line: u64,
    run_reads: u64,
    run_writes: u64,
}

impl Default for ShardQueue {
    fn default() -> Self {
        ShardQueue {
            bytes: Vec::new(),
            codec: DeltaCodec::default(),
            // NO_LINE, not 0: line 0 is a real line, and a run must
            // never start without an encoded head access.
            run_line: NO_LINE,
            run_reads: 0,
            run_writes: 0,
        }
    }
}

impl ShardQueue {
    /// Emits the pending run-length record, if any.
    fn flush_run(&mut self) {
        if self.run_reads | self.run_writes != 0 {
            self.bytes.push(FLAG_ESCAPE);
            push_varint(&mut self.bytes, self.run_reads);
            push_varint(&mut self.bytes, self.run_writes);
            self.run_reads = 0;
            self.run_writes = 0;
        }
    }

    /// Encodes one access, returning `true` if it collapsed into a
    /// pending run. `line` is its L1 line when the access lies within a
    /// single line (making it a run candidate), else [`NO_LINE`].
    /// `collapse` enables run-length collapsing (write-back L1 only:
    /// order within a same-line run is then immaterial).
    #[inline]
    fn push(&mut self, access: Access, line: u64, collapse: bool) -> bool {
        if collapse && line != NO_LINE && line == self.run_line {
            if access.kind == AccessKind::Write {
                self.run_writes += 1;
            } else {
                self.run_reads += 1;
            }
            return true;
        }
        self.flush_run();
        self.run_line = line;
        self.codec.encode(access, &mut self.bytes);
        false
    }

    /// Starts a new sub-span in this queue.
    fn mark(&mut self) {
        self.bytes.push(FLAG_ESCAPE | FLAG_MARK);
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.codec = DeltaCodec::default();
        self.run_line = NO_LINE;
        debug_assert_eq!(self.run_reads | self.run_writes, 0, "run not flushed");
    }
}

/// One shard's replay state: a private hierarchy plus the deferred
/// classification bookkeeping produced by each drain.
#[derive(Clone, Debug)]
struct ShardWorker {
    hierarchy: Hierarchy,
    /// LLC events drained from the hierarchy after replaying the queue.
    events: Vec<LlcEvent>,
    /// Events per sub-span, in this shard's sub-span order.
    span_events: Vec<u32>,
    l1_shift: u32,
}

impl ShardWorker {
    /// Replays one drained queue: this module's escape records are
    /// handled here, everything else is an access record for the codec.
    /// The queue is self-produced, so a malformed tail (impossible by
    /// construction) just ends the replay.
    fn run(&mut self, bytes: &[u8]) {
        let mut pos = 0usize;
        let mut codec = DeltaCodec::default();
        let mut cur_line = NO_LINE;
        let mut span_open = false;
        let mut span_start = 0usize;
        while let Some(&flags) = bytes.get(pos) {
            pos += 1;
            if flags & FLAG_ESCAPE != 0 {
                if flags & FLAG_MARK != 0 {
                    let n = self.hierarchy.llc_event_count();
                    if span_open {
                        self.span_events.push((n - span_start) as u32);
                    }
                    span_open = true;
                    span_start = n;
                } else {
                    let Some(reads) = take_varint(bytes, &mut pos) else {
                        break;
                    };
                    let Some(writes) = take_varint(bytes, &mut pos) else {
                        break;
                    };
                    self.replay_run(cur_line, reads, writes);
                }
                continue;
            }
            let Some(access) = codec.decode(flags, bytes, &mut pos) else {
                break;
            };
            let addr = access.addr.raw();
            let last_byte = addr.saturating_add(u64::from(access.size.max(1)) - 1);
            let first_line = addr >> self.l1_shift;
            if last_byte >> self.l1_shift == first_line {
                // Single-line (the overwhelmingly common case): skip the
                // full access path's address re-derivation — workers
                // never carry an MMU (an MMU degrades the plan to one
                // inline shard with no queues at all).
                cur_line = first_line;
                self.hierarchy
                    .access_l1_line(first_line, access.kind == AccessKind::Write);
            } else {
                cur_line = NO_LINE;
                self.hierarchy.access(access);
            }
        }
        if span_open {
            let n = self.hierarchy.llc_event_count();
            self.span_events.push((n - span_start) as u32);
        }
        self.hierarchy.drain_llc_events(&mut self.events);
    }

    /// Applies a run-length record: `reads` + `writes` more references
    /// to `line`, which the encoder guaranteed are each contained in
    /// that line and queue-adjacent to the previous reference to it.
    fn replay_run(&mut self, line: u64, reads: u64, writes: u64) {
        if line == NO_LINE {
            debug_assert!(false, "run record without a single-line head");
            return;
        }
        if self.hierarchy.rehit_run(line, reads, writes) {
            return;
        }
        // Slow mode (fast paths disabled): replay per-reference. The
        // encoder only collapses runs for write-back L1s, where the
        // line is resident after its head access and order within the
        // run cannot affect any counter, so read-then-write replay is
        // exact.
        let base = Addr::new(line << self.l1_shift);
        for _ in 0..reads {
            self.hierarchy.access(Access::read(base, 1));
        }
        for _ in 0..writes {
            self.hierarchy.access(Access::write(base, 1));
        }
    }
}

/// A [`TraceSink`] that simulates across address-region shards and
/// reduces to totals bit-identical with [`SimSink`](crate::SimSink).
///
/// Records are partitioned by [`ShardPlan`] selector bits into compact
/// per-shard queues as they arrive; queues drain through private
/// per-shard hierarchies (in parallel where the host allows) and the
/// deferred classifier logs merge in program order. With one effective
/// shard — requested, geometry-limited, or forced by an MMU — the sink
/// degrades to inline simulation with no queueing at all.
///
/// # Examples
///
/// ```
/// use cachesim::{MachineModel, ShardedSimSink, SimSink};
/// use memtrace::{Addr, TraceSink};
///
/// let machine = MachineModel::r8000();
/// let mut sharded = ShardedSimSink::new(machine.hierarchy(), 4);
/// let mut plain = SimSink::new(machine.hierarchy());
/// for off in (0..65536u64).step_by(8) {
///     sharded.read(Addr::new(off), 8);
///     plain.read(Addr::new(off), 8);
/// }
/// assert_eq!(sharded.finish(), plain.finish());
/// ```
#[derive(Clone, Debug)]
pub struct ShardedSimSink {
    plan: ShardPlan,
    queues: Vec<ShardQueue>,
    workers: Vec<ShardWorker>,
    /// Owner shard of each sub-span, in program order — the merge
    /// schedule for the deferred classifier logs.
    span_owners: Vec<u8>,
    cur_shard: u32,
    /// The shared classifier every drained LLC log replays into.
    classifier: MissClassifier,
    l1_shift: u32,
    /// Run-length collapsing is only exact for write-back L1s.
    collapse: bool,
    pending: usize,
    instructions: u64,
    reads: u64,
    writes: u64,
    threads: u64,
    /// Completed drain rounds (flush → shard replay → merge cycles).
    rounds: u64,
    obs: ShardObs,
}

/// Probe counters for the sharded pipeline itself.
#[derive(Clone, Debug, Default)]
struct ShardObs {
    records: probe::LocalCounter,
    run_collapsed: probe::LocalCounter,
    split_accesses: probe::LocalCounter,
    flushes: probe::LocalCounter,
    queue_bytes: probe::LocalCounter,
}

impl ShardedSimSink {
    /// Creates a sharded sink over clones of `hierarchy`, one per
    /// effective shard of the auto-planned partition (see
    /// [`ShardPlan::for_hierarchy`]).
    #[must_use]
    pub fn new(hierarchy: Hierarchy, shards: u32) -> Self {
        let plan = ShardPlan::for_hierarchy(&hierarchy, shards);
        Self::with_plan(hierarchy, plan)
    }

    /// Creates a sharded sink with an explicit (valid) plan.
    #[must_use]
    pub fn with_plan(mut hierarchy: Hierarchy, plan: ShardPlan) -> Self {
        let config = hierarchy.config();
        let l1_shift = config.l1d.line().trailing_zeros();
        let collapse = config.l1d.write_policy() == WritePolicy::WriteBackAllocate;
        let classifier = MissClassifier::new(&config.l3.unwrap_or(config.l2));
        let n = plan.shards() as usize;
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let mut h = if i + 1 == n {
                // The last worker takes ownership; earlier ones clone.
                std::mem::replace(&mut hierarchy, Hierarchy::new(config))
            } else {
                hierarchy.clone()
            };
            if n > 1 {
                h.set_deferred_classification(true);
            }
            workers.push(ShardWorker {
                hierarchy: h,
                events: Vec::new(),
                span_events: Vec::new(),
                l1_shift,
            });
        }
        ShardedSimSink {
            plan,
            queues: vec![ShardQueue::default(); if n > 1 { n } else { 0 }],
            workers,
            span_owners: Vec::new(),
            cur_shard: u32::MAX,
            classifier,
            l1_shift,
            collapse,
            pending: 0,
            instructions: 0,
            reads: 0,
            writes: 0,
            threads: 0,
            rounds: 0,
            obs: ShardObs::default(),
        }
    }

    /// The partition in effect.
    #[must_use]
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The schedule-event stream of the sharded pipeline's hand-off
    /// structure, for happens-before analysis: one
    /// [`shard round`](memtrace::ScheduleLog::shard_rounds) per
    /// completed drain round (at least one, so the model is meaningful
    /// before the first flush).
    #[must_use]
    pub fn schedule_log(&self) -> memtrace::ScheduleLog {
        let rounds = u32::try_from(self.rounds.max(1)).expect("round count fits u32");
        memtrace::ScheduleLog::shard_rounds(self.plan.shards(), rounds)
    }

    /// Records forked threads, as [`SimSink::add_threads`](crate::SimSink::add_threads).
    pub fn add_threads(&mut self, count: u64) {
        self.threads += count;
    }

    /// Enables or disables the fast lookup paths in every shard (and
    /// the merged classifier). Reports are bit-identical either way.
    pub fn set_fast_path(&mut self, enabled: bool) {
        for worker in &mut self.workers {
            worker.hierarchy.set_fast_path(enabled);
        }
        self.classifier.set_fast_path(enabled);
    }

    /// Routes one access to `shard`, opening a sub-span on switch.
    /// `line` is the single L1 line the access lies in, or [`NO_LINE`].
    #[inline]
    fn route(&mut self, shard: u32, access: Access, line: u64) {
        let switched = shard != self.cur_shard;
        if switched {
            self.cur_shard = shard;
            // Lossless: a plan never has more than `MAX_SHARDS` shards.
            self.span_owners.push(shard as u8);
        }
        let queue = &mut self.queues[shard as usize];
        if switched {
            queue.mark();
        }
        if queue.push(access, line, self.collapse) {
            self.obs.run_collapsed.incr();
        }
        self.pending += 1;
    }

    /// Partitions one access, splitting it at selector-granule
    /// boundaries when it straddles shards.
    #[inline]
    fn partition(&mut self, access: Access) {
        let addr = access.addr.raw();
        let last_byte = addr.saturating_add(u64::from(access.size.max(1)) - 1);
        if addr >> self.plan.shift == last_byte >> self.plan.shift {
            // Entirely within one selector granule (the common case):
            // one shard, and single-line iff it stays in one L1 line.
            let first_line = addr >> self.l1_shift;
            let line = if last_byte >> self.l1_shift == first_line {
                first_line
            } else {
                NO_LINE
            };
            self.route(self.plan.shard_of(addr), access, line);
            return;
        }
        // Straddles a granule boundary: split into per-granule pieces,
        // in address order (= the order the unsharded hierarchy walks
        // its lines). The granule is a multiple of every line size, so
        // the pieces' line touches concatenate to the original's.
        self.obs.split_accesses.incr();
        let granule = 1u64 << self.plan.shift;
        let mut start = addr;
        loop {
            // Last byte of this piece: end of the granule or of the
            // access, whichever comes first (inclusive arithmetic so an
            // access ending at u64::MAX cannot overflow).
            let piece_last = (start | (granule - 1)).min(last_byte);
            let size = (piece_last - start + 1).min(u64::from(u32::MAX)) as u32;
            let piece = Access {
                addr: Addr::new(start),
                size,
                kind: access.kind,
            };
            let piece_line = if start >> self.l1_shift == piece_last >> self.l1_shift {
                start >> self.l1_shift
            } else {
                NO_LINE
            };
            self.route(self.plan.shard_of(start), piece, piece_line);
            if piece_last == last_byte {
                break;
            }
            start = piece_last + 1;
        }
    }

    /// Drains every queue through its shard and merges the deferred
    /// classifier logs in program order. Deterministic regardless of
    /// whether workers ran in parallel: each queue's replay is
    /// sequential within its worker, and the merge follows the recorded
    /// sub-span order, not completion order.
    fn drain(&mut self) {
        if self.pending == 0 {
            return;
        }
        for queue in &mut self.queues {
            queue.flush_run();
            self.obs.queue_bytes.add(queue.bytes.len() as u64);
        }
        self.obs.records.add(self.pending as u64);
        self.obs.flushes.incr();
        let parallel = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) > 1;
        if parallel {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.workers.len());
                for (worker, queue) in self.workers.iter_mut().zip(&self.queues) {
                    handles.push(scope.spawn(move || worker.run(&queue.bytes)));
                }
                // Join in spawn order (the run_cells pattern): panics
                // surface deterministically and nothing depends on
                // completion order.
                for handle in handles {
                    if let Err(panic) = handle.join() {
                        std::panic::resume_unwind(panic);
                    }
                }
            });
        } else {
            for (worker, queue) in self.workers.iter_mut().zip(&self.queues) {
                worker.run(&queue.bytes);
            }
        }
        // Merge: replay each sub-span's LLC events into the shared
        // classifier in program order.
        let mut event_pos = vec![0usize; self.workers.len()];
        let mut span_pos = vec![0usize; self.workers.len()];
        for &owner in &self.span_owners {
            let owner = owner as usize;
            let worker = &self.workers[owner];
            let n = worker.span_events[span_pos[owner]] as usize;
            span_pos[owner] += 1;
            for event in &worker.events[event_pos[owner]..event_pos[owner] + n] {
                if event.hit {
                    self.classifier.note_hit(event.line);
                } else {
                    self.classifier.classify_miss(event.line);
                }
            }
            event_pos[owner] += n;
        }
        for (i, worker) in self.workers.iter_mut().enumerate() {
            debug_assert_eq!(event_pos[i], worker.events.len(), "unmerged LLC events");
            debug_assert_eq!(span_pos[i], worker.span_events.len(), "unmerged sub-spans");
            worker.events.clear();
            worker.span_events.clear();
        }
        for queue in &mut self.queues {
            queue.clear();
        }
        self.span_owners.clear();
        self.cur_shard = u32::MAX;
        self.pending = 0;
        self.rounds += 1;
    }

    /// Whether the sink is running the partitioned pipeline (vs inline
    /// single-shard simulation).
    fn is_partitioned(&self) -> bool {
        self.workers.len() > 1
    }

    /// Snapshots the current statistics, draining any queued records
    /// first. Bit-identical to the report an unsharded
    /// [`SimSink`](crate::SimSink) produces for the same trace.
    pub fn report(&mut self) -> SimReport {
        self.drain();
        let mut report = SimReport {
            instructions: self.instructions,
            reads: self.reads,
            writes: self.writes,
            threads: self.threads,
            ..SimReport::default()
        };
        for worker in &self.workers {
            worker.hierarchy.add_to(&mut report);
        }
        if self.is_partitioned() {
            report.classes = self.classifier.counts();
        }
        report
    }

    /// Drains, then consumes the sink and returns the final statistics.
    pub fn finish(mut self) -> SimReport {
        self.report()
    }

    /// Flushes probe observations: a `sharding` section (partition
    /// shape and queue traffic), each shard's hierarchy sections
    /// namespaced `shard<i>.*`, and the merged classifier verdicts.
    /// Call after [`report`](Self::report) so queued records are
    /// included. Empty-ish when probes are compiled out.
    pub fn run_profile(&self) -> probe::RunProfile {
        let mut profile = probe::RunProfile::new();
        if !self.is_partitioned() {
            // Inline mode: the single hierarchy's profile, plus the
            // partition shape for visibility.
            let mut section = probe::Section::new("sharding");
            section
                .counter("shards", 1)
                .counter("selector_shift", u64::from(self.plan.selector_shift()));
            profile.push(section);
            for section in self.workers[0].hierarchy.run_profile().into_sections() {
                profile.push(section);
            }
            return profile;
        }
        let mut section = probe::Section::new("sharding");
        section
            .counter("shards", u64::from(self.plan.shards()))
            .counter("selector_shift", u64::from(self.plan.selector_shift()))
            .counter("records", self.obs.records.get())
            .counter("run_collapsed", self.obs.run_collapsed.get())
            .counter("split_accesses", self.obs.split_accesses.get())
            .counter("flushes", self.obs.flushes.get())
            .counter("queue_bytes", self.obs.queue_bytes.get());
        profile.push(section);
        for (i, worker) in self.workers.iter().enumerate() {
            // Per-shard classifier counts are all-zero under deferred
            // classification; the merged verdicts below are the
            // meaningful ones.
            for section in worker.hierarchy.level_profile().into_sections() {
                let name = format!("shard{i}.{}", section.name());
                profile.push(section.renamed(name));
            }
        }
        profile.push(self.classifier.counts().probe_section());
        profile
    }
}

impl TraceSink for ShardedSimSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.access_batch(std::slice::from_ref(&access));
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        let mut writes = 0u64;
        for access in accesses {
            writes += u64::from(access.kind == AccessKind::Write);
        }
        self.writes += writes;
        self.reads += accesses.len() as u64 - writes;
        if !self.is_partitioned() {
            // Inline mode: no queues, identical to SimSink.
            for &access in accesses {
                self.workers[0].hierarchy.access(access);
            }
            return;
        }
        for &access in accesses {
            self.partition(access);
        }
        if self.pending >= FLUSH_RECORDS {
            self.drain();
        }
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, HierarchyConfig, MachineModel, SimSink};

    fn stream(n: u64, seed: u64) -> Vec<Access> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = if i % 2 == 0 {
                    (i * 8) % (1 << 20)
                } else {
                    (state >> 24) % (1 << 21)
                };
                let size = [1u32, 4, 8, 8, 8, 256][(state % 6) as usize];
                if state.is_multiple_of(3) {
                    Access::write(Addr::new(addr), size)
                } else {
                    Access::read(Addr::new(addr), size)
                }
            })
            .collect()
    }

    fn reports_match(hierarchy: impl Fn() -> Hierarchy, shards: u32, accesses: &[Access]) {
        let mut plain = SimSink::new(hierarchy());
        let mut sharded = ShardedSimSink::new(hierarchy(), shards);
        for chunk in accesses.chunks(97) {
            plain.access_batch(chunk);
            sharded.access_batch(chunk);
        }
        plain.instructions(123);
        sharded.instructions(123);
        assert_eq!(plain.finish(), sharded.finish());
    }

    #[test]
    fn schedule_log_models_per_round_handoffs_through_the_merge() {
        use memtrace::{SchedEvent, TraceSink};
        let machine = MachineModel::r8000();
        let mut sink = ShardedSimSink::new(machine.hierarchy(), 4);
        let shards = sink.plan().shards();
        assert!(shards > 1, "r8000 geometry admits multiple shards");
        for access in stream(2000, 7) {
            sink.access(access);
        }
        let _ = sink.report(); // forces one drain round
        let log = sink.schedule_log();
        assert_eq!(log.actors, shards + 1);
        // Per round: shards hand-offs in, one begin/end pair per shard,
        // shards hand-offs out, one barrier.
        assert_eq!(log.len() as u32 % (4 * shards + 1), 0);
        let mut open = Vec::new();
        for &event in &log.events {
            match event {
                SchedEvent::Handoff { from, to } => {
                    assert!(from == 0 || to == 0, "every edge passes the coordinator");
                }
                SchedEvent::DrainBegin { actor, unit } => {
                    assert!(actor >= 1 && actor <= shards);
                    open.push(unit);
                }
                SchedEvent::DrainEnd { unit, .. } => {
                    assert_eq!(open.pop(), Some(unit));
                }
                _ => {}
            }
        }
        assert!(open.is_empty());
        assert_eq!(log.digest(), sink.schedule_log().digest(), "deterministic");
    }

    #[test]
    fn plan_respects_geometry_bounds() {
        let machine = MachineModel::r8000();
        let h = machine.hierarchy();
        // r8000: L1 way size 16 KiB (2^14), L2 line 128 B → selector
        // field [7, 14): up to 128 shards.
        let plan = ShardPlan::for_hierarchy(&h, 1024);
        assert_eq!(plan.selector_shift(), 7);
        assert_eq!(plan.shards(), 128);
        assert_eq!(ShardPlan::for_hierarchy(&h, 4).shards(), 4);
        // When the field has spare bits, the planner sits the selector
        // at the top of it: 4 shards need 2 bits → shift 12, not 7.
        assert_eq!(ShardPlan::for_hierarchy(&h, 4).selector_shift(), 12);
        assert_eq!(ShardPlan::for_hierarchy(&h, 5).shards(), 4, "round down");
        assert_eq!(ShardPlan::for_hierarchy(&h, 0).shards(), 1);
        assert!(ShardPlan::with_shift(&h, 4, 6).is_none(), "inside L2 line");
        assert!(ShardPlan::with_shift(&h, 4, 14).is_none(), "above L1 way");
        assert_eq!(ShardPlan::with_shift(&h, 4, 11).unwrap().shards(), 4);
    }

    #[test]
    fn degenerate_geometry_falls_back_to_one_shard() {
        // L1 way size equals the L2 line size: no valid selector bits.
        let h = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(64, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        ));
        let plan = ShardPlan::for_hierarchy(&h, 8);
        assert_eq!(plan.shards(), 1);
        let mut sink = ShardedSimSink::new(h, 8);
        sink.read(Addr::new(0), 8);
        assert_eq!(sink.report().reads, 1);
    }

    #[test]
    fn mmu_forces_inline_mode_and_stays_identical() {
        use crate::{Mmu, PageMapper, PagePolicy};
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 12, 32, 1).unwrap(),
            CacheConfig::new(1 << 16, 128, 4).unwrap(),
        );
        let make = || {
            Hierarchy::with_mmu(
                config,
                Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(5), 4096), 8),
            )
        };
        assert_eq!(ShardPlan::for_hierarchy(&make(), 8).shards(), 1);
        reports_match(make, 8, &stream(40_000, 11));
    }

    #[test]
    fn sharded_equals_unsharded_across_shard_counts() {
        let machine = MachineModel::r8000()
            .scaled(1.0 / 16.0)
            .expect("valid scaled machine");
        let accesses = stream(120_000, 7);
        for shards in [1, 2, 4, 8] {
            reports_match(|| machine.hierarchy(), shards, &accesses);
        }
    }

    /// More shards than a byte can index: the plan used to grant all
    /// 512, sub-span owners above 255 truncated, and the merge read
    /// another shard's span counts.
    #[test]
    fn sharded_equals_unsharded_at_512_requested_shards() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 16, 32, 1).unwrap(),
            CacheConfig::new(1 << 17, 32, 1).unwrap(),
        );
        let plan = ShardPlan::for_hierarchy(&Hierarchy::new(config), 512);
        assert_eq!(plan.shards(), MAX_SHARDS);
        assert!(
            ShardPlan::with_shift(&Hierarchy::new(config), 512, 5)
                .unwrap()
                .shards()
                <= 256
        );
        reports_match(|| Hierarchy::new(config), 512, &stream(60_000, 19));
    }

    /// Deferred classification never consults a shard's own classifier,
    /// and the merged one is sized by the lines that reach it: neither
    /// is allocated by the level's line count.
    #[test]
    fn unused_shard_classifiers_are_not_sized_by_the_llc() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 16, 32, 1).unwrap(),
            CacheConfig::new(1 << 17, 32, 1).unwrap(),
        );
        let sim = ShardedSimSink::new(Hierarchy::new(config), 256);
        assert_eq!(sim.workers.len(), 256);
        let classifiers = sim
            .workers
            .iter()
            .map(|worker| worker.hierarchy.classifier())
            .chain([&sim.classifier]);
        for classifier in classifiers {
            let (slots, ring) = classifier.table_lens().expect("fast paths on");
            assert!(slots <= 16 && ring == 0, "{slots} slots, ring of {ring}");
        }
    }

    /// The record format is `memtrace::compact`'s: a stream with no
    /// same-line runs and no shard switches is byte-for-byte what a
    /// [`CompactBuf`](memtrace::CompactBuf) holds for it.
    #[test]
    fn run_free_queue_bytes_equal_compact_buf_bytes() {
        let accesses = stream(5_000, 23);
        let mut buf = memtrace::CompactBuf::new();
        let mut queue = ShardQueue::default();
        for &access in &accesses {
            buf.push(access);
            assert!(
                !queue.push(access, NO_LINE, true),
                "NO_LINE never collapses"
            );
        }
        queue.flush_run();
        assert_eq!(queue.bytes, buf.as_bytes());
    }

    #[test]
    fn sharded_equals_unsharded_on_three_level_hierarchy() {
        let machine = MachineModel::modern()
            .scaled(1.0 / 64.0)
            .expect("valid scaled machine");
        reports_match(|| machine.hierarchy(), 4, &stream(120_000, 3));
    }

    #[test]
    fn sharded_slow_mode_is_identical_too() {
        let machine = MachineModel::r8000()
            .scaled(1.0 / 16.0)
            .expect("valid scaled machine");
        let accesses = stream(60_000, 5);
        let mut fast = ShardedSimSink::new(machine.hierarchy(), 4);
        let mut slow = ShardedSimSink::new(machine.hierarchy(), 4);
        slow.set_fast_path(false);
        for &access in &accesses {
            fast.access(access);
            slow.access(access);
        }
        assert_eq!(fast.finish(), slow.finish());
    }

    #[test]
    fn write_through_l1_disables_run_collapsing_but_matches() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1 << 12, 32, 1)
                .unwrap()
                .with_write_policy(WritePolicy::WriteThroughNoAllocate),
            CacheConfig::new(1 << 16, 128, 4).unwrap(),
        );
        reports_match(|| Hierarchy::new(config), 4, &stream(60_000, 13));
    }

    #[test]
    fn mid_stream_reports_drain_and_stay_identical() {
        let machine = MachineModel::r8000()
            .scaled(1.0 / 16.0)
            .expect("valid scaled machine");
        let accesses = stream(50_000, 29);
        let mut plain = SimSink::new(machine.hierarchy());
        let mut sharded = ShardedSimSink::new(machine.hierarchy(), 4);
        for (i, chunk) in accesses.chunks(1000).enumerate() {
            plain.access_batch(chunk);
            sharded.access_batch(chunk);
            if i % 7 == 0 {
                assert_eq!(plain.report(), sharded.report(), "chunk {i}");
            }
        }
        assert_eq!(plain.finish(), sharded.finish());
    }

    #[test]
    fn threads_and_instructions_are_counted() {
        let mut sink = ShardedSimSink::new(MachineModel::r8000().hierarchy(), 4);
        sink.add_threads(7);
        sink.instructions(1000);
        sink.read(Addr::new(64), 8);
        let report = sink.report();
        assert_eq!(report.threads, 7);
        assert_eq!(report.instructions, 1000);
        assert_eq!(report.reads, 1);
    }

    #[test]
    fn run_profile_has_shard_sections_and_merged_classifier() {
        if !probe::enabled() {
            return;
        }
        let mut sink = ShardedSimSink::new(MachineModel::r8000().hierarchy(), 4);
        for access in stream(50_000, 17) {
            sink.access(access);
        }
        let report = sink.report();
        let json = sink.run_profile().to_json();
        assert!(json.contains("\"sharding\""), "{json}");
        assert!(json.contains("\"shard0.l1\""), "{json}");
        assert!(json.contains("\"shard3.l2\""), "{json}");
        assert!(json.contains("\"classifier\""), "{json}");
        // The merged verdicts must equal the reported ones.
        assert!(
            json.contains(&format!("\"compulsory\":{}", report.classes.compulsory)),
            "{json}"
        );
    }
}
