//! Collection primitives: counters, histograms, span timers.
//!
//! One body, two slots. [`CounterOf`] and [`HistogramOf`] are written
//! once over a private [`Slot`] — one 64-bit cell of a metric — and the
//! public names are aliases picking the slot: a plain `Cell<u64>` for
//! [`LocalCounter`] / [`LocalHistogram`], observations owned by one
//! thread, or, with the `enabled` cargo feature off, a zero-sized no-op
//! slot, so instrumentation sites cost nothing and a span never reads
//! the clock. Nothing is shared between threads: a layer that runs on
//! several gives each thread its own observations and folds them
//! together at the join with `merge_from`.

use std::cell::Cell;
use std::fmt::Debug;
use std::time::Instant;

/// Number of log₂ buckets: values up to 2⁶³ land in a bucket.
const BUCKETS: usize = 64;

/// Bucket index of `value`: 0 for 0, else `floor(log2(value)) + 1`,
/// clamped to the last bucket. Bucket `i > 0` covers
/// `[2^(i-1), 2^i - 1]`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i).wrapping_sub(1)
    }
}

/// Point-in-time copy of a [`LocalHistogram`], safe to serialize and
/// compare after collection has moved on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty log₂ buckets as `(inclusive upper bound, count)`,
    /// in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in [0, 1]: the upper bound of the
    /// bucket where the cumulative count crosses `q · count`. Within a
    /// factor of 2 of the true quantile by construction of the log₂
    /// buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for &(upper, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// One 64-bit storage cell of a metric. The trait is public only so the
/// aliases below and `Section::histogram` can name it in their bounds;
/// the module is private, so nothing outside the crate can implement or
/// call it.
pub trait Slot: Debug + Sized + 'static {
    /// The cell holding 0.
    const ZERO: Self;
    /// The cell holding `u64::MAX` (an empty histogram's minimum).
    const MAX: Self;
    /// What a running span holds: the histogram and its start time, or
    /// nothing at all.
    type Running<'a>: Debug;
    /// What a lap timer holds: the instant its last lap ended, or
    /// nothing at all.
    type Clock: Debug;

    /// Current value.
    fn get(&self) -> u64;
    /// Wrapping add.
    fn add(&self, n: u64);
    /// Lowers the cell to `v` if `v` is smaller.
    fn lower(&self, v: u64);
    /// Raises the cell to `v` if `v` is larger.
    fn raise(&self, v: u64);
    /// Starts timing a span over `histogram`.
    fn start(histogram: &HistogramOf<Self>) -> Self::Running<'_>;
    /// Records the elapsed nanoseconds of `running`.
    fn finish(running: &mut Self::Running<'_>);
    /// Reads the clock.
    fn now() -> Self::Clock;
    /// Records the nanoseconds since `clock` into `histogram` and
    /// restarts `clock` there — one clock read.
    fn lap(histogram: &HistogramOf<Self>, clock: &mut Self::Clock);
}

impl Slot for Cell<u64> {
    const ZERO: Self = Cell::new(0);
    const MAX: Self = Cell::new(u64::MAX);
    type Running<'a> = (&'a HistogramOf<Self>, Instant);

    #[inline]
    fn get(&self) -> u64 {
        Cell::get(self)
    }
    #[inline]
    fn add(&self, n: u64) {
        self.set(Cell::get(self).wrapping_add(n));
    }
    #[inline]
    fn lower(&self, v: u64) {
        self.set(Cell::get(self).min(v));
    }
    #[inline]
    fn raise(&self, v: u64) {
        self.set(Cell::get(self).max(v));
    }
    #[inline]
    fn start(histogram: &HistogramOf<Self>) -> Self::Running<'_> {
        (histogram, Instant::now())
    }
    #[inline]
    fn finish(running: &mut Self::Running<'_>) {
        running.0.record(running.1.elapsed().as_nanos() as u64);
    }
    type Clock = Instant;
    #[inline]
    fn now() -> Instant {
        Instant::now()
    }
    #[inline]
    fn lap(histogram: &HistogramOf<Self>, clock: &mut Instant) {
        let now = Instant::now();
        histogram.record(now.duration_since(*clock).as_nanos() as u64);
        *clock = now;
    }
}

/// The compiled-out slot: zero-sized, stores nothing, reads as 0.
#[cfg(not(feature = "enabled"))]
#[derive(Debug)]
pub struct NoSlot;

#[cfg(not(feature = "enabled"))]
impl Slot for NoSlot {
    const ZERO: Self = NoSlot;
    const MAX: Self = NoSlot;
    type Running<'a> = ();

    #[inline(always)]
    fn get(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn add(&self, _n: u64) {}
    #[inline(always)]
    fn lower(&self, _v: u64) {}
    #[inline(always)]
    fn raise(&self, _v: u64) {}
    #[inline(always)]
    fn start(_histogram: &HistogramOf<Self>) {}
    #[inline(always)]
    fn finish(_running: &mut ()) {}
    type Clock = ();
    #[inline(always)]
    fn now() {}
    #[inline(always)]
    fn lap(_histogram: &HistogramOf<Self>, _clock: &mut ()) {}
}

#[cfg(feature = "enabled")]
type LocalSlot = Cell<u64>;
#[cfg(not(feature = "enabled"))]
type LocalSlot = NoSlot;

/// A single-threaded monotonic event counter: a plain `Cell`, so
/// bumping it is one register-width store, not an atomic RMW.
pub type LocalCounter = CounterOf<LocalSlot>;
/// A log₂-bucketed histogram of `u64` values kept in plain `Cell`s, so
/// `record` is five ordinary loads and stores. For observations owned
/// by one thread — a simulator, a scheduler, or one parallel worker
/// (the type is `!Sync`, so the compiler enforces it); per-thread
/// histograms combine with [`merge_from`](HistogramOf::merge_from).
pub type LocalHistogram = HistogramOf<LocalSlot>;
/// Guard returned by [`LocalHistogram::span`].
pub type LocalSpan<'a> = SpanOf<'a, LocalSlot>;
/// Lap timer over [`LocalHistogram`]s.
pub type LocalLap = LapOf<LocalSlot>;

/// A monotonic event counter over one storage slot; use it through
/// [`LocalCounter`]. Compiled out, every method is a no-op and `get`
/// reads 0.
#[derive(Debug)]
pub struct CounterOf<S: Slot>(S);

impl<S: Slot> CounterOf<S> {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        CounterOf(S::ZERO)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.add(n);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

impl<S: Slot> Default for CounterOf<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Slot> Clone for CounterOf<S> {
    fn clone(&self) -> Self {
        let fresh = Self::new();
        fresh.add(self.get());
        fresh
    }
}

/// A log₂-bucketed histogram of `u64` values over one kind of storage
/// slot; use it through [`LocalHistogram`]. Compiled out, it is
/// zero-sized and records nothing.
#[derive(Debug)]
pub struct HistogramOf<S: Slot> {
    buckets: [S; BUCKETS],
    count: S,
    sum: S,
    /// Min encoded as `u64::MAX` when empty.
    min: S,
    max: S,
}

impl<S: Slot> HistogramOf<S> {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        HistogramOf {
            buckets: [S::ZERO; BUCKETS],
            count: S::ZERO,
            sum: S::ZERO,
            min: S::MAX,
            max: S::ZERO,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `value` `n` times — exactly `n` calls of
    /// [`record`](Self::record) — at the cost of one. `n = 0` records
    /// nothing (min and max stay as they were).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)].add(n);
        self.count.add(n);
        self.sum.add(value.wrapping_mul(n));
        self.min.lower(value);
        self.max.raise(value);
    }

    /// Values recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of values recorded so far.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Folds another histogram's contents into this one.
    pub fn merge_from(&self, other: &Self) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.add(theirs.get());
        }
        self.count.add(other.count.get());
        self.sum.add(other.sum.get());
        // An empty histogram's min is `u64::MAX` and its max 0, so
        // neither moves the extremes.
        self.min.lower(other.min.get());
        self.max.raise(other.max.get());
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let min = self.min.get();
        HistogramSnapshot {
            count: self.count.get(),
            sum: self.sum.get(),
            min: if min == u64::MAX { 0 } else { min },
            max: self.max.get(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| (b.get() > 0).then_some((bucket_upper(i), b.get())))
                .collect(),
        }
    }

    /// Starts a scoped timer that records elapsed nanoseconds into this
    /// histogram when dropped.
    #[inline]
    pub fn span(&self) -> SpanOf<'_, S> {
        SpanOf(S::start(self))
    }
}

impl<S: Slot> Default for HistogramOf<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Slot> Clone for HistogramOf<S> {
    fn clone(&self) -> Self {
        let fresh = Self::new();
        fresh.merge_from(self);
        fresh
    }
}

/// Guard returned by [`HistogramOf::span`]: records the elapsed
/// nanoseconds between creation and drop. Compiled out, it is
/// zero-sized and its drop does nothing.
#[derive(Debug)]
pub struct SpanOf<'a, S: Slot>(S::Running<'a>);

impl<S: Slot> Drop for SpanOf<'_, S> {
    #[inline]
    fn drop(&mut self) {
        S::finish(&mut self.0);
    }
}

/// A running instant for timing back-to-back intervals: each
/// [`lap`](Self::lap) records the nanoseconds since the previous one
/// (or since [`start`](Self::start)) and begins the next interval at
/// the same reading, so *n* consecutive intervals cost *n* + 1 clock
/// reads where *n* spans cost 2*n*. Compiled out, it is zero-sized and
/// never reads the clock.
#[derive(Debug)]
pub struct LapOf<S: Slot>(S::Clock);

impl<S: Slot> LapOf<S> {
    /// Starts the first interval now.
    #[inline]
    pub fn start() -> Self {
        LapOf(S::now())
    }

    /// Ends the current interval into `histogram` and starts the next.
    #[inline]
    pub fn lap(&mut self, histogram: &HistogramOf<S>) {
        S::lap(histogram, &mut self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        // Every value is ≤ its bucket's upper bound (last bucket saturates).
        for v in [0u64, 1, 2, 5, 100, 1 << 40] {
            assert!(v <= bucket_upper(bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn local_counter_accumulates_or_noops() {
        let c = LocalCounter::new();
        c.add(4);
        c.incr();
        assert_eq!(c.get(), if crate::enabled() { 5 } else { 0 });
        assert_eq!(c.clone().get(), c.get(), "clone snapshots the value");
    }

    #[test]
    fn histogram_records_distribution() {
        let h = LocalHistogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        if crate::enabled() {
            assert_eq!(snap.count, 5);
            assert_eq!(snap.sum, 1106);
            assert_eq!(snap.min, 1);
            assert_eq!(snap.max, 1000);
            assert!((snap.mean() - 221.2).abs() < 1e-9);
            let total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, 5, "buckets partition the count");
            assert_eq!(snap.quantile(0.0), 1);
            assert!(snap.quantile(0.5) >= 3);
            assert_eq!(snap.quantile(1.0), 1000);
        } else {
            assert_eq!(snap, HistogramSnapshot::default());
        }
    }

    #[test]
    fn histogram_merges_across_threads() {
        // Eight threads record into histograms of their own and hand
        // them back at the join; merged, they equal one histogram that
        // saw every value.
        let locals: Vec<LocalHistogram> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    scope.spawn(move || {
                        let local = LocalHistogram::new();
                        for i in 0..1000u64 {
                            local.record(t * 1000 + i);
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let merged = LocalHistogram::new();
        for local in &locals {
            merged.merge_from(local);
        }
        let expected = LocalHistogram::new();
        for v in 0..8000u64 {
            expected.record(v);
        }
        assert_eq!(merged.snapshot(), expected.snapshot());
        if crate::enabled() {
            assert_eq!(merged.count(), 8000);
            assert_eq!(merged.snapshot().min, 0);
            assert_eq!(merged.snapshot().max, 7999);
        }
    }

    /// A seeded stream spanning every bucket width: SplitMix64 output
    /// shifted right by a varying amount, with exact zeros mixed in.
    fn seeded_values(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                if i % 97 == 0 {
                    0
                } else {
                    z >> (z % 64)
                }
            })
            .collect()
    }

    #[test]
    fn record_n_equals_n_records() {
        let (bulk, single) = (LocalHistogram::new(), LocalHistogram::new());
        for (i, v) in seeded_values(7, 200).into_iter().enumerate() {
            let n = (i % 5) as u64; // includes n = 0
            bulk.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
    }

    #[test]
    fn record_n_of_zero_leaves_min_and_max_untouched() {
        let h = LocalHistogram::new();
        h.record_n(5, 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(100);
        // Neither a smaller nor a larger value moves the extremes.
        for v in [1, u64::MAX] {
            h.record_n(v, 0);
        }
        let snap = h.snapshot();
        if crate::enabled() {
            assert_eq!((snap.count, snap.min, snap.max), (1, 100, 100));
        } else {
            assert_eq!(snap, HistogramSnapshot::default());
        }
    }

    #[test]
    fn merge_from_equals_recording_both_halves() {
        let values = seeded_values(42, 2_000);
        let (first, second) = values.split_at(700);
        let (front, back) = (LocalHistogram::new(), LocalHistogram::new());
        for &v in first {
            front.record(v.max(1));
        }
        for &v in second {
            back.record(v.max(1));
        }
        let expected = LocalHistogram::new();
        for &v in &values {
            expected.record(v.max(1));
        }
        // Into a filled histogram, then an empty one merged in, which
        // must not drag the minimum to 0.
        front.merge_from(&back);
        front.merge_from(&LocalHistogram::new());
        assert_eq!(front.snapshot(), expected.snapshot());
        // Into an empty histogram: its extremes become the other's.
        let empty = LocalHistogram::new();
        empty.merge_from(&back);
        assert_eq!(empty.snapshot(), back.snapshot());
        if crate::enabled() {
            assert!(expected.snapshot().min >= 1, "empty merges left min alone");
            assert_eq!(front.count(), 2_000);
        }
    }

    #[test]
    fn disabled_local_histogram_is_a_zero_sized_no_op() {
        if crate::enabled() {
            assert!(std::mem::size_of::<LocalHistogram>() > 0);
            return;
        }
        assert_eq!(std::mem::size_of::<LocalCounter>(), 0);
        assert_eq!(std::mem::size_of::<LocalHistogram>(), 0);
        assert_eq!(std::mem::size_of::<LocalSpan<'_>>(), 0);
        let h = LocalHistogram::new();
        h.record(3);
        h.record_n(9, 4);
        h.merge_from(&LocalHistogram::new());
        drop(h.span());
        assert_eq!((h.count(), h.sum()), (0, 0));
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn local_span_records_elapsed_nanoseconds() {
        let h = LocalHistogram::new();
        {
            let _span = h.span();
            std::hint::black_box(());
        }
        assert_eq!(h.count(), u64::from(crate::enabled()));
    }

    #[test]
    fn lap_records_one_interval_per_call_and_is_zero_sized_when_disabled() {
        let h = LocalHistogram::new();
        let mut clock = LocalLap::start();
        for _ in 0..3 {
            std::hint::black_box(());
            clock.lap(&h);
        }
        if crate::enabled() {
            assert_eq!(h.count(), 3);
        } else {
            assert_eq!(h.count(), 0);
            assert_eq!(std::mem::size_of::<LocalLap>(), 0);
        }
    }

    #[test]
    fn concurrent_counter_adds_never_lose_updates() {
        // Four threads count into counters of their own and hand them
        // back at the join; summed, no update is lost.
        let counters: Vec<LocalCounter> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let c = LocalCounter::new();
                        for _ in 0..10_000 {
                            c.incr();
                        }
                        c
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total = LocalCounter::new();
        for c in &counters {
            total.add(c.get());
        }
        assert_eq!(total.get(), if crate::enabled() { 40_000 } else { 0 });
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let snap = LocalHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.quantile(0.5), 0);
        assert!(snap.buckets.is_empty());
    }
}
