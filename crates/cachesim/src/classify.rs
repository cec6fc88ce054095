//! One-pass compulsory/capacity/conflict miss classification.

use crate::linehash::LineHashState;
use crate::lru::LruSet;
use crate::CacheConfig;
use std::collections::HashSet;

/// The three-C class of a cache miss (Hill & Smith, *Evaluating
/// Associativity in CPU Caches*, IEEE ToC 1989 — reference \[21\] of the
/// paper; the paper's modified DineroIII produced exactly this
/// classification in one run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the line (cold miss).
    Compulsory,
    /// A fully-associative LRU cache of the same capacity would also
    /// have missed.
    Capacity,
    /// Only the restricted associativity caused the miss.
    Conflict,
}

/// Counts of classified misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissClassCounts {
    /// Cold misses.
    pub compulsory: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Conflict misses.
    pub conflict: u64,
}

impl MissClassCounts {
    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Adds one miss of the given class.
    pub fn record(&mut self, class: MissClass) {
        match class {
            MissClass::Compulsory => self.compulsory += 1,
            MissClass::Capacity => self.capacity += 1,
            MissClass::Conflict => self.conflict += 1,
        }
    }

    /// The counts as the `classifier` section of a run profile.
    pub fn probe_section(&self) -> probe::Section {
        let mut section = probe::Section::new("classifier");
        section
            .counter("compulsory", self.compulsory)
            .counter("capacity", self.capacity)
            .counter("conflict", self.conflict);
        section
    }
}

/// One-pass 3C classifier for a cache level's reference stream.
///
/// Feed it *every* reference the classified cache sees (hits included —
/// the fully-associative model's recency state depends on them);
/// [`classify_miss`](Self::classify_miss) is consulted only when the
/// real cache missed.
///
/// # Examples
///
/// ```
/// use cachesim::{CacheConfig, MissClass, MissClassifier};
///
/// // Two-line fully-associative capacity model.
/// let config = CacheConfig::new(64, 32, 2)?;
/// let mut cls = MissClassifier::new(&config);
/// assert_eq!(cls.classify_miss(0), MissClass::Compulsory);
/// assert_eq!(cls.classify_miss(1), MissClass::Compulsory);
/// assert_eq!(cls.classify_miss(2), MissClass::Compulsory);
/// // Line 0 was evicted from the 2-line FA model by lines 1, 2:
/// assert_eq!(cls.classify_miss(0), MissClass::Capacity);
/// # Ok::<(), cachesim::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MissClassifier {
    seen: HashSet<u64, LineHashState>,
    fully_assoc: LruSet,
    counts: MissClassCounts,
    fast: bool,
}

impl MissClassifier {
    /// Creates a classifier for a cache with geometry `config`, with
    /// the fast lookup paths enabled.
    ///
    /// The capacity model is a fully-associative LRU cache with
    /// `config.lines()` lines.
    pub fn new(config: &CacheConfig) -> Self {
        MissClassifier {
            seen: HashSet::with_hasher(LineHashState::for_fast(true)),
            fully_assoc: LruSet::new(config.lines() as usize),
            counts: MissClassCounts::default(),
            fast: true,
        }
    }

    /// Switches the fast paths (one-multiply line hashing, front-of-list
    /// LRU scan, and elision of provably redundant `seen` updates) on or
    /// off. Classification is bit-identical in both modes; the slow mode
    /// is the exhaustive reference.
    pub fn set_fast_path(&mut self, fast: bool) {
        if self.fast == fast {
            return;
        }
        self.fast = fast;
        self.fully_assoc.set_fast(fast);
        let mut seen =
            HashSet::with_capacity_and_hasher(self.seen.capacity(), LineHashState::for_fast(fast));
        seen.extend(self.seen.drain());
        self.seen = seen;
    }

    /// Records a reference that *hit* in the classified cache.
    ///
    /// Keeps the capacity model's recency state in sync.
    #[inline]
    pub fn note_hit(&mut self, line: u64) {
        let fa_hit = self.fully_assoc.touch(line);
        // Every insertion into the FA model (here and in
        // `classify_miss`) is paired with a `seen` insertion, so FA ⊆
        // seen always: when the FA model already held the line, the
        // `seen` update is a no-op the fast path elides.
        if !(self.fast && fa_hit) {
            self.seen.insert(line);
        }
    }

    /// Classifies a miss on `line` and updates the model state.
    #[inline]
    pub fn classify_miss(&mut self, line: u64) -> MissClass {
        let class = if self.fast {
            // FA ⊆ seen (see `note_hit`): an FA hit implies the line was
            // seen before, so the first-touch probe is needed only on an
            // FA miss — where `insert`'s return value answers it.
            if self.fully_assoc.touch(line) {
                MissClass::Conflict
            } else if self.seen.insert(line) {
                MissClass::Compulsory
            } else {
                MissClass::Capacity
            }
        } else {
            let first_touch = self.seen.insert(line);
            let fa_hit = self.fully_assoc.touch(line);
            if first_touch {
                MissClass::Compulsory
            } else if !fa_hit {
                MissClass::Capacity
            } else {
                MissClass::Conflict
            }
        };
        self.counts.record(class);
        class
    }

    /// Classified miss counts so far.
    pub fn counts(&self) -> MissClassCounts {
        self.counts
    }

    /// Zeroes the counts, keeping the cache-content models warm.
    ///
    /// Use this to exclude warm-up (e.g. the paper excludes program
    /// initialization from its simulations).
    pub fn reset_counts(&mut self) {
        self.counts = MissClassCounts::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier(lines: u64) -> MissClassifier {
        MissClassifier::new(&CacheConfig::new(lines * 32, 32, 1).unwrap())
    }

    #[test]
    fn first_touch_is_always_compulsory() {
        let mut c = classifier(4);
        for line in 0..100 {
            assert_eq!(c.classify_miss(line), MissClass::Compulsory);
        }
        assert_eq!(c.counts().compulsory, 100);
    }

    #[test]
    fn cycling_working_set_larger_than_cache_is_capacity() {
        let mut c = classifier(4);
        for line in 0..8 {
            c.classify_miss(line);
        }
        for _ in 0..3 {
            for line in 0..8 {
                assert_eq!(c.classify_miss(line), MissClass::Capacity);
            }
        }
        let counts = c.counts();
        assert_eq!(counts.compulsory, 8);
        assert_eq!(counts.capacity, 24);
        assert_eq!(counts.conflict, 0);
        assert_eq!(counts.total(), 32);
    }

    #[test]
    fn miss_that_fa_would_hit_is_conflict() {
        let mut c = classifier(16);
        c.classify_miss(0);
        c.classify_miss(16); // same direct-mapped set in a 16-set cache
                             // Real cache missed again on 0 (conflict eviction), but the FA
                             // model still holds both lines:
        assert_eq!(c.classify_miss(0), MissClass::Conflict);
        assert_eq!(c.counts().conflict, 1);
    }

    #[test]
    fn hits_refresh_fa_recency() {
        let mut c = classifier(2);
        c.classify_miss(0);
        c.classify_miss(1);
        c.note_hit(0); // 0 becomes MRU in the FA model
        c.classify_miss(2); // FA evicts 1
                            // If the real cache now misses on 0, the FA model still holds it
                            // (thanks to the hit), so it's a conflict miss:
        assert_eq!(c.classify_miss(0), MissClass::Conflict);
        // ...while 1 is genuinely out of FA capacity:
        assert_eq!(c.classify_miss(1), MissClass::Capacity);
    }

    #[test]
    fn reset_counts_keeps_models_warm() {
        let mut c = classifier(4);
        c.classify_miss(0);
        c.reset_counts();
        assert_eq!(c.counts().total(), 0);
        // Line 0 was already seen: a new miss on it is not compulsory.
        assert_ne!(c.classify_miss(0), MissClass::Compulsory);
    }

    #[test]
    fn fast_and_slow_classifiers_agree_class_by_class() {
        let mut fast = classifier(8);
        let mut slow = classifier(8);
        slow.set_fast_path(false);
        let mut state = 0x1234_5678u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (state >> 33) % 24;
            // Mimic the hierarchy's usage: hits keep recency in sync,
            // misses get classified.
            if state.is_multiple_of(3) {
                fast.note_hit(line);
                slow.note_hit(line);
            } else {
                assert_eq!(fast.classify_miss(line), slow.classify_miss(line));
            }
        }
        assert_eq!(fast.counts(), slow.counts());
    }

    #[test]
    fn classes_partition_misses() {
        let mut c = classifier(8);
        let mut total = 0u64;
        let mut state = 12345u64;
        for _ in 0..1000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (state >> 33) % 24;
            c.classify_miss(line);
            total += 1;
        }
        assert_eq!(c.counts().total(), total);
    }
}
