//! One-pass compulsory/capacity/conflict miss classification.
//!
//! The classifier asks two things of every reference the classified
//! level sees: has the line been referenced before, and would a
//! fully-associative LRU cache of the level's line count still hold
//! it. [`LruModel`] answers both in one touch — the chunked table with
//! the fast paths on, the reference model with them off, which is what
//! the differential suites and the repository benchmark's checks
//! (`benchmark/`) compare the table against. The classifier is that
//! model plus its counts.

use crate::lru::LruModel;
use crate::recency::Touch;
use crate::CacheConfig;

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
    /// Fully-associative LRU cache of the level's line count.
    model: LruModel,
    counts: MissClassCounts,
}

impl MissClassifier {
    /// Creates a classifier for a cache with geometry `config`, with
    /// the fast lookup paths enabled.
    ///
    /// The capacity model is a fully-associative LRU cache with
    /// `config.lines()` lines. Nothing is allocated in proportion to
    /// that count: the model's storage grows with the lines referenced.
    pub fn new(config: &CacheConfig) -> Self {
        MissClassifier {
            model: LruModel::new(config.lines() as usize),
            counts: MissClassCounts::default(),
        }
    }

    /// Switches between the chunked recency table (fast paths on, the
    /// default) and the reference model (off). Classification is
    /// bit-identical in both, and across a switch mid-stream.
    pub(crate) fn set_fast_path(&mut self, fast: bool) {
        self.model.set_fast_path(fast);
    }

    /// Records a reference that *hit* in the classified cache.
    ///
    /// Keeps the capacity model's recency state in sync.
    #[inline]
    pub fn note_hit(&mut self, line: u64) {
        self.model.touch(line);
    }

    /// Classifies a miss on `line` and updates the model state.
    #[inline]
    pub fn classify_miss(&mut self, line: u64) -> MissClass {
        let class = match self.model.touch(line) {
            Touch::First => MissClass::Compulsory,
            Touch::Evicted => MissClass::Capacity,
            Touch::Hit => MissClass::Conflict,
        };
        self.counts.record(class);
        class
    }

    /// Lengths of the recency table's stamps and its ring, in entries
    /// (`None` with the fast paths off).
    #[cfg(test)]
    pub(crate) fn table_lens(&self) -> Option<(usize, usize)> {
        self.model.table_lens()
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

    /// Feeds one stream to two classifiers the way the hierarchy does
    /// — hits keep recency in sync, misses get classified — and
    /// compares them class by class. `left` starts with the fast paths
    /// on, `right` with them off; a nonzero `toggle_every` flips `left`
    /// that often, so its state crosses between the two models with
    /// lines seen, resident and evicted in it.
    fn check_agreement(lines: u64, keys: u64, steps: usize, toggle_every: usize) {
        let mut left = classifier(lines);
        let mut right = classifier(lines);
        right.set_fast_path(false);
        assert!(left.table_lens().is_some() && right.table_lens().is_none());
        let mut state = 0x1234_5678u64 ^ keys;
        for step in 0..steps {
            if toggle_every > 0 && step.is_multiple_of(toggle_every) {
                let fast = left.table_lens().is_some();
                left.set_fast_path(!fast);
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Two in three from a window that slides over the keys (so
            // reuse distances straddle the capacity), one from anywhere.
            let line = if (state >> 20).is_multiple_of(3) {
                (state >> 33) % keys
            } else {
                (step as u64 / 64 + (state >> 33) % (lines + lines / 2)) % keys
            };
            if state.is_multiple_of(3) {
                left.note_hit(line);
                right.note_hit(line);
            } else {
                assert_eq!(
                    left.classify_miss(line),
                    right.classify_miss(line),
                    "step {step}"
                );
            }
        }
        assert_eq!(left.counts(), right.counts());
        let counts = left.counts();
        assert!(counts.compulsory > 0 && counts.capacity > 0 && counts.conflict > 0);
    }

    #[test]
    fn fast_and_slow_classifiers_agree_class_by_class() {
        // The table against the reference model: small enough that
        // every touch evicts, and large enough (with ten times the keys)
        // that chunks pile up, the directory doubles and the ring
        // compacts many times over.
        check_agreement(8, 24, 20_000, 0);
        check_agreement(64, 640, 200_000, 0);
    }

    #[test]
    fn toggling_the_fast_path_mid_stream_carries_the_state_across() {
        check_agreement(8, 24, 20_000, 97);
        check_agreement(64, 640, 50_000, 97);
    }

    #[test]
    fn nothing_is_allocated_by_the_configured_capacity() {
        // 2^28 lines, the most a level may have.
        let config = CacheConfig::new(1 << 33, 32, 1).unwrap();
        assert_eq!(config.lines(), 1 << 28);
        let (slots, ring) = MissClassifier::new(&config).table_lens().unwrap();
        assert!(slots <= 16 && ring == 0, "{slots} slots, ring of {ring}");
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
