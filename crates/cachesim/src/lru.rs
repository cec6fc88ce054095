//! The fully-associative LRU model — the 3C classifier's capacity model
//! — and the reference it is tested against.
//!
//! [`LruModel`] is the model: with the fast paths on (the default) it is
//! the chunked [`Recency`] table, one directory probe and one stamp
//! load a touch; with them off it is the reference — a SipHash
//! `HashSet` of keys seen and [`LruSet`], a hash index into a linked
//! recency list, every touch updating both.
//! The two share no lookup code, answer every touch identically, and
//! convert into each other mid-stream. `MissClassifier`, its one client,
//! is this model plus its counts.

use crate::recency::{Recency, Touch};
use std::collections::{HashMap, HashSet};

/// A fully-associative LRU cache of `capacity` keys that also remembers
/// every key it ever held. See the module documentation.
#[derive(Clone, Debug)]
pub(crate) struct LruModel {
    state: State,
    capacity: usize,
}

/// Which one is built is the fast-path knob.
#[derive(Clone, Debug)]
enum State {
    /// Fast paths on.
    Table(Recency),
    /// Fast paths off: no shortcut in either structure.
    Reference {
        seen: HashSet<u64>,
        fully_assoc: LruSet,
    },
}

impl LruModel {
    /// Creates an empty model of `capacity` keys, with the fast paths
    /// on. Nothing is allocated in proportion to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or more than 2²⁸.
    pub(crate) fn new(capacity: usize) -> Self {
        LruModel {
            state: State::Table(Recency::new(capacity)),
            capacity,
        }
    }

    /// Switches between the table (`fast`) and the reference. Every
    /// later touch answers the same either way: the keys seen and the
    /// resident keys, in LRU order, are carried across.
    pub(crate) fn set_fast_path(&mut self, fast: bool) {
        self.state = match (&self.state, fast) {
            (State::Table(table), false) => {
                let mut fully_assoc = LruSet::new(self.capacity);
                for key in table.resident() {
                    fully_assoc.touch(key);
                }
                State::Reference {
                    seen: table.seen().collect(),
                    fully_assoc,
                }
            }
            (State::Reference { seen, fully_assoc }, true) => {
                let mut table = Recency::new(self.capacity);
                for &key in seen {
                    table.note_seen(key);
                }
                for key in fully_assoc.lru_first() {
                    table.touch(key);
                }
                State::Table(table)
            }
            _ => return,
        };
    }

    /// References `key` and makes it the most recently used, evicting
    /// the least recently used key if `key` was not resident and the
    /// model is full. Reports what it found.
    #[inline]
    pub(crate) fn touch(&mut self, key: u64) -> Touch {
        match &mut self.state {
            State::Table(table) => table.touch(key),
            State::Reference { seen, fully_assoc } => {
                let first = seen.insert(key);
                let hit = fully_assoc.touch(key);
                if first {
                    Touch::First
                } else if hit {
                    Touch::Hit
                } else {
                    Touch::Evicted
                }
            }
        }
    }

    /// Lengths of the table's stamps and its ring, in entries (`None`
    /// with the fast paths off).
    #[cfg(test)]
    pub(crate) fn table_lens(&self) -> Option<(usize, usize)> {
        match &self.state {
            State::Table(table) => Some(table.lens()),
            State::Reference { .. } => None,
        }
    }
}

const NIL: u32 = u32::MAX;

/// A fixed-capacity set of `u64` keys with least-recently-used eviction,
/// O(1) per operation: the reference half of [`LruModel`].
///
/// The recency list is stored structure-of-arrays: `keys`, `prev`, and
/// `next` are parallel flat arrays indexed by slot.
///
/// # Examples
///
/// ```ignore
/// let mut lru = LruSet::new(2);
/// assert!(!lru.touch(1)); // miss, inserted
/// assert!(!lru.touch(2)); // miss, inserted
/// assert!(lru.touch(1));  // hit
/// assert!(!lru.touch(3)); // miss, evicts 2
/// assert!(!lru.touch(2)); // miss again
/// ```
#[derive(Clone, Debug)]
pub(crate) struct LruSet {
    keys: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    index: HashMap<u64, u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl LruSet {
    /// Creates a set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be nonzero");
        let prealloc = capacity.min(1 << 20);
        LruSet {
            keys: Vec::with_capacity(prealloc),
            prev: Vec::with_capacity(prealloc),
            next: Vec::with_capacity(prealloc),
            index: HashMap::with_capacity(prealloc),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of keys currently resident. (Test-only helper.)
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// References `key`: returns `true` on hit. On miss the key is
    /// inserted, evicting the least-recently-used key if full. Either
    /// way `key` becomes most-recently-used.
    pub(crate) fn touch(&mut self, key: u64) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        let slot = if self.index.len() == self.capacity {
            // Reuse the LRU slot.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = self.keys[victim as usize];
            self.index.remove(&old_key);
            self.keys[victim as usize] = key;
            victim
        } else {
            let slot = self.keys.len() as u32;
            self.keys.push(key);
            self.prev.push(NIL);
            self.next.push(NIL);
            slot
        };
        self.index.insert(key, slot);
        self.push_front(slot);
        false
    }

    /// The resident keys, least recently used first.
    pub(crate) fn lru_first(&self) -> impl Iterator<Item = u64> + '_ {
        let mut slot = self.tail;
        std::iter::from_fn(move || {
            (slot != NIL).then(|| {
                let key = self.keys[slot as usize];
                slot = self.prev[slot as usize];
                key
            })
        })
    }

    /// Returns `true` if `key` is resident, without updating recency.
    /// (Test-only helper.)
    #[allow(dead_code)]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    fn unlink(&mut self, slot: u32) {
        let prev = self.prev[slot as usize];
        let next = self.next[slot as usize];
        if prev != NIL {
            self.next[prev as usize] = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recency::tests::{xorshift, Oracle as Naive};

    #[test]
    fn basic_hit_miss_evict() {
        let mut lru = LruSet::new(2);
        assert!(!lru.touch(1));
        assert!(!lru.touch(2));
        assert!(lru.touch(1)); // 1 now MRU, 2 LRU
        assert!(!lru.touch(3)); // evicts 2
        assert!(lru.contains(1));
        assert!(!lru.contains(2));
        assert!(lru.contains(3));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.lru_first().collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruSet::new(1);
        assert!(!lru.touch(7));
        assert!(lru.touch(7));
        assert!(!lru.touch(8));
        assert!(!lru.touch(7));
    }

    #[test]
    fn sequential_stream_larger_than_capacity_never_hits() {
        let mut lru = LruSet::new(4);
        for round in 0..3 {
            for key in 0..8u64 {
                assert!(!lru.touch(key), "round {round} key {key} unexpectedly hit");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut lru = LruSet::new(8);
        for key in 0..8u64 {
            lru.touch(key);
        }
        for _ in 0..10 {
            for key in 0..8u64 {
                assert!(lru.touch(key));
            }
        }
    }

    #[test]
    fn matches_naive_model_on_random_stream() {
        let capacity = 16;
        let mut naive = Naive::new(capacity);
        let mut lru = LruSet::new(capacity);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..10_000usize {
            let key = xorshift(&mut state) % 40;
            let hit = naive.touch(key) == Touch::Hit;
            assert_eq!(lru.touch(key), hit, "step {step}");
        }
    }

    /// Touches `steps` keys drawn from `next` in the naive model and in
    /// two [`LruModel`]s, one starting as the table and one as the
    /// reference, and compares every answer of both with the naive
    /// one. A nonzero `toggle_every` flips both knobs that often: there
    /// is always one model of each kind, and every toggle converts in
    /// both directions.
    fn check_models(
        capacity: usize,
        toggle_every: usize,
        steps: usize,
        mut next: impl FnMut(usize) -> u64,
    ) {
        let mut naive = Naive::new(capacity);
        let mut models = [LruModel::new(capacity), LruModel::new(capacity)];
        models[1].set_fast_path(false);
        for step in 0..steps {
            // Keys spread over the whole `u64` range, `u64::MAX` included.
            let key = next(step).wrapping_mul(0x0101_0101_0101_0101) ^ u64::MAX;
            let expected = naive.touch(key);
            for model in &mut models {
                if toggle_every > 0 && step.is_multiple_of(toggle_every) {
                    let fast = model.table_lens().is_some();
                    model.set_fast_path(!fast);
                }
                assert_eq!(
                    model.touch(key),
                    expected,
                    "capacity {capacity}, toggled every {toggle_every}, step {step}"
                );
            }
        }
        assert_ne!(
            models[0].table_lens().is_some(),
            models[1].table_lens().is_some()
        );
    }

    #[test]
    fn table_reference_and_naive_model_agree_touch_by_touch() {
        for capacity in [1, 8, 64, 4096] {
            // Half again as many keys as fit: reuse distances straddle
            // the capacity.
            let fits = capacity as u64;
            let keys = fits + fits / 2 + 1;
            let steps = 2 * keys as usize + 1000;
            for toggle_every in [0, 1 + capacity / 3, 97 + capacity] {
                let mut state = 0x2545_f491_4f6c_dd1d ^ keys;
                check_models(capacity, toggle_every, steps, |_| {
                    xorshift(&mut state) % keys
                });
                // Strided, a third of the steps each: a cycle that just
                // fits (all hits once warm), one a key too long (every
                // touch evicts), and a stride of 3 over all the keys.
                check_models(capacity, toggle_every, steps, |step| {
                    let step = step as u64;
                    match 3 * step / steps as u64 {
                        0 => step % fits,
                        1 => step % (fits + 1),
                        _ => step * 3 % keys,
                    }
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }
}
