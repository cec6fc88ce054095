//! An O(1) bounded LRU set over `u64` keys: a hash index into a linked
//! recency list.
//!
//! Backs the TLB, and the fully-associative capacity model of the 3C
//! classifier's *reference* mode (fast paths off), which is what
//! [`Recency`](crate::recency::Recency) — the classifier's model with
//! the fast paths on — is tested against. The two share no lookup code.

use crate::linehash::LineHashState;
use std::collections::HashMap;

const NIL: u32 = u32::MAX;

/// How many recency positions [`LruSet::touch`] scans (pointer-chasing
/// from the MRU end) before falling back to the hash index, in fast
/// mode. Loop traces interleave a handful of arrays, so the line just
/// referenced is almost always within the first few positions.
const FRONT_SCAN: u32 = 6;

/// A fixed-capacity set of `u64` keys with least-recently-used eviction,
/// O(1) per operation.
///
/// The recency list is stored structure-of-arrays: `keys`, `prev`, and
/// `next` are parallel flat arrays indexed by slot. The fast-path front
/// scan chases `next` pointers while comparing `keys`, touching two
/// dense arrays instead of striding over 16-byte nodes.
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
    index: HashMap<u64, u32, LineHashState>,
    head: u32,
    tail: u32,
    capacity: usize,
    fast: bool,
}

impl LruSet {
    /// Creates a set holding at most `capacity` keys, with the fast
    /// lookup path enabled.
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
            index: HashMap::with_capacity_and_hasher(prealloc, LineHashState::for_fast(true)),
            head: NIL,
            tail: NIL,
            capacity,
            fast: true,
        }
    }

    /// Switches the fast lookup path (front-of-list scan + one-multiply
    /// hashing) on or off. Hit/miss/eviction behaviour is identical in
    /// both modes; the slow mode is the exhaustive SipHash reference.
    pub(crate) fn set_fast(&mut self, fast: bool) {
        if self.fast == fast {
            return;
        }
        self.fast = fast;
        // Bucket positions depend on the hash function: rebuild.
        let mut index =
            HashMap::with_capacity_and_hasher(self.index.capacity(), LineHashState::for_fast(fast));
        index.extend(self.index.drain());
        self.index = index;
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
        if self.fast {
            // A key near the MRU end is found by chasing a few `next`
            // pointers, with no hashing at all — and at position 0 the
            // touch is a structural no-op.
            let mut slot = self.head;
            for depth in 0..FRONT_SCAN {
                if slot == NIL {
                    break;
                }
                if self.keys[slot as usize] == key {
                    if depth > 0 {
                        self.unlink(slot);
                        self.push_front(slot);
                    }
                    return true;
                }
                slot = self.next[slot as usize];
            }
        }
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

    /// Drives an [`LruSet`] against a naive O(n) oracle. `toggle_every`
    /// switches the fast path on/off periodically when nonzero.
    fn check_against_oracle(initial_fast: bool, toggle_every: usize) {
        use std::collections::VecDeque;
        let mut oracle: VecDeque<u64> = VecDeque::new();
        let capacity = 16;
        let mut lru = LruSet::new(capacity);
        lru.set_fast(initial_fast);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..10_000usize {
            if toggle_every > 0 && step.is_multiple_of(toggle_every) {
                let fast = lru.fast;
                lru.set_fast(!fast);
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 40;
            let oracle_hit = if let Some(pos) = oracle.iter().position(|&k| k == key) {
                oracle.remove(pos);
                oracle.push_front(key);
                true
            } else {
                if oracle.len() == capacity {
                    oracle.pop_back();
                }
                oracle.push_front(key);
                false
            };
            assert_eq!(lru.touch(key), oracle_hit, "step {step}");
        }
    }

    #[test]
    fn matches_naive_model_on_random_stream() {
        check_against_oracle(true, 0);
    }

    #[test]
    fn slow_mode_matches_naive_model() {
        check_against_oracle(false, 0);
    }

    #[test]
    fn toggling_fast_mode_mid_stream_preserves_contents() {
        // The index rebuild on toggle must carry every resident key.
        check_against_oracle(true, 97);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }
}
