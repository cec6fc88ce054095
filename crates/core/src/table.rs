//! The bin table (paper §3.2).
//!
//! "The hash table organizes the bins. Hash collisions are resolved by
//! chaining … The ready list is a simple linked list containing all
//! allocated bins. Each time a new bin is allocated, it is added to the
//! end of this list."
//!
//! Two halves. The *paper's* half is what a schedule can observe: bins
//! get dense `u32` ids in allocation order, recycled only after an
//! eviction, and collisions chain. The ready list lives in the
//! [`engine`](crate::engine), which keys its drain units with a second
//! table of this type. The
//! paper's table geometry ("a three-dimensional array of pointers to
//! bins", indexed by "a shift and a mask operation on each hint") is
//! observable only as the address of the traced package's bucket probe,
//! and lives with the rest of the synthetic addresses in
//! [`engine`](crate::engine). The *host's* half is how a key finds its
//! chain, which no id, `created` flag or drain order depends on: one
//! multiplicative mix of the whole key into a bucket array that doubles
//! with the live bins, so a chain holds about one bin whether the
//! caller hints in one dimension or four.
//!
//! A probe compares keys one coordinate at a time. The fork computing
//! the key has just written it as four 8-byte words; a whole-key
//! compare reads it back as two 16-byte loads, and a load wider than
//! the stores it overlaps cannot be forwarded from them, so it stalls
//! until they reach the L1. Word by word, each load is served by the
//! store that wrote it, or the key never leaves registers.

use crate::hint::MAX_DIMS;

/// Identifier of a bin, dense in allocation order.
pub(crate) type BinId = u32;

/// End of a bucket chain (and an empty bucket).
const NIL: BinId = BinId::MAX;
/// Chain link of a slot that was never chained
/// ([`append_unique`](BinTable::append_unique)).
const UNLINKED: BinId = BinId::MAX - 1;

/// Buckets of a fresh table.
const MIN_BUCKETS: usize = 16;

/// One odd multiplier per coordinate: the bucket is the top bits of the
/// key's dot product with these (multiply-shift hashing), so every bit
/// of every coordinate reaches the index and keys that agree in their
/// low bits — or vary in one dimension only — still spread.
const MIX: [u64; MAX_DIMS] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

/// Whether two keys are equal, compared one coordinate at a time (see
/// the module doc: a whole-key compare stalls on the key just stored).
#[inline]
fn same_key(a: &[u64; MAX_DIMS], b: &[u64; MAX_DIMS]) -> bool {
    a.iter().zip(b).fold(0, |diff, (x, y)| diff | (x ^ y)) == 0
}

/// Hash table mapping block coordinates to bin ids, with chained
/// collision resolution over a power-of-two bucket array that doubles
/// when live bins outnumber buckets.
///
/// Slots freed by [`remove`](BinTable::remove) go on a free list and
/// are reused by the next insert, so a long-running online engine with
/// eviction enabled keeps the id space (and every id-indexed side
/// array) bounded. Batch runs never remove, so for them the id space
/// stays dense in allocation order exactly as before.
#[derive(Clone, Debug)]
pub(crate) struct BinTable {
    /// Head bin id per bucket; the length is a power of two.
    buckets: Vec<BinId>,
    /// `64 - log2(buckets.len())`: the mix's top bits index `buckets`.
    shift: u32,
    /// Block coordinates of each allocated bin (indexed by bin id).
    keys: Vec<[u64; MAX_DIMS]>,
    /// Next bin in the same bucket's chain (indexed by bin id).
    next: Vec<BinId>,
    /// Whether each slot currently holds a live bin (indexed by bin
    /// id); freed slots keep their stale key until reused.
    live: Vec<bool>,
    /// Freed slot ids awaiting reuse (LIFO).
    free: Vec<BinId>,
    /// Number of live bins (`len()`); `keys.len()` minus freed slots.
    live_count: usize,
}

impl BinTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        BinTable {
            buckets: vec![NIL; MIN_BUCKETS],
            shift: u64::BITS - MIN_BUCKETS.trailing_zeros(),
            keys: Vec::new(),
            next: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            live_count: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, key: [u64; MAX_DIMS]) -> usize {
        let mut mixed = 0u64;
        for (coord, multiplier) in key.into_iter().zip(MIX) {
            mixed = mixed.wrapping_add(coord.wrapping_mul(multiplier));
        }
        (mixed >> self.shift) as usize
    }

    /// The bin on `bucket`'s chain whose key is `key`, if any.
    #[inline]
    fn find_in(&self, bucket: usize, key: [u64; MAX_DIMS]) -> Option<BinId> {
        let mut id = self.buckets[bucket];
        while id != NIL {
            if same_key(&self.keys[id as usize], &key) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// The bin for `key`, if one is allocated and findable.
    #[inline]
    pub(crate) fn find(&self, key: [u64; MAX_DIMS]) -> Option<BinId> {
        self.find_in(self.bucket_of(key), key)
    }

    /// Finds the bin for `key`, allocating a new id if absent.
    ///
    /// Returns `(id, created)`.
    #[inline]
    pub(crate) fn lookup_or_insert(&mut self, key: [u64; MAX_DIMS]) -> (BinId, bool) {
        let mut bucket = self.bucket_of(key);
        if let Some(id) = self.find_in(bucket, key) {
            return (id, false);
        }
        if self.live_count >= self.buckets.len() {
            self.grow();
            bucket = self.bucket_of(key);
        }
        let new_id = self.alloc_slot(key, self.buckets[bucket]);
        self.buckets[bucket] = new_id;
        (new_id, true)
    }

    /// Doubles the bucket array and re-links every chained live bin, in
    /// id order.
    #[cold]
    fn grow(&mut self) {
        let doubled = self.buckets.len() * 2;
        self.shift -= 1;
        self.buckets.clear();
        self.buckets.resize(doubled, NIL);
        for id in 0..self.keys.len() {
            if self.live[id] && self.next[id] != UNLINKED {
                let bucket = self.bucket_of(self.keys[id]);
                self.next[id] = self.buckets[bucket];
                self.buckets[bucket] = id as BinId;
            }
        }
    }

    /// Claims a slot (reusing a freed one if available), storing `key`
    /// and chain link `next`.
    #[inline]
    fn alloc_slot(&mut self, key: [u64; MAX_DIMS], next: BinId) -> BinId {
        self.live_count += 1;
        match self.free.pop() {
            Some(id) => {
                self.keys[id as usize] = key;
                self.next[id as usize] = next;
                self.live[id as usize] = true;
                id
            }
            None => {
                let id = self.keys.len() as BinId;
                assert!(id < UNLINKED, "bin id space exhausted");
                self.keys.push(key);
                self.next.push(next);
                self.live.push(true);
                id
            }
        }
    }

    /// Frees the slot of bin `id`, unlinking it from its bucket chain
    /// (keys appended via [`append_unique`](BinTable::append_unique)
    /// were never chained). The id is recycled by a later insert; until
    /// then the slot's key is stale and
    /// [`is_live`](BinTable::is_live) reports `false`.
    pub(crate) fn remove(&mut self, id: BinId) {
        debug_assert!(self.live[id as usize], "double free of bin {id}");
        if self.next[id as usize] != UNLINKED {
            let bucket = self.bucket_of(self.keys[id as usize]);
            if self.buckets[bucket] == id {
                self.buckets[bucket] = self.next[id as usize];
            } else {
                let mut cur = self.buckets[bucket];
                while cur != NIL {
                    let succ = self.next[cur as usize];
                    if succ == id {
                        self.next[cur as usize] = self.next[id as usize];
                        break;
                    }
                    cur = succ;
                }
            }
        }
        self.live[id as usize] = false;
        self.live_count -= 1;
        self.free.push(id);
    }

    /// Whether `id` currently names a live bin.
    #[inline]
    pub(crate) fn is_live(&self, id: BinId) -> bool {
        (id as usize) < self.live.len() && self.live[id as usize]
    }

    /// Appends a bin for `key` without consulting the bucket chains.
    ///
    /// For policies whose every key is fresh
    /// ([`BinPolicy::always_unique`](crate::BinPolicy::always_unique)),
    /// there is nothing to find; appending skips the probe. Keys
    /// appended this way are not findable by
    /// [`lookup_or_insert`](BinTable::lookup_or_insert) — unique-key
    /// policies never look up.
    #[inline]
    pub(crate) fn append_unique(&mut self, key: [u64; MAX_DIMS]) -> BinId {
        self.alloc_slot(key, UNLINKED)
    }

    /// Number of live bins.
    pub(crate) fn len(&self) -> usize {
        self.live_count
    }

    /// Block coordinates of one bin.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by
    /// [`lookup_or_insert`](BinTable::lookup_or_insert).
    #[inline]
    pub(crate) fn key(&self, id: BinId) -> [u64; MAX_DIMS] {
        self.keys[id as usize]
    }

    /// Removes all bins, keeping the bucket array at the size it grew
    /// to (the next phase usually forks the same shape).
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(NIL);
        self.keys.clear();
        self.next.clear();
        self.live.clear();
        self.free.clear();
        self.live_count = 0;
    }

    /// Length of the longest bucket chain.
    #[cfg(test)]
    fn longest_chain(&self) -> usize {
        let link = |id: BinId| (id != NIL).then_some(id);
        let chain = |&head: &BinId| {
            std::iter::successors(link(head), |&id| link(self.next[id as usize])).count()
        };
        self.buckets.iter().map(chain).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_bin() {
        let mut t = BinTable::new();
        let (a, created_a) = t.lookup_or_insert([1, 2, 3, 0]);
        let (b, created_b) = t.lookup_or_insert([1, 2, 3, 0]);
        assert_eq!(a, b);
        assert!(created_a);
        assert!(!created_b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_allocation_ordered() {
        let mut t = BinTable::new();
        let (a, _) = t.lookup_or_insert([0, 0, 0, 0]);
        let (b, _) = t.lookup_or_insert([1, 0, 0, 0]);
        let (c, _) = t.lookup_or_insert([2, 0, 0, 0]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(t.key(1), [1, 0, 0, 0]);
    }

    #[test]
    fn colliding_keys_get_distinct_bins() {
        // Distinct keys, distinct bins, whether or not the mix chains
        // them (`remove_from_a_real_chain…` forces a chain).
        let mut t = BinTable::new();
        let (a, _) = t.lookup_or_insert([1, 0, 0, 0]);
        let (b, _) = t.lookup_or_insert([5, 0, 0, 0]);
        assert_ne!(a, b, "chained collision must preserve distinct blocks");
        // Both keys still resolve to their own bin.
        assert_eq!(t.lookup_or_insert([1, 0, 0, 0]).0, a);
        assert_eq!(t.lookup_or_insert([5, 0, 0, 0]).0, b);
    }

    #[test]
    fn clear_empties_the_table() {
        let mut t = BinTable::new();
        t.lookup_or_insert([1, 2, 3, 0]);
        t.clear();
        assert_eq!(t.len(), 0);
        let (id, created) = t.lookup_or_insert([1, 2, 3, 0]);
        assert_eq!(id, 0);
        assert!(created);
    }

    #[test]
    fn remove_unlinks_and_recycles_the_slot() {
        let mut t = BinTable::new();
        let (a, _) = t.lookup_or_insert([1, 0, 0, 0]);
        let (b, _) = t.lookup_or_insert([5, 0, 0, 0]);
        let (c, _) = t.lookup_or_insert([9, 0, 0, 0]);
        assert_eq!(t.len(), 3);

        // Remove the middle of the chain; the other two still resolve.
        t.remove(b);
        assert_eq!(t.len(), 2);
        assert!(t.is_live(a) && !t.is_live(b) && t.is_live(c));
        assert_eq!(t.lookup_or_insert([1, 0, 0, 0]), (a, false));
        assert_eq!(t.lookup_or_insert([9, 0, 0, 0]), (c, false));

        // The removed key re-inserts as a fresh bin, reusing slot b.
        let (b2, created) = t.lookup_or_insert([5, 0, 0, 0]);
        assert!(created);
        assert_eq!(b2, b, "freed slot must be recycled");
        assert_eq!(t.len(), 3);
        assert!(t.is_live(b2));
    }

    #[test]
    fn remove_chain_head_and_tail() {
        let mut t = BinTable::new();
        let (a, _) = t.lookup_or_insert([1, 0, 0, 0]);
        let (b, _) = t.lookup_or_insert([5, 0, 0, 0]);
        // b is the chain head (most recent insert), a the tail.
        t.remove(b);
        assert_eq!(t.lookup_or_insert([1, 0, 0, 0]), (a, false));
        t.remove(a);
        assert_eq!(t.len(), 0);
        let (id, created) = t.lookup_or_insert([1, 0, 0, 0]);
        assert!(created);
        assert!(t.is_live(id));
    }

    #[test]
    fn remove_unique_slot_frees_without_chain() {
        let mut t = BinTable::new();
        let a = t.append_unique([7, 0, 0, 0]);
        let b = t.append_unique([7, 0, 0, 0]);
        assert_eq!(t.len(), 2);
        t.remove(a);
        assert_eq!(t.len(), 1);
        assert!(!t.is_live(a) && t.is_live(b));
        // Slot reuse applies to unique appends too.
        let c = t.append_unique([8, 0, 0, 0]);
        assert_eq!(c, a);
        assert_eq!(t.key(c), [8, 0, 0, 0]);
    }

    #[test]
    fn dense_key_space_allocates_many_bins() {
        let mut t = BinTable::new();
        for x in 0..10u64 {
            for y in 0..10u64 {
                t.lookup_or_insert([x, y, 0, 0]);
            }
        }
        assert_eq!(t.len(), 100);
        // Every key resolves back to a unique id.
        let mut seen = std::collections::HashSet::new();
        for x in 0..10u64 {
            for y in 0..10u64 {
                let (id, created) = t.lookup_or_insert([x, y, 0, 0]);
                assert!(!created);
                assert!(seen.insert(id));
            }
        }
    }

    /// `N` keys of one bucket of a fresh table, `key(x)` for the first
    /// fitting `x`s, found by search: the mix leaves no arithmetic
    /// pattern to write them down from.
    fn colliding<const N: usize>(
        t: &BinTable,
        key: impl Fn(u64) -> [u64; MAX_DIMS],
    ) -> [[u64; MAX_DIMS]; N] {
        let mut same = (0..).map(key).filter(|&k| t.bucket_of(k) == 3);
        [(); N].map(|()| same.next().unwrap())
    }

    /// Two keys on one chain that differ in one coordinate, and there
    /// only above bit 32, are two bins — in every coordinate.
    #[test]
    fn keys_apart_in_one_coordinate_above_bit_32_get_two_bins() {
        for dim in 0..MAX_DIMS {
            let mut t = BinTable::new();
            let keys: [_; 2] = colliding(&t, |x| {
                let mut key = [7, 9, 11, 13];
                key[dim] |= x << 33;
                key
            });
            let ids = keys.map(|k| t.lookup_or_insert(k));
            assert_eq!(ids, [(0, true), (1, true)], "dim {dim}");
            for (id, key) in keys.into_iter().enumerate() {
                assert_eq!(t.find(key), Some(id as BinId), "dim {dim}");
            }
        }
    }

    #[test]
    fn remove_from_a_real_chain_keeps_the_rest_findable() {
        for victim in 0..3 {
            let mut t = BinTable::new();
            let keys: [_; 3] = colliding(&t, |x| [x, 0, 0, 0]);
            let ids = keys.map(|k| t.lookup_or_insert(k).0);
            assert_eq!(t.longest_chain(), 3);
            t.remove(ids[victim]);
            assert_eq!(t.longest_chain(), 2);
            for (i, &key) in keys.iter().enumerate() {
                let expected = (ids[i], i == victim);
                assert_eq!(
                    t.lookup_or_insert(key),
                    expected,
                    "victim {victim}, key {i}"
                );
            }
        }
    }

    /// What the table must do, with no hashing in it: a slot array
    /// searched linearly, and the same LIFO free list.
    #[derive(Default)]
    struct Model {
        /// `(key, findable)` per slot; `None` once freed.
        slots: Vec<Option<([u64; MAX_DIMS], bool)>>,
        free: Vec<BinId>,
    }

    impl Model {
        fn alloc(&mut self, key: [u64; MAX_DIMS], findable: bool) -> BinId {
            match self.free.pop() {
                Some(id) => {
                    self.slots[id as usize] = Some((key, findable));
                    id
                }
                None => {
                    self.slots.push(Some((key, findable)));
                    self.slots.len() as BinId - 1
                }
            }
        }

        fn lookup_or_insert(&mut self, key: [u64; MAX_DIMS]) -> (BinId, bool) {
            match self.slots.iter().position(|&s| s == Some((key, true))) {
                Some(id) => (id as BinId, false),
                None => (self.alloc(key, true), true),
            }
        }

        fn remove(&mut self, id: BinId) {
            self.slots[id as usize] = None;
            self.free.push(id);
        }

        fn live(&self) -> Vec<BinId> {
            let ids = 0..self.slots.len() as BinId;
            ids.filter(|&id| self.slots[id as usize].is_some())
                .collect()
        }
    }

    /// Seeded op sequences over keys whose coordinates all agree in
    /// their low four bits — one bucket, chains as long as the table,
    /// under the paper's mask at `hash_size` 16 — against the model.
    /// Each of the four coordinates takes one of four values that
    /// differ in bit 4, bit 33 or both, so keys differ in every
    /// coordinate and in both halves of each. The live set swells past 16 → 32 → 64 → 128 → 256
    /// buckets and is cleared twice on the way, so doublings happen
    /// with freed slots, unchained slots and recycled ids all present.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "18,000 linear-search steps are slow under the interpreter"
    )]
    fn table_matches_a_linear_search_model_across_doublings() {
        for seed in [1u64, 2, 3] {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut table = BinTable::new();
            let mut model = Model::default();
            let mut most_live = 0;
            for step in 0..6_000 {
                let key = [(); MAX_DIMS].map(|()| {
                    let pick = next();
                    (pick & 2) << 32 | (pick & 1) << 4 | 5
                });
                match next() % 16 {
                    0..=9 => assert_eq!(
                        table.lookup_or_insert(key),
                        model.lookup_or_insert(key),
                        "seed {seed} step {step}"
                    ),
                    10 => assert_eq!(table.append_unique(key), model.alloc(key, false)),
                    _ => {
                        let live = model.live();
                        if !live.is_empty() {
                            let id = live[(next() % live.len() as u64) as usize];
                            table.remove(id);
                            model.remove(id);
                        }
                    }
                }
                if step % 2_500 == 2_499 {
                    table.clear();
                    model = Model::default();
                }
                let live = model.live();
                assert_eq!(table.len(), live.len(), "seed {seed} step {step}");
                most_live = most_live.max(live.len());
                if step % 64 == 0 {
                    for id in 0..model.slots.len() as BinId + 2 {
                        assert_eq!(table.is_live(id), live.contains(&id));
                    }
                    for &id in &live {
                        let (key, _) = model.slots[id as usize].unwrap();
                        assert_eq!(table.key(id), key);
                    }
                }
            }
            assert!(most_live > 128, "three doublings: {most_live} live");
            assert!(table.buckets.len() >= 256);
        }
    }

    fn grid(side: [u64; 3]) -> BinTable {
        let mut t = BinTable::new();
        for x in 0..side[0] {
            for y in 0..side[1] {
                for z in 0..side[2] {
                    // Offsets as `addr >> shift` of real arrays have.
                    t.lookup_or_insert([512 + x, 1061 + y, 77 + z, 0]);
                }
            }
        }
        t
    }

    /// The count the speed rests on. Under the paper's mask at
    /// `hash_size` 16 these chained 16, 64, 256 and 4,096 deep.
    #[test]
    #[cfg_attr(miri, ignore = "a million inserts are slow under the interpreter")]
    fn chains_stay_short_whatever_the_hint_dimensionality() {
        for (side, bins) in [
            ([64, 64, 1], 4_096),
            ([1_024, 1, 1], 1_024),
            ([256, 256, 1], 65_536),
            ([16, 16, 16], 4_096),
            ([1 << 20, 1, 1], 1 << 20),
        ] {
            let t = grid(side);
            assert_eq!(t.len(), bins);
            assert_eq!(t.buckets.len(), bins, "doubled to the live count");
            assert!(t.longest_chain() <= 8, "{side:?}: {}", t.longest_chain());
        }
    }

    #[test]
    fn clear_keeps_the_grown_bucket_array_and_empties_it() {
        let mut t = grid([64, 64, 1]);
        t.clear();
        assert_eq!((t.len(), t.longest_chain()), (0, 0));
        assert_eq!(t.buckets.len(), 4_096);
        assert_eq!(t.lookup_or_insert([512, 1061, 77, 0]), (0, true));
    }
}
