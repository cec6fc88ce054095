//! The fully-associative LRU model with the fast paths on: the 3C
//! classifier's two questions — *was this line ever referenced?* and
//! *would a fully-associative LRU cache of the level's line count still
//! hold it?* — answered by one directory probe and one stamp load.
//! [`LruModel`] holds either this table or the reference it is tested
//! against.
//!
//! [`LruModel`]: crate::lru::LruModel
//!
//! Two structures, two invariants:
//!
//! * **The table** is two-level, like a page table. Stamps live in
//!   *chunks* of [`CHUNK`] consecutive lines — one chunk's `u32`s fill
//!   one 64-byte host cache line — appended to `stamps` in creation
//!   order, so the lines a scan touches together sit together. Line
//!   `l`'s chunk has key `l >> 4`; a small open-addressed directory
//!   (one Fibonacci multiply, linear probing) maps the key to the
//!   chunk's index `c`, and `l`'s slot is `c * 16 + (l & 15)`. The
//!   table is append-only: a chunk, once created, keeps its lines and
//!   its place for ever, so a slot number never changes and a doubling
//!   re-enters only the directory. A line has been *seen* iff its
//!   slot's stamp is not `EMPTY`, and it is *resident* in the LRU model
//!   iff that stamp — the position of its latest touch — is at or past
//!   `tail`. Nothing is ever deleted, so there are no tombstones.
//! * **The ring** holds the slot touched at each position from `tail`
//!   to `head`, oldest first. A record is *live* iff its slot's stamp
//!   still names that record's position; a later touch of the same line
//!   leaves the old record behind, dead. The live records, in ring
//!   order, are exactly the resident lines in LRU order — so evicting
//!   the least recently used line is "advance `tail` past dead records,
//!   then past one live one".
//!
//! [`Recency::touch`] therefore reports, in one probe, what the
//! reference model ([`LruSet`](crate::lru::LruSet) plus a `HashSet`)
//! needs list surgery and up to four hash operations for.
//!
//! Memory: a dense run of lines costs about 6 B a line (its stamp,
//! plus a sixteenth of a key and a directory entry). The worst case is
//! one line per chunk: about 64 B of stamps per isolated line, 90–110 B
//! with its key and directory entry, against 14–27 B in a table of one
//! slot per line.
//!
//! There is deliberately no memo of the last chunk probed: on a stream
//! that alternates between two chunks (matmul's two column streams)
//! its branch would mispredict on every touch.

/// Stamp of a slot no line occupies.
const EMPTY: u32 = 0;
/// Stamp given to every non-resident line when positions are
/// renumbered: below any `tail`.
const EVICTED: u32 = 1;
/// The first position ever handed out; `tail` never goes below it.
const FIRST: u32 = 2;

/// Lines per chunk: sixteen `u32` stamps are one 64-byte host line.
const CHUNK: usize = 16;
/// `log2(CHUNK)`: a line's chunk key is `line >> CHUNK_BITS`.
const CHUNK_BITS: u32 = CHUNK.trailing_zeros();

/// 2⁶⁴ / φ: the multiplier of Fibonacci hashing.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Directory length of a new set: what a set costs before any line
/// arrives is 128 bytes.
const MIN_DIR: usize = 8;
/// Ring length at a set's first touch.
const MIN_RING: usize = 16;

/// Most slots the table may have: the ring names slots with a `u32`.
const MAX_SLOTS: u64 = 1 << 32;

/// Most lines the LRU model may hold — [`CacheConfig`]'s bound on a
/// level. Compacting the ring hands out at most this many fresh
/// positions, which is the headroom [`RENUMBER_AT`] leaves.
///
/// [`CacheConfig`]: crate::CacheConfig
const MAX_CAPACITY: usize = 1 << 28;

/// Positions are renumbered before `head` reaches this.
const RENUMBER_AT: u32 = u32::MAX - MAX_CAPACITY as u32;

/// What a touch found, before it made the line most recently used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Touch {
    /// The line was resident.
    Hit,
    /// The line had been touched before, but has since been evicted.
    Evicted,
    /// The line had never been touched.
    First,
}

/// A bounded LRU set over `u64` lines that also remembers every line it
/// ever held. See the module documentation.
#[derive(Clone, Debug)]
pub(crate) struct Recency {
    /// Position of each slot's latest touch, `EMPTY` or `EVICTED`;
    /// chunk `c` owns `stamps[c * CHUNK..(c + 1) * CHUNK]`.
    stamps: Vec<u32>,
    /// The key (`line >> CHUNK_BITS`) of each chunk, by chunk index.
    keys: Vec<u64>,
    /// Open-addressed `(key, chunk index + 1)` pairs; a second half of
    /// 0 marks a vacant entry. Doubled at 7/8 full.
    dir: Vec<(u64, u32)>,
    /// `64 - log2(dir.len())`: a hash's top bits are its home entry.
    shift: u32,
    /// Slot touched at position `p`, at index `p % ring.len()` (a power
    /// of two), for `p` in `tail..head`.
    ring: Vec<u32>,
    tail: u32,
    head: u32,
    /// Resident lines: the live records in `tail..head`.
    live: u32,
    capacity: u32,
    /// The line touched last, once `live` is nonzero.
    last_line: u64,
}

impl Recency {
    /// Creates an empty set holding at most `capacity` resident lines.
    /// The directory starts at its minimum size, the stamps and the
    /// ring unallocated, whatever the capacity: all three grow with the
    /// lines that arrive.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or more than 2²⁸.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            (1..=MAX_CAPACITY).contains(&capacity),
            "LRU capacity {capacity} is not between 1 and {MAX_CAPACITY}"
        );
        Recency {
            stamps: Vec::new(),
            keys: Vec::new(),
            dir: vec![(0, 0); MIN_DIR],
            shift: 64 - MIN_DIR.trailing_zeros(),
            ring: Vec::new(),
            tail: FIRST,
            head: FIRST,
            live: 0,
            capacity: capacity as u32,
            last_line: 0,
        }
    }

    /// An empty set whose positions start `before` short of the
    /// renumbering point, so a test reaches it in `before` touches
    /// instead of four billion.
    #[cfg(test)]
    fn near_renumbering(capacity: usize, before: u32) -> Self {
        let mut recency = Recency::new(capacity);
        recency.tail = RENUMBER_AT - before;
        recency.head = recency.tail;
        recency
    }

    /// References `line` and makes it the most recently used, evicting
    /// the least recently used line if `line` was not resident and the
    /// set is full. Reports what it found.
    #[inline]
    pub(crate) fn touch(&mut self, line: u64) -> Touch {
        // The line touched last is resident and already most recent:
        // nothing to look up, nothing to write.
        if line == self.last_line && self.live != 0 {
            return Touch::Hit;
        }
        let slot = self.slot(line);
        let stamp = self.stamps[slot];
        let touch = if stamp == EMPTY {
            Touch::First
        } else if stamp >= self.tail {
            Touch::Hit
        } else {
            Touch::Evicted
        };
        if touch != Touch::Hit {
            if self.live == self.capacity {
                self.evict();
            } else {
                self.live += 1;
            }
        }
        self.append(slot);
        self.last_line = line;
        touch
    }

    /// Records `line` as seen without touching it: if it is new to the
    /// table it enters as an evicted line. For rebuilding a set from
    /// another model's state.
    pub(crate) fn note_seen(&mut self, line: u64) {
        let slot = self.slot(line);
        if self.stamps[slot] == EMPTY {
            self.stamps[slot] = EVICTED;
        }
    }

    /// Every line ever touched, in no particular order.
    pub(crate) fn seen(&self) -> impl Iterator<Item = u64> + '_ {
        let slots = self.stamps.iter().enumerate();
        slots
            .filter(|&(_, &stamp)| stamp != EMPTY)
            .map(|(slot, _)| self.line_of(slot))
    }

    /// The resident lines, least recently used first.
    pub(crate) fn resident(&self) -> impl Iterator<Item = u64> + '_ {
        let mask = self.ring.len().wrapping_sub(1);
        (self.tail..self.head).filter_map(move |position| {
            let slot = self.ring[position as usize & mask] as usize;
            (self.stamps[slot] == position).then(|| self.line_of(slot))
        })
    }

    /// Length of the stamps and of the ring, in entries.
    #[cfg(test)]
    pub(crate) fn lens(&self) -> (usize, usize) {
        (self.stamps.len(), self.ring.len())
    }

    /// The slot of `line`, creating its chunk if it has none.
    #[inline]
    fn slot(&mut self, line: u64) -> usize {
        let key = line >> CHUNK_BITS;
        let chunk = match self.chunk(key) {
            Ok(chunk) => chunk,
            Err(entry) => self.add_chunk(key, entry),
        };
        chunk * CHUNK + (line as usize & (CHUNK - 1))
    }

    /// The line in `slot`: its chunk's key, then its offset in the
    /// chunk.
    fn line_of(&self, slot: usize) -> u64 {
        (self.keys[slot / CHUNK] << CHUNK_BITS) | (slot % CHUNK) as u64
    }

    /// The index of the chunk with `key`, or the vacant directory entry
    /// where it would go.
    #[inline]
    fn chunk(&self, key: u64) -> Result<usize, usize> {
        let mask = self.dir.len() - 1;
        let mut entry = (key.wrapping_mul(FIBONACCI) >> self.shift) as usize;
        loop {
            match self.dir[entry] {
                (_, 0) => return Err(entry),
                (found, index) if found == key => return Ok(index as usize - 1),
                _ => entry = (entry + 1) & mask,
            }
        }
    }

    /// Gives `key` the next chunk — `CHUNK` slots appended, all
    /// `EMPTY` — and enters it at the vacant directory `entry`
    /// [`chunk`](Self::chunk) found, or, if that would fill the
    /// directory past 7/8, doubles the directory instead, which enters
    /// every chunk anew.
    ///
    /// # Panics
    ///
    /// Panics if the table would have more than 2³² slots (see
    /// [`chunk_end`]).
    #[cold]
    fn add_chunk(&mut self, key: u64, entry: usize) -> usize {
        let chunk = self.keys.len();
        let end = chunk_end(chunk).unwrap_or_else(|why| panic!("{why}"));
        self.stamps.resize(end, EMPTY);
        self.keys.push(key);
        if self.keys.len() * 8 > self.dir.len() * 7 {
            self.grow_dir();
        } else {
            self.dir[entry] = (key, chunk as u32 + 1);
        }
        chunk
    }

    /// Doubles the directory and enters every chunk in it again. The
    /// chunks stay where they are, so no slot number changes and no
    /// ring record needs re-pointing.
    #[cold]
    fn grow_dir(&mut self) {
        self.dir = vec![(0, 0); self.dir.len() * 2];
        self.shift -= 1;
        for (chunk, &key) in self.keys.iter().enumerate() {
            let entry = self.chunk(key).expect_err("chunk keys are distinct");
            self.dir[entry] = (key, chunk as u32 + 1);
        }
    }

    /// Evicts the least recently used line: the first live record at or
    /// after `tail`. Only called with `live == capacity >= 1`, so there
    /// is one.
    #[inline]
    fn evict(&mut self) {
        let mask = self.ring.len() - 1;
        loop {
            let position = self.tail;
            self.tail += 1;
            let slot = self.ring[position as usize & mask] as usize;
            if self.stamps[slot] == position {
                return;
            }
        }
    }

    /// Appends a record for `slot` at `head` and stamps the slot with
    /// it, which kills the slot's earlier record if it had one.
    #[inline]
    fn append(&mut self, slot: usize) {
        if self.head >= RENUMBER_AT {
            self.renumber();
        }
        if (self.head - self.tail) as usize == self.ring.len() {
            self.compact();
        }
        let mask = self.ring.len() - 1;
        self.ring[self.head as usize & mask] = slot as u32;
        self.stamps[slot] = self.head;
        self.head += 1;
    }

    /// Makes room in a full (or not yet allocated) ring: re-appends the
    /// live records at fresh positions, oldest first, and moves `tail`
    /// up to where they start. Only resident lines' stamps change; an
    /// evicted line's stamp was below the old `tail` and stays below the
    /// new one, so the table is not swept.
    ///
    /// The ring is full, so position `head + j` shares an index with
    /// position `tail + j`, and the `j`-th live record is at or after
    /// that: the in-place rewrite never overwrites a record it has yet
    /// to read.
    ///
    /// If the live records fill more than a quarter of the ring, it
    /// then grows to the power of two at or above four times their
    /// number — at most four times the capacity — so at least three
    /// touches in four are free of this work.
    #[cold]
    fn compact(&mut self) {
        let mask = self.ring.len().wrapping_sub(1);
        let mut next = self.head;
        for position in self.tail..self.head {
            let slot = self.ring[position as usize & mask];
            if self.stamps[slot as usize] == position {
                self.stamps[slot as usize] = next;
                self.ring[next as usize & mask] = slot;
                next += 1;
            }
        }
        self.tail = self.head;
        self.head = next;
        // `live` already counts the line this room is being made for.
        let wanted = (4 * self.live as usize).next_power_of_two().max(MIN_RING);
        if wanted > self.ring.len() {
            let mut ring = vec![0; wanted];
            for position in self.tail..self.head {
                ring[position as usize & (wanted - 1)] = self.ring[position as usize & mask];
            }
            self.ring = ring;
        }
    }

    /// Moves every position down, so `tail` is within a ring's length
    /// of `FIRST`, by a multiple of the ring's length, so no record
    /// moves. The one operation that sweeps the table: resident lines'
    /// stamps shift with the positions, every other line's becomes
    /// `EVICTED`. Runs once in about four billion touches.
    #[cold]
    fn renumber(&mut self) {
        let ring_len = self.ring.len().max(1) as u32;
        let shift = (self.tail - FIRST) & !(ring_len - 1);
        let tail = self.tail;
        for stamp in &mut self.stamps {
            *stamp = if *stamp >= tail {
                *stamp - shift
            } else {
                (*stamp).min(EVICTED)
            };
        }
        self.tail -= shift;
        self.head -= shift;
    }
}

/// The end of chunk `chunk`'s slots in `stamps`, or the sentence that
/// says why there is no such chunk. Memory runs out first: the last
/// chunk allowed is the 2²⁸th, whose stamps alone take 16 GiB.
fn chunk_end(chunk: usize) -> Result<usize, String> {
    match chunk
        .checked_add(1)
        .and_then(|chunks| chunks.checked_mul(CHUNK))
    {
        Some(end) if end as u64 <= MAX_SLOTS => Ok(end),
        _ => Err(format!(
            "the 3C classifier's line table has {chunk} chunks of {CHUNK} lines and \
             cannot add one: a slot number must fit in 32 bits ({MAX_SLOTS} slots at most)"
        )),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// The naive model — linear search, move to the front, drop the
    /// back — plus the set of lines ever touched. `lru.rs` tests the
    /// reference and the conversions against it too.
    pub(crate) struct Oracle {
        recency: VecDeque<u64>,
        seen: HashSet<u64>,
        capacity: usize,
    }

    impl Oracle {
        pub(crate) fn new(capacity: usize) -> Self {
            Oracle {
                recency: VecDeque::new(),
                seen: HashSet::new(),
                capacity,
            }
        }

        pub(crate) fn touch(&mut self, line: u64) -> Touch {
            let first = self.seen.insert(line);
            let touch = if let Some(pos) = self.recency.iter().position(|&l| l == line) {
                self.recency.remove(pos);
                Touch::Hit
            } else {
                if self.recency.len() == self.capacity {
                    self.recency.pop_back();
                }
                if first {
                    Touch::First
                } else {
                    Touch::Evicted
                }
            };
            self.recency.push_front(line);
            touch
        }
    }

    pub(crate) fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Touches `steps` lines drawn from `next` in `recency` and in the
    /// oracle, comparing every answer, then the whole state.
    fn drive(
        recency: &mut Recency,
        oracle: &mut Oracle,
        steps: usize,
        mut next: impl FnMut(usize) -> u64,
    ) {
        for step in 0..steps {
            let line = next(step);
            assert_eq!(recency.touch(line), oracle.touch(line), "step {step}");
        }
        assert!(
            recency.resident().eq(oracle.recency.iter().rev().copied()),
            "resident lines, least recently used first"
        );
        assert_eq!(recency.seen().collect::<HashSet<_>>(), oracle.seen);
        assert_eq!(recency.seen().count(), oracle.seen.len());
        assert_eq!(recency.live as usize, oracle.recency.len());
    }

    /// A random stream over `keys` distinct lines (spread over the
    /// whole `u64` range, line `u64::MAX` included) in a set of
    /// `capacity`, long enough to fill and compact the ring repeatedly.
    fn check_random(capacity: usize, keys: u64) {
        let mut recency = Recency::new(capacity);
        let mut oracle = Oracle::new(capacity);
        let mut state = 0x2545_f491_4f6c_dd1d ^ keys;
        let steps = 40 * capacity.max(keys as usize) + 1000;
        drive(&mut recency, &mut oracle, steps, |_| {
            (xorshift(&mut state) % keys).wrapping_mul(0x0101_0101_0101_0101) ^ u64::MAX
        });
    }

    #[test]
    fn basic_hit_evict_and_first() {
        let mut r = Recency::new(2);
        assert_eq!(r.touch(1), Touch::First);
        assert_eq!(r.touch(2), Touch::First);
        assert_eq!(r.touch(1), Touch::Hit); // 1 now MRU, 2 LRU
        assert_eq!(r.touch(3), Touch::First); // evicts 2
        assert_eq!(r.touch(2), Touch::Evicted); // evicts 1
        assert_eq!(r.touch(3), Touch::Hit);
        assert_eq!(r.touch(1), Touch::Evicted);
        assert_eq!(r.resident().collect::<Vec<_>>(), [3, 1]);
    }

    #[test]
    fn line_zero_is_not_the_line_touched_last_before_any_touch() {
        let mut r = Recency::new(4);
        assert_eq!(r.touch(0), Touch::First);
        assert_eq!(r.touch(0), Touch::Hit);
    }

    #[test]
    fn a_repeated_touch_writes_nothing() {
        let mut r = Recency::new(4);
        r.touch(7);
        r.touch(9);
        let (head, stamps) = (r.head, r.stamps.clone());
        for _ in 0..10 {
            assert_eq!(r.touch(9), Touch::Hit);
        }
        assert_eq!((r.head, &r.stamps), (head, &stamps));
    }

    #[test]
    fn capacity_one() {
        check_random(1, 5);
    }

    #[test]
    fn capacity_above_the_distinct_lines_never_evicts() {
        check_random(64, 40);
        let mut r = Recency::new(64);
        for round in 0..3 {
            for line in 0..40 {
                let expected = if round == 0 { Touch::First } else { Touch::Hit };
                assert_eq!(r.touch(line), expected);
            }
        }
    }

    #[test]
    fn working_sets_just_under_at_and_twice_the_capacity() {
        for keys in [15, 16, 32] {
            check_random(16, keys);
            // Cycled in order: the worst case for LRU once over capacity.
            let mut recency = Recency::new(16);
            let mut oracle = Oracle::new(16);
            drive(&mut recency, &mut oracle, 2000, |step| step as u64 % keys);
        }
    }

    #[test]
    fn the_table_doubles_with_residents_live_across_each_doubling() {
        let capacity = 24;
        let mut recency = Recency::new(capacity);
        let mut oracle = Oracle::new(capacity);
        let mut state = 0x9E37_79B9u64;
        let mut fresh = 0u64;
        // Each step touches a new line or re-touches one of the last 40,
        // so the ring holds live and dead records whenever the directory
        // doubles, and the lines evicted before a doubling are asked
        // about after it. Every third line is new, so the chunks — and
        // the directory — grow with them.
        drive(&mut recency, &mut oracle, 6000, |_| {
            let r = xorshift(&mut state);
            if r.is_multiple_of(8) {
                fresh += 1;
                3 * fresh
            } else {
                3 * fresh.saturating_sub(r % 40)
            }
        });
        let doublings = (recency.dir.len() / MIN_DIR).trailing_zeros();
        assert!(doublings >= 3, "only {doublings} directory doublings");
        // Every line ever touched is still known, across every doubling.
        for line in 0..=fresh {
            assert_ne!(recency.touch(3 * line), Touch::First, "line {}", 3 * line);
        }
    }

    #[test]
    fn lines_on_both_sides_of_chunk_boundaries_and_at_the_ends_of_the_range() {
        let mut lines = vec![0, u64::MAX, u64::MAX - 15];
        for k in [1, 2, 3, 1000, 1 << 40, u64::MAX >> CHUNK_BITS] {
            lines.extend([16 * k - 1, 16 * k]);
        }
        // u64::MAX - 15 is 16 * (u64::MAX >> 4): already in.
        lines.sort_unstable();
        lines.dedup();
        let capacity = 5;
        let mut recency = Recency::new(capacity);
        let mut oracle = Oracle::new(capacity);
        let mut state = 0xC0FF_EE00u64;
        drive(&mut recency, &mut oracle, 4000, |_| {
            lines[(xorshift(&mut state) % lines.len() as u64) as usize]
        });
        assert_eq!(recency.seen().count(), lines.len());
    }

    #[test]
    fn dense_runs_mixed_with_isolated_lines_one_per_chunk() {
        let capacity = 64;
        let mut recency = Recency::new(capacity);
        let mut oracle = Oracle::new(capacity);
        let mut state = 0xABCD_EF01u64;
        // A third of the touches go to 300 isolated lines, each alone
        // in its chunk; the rest to a window sliding over 4000
        // consecutive lines.
        drive(&mut recency, &mut oracle, 20_000, |step| {
            let r = xorshift(&mut state);
            if r.is_multiple_of(3) {
                let i = (r >> 8) % 300;
                (((1 << 40) + i) << CHUNK_BITS) | (i % CHUNK as u64)
            } else {
                (step as u64 / 4 + (r >> 8) % 48) % 4000
            }
        });
        assert_eq!(recency.keys.len(), 300 + 4000 / CHUNK);
    }

    #[test]
    fn consecutive_lines_share_chunks_and_isolated_lines_pay_one_each() {
        // 2^16 consecutive lines: 2^12 full chunks, whose 2^12 keys
        // leave a 2^13-entry directory half full.
        let mut dense = Recency::new(1024);
        for line in 0..1 << 16 {
            dense.touch(line);
        }
        assert_eq!(dense.stamps.len(), 1 << 16);
        assert!(dense.dir.len() <= 1 << 13, "{} entries", dense.dir.len());
        // 2^12 lines one per chunk: the same stamps for 1/16 the lines.
        let mut sparse = Recency::new(1024);
        for chunk in 0..1u64 << 12 {
            sparse.touch((chunk << CHUNK_BITS) | (chunk % CHUNK as u64));
        }
        assert_eq!(sparse.stamps.len(), 1 << 16);
        assert_eq!(sparse.seen().count(), 1 << 12);
    }

    #[test]
    fn hits_alone_compact_the_ring_without_growing_it() {
        let capacity = 32;
        let mut recency = Recency::new(capacity);
        let mut oracle = Oracle::new(capacity);
        let mut state = 77u64;
        // 32 resident lines, then nothing but hits: the ring reaches
        // four times the capacity and stays there.
        drive(&mut recency, &mut oracle, 50 * capacity, |step| {
            if step < capacity {
                step as u64
            } else {
                xorshift(&mut state) % capacity as u64
            }
        });
        assert_eq!(recency.lens().1, 4 * capacity);
        // Twelve or so compactions, each handing out 32 fresh positions.
        assert!(recency.head as usize > FIRST as usize + 50 * capacity);
    }

    #[test]
    fn a_small_working_set_in_a_large_capacity_keeps_the_ring_small() {
        let mut r = Recency::new(1 << 20);
        for step in 0..100_000u64 {
            r.touch(step % 10);
        }
        assert_eq!(r.lens(), (CHUNK, 64));
    }

    #[test]
    fn nothing_is_sized_by_the_capacity() {
        let r = Recency::new(MAX_CAPACITY);
        assert_eq!(r.lens(), (0, 0));
        assert_eq!(r.dir.len(), MIN_DIR);
    }

    #[test]
    fn renumbering_positions_changes_no_answer() {
        // The renumbering point falls at a different state of the
        // stream each time: before the ring is allocated, among the
        // first touches, and deep into evictions and compactions.
        for before in [0, 1, 5, 100, 1000, 4000] {
            let capacity = 16;
            let mut recency = Recency::near_renumbering(capacity, before);
            let mut oracle = Oracle::new(capacity);
            let mut state = 0xDEAD_BEEF ^ u64::from(before);
            drive(&mut recency, &mut oracle, 6000, |_| {
                let r = xorshift(&mut state);
                // Mostly a hot set within capacity (dead records pile
                // up), sometimes a line from a set twice as large.
                if r.is_multiple_of(4) {
                    (r >> 8) % 40
                } else {
                    (r >> 8) % 12
                }
            });
            assert!(
                recency.head < RENUMBER_AT / 2,
                "before {before}: renumbered"
            );
            assert!(recency.tail >= FIRST);
        }
    }

    #[test]
    fn the_slot_limit_is_a_sentence_not_a_wrap() {
        assert_eq!(chunk_end(0), Ok(CHUNK));
        assert_eq!(chunk_end(1), Ok(2 * CHUNK));
        #[cfg(target_pointer_width = "64")]
        {
            assert_eq!(chunk_end((1 << 28) - 1), Ok(1 << 32));
            let why = chunk_end(1 << 28).unwrap_err();
            assert!(why.contains("4294967296 slots at most"), "{why}");
        }
        assert!(chunk_end(usize::MAX / CHUNK).is_err());
        assert!(chunk_end(usize::MAX).is_err());
    }

    #[test]
    fn rebuilding_from_seen_and_resident_lines_restores_every_answer() {
        let capacity = 8;
        let mut original = Recency::new(capacity);
        let mut state = 5u64;
        for _ in 0..500 {
            original.touch(xorshift(&mut state) % 30);
        }
        let mut rebuilt = Recency::new(capacity);
        for line in original.seen() {
            rebuilt.note_seen(line);
        }
        for line in original.resident() {
            assert_eq!(rebuilt.touch(line), Touch::Evicted);
        }
        assert!(rebuilt.resident().eq(original.resident()));
        for _ in 0..500 {
            let line = xorshift(&mut state) % 40;
            assert_eq!(rebuilt.touch(line), original.touch(line));
        }
    }

    #[test]
    #[should_panic(expected = "not between 1 and")]
    fn zero_capacity_panics() {
        let _ = Recency::new(0);
    }
}
